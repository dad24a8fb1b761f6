"""Tests for the report-document model and its three emitters."""

import ast
import html as html_lib
import re
from pathlib import Path

import pytest

from repro.obs.doc import (
    Details,
    Heading,
    Items,
    Mark,
    Para,
    Table,
    bar,
    cell_text,
    fmt_ps,
    heat,
    render_html,
    render_markdown,
    render_text,
    spark,
    sparkline,
    split,
    status,
)


def fixture_doc():
    """One document using every block and every cell mark."""
    return [
        Heading("Report <one> & only", 1),
        Para("Lead with `inline code` and **strong words**."),
        Heading("A section"),
        Items(["first `item`", "second <item>"]),
        Table("tcnt", ["name", "id", "count", "art"], [
            ["alpha & beta", "a<b>", 12, bar(-30.0, 60.0, width=8)],
            ["gamma", "x|y", 3, split(250, 750)],
            ["delta", "", 0, spark([1.0, 3.0, 2.0])],
            ["epsilon", "e", heat(7, 14), status(False, "2 off")],
            ["zeta", "z", heat(0, 14), status(True, "ok")],
        ]),
        Details("fold `me`", [
            Heading("Inside", 3),
            Para("  verbatim <pre> & spacing\n    kept", pre=True),
            Table("n", ["n"], [[1]]),
        ]),
    ]


def visible_text(page):
    """What a reader of the HTML sees: tags dropped, entities unescaped."""
    return html_lib.unescape(re.sub(r"<[^>]+>", "", page))


def walk(blocks):
    for block in blocks:
        yield block
        if isinstance(block, Details):
            yield from walk(block.body)


class TestEmitterParity:
    def outputs(self):
        blocks = fixture_doc()
        return (render_text(blocks), render_markdown(blocks),
                render_html(blocks, "fixture"))

    def test_every_heading_and_cell_text_is_in_all_three_outputs(self):
        text, md, page = self.outputs()
        wanted = []
        for block in walk(fixture_doc()):
            if isinstance(block, Heading):
                wanted.append(block.text)
            elif isinstance(block, Table):
                wanted += list(block.header)
                for row in block.rows:
                    wanted += [cell.text if isinstance(cell, Mark)
                               else str(cell) for cell in row]
        assert "25% wait" in wanted and "2 off" in wanted and "7" in wanted
        for token in filter(None, wanted):
            assert token in text, token
            assert token in md.replace("\\|", "|"), token
            assert token in visible_text(page), token

    def test_same_order_in_all_three_outputs(self):
        text, md, page = self.outputs()
        landmarks = ["Report <one>", "inline code", "A section", "first",
                     "alpha & beta", "epsilon", "fold", "Inside", "verbatim"]
        for out in (text, md, visible_text(page)):
            positions = [out.index(mark) for mark in landmarks]
            assert positions == sorted(positions)

    def test_html_is_escaped_and_inline_marks_become_tags(self):
        _text, _md, page = self.outputs()
        assert "Report &lt;one&gt; &amp; only" in page
        assert "<code>a&lt;b&gt;</code>" in page
        assert "second &lt;item&gt;" in page
        assert "verbatim &lt;pre&gt; &amp; spacing\n    kept" in page
        assert "<code>inline code</code>" in page
        assert "<b>strong words</b>" in page
        assert "<one>" not in page and "<item>" not in page
        assert page.startswith("<!doctype html>")
        assert "<link" not in page and "<script" not in page

    def test_presentation_is_where_the_emitters_differ(self):
        text, md, page = self.outputs()
        # `#` bars vs. CSS bars.
        assert "−####" in text and "−####" in md
        assert 'class="wf"' in page and "−####" not in page
        # Unicode vs. SVG sparkline.
        assert "▁█▅" in text and "▁█▅" in md
        assert "<svg class=spark" in page and "▁█▅" not in page
        # <details> vs. indentation.
        assert "<details><summary>fold <code>me</code></summary>" in md
        assert "<details><summary>fold <code>me</code></summary>" in page
        assert "\nfold me\n  Inside\n" in text
        # The heat shade only HTML draws; zero cells stay unshaded.
        assert page.count("color-mix") == 1
        # Status is a glyph plus a label in every format.
        for out in (text, md):
            assert "✗ 2 off" in out and "✓ ok" in out
        assert "<span class=bad>✗</span> 2 off" in page

    def test_text_inline_marks_are_dropped_and_markdown_keeps_them(self):
        text, md, _page = self.outputs()
        assert "Lead with inline code and strong words." in text
        assert "Lead with `inline code` and **strong words**." in md

    def test_text_tables_align_numbers_right_and_text_left(self):
        text = render_text([Table("tn", ["name", "n"],
                                  [["a", 5], ["long name", 12345]])])
        assert text.splitlines() == ["  name           n",
                                     "  a              5",
                                     "  long name  12345"]

    def test_markdown_table_escapes_pipes_and_ticks_code_columns(self):
        md = render_markdown(fixture_doc())
        assert "| gamma | `x\\|y` | 3 |" in md
        assert "| delta |  | 0 |" in md        # empty code cell: no ticks
        assert "|---|---|---:|---|" in md


class TestTable:
    def test_ragged_rows_and_unknown_kinds_are_rejected(self):
        with pytest.raises(ValueError, match="2 cells in a 3-column"):
            Table("ttn", ["a", "b", "c"], [["x", "y"]])
        with pytest.raises(ValueError, match="1 cells in a 2-column"):
            Table("tn", ["a"], [])
        with pytest.raises(ValueError, match="column kind"):
            Table("tx", ["a", "b"], [])


class TestFormatters:
    def test_fmt_ps_picks_the_unit(self):
        assert fmt_ps(0) == "0ps"
        assert fmt_ps(999) == "999ps"
        assert fmt_ps(85_000) == "85ns"
        assert fmt_ps(3_270_000) == "3.27us"

    def test_sparkline_floor_is_the_series_minimum_or_given(self):
        # Drift view: min..max, so a 1% wobble still spans the glyphs.
        assert sparkline([100.0, 101.0]) == "▁█"
        # Occupancy view: absolute height above zero.
        assert sparkline([100.0, 101.0], floor=0) == "██"
        assert sparkline([0.0, 2.0, 4.0], floor=0) == "▁▅█"
        assert sparkline([0.0, 0.0], floor=0) == "▁▁"

    def test_long_series_downsample_to_sixty_glyphs_keeping_spikes(self):
        series = [0.0] * 512
        series[300] = 9.0
        line = sparkline(series, floor=0)
        assert len(line) == 60
        assert line.count("█") == 1 and set(line) == {"▁", "█"}
        assert len(cell_text(spark(series, floor=0))) == 60

    def test_marks_compose_art_then_text(self):
        assert cell_text(split(1, 3)) == "##········ 25% wait"
        assert cell_text(bar(5.0, 10.0, width=4)) == "+##"
        assert cell_text(heat(3, 9)) == "3"
        assert cell_text(status(True, "ok")) == "✓ ok"


SRC = Path(__file__).parents[1] / "src" / "repro"

#: Markdown table rules and cell separators, fences, and column-aligned
#: format specs (``{x:26s}``, ``{x:>8d}``, ``{x:<{w}s}``, ``{x:10.3f}``,
#: ``ljust``/``rjust``): the marks of a hand-rolled table.
HAND_TABLE = re.compile(r"\|---|[\"']\| |```|:[<>^]?(\d+|\{\w+\})[sd]\}"
                        r"|:[<>^]?\d+\.\d+f\}|\.[lr]just\(")

#: The ASCII figure art has no table to share (DESIGN.md "Report
#: documents"); these are the only functions allowed to lay out columns.
CHART_ART = {("validation/report.py", "bar_chart"),
             ("validation/report.py", "line_chart")}


def chart_lines(rel, source):
    spans = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.FunctionDef)
                and (rel, node.name) in CHART_ART):
            spans.update(range(node.lineno, node.end_lineno + 1))
    return spans


def test_only_doc_writes_tables():
    """Every table is a :class:`Table` rendered by ``doc``; no other
    module writes markdown table syntax or aligns columns itself."""
    offenders, exempt = [], 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "obs/doc.py":
            continue
        source = path.read_text()
        allowed = chart_lines(rel, source)
        for lineno, line in enumerate(source.splitlines(), 1):
            if HAND_TABLE.search(line):
                if lineno in allowed:
                    exempt += 1
                else:
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert offenders == []
    assert exempt > 0      # the pattern still sees the charts it exempts
