"""Report documents: every view is described once, three emitters print it.

A report -- the attribution waterfall, the ``topo`` hotspot view, the
``txn`` anatomy, each dashboard section -- is a list of *blocks* from a
closed vocabulary: :class:`Heading`, :class:`Para`, :class:`Items`,
:class:`Details` and :class:`Table`.  Table columns are typed (text, code
or number); a cell is a plain value or a :class:`Mark` from one of five
constructors (:func:`bar`, :func:`split`, :func:`spark`, :func:`heat`,
:func:`status`).  Text may carry two inline spans, written `` `code` ``
and ``**strong**``; escaping happens here, never in the code that builds
blocks.  :func:`render_text`, :func:`render_markdown` and
:func:`render_html` emit the same list and differ only in presentation
(the content rule, DESIGN.md "Report documents").
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

_INLINE = re.compile(r"`([^`]*)`|\*\*(.+?)\*\*")


def _plain(text: str) -> str:
    return _INLINE.sub(lambda m: m[1] if m[1] is not None else m[2], text)


def _inline_html(text: str) -> str:
    return _INLINE.sub(
        lambda m: (f"<code>{m[1]}</code>" if m[1] is not None
                   else f"<b>{m[2]}</b>"), html.escape(text, quote=False))


def fmt_ps(ps: int) -> str:
    """A picosecond duration in the unit a reader wants (ps, ns or us)."""
    if ps >= 1_000_000:
        return f"{ps / 1_000_000:.2f}us"
    if ps >= 1_000:
        return f"{ps / 1_000:.0f}ns"
    return f"{ps}ps"


#: Eight block glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
SPARK_WIDTH = 60


def _heights(values: Sequence[float], floor: Optional[float]) -> List[float]:
    """*values* scaled to 0..1 from *floor* (None: their minimum) to their
    maximum; a flat series is all zeros."""
    lo = min(values) if floor is None else floor
    span = max(values) - lo
    return [max(0.0, (v - lo) / span) if span > 0 else 0.0 for v in values]


def sparkline(values: Sequence[float], floor: Optional[float] = None) -> str:
    """A one-line unicode sparkline scaled from *floor* to the series max.

    ``floor=None`` scales from the series minimum so small drifts stay
    visible (ledger trends); ``floor=0`` keeps absolute height (queue
    occupancy).  A series longer than ``SPARK_WIDTH`` is downsampled to
    that many glyphs by the maximum of each stride, which keeps spikes.
    """
    values = list(values)
    if len(values) > SPARK_WIDTH:
        stride = len(values) / SPARK_WIDTH
        values = [max(values[int(i * stride):
                             max(int(i * stride) + 1, int((i + 1) * stride))])
                  for i in range(SPARK_WIDTH)]
    top = len(SPARK_GLYPHS) - 1
    return "".join(SPARK_GLYPHS[int(round(top * h))]
                   for h in _heights(values, floor)) if values else ""


# -- cell marks ---------------------------------------------------------------

class Mark(NamedTuple):
    """A table cell with art: *glyphs* in text and markdown, *html* in
    HTML, each followed by the *text* all three outputs share."""
    glyphs: str
    html: str
    text: str = ""


def bar(value: float, peak: float, width: int = 24) -> Mark:
    """A signed bar about a midline, *width* glyphs at *peak* (> 0)."""
    pct = 50.0 * abs(value) / peak
    side, start = ("r", 50.0) if value >= 0 else ("l", 50.0 - pct)
    return Mark(
        ("+" if value >= 0 else "−") + "#" * int(round(width * pct / 50)),
        f'<span class="wf"><span class={side} style="margin-left:'
        f'{start:.1f}%;width:{pct:.1f}%"></span></span>')


def split(wait: float, service: float) -> Mark:
    """How one total divides into queue wait (warm) and service (cool)."""
    pct = 100.0 * wait / ((wait + service) or 1)
    n = int(round(pct / 10))
    return Mark(
        "#" * n + "·" * (10 - n),
        f'<span class="wf split"><span class=r style="width:{pct:.1f}%">'
        f'</span><span class=l style="width:{100 - pct:.1f}%"></span></span>',
        f"{pct:.0f}% wait")


def spark(values: Sequence[float], floor: Optional[float] = None) -> Mark:
    """A series over time; *floor* as in :func:`sparkline`."""
    values = list(values)
    pts = " ".join(f"{2 + 116 * i / (len(values) - 1):.1f},{21 - 18 * h:.1f}"
                   for i, h in enumerate(_heights(values, floor))
                   ) if len(values) > 1 else ""
    return Mark(
        sparkline(values, floor),
        "<svg class=spark width=120 height=24 role=img><polyline "
        f'fill="none" stroke-width="2" points="{pts}"/></svg>')


def heat(value: float, peak: float) -> Mark:
    """A count whose cell HTML shades by its share of *peak*."""
    shade = (f'<span class=heat style="background:color-mix(in srgb, '
             f'var(--pos) {45 * value / peak:.0f}%, transparent)"></span>'
             if value else "")
    return Mark("", shade, str(value))


def status(ok: bool, label: str) -> Mark:
    """Pass/fail: a glyph plus a label, never colour alone."""
    glyph = "✓" if ok else "✗"
    return Mark(glyph, f"<span class={'ok' if ok else 'bad'}>{glyph}</span>",
                label)


def cell_text(cell: object, kind: str = "t") -> str:
    """*cell* of a *kind* column, in inline markup, as text and markdown
    print it: a mark's glyphs then its text; code columns tick theirs."""
    if isinstance(cell, Mark):
        return f"{cell.glyphs} {cell.text}".strip()
    return f"`{cell}`" if kind == "c" and str(cell) else str(cell)


# -- blocks -------------------------------------------------------------------

@dataclass(frozen=True)
class Heading:
    text: str
    level: int = 2


@dataclass(frozen=True)
class Para:
    """A paragraph; *pre* keeps it verbatim (whitespace, no inline spans)."""
    text: str
    pre: bool = False


@dataclass(frozen=True)
class Items:
    """A bullet list."""
    items: Sequence[str]


@dataclass(frozen=True)
class Details:
    """A summary line over a body the reader may fold away."""
    summary: str
    body: Sequence[object]


@dataclass(frozen=True)
class Table:
    """*kinds* types the columns, one letter each: ``t`` text, ``c`` inline
    code, ``n`` number (right-aligned)."""
    kinds: str
    header: Sequence[str]
    rows: Sequence[Sequence[object]]       #: plain values or marks

    def __post_init__(self):
        if set(self.kinds) - set("tcn"):
            raise ValueError(f"unknown column kind in {self.kinds!r}")
        for row in (self.header, *self.rows):
            if len(row) != len(self.kinds):
                raise ValueError(f"{len(row)} cells in a {len(self.kinds)}"
                                 f"-column table: {row!r}")


# -- text ---------------------------------------------------------------------

def render_text(blocks: Sequence[object], indent: int = 0) -> str:
    """Terminal form: a blank line before every heading and after every
    table and folded body; table rows and folded bodies are indented."""
    out: List[str] = []
    pad, prev = " " * indent, None
    for block in blocks:
        if out and (isinstance(block, Heading)
                    or isinstance(prev, (Table, Details))):
            out.append("")
        prev = block
        if isinstance(block, Heading):
            out.append(pad + _plain(block.text))
        elif isinstance(block, Para):
            text = block.text if block.pre else _plain(block.text)
            out += [pad + line for line in text.splitlines()]
        elif isinstance(block, Items):
            out += [f"{pad}- {_plain(item)}" for item in block.items]
        elif isinstance(block, Details):
            out += [pad + _plain(block.summary),
                    render_text(block.body, indent + 2)]
        else:
            grid = [list(block.header)] + [
                [_plain(cell_text(cell, kind))
                 for cell, kind in zip(row, block.kinds)]
                for row in block.rows]
            widths = [max(map(len, column)) for column in zip(*grid)]
            for row in grid:
                cells = [c.rjust(w) if kind == "n" else c.ljust(w)
                         for c, w, kind in zip(row, widths, block.kinds)]
                out.append((pad + "  " + "  ".join(cells)).rstrip())
    return "\n".join(out)


# -- markdown -----------------------------------------------------------------

def render_markdown(blocks: Sequence[object]) -> str:
    out: List[str] = []
    for block in blocks:
        if isinstance(block, Heading):
            out.append(f"{'#' * block.level} {block.text}")
        elif isinstance(block, Para):
            out.append(f"```\n{block.text}\n```" if block.pre
                       else block.text)
        elif isinstance(block, Items):
            out.append("\n".join(f"- {item}" for item in block.items))
        elif isinstance(block, Details):
            out.append(f"<details><summary>{_inline_html(block.summary)}"
                       f"</summary>\n\n{render_markdown(block.body)}\n\n"
                       "</details>")
        else:
            lines = ["| " + " | ".join(block.header) + " |",
                     "|" + "|".join("---:" if kind == "n" else "---"
                                    for kind in block.kinds) + "|"]
            for row in block.rows:
                lines.append("| " + " | ".join(
                    cell_text(cell, kind).replace("|", "\\|")
                    for cell, kind in zip(row, block.kinds)) + " |")
            out.append("\n".join(lines))
    return "\n\n".join(out)


# -- html ---------------------------------------------------------------------

#: Surface and ink are the browser's own (``color-scheme`` flips them);
#: only the accents are ours.  The diverging warm/cool pair reads "more
#: vs. less" in signed bars and "wait vs. service" in split bars.
_CSS = """
:root { color-scheme: light dark; --grid: #8884;
  --pos: #e34948; --neg: #2a78d6; --good: #008300; }
@media (prefers-color-scheme: dark) { :root {
  --pos: #e66767; --neg: #3987e5; --good: #33a033; } }
body { margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
  font: 15px/1.5 system-ui, sans-serif; }
th, summary { color: GrayText; text-align: left; }
table { border-collapse: collapse; margin: .5rem 0 1.5rem; }
th, td { padding: .25rem .7rem; border-bottom: 1px solid var(--grid);
  position: relative; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: var(--good); }
.bad { color: var(--pos); }
.heat { position: absolute; inset: 0; }
.wf { display: inline-flex; align-items: center; width: 280px; height: 14px;
  vertical-align: middle; background: linear-gradient(var(--grid),
  var(--grid)) center / 2px 100% no-repeat; }
.wf span { height: 8px; }
.wf .l { background: var(--neg); }
.wf .r { background: var(--pos); }
.wf.split { width: 160px; background: none; }
pre { background: var(--grid); padding: .8rem; overflow-x: auto;
  font-size: 12px; line-height: 1.35; }
svg.spark polyline { stroke: var(--neg); }
""".strip()


def render_html(blocks: Sequence[object], title: str) -> str:
    """A standalone page: inline CSS, no external assets, light/dark via
    ``prefers-color-scheme``."""
    return ("<!doctype html><html lang=en><head><meta charset=utf-8>"
            f"<title>{html.escape(title)}</title><meta name=viewport "
            'content="width=device-width, initial-scale=1">'
            f"<style>{_CSS}</style></head><body>{_blocks_html(blocks)}"
            "</body></html>")


def _blocks_html(blocks: Sequence[object]) -> str:
    out: List[str] = []
    for block in blocks:
        if isinstance(block, Heading):
            out.append(f"<h{block.level}>{_inline_html(block.text)}"
                       f"</h{block.level}>")
        elif isinstance(block, Para):
            out.append(f"<pre>{html.escape(block.text)}</pre>" if block.pre
                       else f"<p>{_inline_html(block.text)}</p>")
        elif isinstance(block, Items):
            out.append("<ul>" + "".join(f"<li>{_inline_html(item)}</li>"
                                        for item in block.items) + "</ul>")
        elif isinstance(block, Details):
            out.append(f"<details><summary>{_inline_html(block.summary)}"
                       f"</summary>{_blocks_html(block.body)}</details>")
        else:
            num = [" class=num" if kind == "n" else ""
                   for kind in block.kinds]
            out.append("<table><tr>" + "".join(
                f"<th{cls}>{_inline_html(title)}</th>"
                for title, cls in zip(block.header, num)) + "</tr>")
            for row in block.rows:
                out.append("<tr>" + "".join(
                    f"<td{cls}>{_cell_html(cell, kind)}</td>"
                    for cell, cls, kind in zip(row, num, block.kinds))
                    + "</tr>")
            out.append("</table>")
    return "".join(out)


def _cell_html(cell: object, kind: str) -> str:
    if isinstance(cell, Mark):
        return f"{cell.html} {_inline_html(cell.text)}".strip()
    return _inline_html(cell_text(cell, kind))
