"""Golden-regression net: checked-in findings snapshots for key experiments.

``tests/golden/*.json`` pins the findings of three cheap, load-bearing
experiments at ``REPRO_SCALE``: ``table1`` (machine geometry), the
``tlb_microbench`` calibration quantities, and ``fig2`` (a full
simulator-vs-hardware comparison), plus one differential-attribution
waterfall (``attribution_fft_solo``: fft, hardware vs Solo, P=1), one
spatial-hotspot report (``hotspot_ocean_hardware``: ocean on hardware,
P=4, under the topo recorder), one transaction-anatomy report
(``txn_fft_hardware``: fft on hardware, P=4, under the txn recorder --
per-kind latency histograms and the slowest-K segment lists), the
engine's calendar for two tiny runs (``calendar_tiny``: event count,
final clock, digest of every entry's time), and the row path in both
its regimes on three core/TLB combinations (``rows_tiny``: result hash,
event count, order-keeping digest of the end-of-run memory state).  Any
simulator change that shifts these numbers fails here with a
field-by-field diff.

If the drift is *intentional*, refresh the snapshots with::

    PYTHONPATH=src python scripts/refresh_goldens.py

review ``git diff tests/golden`` value by value, and commit the new
snapshots with the change that caused them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REFRESH = "PYTHONPATH=src python scripts/refresh_goldens.py"

_spec = importlib.util.spec_from_file_location(
    "refresh_goldens", REPO / "scripts" / "refresh_goldens.py")
refresh_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refresh_goldens)


def diff_snapshots(golden: dict, live: dict) -> str:
    """A readable field-by-field diff between two snapshots."""
    out = []
    for key in ("exp_id", "scale_name"):
        if golden[key] != live[key]:
            out.append(f"{key}: golden {golden[key]!r} != live {live[key]!r}")
    expected = {f["name"]: f for f in golden["findings"]}
    actual = {f["name"]: f for f in live["findings"]}
    for name in list(expected) + [n for n in actual if n not in expected]:
        if name not in actual:
            out.append(f"- finding {name!r} disappeared")
        elif name not in expected:
            out.append(f"+ finding {name!r} is new (not in golden)")
        else:
            for field in ("paper", "measured", "ok", "note"):
                if expected[name][field] != actual[name][field]:
                    out.append(
                        f"finding {name!r} .{field}: "
                        f"golden {expected[name][field]!r} != "
                        f"live {actual[name][field]!r}")
    return "\n".join(out)


def check_golden(exp_id: str) -> None:
    path = GOLDEN_DIR / f"{exp_id}.json"
    assert path.exists(), f"missing snapshot {path}; generate with: {REFRESH}"
    golden = json.loads(path.read_text())
    live = refresh_goldens.snapshot(exp_id)
    drift = diff_snapshots(golden, live)
    if drift:
        pytest.fail(
            f"{exp_id} drifted from its golden snapshot:\n{drift}\n"
            f"If this change is intentional, refresh with: {REFRESH}",
            pytrace=False)


def check_payload(golden_id: str, snapshot_fn) -> None:
    """``snapshot_fn(golden_id)`` must equal its snapshot, key by key."""
    path = GOLDEN_DIR / f"{golden_id}.json"
    assert path.exists(), f"missing snapshot {path}; generate with: {REFRESH}"
    golden = json.loads(path.read_text())
    live = snapshot_fn(golden_id)
    drift = [f"{key}: golden {golden.get(key)!r} != live {live.get(key)!r}"
             for key in sorted(set(golden) | set(live))
             if golden.get(key) != live.get(key)]
    if drift:
        pytest.fail(
            f"{golden_id} drifted from its golden snapshot:\n"
            + "\n".join(drift)
            + f"\nIf this change is intentional, refresh with: {REFRESH}",
            pytrace=False)


@pytest.mark.golden
class TestGoldenSnapshots:
    @pytest.mark.parametrize("exp_id", ["table1", "tlb_microbench"])
    def test_fast_snapshots(self, exp_id):
        check_golden(exp_id)

    @pytest.mark.slow
    def test_fig2_snapshot(self):
        check_golden("fig2")

    @pytest.mark.slow
    def test_attribution_snapshot(self):
        """The fft hardware-vs-Solo waterfall is pinned end to end."""
        check_payload("attribution_fft_solo",
                      refresh_goldens.attribution_snapshot)

    @pytest.mark.slow
    def test_hotspot_snapshot(self):
        """The ocean-on-hardware spatial report is pinned end to end:
        topo hooks, sampler, and report fold must all be deterministic."""
        check_payload("hotspot_ocean_hardware",
                      refresh_goldens.hotspot_snapshot)

    @pytest.mark.slow
    def test_txn_snapshot(self):
        """The fft-on-hardware latency anatomy is pinned end to end:
        txn hooks, segment accounting, histogram fold, and top-K must
        all be deterministic (integer picoseconds throughout)."""
        check_payload("txn_fft_hardware", refresh_goldens.txn_snapshot)

    def test_calendar_snapshot(self):
        """The engine's calendar is pinned: event count, final clock and
        a digest over every entry's time in pop order, for a multi-node
        and a single-node run.  An engine change may rename or fuse
        callbacks, but it may not add, drop or retime a calendar entry."""
        check_payload("calendar_tiny", refresh_goldens.calendar_snapshot)

    def test_rows_snapshot(self):
        """The row path is pinned where no other golden looks: an all-hit
        loop and radix, on the window core, Mipsy, and Mipsy without a
        TLB.  A row-path change may make a reference cheaper, but every
        result, event count, recency order and first-touch counter order
        must come out the same."""
        check_payload("rows_tiny", refresh_goldens.rows_snapshot)

    def test_miss_path_snapshot(self):
        """The DSM transaction path is pinned in every case it has: a
        transaction may take fewer calls, but every calendar entry, the
        end-of-run memory-system state in first-touch order, and every
        probe event -- sealed transaction records, segments and wait
        attribution included -- must come out the same, in order."""
        check_payload("miss_path_tiny", refresh_goldens.miss_path_snapshot)

    def test_snapshot_set_matches_refresh_script(self):
        on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
        assert on_disk == (set(refresh_goldens.GOLDEN_IDS)
                           | set(refresh_goldens.ATTRIBUTION_IDS)
                           | set(refresh_goldens.HOTSPOT_IDS)
                           | set(refresh_goldens.TXN_IDS)
                           | set(refresh_goldens.CALENDAR_IDS)
                           | set(refresh_goldens.ROWS_IDS)
                           | set(refresh_goldens.MISS_PATH_IDS))


class TestDiffReadability:
    """The net is only useful if its failure output reads well."""

    SNAP = {
        "exp_id": "fig0", "scale_name": "repro",
        "findings": [
            {"name": "slowdown", "paper": "10x", "measured": "9.7x",
             "ok": True, "note": ""},
            {"name": "ordering", "paper": "a<b", "measured": "a<b",
             "ok": True, "note": "monotone"},
        ],
    }

    def test_identical_snapshots_have_no_diff(self):
        assert diff_snapshots(self.SNAP, json.loads(json.dumps(self.SNAP))) == ""

    def test_value_drift_names_field_and_both_values(self):
        live = json.loads(json.dumps(self.SNAP))
        live["findings"][0]["measured"] = "2.3x"
        live["findings"][1]["ok"] = False
        drift = diff_snapshots(self.SNAP, live)
        assert "'slowdown' .measured: golden '9.7x' != live '2.3x'" in drift
        assert "'ordering' .ok: golden True != live False" in drift

    def test_missing_and_new_findings_reported(self):
        live = json.loads(json.dumps(self.SNAP))
        live["findings"] = [live["findings"][0],
                            {"name": "extra", "paper": "-", "measured": "-",
                             "ok": True, "note": ""}]
        drift = diff_snapshots(self.SNAP, live)
        assert "- finding 'ordering' disappeared" in drift
        assert "+ finding 'extra' is new" in drift
