"""Capture deterministic experiment rows for before/after comparison.

Runs every figure harness (at the smoke-test scale) plus the study
table's full other-ports column and dumps the rows as canonical JSON.  Two captures taken before
and after a performance change must be byte-identical — this is the
conformance gate for hot-path work (the rows are pure functions of the
seed, so any drift means the change altered simulation behaviour).

Usage::

    PYTHONPATH=src python benchmarks/capture_rows.py out.json
    diff before.json after.json
"""

from __future__ import annotations

import json
import sys


def capture() -> dict:
    from repro.experiments import (
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        fig11,
        table_study,
    )

    # fig10 is the one wall-clock experiment (SYN processing latency in
    # real seconds); its rows are not deterministic and are excluded.
    out: dict[str, object] = {}
    out["fig3"] = fig3.run_fig3(mss_sweep=(1448, 8500), transfer_bytes=256 * 1024).rows
    out["fig4"] = fig4.run_fig4(buffers_kb=(200,), duration=8.0).rows
    out["fig5"] = fig5.run_fig5(buffers_kb=(200,), duration=8.0).rows
    out["fig6a"] = fig6.run_panel_a(buffers_kb=(200,), duration=15.0).rows
    out["fig6c"] = fig6.run_panel_c(buffers_kb=(256,), duration=6.0).rows
    out["fig7"] = fig7.run_fig7(duration=10.0).rows
    out["fig8"] = fig8.run_fig8(duration=8.0).rows
    out["fig9"] = fig9.run_fig9(buffers_kb=(200,), duration=10.0).rows
    out["fig11"] = fig11.run_fig11(sizes_kb=(64,), duration=6.0).rows
    out["study"] = table_study.run_table_study().rows
    return out


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "rows.json"
    rows = capture()
    with open(out_path, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True, default=repr)
        fh.write("\n")
    total = sum(len(v) for v in rows.values())
    print(f"captured {total} rows from {len(rows)} experiments -> {out_path}")


if __name__ == "__main__":
    main()
