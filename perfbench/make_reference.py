"""Regenerate perfbench/reference.npz, the data the benchmark checks against.

Usage, from the repository root:

    PYTHONPATH=src:perfbench OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

For every gate a workload evaluates it stores u_gate propagated with a step
REFINE (8) times finer than the workload's own, so that unitary_err measures
the integrator's error rather than drift.  It also stores the fixture-cell
statuses of ``reproduce_tables`` and the duration the calibration chain
returns.  Prints each case's error at the workload's step.  Takes about three
minutes on one core.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

import rydswap.tables as tables
from workloads import GAUSSIAN_RESOLUTION, REFINE, WORKLOADS, Calibration, gate_u, max_abs_diff


def main() -> None:
    out: dict[str, np.ndarray] = {}
    for wl in WORKLOADS.values():
        for case, build in wl.reference_cases().items():
            out[f"u/{case}"] = build(REFINE)
            print(f"{case:28s} |dU| at the workload step {max_abs_diff(build(1), out[f'u/{case}']):.3e}", flush=True)

    out["cells/ok"] = np.array([c.ok for c in tables.reproduce_tables().cells])

    cal = Calibration(0)
    cal.setup()
    t_swap = cal.run_pass()
    swap = replace(cal.params, duration=t_swap)
    out["calibration/t_swap"] = np.array(t_swap)
    out["u/calibration/SWAP"] = gate_u("SWAP", swap, GAUSSIAN_RESOLUTION, REFINE)
    err = max_abs_diff(gate_u("SWAP", swap, GAUSSIAN_RESOLUTION), out["u/calibration/SWAP"])
    print(f"calibration/SWAP (t={t_swap!r}) |dU| at the workload step {err:.3e}")

    path = Path(__file__).resolve().parent / "reference.npz"
    np.savez_compressed(path, **out)
    print(f"wrote {path} ({len(out)} arrays, {int(out['cells/ok'].sum())}/{out['cells/ok'].size} cells ok)")


if __name__ == "__main__":
    main()
