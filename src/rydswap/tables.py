"""Reproduction harness for the published gate-result tables.

Every fixture cell is re-simulated from the bundled operating points and
diffed at its documented tolerance.  A handful of cells are pre-marked as
print-precision limited: they sample a ~GHz dressing oscillation of the
far-detuned return amplitudes (or the transient Rydberg integral of a
suddenly switched drive), so their values move across the printed tolerance
within the rounding of the published parameters themselves.  Those cells are
reported separately and do not fail the harness; any other deviation does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import fixtures as fixtures_pkg
from .analytic import wrap_phase
from .gates import make_protocol, run_gate, table_params


@dataclass
class CellDiff:
    gate: str
    quantity: str
    row: str
    col: str
    printed: float
    measured: float
    tol: float
    expected_red: bool
    note: str

    @property
    def deviation(self) -> float:
        if self.quantity == "phase_pi":
            return abs(wrap_phase((self.measured - self.printed) * math.pi)) / math.pi
        return abs(self.measured - self.printed)

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tol + 1e-12

    @property
    def status(self) -> str:
        return "pass" if self.ok else ("known-red" if self.expected_red else "fail")


@dataclass
class TablesReport:
    cells: list[CellDiff] = field(default_factory=list)

    @property
    def failures(self) -> list[CellDiff]:
        return [c for c in self.cells if not c.ok and not c.expected_red]

    @property
    def known_red(self) -> list[CellDiff]:
        return [c for c in self.cells if not c.ok and c.expected_red]

    @property
    def text(self) -> str:
        lines = []
        for c in self.cells:
            lines.append(
                f"{c.status.upper():9s} {c.gate:14s} {c.quantity:8s} [{c.row},{c.col}] "
                f"printed {c.printed:+.5g} measured {c.measured:+.5g} "
                f"(dev {c.deviation:.2e}, tol {c.tol:.2e})"
                + (f"  # {c.note}" if c.note and not c.ok else "")
            )
        n_ok = sum(c.ok for c in self.cells)
        lines.append(
            f"-- {n_ok}/{len(self.cells)} cells within tolerance; "
            f"{len(self.known_red)} known print-precision-limited, "
            f"{len(self.failures)} unexpected failures"
        )
        return "\n".join(lines)


def _load_fixtures() -> list[dict]:
    ref = resources.files(fixtures_pkg).joinpath("published_tables.csv")
    with ref.open() as fh:
        return list(csv.DictReader(fh))


def reproduce_tables(out_dir: Path | None = None) -> TablesReport:
    """Re-run every published operating point and diff it cell by cell."""
    fixtures = _load_fixtures()
    if not fixtures:
        raise RuntimeError("no fixtures bundled")
    gates = sorted({f["gate"] for f in fixtures})
    reports = {gate: run_gate(make_protocol(gate, table_params(gate))) for gate in gates}

    out = TablesReport()
    for f in fixtures:
        gate = f["gate"]
        rep = reports[gate]
        q = f["quantity"]
        if q == "fidelity":
            measured = rep.fidelity
        elif q == "t_bar_r":
            measured = rep.t_bar_r
        else:
            j = int(f["col"], 2)
            if q == "loss":
                measured = float(rep.per_input_loss[j])
            else:
                i = int(f["row"], 2)
                if q == "amp":
                    measured = float(abs(rep.rotation_matrix[i, j]))
                else:  # phase_pi
                    measured = float(np.angle(rep.u_gate[i, j]) / math.pi)
        out.cells.append(
            CellDiff(
                gate=gate,
                quantity=q,
                row=f["row"],
                col=f["col"],
                printed=float(f["printed"]),
                measured=measured,
                tol=float(f["tol"]),
                expected_red=f["expected_red"] == "1",
                note=f.get("note", ""),
            )
        )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "tables_diff.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["gate", "quantity", "row", "col", "printed", "measured", "deviation", "tol", "status", "note"])
            for c in out.cells:
                w.writerow([c.gate, c.quantity, c.row, c.col, f"{c.printed:.9g}", f"{c.measured:.9g}",
                            f"{c.deviation:.3e}", f"{c.tol:.3e}", c.status, c.note])
    return out
