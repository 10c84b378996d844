"""One-parameter scans of a gate's rotation fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .gates import GateParams, make_protocol, rotation_fidelity, run_gate

_INT_FIELDS = frozenset(f.name for f in fields(GateParams) if f.type == "int")
_NUMERIC_FIELDS = frozenset(f.name for f in fields(GateParams) if f.type.removesuffix(" | None") in ("float", "int"))


def _with_value(base: GateParams, name: str, v: float) -> GateParams:
    """base with one field set, cast to its field's type.

    An integer field takes an integral value as int and anything else
    unchanged, for GateParams to reject.
    """
    return replace(base, **{name: int(v) if name in _INT_FIELDS and float(v).is_integer() else float(v)})


@dataclass(frozen=True)
class ScanSpec:
    """One-parameter grid scan of a gate variant.

    parameter is a numeric GateParams field name; the rotation fidelity is
    evaluated by a full gate run per grid value.
    """

    variant: str
    base: GateParams
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty scan grid")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("scan grid contains non-finite values")
        if self.parameter not in _NUMERIC_FIELDS:
            raise ValueError(f"unknown parameter {self.parameter!r}")


@dataclass
class ScanRow:
    value: float
    metric: float  # rotation fidelity
    fidelity: float
    mean_loss: float
    t_bar_r: float
    error: str = ""


def scan(spec: ScanSpec) -> list[ScanRow]:
    """Evaluate the rotation fidelity (the metric column) over the grid;
    per-point failures are recorded and the scan continues."""
    rows = []
    for v in spec.values:
        try:
            proto = make_protocol(spec.variant, _with_value(spec.base, spec.parameter, v))
            report = run_gate(proto)
            rows.append(
                ScanRow(
                    value=float(v),
                    metric=rotation_fidelity(report.rotation_matrix, proto.ideal),
                    fidelity=report.fidelity,
                    mean_loss=report.mean_loss,
                    t_bar_r=report.t_bar_r,
                )
            )
        except Exception as exc:
            rows.append(ScanRow(value=float(v), metric=math.nan, fidelity=math.nan,
                                mean_loss=math.nan, t_bar_r=math.nan, error=str(exc)))
    return rows
