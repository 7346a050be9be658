"""Time-grid curves with CSV/JSON serialization.

A curve is an ordered set of named columns over one time grid.  CSV
output uses 17 significant digits so regression files are stable and
round-trip exactly; cells for inapplicable values (NaN) are left empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _fmt(x: float) -> str:
    if x != x:  # NaN → empty cell
        return ""
    return format(float(x), ".17g")


@dataclass
class BoundCurve:
    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, values) -> "BoundCurve":
        values = np.asarray(values, dtype=float)
        if values.shape != self.times.shape:
            raise ValueError(f"column {name!r} has {values.shape}, grid is {self.times.shape}")
        self.columns[name] = values
        return self

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self) -> str:
        lines = [",".join(["t", *self.columns])]
        for i, t in enumerate(self.times):
            cells = [_fmt(t)] + [_fmt(col[i]) for col in self.columns.values()]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        d: dict = {"t": [float(t) for t in self.times]}
        for name, col in self.columns.items():
            d[name] = [None if v != v else float(v) for v in col]
        return d

    @classmethod
    def from_csv(cls, text: str) -> "BoundCurve":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        names = lines[0].split(",")
        if names[0] != "t":
            raise ValueError("first CSV column must be 't'")
        rows = [ln.split(",") for ln in lines[1:]]
        times = np.array([float(r[0]) for r in rows])
        curve = cls(times=times)
        for j, name in enumerate(names[1:], start=1):
            curve.add(name, [float(r[j]) if r[j] != "" else float("nan") for r in rows])
        return curve


def time_grid(tmax: float, steps: int) -> np.ndarray:
    """Evenly spaced grid 0..tmax inclusive with ``steps`` intervals."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 <= tmax < math.inf:
        raise ValueError(f"tmax must be a finite number >= 0, got {tmax!r}")
    return np.linspace(0.0, float(tmax), steps + 1)
