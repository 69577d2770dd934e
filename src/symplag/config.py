"""The number rule and the tolerances shared by all modules: `_number` is the
one check of every scalar input.  Imports nothing from the package."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


def _number(name: str, value, integer: bool = False) -> float | int:
    """`value` as a float, or as an int when `integer` (an integer-valued float
    counts); anything but a finite real, a bool or a numeric string included,
    is a ValueError naming `name`."""
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value) and (not integer or value == int(value)))
    except OverflowError:  # an int past the float range
        ok = False
    if ok:
        return int(value) if integer else float(value)
    kind = "an integer" if integer else "a finite number"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances; every pass/fail flag in the toolkit traces to one of these.

    tol_rank      -- determinant/rank threshold for rank drops and never-zero fields
    tol_resid     -- the integrability equations in either form, r1-r3 of
                     inteq_residual or Theta's flatness (above it integration
                     warns), and the holomorphy of p
    tol_frame     -- symplectic defect allowed for integrated frame nodes
    tol_gauge     -- ellipticity and conformality gates of invariant extraction
    tol_congruent -- congruence defect below which two immersions count as congruent
    """

    tol_rank: float = 1e-12
    tol_resid: float = 1e-6
    tol_frame: float = 1e-8
    tol_gauge: float = 1e-6
    tol_congruent: float = 1e-6

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = _number(f"tolerance {f.name}", getattr(self, f.name))
            if v <= 0:
                raise ValueError(f"tolerance {f.name} must be positive, got {v}")
            object.__setattr__(self, f.name, v)

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOLS = Tolerances()
