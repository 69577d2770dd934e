"""Tolerance configuration shared by all modules."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances; every pass/fail flag in the toolkit traces to one of these.

    tol_rank      -- determinant/rank threshold for rank drops and never-zero fields
    tol_resid     -- generic residual threshold (compatibility equations, holomorphy)
    tol_umbilic   -- below this |h| a node counts as umbilic
    tol_frame     -- symplectic defect allowed for integrated frame nodes
    tol_flat      -- flatness residual above which integration warns
    tol_gauge     -- adapted-gauge residuals for invariant extraction
    tol_congruent -- congruence defect below which two immersions count as congruent
    """

    tol_rank: float = 1e-12
    tol_resid: float = 1e-6
    tol_umbilic: float = 1e-8
    tol_frame: float = 1e-8
    tol_flat: float = 1e-6
    tol_gauge: float = 1e-6
    tol_congruent: float = 1e-6

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"tolerance {f.name} must be a real number, got {v!r}")
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"tolerance {f.name} must be finite and positive, got {v}")

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOLS = Tolerances()
