"""Numerical toolkit for elliptic Lagrangian surfaces in affine symplectic R^4."""

from .config import DEFAULT_TOLS, Tolerances
from .core import J4
from .grids import ComplexGrid, GridGeometry, d_z, d_zbar, load_grid, save_grid
from .invariants import (
    InvariantTriple,
    applicability_residual,
    dbar_fubini_residual,
    inteq_residual,
    shift_family,
)
from .frames import (
    FrameField,
    ImmersionGrid,
    MaurerCartanField,
    congruence_defect,
    congruence_matrix,
    flatness_residual,
    immersion_from_frame,
    integrate_frame,
    invariants_from_immersion,
    lagrangian_defect,
    load_immersion,
    save_immersion,
    theta_from_invariants,
)
from .generators import (
    ConstantFamilyParams,
    UmbilicCurveSpec,
    closed_form_immersion,
    curve_to_immersion,
    family_triple,
    flex_defect,
    separated_t,
    umbilic_curve,
    umbilic_immersion,
)

__version__ = "0.1.0"
