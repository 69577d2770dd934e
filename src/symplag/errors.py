"""Exception hierarchy for the toolkit.

Every hard failure raises a subclass of SymplagError so callers (and the
CLI) can distinguish library failures from programming errors.  Rejected
input is a ValueError: the SymplagErrors that reject input (GridTooSmall,
ParameterDomain, ConfigError) are ValueErrors too, and the CLI exits 2 on
any ValueError.
"""


class SymplagError(Exception):
    """Base class for all toolkit errors."""


class GridTooSmall(SymplagError, ValueError):
    """Grid has fewer than the 5 nodes per axis required by the stencils."""


class NotHolomorphic(SymplagError):
    """Input field has a non-negligible antiholomorphic derivative."""


class NotAdapted(SymplagError):
    """A residual of an adapted-frame condition, which is named, exceeds its tolerance."""

    def __init__(self, residual_name: str, value: float, tol: float):
        self.residual_name = residual_name
        self.value = value
        self.tol = tol
        super().__init__(f"gauge residual {residual_name} = {value:.3e} exceeds {tol:.3e}")


class NotLagrangian(SymplagError):
    """Immersion fails the Lagrangian test Omega(f_x, f_y) = 0."""


class NotElliptic(SymplagError):
    """Induced quadratic form is not positive definite (hyperbolic/parabolic input)."""


class IntegrationBlowup(SymplagError):
    """Frame norm exceeded the blowup guard during integration."""


class FrameDefect(SymplagError):
    """Integrated frame left the symplectic group by more than tol_frame."""


class ParameterDomain(SymplagError, ValueError):
    """Closed-form generator parameter outside its admissible domain."""


class ConfigError(SymplagError, ValueError):
    """CLI configuration is missing, malformed, or inconsistent."""
