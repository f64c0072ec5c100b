"""Exception types shared across the package."""


class SlitkitError(Exception):
    """Base class for all package errors."""


class NonConvergence(SlitkitError):
    """An iterative solve failed to reach its tolerance."""


class SingularSystem(SlitkitError):
    """A coefficient linear system lost its triangular structure."""


class SingularMoments(SlitkitError):
    """Mollifier moment system is numerically singular."""


class MaskDegenerate(SlitkitError):
    """Slit mask is empty or covers the whole symmetry plane."""


class IllConditioned(SlitkitError):
    """Least-squares normal system too ill-conditioned to trust."""


class InsufficientResolution(SlitkitError):
    """Too few sample nodes at the smallest requested scale."""


class DegenerateWeight(SlitkitError):
    """The weight u_n changes sign on the evaluation set."""


class MultipleRoots(SlitkitError):
    """Coarse scan found more than one sign change; all roots attached."""


class NoBracket(SlitkitError):
    """No sign change of the residual inside the given bracket."""


class OutOfChart(SlitkitError):
    """Quadrature ball exits the tubular neighborhood of the interface."""


class ConfigInvalid(SlitkitError):
    """Experiment configuration failed validation."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class TruncationWarning(UserWarning):
    """A result is cut short: a half-angle series whose tail is not
    negligible, or an exact solve on a curved jet too short for its
    degree."""
