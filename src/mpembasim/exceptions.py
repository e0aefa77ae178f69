"""Exception hierarchy for the mpembasim library.

Library code raises subclasses of :class:`MpembaSimError` for every failure
mode it can diagnose, so callers (including the command line front end) can
distinguish numerical trouble from bad input without string matching.
"""


class MpembaSimError(Exception):
    """Base class for all errors raised by this package."""


class NumericsError(MpembaSimError):
    """Base class for dense linear-algebra failures."""


class NonConvergenceError(NumericsError):
    """The underlying eigenvalue iteration did not converge."""


class DefectiveMatrixError(NumericsError):
    """A matrix has no well-conditioned eigenbasis; left/right pairing failed."""


class SingularInputError(NumericsError):
    """An eigenvalue is too close to zero for a principal logarithm."""


class BranchCutError(NumericsError):
    """An eigenvalue lies on the negative real axis; the principal branch is ambiguous."""


class NoStationaryModeError(MpembaSimError):
    """A generator has no eigenvalue close enough to zero to define a fixed point."""


class HermiticityError(MpembaSimError):
    """A propagated state drifted too far from Hermitian to repair silently."""


class TauOutOfRangeError(MpembaSimError, ValueError):
    """A channel delay outside the physical window was requested."""


class GridMismatchError(MpembaSimError, ValueError):
    """Two trajectories sampled on different time grids were compared pointwise."""


class SingularReferenceError(MpembaSimError):
    """The reference state of a relative entropy is not full rank."""


class DegenerateHamiltonianError(MpembaSimError):
    """An energy spectrum is too degenerate to define a population ordering."""


class ThresholdUnreachableError(MpembaSimError):
    """A relaxation curve never reaches the requested threshold."""


class NoAdvantageError(MpembaSimError, ValueError):
    """A cycle-power ratio fell below one: the accelerated cycle is the slower one."""


class ConfigError(MpembaSimError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """A configuration line or override flag could not be parsed, or a line
    names a key that is not part of the schema."""


class ValidationError(ConfigError):
    """A configuration value violates a physical or structural constraint."""
