"""Exception types shared across the library.

Science failures (NoAdmissibleShock, SpectralSplitFailure, ...) are data to
the CLI layer: they get recorded per point instead of aborting a sweep.
"""


class MhdStabError(Exception):
    """Base class for every library-specific error."""


class NonAdmissibleState(MhdStabError):
    """State violates admissibility (rho > 0, theta > 0, P_rho > 0, e_theta > 0)."""


class ZeroFrequency(MhdStabError):
    """A nonzero frequency vector xi is required."""


class SingularTransform(MhdStabError):
    """The (sigma, theta) -> (x, y) change of variables is numerically singular."""


class MissingBoundary(MhdStabError):
    """A boundary {axis, frame speed} is required for a glancing verdict."""


class CharacteristicBoundary(MhdStabError):
    """An eigenvalue of A_d is within tol_det max |lambda(A_d)| of zero."""


class SpectralSplitFailure(MhdStabError):
    """The stable/unstable spectral gap of G is too small to split reliably."""


class DimensionMismatch(MhdStabError):
    """Subspace dimensions do not sum to the full trace dimension."""


class NoAdmissibleShock(MhdStabError):
    """Jump-condition Newton solve failed or the Lax inequalities are violated."""


class RankDeficiency(MhdStabError):
    """Front elimination in the shock boundary operator degenerates."""


class ConfigError(MhdStabError):
    """Run configuration failed schema validation."""
