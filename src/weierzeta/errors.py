"""Exception types shared across the package."""


class WeierzetaError(Exception):
    """Base class for all library-specific errors."""


class ZeroPeriod(WeierzetaError):
    """A half-period was zero."""


class InvalidPeriodRatio(WeierzetaError):
    """Im(omega3/omega1) must be positive."""


class ConvergencePolicyError(WeierzetaError):
    """The lattice nome exceeds the configured convergence bound."""


class SeriesDivergence(WeierzetaError):
    """A series failed its truncation test within the term budget."""


class NearZeroDenominator(WeierzetaError):
    """A log-derivative denominator is exactly zero."""


class IdenticalIndices(WeierzetaError):
    """Half-period indices must differ."""


class DegenerateLattice(WeierzetaError):
    """The modular discriminant vanishes (collided half-period values)."""


class PoleProximityError(WeierzetaError):
    """An argument sits too close to a pole or singular locus to evaluate."""


class ValueOverflow(WeierzetaError, OverflowError):
    """A value is outside the float range (sigma's exponential factors, wp',
    the partial-fraction sum and the lattice-sum oracles far from unit scale,
    or a kernel's terms on a very tall cell)."""


class BranchAmbiguity(WeierzetaError):
    """A branch of a multivalued logarithm could not be tracked reliably."""


class SuiteConfigError(WeierzetaError):
    """An identity suite has a side that is neither a table function nor
    callable, an unknown route or exclusion token, or a bad setting."""
