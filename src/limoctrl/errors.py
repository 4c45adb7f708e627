"""Exception types shared across the toolkit.

Every error raised on bad user input derives from LimoctrlError so callers
can catch one base class at the CLI boundary.
"""


class LimoctrlError(Exception):
    pass


# graph construction / queries

class NonBinaryEntryError(LimoctrlError):
    """Adjacency entry other than 0 or 1."""


class NonSquareError(LimoctrlError):
    """Adjacency matrix is not square."""


class SameIndexError(LimoctrlError):
    """Operation needs two distinct vertex indices."""


class MissingSelfLoopError(LimoctrlError):
    """Design-side graph must contain every self-loop."""


# plant construction / validation

class DimensionMismatchError(LimoctrlError):
    """Array shapes do not agree."""


class NonPositiveWeightError(LimoctrlError):
    """Cost weight matrix is not positive definite."""


class InvalidSpecError(LimoctrlError):
    """Plant violates its structural constraints (sparsity mask, input-gain
    floor, diagonality)."""


class ZeroParameterError(LimoctrlError):
    """A parameter that must be nonzero is zero."""


class NonPositiveEpsilonError(LimoctrlError):
    """Input-gain floor must be strictly positive."""


class NotNilpotentError(LimoctrlError):
    """Plant matrix fails the A@A == 0 requirement."""


class ZeroGainError(LimoctrlError):
    """Input gain entry below the declared floor."""


# solvers

class NoConvergenceError(LimoctrlError):
    """Fixed-point iteration hit max_iter before meeting tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SingularInnerMatrixError(LimoctrlError):
    """The inner matrix inverted each iteration lost rank."""


class SingularResolventError(LimoctrlError):
    """(zI - A_K) not invertible at the requested point z: z is a
    controller mode."""


class UncontrollablePairError(LimoctrlError):
    """(A, B) fails the PBH rank test, so the augmented pair is not
    controllable and no stabilizing solution exists.

    The augmented pair is controllable iff (A, B) is, because the free
    update xi(k+1) reaches every disturbance-side direction; the solver
    accordingly iterates the n-dim (A, B, I, I) DARE. Only a zero input
    gain can trigger this error.
    """


# ratio experiments

class IndeterminateRatioError(LimoctrlError):
    """Nonzero cost over zero optimal cost, ratio undefined."""


class InvalidPerturbationError(LimoctrlError):
    """Perturbation magnitude outside the allowed range."""


class DisturbanceGrowthWarning(UserWarning):
    """Disturbance dynamics have a mode with |d_ii| > 1; infinite-horizon
    cost may be infinite."""
