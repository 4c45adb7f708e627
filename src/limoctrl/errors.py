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
    """A specification is malformed: an ensemble spec, an empty r grid, a
    non-finite r, a graph with isolated vertices, an unknown strategy or
    theta without its graph, a plant handed to augment with a NaN or
    infinite entry of A, B or D, or a controller dict whose A_K or C_K has
    a nonzero off-diagonal entry.

    A plant's sparsity and input-gain floor are not checked here: validate
    returns their breaches as violations."""


class ZeroParameterError(LimoctrlError):
    """A parameter that must be nonzero is zero."""


class NonPositiveEpsilonError(LimoctrlError):
    """Input-gain floor must be positive and finite."""


class NotNilpotentError(LimoctrlError):
    """Plant matrix fails the A@A == 0 requirement."""


class ZeroGainError(LimoctrlError):
    """An input gain b_ii is exactly zero, and the design or cost form
    asked for divides by it."""


# solvers

class NoConvergenceError(LimoctrlError):
    """Fixed-point iteration hit max_iter before meeting tolerance, or took
    a non-finite step."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SingularInnerMatrixError(LimoctrlError):
    """The inner matrix inverted each iteration lost rank."""


class SingularResolventError(LimoctrlError):
    """(zI - A_K) not invertible at the requested point z: z is a
    controller mode."""


# ratio experiments

class IndeterminateRatioError(LimoctrlError):
    """Nonzero cost over zero optimal cost, ratio undefined."""


class InvalidPerturbationError(LimoctrlError):
    """A row perturbation names a row outside 1..n, gives a replacement row
    of the wrong length, or leaves the plant outside its structured set."""


class DisturbanceGrowthWarning(UserWarning):
    """Disturbance dynamics have a mode with |d_ii| > 1; infinite-horizon
    cost may be infinite."""
