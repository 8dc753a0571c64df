"""Exception hierarchy.

Two broad families: validation errors (malformed or illegal inputs,
detected before any numerics run) and numerical errors (a computation
ran but could not meet its tolerance contract). The CLI maps the former
to exit code 1 and the latter to exit code 2.
"""


class EffopError(Exception):
    """Base class for every error raised by this package; keyword
    arguments are diagnostics, kept as attributes of the same name."""

    def __init__(self, *args, **diagnostics):
        super().__init__(*args)
        self.__dict__.update(diagnostics)


class ValidationError(EffopError):
    """Input fails a structural or consistency requirement."""


class NumericalError(EffopError):
    """A numerical procedure could not satisfy its tolerance."""


class NotHermitian(ValidationError):
    """Matrix asymmetry exceeds the Hermiticity tolerance."""


class NonFinite(ValidationError):
    """Array contains NaN or infinite entries."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes."""


class IndexOutOfRange(ValidationError):
    """A 1-based index lies outside {1..N}."""


class DuplicateIndex(ValidationError):
    """An index set contains repeated entries."""


class SingularProjection(ValidationError):
    """Projected vectors are numerically rank deficient for this model space."""


class CapTooTight(ValidationError):
    """No candidate model space passed the condition-number cap."""


class NotInSubspace(ValidationError):
    """Vector is not (numerically) inside the selected invariant subspace."""


class ZeroVector(ValidationError):
    """Expectation value of the zero vector is undefined."""


class NotAnEigenvector(ValidationError):
    """Supplied (vector, value) pair fails the eigenpair residual test."""


class NotCommuting(ValidationError):
    """A pair of set members has a commutator above tolerance."""

    pair = None
    norm = None


class PartitionInvalid(ValidationError):
    """Index blocks do not form a disjoint cover of {1..N}."""


class InvalidSpec(ValidationError):
    """Problem-generator specification is malformed."""


class MatrixFileError(ValidationError):
    """Matrix file cannot be parsed."""


class SolverFailure(NumericalError):
    """Dense eigensolver failed or produced residuals above tolerance."""


class NotDecoupled(NumericalError):
    """Decoupling residual is too large for the requested construction."""

    member = None
    residual = None


class SylvesterSingular(NumericalError):
    """Diagonal blocks share spectrum; the linearized sweep is singular."""


class MaxIterExceeded(NumericalError):
    """Iteration budget exhausted before convergence."""

    best = residual = trace = None


class Diverged(NumericalError):
    """Iterate norm exceeded the divergence cap; carries, as :class:`MaxIterExceeded` does,
    the ``best`` iterate (its record names its sweep, 0 for the start), ``residual``, ``trace``."""

    best = residual = trace = None
