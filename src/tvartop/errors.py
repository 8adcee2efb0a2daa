"""Exception types shared across the package."""


class TvartopError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(TvartopError):
    """An operation received the empty polyhedron where a nonempty one is required."""


class RankMismatch(TvartopError):
    """Operands live in ambient spaces of different rank."""


class IndexOutOfRange(TvartopError):
    pass


class FanInvalid(TvartopError):
    """Cells do not intersect in common faces."""


class NotComplete(TvartopError):
    pass


class NotSimplicial(TvartopError):
    pass


class NotShellable(TvartopError):
    pass


class NotInDualCone(TvartopError):
    pass


class EmptyCoefficient(TvartopError):
    pass


class PointNotCovered(TvartopError):
    """The point is excluded from every locus; the fan defines nothing there."""


class ValidationFailed(TvartopError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class NegativeBetti(TvartopError):
    """Diagnostic: a Betti entry came out negative, signalling a convention or input violation."""


class GenusNotZero(TvartopError):
    pass


class NotApplicable(TvartopError):
    """Hypotheses of the criterion are not met."""


class BudgetExceeded(TvartopError):
    pass


class SearchBudgetExceeded(BudgetExceeded):
    """A combinatorial search met its size cap before finishing."""


class ParseError(TvartopError):
    pass
