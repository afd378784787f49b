"""Exception types shared across the package."""


class CellplaceError(Exception):
    """Base class for all package-specific errors."""


class SingularConfiguration(CellplaceError):
    """Joint vector sits on a branch boundary; configuration bits undefined."""


class DegenerateTarget(CellplaceError):
    """Wrist centre lies on the axis-1 line; shoulder angle undefined."""


class InvalidScene(CellplaceError):
    """Scene content cannot be turned into an optimization problem."""


class ParseError(CellplaceError):
    """Scene or report file is not syntactically readable."""


class ValidationError(CellplaceError):
    """Scene or report file is readable but semantically wrong.

    Carries the full list of field-level messages, not just the first.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class GridTooLarge(CellplaceError):
    """Requested grid exceeds the configured cell cap."""


class SynthesisFailed(CellplaceError):
    """Scene generator exhausted its retry budget."""


class InfeasibleSubproblem(CellplaceError):
    """QP subproblem has no feasible point, or its algebra broke down; no
    relaxed QP follows, the SQP retries once with a reset Hessian."""


class EvaluatorFailure(CellplaceError):
    """An NLP callback raised; carries the iterate at which it happened."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = None if iterate is None else iterate.copy()
