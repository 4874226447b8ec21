"""Exception types shared across the package."""


class AsyncMCError(Exception):
    """Base class for all package errors."""


class DimensionError(AsyncMCError):
    """Operands live on different state spaces or have mismatched shapes."""


class ValidationError(AsyncMCError):
    """A value violates its type invariants (construction or deserialization)."""


class NonErgodicKernelError(AsyncMCError):
    """Kernel has no unique limiting distribution reachable by power iteration."""


class StationarityError(AsyncMCError):
    """Supplied distribution is not stationary for the kernel."""


class ParameterError(AsyncMCError):
    """Infeasible or malformed parameters."""


class ScheduleError(AsyncMCError):
    """A schedule failed validation where a valid one is required."""


class UnsupportedTargetError(AsyncMCError):
    """Operation needs a conditional or support the target does not provide."""


class ProposalInconsistencyError(AsyncMCError):
    """Proposal produced a state to which its own density assigns zero mass."""


class LivenessError(AsyncMCError):
    """A worker or message stream stalled past its staleness allowance."""


class NumericError(AsyncMCError):
    """Non-finite arithmetic outside the allowed -inf density convention."""


class InconclusiveCounterexampleError(AsyncMCError):
    """Counterexample construction cannot demonstrate anything for this input."""
