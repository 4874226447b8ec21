"""Exception types shared across the package, and the one checked reader of
config fields (``_read``, ``_only``): a value is taken as it is, or a
ValidationError names its field.  It lives in this leaf module so that both
``cli`` and ``pserver.DelayModel`` read through it (``cli`` imports ``pserver``).

Each exit code of ``asyncmc`` has one class: refused input is a
ValidationError or one of its subclasses (exit 1), a stalled worker or
message stream a LivenessError (exit 2), and every other AsyncMCError a
violated guarantee (exit 3).
"""
import sys


class AsyncMCError(Exception):
    """Base class for all package errors."""


class ValidationError(AsyncMCError):
    """Refused input: a value, parameter or config field that is malformed or infeasible."""


class DimensionError(ValidationError):
    """Operands live on different state spaces or have mismatched shapes."""


class NonErgodicKernelError(AsyncMCError):
    """Kernel has no unique limiting distribution reachable by power iteration."""


class StationarityError(AsyncMCError):
    """Supplied distribution is not stationary for the kernel."""


class ScheduleError(AsyncMCError):
    """An invalid schedule handed to ``replay`` or ``propagate``."""


class UnsupportedTargetError(ValidationError):
    """Operation needs a conditional or support the target does not provide."""


class ProposalInconsistencyError(AsyncMCError):
    """Proposal produced a state to which its own density assigns zero mass."""


class LivenessError(AsyncMCError):
    """A worker or message stream stalled past its staleness allowance."""


class NumericError(AsyncMCError):
    """Non-finite arithmetic outside the allowed -inf density convention."""


class InconclusiveCounterexampleError(AsyncMCError):
    """Counterexample construction cannot demonstrate anything for this input."""


# the JSON types a config field may be asked for, by the Python type holding them
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a finite number"}


def _is(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``; a bool is never a number."""
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return (_is(value, int) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _read(doc: dict, path: str, kind, default=..., least=None, below=None):
    """The config field at ``path`` (its last part names it in ``doc``), unchanged.

    ``kind`` is a key of ``_KINDS``, ``object`` (any value) or ``(list, item_kind)``;
    a number must also be ``>= least`` and ``< below`` if given.  An absent field,
    or a null one whose default is None, gives the default; without a default
    (``...``) the field is required.  Else a ValidationError names ``path``.
    """
    name = path.rpartition(".")[2]
    if name not in doc:
        if default is ...:
            raise ValidationError(f"{path}: required field is missing")
        return default
    value = doc[name]
    if value is None and default is None:
        return None
    kind, item = kind if isinstance(kind, tuple) else (kind, None)
    ok = _is(value, kind) and (item is None or all(_is(v, item) for v in value))
    if not (ok and (least is None or value >= least) and (below is None or value < below)):
        what = _KINDS[kind] + (f" of {_KINDS[item].split(' ', 1)[1]}s" if item else "")
        if below is not None:
            what += f" in [{least}, {below})"
        elif least is not None:
            what += f" >= {least}"
        raise ValidationError(f"{path}: must be {what}, got {value!r}")
    return value


def _only(doc: dict, path: str, keys) -> None:
    """Raise a ValidationError naming the first key of the object ``doc`` at
    ``path`` that is not one of ``keys``: a key that no builder reads."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValidationError(f"{path}.{unknown[0]}: unknown field, expected one of {sorted(keys)}")
