"""Shared exception types, and the base classes of the package's values.

The CLI maps these onto exit codes: PreconditionError -> 2,
VerificationError (and subclasses) -> 3, I/O problems -> 4.

_Frozen is the one immutability protocol: every slotted value type of the
package (ExactComplex, MultiPoly, SL2 and the records) derives from it.
_Record adds field semantics on top of it.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class VerificationError(RuntimeError):
    """A computed result failed its own consistency check."""


class InadequateSamplingError(VerificationError):
    """Loop samples too coarse: some angular step reached pi/2."""


class SamplingBudgetError(VerificationError):
    """Random drawing hit a degenerate streak and ran out of retries."""


class _Frozen:
    """Base of every slotted value type: setting or deleting any attribute
    raises AttributeError.  The package writes a slot only through
    object.__setattr__(obj, "name", value), which bypasses the refusal:
    in constructors, and where a pending MultiPoly or TangentFrame fills in.
    Lives here because every module that defines a value imports this one.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Record(_Frozen):
    """Immutable record: what a frozen dataclass gives, without importing
    dataclasses, which a cold CLI call would pay for.

    A subclass names its slots in __slots__ and its fields, in signature
    order, in _fields; its __init__ checks the arguments and writes the
    fields as _Frozen says (_set).  The fields make equality (within one
    class only), the hash, the repr Name(field=value, ...) and the pickle,
    which rebuilds the record through __init__, so copy and pickle work.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        setattr_ = object.__setattr__  # a local: one lookup per record
        for name, value in zip(self._fields, values):
            setattr_(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
