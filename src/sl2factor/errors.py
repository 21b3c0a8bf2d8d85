"""Shared exception types, and the base class of the package's records.

The CLI maps these onto exit codes: PreconditionError -> 2,
VerificationError (and subclasses) -> 3, I/O problems -> 4.
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


class _Record:
    """Immutable record: what a frozen dataclass gives, without importing
    dataclasses, which a cold CLI call would pay for.

    A subclass names its slots in __slots__ and its fields, in signature
    order, in _fields; its __init__ checks the arguments and sets each
    field through the slot's descriptor, since __setattr__ refuses.  The
    fields make equality (within one class only), the hash, the repr
    Name(field=value, ...) and the pickle, which rebuilds the record
    through __init__, so copy and pickle work.  Lives here because every
    module that defines a record already imports this one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
