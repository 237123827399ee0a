"""Value classes written out by hand.

A ``dataclass`` generates its methods' source and compiles it when the
class is defined, which is a large share of ``import summ``; these two
bases need no code built at import.  A subclass names its fields in
``_fields`` and sets them in its own ``__init__``.  Instances keep their
fields in the instance dict, so they pickle with Python's default protocol.
"""

from __future__ import annotations


class Record:
    """Equality and repr by the values of ``_fields``, in order.

    Instances compare equal only to instances of the same class.  A record
    is not hashable: a class that defines ``__eq__`` alone has no hash.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose ``__init__`` sets its fields once, by ``_set`` in
    ``_fields`` order: assigning or deleting an attribute afterwards raises
    ``AttributeError``."""

    def _set(self, *values) -> None:
        vars(self).update(zip(self._fields, values, strict=True))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
