"""Value classes written out by hand.

A ``dataclass`` generates its methods' source and compiles it when the
class is defined, and so does ``typing.NamedTuple`` (through
``collections.namedtuple``'s ``eval``): together a large share of
``import summ``.  These two bases need no code built at import.

``FrozenRecord`` is a plain class: a subclass names its fields in
``_fields`` and sets them once, by ``_set``, in its own ``__init__``.
Instances keep their fields in the instance dict, so they pickle with
Python's default protocol.

``TupleRecord`` is a tuple with named fields, as a namedtuple is: a
subclass names its fields in ``_fields``, declares ``__slots__ = ()`` and
builds itself in its own ``__new__`` by ``_tuple_new(cls, (a, b, ...))``.
"""

from __future__ import annotations

# the C-level field getter namedtuple's classes use; it reads a field
# faster than ``property(operator.itemgetter(i))``
from collections import _tuplegetter

_tuple_new = tuple.__new__


class FrozenRecord:
    """Equality and repr by the values of ``_fields``, in order.

    ``__init__`` sets the fields once, by ``_set`` in ``_fields`` order:
    assigning or deleting an attribute afterwards raises
    ``AttributeError``.  Instances compare equal only to instances of the
    same class.  A record is not hashable: a class that defines ``__eq__``
    alone has no hash.
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

    def _set(self, *values) -> None:
        vars(self).update(zip(self._fields, values, strict=True))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TupleRecord(tuple):
    """A tuple whose items are also read by the names in ``_fields``.

    Like a namedtuple it is indexable and iterable, equal to (and hashed
    as) the plain tuple of its fields, always truthy while it has a field,
    and immutable: assigning a field raises ``AttributeError``.  It
    pickles by its fields, and its repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Field number {index}"))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"
