"""The base of azw's immutable value records.

A record class subclasses `Record` directly, lists its fields, in order,
in `__slots__`, and its `__init__` takes them in that order and sets
them (`_set`, or `object.__setattr__` past the frozen `__setattr__`).
`Record` gives every record value semantics: records of one class are
equal when their fields are, the hash is that of the field tuple, the
repr is `Class(field=value, ...)`, a field can be neither assigned nor
deleted, and pickle and copy rebuild a record through its constructor.
The field tuple is read by one `operator.attrgetter` made per class when
the class is defined. The module imports nothing that start-up has not
loaded and generates no code, so a record class costs no more at
start-up than any other class.

`ExactPolynomial` and `ExactRationalFunction` define their own `__eq__`
and `__hash__`, with the same meaning: the exact layer compares and
hashes them on its hot paths (charpoly caches, gcds, identity checks).
`ExactMatrix` takes only the frozen `__setattr__`/`__delattr__` from
here; its equality, hash, repr and pickling are over its integer form.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:  # attrgetter of one name gives the bare value
            get_one = attrgetter(names[0])
            cls._fields = property(lambda self: (get_one(self),))
        else:
            cls._fields = property(attrgetter(*names))

    def _set(self, *values) -> None:
        """Set the fields, in `__slots__` order, past the frozen __setattr__."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields
