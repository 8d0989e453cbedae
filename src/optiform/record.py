"""Frozen records, the base of the model classes and of the oracle's
generator config and verdict.

A record class names its fields in `_fields`, holds them in `__slots__`
and sets them in its own `__init__` through `init_field`, which passes the
frozen `__setattr__` by.  The base gives it what a frozen dataclass has:
equality and hashing over the fields within one class, the
`Class(field=value, ...)` repr, an AttributeError on setting or deleting
an attribute, and `replace` for a copy with some fields changed.  It does
without `dataclasses`, whose import (with `inspect` and more) and class
decoration cost every process, and the base has no constructor of its own,
so a record is built at the cost of its own few assignments.
"""

import operator

init_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # one C-level getter of the field tuple, for ==, hash and pickling
        cls._values = staticmethod(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, self._values(self)


def replace(record, **changes):
    """A new record of the same class, with the fields named in `changes`
    changed, as `dataclasses.replace` makes: the class's constructor gets
    every field by name, so it validates the copy and raises TypeError on a
    name that is not a field."""
    fields = {f: getattr(record, f) for f in record._fields}
    fields.update(changes)
    return record.__class__(**fields)
