"""Value records: plain __slots__ classes with a frozen dataclass's field-wise
==, hash and repr, so that the package does not import dataclasses."""

from operator import attrgetter


class Record:
    """Base of the package's value records.  A subclass names its fields in
    _fields (its __slots__, or their leading entries) and sets every slot
    once in __init__ through _init; assigning a field afterwards raises
    AttributeError.  == and hash are those of the tuple of fields, as for a
    frozen dataclass (a 1-tuple for a record of one field, such as PDCode),
    and pickle and copy rebuild a record through its constructor."""

    __slots__ = ("_cache",)

    def __init_subclass__(cls):
        # attrgetter of one name returns the bare value, not a 1-tuple
        fields = cls._fields
        cls._astuple = property(attrgetter(*fields) if len(fields) > 1 else
                                lambda self: (getattr(self, fields[0]),))

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _derived(self, key, make, *args):
        """make(*args), made once per key and kept in the _cache slot, which
        is no field: ==, hash, repr, pickle and copy leave it out."""
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cache", cache)
        if key not in cache:
            cache[key] = make(*args)
        return cache[key]

    def __reduce__(self):
        return self.__class__, self._astuple

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
