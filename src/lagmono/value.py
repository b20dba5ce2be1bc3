"""The base of lagmono's immutable record classes.

A subclass's fields are the parameters of its ``__init__``, which stores
them with ``object.__setattr__``.  Two values are equal when they are of one
class with equal fields; a value hashes as the tuple of its fields, reprs as
``Name(field=value, ...)`` and refuses assignment and deletion.  Nothing is
compiled from source text when a class is defined, so importing the package
stays cheap; a class whose values are compared or hashed in inner loops
writes its own ``__eq__`` and ``__hash__`` with the same meaning.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
