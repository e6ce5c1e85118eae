"""Frozen value records, defined without generated code.

A subclass of Record writes an ordinary __init__ whose parameters, in order,
are its fields, and which stores each with object.__setattr__ before any
validation.  From those fields Record gives it the semantics of a frozen
dataclass: records compare and hash as the tuple of their fields, among
records of one class; repr as Name(field=value, ...); refuse assignment and
deletion with AttributeError; pickle by their __dict__; and as_dict() maps
field names to values.

The dataclasses module imports inspect and compiles each class's methods
with exec when the class is defined.  An explicit __init__ compiles nothing
at import, and as the generated one did it lets Python bind the arguments,
which a generic __init__(*args, **kwargs) would do far more slowly for the
records built on every answer.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the frozen value records; see the module docstring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # one field's attrgetter returns the bare value, which compares and
        # hashes consistently too
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def as_dict(self) -> dict:
        """Field name -> value, in field order; the values are not copied."""
        return {name: getattr(self, name) for name in self._fields}
