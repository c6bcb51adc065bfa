"""Base class of the library's value types.

Each value type lists its fields in ``__slots__`` and writes a plain
``__init__``; this base adds equality and a repr over those fields, as a
dataclass would.  It stands in for ``dataclasses``, whose import (with
``inspect``) and generated methods were a large share of the start-up time
of every CLI process.  Slotted instances also carry no ``__dict__``.
"""


class Record:
    """Equality and repr over the fields named in ``__slots__``, in order.

    Like a dataclass, a record is unhashable unless its class defines
    ``__hash__``; the value types used as immutable do, from ``_fields``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
