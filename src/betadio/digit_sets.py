"""Restricted digit sets: the digits a Cantor set K_{b,S} allows.

Apart from ``bary`` and ``words``, so that a command that only reads a
digit set (``measure`` on a restricted sidecar, ``dim --digit-set``) loads
neither."""

from .errors import InvalidDigitSet
from .record import Record


class DigitSet(Record):
    """Digits allowed in a restricted Cantor set K_{b,S}.

    Needs at least two digits and one of {0, b-1}; otherwise every number in
    the set keeps its orbit far from the integers and the exponents vanish.
    Immutable by convention, hashed by value.
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: frozenset[int]):
        self.base = base
        self.digits = frozenset(digits)
        if self.base < 3:
            raise InvalidDigitSet("restricted digit sets need base >= 3")
        if not self.digits <= set(range(self.base)):
            raise InvalidDigitSet("digits out of range")
        if len(self.digits) < 2:
            raise InvalidDigitSet("need at least two digits")
        if 0 not in self.digits and self.base - 1 not in self.digits:
            raise InvalidDigitSet("need 0 or b-1 in the digit set")

    def __hash__(self):
        return hash(self._fields())

    @property
    def size(self) -> int:
        return len(self.digits)

    @property
    def run_digit(self) -> int:
        """The digit whose long blocks drive the approximation."""
        return 0 if 0 in self.digits else self.base - 1

    @property
    def marker_digit(self) -> int:
        """Nonzero digit (not the run digit) used to delimit blocks."""
        if self.run_digit == 0:
            if 1 in self.digits:
                return 1
            return min(d for d in self.digits if d != 0)
        return min(d for d in self.digits if d != self.base - 1)
