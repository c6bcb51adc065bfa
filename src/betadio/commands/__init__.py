"""The ``betadio`` subcommands' handlers, grouped by the layers they load,
and the helpers they share.  No handler imports ``cli``: under ``python -m
betadio.cli`` it runs as ``__main__``, and a second import would compile it
again, with a second ``UsageError`` that ``__main__`` does not catch."""

from __future__ import annotations

import os
import sys

from .. import __version__
from ..errors import UsageError


def _fraction(text: str) -> Fraction:
    from fractions import Fraction  # not for the commands on a base's words
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r} ({exc})")


def _ints(text: str, sep, what: str) -> list[int]:
    try:
        return [int(t) for t in text.split(sep)]
    except ValueError:
        raise UsageError(f"not a {what}: {text!r}")


def _word(text: str) -> list[int]:
    return _ints(text, "," if "," in text else None, "digit word")


def _digit_set(text: str, base: int) -> DigitSet:
    from ..digit_sets import DigitSet
    return DigitSet(base, frozenset(_ints(text, ",", "digit set")))


def default_precision() -> int:
    text = os.environ.get("BETADIO_PRECISION", "256")
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < 1:
        raise UsageError(f"BETADIO_PRECISION must be a positive integer, not {text!r}")
    return bits


def _emit(args, payload: dict, config: dict, plain=None):
    """JSON (with embedded config and version) to files; for stdout, a bare
    value when the command has a natural one-liner."""
    config.setdefault("precision_bits", default_precision())
    if plain is not None and not getattr(args, "output", None):
        print(plain)
        return
    # json is imported only where it is written or read, so that a command
    # with a plain-text answer never loads it
    import json
    text = json.dumps({"version": __version__, "config": config, **payload}, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_digits(args, base: int, blocks, config: dict, sidecar=dict):
    """The digits of ``blocks`` as a digit file, written as they come: to
    ``--output`` with a JSON sidecar of ``sidecar()``, read once the digits
    are written (a construction counts its clamps as it goes), or to stdout.
    The first block is drawn before the file opens, so a producer that
    refuses its input leaves no file."""
    from itertools import chain
    from ..digit_files import write_digit_blocks
    config.setdefault("precision_bits", default_precision())
    blocks = iter(blocks)
    blocks = chain([next(blocks, b"")], blocks)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            write_digit_blocks(fh, base, blocks)
        side = {"version": __version__, "config": config, **sidecar()}
        import json
        with open(args.output + ".json", "w") as fh:
            json.dump(side, fh, indent=2)
            fh.write("\n")
    else:
        write_digit_blocks(sys.stdout, base, blocks)


def _scalar_dict(s) -> dict:
    return {"lower": f"{s.lo.numerator}/{s.lo.denominator}",
            "upper": f"{s.hi.numerator}/{s.hi.denominator}",
            "float": float(s.mid)}
