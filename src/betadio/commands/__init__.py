"""The ``betadio`` subcommands' handlers, one module per subcommand named
after it, so that a command compiles its own handler alone, and the helpers
they share.  JSON is written by ``jsontext``, imported only where JSON is
written; only ``measure``, which reads a sidecar, imports the stdlib's
``json``.  No handler imports ``cli``: under ``python -m betadio.cli`` it
runs as ``__main__``, and a second import would compile it again, with a
second ``UsageError`` that ``__main__`` does not catch."""

from __future__ import annotations

import os

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


def _json(config: dict, payload: dict, json=None) -> str:
    """The JSON text of the payload with the config and version: by the
    stdlib's ``json`` when the command imported it to read, else by
    ``jsontext``, which gives the same bytes without that import."""
    doc = {"version": __version__, "config": config, **payload}
    if json is not None:
        return json.dumps(doc, indent=2)
    from ..jsontext import dumps
    return dumps(doc)


def _emit(args, payload: dict, config: dict, plain=None, json=None):
    """JSON (with embedded config and version) to files; for stdout, a bare
    value when the command has a natural one-liner."""
    config.setdefault("precision_bits", default_precision())
    if plain is not None and not args.output:
        print(plain)
        return
    text = _json(config, payload, json)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_digits(args, base: int, blocks, config: dict, sidecar=dict):
    """The digits of ``blocks`` to ``--output``, with a JSON sidecar of the
    config and ``sidecar()``, or to stdout: ``write_digit_output``."""
    from ..digit_files import write_digit_output
    config.setdefault("precision_bits", default_precision())
    write_digit_output(args.output, base, blocks, lambda: _json(config, sidecar()))


def _scalar_dict(s) -> dict:
    return {"lower": f"{s.lo.numerator}/{s.lo.denominator}",
            "upper": f"{s.hi.numerator}/{s.hi.denominator}",
            "float": float(s.mid)}
