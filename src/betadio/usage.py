"""The argparse parser of the command line's option table.  ``cli`` builds
it (``cli.build_parser``) only for an argv its exact-match reader declines:
argparse owns help, usage and every error message, and a well-formed
command compiles none of this.  The rows are read as ``cli._COMMANDS``
documents them."""

import argparse

from . import __version__
from .errors import UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def table_parser(description: str, commands: dict, output: tuple) -> argparse.ArgumentParser:
    p = _Parser(prog="betadio", description=description)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, *_pairs) in commands.items():
        sp = sub.add_parser(name, help=summary)
        for flags, kind, default, *text in (*arguments, output):
            kw = {"help": text[1] if text[1:] else None}
            if kind is bool:
                kw["action"] = "store_true"
            elif kind is int or isinstance(kind, int):
                kw["type"] = int
            elif kind is list:
                kw["nargs"] = "+"
            elif kind is not str:
                kw["choices"] = kind
            if flags.startswith("-"):
                kw.update(required=default is ..., default=None)
            sp.add_argument(*flags.split(), **kw)
    return p
