"""The command line's JSON text, written without the stdlib's ``json``:
``dumps(value)`` is ``json.dumps(value, indent=2)`` byte for byte on the
values the commands write, dicts with str keys, lists and tuples, str, int,
float, bool and None; anything else raises TypeError.  Importing ``json``
costs a command about 2 ms, and this module, compiled only where JSON is
written, a fraction of that.
"""

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b",
            "\f": "\\f"}


def _char(c: str) -> str:
    """One character as ``json`` writes it with ``ensure_ascii``."""
    n = ord(c)
    if n > 0xFFFF:  # a surrogate pair
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return _ESCAPES.get(c) or (c if " " <= c <= "~" else f"\\u{n:04x}")


def _dump(value, pad: str) -> str:
    """The text of value, its nested lines indented past ``pad``."""
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
            value = "".join(map(_char, value))
        return f'"{value}"'
    if isinstance(value, (dict, list, tuple)):
        inner = pad + "  "
        if isinstance(value, dict):
            if not all(isinstance(k, str) for k in value):
                raise TypeError("keys must be str")
            items, ends = [f"{_dump(k, pad)}: {_dump(v, inner)}" for k, v in value.items()], "{}"
        else:
            items, ends = [_dump(v, inner) for v in value], "[]"
        if not items:
            return ends
        return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(value) -> str:
    return _dump(value, "\n")
