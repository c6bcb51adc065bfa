"""Maximal runs of one symbol in bytes, found in C: the searches that the
run analysis (``exponents``) and the run caps of the integer-base
generator (``constructions``) share.
"""

from __future__ import annotations

import re
from typing import Optional


_PROBE = 1 << 12  # longest block searched for: no temporary grows with the run


def _next_run(data, symbol: int, length: int, pos: int,
              stop: int) -> Optional[tuple[int, int]]:
    """0-based span ``(start, end)`` of the first maximal run of at least
    ``length`` copies of ``symbol`` that starts at or after ``pos`` and whose
    first ``length`` copies end by ``stop``, or None.

    ``bytes.find`` skips the runs shorter than a probe of at most ``_PROBE``
    copies in C, from the first copy of ``symbol``; one anchored match
    finds the end of each run it hits.
    """
    probe = bytes((symbol,)) * min(length, _PROBE)
    run = re.compile(re.escape(probe[:1]) + b"+")
    # the probe ends by here when the run's first copies end by stop
    stop = max(0, stop - length + len(probe))
    if 0 < pos < len(data) and data[pos - 1] == data[pos] == symbol:
        pos = run.match(data, pos).end()  # that run started before pos
    # the first copy, by memchr: a long probe costs its length to set up
    pos = data.find(symbol, pos, stop)
    while pos >= 0 and (p := data.find(probe, pos, stop)) >= 0:
        pos = run.match(data, p).end()
        if pos - p >= length:
            return p, pos
    return None


def _run_end(data, symbol: int) -> int:
    """The end of the run of ``symbol`` that starts data: 0 when data[0] is
    not ``symbol``.  One anchored match, which counts in C."""
    return re.compile(re.escape(bytes((symbol,))) + b"*").match(data).end()


def _last_run(data, symbol: int) -> int:
    """Where the run of ``symbol`` that ends data starts: len(data) when
    data does not end in ``symbol``."""
    if not data or data[-1] != symbol:
        return len(data)
    return len(data) - _run_end(data[::-1], symbol)
