"""A base given by its expansion of 1, against the eager path it replaced.

``BetaSystem.from_word`` decides from the word whether the base is an
integer: a strictly self-admissible word is d(1) of exactly one base
(Parry 1960), and d(1) of an integer k is the one-digit word k.  It isolates
the root only when ``root`` is first read.  ``oracle_from_word`` is the
constructor as it stood before: it isolated the root of every word and took
its certified integer part.  It is frozen: the tests assert that the library
gives the same kind, integer base and root brackets on every small word.
"""

import itertools
import sys
import threading

import pytest

from betadio.automaton import PeriodicWord, is_self_admissible
from betadio.beta_shift import BetaSystem
from betadio.errors import DegenerateApproximant, NotSelfAdmissible
from betadio.roots import _integer_part, isolate_root

# ---------------------------------------------------------------------------
# frozen reference


def oracle_from_word(w: PeriodicWord, precision: int):
    """("int", k, None) or ("algebraic", None, root), as the eager
    constructor decided them; its exceptions propagate."""
    w = w.normalized()
    if not is_self_admissible(w):
        raise NotSelfAdmissible(f"{w} is not self-admissible")
    if not (w.pre or w.per):
        raise DegenerateApproximant("zero word")
    if not w.pre:
        return oracle_from_word(PeriodicWord.from_finite(w.per[:-1] + (w.per[-1] + 1,)),
                                precision)
    root = isolate_root(w.pre, periodic_tail=w.per, precision=precision)
    k, is_int = _integer_part(root)
    return ("int", k, None) if is_int else ("algebraic", None, root)


def small_words():
    """Every normalized self-admissible word over the digits 0..3: the
    finite ones up to length 7, the eventually periodic ones with
    |pre| + |per| <= 6."""
    seen = set()
    for n in range(1, 8):
        for digits in itertools.product(range(4), repeat=n):
            if digits[0] and digits[-1]:
                seen.add((digits, ()))
    for n in range(1, 7):
        for q in range(1, n + 1):
            for digits in itertools.product(range(4), repeat=n):
                w = PeriodicWord(digits[:n - q], digits[n - q:]).normalized()
                if w.pre or w.per:
                    seen.add((w.pre, w.per))
    return [PeriodicWord(pre, per) for pre, per in sorted(seen)
            if is_self_admissible(PeriodicWord(pre, per))]


WORDS = small_words()


def _outcome(make):
    try:
        return make()
    except (DegenerateApproximant, NotSelfAdmissible) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("precision", [2, 8, 64, 256])
def test_the_word_decides_integrality_and_the_first_read_isolates_the_root(precision):
    assert len(WORDS) > 1000
    kinds = set()
    for w in WORDS:
        want = _outcome(lambda: oracle_from_word(w, precision))
        got = _outcome(lambda: BetaSystem.from_word(w, precision))
        if isinstance(want[0], type):
            assert got == want, w
            continue
        kinds.add(want[0])
        assert (got.kind, got.int_base) == want[:2], w
        assert got._root is None, w  # no root isolated yet
        if want[0] == "algebraic":
            root, ref = got.root, want[2]
            assert (root.lo, root.hi, root.refined.iv, root.refined.prec) == \
                (ref.lo, ref.hi, ref.refined.iv, ref.refined.prec), w
    assert kinds == {"int", "algebraic"}


def test_concurrent_first_reads_isolate_one_root():
    # the first read isolates the root under the base's lock: threads that
    # read it together all get the one root
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            sys_ = BetaSystem.parse("word:2,0,1,1", 2048)
            roots, start = [], threading.Barrier(8)

            def reader():
                start.wait()
                roots.append(sys_.root)

            threads = [threading.Thread(target=reader) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(roots) == 8 and all(r is roots[0] for r in roots)
    finally:
        sys.setswitchinterval(interval)
