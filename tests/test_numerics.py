import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from betadio import numerics, roots
from betadio.automaton import is_self_admissible, poly_mul, poly_trim
from betadio.errors import DegenerateApproximant, NoRoot, PrecisionExhausted
from betadio.logarithm import ln, ln_int
from betadio.numerics import DEFAULT_PRECISION, Comparison, Scalar
from betadio.beta_shift import BetaSystem
from betadio.orbits import is_exact_root, poly_eval, poly_gcd
from betadio.record import Record
from betadio.roots import PolyRoot, isolate_root
from test_beta_shift import ORBIT_BASES

F = Fraction


@functools.total_ordering
class Dyadic(Record):
    """Exact dyadic rational ``man * 2**exp``, kept in normal form: the
    endpoint type of the reference arithmetic below, which the raw-pair
    Scalar endpoints must reproduce bit for bit."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int):
        self.man = man
        self.exp = exp

    @staticmethod
    def of(man: int, exp: int = 0) -> "Dyadic":
        return Dyadic(*numerics._norm(man, exp))

    @property
    def value(self) -> Fraction:
        return numerics._value(self.man, self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.of(*numerics._add(self.man, self.exp, other.man, other.exp))

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.of(self.man * other.man, self.exp + other.exp)

    def __lt__(self, other):
        return numerics._less(self.man, self.exp, other.man, other.exp)


ZERO = Dyadic(0, 0)


def interval(lo: Dyadic, hi: Dyadic, prec: int = DEFAULT_PRECISION) -> Scalar:
    """The Scalar on the endpoints lo <= hi."""
    assert lo <= hi
    return numerics._scalar((lo.man, lo.exp, hi.man, hi.exp), prec)


def endpoints(s):
    """A Scalar's endpoints as normal-form pairs."""
    return (*numerics._norm(*s.iv[:2]), *numerics._norm(*s.iv[2:]))


def bisect_oracle(f, lo, hi, steps=300):
    """Plain Fraction bisection, independent of PolyRoot."""
    lo, hi = F(lo), F(hi)
    assert f(lo) < 0 < f(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# dyadic / interval basics


def test_dyadic_normal_form_and_value():
    d = Dyadic.of(12, 0)
    assert (d.man, d.exp) == (3, 2)
    assert d.value == 12
    assert Dyadic.of(0, 5).value == 0


def test_directed_rational_rounding():
    for bits in (8, 64, 200):
        x = F(1, 3)
        lo = Dyadic.of(*numerics._fraction_pair(x, bits, False))
        hi = Dyadic.of(*numerics._fraction_pair(x, bits, True))
        assert lo.value <= x <= hi.value
        assert hi.value - lo.value <= F(1, 2 ** bits)


def test_interval_arithmetic_contains_exact():
    a = Scalar.from_fraction(F(1, 3))
    b = Scalar.from_fraction(F(2, 7))
    assert (a + b).contains(F(1, 3) + F(2, 7))
    assert (a - b).contains(F(1, 3) - F(2, 7))
    assert (a * b).contains(F(2, 21))
    assert (a / b).contains(F(7, 6))
    assert a.pow_int(5).contains(F(1, 3) ** 5)
    assert a.pow_int(-3).contains(F(27))


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.sampled_from(["add", "sub", "mul", "div"]),
)
def test_inclusion_monotonicity(x, y, op):
    a = Scalar.from_fraction(x, 64)
    b = Scalar.from_fraction(y, 64)
    if op == "add":
        assert (a + b).contains(x + y)
    elif op == "sub":
        assert (a - b).contains(x - y)
    elif op == "mul":
        assert (a * b).contains(x * y)
    elif op == "div":
        if y == 0 or (b.lo <= 0 <= b.hi):
            return
        assert (a / b).contains(F(x) / F(y))


def hull(lo, hi, prec=DEFAULT_PRECISION):
    """The interval [lo, hi] rounded outward to prec bits."""
    return numerics._scalar((*Scalar.from_fraction(lo, prec).iv[:2],
                             *Scalar.from_fraction(hi, prec).iv[2:]), prec)


def test_compare_with_certification():
    assert hull(F(2, 10), F(3, 10)).compare(F(1, 2)) is Comparison.LESS
    assert hull(F(4, 10), F(6, 10)).compare(F(1, 2)) is Comparison.UNRESOLVED
    golden = isolate_root([1, 1]).as_scalar(64)
    assert golden.compare(F(13, 8)) is Comparison.LESS


# ---------------------------------------------------------------------------
# certified logarithm (oracle: mpmath at high precision)


@pytest.mark.parametrize("val", [F(2), F(3), F(1, 3), F(10), F(161803, 100000), F(7, 5)])
def test_ln_against_mpmath(val):
    x = Scalar.from_fraction(val, 128)
    out = ln(x, 128)
    with mpmath.workdps(80):
        truth = mpmath.log(mpmath.mpf(val.numerator) / val.denominator)
        assert out.lo <= F(str(truth)) <= out.hi or \
            (float(out.lo) <= float(truth) <= float(out.hi))
    assert out.width < F(1, 2 ** 100)


def test_ln_int_huge():
    n = 7 ** 4000
    out = ln_int(n, 128)
    assert out.width < F(1, 2 ** 100)
    approx = 4000 * math.log(7)
    assert abs(float(out.mid) - approx) < 1e-9


def test_ln_requires_positive():
    with pytest.raises(ValueError):
        ln(hull(F(-1), F(1)))


# ---------------------------------------------------------------------------
# polynomials


def test_poly_gcd():
    # (z^2 - z - 1)(z - 2) = z^3 - 3z^2 + z + 2
    a = poly_mul([F(-1), F(-1), F(1)], [F(-2), F(1)])
    g = poly_gcd(a, [F(-1), F(-1), F(1)])
    assert g == [F(-1), F(-1), F(1)]
    # integer coefficients, a common factor z^2 + 1, and a monic answer
    assert poly_gcd(poly_mul([2, 0, 2], [-1, 1]), poly_mul([1, 0, 1], [-2, 0, 1])) == [1, 0, 1]
    assert poly_gcd([3, 1], [-2, 1]) == [1]
    assert poly_gcd([], [2, 4]) == [F(1, 2), 1]


# ---------------------------------------------------------------------------
# root isolation


def test_golden_ratio_root():
    # hand algebra: 1 = 1/z + 1/z^2  <=>  z^2 = z + 1
    r = isolate_root([1, 1])
    s = r.as_scalar(128)
    lo, hi = bisect_oracle(lambda z: z * z - z - 1, F(1), F(2))
    assert s.lo <= hi and lo <= s.hi
    assert s.width <= F(1, 2 ** 128)


def test_supergolden_root():
    # oracle: bisection on z^3 = z^2 + 1
    r = isolate_root([1, 0, 1])
    s = r.as_scalar(100)
    lo, hi = bisect_oracle(lambda z: z ** 3 - z ** 2 - 1, F(1), F(2))
    assert s.lo <= hi and lo <= s.hi
    assert abs(float(s.mid) - 1.4655712318767682) < 1e-12


def test_degenerate_and_missing_roots():
    with pytest.raises(DegenerateApproximant):
        isolate_root([1])
    with pytest.raises(NoRoot):
        isolate_root([0, 0])  # all coefficients vanish


def test_periodic_tail_root_matches_finite_form():
    # (10)^infty gives the golden ratio, same as the finite word 11
    r = isolate_root([], periodic_tail=[1, 0])
    s = r.as_scalar(128)
    g = isolate_root([1, 1]).as_scalar(128)
    assert s.lo <= g.hi and g.lo <= s.hi


def test_exact_equals_only_the_root_itself():
    # (10)^oo: the value equation has a pole at 1, which is not the root
    assert not isolate_root([], periodic_tail=[1, 0]).exact_equals(F(1))
    # the cleared polynomials (z - 2)(z + 1) of 1 2 and z (z - 2) of 1 (1)^oo
    # vanish at -1 and 0 too, but the root is 2 alone
    for root in (isolate_root([1, 2]), isolate_root([1], periodic_tail=[1])):
        assert root.exact_equals(F(2)) and root.exact_equals(2)
        for x in (F(-1), F(0), F(1), F(3, 2), F(2) + F(1, 1 << 500)):
            assert not root.exact_equals(x), x


def test_refine_polyroot_deep():
    r = isolate_root([1, 1])
    s = r.as_scalar(300)
    assert s.width <= F(1, 2 ** 300)
    phi = (1 + F(math.isqrt(5 * 10 ** 40), 10 ** 20)) / 2  # ~20 digits of sqrt5
    assert abs(s.mid - phi) < F(1, 10 ** 18)


def test_residual_small_at_root():
    r = isolate_root([1, 0, 1])
    s = r.as_scalar(128)
    zinv = s.reciprocal()
    residual = Scalar.from_int(1) - (zinv + zinv.pow_int(3))
    assert residual.contains(F(0)) or abs(residual.mid) < F(1, 2 ** 100)


def test_is_exact_root():
    golden = isolate_root([1, 1])
    # z^2 - z - 1 vanishes; z^2 - 2 does not
    assert is_exact_root([F(-1), F(-1), F(1)], golden)
    assert not is_exact_root([F(-2), F(0), F(1)], golden)
    # multiples vanish too
    assert is_exact_root(poly_mul([F(-1), F(-1), F(1)], [F(3), F(7), F(2)]), golden)


def test_escalate_tries_its_start_doubles_and_gives_up(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_BITS", 100)
    for start, tried in ((20, [20, 40, 80]), (100, [100]), (500, [500])):
        seen = []
        with pytest.raises(PrecisionExhausted, match="^site text$"):
            for bits in numerics._escalate(start, "site text"):
                seen.append(bits)
        assert seen == tried


def test_is_exact_root_decides_without_refining():
    # the defining polynomial z (z^3 - 2 z^2 + z - 1) shares the factor z with
    # z (z - q), which does not vanish at beta but is within 2**-17 of 0 there
    q = F(1797, 1024)
    near = poly_mul([F(0), F(1)], [-q, F(1)])
    exact = poly_mul([F(0), F(1)], [F(-1), F(1), F(-2), F(1)])
    for bits in (4, 256):
        root = isolate_root([1, 0, 1], precision=bits, periodic_tail=[1])
        assert not is_exact_root(near, root)
        assert is_exact_root(exact, root)
        assert root.refined.prec == bits


@pytest.mark.parametrize("pre, per", [([2], []), ([0, 4], []), ([1], [1])])
def test_is_exact_root_on_a_bracket_that_ends_at_the_root(pre, per):
    # beta = 2 is a grid point of the bracket [1, hi]: refinement ends on it,
    # where the gcd z - 2 is 0, not of the other sign
    for bits in (1, 4, 64):
        root = isolate_root(pre, precision=bits, periodic_tail=per)
        assert root.hi == 2
        assert is_exact_root([-2, 1], root) and is_exact_root([0, -4, 2], root)
        assert not is_exact_root([-3, 1], root)


def test_a_tail_of_zeros_leaves_no_zero_at_1():
    # 1 (0^6) 1 (0)^oo is the word 1 0^6 1: kept, the tail's factor z - 1
    # would make z - 1 share a zero with the cleared polynomial at the
    # bracket's left end, 1
    root = isolate_root([1, 0, 0, 0, 0, 0, 0, 1], precision=1, periodic_tail=[0])
    assert root.int_poly == isolate_root([1, 0, 0, 0, 0, 0, 0, 1], precision=1).int_poly
    assert not is_exact_root([-1, 1], root)


def frozen_poly_gcd(a, b):
    """poly_gcd as first written: Euclid's algorithm over a division that
    also builds the quotient, and throws it away."""
    def divmod_(a, b):
        b = poly_trim(list(b))
        r = list(a)
        q = [F(0)] * max(0, len(r) - len(b) + 1)
        while len(poly_trim(r)) >= len(b):
            r = poly_trim(r)
            k = len(r) - len(b)
            f = r[-1] / b[-1]
            q[k] = f
            for i, v in enumerate(b):
                r[i + k] -= f * v
        return poly_trim(q), poly_trim(r)

    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = divmod_(a, b)
        a, b = b, r
    return [v / a[-1] for v in a] if a else a


def frozen_is_exact_root(poly, root):
    """is_exact_root as first written: after the gcd, the root is refined
    until the gcd's signs at the interval's ends, an end that is the root,
    or an interval value of poly that excludes 0 decides."""
    c = poly_trim(list(F(v) for v in poly))
    if not c:
        return True
    g = frozen_poly_gcd(c, [F(v) for v in root.int_poly])
    if len(g) <= 1:
        return False
    for bits in numerics._escalate(root.refined.prec, "exact-zero test did not resolve"):
        s = root.as_scalar(bits)
        glo = poly_eval(g, s.lo)
        ghi = poly_eval(g, s.hi)
        if glo == 0 or ghi == 0:
            if root.exact_equals(s.lo) or root.exact_equals(s.hi):
                return True
        if glo * ghi < 0:
            return True
        val = numerics._iv_horner(c, s, s.prec)
        if not val.iv[0] <= 0 <= val.iv[2]:
            return False


def exact_test_root(spec, bits):
    """A fresh root at the given precision: one of the orbit tests' bases, or
    (for None) one whose cleared polynomial has the factor z."""
    if spec is None:
        return isolate_root([1, 0, 1], precision=bits, periodic_tail=[1])
    return BetaSystem.parse(spec, bits).root


@pytest.mark.parametrize("spec", [*ORBIT_BASES, None], ids=[*ORBIT_BASES, "pre:1,0,1,per:1"])
def test_is_exact_root_agrees_with_the_frozen_oracle(spec):
    """Cofactors times 1, the cleared polynomial, z, z^2 + 1, z^2 - z - 1 or
    a line through the root's 2**-16 bracket's left end, at 4, 64 and 256
    bits: the verdict is the frozen oracle's, and the root stays as it was."""
    near = exact_test_root(spec, 16).lo
    for bits in (4, 64, 256):
        root = exact_test_root(spec, bits)
        factors = [[1], root.int_poly, [0, 1], [1, 0, 1], [-1, -1, 1], [-near, 1]]
        for cofactor in ([1], [-2, 1], [3, 0, -1], [1, 1, 1]):
            for factor in factors:
                poly = poly_mul(cofactor, factor)
                before = (root.lo, root.hi, root.refined)
                got = is_exact_root(poly, root)
                assert (root.lo, root.hi, root.refined) == before
                assert got == frozen_is_exact_root(poly, exact_test_root(spec, bits)), \
                    (spec, bits, poly)


# ---------------------------------------------------------------------------
# frozen oracles: ln, its rounding helpers and root refinement as first
# written (Fraction and Dyadic arithmetic, one bisection step per bit).  The
# fast paths must reproduce their endpoints bit for bit.


def oracle_round_down(d, bits):
    a = abs(d.man)
    L = a.bit_length()
    if L <= bits:
        return d
    s = L - bits
    return Dyadic.of(d.man >> s, d.exp + s)


def oracle_round_up(d, bits):
    a = abs(d.man)
    L = a.bit_length()
    if L <= bits:
        return d
    s = L - bits
    return Dyadic.of(-((-d.man) >> s), d.exp + s)


def oracle_dyadic_from_fraction(x, bits, up):
    p, q = x.numerator, x.denominator
    if p == 0:
        return ZERO
    s = bits - (abs(p).bit_length() - q.bit_length()) + 1
    if s >= 0:
        num, den = p << s, q
    else:
        num, den = p, q << -s
    m = -((-num) // den) if up else num // den
    return Dyadic.of(m, -s)


def oracle_atanh_bounds(z, bits):
    if z == 0:
        return ZERO, ZERO
    work = bits + 16
    z_dn = oracle_dyadic_from_fraction(z, work, up=False)
    z_up = oracle_dyadic_from_fraction(z, work, up=True)
    z2_dn = oracle_round_down(z_dn * z_dn, work)
    z2_up = oracle_round_up(z_up * z_up, work)
    J = bits // 2 + 8
    lo = ZERO
    hi = ZERO
    p_dn, p_up = z_dn, z_up
    for j in range(J):
        k = 2 * j + 1
        lo = oracle_round_down(lo + oracle_dyadic_from_fraction(p_dn.value / k, work, up=False), work)
        hi = oracle_round_up(hi + oracle_dyadic_from_fraction(p_up.value / k, work, up=True), work)
        p_dn = oracle_round_down(p_dn * z2_dn, work)
        p_up = oracle_round_up(p_up * z2_up, work)
    tail = p_up.value / ((2 * J + 1) * (1 - F(9, 16)))
    hi = oracle_round_up(hi + oracle_dyadic_from_fraction(tail, work, up=True), work)
    return lo, hi


def oracle_ln_directed(d, bits, up):
    work = bits + 16
    d = oracle_round_up(d, work) if up else oracle_round_down(d, work)
    L = d.man.bit_length()
    s = d.exp + L - 1
    m = F(d.man, 1 << (L - 1))
    at_lo, at_hi = oracle_atanh_bounds((m - 1) / (m + 1), bits)
    l2_lo, l2_hi = oracle_atanh_bounds(F(1, 3), bits)
    ln2_lo, ln2_hi = oracle_round_down(l2_lo + l2_lo, work), oracle_round_up(l2_hi + l2_hi, work)
    if up:
        ln_m = oracle_round_up(at_hi + at_hi, work)
        ln2 = ln2_hi if s >= 0 else ln2_lo
    else:
        ln_m = oracle_round_down(at_lo + at_lo, work)
        ln2 = ln2_lo if s >= 0 else ln2_hi
    out = ln_m + Dyadic.of(s) * ln2
    return oracle_round_up(out, work) if up else oracle_round_down(out, work)


def oracle_refine(root, lo, hi, target_bits):
    goal = F(1, 1 << target_bits)
    while hi - lo > goal:
        mid = (lo + hi) / 2
        if root._sign_at(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def oracle_bracket(pre, per):
    """The starting bracket isolate_root picks without a search interval."""
    if any(per):
        return F(1), max(pre + per) + 2
    return F(1), F(sum(pre) + 1)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_ln_bit_identical_to_oracle(bits):
    rng = random.Random(bits)
    ints = [1, 2, 3, 7, 1 << 40, 3 ** 500] + [rng.randrange(2, 10 ** 12) for _ in range(2)]
    fracs = [F(1, 3), F(161803, 100000), F(7, 5)] + [
        F(rng.randrange(1, 10 ** 9), rng.randrange(1, 10 ** 9)) for _ in range(2)]
    if bits == 1024:  # the oracle takes ~0.1 s per endpoint here
        ints, fracs = ints[2:4], fracs[:1]
    for n in ints:
        d = Dyadic.of(n)
        want = (oracle_ln_directed(d, bits, False), oracle_ln_directed(d, bits, True))
        assert endpoints(ln_int(n, bits)) == endpoints(interval(*want)), n
    for x in fracs:
        s = Scalar.from_fraction(x, 200)
        want = (oracle_ln_directed(Dyadic.of(*s.iv[:2]), bits, False),
                oracle_ln_directed(Dyadic.of(*s.iv[2:]), bits, True))
        assert endpoints(ln(s, bits)) == endpoints(interval(*want)), x


def _random_roots(seed):
    rng = random.Random(seed)
    words = []
    while len(words) < 6:
        top = rng.choice([1, 2, 3])
        w = [top] + [rng.randint(0, top) for _ in range(rng.randint(1, 9))]
        if is_self_admissible(w) and sum(w) > 1:
            words.append((w, []))
    tails = []
    while len(tails) < 4:
        top = rng.choice([1, 2])
        pre = [rng.randint(0, top) for _ in range(rng.randint(0, 3))]
        per = [rng.randint(0, top) for _ in range(rng.randint(1, 4))]
        if any(per):
            tails.append((pre, per))
    return words + tails


# root:0,4 and root:1,2 have the dyadic root 2, which bisection probes exactly
ROOT_CASES = [([0, 4], []), ([1, 2], []), ([0, 0, 8], []), ([1, 1], []),
              ([2, 0, 1, 1], []), ([], [1, 0]), ([2], [1, 0, 1])] + _random_roots(7)


@pytest.mark.parametrize("pre,per", ROOT_CASES)
def test_polyroot_brackets_identical_to_bisection(pre, per):
    lo, hi = oracle_bracket(pre, per)
    for bits in (8, 64, 300):
        root = isolate_root(pre, periodic_tail=per, precision=bits)
        want = oracle_refine(root, lo, hi, bits)
        assert (root.lo, root.hi) == want, bits
        assert root.refined.lo == oracle_dyadic_from_fraction(want[0], bits + 8, up=False).value
        assert root.refined.hi == oracle_dyadic_from_fraction(want[1], bits + 8, up=True).value


@pytest.mark.parametrize("pre", [[1, 2], [1, 0, 1, 0, 0, 1]])
def test_split_refinement_matches_direct(pre):
    split = isolate_root(pre, precision=100)
    s = split.as_scalar(4096)
    direct = isolate_root(pre, precision=4096)
    assert (split.lo, split.hi) == (direct.lo, direct.hi)
    assert endpoints(s) == endpoints(direct.refined)
    lo, hi = oracle_bracket(pre, [])
    assert (direct.lo, direct.hi) == oracle_refine(direct, lo, hi, 4096)


@pytest.mark.parametrize("off", [0, 1, -1, 3, -3, 2 ** 10, -2 ** 10, 2 ** 40, -2 ** 40, "lo", None],
                         ids=lambda off: f"k={off}" if isinstance(off, int) else str(off).lower())
def test_wrong_newton_guess_costs_2_log2_k_signs(monkeypatch, off):
    pre, bits = [1, 0, 1], 200
    lo, hi = oracle_bracket(pre, [])
    want = oracle_refine(isolate_root(pre, precision=bits), lo, hi, bits)
    w = want[1] - want[0]
    steps = ((hi - lo) / w).numerator.bit_length() - 1  # the grid has 2**steps cells
    assert (hi - lo) / w == 1 << steps and steps > roots._REPLAY_MIN_STEPS

    def newton(poly, glo, ghi, prec):  # the true cell's midpoint, moved by off cells
        if off == "lo":
            return glo
        return None if off is None else (want[0] + want[1]) / 2 + off * w
    monkeypatch.setattr(roots, "_newton", newton)
    signs = []
    plain = PolyRoot._sign_at
    monkeypatch.setattr(PolyRoot, "_sign_at", lambda self, z: signs.append(z) or plain(self, z))
    root = isolate_root(pre, precision=bits)
    assert (root.lo, root.hi) == want
    if off is None:  # no guess: bisection, one sign per halving
        assert len(signs) == steps
    else:  # a guess in the true cell costs 2 signs, one k cells off about 2 log2(k)
        k = abs((want[0] - lo) / w) if off == "lo" else abs(off)
        assert len(signs) <= (2 * math.log2(k) + 4 if k else 2), (off, len(signs))


@pytest.mark.parametrize("pre,per", [([1, 1], []), ([1, 0, 1, 0, 0, 1], []),
                                     ([2], [1, 0, 1]), ([0, 4], [])])
def test_polyroot_contains_mpmath_root_at_4096_bits(pre, per):
    s = isolate_root(pre, periodic_tail=per, precision=4096).refined
    assert s.width <= F(1, 2 ** 4096)
    with mpmath.workprec(4400):
        def f(z):
            acc = 1 - sum(c * z ** -(i + 1) for i, c in enumerate(pre))
            if per:
                tail = sum(c * z ** -(i + 1) for i, c in enumerate(per))
                acc -= z ** -len(pre) * tail / (1 - z ** -len(per))
            return acc
        r = mpmath.findroot(f, mpmath.mpf(float(s.mid)))
        man, exp = mpmath.mpf(r).man_exp
        truth = F(man) * F(2) ** exp
        slack = F(1, 2 ** 4300)
    assert s.lo - slack <= truth <= s.hi + slack


@pytest.mark.parametrize("bits", [64, 256])
def test_ln_of_mantissas_near_one_and_two_matches_the_oracle(bits):
    # z = (m-1)/(m+1) tiny or near 1/3: the lower sum stops early once its
    # terms fall below its last place, the upper one runs to the end
    for n in [(1 << 300) + 1, (1 << 300) + 3 ** 20, (1 << 301) - 1, (1 << 290) - 3 ** 30, 5, 7]:
        d = Dyadic.of(n)
        want = (oracle_ln_directed(d, bits, False), oracle_ln_directed(d, bits, True))
        assert endpoints(ln_int(n, bits)) == endpoints(interval(*want)), n


# ---------------------------------------------------------------------------
# raw-pair Scalar arithmetic against the Dyadic implementation it replaced
# (each endpoint a Dyadic, every product built, min and max compared)


def ref_add(a, b):
    p = min(a[2], b[2])
    return oracle_round_down(a[0] + b[0], p), oracle_round_up(a[1] + b[1], p), p


def ref_mul(a, b):
    p = min(a[2], b[2])
    prods = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (oracle_round_down(min(prods, key=lambda d: d.value), p),
            oracle_round_up(max(prods, key=lambda d: d.value), p), p)


def ref_scale_int(a, k):
    d = Dyadic.of(k)
    lo, hi = (a[0] * d, a[1] * d) if k >= 0 else (a[1] * d, a[0] * d)
    return oracle_round_down(lo, a[2]), oracle_round_up(hi, a[2]), a[2]


def ref_pow_int(a, n):
    result, base = (Dyadic.of(1), Dyadic.of(1), a[2]), a
    while n:
        if n & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def ref_endpoints(r):
    return (r[0].man, r[0].exp, r[1].man, r[1].exp)


def _random_interval(rng, bits, case):
    """An interval of the given sign case, endpoints of up to bits + 40 bits."""
    def dyadic():
        return Dyadic.of(rng.getrandbits(rng.randint(1, bits + 40)) + 1,
                         rng.randint(-bits - 40, 40))
    a, b = sorted([dyadic(), dyadic()], key=lambda d: d.value)
    neg_a, neg_b = Dyadic.of(-a.man, a.exp), Dyadic.of(-b.man, b.exp)
    return {"positive": (a, b), "negative": (neg_b, neg_a), "straddle": (neg_a, b),
            "zero end": (ZERO, b), "point": (a, a)}[case]


CASES = ["positive", "negative", "straddle", "zero end", "point"]


@pytest.mark.parametrize("bits", [64, 192, 256])
def test_raw_scalar_ops_match_the_dyadic_reference(bits):
    rng = random.Random(bits)
    seen = set()
    for i in range(2000):
        ca, cb = CASES[i % 5], CASES[(i // 5) % 5]
        pa, pb = bits, rng.choice([bits, bits + 8, bits // 2])
        a = _random_interval(rng, bits, ca) + (pa,)
        b = _random_interval(rng, bits, cb) + (pb,)
        sa, sb = interval(a[0], a[1], pa), interval(b[0], b[1], pb)
        seen.add((ca, cb))
        assert endpoints(sa + sb) == ref_endpoints(ref_add(a, b)), (a, b)
        assert endpoints(sa * sb) == ref_endpoints(ref_mul(a, b)), (a, b)
        assert (sa * sb).prec == min(pa, pb)
        k = rng.randint(-5, 5) * rng.choice([1, 3 ** 40])
        assert endpoints(sa.scale_int(k)) == ref_endpoints(ref_scale_int(a, k)), (a, k)
        if i % 10 == 0:
            n = rng.randint(0, 7)
            assert endpoints(sa.pow_int(n)) == ref_endpoints(ref_pow_int(a, n)), (a, n)
    assert len(seen) == 25  # every pair of sign cases, straddling ones included


def test_interval_horner_matches_scalar_ops():
    rng = random.Random(5)
    for bits in (64, 192, 256):
        for _ in range(50):
            x = Scalar.from_fraction(F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)),
                                     rng.choice([bits, bits + 8, bits // 2]))
            coeffs = [rng.choice([F(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9)])
                      for _ in range(rng.randint(0, 12))]
            acc = Scalar.from_fraction(F(0), bits)
            for c in reversed(coeffs):
                acc = acc * x + Scalar.from_fraction(c, bits)
            assert endpoints(numerics._iv_horner(coeffs, x, bits)) == endpoints(acc)


# ---------------------------------------------------------------------------
# the fixed-point root sign against the exact integer Horner


def exact_sign(int_poly, z):
    num, den = z.numerator, z.denominator
    acc, dp = 0, 1
    for c in reversed(int_poly):
        acc = acc * num + c * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def test_fixed_point_bounds_enclose_the_exact_value():
    rng = random.Random(11)
    for _ in range(3000):
        poly = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        z = F(rng.randint(1, 4000), rng.randint(1, 999))
        p = rng.choice([1, 4, 8, 16, 40])
        lo, hi = roots._fixed_bounds(poly, z.numerator, z.denominator, p)
        assert lo <= poly_eval(poly, z) * 2 ** p <= hi, (poly, z, p)


@pytest.mark.parametrize("pre,per", ROOT_CASES)
def test_fixed_point_sign_matches_exact_sign(pre, per):
    rng = random.Random(str((pre, per)))
    root = isolate_root(pre, periodic_tail=per, precision=300)
    points = [root.lo, root.hi, (root.lo + root.hi) / 2, F(3, 2), F(5, 3), F(2)]
    points += [1 + F(rng.randrange(1, 1 << 40), 1 << 38) for _ in range(20)]
    points += [root.lo + F(rng.randrange(-1000, 1000), 3 << 290) for _ in range(20)]
    for z in points:
        if z > 1:
            assert root._sign_at(z) == exact_sign(root.int_poly, z), z


def test_sign_at_the_root_itself_takes_the_exact_path():
    # the root of 1 = 2/z is 2: the fixed-point interval always straddles 0
    # there, so the 0 can only come from the exact fallback
    root = isolate_root([2])
    assert root._sign_at(F(2)) == 0
    assert root._sign_at(F(2) + F(1, 1 << 500)) == 1
    assert root._sign_at(F(2) - F(1, 1 << 500)) == -1
    assert (root.lo, root.hi) == oracle_refine(root, F(1), F(3), DEFAULT_PRECISION)
