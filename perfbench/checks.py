"""Output checks, one per job kind.

Each check takes the job and the directory it ran in and returns None when
the output is right, else a one-line reason.  The expected answers come
from ``basemath`` (closed forms, the Renyi-Parry recurrence, direct
lexicographic comparison, Decimal evaluation) or from re-reading the digit
files against the layout their sidecar declares; none of them runs the
program's own code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import basemath
from basemath import PREC, parse_base, to_decimal

F = Fraction
SLACK = Decimal(10) ** -200  # room for the Decimal rounding of the reference


class Output:
    """What a finished job left behind."""

    def __init__(self, workdir: Path, stdout: bytes):
        self.workdir = workdir
        self.stdout = stdout

    @property
    def text(self) -> str:
        return self.stdout.decode()

    def json(self) -> dict:
        return json.loads(self.stdout)

    def file(self, name: str) -> bytes:
        return (self.workdir / name).read_bytes()


def digits_of(text: bytes) -> tuple[int, bytes]:
    """(base, digit values) of a ``base=<b>`` digit file."""
    header, _, body = text.partition(b"\n")
    if not header.startswith(b"base="):
        raise ValueError("missing base header")
    base = int(header[5:])
    if base > 10 or re.search(rb"\S\S", body):  # some digit takes two characters
        return base, bytes(int(t) for t in body.split())
    return base, body.translate(_DIGIT_VALUES, b" \t\r\n")


_DIGIT_VALUES = bytes((i - 48) % 256 for i in range(256))


def _in(x: Decimal, lo: Decimal, hi: Decimal) -> bool:
    with localcontext() as ctx:
        ctx.prec = PREC
        return lo - SLACK <= x <= hi + SLACK


def _interval(d: dict) -> tuple[Decimal, Decimal]:
    return to_decimal(F(d["lower"])), to_decimal(F(d["upper"]))


# ---------------------------------------------------------------------------
# closed forms


def dim_formula(p, out):
    want = basemath.dim_value(F(p["theta"]), F(p["vhat"]))
    return None if out.text.strip() == str(want) else f"want {want}"


def dim_formula_sup(p, out):
    v = F(p["vhat"])
    want = ((1 - v) / (1 + v)) ** 2
    if want != basemath.dim_value(2 / (1 - v), v):
        return "reference disagrees with the value at theta0"
    return None if out.text.strip() == str(want) else f"want {want}"


def dim_s0(p, out):
    eps = F(p["eps"])
    want = (1 + eps) / (1 - eps) * basemath.dim_value(F(p["theta"]), F(p["vhat"]))
    return None if out.text.strip() == str(want) else f"want {want}"


def reprove(p, out):
    v, d = F(p["v"]), out.json()
    want = [[t, str(F(1) / (1 + v) * (1 - v / (F(t) - 1)))] for t in p["thetas"]]
    if d["limit"] != str(1 / (1 + v)) or d["values"] != want or d["monotone"] is not True:
        return "limit, values or monotone flag wrong"
    return None


def _converges(points, target: float, tol: float) -> str | None:
    """The last ratio is within tol of the target and closer than the first."""
    if abs(points[-1] - target) > tol:
        return f"last ratio {points[-1]:.6f} not within {tol} of {target:.6f}"
    if abs(points[-1] - target) >= abs(points[0] - target):
        return "ratios do not approach the formula"
    return None


def dim_local_csv(p, out):
    rows = list(csv.reader(io.StringIO(out.text)))[1:]
    mids = [(float(lo) + float(hi)) / 2 for _k, lo, hi in rows]
    return _converges(mids, float(basemath.dim_value(F(p["theta"]), F(p["vhat"]))), 1 / 50)


def dim_local_beta(p, out):
    d = out.json()
    cfg = d["config"]
    target = basemath.dim_value(F(cfg["theta"]), F(cfg["vhat"]))
    if d["formula_value"] != str(target):
        return f"formula_value {d['formula_value']} != {target}"
    if len(d["trajectory"]) != cfg["stages"]:
        return "trajectory length differs from the stage count"
    base = parse_base(p["beta"])
    sub = parse_base(f"approx:{p['beta']}:{p['N']}")
    with localcontext() as ctx:
        ctx.prec = PREC
        scale = sub.beta.ln() / base.beta.ln()
    lo, hi = (to_decimal(F(x)) for x in d["scale_interval"])
    if not _in(scale, lo, hi):
        return "scale interval misses ln(beta_N)/ln(beta)"
    mids = [float((F(a) + F(b)) / 2) for _k, a, b in d["trajectory"]]
    return _converges(mids, float(target) * float(scale), 1 / 20)


# ---------------------------------------------------------------------------
# words and counts


def count(p, out):
    base = parse_base(p["beta"])
    want = basemath.count_words(base, p["n"])
    if p.get("renyi"):
        d = out.json()
        got, renyi = d["count"], d["renyi"]
        if not (renyi["lower_ok"] and renyi["upper_ok"]):
            return "a Renyi bound reported as violated"
    else:
        got = int(out.text)
    return None if got == want else f"count off by {got - want}"


def admissible_check(p, out):
    want = basemath.is_admissible(parse_base(p["beta"]), p["word"])
    return None if out.text.strip() == str(want).lower() else f"want {want}"


def admissible_list(p, out):
    base, n = parse_base(p["beta"]), p["n"]
    words = [[]]
    for _ in range(n):
        words = [w + [d] for w in words for d in range(base.top + 1)]
    want = [" ".join(map(str, w)) for w in words if basemath.is_admissible(base, w)]
    return None if out.text.splitlines() == want else "word list differs"


def parry_check(p, out):
    want = basemath.is_self_admissible(*basemath.parse_periodic(p["word"]))
    return None if out.text.strip() == str(want).lower() else f"want {want}"


def parry_invert(p, out):
    pre, per = basemath.parse_periodic(p["word"])
    beta = Decimal(out.text.strip())
    residual = 1 - basemath.periodic_value(beta, pre, per)
    if beta <= 1 or abs(residual) > Decimal("1e-12"):
        return f"1 - sum w_i beta^-i = {float(residual):.3e}"
    return None


def expand_rational(p, out):
    base, got = digits_of(out.stdout)
    x = F(p["x"])
    num, den, want = x.numerator, x.denominator, bytearray()
    for _ in got:
        num *= base
        want.append(num // den)
        num %= den
    return None if base == p["base"] and got == bytes(want) else "digits differ from long division"


def expand_lacunary(p, out):
    base, got = digits_of(out.stdout)
    power, n = 1 + F(p["v"]), p["n"]
    want = bytearray(n)
    j = 1
    while (pos := math.floor(power ** j)) <= n:
        want[pos - 1] = 1
        j += 1
    return None if base == p["base"] and got == bytes(want) else "digits differ from the series"


def greedy_digits(p, out):
    """Greedy digits are those with ``0 <= x - S_k < beta^-k`` for every k."""
    base = parse_base(p["beta"])
    _b, got = digits_of(out.stdout)
    if len(got) != p["n"]:
        return "wrong digit count"
    x = to_decimal(F(p["x"]))
    with localcontext() as ctx:
        ctx.prec = PREC
        s, scale = Decimal(0), Decimal(1)
        for k, d in enumerate(got, start=1):
            scale /= base.beta
            s += d * scale
            if not -SLACK <= x - s < scale:
                return f"digit {k} is not greedy"
    return None


def expansion_of_one(p, out):
    _b, got = digits_of(out.stdout)
    want = parse_base(p["beta"]).tstar_prefix(p["n"])
    return None if tuple(got) == want else "digits differ from t*"


def cylinder(p, out):
    """Left end is the word's value; the length is ``beta^-n`` times the value
    of t* shifted past the longest suffix of the word that prefixes t*."""
    base, d = parse_base(p["beta"]), out.json()
    word = d["word"]
    n = len(word)
    tight = [k for k in range(n) if basemath.compare_prefix(word, k, base.tstar) == 0]
    s = n - tight[0] if tight else 0
    pre, per = base.period
    span = 2 * (len(pre) + len(per)) + s
    shifted = [base.tstar(s + i) for i in range(span)]
    full = shifted == [base.tstar(i) for i in range(span)]
    with localcontext() as ctx:
        ctx.prec = PREC
        left = basemath.word_value(base.beta, word)
        tail = basemath.periodic_value(
            base.beta, [base.tstar(s + i) for i in range(len(pre))],
            [base.tstar(s + len(pre) + i) for i in range(len(per))])
        length = tail * base.beta ** -n
        right = left + length
    if not _in(left, *_interval(d["left"])):
        return "left end misses the word value"
    if not _in(length, *_interval(d["length"])):
        return "length misses beta^-n times the tail value"
    if not _in(right, *_interval(d["right"])):
        return "right end misses left + length"
    return None if d["full"] == full else f"full should be {full}"


# ---------------------------------------------------------------------------
# constructions and the jobs that read them


def _bary_layout(sched: dict, pair: bool) -> list[tuple[int, int, str]]:
    """Prescribed stretches ``(first, last, what)``, 1-based inclusive, as
    the sidecar's run schedule defines them: a marker at each n_k and m_k,
    the run strictly between, markers every gap after m_k up to u_k, and in
    base 2 a 0 after each of those later markers."""
    n, m, t = sched["n"], sched["m"], sched["t"]
    out = []
    for k in range(len(m)):
        gap = m[k] - n[k]
        out += [(n[k], n[k], "marker"), (n[k] + 1, m[k] - 1, "run"), (m[k], m[k], "marker")]
        for j in range(1, t[k] + 1):
            pos = m[k] + j * gap
            out.append((pos, pos, "marker"))
            if pair and pos + 1 < n[k + 1]:
                out.append((pos + 1, pos + 1, "zero"))
    out.append((n[-1], n[-1], "marker"))
    return out


def _free_count(stretches, n: int) -> int:
    return n - sum(min(hi, n) - lo + 1 for lo, hi, _w in stretches if lo <= n)


def construct_bary(p, out):
    side = json.loads(out.file(p["file"] + ".json"))
    base, data = digits_of(out.file(p["file"]))
    sched = side["schedule"]
    if base != side["base"] or len(data) != sched["n"][-1]:
        return "base or length differs from the sidecar"
    allowed = set(side.get("digit_set") or range(base))
    run_digit = 0 if 0 in allowed else base - 1
    if run_digit == 0:
        marker = 1 if 1 in allowed else min(allowed - {0})
    else:
        marker = min(allowed - {base - 1})
    if not set(data) <= allowed:
        return "digit outside the alphabet"
    want = {"marker": marker, "run": run_digit, "zero": 0}
    for lo, hi, what in _bary_layout(sched, base == 2):
        if data[lo - 1:hi] != bytes([want[what]]) * (hi - lo + 1):
            return f"{what} at {lo}..{hi} differs from the sidecar schedule"
    return None


def _beta_layout(sched: dict) -> list[tuple[int, int, tuple[int, ...]]]:
    """Determined blocks ``(first, last, positions of their 1s)``, 1-based:
    stage k spans l_k..h_k, all 0 except 1s at l_k + N and h_k - N; each
    marker block spans 2N + 1 digits with its 1 in the middle."""
    N, l, h, t = sched["N"], sched["l"], sched["h"], sched["t"]
    blocks = []
    for k in range(len(h)):
        gap = sched["m"][k] - sched["n"][k]
        blocks.append((l[k], h[k], (l[k] + N, h[k] - N)))
        for j in range(1, t[k] + 1):
            s = h[k] + j * gap + 2 * N * (j - 1)
            blocks.append((s, s + 2 * N, (s + N,)))
    return blocks


def construct_beta(p, out):
    side = json.loads(out.file(p["file"] + ".json"))
    _b, data = digits_of(out.file(p["file"]))
    sched = side["schedule"]
    if len(data) != sched["l"][-1] - 1:
        return "length differs from the sidecar layout"
    for lo, hi, ones in _beta_layout(sched):
        want = bytearray(hi - lo + 1)
        for pos in ones:
            want[pos - lo] = 1
        if data[lo - 1:hi] != bytes(want):
            return f"block {lo}..{hi} differs from the sidecar layout"
    sub = parse_base(side["approximant"])
    if any(f in data for f in basemath.forbidden_factors(sub)):
        return "word is not admissible for the approximant"
    return None


def construct_param(p, out):
    side = json.loads(out.file(p["file"] + ".json"))
    _b, data = digits_of(out.file(p["file"]))
    cfg = side["config"]
    N, upper, lower = cfg["N"], parse_base(cfg["beta1"]), parse_base(cfg["beta0"])
    if tuple(data[:N]) != upper.tstar_prefix(N) or side["prefix"] != list(data[:N]):
        return "prefix differs from t* of beta1"
    if any(data[N:2 * N]):
        return "the N zeros after the prefix are missing"
    if not basemath.is_self_admissible(tuple(data)):
        return "word is not self-admissible"
    lo, hi = _interval(side["recovered_base"])
    if not lower.beta < lo <= hi < upper.beta:
        return "recovered base escapes (beta0, beta1)"
    # the value sum w_i z^-i decreases in z, so it must cross 1 inside [lo, hi]
    if not basemath.word_value(lo, data) >= 1 >= basemath.word_value(hi, data):
        return "recovered base does not bracket the root"
    return None


def exponents(p, out):
    d = out.json()
    side = json.loads(out.file(p["file"] + ".json"))
    _b, data = digits_of(out.file(p["file"]))
    theta, vhat = F(side["config"]["theta"]), F(side["config"]["vhat"])
    if d["horizon"] != len(data):
        return "horizon differs from the file length"
    v, vh = F(d["v_lower"]), F(d["v_hat_lower"])
    if abs(v - theta * vhat) > F(1, 20) or abs(vh - vhat) > F(1, 20):
        return f"exponents ({v}, {vh}) not near ({theta * vhat}, {vhat})"
    return None if d["relations"]["all_pass"] else "exponent relations fail"


def measure(p, out):
    d = out.json()
    side = json.loads(out.file(p["file"] + ".json"))
    sched, n = side["schedule"], p["n"]
    if side["kind"] == "bary":
        free = _free_count(_bary_layout(sched, side["base"] == 2), n)
        size = len(side.get("digit_set") or range(side["base"]))
        ok = d["exponent"] == free and d["base"] == size
        return None if ok else f"want mass {size}^-{free}"
    blocks = sorted(_beta_layout(sched)) + [(sched["l"][-1], sched["l"][-1], ())]
    lengths: dict[int, int] = {}
    prev = 0  # last determined position
    for lo, hi, _ones in blocks:
        if prev + 1 <= min(lo - 1, n):
            k = min(lo - 1, n) - prev
            lengths[k] = lengths.get(k, 0) + 1
        prev = hi
        if prev >= n:
            break
    want = sorted(lengths.items())
    if [tuple(f) for f in d["factors"]] != want:
        return "free-block factors differ from the sidecar layout"
    table = basemath.counts(parse_base(side["approximant"]), lengths)
    log_mu = -sum(mult * math.log(table[k]) for k, mult in want)
    got = d["log_mu"]["float"]
    return None if abs(got - log_mu) <= 1e-9 * abs(log_mu) else f"log_mu {got} != {log_mu}"


CHECKS = {f.__name__: f for f in (
    dim_formula, dim_formula_sup, dim_s0, reprove, dim_local_csv, dim_local_beta,
    count, admissible_check, admissible_list, parry_check, parry_invert,
    expand_rational, expand_lacunary, greedy_digits, expansion_of_one, cylinder,
    construct_bary, construct_beta, construct_param, exponents, measure)}


def check(job, out: Output) -> str | None:
    """None when the job's output is right, else why not."""
    try:
        return CHECKS[job.check](job.params, out)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
