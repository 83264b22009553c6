"""Exact radical arithmetic, rational square roots, and the upper-right
hull chain that arch.extreme_arch walks over exact rational points."""

import math
import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import factorint, isprime, nextprime

from conftest import run_python, upper_right_chain
from orthogeo import SqrtSum, frac_sqrt, sqrt_reduce, squarefree_split
from orthogeo.radicals import _is_prime, _strong_lucas_prp, _strong_prp

F = Fraction


def test_squarefree_split_small():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(2) == (1, 2)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(360) == (6, 10)
    s, c = squarefree_split(145)
    assert (s, c) == (1, 145)


def _prime(rng, bits):
    return nextprime(rng.getrandbits(bits) | 1 << (bits - 1))


def _split_cases():
    """Seeded integers of 1-100 bits, covering every factoring route: trial
    division, rough cofactors, both primality tests, the square test and rho.
    Every number with two prime factors above 2**24 is a balanced semiprime of
    at most 64 bits, so both factorizers stay fast."""
    rng = random.Random(9)
    # Carmichael numbers, strong base-2 and strong Lucas pseudoprimes, and the
    # edges of trial division (997 < 1009, 10**6 - 1 = 3**3 * 7 * 11 * 13 * 37)
    cases = [1, 2, 4, 561, 41041, 825265, 2047, 3215031751, 5459, 5777, 10877]
    cases += [997, 997**2, 997**3, 1009, 997 * 1009, 1009**2, 1009**3]
    cases += [10**6 - 1, 10**6, 999983, 999983**2]
    for _ in range(3000):
        cases.append(rng.getrandbits(rng.randint(1, 48)) + 1)
    for _ in range(1000):
        r = rng.getrandbits(rng.randint(1, 24)) + 1
        cases.append(r * _prime(rng, rng.randint(20, 99 - r.bit_length())))
    # s*s*c with a large squared prime s
    for _ in range(500):
        s = _prime(rng, rng.randint(11, 48))
        cases.append(s * s * (rng.getrandbits(min(24, 99 - 2 * s.bit_length())) + 1))
    # prime powers p**k with p > 1000, alone and times a cofactor
    for _ in range(150):
        k = rng.randint(2, 9)
        p = _prime(rng, rng.randint(11, min(99 // k, 26 if k > 2 else 48)))
        cases += [p**k, p**k * (rng.getrandbits(min(24, 99 - k * p.bit_length())) + 1)]
    # primes and rough composites above 81 bits, where primality is BPSW
    for _ in range(100):
        cases.append(_prime(rng, rng.randint(82, 99)))
        q = _prime(rng, rng.randint(82, 88))
        cases.append(q * _prime(rng, rng.randint(11, 99 - q.bit_length())))
    # balanced semiprimes up to 64 bits
    for bits in range(20, 66, 2):
        cases.append(_prime(rng, bits // 2) * _prime(rng, bits // 2))
    assert len(cases) >= 5000 and max(cases).bit_length() <= 100
    return cases


def _split_from(factors):
    s = c = 1
    for p, e in factors.items():
        s *= p ** (e // 2)
        c *= p ** (e % 2)
    return s, c


def test_squarefree_split_matches_sympy_factorint():
    for n in _split_cases():
        factors = factorint(n)
        s, c = squarefree_split(n)
        assert (s, c) == _split_from(factors), n
        # the invariant on its own: n = s*s*c and no square of a prime divides c
        assert s * s * c == n and all(c % (p * p) for p in factors), n


def test_is_prime_matches_sympy_isprime():
    assert all(_is_prime(n) == isprime(n) for n in range(10**5))
    rng = random.Random(10)
    for _ in range(3000):
        n = rng.getrandbits(rng.randint(1, 100))
        assert _is_prime(n) == isprime(n), n
    # odd n with no prime factor below 1000 reach Miller-Rabin or BPSW
    odd_primorial = math.prod(p for p in range(3, 1000, 2) if isprime(p))
    draws = (rng.getrandbits(rng.randint(21, 100)) | 1 for _ in range(6000))
    rough = [n for n in draws if math.gcd(n, odd_primorial) == 1]
    rough += [_prime(rng, b // 2) * _prime(rng, b - b // 2) for b in range(60, 101)]
    assert len(rough) > 500
    for n in rough:
        assert _is_prime(n) == isprime(n), n


def test_probable_prime_tests_fail_exactly_on_their_pseudoprimes():
    # below 20000 the strong base-2 pseudoprimes (OEIS A001262) and the strong
    # Lucas pseudoprimes with Selfridge's parameters (A217255) are these
    base2 = {2047, 3277, 4033, 4681, 8321, 15841}
    lucas = {5459, 5777, 10877, 16109, 18971}
    for n in range(3, 20000, 2):
        assert _strong_prp(n, 2) == (isprime(n) or n in base2), n
        assert _strong_lucas_prp(n) == (isprime(n) or n in lucas), n


def test_radicals_and_cli_load_no_sympy(tmp_path):
    host = tmp_path / "quad.json"
    host.write_text(
        '{"kind": "pip", "vertices": ["b1", "b2", "c1", "c2"],'
        ' "edges": [["b1", "c2"], ["b2", "c1"]]}'
    )
    (tmp_path / "x.json").write_text('{"coords": {"b1": 1, "b2": "2/5"}}')
    (tmp_path / "y.json").write_text('{"coords": {"c1": "1/2", "c2": 1}}')
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import orthogeo\n"
        "from orthogeo.cli import main\n"
        "assert orthogeo.SqrtSum.sqrt(Fraction(2)).terms == {2: 1}\n"
        "assert main(['dist'] + sys.argv[1:]) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    args = [str(tmp_path / name) for name in ("quad.json", "x.json", "y.json")]
    proc = run_python(["-c", script, *args])
    assert proc.returncode == 0, proc.stderr
    assert '"length": 2.19317121995' in proc.stdout


def test_sqrt_reduce():
    assert sqrt_reduce(F(0)) == (F(0), 1)
    assert sqrt_reduce(F(9, 4)) == (F(3, 2), 1)
    assert sqrt_reduce(F(8)) == (F(2), 2)
    assert sqrt_reduce(F(5, 4)) == (F(1, 2), 5)
    coeff, core = sqrt_reduce(F(481, 100))
    assert coeff * coeff * core == F(481, 100)


def test_frac_sqrt_perfect_squares_exact():
    assert frac_sqrt(F(9, 4)) == F(3, 2)
    assert frac_sqrt(F(0)) == 0
    assert frac_sqrt(F(1)) == 1
    assert frac_sqrt(F(25, 16)) == F(5, 4)


def test_frac_sqrt_floor_property():
    for f in (F(2), F(1, 2), F(481, 100), F(145)):
        r = frac_sqrt(f, digits=30)
        assert r * r <= f
        step = F(1, 10**30)
        assert (r + step) * (r + step) > f


@given(st.fractions(min_value=0, max_value=1000))
def test_frac_sqrt_matches_float(f):
    r = frac_sqrt(f)
    assert math.isclose(float(r), math.sqrt(float(f)), rel_tol=1e-12, abs_tol=1e-15)


def test_sqrtsum_canonicalizes():
    assert SqrtSum.sqrt(F(8)) == SqrtSum(0, {2: F(2)})
    assert SqrtSum.sqrt(F(9)) == SqrtSum(3)
    assert SqrtSum.sqrt(F(50)) == SqrtSum.sqrt(F(2)).scale(5)


def test_sqrtsum_equality_with_foreign_types():
    # strings, None and other non-numbers are left to the other operand, so
    # they compare unequal instead of raising or parsing; a value with no
    # radical terms hashes as its Fraction, like the equal int or float
    one = SqrtSum(1)
    assert (one == None) is False and (one != None) is True  # noqa: E711
    assert (one == "a") is False and (one != "a") is True
    assert (one == "1") is False
    assert one == 1 and one == F(1) and one == 1.0 and 1 == one
    assert one != float("nan") and one != float("inf") and one != object()
    assert len({one, 1}) == 1 and len({SqrtSum(F(1, 3)), F(1, 3), SqrtSum(F(2, 6))}) == 1
    assert hash(SqrtSum(F(5, 2))) == hash(2.5)
    root = SqrtSum.sqrt(F(2))
    assert root != 1 and root == SqrtSum(0, {2: 1}) and len({root, SqrtSum(0, {2: 1})}) == 1


def test_sqrtsum_arithmetic():
    a = SqrtSum.sqrt(F(2))
    b = SqrtSum.sqrt(F(3))
    s = a + b
    assert s - b == a
    assert (a + a) == a.scale(2)
    assert (a - a).is_zero()
    assert -(a - b) == b - a
    assert SqrtSum(F(1, 2)) + F(1, 2) == SqrtSum(1)


def test_sqrtsum_ordering():
    assert SqrtSum.sqrt(F(2)) < SqrtSum(F(3, 2))
    assert SqrtSum(F(3, 2)) < SqrtSum.sqrt(F(3))
    assert SqrtSum.sqrt(F(2)) + SqrtSum.sqrt(F(3)) > SqrtSum(3)
    assert SqrtSum.sqrt(F(2)) + SqrtSum.sqrt(F(3)) < SqrtSum(F(315, 100))
    assert SqrtSum(0).sign() == 0
    assert (SqrtSum.sqrt(F(2)) - SqrtSum.sqrt(F(2))).sign() == 0


def test_sqrtsum_sign_close_values():
    # 99/70 is a convergent of sqrt(2); the difference is ~1e-4 yet exact.
    close = SqrtSum(F(99, 70)) - SqrtSum.sqrt(F(2))
    assert close.sign() == 1
    tiny = SqrtSum(F(665857, 470832)) - SqrtSum.sqrt(F(2))
    assert tiny.sign() == 1
    assert (-tiny).sign() == -1


def test_sqrtsum_repr_roundtrip_readable():
    s = SqrtSum(F(241, 100)) + SqrtSum.sqrt(F(29, 5)).scale(1)
    text = repr(s)
    assert "241/100" in text and "sqrt" in text


# Unbounded fractions draw numerators of 100 bits and more, and the first
# SqrtSum.sqrt of one factors it.  A 100-bit numerator took about 1 s with
# a 40-bit smallest prime factor (SLOW_A), 6 s with a 45-bit one and 20 s
# with two 50-bit primes (Python 3.11, 2-vCPU VM).  The deadline covers the
# last with room to spare, where the default 200 ms failed on SLOW_A.
SLOW_A = F(2371629312288659694637484605439, 118581465614432984731874230272)
SLOW_B = F(756, 7244)
FACTORING_DEADLINE = timedelta(seconds=60)


@given(
    st.fractions(min_value=0, max_value=50),
    st.fractions(min_value=0, max_value=50),
)
@example(SLOW_A, SLOW_B)
@settings(deadline=FACTORING_DEADLINE)
def test_sqrtsum_float_agrees(a, b):
    s = SqrtSum.sqrt(a) + SqrtSum.sqrt(b)
    expect = math.sqrt(float(a)) + math.sqrt(float(b))
    assert math.isclose(float(s), expect, rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.fractions(min_value=0, max_value=20),
    st.fractions(min_value=0, max_value=20),
)
@example(SLOW_A, SLOW_B)
@settings(deadline=FACTORING_DEADLINE)
def test_sqrtsum_sign_agrees_with_float(a, b):
    d = SqrtSum.sqrt(a) - SqrtSum.sqrt(b)
    if a == b:
        assert d.sign() == 0
    else:
        assert d.sign() == (1 if a > b else -1)


def test_upper_right_chain_staircase():
    pts = [
        (F(0), F(0)),
        (F(4), F(0)),
        (F(0), F(3)),
        (F(3), F(2)),
        (F(1), F(1)),  # dominated: inside the hull
        (F(2), F(1)),  # dominated
    ]
    chain = upper_right_chain(pts, (F(4), F(0)), (F(0), F(3)))
    assert chain == [(F(4), F(0)), (F(3), F(2)), (F(0), F(3))]
    xs = [p[0] for p in chain]
    ys = [p[1] for p in chain]
    assert xs == sorted(xs, reverse=True)
    assert ys == sorted(ys)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=8),
            st.fractions(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_upper_right_chain_walks_hull_boundary(pts):
    right, top = (F(9), F(0)), (F(0), F(9))
    chain = upper_right_chain(pts, right, top)
    pts = set(pts) | {right, top}
    assert set(chain) <= pts
    assert chain[0] == right and chain[-1] == top
    xs = [p[0] for p in chain]
    ys = [p[1] for p in chain]
    assert all(a > b for a, b in zip(xs, xs[1:]))
    assert all(a < b for a, b in zip(ys, ys[1:]))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # each directed chord keeps every point weakly to its left, and every
    # member lies strictly outside the chord of its two neighbours
    for a, b in zip(chain, chain[1:]):
        assert all(cross(a, b, p) >= 0 for p in pts)
    for a, m, b in zip(chain, chain[1:], chain[2:]):
        assert cross(a, b, m) < 0
