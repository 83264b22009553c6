"""Exact arithmetic with rational combinations of square roots.

Arch lengths squared have the shape  rational + sum of rational multiples of
square roots of rationals.  Writing every radical over its squarefree core
makes that representation canonical (square roots of distinct squarefree
integers are linearly independent over the rationals), so equality is a dict
comparison and signs can be decided exactly by interval refinement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt
from numbers import Rational


# Trial division by the primes below 1000 leaves a cofactor with no prime
# factor below 1009, so a cofactor under 1000**2 is 1 or a prime.
_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1)))
_ROUGH_PRIME_BELOW = 1000 * 1000
# Strong Miller-Rabin on the first 13 prime bases is proven exact below
# psi_13 ~ 3.3e24, which holds every integer of at most 81 bits
# (Sorenson and Webster 2017).
_MR_BASES = _PRIMES[:13]
_MR_MAX_BITS = 81
_RHO_BATCH = 128


def _strong_prp(n: int, a: int) -> bool:
    """Strong probable-prime test of the odd n > a to base a (Miller-Rabin)."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of the odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie and Wagstaff 1980)."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return abs(D) == n
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q^k mod n for k the leading bits of d, from k = 1 (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U if U % 2 == 0 else U + n) // 2 % n
            V = (V if V % 2 == 0 else V + n) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Exact primality of n >= 0.

    After trial division by the primes below 1000, n < 10**6 is prime.  Up
    to 81 bits the test is strong Miller-Rabin on the 13 bases 2..41, which
    is proven; above, strong BPSW (base 2 plus a strong Lucas test), which
    has no known counterexample.
    """
    if n < 2:
        return False
    for p in _PRIMES:
        if n % p == 0:
            return n == p
    if n < _ROUGH_PRIME_BELOW:
        return True
    if n.bit_length() <= _MR_MAX_BITS:
        return all(_strong_prp(n, a) for a in _MR_BASES)
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of Pollard
    rho with the gcds batched; the divisor is always found by gcd, so it is
    exact whatever the walk does."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: step through it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1."""
    factors: dict[int, int] = {}
    for p in _PRIMES:
        if p * p > n:
            # no prime factor below p is left, so n is 1 or a prime
            if n > 1:
                factors[n] = 1
            return factors
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n > 1:
        _factor_rough(n, 1, factors)
    return factors


def _factor_rough(n: int, e: int, factors: dict[int, int]) -> None:
    """Add the factorization of n**e to factors, for n > 1 with no prime
    factor below 1000."""
    if _is_prime(n):
        factors[n] = factors.get(n, 0) + e
        return
    root = isqrt(n)
    if root * root == n:
        _factor_rough(root, 2 * e, factors)
    else:
        d = _rho(n)
        _factor_rough(d, e, factors)
        _factor_rough(n // d, e, factors)


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*c with c squarefree; returns (s, c)."""
    if n <= 0:
        raise ValueError("positive integers only")
    s, c = 1, 1
    for p, e in _factor(n).items():
        s *= p ** (e // 2)
        if e % 2:
            c *= p
    return s, c


def sqrt_reduce(f: Fraction) -> tuple[Fraction, int]:
    """sqrt(f) = coeff * sqrt(core) with core a squarefree integer."""
    if f < 0:
        raise ValueError("negative radicand")
    if f == 0:
        return Fraction(0), 1
    # sqrt(n/d) = sqrt(n*d)/d; n and d are coprime, so the split of n*d is the
    # product of their splits, and two halves factor far faster than n*d
    sn, cn = squarefree_split(f.numerator)
    sd, cd = squarefree_split(f.denominator)
    return Fraction(sn * sd, f.denominator), cn * cd


def frac_sqrt(f: Fraction, digits: int = 40) -> Fraction:
    """Deterministic rational approximation of sqrt(f), floor at 10^-digits."""
    if f < 0:
        raise ValueError("negative radicand")
    scale = 10**digits
    s = isqrt(f.numerator * f.denominator * scale * scale)
    return Fraction(s, f.denominator * scale)


class SqrtSum:
    """rational + sum(coeff * sqrt(core)) over squarefree cores > 1."""

    __slots__ = ("rational", "terms")

    def __init__(self, rational=0, terms=None):
        self.rational = Fraction(rational)
        clean: dict[int, Fraction] = {}
        for core, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if core == 1:
                self.rational += coeff
            elif coeff:
                clean[core] = clean.get(core, Fraction(0)) + coeff
        self.terms = {c: v for c, v in sorted(clean.items()) if v}

    @classmethod
    def sqrt(cls, f: Fraction) -> "SqrtSum":
        coeff, core = sqrt_reduce(Fraction(f))
        if core == 1:
            return cls(coeff)
        return cls(0, {core: coeff})

    def __add__(self, other):
        if isinstance(other, SqrtSum):
            terms = dict(self.terms)
            for c, v in other.terms.items():
                terms[c] = terms.get(c, Fraction(0)) + v
            return SqrtSum(self.rational + other.rational, terms)
        return SqrtSum(self.rational + Fraction(other), self.terms)

    __radd__ = __add__

    def __neg__(self):
        return SqrtSum(-self.rational, {c: -v for c, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SqrtSum):
            other = SqrtSum(Fraction(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, k) -> "SqrtSum":
        k = Fraction(k)
        return SqrtSum(self.rational * k, {c: v * k for c, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.rational and not self.terms

    def __eq__(self, other):
        # exact against a SqrtSum, a rational or a finite float; anything
        # else, strings and None among them, is left to the other operand
        if isinstance(other, Rational) or isinstance(other, float) and math.isfinite(other):
            other = SqrtSum(Fraction(other))
        elif not isinstance(other, SqrtSum):
            return NotImplemented
        return self.rational == other.rational and self.terms == other.terms

    def __hash__(self):
        # with no radical terms, as its Fraction: like the equal int or float
        return hash((self.rational, tuple(self.terms.items())) if self.terms else self.rational)

    def __float__(self):
        return float(self.rational) + math.fsum(
            float(v) * math.sqrt(c) for c, v in self.terms.items()
        )

    def _bounds(self, digits: int) -> tuple[Fraction, Fraction]:
        scale = 10**digits
        lo = hi = self.rational
        for core, coeff in self.terms.items():
            s = isqrt(core * scale * scale)
            root_lo = Fraction(s, scale)
            root_hi = Fraction(s + 1, scale)
            if coeff > 0:
                lo += coeff * root_lo
                hi += coeff * root_hi
            else:
                lo += coeff * root_hi
                hi += coeff * root_lo
        return lo, hi

    def sign(self) -> int:
        if self.is_zero():
            return 0
        digits = 30
        while True:
            lo, hi = self._bounds(digits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            digits *= 2

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        parts = [str(self.rational)] if self.rational or not self.terms else []
        parts += [f"{v}*sqrt({c})" for c, v in self.terms.items()]
        return " + ".join(parts)

