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
from math import isqrt


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*c with c squarefree; returns (s, c)."""
    if n <= 0:
        raise ValueError("positive integers only")
    from sympy import factorint

    s, c = 1, 1
    for p, e in factorint(n).items():
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
        if not isinstance(other, SqrtSum):
            other = SqrtSum(Fraction(other))
        return self.rational == other.rational and self.terms == other.terms

    def __hash__(self):
        return hash((self.rational, tuple(self.terms.items())))

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


# -- exact planar hull ------------------------------------------------------


def cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Strict convex hull, counterclockwise, lexicographically smallest first.

    Collinear boundary points are dropped, so the result is exactly the set
    of extreme points.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def upper_right_chain(points):
    """Extreme points from the rightmost point to the topmost, walking the
    outside of the hull; x strictly decreases and y strictly increases along
    the result.
    """
    hull = convex_hull(points)
    if len(hull) == 1:
        return hull
    rightmost = max(hull, key=lambda p: (p[0], p[1]))
    topmost = max(hull, key=lambda p: (p[1], p[0]))
    i = hull.index(rightmost)
    out = [hull[i]]
    while hull[i % len(hull)] != topmost:
        i += 1
        out.append(hull[i % len(hull)])
    return out
