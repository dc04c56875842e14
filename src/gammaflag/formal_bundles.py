"""Formal splitting-principle oracle for gamma operations on line bundles.

One sparse type, ``Poly``, carries both sides.  Without a cap it is a
virtual bundle: an integer combination of Laurent monomials in n line
bundles L_1..L_n, written as exponent vectors.  With a cap it is a Chern
class in Z[t_1..t_n] truncated above that total degree, with t_j playing
c_1(L_j).  Total Chern classes come from Newton's identities on the power
sums of the Chern roots.  All arithmetic is exact over Z, so identities are
checked literally, coefficient by coefficient.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

__all__ = [
    "Poly",
    "gamma1",
    "gamma_of_sum",
    "total_chern",
    "chern_component",
    "check_gamma1_product_chern",
    "check_gamma_chern_scaling",
    "binomial_gamma_expansion",
    "CheckOutcome",
]


class Poly:
    """A sparse {exponent tuple: int} in n variables, no coefficient zero.

    With ``cap`` None it is a virtual bundle, a Z-linear combination of
    line classes [L^a] in Z[Lambda], and exponents may be negative.  With
    an integer ``cap`` it is a polynomial in Z[t_1..t_n], truncated above
    total degree ``cap``.  Two Polys mix only when (n, cap) agree.
    """

    __slots__ = ("n", "terms", "cap")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int] | None = None,
                 cap: int | None = None):
        terms = terms or {}
        if terms and set(map(len, terms)) != {n}:
            raise ValueError("exponent vector has the wrong arity")
        self.n = n
        self.cap = cap
        self.terms = {k: v for k, v in terms.items()
                      if v and (cap is None or sum(k) <= cap)}

    @classmethod
    def one(cls, n: int, cap: int | None = None) -> "Poly":
        return cls(n, {(0,) * n: 1}, cap)

    @classmethod
    def line(cls, n: int, a) -> "Poly":
        return cls(n, {tuple(a): 1})

    def _check(self, other: "Poly") -> None:
        if (self.n, self.cap) != (other.n, other.cap):
            raise ValueError("mixed polynomial rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Poly(self.n, out, self.cap)

    def scaled(self, c: int) -> "Poly":
        return Poly(self.n, {k: c * v for k, v in self.terms.items()},
                    self.cap)

    def __neg__(self) -> "Poly":
        return self.scaled(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                k = tuple(map(operator.add, a, b))
                out[k] = out.get(k, 0) + x * y
        return Poly(self.n, out, self.cap)

    def component(self, i: int) -> dict[tuple[int, ...], int]:
        return {k: v for k, v in self.terms.items() if sum(k) == i}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and (self.n, self.cap) == (other.n, other.cap)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self.terms}, {self.cap})"


# -- gamma operations ------------------------------------------------------


def gamma1(n: int, a) -> Poly:
    """gamma_1 of a line class: 1 - [L^-a]."""
    return Poly.one(n) - Poly.line(n, (-x for x in a))


def gamma_of_sum(n: int, lines, i: int) -> Poly:
    """gamma_i of a sum of line classes: the i-th elementary symmetric
    function of their gamma_1's (zero when i exceeds the number of lines)."""
    if i < 0:
        raise ValueError("gamma degree must be >= 0")
    return _elementary(n, lines, i)[i]


def _elementary(n: int, lines, top: int) -> list[Poly]:
    """e_0..e_top of the gamma_1's of the line classes, in one pass (after
    ``count`` lines, every e_k with k > count is still zero)."""
    e = [Poly.one(n)] + [Poly(n) for _ in range(top)]
    for count, a in enumerate(lines, 1):
        item = gamma1(n, a)
        for k in range(min(top, count), 0, -1):
            e[k] = e[k] + e[k - 1] * item
    return e


def total_chern(x: Poly, cap: int) -> Poly:
    """Total Chern class of a virtual bundle, truncated above degree ``cap``.

    The Chern roots of x = sum_a m_a [L^a] are the linear forms a.t, with
    multiplicity m_a, so c(x) = exp(sum_k (-1)^(k-1) p_k / k) for the power
    sums p_k = sum_a m_a (a.t)^k.  Newton's identities
    i c_i = sum_{k=1..i} (-1)^(k-1) p_k c_{i-k} then give the components
    degree by degree.  The cost does not depend on the multiplicities, and
    only homogeneous pieces are ever multiplied.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if x.cap is not None:
        raise ValueError("total_chern takes a virtual bundle, with no cap")
    n = x.n
    p = [{} for _ in range(cap + 1)]  # p[k]: k-th power sum, homogeneous
    for a, m in x.terms.items():
        root = [j for j, c in enumerate(a) if c]
        power = {(0,) * n: m}  # m (a.t)^k
        for pk in p[1:]:
            nxt = {}
            for e, v in power.items():
                for j in root:
                    f = e[:j] + (e[j] + 1,) + e[j + 1:]
                    nxt[f] = nxt.get(f, 0) + v * a[j]
            power = nxt
            for e, v in power.items():
                pk[e] = pk.get(e, 0) + v
    return _newton([Poly(n, pk, cap) for pk in p])


def _newton(p: list[Poly]) -> Poly:
    """c_0 + ... + c_cap from power sums p[1..cap]; a division by i that
    leaves a remainder (never for an integral bundle) raises ArithmeticError."""
    n, cap = p[0].n, p[0].cap
    c = [Poly.one(n, cap)]
    for i in range(1, cap + 1):
        acc = {}
        for k in range(1, i + 1):
            sign = (-1) ** (k - 1)
            for e, v in (p[k] * c[i - k]).terms.items():
                acc[e] = acc.get(e, 0) + sign * v
        terms = {}
        for e, v in acc.items():
            terms[e], r = divmod(v, i)
            if r:
                raise ArithmeticError(f"inexact Newton step {i} at {e}")
        c.append(Poly(n, terms, cap))
    return sum(c[1:], c[0])


def chern_component(x: Poly, i: int) -> dict[tuple[int, ...], int]:
    return total_chern(x, i).component(i)


# -- identity checks -------------------------------------------------------


CheckOutcome = namedtuple("CheckOutcome", "label ok detail")


def check_gamma1_product_chern(i: int, n: int | None = None) -> CheckOutcome:
    """c_i of gamma_1(L_1)...gamma_1(L_i) against (-1)^(i-1) (i-1)! t_1...t_i."""
    if i < 1:
        raise ValueError("need i >= 1")
    n = i if n is None else n
    if n < i:
        raise ValueError("need at least i line bundles")
    x = Poly.one(n)
    for j in range(1, i + 1):
        x = x * gamma1(n, tuple(1 if k == j - 1 else 0 for k in range(n)))
    lhs = chern_component(x, i)
    mono = tuple(1 if k < i else 0 for k in range(n))
    sign = (-1) ** (i - 1) * math.factorial(i - 1)
    rhs = {mono: sign}
    ok = lhs == rhs
    return CheckOutcome(
        label=f"c_{i}(gamma1 x {i}) over {n} lines",
        ok=ok,
        detail=f"lhs={lhs} rhs={rhs}",
    )


def check_gamma_chern_scaling(n: int, lines, i: int) -> CheckOutcome:
    """c_i(gamma_i(x)) against (-1)^(i-1) (i-1)! c_i(x) for an honest sum x.

    ``lines`` is a list of exponent vectors, repeats encoding multiplicity.
    """
    if i < 1:
        raise ValueError("need i >= 1")
    lines = [tuple(a) for a in lines]
    g = gamma_of_sum(n, lines, i)
    lhs = chern_component(g, i)
    x = sum((Poly.line(n, a) for a in lines), Poly(n))
    sign = (-1) ** (i - 1) * math.factorial(i - 1)
    rhs = {k: sign * v for k, v in chern_component(x, i).items()}
    ok = lhs == rhs
    return CheckOutcome(
        label=f"c_{i}(gamma_{i}) on {len(lines)} lines",
        ok=ok,
        detail=f"lhs={lhs} rhs={rhs}",
    )


def binomial_gamma_expansion(mult: int) -> list[int]:
    """Total gamma class of the mult-fold sum of one line bundle.

    gamma_k of L + ... + L (mult copies) equals binom(mult, k) gamma_1(L)^k;
    both sides are computed in the formal ring and compared before the
    binomial coefficients are returned (k = 0..mult).
    """
    if mult < 0:
        raise ValueError("multiplicity must be >= 0")
    g1 = gamma1(1, (1,))
    g1_k = Poly.one(1)  # gamma_1(L)^k
    out = []
    for k, e_k in enumerate(_elementary(1, [(1,)] * mult, mult)):
        b = math.comb(mult, k)
        if e_k != g1_k.scaled(b):
            raise AssertionError(
                f"gamma expansion mismatch at k={k} for multiplicity {mult}"
            )
        out.append(b)
        g1_k = g1_k * g1
    return out
