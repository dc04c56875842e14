"""Formal splitting-principle oracle for gamma operations on line bundles.

Virtual bundles are integer combinations of Laurent monomials in n line
bundles L_1..L_n, written as exponent vectors; Chern classes land in a
polynomial ring Z[t_1..t_n] truncated at a total degree, with t_j playing
c_1(L_j).  Total Chern classes come from Newton's identities on the power
sums of the Chern roots.  All arithmetic is exact over Z, so identities are
checked literally, coefficient by coefficient.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

__all__ = [
    "FormalBundle",
    "TruncatedChowPoly",
    "gamma1",
    "gamma_of_sum",
    "total_chern",
    "chern_component",
    "check_gamma1_product_chern",
    "check_gamma_chern_scaling",
    "binomial_gamma_expansion",
    "CheckOutcome",
]


class FormalBundle:
    """Z-linear combination of line-bundle monomials [L^a], a in Z^n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int] | None = None):
        self.n = n
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls, n: int) -> "FormalBundle":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "FormalBundle":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def line(cls, n: int, a) -> "FormalBundle":
        a = tuple(a)
        if len(a) != n:
            raise ValueError("exponent vector has the wrong arity")
        return cls(n, {a: 1})

    def _check(self, other: "FormalBundle") -> None:
        if self.n != other.n:
            raise ValueError("mixed arities")

    def __add__(self, other: "FormalBundle") -> "FormalBundle":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return FormalBundle(self.n, out)

    def __neg__(self) -> "FormalBundle":
        return FormalBundle(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "FormalBundle") -> "FormalBundle":
        return self + (-other)

    def __mul__(self, other: "FormalBundle") -> "FormalBundle":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                k = tuple(p + q for p, q in zip(a, b))
                out[k] = out.get(k, 0) + x * y
        return FormalBundle(self.n, out)

    def scaled(self, c: int) -> "FormalBundle":
        return FormalBundle(self.n, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalBundle)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    @property
    def rank(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        return f"FormalBundle(n={self.n}, {self.terms})"


class TruncatedChowPoly:
    """Z[t_1..t_n] truncated above a fixed total degree."""

    __slots__ = ("n", "cap", "terms")

    def __init__(self, n: int, cap: int,
                 terms: dict[tuple[int, ...], int] | None = None):
        self.n = n
        self.cap = cap
        self.terms = {
            k: v for k, v in (terms or {}).items() if v and sum(k) <= cap
        }

    @classmethod
    def one(cls, n: int, cap: int) -> "TruncatedChowPoly":
        return cls(n, cap, {(0,) * n: 1})

    @classmethod
    def linear(cls, n: int, cap: int, a) -> "TruncatedChowPoly":
        """sum_j a_j t_j for an exponent vector a."""
        a = tuple(a)
        if len(a) != n:
            raise ValueError("exponent vector has the wrong arity")
        terms = {}
        for j, c in enumerate(a):
            if c:
                terms[tuple(1 if k == j else 0 for k in range(n))] = c
        return cls(n, cap, terms)

    def _check(self, other: "TruncatedChowPoly") -> None:
        if (self.n, self.cap) != (other.n, other.cap):
            raise ValueError("mixed polynomial rings")

    def __add__(self, other: "TruncatedChowPoly") -> "TruncatedChowPoly":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TruncatedChowPoly(self.n, self.cap, out)

    def __neg__(self) -> "TruncatedChowPoly":
        return TruncatedChowPoly(
            self.n, self.cap, {k: -v for k, v in self.terms.items()}
        )

    def __sub__(self, other: "TruncatedChowPoly") -> "TruncatedChowPoly":
        return self + (-other)

    def __mul__(self, other: "TruncatedChowPoly") -> "TruncatedChowPoly":
        self._check(other)
        cap = self.cap
        right = [(b, y, sum(b)) for b, y in other.terms.items()]
        out: dict[tuple[int, ...], int] = {}
        for a, x in self.terms.items():
            room = cap - sum(a)
            for b, y, db in right:
                if db <= room:
                    k = tuple(map(operator.add, a, b))
                    out[k] = out.get(k, 0) + x * y
        return TruncatedChowPoly(self.n, cap, out)

    def scaled(self, c: int) -> "TruncatedChowPoly":
        return TruncatedChowPoly(
            self.n, self.cap, {k: c * v for k, v in self.terms.items()}
        )

    def component(self, i: int) -> dict[tuple[int, ...], int]:
        return {k: v for k, v in self.terms.items() if sum(k) == i}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedChowPoly)
            and (self.n, self.cap) == (other.n, other.cap)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"TruncatedChowPoly(n={self.n}, cap={self.cap}, {self.terms})"


# -- gamma operations ------------------------------------------------------


def gamma1(n: int, a) -> FormalBundle:
    """gamma_1 of a line class: 1 - [L^-a]."""
    a = tuple(a)
    return FormalBundle.one(n) - FormalBundle.line(n, tuple(-x for x in a))


def gamma_of_sum(n: int, lines, i: int) -> FormalBundle:
    """gamma_i of a sum of line classes: the i-th elementary symmetric
    function of their gamma_1's (zero when i exceeds the number of lines)."""
    if i < 0:
        raise ValueError("gamma degree must be >= 0")
    return _elementary(n, lines, i)[i]


def _elementary(n: int, lines, top: int) -> list[FormalBundle]:
    """e_0..e_top of the gamma_1's of the line classes, in one pass (after
    ``count`` lines, every e_k with k > count is still zero)."""
    e = [FormalBundle.one(n)] + [FormalBundle.zero(n) for _ in range(top)]
    for count, a in enumerate(lines, 1):
        item = gamma1(n, a)
        for k in range(min(top, count), 0, -1):
            e[k] = e[k] + e[k - 1] * item
    return e


def total_chern(x: FormalBundle, cap: int) -> TruncatedChowPoly:
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
    n = x.n
    p = [{} for _ in range(cap + 1)]  # p[k]: k-th power sum, homogeneous
    for a, m in x.terms.items():
        if len(a) != n:
            raise ValueError("exponent vector has the wrong arity")
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
    return _newton([TruncatedChowPoly(n, cap, pk) for pk in p])


def _newton(p: list[TruncatedChowPoly]) -> TruncatedChowPoly:
    """c_0 + ... + c_cap from power sums p[1..cap]; a division by i that
    leaves a remainder (never for an integral bundle) raises ArithmeticError."""
    n, cap = p[0].n, p[0].cap
    c = [TruncatedChowPoly.one(n, cap)]
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
        c.append(TruncatedChowPoly(n, cap, terms))
    return sum(c[1:], c[0])


def chern_component(x: FormalBundle, i: int) -> dict[tuple[int, ...], int]:
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
    x = FormalBundle.one(n)
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
    x = sum((FormalBundle.line(n, a) for a in lines), FormalBundle.zero(n))
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
    g1_k = FormalBundle.one(1)  # gamma_1(L)^k
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
