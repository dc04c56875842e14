"""Brute-force reference computations for the test suite.

Everything here favors the obvious definition over speed: exact rational
arithmetic, exhaustive enumeration, no sharing with the library's own
shortcuts.  Tests freeze values produced by these oracles or compare
library output against them directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from gammaflag import intmat
from gammaflag.formal_bundles import FormalBundle, TruncatedChowPoly
from gammaflag.rootdata import RootSystem
from gammaflag.schubert import ChowRing, SchubertClass
from gammaflag.weyl import WeylGroup


# -- exact linear algebra over Q ----------------------------------------------


def rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns only the nonzero rows."""
    rows = [list(r) for r in rows]
    out: list[list[Fraction]] = []
    width = len(rows[0]) if rows else 0
    col = 0
    pending = rows
    while pending and col < width:
        pivot = next((r for r in pending if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        pending.remove(pivot)
        inv = Fraction(1) / pivot[col]
        pivot = [x * inv for x in pivot]
        for r in pending:
            if r[col] != 0:
                c = r[col]
                for j in range(col, width):
                    r[j] -= c * pivot[j]
        for r in out:
            if r[col] != 0:
                c = r[col]
                for j in range(col, width):
                    r[j] -= c * pivot[j]
        out.append(pivot)
        col += 1
    out.sort(key=lambda r: next(j for j, x in enumerate(r) if x != 0))
    return out


def nullspace(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Canonical basis of {v : rows . v = 0} inside Q^width."""
    reduced = rref(rows) if rows else []
    pivot_cols = [next(j for j, x in enumerate(r) if x != 0) for r in reduced]
    free_cols = [j for j in range(width) if j not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for r, pc in zip(reduced, pivot_cols):
            v[pc] = -r[f]
        basis.append(v)
    return rref(basis) if basis else []


def left_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis of {c : sum_k c_k rows[k] = 0}."""
    if not rows:
        return []
    width = len(rows[0])
    transposed = [[rows[k][j] for k in range(len(rows))]
                  for j in range(width)]
    return nullspace(transposed, len(rows))


def row_spaces_equal(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    ra = rref(a) if a else []
    rb = rref(b) if b else []
    return ra == rb


def det_fraction(mat) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        out *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return out * sign


# -- mod-p subspaces with dense rows ------------------------------------------


class DenseSubspace:
    """Subspace of F_p^ambient in reduced row echelon form, with dense list
    rows: every insert reduces against every row, column by column.  The
    reference for the library's sparse SubspaceBasis."""

    def __init__(self, p: int, ambient: int):
        self.p = p
        self.ambient = ambient
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> list[int]:
        p = self.p
        v = [x % p for x in vec]
        if len(v) != self.ambient:
            raise ValueError("vector has the wrong ambient dimension")
        for row, piv in zip(self._rows, self._pivots):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def insert(self, vec) -> bool:
        """Add a vector; returns True iff the dimension grew."""
        v = self._reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, self.p)
        v = [x * inv % self.p for x in v]
        for row in self._rows:
            c = row[piv]
            if c:
                row[:] = [(a - c * b) % self.p for a, b in zip(row, v)]
        at = next(
            (k for k, q in enumerate(self._pivots) if q > piv), len(self._pivots)
        )
        self._rows.insert(at, v)
        self._pivots.insert(at, piv)
        return True

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseSubspace)
            and (self.p, self.ambient) == (other.p, other.ambient)
            and self.rows() == other.rows()
        )


def contains(sub, vec) -> bool:
    """vec lies in sub, a SubspaceBasis (vec a sequence or a sparse dict
    that reduces to zero against its rows) or a DenseSubspace."""
    if isinstance(sub, DenseSubspace):
        return sub.contains(vec)
    return not sub._reduce(vec)


def is_subspace_of(sub, other) -> bool:
    """Every row of sub lies in other (either a SubspaceBasis or a
    DenseSubspace)."""
    return all(contains(other, r) for r in sub.rows())


# -- weights, roots, lattices and matrices by their definitions --------------


def reflect(rs: RootSystem, i: int, w) -> tuple[int, ...]:
    """Simple reflection s_i acting on a weight: w - w_i * alpha_i."""
    c = w[i - 1]
    return tuple(x - c * a for x, a in zip(w, rs.simple_root(i)))


def pairing(w, root) -> int:
    """Pairing <w, alpha^vee> against a positive root's coroot."""
    return sum(x * d for x, d in zip(w, root.coroot_coords))


@lru_cache(maxsize=None)
def _positive_omega_coords(rs: RootSystem) -> frozenset:
    return frozenset(r.omega_coords for r in rs.positive_roots)


def root_sign(rs: RootSystem, omega_coords) -> int:
    """+1 / -1 for a (positive/negative) root, else raises."""
    positive = _positive_omega_coords(rs)
    if omega_coords in positive:
        return 1
    if tuple(-x for x in omega_coords) in positive:
        return -1
    raise ValueError(f"{omega_coords} is not a root")


def lattice_contains(lattice, w) -> bool:
    """w is an integer combination of the lattice's basis: its coordinates
    in that basis, solved over Q, are integers."""
    n = len(w)
    mat = [[Fraction(lattice.basis[j][i]) for j in range(n)]
           for i in range(n)]
    inv = _fraction_inverse(mat)
    return all(sum(inv[i][j] * w[j] for j in range(n)).denominator == 1
               for i in range(n))


def mat_mul_rows(a, b) -> tuple[tuple[int, ...], ...]:
    """Product of two integer matrices given as tuples of rows."""
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


# -- Schubert classes as dense vectors ----------------------------------------


def vector(chow: ChowRing, cls: SchubertClass,
           p: int | None = None) -> tuple[int, ...]:
    """Coordinates of a class against the degree-(cls.degree) basis,
    reduced mod p when p is given."""
    out = [0] * chow.basis_dim(cls.degree)
    for i, v in chow.coords(cls).items():
        out[i] = v % p if p else v
    return tuple(out)


def schubert_divisor(chow: ChowRing, i: int) -> SchubertClass:
    """The Schubert divisor sigma_{s_i}."""
    return chow.single(right_mul(chow.group, 0, i))


def extend_by_weights(chow: ChowRing, cls: SchubertClass, weights,
                      p: int | None = None) -> SchubertClass:
    """cls times c_1(L(w)) for each weight w in turn."""
    for w in weights:
        cls = chow.chevalley(cls, w, p)
    return cls


# -- coinvariant-algebra model of the Chow ring -------------------------------
#
# Over Q, products of divisor classes satisfy exactly the relations of the
# symmetric algebra on the weights modulo the ideal of positive-degree
# invariants.  This class builds that quotient directly from the reflection
# action, giving an independent check of iterated divisor products.


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in monomials(n - 1, d - first))
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            val = out.get(key, Fraction(0)) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


class CoinvariantRing:
    """Sym(weights) / (invariants of positive degree), degree by degree."""

    def __init__(self, rs: RootSystem, top: int):
        self.rs = rs
        self.top = top
        n = rs.rank
        self.n = n
        # linear substitution for each simple reflection: x_i -> s_j(omega_i)
        self._subs = []
        for j in range(1, n + 1):
            images = []
            for i in range(1, n + 1):
                w = reflect(rs, j, rs.fundamental_weight(i))
                images.append({
                    tuple(1 if k == t else 0 for k in range(n)): Fraction(c)
                    for t, c in enumerate(w) if c
                })
            self._subs.append(images)
        self._monos = {d: monomials(n, d) for d in range(0, top + 1)}
        self._pos = {d: {e: k for k, e in enumerate(self._monos[d])}
                     for d in range(0, top + 1)}
        self._inv = {d: self._invariants(d) for d in range(1, top + 1)}
        self._ideal = {d: rref(self._ideal_rows(d)) or []
                       for d in range(1, top + 1)}

    def _apply(self, j: int, poly: dict) -> dict:
        images = self._subs[j - 1]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in poly.items():
            term = {tuple(0 for _ in range(self.n)): coeff}
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = poly_mul(term, images[i])
            for k, v in term.items():
                val = out.get(k, Fraction(0)) + v
                if val:
                    out[k] = val
                elif k in out:
                    del out[k]
        return out

    def _vec(self, poly: dict, d: int) -> list[Fraction]:
        v = [Fraction(0)] * len(self._monos[d])
        for e, c in poly.items():
            v[self._pos[d][e]] = c
        return v

    def _invariants(self, d: int) -> list[dict]:
        """Basis of the W-fixed subspace of Sym^d."""
        monos = self._monos[d]
        nm = len(monos)
        constraints = []
        for j in range(1, self.n + 1):
            # column b holds the coordinates of (s_j - 1) applied to x^{e_b}
            cols = []
            for e in monos:
                moved = self._apply(j, {e: Fraction(1)})
                col = self._vec(moved, d)
                col[self._pos[d][e]] -= 1
                cols.append(col)
            constraints.extend(
                [cols[b][a] for b in range(nm)] for a in range(nm)
            )
        fixed = nullspace(constraints, nm)
        return [{monos[k]: v[k] for k in range(nm) if v[k]} for v in fixed]

    def _ideal_rows(self, m: int) -> list[list[Fraction]]:
        rows = []
        for d in range(1, m + 1):
            for f in self._inv[d]:
                for e in self._monos[m - d]:
                    rows.append(self._vec(poly_mul({e: Fraction(1)}, f), m))
        return rows

    def dim(self, m: int) -> int:
        if m == 0:
            return 1
        return len(self._monos[m]) - len(self._ideal[m])

    def reduce_divisor_monomial(self, indices) -> list[Fraction]:
        """Coordinates of h_{i_1}...h_{i_m} in Sym^m modulo the ideal."""
        m = len(indices)
        exps = [0] * self.n
        for i in indices:
            assert 1 <= i <= self.n, f"divisor index {i} is not 1-based"
            exps[i - 1] += 1
        vec = [Fraction(0)] * len(self._monos[m])
        vec[self._pos[m][tuple(exps)]] = Fraction(1)
        for r in self._ideal[m]:
            lead = next(j for j, x in enumerate(r) if x != 0)
            if vec[lead]:
                c = vec[lead]
                for j in range(lead, len(vec)):
                    vec[j] -= c * r[j]
        return vec


# -- quotient groups of the weight lattice ------------------------------------


def quotient_group_structure(cols) -> tuple[int, tuple[int, ...]]:
    """Order and sorted element orders of Z^n / (column lattice).

    Walks the quotient group itself, keying residues by the fractional
    parts of coordinates in the column basis; independent of any normal
    form computation.
    """
    n = len(cols)
    mat = [[Fraction(cols[j][i]) for j in range(n)] for i in range(n)]
    det = det_fraction(mat)
    if det == 0:
        raise ValueError("need a full-rank lattice")
    inv = _fraction_inverse(mat)

    def key(v: tuple[int, ...]) -> tuple[Fraction, ...]:
        coords = [sum(inv[i][j] * v[j] for j in range(n)) for i in range(n)]
        return tuple(c - math.floor(c) for c in coords)

    zero = tuple(0 for _ in range(n))
    seen = {key(zero): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for step in (1, -1):
                    w = tuple(x + (step if k == i else 0)
                              for k, x in enumerate(v))
                    kw = key(w)
                    if kw not in seen:
                        seen[kw] = w
                        nxt.append(w)
        frontier = nxt
    orders = sorted(
        math.lcm(*(f.denominator for f in k)) if any(k) else 1
        for k in seen
    )
    assert len(seen) == abs(int(det))
    return len(seen), tuple(orders)


def fundamental_group_by_cartan_snf(rs: RootSystem):
    """Lambda/Lambda_r from the Smith normal form U * C * V = D of the
    Cartan matrix C, whose columns are the simple roots.

    Returns (factors, class_of): the invariant factors d_i != 1, and the
    map sending a weight w to (U w)_i mod d_i at those positions.
    """
    d, u, _ = intmat.snf(rs.cartan)
    positions = [i for i in range(rs.rank) if d[i][i] != 1]

    def class_of(w) -> tuple[int, ...]:
        y = intmat.mat_vec(u, w)
        return tuple(y[i] % d[i][i] for i in positions)

    return tuple(d[i][i] for i in positions), class_of


def _fraction_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    a = [row[:] + [Fraction(int(i == r)) for i in range(n)]
         for r, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        invp = Fraction(1) / a[c][c]
        a[c] = [x * invp for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


# -- Weyl group cross-checks ---------------------------------------------------


def weyl_by_matrices(rs: RootSystem, max_length: int | None = None):
    """Breadth-first closure of W on integer action matrices.

    Elements are keyed by their flat row-major matrix on fundamental-weight
    coordinates; right multiplication by s_i rewrites column i.  Returns
    (words, lengths, index) with index mapping each matrix to its position,
    in the library's order: by length, then least reduced word.
    """
    n = rs.rank
    cart = rs.cartan
    ident = tuple(int(r == c) for r in range(n) for c in range(n))
    index = {ident: 0}
    mats = [ident]
    words: list[tuple[int, ...]] = [()]
    lengths = [0]
    frontier = [0]
    level = 0
    while frontier and (max_length is None or level < max_length):
        nxt = []
        for k in frontier:
            m = mats[k]
            for i in range(n):
                flat = list(m)
                for r in range(n):
                    flat[r * n + i] -= sum(
                        m[r * n + j] * cart[j][i] for j in range(n))
                key = tuple(flat)
                if key not in index:
                    index[key] = len(mats)
                    nxt.append(len(mats))
                    mats.append(key)
                    words.append(words[k] + (i + 1,))
                    lengths.append(level + 1)
        frontier = nxt
        level += 1
    return words, lengths, index


def mat_act(mat: tuple[int, ...], w) -> tuple[int, ...]:
    """A flat n x n matrix applied to a weight."""
    n = len(w)
    return tuple(
        sum(mat[r * n + j] * w[j] for j in range(n)) for r in range(n))


def mat_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two flat n x n matrices."""
    n = math.isqrt(len(a))
    return tuple(
        sum(a[r * n + j] * b[j * n + c] for j in range(n))
        for r in range(n) for c in range(n))


def reflection_matrix(root) -> tuple[int, ...]:
    """s_alpha = 1 - alpha (x) alpha^vee on fundamental-weight coordinates."""
    u, d = root.omega_coords, root.coroot_coords
    n = len(u)
    return tuple(
        int(r == c) - u[r] * d[c] for r in range(n) for c in range(n))


def right_mul(group: WeylGroup, k: int, i: int) -> int:
    """Index of w_k * s_i: the key (w_k s_i)^-1 rho = s_i w_k^-1 rho looked
    up in the group's key index, grown one length past w_k."""
    group.rs._check_index(i)
    group.grow(group.length(k) + 1)
    c = group.inv_rho(k)[i - 1]
    alpha = group.packer.pack(group.rs.simple_root(i))
    t = group._index.get(group._keys[k] - c * alpha)
    if t is None:
        raise ValueError(
            f"w*s_{i} has length beyond the enumerated bound "
            f"(max_length={group.max_length})"
        )
    return t


def index_of_word(group: WeylGroup, word) -> int:
    """Index of the product of the simple reflections of word, left to
    right, one right multiplication at a time."""
    k = 0
    for i in word:
        k = right_mul(group, k, i)
    return k


def act(group: WeylGroup, k: int, lam) -> tuple[int, ...]:
    """w_k(lam), through the columns w_k(omega_j) of its reduced word."""
    return columns_act(word_columns(group.rs, group.word(k), {}), lam)


def inversion_count(group: WeylGroup, k: int) -> int:
    """Positive roots sent to negative ones; the definition of length."""
    rs = group.rs
    return sum(
        root_sign(rs, act(group, k, r.omega_coords)) < 0
        for r in rs.positive_roots
    )


def word_columns(rs: RootSystem, word: tuple[int, ...],
                 memo: dict) -> tuple[tuple[int, ...], ...]:
    """The images w(omega_1), ..., w(omega_n) of the element with this
    reduced word, memoised in memo by word.  They are carried from the
    prefix: for w = u s_j only omega_j moves, to u(s_j(omega_j))."""
    cols = memo.get(word)
    if cols is None:
        if word:
            u = word_columns(rs, word[:-1], memo)
            j = word[-1]
            cols = list(u)
            cols[j - 1] = columns_act(
                u, reflect(rs, j, rs.fundamental_weight(j)))
            cols = tuple(cols)
        else:
            cols = tuple(rs.fundamental_weight(i)
                         for i in range(1, rs.rank + 1))
        memo[word] = cols
    return cols


def columns_act(cols, lam) -> tuple[int, ...]:
    """w(lam) = sum_k lam_k w(omega_k), from the columns w(omega_k)."""
    out = [0] * len(lam)
    for c, col in zip(lam, cols):
        if c:
            for r, x in enumerate(col):
                out[r] += c * x
    return tuple(out)


def _descents(rs: RootSystem, cols, alphas) -> frozenset[int]:
    return frozenset(i for i, alpha in enumerate(alphas, 1)
                     if root_sign(rs, columns_act(cols, alpha)) < 0)


def descent_set_by_roots(group: WeylGroup, k: int) -> frozenset[int]:
    """Definitional descent set: i with w(alpha_i) a negative root."""
    rs = group.rs
    alphas = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
    return _descents(rs, word_columns(rs, group.word(k), {}), alphas)


def unpacked_steinberg_walk(rs: RootSystem, max_length: int | None = None):
    """(w^-1(rho), (w(omega_1), ..., w(omega_n)), rho_w) of every element
    of W up to max_length (all of W by default), as plain tuples of ints
    with nothing packed, in the order of a BFS from the identity that
    tries the letters i in increasing order: w s_i is one
    longer exactly when coordinate i of w^-1(rho) is positive, its key is
    s_i(w^-1(rho)) and only its column i moves, to w(s_i(omega_i)).  rho_w
    is w applied to the 0/1 indicator of the negative coordinates of
    w^-1(rho)."""
    n = rs.rank
    top = len(rs.positive_roots) if max_length is None else max_length
    moved = [reflect(rs, i, rs.fundamental_weight(i))
             for i in range(1, n + 1)]
    layer = {(1,) * n: tuple(rs.fundamental_weight(i)
                             for i in range(1, n + 1))}
    for m in range(top + 1):
        nxt = {}
        for v, cols in layer.items():
            yield v, cols, columns_act(cols, [int(x < 0) for x in v])
            for i in range(1, n + 1):
                if m < top and v[i - 1] > 0:
                    y = reflect(rs, i, v)
                    if y not in nxt:
                        nxt[y] = (cols[:i - 1]
                                  + (columns_act(cols, moved[i - 1]),)
                                  + cols[i:])
        layer = nxt


@lru_cache(maxsize=None)  # per group object: about 2 s for all of E6
def steinberg_by_descent_sets(group: WeylGroup):
    """rho_w and the Brauer class of every element, from the definitions:
    D(w) from the signs of w(alpha_i), rho_w as w applied to the sum of
    omega_i over D, and the class as the sum of the omega_i classes in the
    SNF-of-Cartan chart.  w acts through its columns w(omega_k), carried
    along the prefixes of its reduced word.  Returns (rhos, classes) in
    element order, as tuples."""
    rs = group.rs
    n = rs.rank
    factors, class_of = fundamental_group_by_cartan_snf(rs)
    omega_classes = [class_of(rs.fundamental_weight(i))
                     for i in range(1, n + 1)]
    alphas = [rs.simple_root(i) for i in range(1, n + 1)]
    memo: dict = {}
    rhos, classes = [], []
    for k in range(len(group)):
        cols = word_columns(rs, group.word(k), memo)
        lam = [0] * n
        cls = (0,) * len(factors)
        for i in _descents(rs, cols, alphas):
            lam[i - 1] = 1
            cls = tuple((x + y) % d for x, y, d
                        in zip(cls, omega_classes[i - 1], factors))
        rhos.append(columns_act(cols, lam))
        classes.append(cls)
    return tuple(rhos), tuple(classes)


# -- divisor products one root pairing at a time -----------------------------


def chevalley_by_pairing(chow: ChowRing, cls: SchubertClass, lam,
                         p: int | None = None) -> SchubertClass:
    """sigma_u * c_1(L(lam)) summed over the covers u * s_alpha of every u,
    each weighted by <lam, alpha^vee> from ``pairing``, reduced mod p
    only at the end."""
    rs = chow.rs
    out: dict[int, int] = {}
    for u, cu in cls.terms.items():
        for ri, t in chow.group.covers(u):
            c = cu * pairing(lam, rs.positive_roots[ri])
            out[t] = out.get(t, 0) + c
    out = {k: v % p if p else v for k, v in out.items()}
    return SchubertClass(cls.degree + 1, {k: v for k, v in out.items() if v})


# -- restriction image without any of the library's shortcuts -----------------


def restriction_span_bruteforce(chow: ChowRing, model,
                                m: int) -> DenseSubspace:
    """Span of every generator of the degree-m image piece.

    Generators are products over multisets of parts (w, a), a >= 1 and
    total a summing to m, each part weighing binom(i_w, a) c_1(g_w)^a.
    The same element may appear in several parts: the filtration is
    multiplicative, so gamma_1(x)^2 sits in level two alongside
    gamma_2(x), and binom(i,1)^2 c^2 is a generator next to
    binom(i,2) c^2.  Exact binomials of true indices, no deduplication;
    rho_w and its class come from ``steinberg_by_descent_sets``.
    """
    p = model.p
    rhos, classes = steinberg_by_descent_sets(chow.group)
    span = DenseSubspace(p, chow.basis_dim(m))
    size = len(rhos)

    def feed(scalar: int, weights: list) -> None:
        scalar %= p
        if not scalar:
            return
        cls = chow.monomial(tuple(weights), p)
        vec = tuple(x * scalar % p for x in vector(chow, cls, p))
        span.insert(vec)

    def rec(start: int, left: int, scalar: int, weights: list) -> None:
        if left == 0:
            feed(scalar, weights)
            return
        # parts ordered by element index, elements repeatable across parts
        for w in range(start, size):
            iw = model.ind[classes[w]]
            rho = rhos[w]
            for a in range(1, left + 1):
                c = math.comb(iw, a) % p
                if c:
                    rec(w, left - a, scalar * c, weights + [rho] * a)

    rec(0, m, 1, [])
    return span


def restriction_image_unfiltered(engine, top: int):
    """Image pieces and ideals in degrees 1..top, fed as the engine fed
    them before generators were filtered in Sym^j: every deduplicated
    Steinberg key, in element order, and no early exit on a full subspace.
    rho_w and its class come from ``steinberg_by_descent_sets``.

    Returns ({m: (image subspace, pivots)}, {m: ideal subspace}).
    """
    chow, model, p = engine.chow, engine.model, engine.p
    seen = {}
    for rho, cls in zip(*steinberg_by_descent_sets(chow.group)):
        i_w = model.ind[cls]
        binoms = tuple(math.comb(i_w, j) % p
                       for j in range(1, engine.max_degree + 1))
        if any(binoms):
            seen.setdefault((tuple(x % p for x in rho), binoms), None)
    keys = list(seen)

    images = {}
    for m in range(1, top + 1):
        sub = DenseSubspace(p, chow.basis_dim(m))
        pivots = []

        def feed(scalar: int, weights: tuple) -> None:
            scalar %= p
            if not scalar:
                return
            cls = chow.monomial(weights, p)
            if cls.is_zero():
                return
            vec = tuple(x * scalar % p for x in vector(chow, cls, p))
            if sub.insert(vec):
                pivots.append((scalar, weights))

        for rho_p, binoms in keys:
            if binoms[m - 1]:
                feed(binoms[m - 1], (rho_p,) * m)
        for j in range(1, m):
            for rho_p, binoms in keys:
                if binoms[j - 1]:
                    part = (rho_p,) * j
                    for scalar, wts in images[m - j][1]:
                        feed(binoms[j - 1] * scalar,
                             tuple(sorted(wts + part)))
        images[m] = (sub, tuple(pivots))

    ideals = {}
    for m in range(1, top + 1):
        sub = DenseSubspace(p, chow.basis_dim(m))
        for row in images[m][0].rows():
            sub.insert(row)
        for j in range(1, m):
            for u in chow.basis(m - j):
                for scalar, wts in images[j][1]:
                    cls = extend_by_weights(chow, chow.single(u), wts, p)
                    sub.insert(tuple(x * scalar % p
                                     for x in vector(chow, cls, p)))
        ideals[m] = sub
    return images, ideals


# -- Sym^j spans of the restriction image's parts -----------------------------


@lru_cache(maxsize=None)
def power_coordinates(v: tuple[int, ...], j: int, p: int,
                      coords: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """(v . h)^j mod p, multiplied out one linear factor at a time, read at
    the monomials coords (sorted variable tuples); every other coefficient
    must vanish mod p."""
    poly = {(): 1}
    for _ in range(j):
        nxt: dict[tuple[int, ...], int] = {}
        for mono, c in poly.items():
            for i, x in enumerate(v):
                key = tuple(sorted(mono + (i,)))
                nxt[key] = (nxt.get(key, 0) + c * x) % p
        poly = nxt
    assert not any(c for mono, c in poly.items() if mono not in coords)
    return tuple(poly.get(mono, 0) for mono in coords)


def sym_part_span(parts, model, j: int,
                  coords: tuple[tuple[int, ...], ...]) -> DenseSubspace:
    """Span of binom(i, j) (rho . h)^j mod p over every (rho, class) pair of
    parts, i the model's index of the class: all parts of size j, none
    dropped and no early exit."""
    p = model.p
    span = DenseSubspace(p, len(coords))
    for rho, cls in parts:
        b = math.comb(model.ind[cls], j) % p
        if b:
            vec = power_coordinates(tuple(x % p for x in rho), j, p, coords)
            span.insert([b * x % p for x in vec])
    return span


@lru_cache(maxsize=None)
def sym_power_span(rows: tuple[tuple[int, ...], ...], n: int, j: int, p: int,
                   coords: tuple[tuple[int, ...], ...]) -> DenseSubspace:
    """Span of (v . h)^j over every vector v of the F_p-span of rows in
    F_p^n, each of the p^len(rows) vectors listed."""
    span = DenseSubspace(p, len(coords))
    for coeffs in product(range(p), repeat=len(rows)):
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                  for i in range(n))
        span.insert(power_coordinates(v, j, p, coords))
    return span


# -- total Chern classes as products of one factor per line ------------------


def truncated_power(f: TruncatedChowPoly, m: int) -> TruncatedChowPoly:
    """f^m for m >= 0, as m truncated products."""
    if m < 0:
        raise ValueError("negative power: invert first")
    out = TruncatedChowPoly.one(f.n, f.cap)
    for _ in range(m):
        out = out * f
    return out


def inverse_of_one_plus(f: TruncatedChowPoly) -> TruncatedChowPoly:
    """Inverse of f = 1 + u, u of positive degree, by the geometric series
    1 - u + u^2 - ... truncated at the cap."""
    one = TruncatedChowPoly.one(f.n, f.cap)
    u = f - one
    if u.terms.get((0,) * f.n):
        raise ValueError("expected constant term exactly 1")
    out = upow = one
    for _ in range(f.cap):
        upow = upow * (-u)
        out = out + upow
    return out


def total_chern_by_products(x: FormalBundle, cap: int) -> TruncatedChowPoly:
    """c(x) as the product over the terms m [L^a] of x of (1 + a.t)^m, a
    negative m going through the inverse of 1 + a.t."""
    n = x.n
    out = TruncatedChowPoly.one(n, cap)
    for a, m in sorted(x.terms.items()):
        linear = {tuple(int(k == j) for k in range(n)): c
                  for j, c in enumerate(a) if c}  # a.t
        base = TruncatedChowPoly(n, cap, {(0,) * n: 1, **linear})
        if m < 0:
            base, m = inverse_of_one_plus(base), -m
        out = out * truncated_power(base, m)
    return out
