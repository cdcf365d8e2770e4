"""Graded free Lie rings over Z via Hall bases, and their relator quotients.

The free Lie ring on r generators truncated at class c is presented by a
Hall set: bracketed words [u, v] with u > v and (u a generator or
u = [u1, u2] with u2 <= v), ordered degree-first.  Brackets of basis
words rewrite into the basis by antisymmetry and the Jacobi identity;
everything downstream (ideals, quotients, induced endomorphism towers)
is exact integer linear algebra on the per-degree coordinate lattices.

A parallel table implements the free metabelian ring truncated at class
four, whose basis is the left-normed words (i1, i2, i3, ..., ik) with
i1 > i2 <= i3 <= ... <= ik; its degree >= 4 rewriting uses the identity
[[w, x], y] = [[w, y], x] valid once w lies in the derived subring.

Tables are built once and immutable afterwards; towers and quotients are
pure derivations, so per-degree work can be farmed out freely.
"""

from .errors import ResourceLimitError
from .intlinalg import IntMatrix, smith_normal_form

DEFAULT_TABLE_CAP = 10 ** 7

HALL_ORDERS = ("lex", "alt")


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(r, d):
    """Rank of degree d of the free Lie ring on r generators."""
    total = 0
    e = 1
    while e <= d:
        if d % e == 0:
            total += _mobius(e) * r ** (d // e)
        e += 1
    assert total % d == 0
    return total // d


def _vec_add(acc, vec, scale=1):
    for k, v in vec.items():
        nv = acc.get(k, 0) + scale * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


class HallWord:
    """One Hall basis word: a generator or a bracket of two earlier words."""

    __slots__ = ("index", "local", "degree", "left", "right", "tree")

    def __init__(self, index, local, degree, left, right, tree):
        self.index = index
        self.local = local
        self.degree = degree
        self.left = left
        self.right = right
        self.tree = tree

    def __repr__(self):
        return f"HallWord({self.tree!r})"


class _GradedLieRing:
    """Per-degree bases plus the bilinear bracket built on ``bracket_words``.

    Subclasses set ``c`` and ``_by_degree`` (degree -> tuple of words) and
    define ``bracket_words`` on single basis words.
    """

    def dim(self, d):
        if d < 1 or d > self.c:
            return 0
        return len(self._by_degree[d])

    def dims(self):
        return [self.dim(d) for d in range(1, self.c + 1)]

    def words(self, d):
        return self._by_degree[d]

    def bracket(self, va, da, vb, db):
        """Bilinear bracket of coordinate vectors (dicts local -> coeff)."""
        if da + db > self.c:
            return {}
        out = {}
        words_a = self._by_degree[da]
        words_b = self._by_degree[db]
        for ia, ca in va.items():
            wa = words_a[ia]
            for ib, cb in vb.items():
                expansion = self.bracket_words(wa, words_b[ib])
                if expansion:
                    _vec_add(out, expansion, ca * cb)
        return out


class StructureTable(_GradedLieRing):
    """Hall basis of the free Lie ring on ``r`` generators up to class ``c``.

    Bracket expansions are memoized per word pair, so the table fills in
    lazily and acts as the structure-constant store.
    """

    def __init__(self, r, c, order="lex", max_size=DEFAULT_TABLE_CAP):
        if r < 1 or c < 1:
            raise ValueError("need r >= 1 and c >= 1")
        if order not in HALL_ORDERS:
            raise ValueError(f"unknown hall order {order!r}")
        if r ** c > max_size:
            raise ResourceLimitError(
                f"hall table for r={r}, c={c} exceeds cap {max_size}")
        self.r = r
        self.c = c
        self.order = order
        self._by_degree = [()]  # degree 0 placeholder
        self._pair_word = {}
        self._memo = {}
        words = []
        gens = []
        for i in range(r):
            w = HallWord(len(words), i, 1, None, None, i)
            words.append(w)
            gens.append(w)
        self._by_degree.append(tuple(gens))
        for d in range(2, c + 1):
            cands = []
            for da in range(1, d):
                db = d - da
                for u in self._by_degree[da]:
                    for v in self._by_degree[db]:
                        if u.index <= v.index:
                            continue
                        if u.left is not None and u.right.index > v.index:
                            continue
                        cands.append((u, v))
            if order == "lex":
                cands.sort(key=lambda uv: (uv[0].index, uv[1].index))
            else:
                cands.sort(key=lambda uv: (uv[1].index, uv[0].index))
            level = []
            for u, v in cands:
                w = HallWord(len(words), len(level), d, u, v, (u.tree, v.tree))
                words.append(w)
                level.append(w)
                self._pair_word[(u.index, v.index)] = w
            self._by_degree.append(tuple(level))
            expected = witt_dimension(r, d)
            if len(level) != expected:
                raise AssertionError(
                    f"hall basis degree {d} has {len(level)} words, "
                    f"Witt predicts {expected}")
        self._words = tuple(words)

    # -- basis access --------------------------------------------------

    def split(self, d, local):
        """Bracket decomposition (degree, local) pairs of a degree-d word."""
        w = self._by_degree[d][local]
        if w.left is None:
            raise ValueError("generators do not decompose")
        return (w.left.degree, w.left.local), (w.right.degree, w.right.local)

    # -- bracket rewriting ----------------------------------------------

    def bracket_words(self, wa, wb):
        key = (wa.index, wb.index)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if wa.index == wb.index:
            res = {}
        elif wa.index < wb.index:
            res = {k: -v for k, v in self.bracket_words(wb, wa).items()}
        elif wa.degree + wb.degree > self.c:
            res = {}
        elif wa.left is None or wa.right.index <= wb.index:
            res = {self._pair_word[key].local: 1}
        else:
            # wa = [u1, u2] with u2 > wb: Jacobi
            # [wa, wb] = [[u1, wb], u2] + [u1, [u2, wb]]
            u1, u2 = wa.left, wa.right
            t1 = self.bracket(self.bracket_words(u1, wb),
                              u1.degree + wb.degree,
                              {u2.local: 1}, u2.degree)
            t2 = self.bracket({u1.local: 1}, u1.degree,
                              self.bracket_words(u2, wb),
                              u2.degree + wb.degree)
            res = _vec_add(dict(t1), t2)
        self._memo[key] = res
        return res


class MetabelianTable(_GradedLieRing):
    """Free metabelian Lie ring on ``r`` generators truncated at class ``c``.

    Basis words are index tuples (i1, i2, ..., ik), k = degree, with
    i1 > i2 <= i3 <= ... <= ik, meaning the left-normed bracket
    [[x_i1, x_i2], x_i3, ..., x_ik].
    """

    def __init__(self, r, c=4):
        if r < 1 or c < 2:
            raise ValueError("need r >= 1 and c >= 2")
        self.r = r
        self.c = c
        by_degree = [(), tuple((i,) for i in range(r))]
        for d in range(2, c + 1):
            level = []
            for i2 in range(r):
                for i1 in range(i2 + 1, r):
                    level.extend((i1, i2) + tail
                                 for tail in _sorted_tuples(i2, r, d - 2))
            by_degree.append(tuple(level))
        self._by_degree = by_degree
        self._index = [dict() for _ in range(c + 1)]
        for d in range(1, c + 1):
            self._index[d] = {w: i for i, w in enumerate(by_degree[d])}

    def index(self, d, word):
        return self._index[d][word]

    def split(self, d, local):
        w = self._by_degree[d][local]
        if d == 2:
            return (1, w[0]), (1, w[1])
        return (d - 1, self._index[d - 1][w[:-1]]), (1, w[-1])

    def _bracket_word_gen(self, w, j):
        """[w, x_j] for a basis word w of degree >= 2, as local-index vector."""
        d = len(w) + 1
        if d > self.c:
            return {}
        i1, i2, tail = w[0], w[1], w[2:]
        if j >= i2:
            new = (i1, i2) + tuple(sorted(tail + (j,)))
            return {self._index[d][new]: 1}
        first = (i1, j) + tuple(sorted(tail + (i2,)))
        second = (i2, j) + tuple(sorted(tail + (i1,)))
        out = {self._index[d][first]: 1}
        _vec_add(out, {self._index[d][second]: -1})
        return out

    def bracket_words(self, wa, wb):
        da, db = len(wa), len(wb)
        if da + db > self.c:
            return {}
        if da >= 2 and db >= 2:
            return {}
        if da == 1 and db == 1:
            a, b = wa[0], wb[0]
            if a == b:
                return {}
            if a > b:
                return {self._index[2][(a, b)]: 1}
            return {self._index[2][(b, a)]: -1}
        if db == 1:
            return self._bracket_word_gen(wa, wb[0])
        return {k: -v for k, v in self._bracket_word_gen(wb, wa[0]).items()}


def _sorted_tuples(lo, hi, length):
    """Weakly increasing tuples of the given length with entries in [lo, hi)."""
    if length == 0:
        yield ()
        return
    for first in range(lo, hi):
        for rest in _sorted_tuples(first, hi, length - 1):
            yield (first,) + rest


def build_hall_basis(r, c, order="lex", max_size=DEFAULT_TABLE_CAP):
    """Construct the Hall-basis structure table for the free Lie ring."""
    return StructureTable(r, c, order=order, max_size=max_size)


class InducedTower:
    """Degree-wise endomorphisms induced on a graded Lie ring by a matrix.

    The degree-1 action is the matrix itself; the degree-d action sends a
    basis word [u, v] to the bracket of the images of u and v, so the
    whole tower is the functorial extension of the base matrix.
    """

    def __init__(self, ring, base):
        if not isinstance(base, IntMatrix):
            base = IntMatrix(base)
        if base.rows != base.cols or base.rows != ring.r:
            raise ValueError(
                f"base matrix must be {ring.r}x{ring.r}, got {base.rows}x{base.cols}")
        self.ring = ring
        self.base = base
        self._mats = {1: base}

    def matrix(self, d):
        if d < 1 or d > self.ring.c:
            raise ValueError(f"degree {d} outside 1..{self.ring.c}")
        cached = self._mats.get(d)
        if cached is not None:
            return cached
        ring = self.ring
        n = ring.dim(d)
        cols = []
        for local in range(n):
            (da, ia), (db, ib) = ring.split(d, local)
            va = self._column(da, ia)
            vb = self._column(db, ib)
            cols.append(ring.bracket(va, da, vb, db))
        rows = [[0] * n for _ in range(n)]
        for j, col in enumerate(cols):
            for i, val in col.items():
                rows[i][j] = val
        mat = IntMatrix(rows)
        self._mats[d] = mat
        return mat

    def _column(self, d, local):
        m = self.matrix(d)
        return {i: m[i, local] for i in range(m.rows) if m[i, local]}


def induced_tower(ring, base):
    """Functorial tower of a degree-1 matrix over a structure table."""
    return InducedTower(ring, base)


class _DegreeData:
    __slots__ = ("generators", "snf", "rank", "quotient_rank")

    def __init__(self, generators, snf, dim):
        self.generators = generators
        self.snf = snf
        self.rank = snf.rank
        self.quotient_rank = dim - snf.rank


class GradedQuotient:
    """Per-degree presentation of a graded Lie ring modulo a relator ideal.

    The ideal generated by a homogeneous vector is spanned, degree by
    degree, by brackets of earlier spans with degree-1 (and degree-2)
    basis words; each degree then carries the Smith normal form of its
    span matrix, from which ranks, torsion and the induced quotient maps
    are read off.
    """

    def __init__(self, ring, gen_vec, gen_degree, up_to,
                 is_metabelian_truncation=False):
        if gen_degree < 1 or gen_degree > up_to:
            raise ValueError("generator degree outside the requested range")
        if up_to > ring.c:
            raise ValueError(f"quotient degree {up_to} exceeds ring class {ring.c}")
        if not gen_vec:
            raise ValueError("relator vector is zero")
        self.ring = ring
        self.gen_vec = dict(gen_vec)
        self.gen_degree = gen_degree
        self.up_to = up_to
        self.is_metabelian_truncation = is_metabelian_truncation
        self._data = {}

    # -- ideal spans ------------------------------------------------------

    def ideal_generators(self, d):
        """Raw spanning vectors of the degree-d ideal component."""
        return self._degree_data(d).generators

    def _generators(self, d):
        if d < self.gen_degree:
            return []
        if d == self.gen_degree:
            return [dict(self.gen_vec)]
        ring = self.ring
        out = []
        if self.is_metabelian_truncation:
            # symmetric tails: [[..[r, e_{j1}], ..], e_{jk}] with j1 <= ... <= jk
            for tail in _sorted_tuples(0, ring.r, d - self.gen_degree):
                vec = dict(self.gen_vec)
                deg = self.gen_degree
                for j in tail:
                    vec = ring.bracket(vec, deg, {j: 1}, 1)
                    deg += 1
                if vec:
                    out.append(vec)
            return out
        for vec in self._degree_data(d - 1).generators:
            for j in range(ring.dim(1)):
                w = ring.bracket(vec, d - 1, {j: 1}, 1)
                if w:
                    out.append(w)
        if d - 2 >= self.gen_degree and ring.dim(2):
            for vec in self._degree_data(d - 2).generators:
                for j in range(ring.dim(2)):
                    w = ring.bracket(vec, d - 2, {j: 1}, 2)
                    if w:
                        out.append(w)
        return out

    def _degree_data(self, d):
        if d < 1 or d > self.up_to:
            raise ValueError(f"degree {d} outside 1..{self.up_to}")
        data = self._data.get(d)
        if data is None:
            gens = self._generators(d)
            n = self.ring.dim(d)
            cols = [[vec.get(i, 0) for vec in gens] for i in range(n)]
            snf = smith_normal_form(IntMatrix(cols))
            data = _DegreeData(gens, snf, n)
            self._data[d] = data
        return data

    # -- quotient queries ---------------------------------------------------

    def snf(self, d):
        return self._degree_data(d).snf

    def rank(self, d):
        """Rank of the degree-d quotient lattice (torsion discarded)."""
        return self._degree_data(d).quotient_rank

    def invariant_factors(self, d):
        return self._degree_data(d).snf.diagonal

    def torsion_free(self, d):
        return all(x in (0, 1) for x in self.invariant_factors(d))

    def project(self, mat, d):
        """Induce a degree-d endomorphism on the quotient modulo torsion.

        In Smith coordinates the saturated ideal occupies the first
        ``rank`` slots, so the induced map is the complementary diagonal
        block; the off-block must vanish or the ideal was not invariant.
        """
        data = self._degree_data(d)
        s = data.rank
        u = data.snf.u
        u_inv = data.snf.u_inv
        n = u.rows
        if mat.rows != n or mat.cols != n:
            raise ValueError("matrix does not act on this degree")
        if s == n:
            return IntMatrix([])  # the ideal fills the degree: no off-block
        w = IntMatrix(u.entries[s:]) @ mat
        wu = w @ u_inv
        for i in range(n - s):
            for j in range(s):
                if wu[i, j] != 0:
                    raise ValueError("ideal is not invariant under the matrix")
        return IntMatrix([row[s:] for row in wu.entries])


# ---------------------------------------------------------------------------
# surface-specific constructions
# ---------------------------------------------------------------------------

def orientable_relator(g, table):
    """Degree-2 vector of sum_l [a_l, b_l] with generators a_1 b_1 a_2 b_2 ...

    Generator 2l is a_{l+1} and generator 2l+1 is b_{l+1}; the Hall basis
    word is [b, a], so each summand contributes coefficient -1 there.
    """
    if table.r != 2 * g:
        raise ValueError(f"table has rank {table.r}, need {2 * g}")
    if table.c < 2:
        raise ValueError("table class must be at least 2")
    vec = {}
    gens = table.words(1)
    for l in range(g):
        term = table.bracket_words(gens[2 * l], gens[2 * l + 1])
        _vec_add(vec, term)
    return vec


def ideal_quotient(table, gen_vec, up_to, gen_degree=2):
    """Quotient of the free ring by the ideal generated by one homogeneous vector."""
    return GradedQuotient(table, gen_vec, gen_degree, up_to)


def metabelian_truncation(quotient):
    """Metabelian four-step truncation of an orientable relator quotient."""
    ring = quotient.ring
    if not isinstance(ring, StructureTable):
        raise ValueError("metabelian truncation expects a free-ring quotient")
    if ring.c < 4:
        raise ValueError("parent class too small: need class >= 4")
    if quotient.gen_degree != 2:
        raise ValueError("relator must sit in degree 2")
    met = MetabelianTable(ring.r, 4)
    vec = {}
    for local, coeff in quotient.gen_vec.items():
        word = ring.words(2)[local]
        pair = (word.left.tree, word.right.tree)
        vec[met.index(2, pair)] = coeff
    return GradedQuotient(met, vec, 2, 4, is_metabelian_truncation=True)


def fixed_point_dets(tower, quotient, degrees):
    """Lazily yield (d, det(I - M_d)) for each requested degree d.

    This is the one zero test behind every eigenvalue-1 verdict: M_d is
    projected onto the quotient lattice modulo torsion when a quotient is
    supplied, otherwise it acts on the free per-degree lattice.
    """
    for d in degrees:
        mat = tower.matrix(d)
        if quotient is not None:
            mat = quotient.project(mat, d)
        yield d, (IntMatrix.identity(mat.rows) - mat).det()


def eigenvalue_one_first_degree(tower, quotient, c):
    """Smallest degree i <= c where det(I - M_i) vanishes, or None."""
    return next((d for d, det in fixed_point_dets(tower, quotient,
                                                  range(1, c + 1))
                 if det == 0), None)


def apply_matrix_to_vector(mat, vec):
    """Image of a sparse coordinate vector under a dense degree matrix."""
    out = {}
    for j, coeff in vec.items():
        for i in range(mat.rows):
            val = mat[i, j]
            if val:
                out[i] = out.get(i, 0) + coeff * val
    return {k: v for k, v in out.items() if v}
