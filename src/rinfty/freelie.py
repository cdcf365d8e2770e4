"""Graded free Lie rings over Z via Hall bases, and their quotients.

The free Lie ring on r generators truncated at class c is presented by a
Hall set: bracketed words [u, v] with u > v and (u a generator or
u = [u1, u2] with u2 <= v), ordered degree-first.  Brackets of basis
words rewrite into the basis by antisymmetry and the Jacobi identity;
everything downstream (ideals, quotients, induced endomorphism towers)
is exact integer linear algebra on the per-degree coordinate lattices.

Every quotient is a quotient of this one ring by an ideal with given
homogeneous generators: the relator ideal of a surface group, and, for
the metabelian four-step truncation, that ideal plus the second derived
ideal, which through class four is spanned by the brackets of pairs of
degree-2 words.

The towers are not needed to know M_d up to similarity over Q: on the
free ring charpoly(M_d) is a product of one polynomial per partition
shape of d (``free_lie_factors``), and the surface relator is inert, so
the equivariant Labute character gives it on the orientable quotient
(``SurfaceCharacter``), both from charpoly(S) alone.  The towers and
quotients remain their test oracles.

Tables are built once and immutable afterwards; towers and quotients are
pure derivations, so per-degree work can be farmed out freely.
"""

from math import factorial, gcd, prod

from .errors import ResourceLimitError
from .intlinalg import (IntMatrix, IntPoly, _monic_from_power_sums,
                        _power_sums, partitions, shape_charpoly, shape_degree,
                        smith_normal_form)

DEFAULT_TABLE_CAP = 10 ** 7
# Newton steps (``surface_work``) of a ``SurfaceCharacter``, timed on
# ``sample --sign minus --seed 1 --length 8`` matrices: genus 4 degree 4
# (919,418) 1.2 s, genus 8 degree 3 (1.8 million) 0.8 s, genus 29 degree 2
# (2.7 million) 1.9 s; genus 9 degree 3 (3.7 million) 10 s, genus 5
# degree 4 (5.7 million) 40 s, genus 12 degree 3 (21 million) 143 s (2-core
# x86, Python 3.11).  Bits are not counted: larger entries cost more
SURFACE_WORK_CAP = 3_000_000


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
    return _surface_trace([r] * (d + 1), 0, d, 1)


def shape_multiplicity(shape):
    """L(shape) = (1/d) sum over e | gcd of mu(e) (d/e)! / prod (part/e)!."""
    d, top = sum(shape), gcd(*shape)
    return _exact_div(sum(_mobius(e) * factorial(d // e)
                          // prod(factorial(k // e) for k in shape)
                          for e in range(1, top + 1) if top % e == 0), d)


def free_lie_factors(p, d):
    """[(R_pi, L(pi))]: charpoly(M_d) = prod R_pi^L(pi) on the free Lie ring.

    M_d has eigenvalues lambda^alpha, |alpha| = d, each L(shape) times
    (Reutenauer, Free Lie Algebras, ch. 8); L = 0 is skipped."""
    pairs = ((pi, shape_multiplicity(pi)) for pi in partitions(d, p.degree))
    return [(shape_charpoly(p, pi), mult) for pi, mult in pairs if mult]


def surface_ranks(r, degree):
    """Labute's ranks {d: D_d} of the rank-r surface Lie ring, d <= degree."""
    return {d: _surface_trace([r] * (d + 1), 1, d, 1)
            for d in range(1, degree + 1)}


def surface_work(r, degree):
    """Newton steps sum D_d^2 of a rank-r ``SurfaceCharacter``."""
    return sum(x * x for x in surface_ranks(r, degree).values())


def shape_work(g, c, cap):
    """Newton steps sum deg(R_pi)^2 over the partitions pi of 1..c into at
    most g parts, counted from the partitions alone; stops past ``cap``."""
    total = 0
    for pi in (pi for d in range(1, c + 1) for pi in partitions(d, g)):
        total += shape_degree(g, pi) ** 2
        if total > cap:
            break
    return total


def check_hall_table(r, c):
    """Refuse a rank-r Hall table of class c that is invalid or over the cap."""
    if r < 1 or c < 1:
        raise ValueError("need r >= 1 and c >= 1")
    # rank 1 counts as base 2; base >= 2 passes by degree cap.bit_length()
    if max(r, 2) ** min(c, DEFAULT_TABLE_CAP.bit_length()) > DEFAULT_TABLE_CAP:
        raise ResourceLimitError(
            f"hall table for r={r}, c={c} exceeds cap {DEFAULT_TABLE_CAP}")


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


class StructureTable:
    """Hall basis of the free Lie ring on ``r`` generators up to class ``c``.

    Bracket expansions are memoized per word pair, so the table fills in
    lazily and acts as the structure-constant store.
    """

    def __init__(self, r, c):
        check_hall_table(r, c)
        self.r = r
        self.c = c
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
            level = []  # words [u, v] in (u, v) index order
            for da in range(1, d):
                for u in self._by_degree[da]:
                    for v in self._by_degree[d - da]:
                        if u.index <= v.index:
                            continue
                        if u.left is not None and u.right.index > v.index:
                            continue
                        w = HallWord(len(words), len(level), d, u, v,
                                     (u.tree, v.tree))
                        words.append(w)
                        level.append(w)
                        self._pair_word[(u.index, v.index)] = w
            self._by_degree.append(tuple(level))
            expected = witt_dimension(r, d)
            if len(level) != expected:
                raise AssertionError(
                    f"hall basis degree {d} has {len(level)} words, "
                    f"Witt predicts {expected}")

    # -- basis access --------------------------------------------------

    def dim(self, d):
        if d < 1 or d > self.c:
            return 0
        return len(self._by_degree[d])

    def dims(self):
        return [self.dim(d) for d in range(1, self.c + 1)]

    def words(self, d):
        return self._by_degree[d]

    def split(self, d, local):
        """Bracket decomposition (degree, local) pairs of a degree-d word."""
        w = self._by_degree[d][local]
        if w.left is None:
            raise ValueError("generators do not decompose")
        return (w.left.degree, w.left.local), (w.right.degree, w.right.local)

    # -- bracket rewriting ----------------------------------------------

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


def build_hall_basis(r, c):
    """Construct the Hall-basis structure table for the free Lie ring."""
    return StructureTable(r, c)


class InducedTower:
    """Degree-wise endomorphisms induced on the free Lie ring by a matrix.

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
    """Per-degree presentation of a graded Lie ring modulo a homogeneous ideal.

    ``generators`` maps a degree to the ideal generators sitting there.
    The ideal is spanned, degree by degree, by those generators plus the
    brackets of the previous degree's span with each degree-1 word; this
    suffices over Z because ad [x, y] = [ad x, ad y].  Each degree then
    carries the Smith normal form of its span matrix, from which ranks,
    torsion and the induced quotient maps are read off.
    """

    def __init__(self, ring, generators, up_to):
        if up_to > ring.c:
            raise ValueError(f"quotient degree {up_to} exceeds ring class {ring.c}")
        for d, vecs in generators.items():
            if d < 1 or d > up_to:
                raise ValueError("generator degree outside the requested range")
            if not all(vecs):
                raise ValueError("relator vector is zero")
        self.ring = ring
        self.generators = {d: [dict(v) for v in vecs]
                           for d, vecs in generators.items()}
        self.up_to = up_to
        self._data = {}

    # -- ideal spans ------------------------------------------------------

    def ideal_generators(self, d):
        """Raw spanning vectors of the degree-d ideal component."""
        return self._degree_data(d).generators

    def _generators(self, d):
        out = list(self.generators.get(d, ()))
        if d > 1:
            for vec in self._degree_data(d - 1).generators:
                for j in range(self.ring.r):
                    w = self.ring.bracket(vec, d - 1, {j: 1}, 1)
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


def ideal_quotient(table, gen_vec, up_to):
    """Quotient of the free ring by the ideal of one degree-2 vector."""
    return GradedQuotient(table, {2: [gen_vec]}, up_to)


def metabelian_truncation(quotient):
    """Metabelian four-step truncation of an orientable relator quotient.

    This is L / (I + L'') on the same free table: through class four the
    second derived ideal L'' is spanned by the brackets [u, v] of pairs of
    degree-2 Hall words u > v.
    """
    ring = quotient.ring
    if ring.c < 4:
        raise ValueError("parent class too small: need class >= 4")
    if list(quotient.generators) != [2]:
        raise ValueError("relator must sit in degree 2")
    pairs = ring.words(2)
    derived = [ring.bracket_words(u, v)
               for i, v in enumerate(pairs) for u in pairs[i + 1:]]
    return GradedQuotient(ring, {2: quotient.generators[2], 4: derived}, 4)


def _exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise AssertionError("character trace is not an integer")
    return q


def _lucas(a, b, m):
    """Lucas sequence P_m = x^m + y^m for the roots x, y of z^2 - a z + b.

    P_0 = 2, P_1 = a and P_m = a P_(m-1) - b P_(m-2).
    """
    prev, cur = 2, a
    for _ in range(m):
        prev, cur = cur, a * cur - b * prev
    return prev


def _surface_trace(t, eps, d, n):
    """tr(M_d^n) on the surface Lie ring from the power sums t[j] = tr(S^j).

    d tr(M_d^n) = sum over e | d of mu(e) P_(d/e)(t_(ne), eps^(ne)), the
    Moebius inversion of log 1/(1 - tr(S^n) t + eps^n t^2).  The free Lie
    ring is the case eps = 0, since ``_lucas(a, 0, m) = a^m`` for m >= 1: at
    S = I on r generators it is Witt's formula (``witt_dimension``).
    """
    total = sum(_mobius(e) * _lucas(t[n * e], eps ** (n * e), d // e)
                for e in range(1, d + 1) if d % e == 0)
    return _exact_div(total, d)


class SurfaceCharacter:
    """Tower charpolys of S on the orientable relator quotient.

    The surface relator is inert (Labute 1970), so over Q the enveloping
    algebra of L = L(V) / (relator) has the S-equivariant Hilbert series
    1 / (1 - tr(S) t + eps t^2), where eps = +-1 is the sign S puts on the
    relator.  That fixes every tr(M_d^n) as a polynomial in the power
    sums of charpoly(S), and Newton's identities turn the first D_d of
    them into charpoly(M_d); D_d is Labute's number, the same formula at
    S = I.  The metabelian truncation at degree 4 is L_4 / [L_2, L_2],
    and over Q [L_2, L_2] is Lambda^2 L_2.
    The quotients are torsion-free, so these are the charpolys of the
    projected integer towers, with no tower, Smith form or determinant
    built.  Degrees 1 through ``degree`` are covered; power sums are
    computed only as far as the degrees asked for.  ``check_work``, which
    ``analysis.surface_character`` runs before any arithmetic, bounds the
    Newton steps.
    """

    @staticmethod
    def check_work(r, degree):
        """Refuse a rank-r character through ``degree`` over the surface cap."""
        work = surface_work(r, degree)
        if work > SURFACE_WORK_CAP:
            raise ResourceLimitError(
                f"surface character of genus {r // 2} through degree "
                f"{degree} takes {work} Newton steps, above the surface cap "
                f"{SURFACE_WORK_CAP}")

    def __init__(self, p, eps, degree=4):
        if eps not in (1, -1):
            raise ValueError("the relator sign must be +1 or -1")
        self.p = p
        self.eps = eps
        self.ranks = surface_ranks(p.degree, degree)
        self._t = [0]
        self._charpolys = {}

    def _rank(self, d):
        if d not in self.ranks:
            raise ValueError(f"degree {d} is above the character's "
                             f"degree {len(self.ranks)}")
        return self.ranks[d]

    def _sums(self, count):
        if len(self._t) <= count:
            self._t = _power_sums(self.p, count)
        return self._t

    def trace(self, d, n):
        """tr(M_d^n) on the degree-d quotient."""
        return _surface_trace(self._sums(d * n), self.eps, d, n)

    def _from_traces(self, rank, top, trace):
        # trace(n) reads power sums up to top * n: compute them in one pass
        self._sums(top * rank)
        s = [0] + [trace(n) for n in range(1, rank + 1)]
        return IntPoly(_monic_from_power_sums(s, rank))

    def charpoly(self, d):
        """charpoly(M_d) on the degree-d relator quotient."""
        if d not in self._charpolys:
            self._charpolys[d] = self._from_traces(
                self._rank(d), d, lambda n: self.trace(d, n))
        return self._charpolys[d]

    def metabelian_charpoly(self):
        """charpoly(M_4) on the metabelian four-step truncation."""
        r2 = self._rank(2)
        return self._from_traces(
            self._rank(4) - r2 * (r2 - 1) // 2, 4,
            lambda n: self.trace(4, n) - _exact_div(
                self.trace(2, n) ** 2 - self.trace(2, 2 * n), 2))

    def det(self, d):
        """det(I - M_d) on the degree-d relator quotient."""
        return self.charpoly(d)(1)

    def metabelian_det(self):
        """det(I - M_4) on the metabelian four-step truncation."""
        return self.metabelian_charpoly()(1)


def fixed_point_dets(tower, quotient, degrees):
    """Lazily yield (d, det(I - M_d)) for each requested degree d.

    The test oracle of ``free_lie_factors`` and ``SurfaceCharacter``:
    M_d is projected onto the quotient lattice modulo torsion when a
    quotient is supplied, otherwise it acts on the free lattice.
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
