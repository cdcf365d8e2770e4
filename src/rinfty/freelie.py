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
shape of d, as is charpoly(Sym^i S), and the inert surface relator
makes charpoly(M_d) on the orientable quotient a quotient of those
factors and their sign twists.  ``ShapeCharacter`` holds all three over
charpoly(S) alone; it is the one place that reads det(I - M) and the
multiplicity of eigenvalue 1 off each factor's (x - 1)-adic valuation.
The towers and quotients are its test oracles.

Tables are built once and immutable afterwards; towers and quotients are
pure derivations, so per-degree work can be farmed out freely.
"""

from functools import cache
from math import factorial, gcd, prod

from .errors import ResourceLimitError
from .intlinalg import (IntMatrix, IntPoly, _ShapeKernel, partitions,
                        shape_degree, smith_normal_form, split_at_one)

DEFAULT_TABLE_CAP = 10 ** 7
# Newton steps (``shape_work``) of a ``ShapeCharacter``.  Fresh process,
# degree 4 on the witness and on a ``sample --sign minus --length 8`` matrix
# free of eigenvalue 1 below degree 4: genus 5 (208,750) 0.08 and 0.05 s,
# genus 6 (773,161) 0.34 and 0.22 s, genus 7 (2.4 million) 2.2 and 1.4 s;
# genus 11 degree 3 and genus 29 degree 2 (2.6 and 2.7 million) 1.5 s;
# refused: genus 8 degree 4 (6.6 million) 15 s, genus 12 degree 3 4.6 s,
# genus 35 degree 2 6.5 s (2-core x86, Python 3.11).  Bits are not
# counted: larger entries cost more
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
    """Rank of degree d of the free Lie ring on r generators (Witt)."""
    return _exact_div(sum(_mobius(e) * r ** (d // e)
                          for e in range(1, d + 1) if d % e == 0), d)


def shape_multiplicity(shape):
    """L(shape) = (1/d) sum over e | gcd of mu(e) (d/e)! / prod (part/e)!."""
    d, top = sum(shape), gcd(*shape)
    return _exact_div(sum(_mobius(e) * factorial(d // e)
                          // prod(factorial(k // e) for k in shape)
                          for e in range(1, top + 1) if top % e == 0), d)


@cache
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
        cur = acc.get(k)
        nv = scale * v if cur is None else cur + scale * v
        if nv:
            acc[k] = nv
        elif cur is not None:
            del acc[k]
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
        raise AssertionError("division is not exact")
    return q


def _exact_quotient(num, den):
    """num / den for monic den; the remainder must be zero."""
    r, n = list(num.coeffs), den.degree
    for i in reversed(range(len(r) - n)):  # r[i + n] is quotient coefficient i
        for j, b in enumerate(den.coeffs[:-1]):
            r[i + j] -= r[i + n] * b
    if any(r[:n]):
        raise AssertionError("polynomial division is not exact")
    return IntPoly(r[n:])


# (shape, twisted, exponent) of L_d over free L_d, see ``ShapeCharacter``
_RELATOR_FACTORS = {
    1: (), 2: (((), True, -1),), 3: (((1,), True, -1),),
    4: (((2,), True, -1), ((1, 1), True, -2), ((), False, 1)),
    "metabelian": (((2, 1, 1), False, -1), ((1, 1, 1, 1), False, -3),
                   ((2,), True, -1), ((1, 1), True, -1)),
}


@cache
def _shape_factors(kind, r, key):
    """(rank, ((shape, twisted, e), ...)) of ``key`` of ``kind`` over rank r:
    its charpoly is prod F^e, see ``ShapeCharacter``."""
    pis = partitions(4 if key == "metabelian" else key, r)
    factors = tuple((pi, False, e) for pi in pis if (
        e := 1 if kind == "sym" else shape_multiplicity(pi)))
    factors += _RELATOR_FACTORS[key] if kind == "surface" else ()
    return sum(e * shape_degree(r, pi) for pi, _, e in factors), factors


class ShapeCharacter:
    """Spectra over p = charpoly(S) as products of partition-shape factors.

    Per degree key, each ``kind`` caches a list ((shape, twisted, e), ...)
    meaning prod F^e, F = R_shape (``intlinalg.shape_charpoly``) or its
    sign twist: "free" is M_d on the free Lie ring, prod R_pi^L(pi)
    (Reutenauer, Free Lie Algebras, ch. 8); "sym" is Sym^i S, prod R_pi
    over the partitions of i; "surface" is M_d on the orientable relator
    quotient, keys 1..4 and "metabelian", eps = +-1 the sign S puts on the
    relator.  That relator is inert (Labute 1970), so over Q the enveloping
    algebra of L = L(V) / (relator) has the S-equivariant Hilbert series
    1 / (1 - ch(V) t + eps t^2).  So ch(L_d) = (1/d) sum over e | d of
    mu(e) P_(d/e)(p_e, eps^e), P_m the Lucas sequence; with Lambda^2 (A -
    eps) = Lambda^2 A - eps A + 1:
      L_2 = Lambda^2 V - eps,   L_3 = free L_3 - eps V,
      L_4 = free L_4 - eps V (x) V + 1,   V (x) V = R_(2) R_(1,1)^2,
      metabelian L_4 / [L_2, L_2] = L_4 - Lambda^2 L_2
        = free L_4 - Lambda^2 Lambda^2 V - eps Sym^2 V
        = free L_4 / (R_(2,1,1) R_(1,1,1,1)^3 eps R_(2) eps R_(1,1)).
    Here 1 = R_() = x - 1 and eps A has charpoly eps^n q(eps x), q =
    charpoly(A).  The quotients are torsion-free, so these are the
    charpolys of the projected integer towers; ``ranks`` are their degrees
    (Labute's D_d).  ``split`` writes each F as (x - 1)^v G, G(1) != 0:
    the multiplicity of eigenvalue 1 is the exponent-weighted sum of v,
    and det(I - M) is 0 if it is positive, prod G(1)^e otherwise.  Only
    ``charpoly`` multiplies polynomials.  One list of power sums of p
    serves every shape, built only for the keys asked for, once the caller
    has bounded their Newton steps (``check_work`` on the surface).
    """

    @staticmethod
    def check_work(r, degree):
        """Refuse a rank-r character through ``degree`` over the surface cap."""
        work = shape_work(r, degree, SURFACE_WORK_CAP)
        if work > SURFACE_WORK_CAP:
            raise ResourceLimitError(
                f"surface character of genus {r // 2} through degree "
                f"{degree} takes at least {work} Newton steps, above the "
                f"surface cap {SURFACE_WORK_CAP}")

    def __init__(self, p, kind, degree, eps=1):
        if eps not in (1, -1):
            raise ValueError("the relator sign must be +1 or -1")
        self.p, self.kind, self.eps = p, kind, eps
        self.ranks = {d: _shape_factors(kind, p.degree, d)[0]
                      for d in range(1, degree + 1)}
        self._kernel = _ShapeKernel(p)
        self._shapes, self._splits, self._charpolys = {}, {}, {}

    def _factors(self, key):
        """[(shape, twisted, e)]: the charpoly of ``key`` is prod F^e."""
        d = 4 if key == "metabelian" and self.kind == "surface" else key
        if d not in self.ranks:
            raise ValueError(f"degree {d} is above the character's "
                             f"degree {len(self.ranks)}")
        return _shape_factors(self.kind, self.p.degree, key)[1]

    def _factor(self, shape, twisted):
        if shape not in self._shapes:
            self._shapes[shape] = self._kernel(shape)
        f = self._shapes[shape]
        if twisted and self.eps == -1:
            f = IntPoly(-c if (f.degree - j) % 2 else c
                        for j, c in enumerate(f.coeffs))
        return f

    def split(self, key):
        """(multiplicity of eigenvalue 1, det(I - M)) of ``key``."""
        if key not in self._splits:
            splits = [(split_at_one(self._factor(shape, twisted)), e)
                      for shape, twisted, e in self._factors(key)]
            order = sum(v * e for (v, _), e in splits)
            if order < 0:
                raise AssertionError("the character has a pole at x = 1")
            self._splits[key] = order, 0 if order else _exact_div(
                prod(at ** e for (_, at), e in splits if e > 0),
                prod(at ** -e for (_, at), e in splits if e < 0))
        return self._splits[key]

    def det(self, key):
        """det(I - M) of ``key``."""
        return self.split(key)[1]

    def charpoly(self, key):
        """charpoly(M) of ``key``: the exact product and quotient."""
        if key not in self._charpolys:
            factors = [(self._factor(shape, twisted), e)
                       for shape, twisted, e in self._factors(key)]
            q = prod((f ** e for f, e in factors if e > 0),
                     start=IntPoly.one())
            for f, e in factors:
                for _ in range(-e):
                    q = _exact_quotient(q, f)
            self._charpolys[key] = q
        return self._charpolys[key]

