"""Tower-side oracles for the verdict layer, used only by the tests.

The verdicts read every charpoly off ``ShapeCharacter`` and the
partition-shape kernel; these helpers rebuild the same facts from Hall
tables, induced towers and relator quotients, so the tests can compare
the two.  ``fixed_point_dets`` takes det(I - M_d) of the towers,
projected onto a quotient when one is given, and
``eigenvalue_one_first_degree`` reads the first zero off them; the
package itself reads those dets off ``ShapeCharacter``.
``LabuteCharacter`` and ``recursive_shape_charpoly`` are the earlier
power-sum routes to the same charpolys: the trace formula with Lucas
sequences, and the augmented monomial rebuilt by recursion for every
power.  ``dense_sample_admissible`` and ``dense_admissibility``
are the sampler and classifier of the verdict layer written with matrix
products: a product of n x n transvection matrices, and (S Omega) S^T
compared with +-Omega.
"""

from math import perm, prod

from rinfty.analysis import _seeded_rng, admissibility, omega
from rinfty.freelie import (_exact_div, _mobius, build_hall_basis,
                            ideal_quotient, induced_tower,
                            metabelian_truncation, orientable_relator)
from rinfty.intlinalg import (IntMatrix, IntPoly, _monic_from_power_sums,
                              _power_sums, _require_monic, _unit_reversal,
                              partitions, shape_charpoly, shape_degree)


def _augmented(shape, ps, memo):
    """sum over distinct i_j of prod lambda_(i_j)^(shape_j), from ps(k) = p_k,
    by a(a, rest) = p_a a(rest) - sum_j a(rest with a added to part j)."""
    if shape not in memo:
        a, rest = shape[0], shape[1:]
        merged = (rest[:j] + (rest[j] + a,) + rest[j + 1:]
                  for j in range(len(rest)))
        memo[shape] = ps(a) * _augmented(rest, ps, memo) - sum(
            _augmented(tuple(sorted(m, reverse=True)), ps, memo)
            for m in merged)
    return memo[shape]


def recursive_shape_charpoly(p, shape):
    """``shape_charpoly`` with the augmented monomial rebuilt by recursion,
    with a fresh memo, for every power sum n."""
    _require_monic(p)
    a = p.coeffs
    if len(a) > 2 and a[0] in (1, -1) and abs(a[1]) < abs(a[-2]):
        return _unit_reversal(recursive_shape_charpoly(_unit_reversal(p),
                                                       shape))
    size = shape_degree(p.degree, shape)
    if not size:
        return IntPoly.one()
    s = _power_sums(p, size * sum(shape))
    sums = [_augmented(tuple(shape), lambda k: s[k * n], {(): 1})
            // (perm(p.degree, len(shape)) // size) for n in range(size + 1)]
    return IntPoly(_monic_from_power_sums(sums, size))


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
    Moebius inversion of log 1/(1 - tr(S^n) t + eps^n t^2).
    """
    total = sum(_mobius(e) * _lucas(t[n * e], eps ** (n * e), d // e)
                for e in range(1, d + 1) if d % e == 0)
    return _exact_div(total, d)


class LabuteCharacter:
    """The surface ``ShapeCharacter`` from the traces: Labute's formula
    gives every tr(M_d^n) from the power sums of charpoly(S), and Newton's
    identities turn the first D_d of them into charpoly(M_d); D_d is the
    same formula at S = I.  The metabelian truncation removes Lambda^2
    L_2."""

    def __init__(self, p, eps, degree=4):
        self.p = p
        self.eps = eps
        self.ranks = {d: _surface_trace([p.degree] * (d + 1), 1, d, 1)
                      for d in range(1, degree + 1)}
        self._t = [0]

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

    def charpoly(self, key):
        if key != "metabelian":
            return self._from_traces(self.ranks[key], key,
                                     lambda n: self.trace(key, n))
        r2 = self.ranks[2]
        return self._from_traces(
            self.ranks[4] - r2 * (r2 - 1) // 2, 4,
            lambda n: self.trace(4, n) - _exact_div(
                self.trace(2, n) ** 2 - self.trace(2, 2 * n), 2))

    def det(self, key):
        return self.charpoly(key)(1)


def symmetric_power_charpoly(p, i):
    """charpoly(Sym^i W) from monic p = charpoly(W): the product of
    ``shape_charpoly(p, shape)`` over the partitions of i.  Its roots are
    those of ``kfold_product_spectrum(p, i)`` as a set."""
    if i < 1:
        raise ValueError("need i >= 1")
    return prod((shape_charpoly(p, shape)
                 for shape in partitions(i, p.degree)), start=IntPoly.one())



def fixed_point_dets(tower, quotient, degrees):
    """Lazily yield (d, det(I - M_d)) for each requested degree d.

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

def dense_admissibility(s, g):
    """Classify S * Omega * S^T as plus (+Omega), minus (-Omega) or none."""
    if s.rows != 2 * g or s.cols != 2 * g:
        raise ValueError(f"matrix must be {2 * g}x{2 * g}")
    om = omega(g)
    prod = (s @ om) @ s.transpose()
    if prod == om:
        return "plus"
    if prod == -om:
        return "minus"
    return "none"


def dense_sample_admissible(g, sign, seed, length=10):
    """``sample_admissible`` as a product of n x n transvection matrices
    I - c v (v^T Omega), times the block swap for the minus sign; the same
    random draws in the same order."""
    n = 2 * g
    rng = _seeded_rng(seed)
    om = omega(g)
    s = IntMatrix.identity(n)
    for _ in range(length):
        v = [0] * n
        v[rng.randrange(n)] = rng.choice((1, -1))
        if rng.randrange(2):
            v[rng.randrange(n)] = rng.choice((1, -1))
        c = rng.choice((1, -1))
        vt_om = [sum(v[i] * om[i, j] for i in range(n)) for j in range(n)]
        t = IntMatrix([[((1 if i == j else 0) - c * v[i] * vt_om[j])
                        for j in range(n)] for i in range(n)])
        s = s @ t
    if sign == "minus":
        s = s @ IntMatrix.block_diag([IntMatrix([[0, 1], [1, 0]])] * g)
    return s


def apply_matrix_to_vector(mat, vec):
    """Image of a sparse coordinate vector under a dense degree matrix."""
    out = {}
    for j, coeff in vec.items():
        for i in range(mat.rows):
            val = mat[i, j]
            if val:
                out[i] = out.get(i, 0) + coeff * val
    return {k: v for k, v in out.items() if v}


def relator_image_sign(s, g, table):
    """Sign with which the induced degree-2 map fixes the surface relator."""
    r_vec = orientable_relator(g, table)
    tower = induced_tower(table, s)
    image = apply_matrix_to_vector(tower.matrix(2), r_vec)
    if image == r_vec:
        return "plus"
    if image == {k: -v for k, v in r_vec.items()}:
        return "minus"
    return "none"


def bigcondition_equivalence(s, g, table):
    """Matrix admissibility and relator preservation agree, sign included.

    Both classifications are computed independently: one from the matrix
    identity S Omega S^T = +-Omega, the other from the induced action on
    the degree-2 graded piece applied to sum_l [a_l, b_l].
    """
    return admissibility(s, g) == relator_image_sign(s, g, table)


def sample_nonadmissible(g, seed, bound=3):
    """Random integer matrix rejected until S Omega S^T is neither +-Omega."""
    n = 2 * g
    rng = _seeded_rng(seed)
    while True:
        s = IntMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if admissibility(s, g) == "none":
            return s


def orientable_context(g):
    """(table, relator quotient, metabelian truncation) for genus g.

    The verdicts read the same charpolys off ``ShapeCharacter``; these
    towers and quotients are its oracle.
    """
    table = build_hall_basis(2 * g, 4)
    quotient = ideal_quotient(table, orientable_relator(g, table), 4)
    met = metabelian_truncation(quotient)
    return table, quotient, met
