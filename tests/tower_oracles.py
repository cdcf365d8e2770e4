"""Tower-side oracles for the verdict layer, used only by the tests.

The verdicts read every charpoly off ``SurfaceCharacter`` and the
partition-shape kernel; these helpers rebuild the same facts from Hall
tables, induced towers and relator quotients, so the tests can compare
the two.
"""

from rinfty.analysis import _seeded_rng, admissibility
from rinfty.freelie import (build_hall_basis, ideal_quotient, induced_tower,
                            metabelian_truncation, orientable_relator)
from math import prod

from rinfty.intlinalg import IntMatrix, IntPoly, partitions, shape_charpoly


def symmetric_power_charpoly(p, i):
    """charpoly(Sym^i W) from monic p = charpoly(W): the product of
    ``shape_charpoly(p, shape)`` over the partitions of i.  Its roots are
    those of ``kfold_product_spectrum(p, i)`` as a set."""
    if i < 1:
        raise ValueError("need i >= 1")
    return prod((shape_charpoly(p, shape)
                 for shape in partitions(i, p.degree)), start=IntPoly.one())


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

    The verdicts read the same charpolys off ``SurfaceCharacter``; these
    towers and quotients are its oracle.
    """
    table = build_hall_basis(2 * g, 4)
    quotient = ideal_quotient(table, orientable_relator(g, table), 4)
    met = metabelian_truncation(quotient)
    return table, quotient, met
