"""Seeded inputs for the benchmark, independent of the rinfty package.

Admissible matrices are built here from symplectic transvections and
checked here with a plain-integer S * Omega * S^T = +-Omega test, so a
defect in ``rinfty.analysis`` cannot make the generator agree with it.
"""

import random

# Transvections per draw.  A product of k transvections fixes a subspace
# of dimension at least 2g - k, so k must exceed 2g = 6 for a plus matrix
# to have no eigenvalue 1.
TRANSVECTIONS = 8
# Draws are kept only with entries in -1..1 and no eigenvalue 1.  Entry
# size sets the bit sizes of every tower and determinant, and a degree-1
# eigenvalue 1 changes which determinants run to the end; both would
# otherwise spread the cost of one request over a factor of two.
MAX_ENTRY = 1


def omega(g):
    """Intersection form on Z^(2g): block-diagonal [[0, 1], [-1, 0]]."""
    n = 2 * g
    om = [[0] * n for _ in range(n)]
    for b in range(g):
        om[2 * b][2 * b + 1] = 1
        om[2 * b + 1][2 * b] = -1
    return om


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def admissible_sign(s, g):
    """'plus' if S Omega S^T = Omega, 'minus' if it is -Omega, else 'none'."""
    om = omega(g)
    prod = matmul(matmul(s, om), transpose(s))
    if prod == om:
        return "plus"
    if prod == [[-x for x in row] for row in om]:
        return "minus"
    return "none"


def block_swap(g):
    """diag([[0, 1], [1, 0]], ...): P Omega P^T = -Omega."""
    n = 2 * g
    p = [[0] * n for _ in range(n)]
    for b in range(g):
        p[2 * b][2 * b + 1] = 1
        p[2 * b + 1][2 * b] = 1
    return p


def det(a):
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_i_minus(s):
    """det(I - S): zero exactly when S has eigenvalue 1."""
    n = len(s)
    return det([[(1 if i == j else 0) - s[i][j] for j in range(n)]
                for i in range(n)])


def _draw(rng, g, sign):
    """Product of random transvections, or None once an entry of a
    partial product leaves -2..2 (the draw would be discarded)."""
    n = 2 * g
    om = omega(g)
    s = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(TRANSVECTIONS):
        v = [0] * n
        for _ in range(2):
            v[rng.randrange(n)] = rng.choice((1, -1))
        if not any(v):
            v[rng.randrange(n)] = 1
        c = rng.choice((1, -1))
        # The transvection T = I + c v (Omega v)^T preserves Omega: with
        # Omega^T Omega = I and Omega^2 = -I, T Omega T^T expands to
        # Omega + c v v^T - c v v^T + c^2 (v^T Omega v) v v^T, and the last
        # term vanishes as the form is alternating.  S T is applied as the
        # rank-1 update S + c (S v) (Omega v)^T.
        w = [sum(om[j][k] * v[k] for k in range(n)) for j in range(n)]
        sv = [sum(row[k] * v[k] for k in range(n)) for row in s]
        s = [[row[j] + c * sv[i] * w[j] for j in range(n)]
             for i, row in enumerate(s)]
        if max(abs(x) for row in s for x in row) > MAX_ENTRY + 1:
            return None
    if sign == "minus":
        s = matmul(s, block_swap(g))
    return s


def admissible_matrix(rng, g, sign):
    """Random admissible matrix with entries in -1..1 and no eigenvalue 1.

    Each draw is a product of random transvections, times a block swap
    for minus; draws outside the family are discarded.
    """
    while True:
        s = _draw(rng, g, sign)
        if s is None or max(abs(x) for row in s for x in row) > MAX_ENTRY:
            continue
        if det_i_minus(s) != 0:
            break
    got = admissible_sign(s, g)
    if got != sign:
        raise AssertionError(f"generator produced {got}, wanted {sign}")
    return s


def matrix_text(s):
    """The CLI's matrix file format: 'rows cols' header, then integer rows."""
    lines = [f"{len(s)} {len(s[0])}"]
    lines += [" ".join(str(x) for x in row) for row in s]
    return "\n".join(lines) + "\n"


def request_rng(seed, index):
    """Independent stream per (workload seed, request index)."""
    return random.Random(f"perfbench/{seed}/{index}")
