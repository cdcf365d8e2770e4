import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rinfty.analysis import nonorientable_base_matrices
from rinfty.freelie import (ShapeCharacter, build_hall_basis, induced_tower,
                            shape_multiplicity, shape_work, witt_dimension)
from rinfty.intlinalg import (IntMatrix, IntPoly, charpoly,
                              dominance_root_test, kfold_product_spectrum,
                              kfold_value_at_one, partitions, shape_charpoly,
                              shape_degree, smith_normal_form)
from tower_oracles import recursive_shape_charpoly, symmetric_power_charpoly


def square_matrices(max_n=5, lo=-9, hi=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(IntMatrix)


S2 = IntMatrix.block_diag([IntMatrix([[1, 2], [1, 1]])] * 2)


def sylvester(f, g):
    """Sylvester matrix of two nonzero polynomials; its det is Res(f, g)."""
    n, m = f.degree, g.degree
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gc + [0] * (n - 1 - i) for i in range(n)]
    return IntMatrix(rows)


def resultant(f, g):
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    return sylvester(f, g).det()


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_matmul_shapes(self):
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)
        with pytest.raises(ValueError):
            IntMatrix.identity(2) @ IntMatrix([])

    def test_det_examples(self):
        assert IntMatrix([[0, 1], [1, 1]]).det() == -1
        assert IntMatrix.identity(5).det() == 1
        assert IntMatrix.zeros(3, 3).det() == 0
        assert IntMatrix([]).det() == 1
        assert IntMatrix([[0]]).det() == 0
        assert IntMatrix([[-7]]).det() == -7
        assert IntMatrix([[2 ** 300 + 1]]).det() == 2 ** 300 + 1

    def test_det_multiplicative(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(1, 5)
            a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            b = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            assert (a @ b).det() == a.det() * b.det()

    def test_text_roundtrip(self):
        m = IntMatrix([[1, -2, 30], [0, 5, -6]])
        assert IntMatrix.from_text(m.to_text()) == m
        assert m.to_text().splitlines()[0] == "2 3"

    def test_text_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            IntMatrix.from_text("2 2\n1 2 3")

    def test_text_rejects_a_negative_size_before_admit(self):
        def admit(rows, cols):
            raise AssertionError("admit saw a negative size")
        for header in ("-1 -1", "-2 -3", "0 -1", "-1 0"):
            with pytest.raises(ValueError, match="is negative"):
                IntMatrix.from_text(f"{header}\n1 2 3 4 5 6", admit)
        assert IntMatrix.from_text("0 0\n") == IntMatrix([])


def fraction_det(m):
    """Reference determinant: Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m.entries]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return det.numerator


def naive_product(a, b):
    return [[sum(a[i, k] * b[k, j] for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]


@st.composite
def sparse_square_matrices(draw, max_n=12, lo=-30, hi=30):
    """Mostly-zero square matrices: up to 2n + 2 placed entries and some unit diagonal."""
    n = draw(st.integers(0, max_n))
    rows = [[0] * n for _ in range(n)]
    if n:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.integers(lo, hi))
        for i, j, x in draw(st.lists(cell, max_size=2 * n + 2)):
            rows[i][j] = x
        for i in range(n):  # a unit diagonal keeps many samples nonsingular
            if draw(st.booleans()):
                rows[i][i] = draw(st.sampled_from((1, -1)))
    return IntMatrix(rows)


@st.composite
def dense_wide_matrices(draw, max_n=7, bits=200):
    """Dense square matrices with wide entries and zero leading pivots: the
    top of column 0 is cleared, and column 1 may be twice column 0 in all
    but the last row, so that step 1 can meet zeros above its pivot too."""
    n = draw(st.integers(1, max_n))
    wide = st.integers(-2 ** bits, 2 ** bits)
    rows = draw(st.lists(st.lists(wide, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    for row in rows[:draw(st.integers(0, n - 1))]:
        row[0] = 0
    if n > 2 and draw(st.booleans()):
        for row in rows[:-1]:
            row[1] = 2 * row[0]
    return IntMatrix(rows)


class TestDet:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(sparse_square_matrices(), dense_wide_matrices()))
    def test_sparse_matches_fraction_reference(self, m):
        assert m.det() == fraction_det(m)

    def test_singular_cases(self):
        rng = random.Random(3)
        for n in (2, 5, 9):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            repeated = [list(r) for r in rows]
            repeated[-1] = list(repeated[0])
            assert IntMatrix(repeated).det() == 0
            zero_col = [r[:n - 2] + [0] + r[n - 1:] for r in rows]
            assert IntMatrix(zero_col).det() == 0
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(n - 1)]
                           for _ in range(n)])
            b = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(n - 1)])
            assert (a @ b).det() == 0

    def test_mixed_bit_sizes(self):
        rng = random.Random(5)
        for n in (3, 6, 10):
            rows = [[rng.choice((0, 0, 1, -1, rng.getrandbits(1000) - 2 ** 999))
                     for _ in range(n)] for _ in range(n)]
            m = IntMatrix(rows)
            assert m.det() == fraction_det(m)

    def test_sylvester_matrices_with_wide_coefficients(self):
        rng = random.Random(11)
        for deg_f, deg_g in ((3, 2), (5, 4), (7, 6)):
            f = IntPoly([rng.getrandbits(120) - 2 ** 119 for _ in range(deg_f)]
                        + [2 ** 100 + rng.getrandbits(20)])
            g = IntPoly([rng.getrandbits(110) - 2 ** 109 for _ in range(deg_g)]
                        + [1])
            s = sylvester(f, g)
            assert s.det() == fraction_det(s)

    def test_permutation_sign(self):
        rng = random.Random(2)
        for n in range(1, 9):
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                                 if perm[i] > perm[j])
                m = IntMatrix([[1 if perm[i] == j else 0 for j in range(n)]
                               for i in range(n)])
                assert m.det() == (-1) ** inversions
                assert (3 * m).det() == (-1) ** inversions * 3 ** n

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, 3).det()


class TestMatmul:
    def test_rectangular_against_naive_sum(self):
        rng = random.Random(7)
        for n, k, m in ((1, 1, 1), (2, 5, 3), (6, 1, 4), (4, 7, 1), (5, 5, 5)):
            a = IntMatrix([[rng.choice((0, 0, rng.randint(-5, 5)))
                            for _ in range(k)] for _ in range(n)])
            b = IntMatrix([[rng.choice((0, rng.randint(-5, 5)))
                            for _ in range(m)] for _ in range(k)])
            assert (a @ b).entries == tuple(map(tuple, naive_product(a, b)))

    def test_zero_rows_and_columns(self):
        a = IntMatrix([[0, 0, 0], [1, 0, 2], [0, 0, 0]])
        b = IntMatrix([[3, 0], [0, 0], [-1, 0]])
        assert a @ b == IntMatrix([[0, 0], [1, 0], [0, 0]])
        assert IntMatrix.zeros(2, 3) @ IntMatrix.zeros(3, 4) == \
            IntMatrix.zeros(2, 4)

    def test_wide_negative_entries(self):
        rng = random.Random(9)
        a = IntMatrix([[-(rng.getrandbits(200) | 2 ** 199) for _ in range(4)]
                       for _ in range(3)])
        b = IntMatrix([[-(rng.getrandbits(200) | 2 ** 199) if (i + j) % 2 else 0
                        for j in range(5)] for i in range(4)])
        assert (a @ b).entries == tuple(map(tuple, naive_product(a, b)))

class TestCharpoly:
    def test_rotation_block(self):
        assert charpoly(IntMatrix([[0, 1], [-1, 0]])) == IntPoly([1, 0, 1])

    def test_orientable_witness(self):
        # expand((x^2 - 2x - 1)^2); the only eigenvalues are 1 +- sqrt(2)
        assert charpoly(S2) == IntPoly([-1, -2, 1]) * IntPoly([-1, -2, 1])
        assert charpoly(S2)(1) == 4

    def test_identity(self):
        for n in (1, 2, 5):
            assert charpoly(IntMatrix.identity(n)) == IntPoly([-1, 1]) ** n

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            charpoly(IntMatrix.zeros(2, 3))

    @settings(max_examples=40, deadline=None)
    @given(square_matrices())
    def test_matches_determinant_oracle(self, m):
        p = charpoly(m)
        assert p.is_monic and p.degree == m.rows
        for t in (-2, -1, 0, 1, 2, 3):
            assert p(t) == (t * IntMatrix.identity(m.rows) - m).det()

    def test_conjugation_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            u = IntMatrix.identity(n)
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                q = rng.choice([-2, -1, 1, 2])
                rows = [list(r) for r in u.entries]
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
                u = IntMatrix(rows)
            uinv_scaled = _adjugate(u)  # u unimodular: adjugate = +-inverse
            sign = u.det()
            conj = (u @ m) @ (sign * uinv_scaled)
            assert charpoly(conj) == charpoly(m)

    def test_unimodular_constant_term(self):
        rng = random.Random(4)
        found = 0
        while found < 10:
            n = rng.randint(2, 4)
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if m.det() in (1, -1):
                assert charpoly(m)(0) in (1, -1)
                found += 1


def _adjugate(m):
    n = m.rows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = IntMatrix([[m[r, c] for c in range(n) if c != i]
                               for r in range(n) if r != j])
            row.append((-1) ** (i + j) * minor.det())
        rows.append(row)
    return IntMatrix(rows)


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)

    def test_fibonacci_cokernel(self):
        s = smith_normal_form(IntMatrix([[1, -1], [-1, 0]]))
        assert s.diagonal == (1, 1)

    def test_zero(self):
        assert smith_normal_form(IntMatrix.zeros(2, 2)).diagonal == (0, 0)

    def test_empty_columns(self):
        s = smith_normal_form(IntMatrix([[], [], []]))
        assert s.diagonal == ()
        assert s.rank == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda r: st.integers(1, 8).flatmap(
            lambda c: st.lists(st.lists(st.integers(-50, 50),
                                        min_size=c, max_size=c),
                               min_size=r, max_size=r))).map(IntMatrix))
    def test_reconstruction_and_chain(self, m):
        s = smith_normal_form(m)
        assert (s.u @ m) @ s.v == s.d
        assert s.u.det() in (1, -1)
        assert s.v.det() in (1, -1)
        assert s.u @ s.u_inv == IntMatrix.identity(m.rows)
        diag = s.diagonal
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b == 0) if a == 0 else (b % a == 0)


class TestProductSpectrum:
    def test_paired_witness_roots(self):
        # roots of x^2-2x-1 are 1+-sqrt(2); pair products are
        # {(1+sqrt2)^2, -1, -1, (1-sqrt2)^2}, giving (x+1)^2 (x^2-6x+1)
        p = IntPoly([-1, -2, 1])
        expected = IntPoly([1, 2, 1]) * IntPoly([1, -6, 1])
        assert kfold_product_spectrum(p, 2) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kfold_product_spectrum(IntPoly.zero(), 2)

    @pytest.mark.parametrize("p", [IntPoly([1, 2]), IntPoly([0, 1, -1]),
                                   IntPoly([-1, 0, 3])])
    @pytest.mark.parametrize("call", [
        lambda p: kfold_product_spectrum(p, 2),
        lambda p: kfold_value_at_one(p, 2),
        lambda p: kfold_product_spectrum(p, 1),
        lambda p: kfold_product_spectrum(p, 3),
        lambda p: symmetric_power_charpoly(p, 1),
        lambda p: symmetric_power_charpoly(p, 3),
        lambda p: kfold_value_at_one(p, 1),
        lambda p: kfold_value_at_one(p, 4),
    ])
    def test_non_monic_rejected(self, call, p):
        with pytest.raises(ValueError, match="monic"):
            call(p)

    def test_against_interpolated_resultant(self):
        rng = random.Random(6)
        for _ in range(15):
            p = _random_poly(rng)
            assert kfold_product_spectrum(p, 2) == _composed_by_resultant(p, p)


def _random_poly(rng, max_deg=3):
    d = rng.randint(1, max_deg)
    return IntPoly([rng.randint(-4, 4) for _ in range(d)] + [1])


def _composed_by_resultant(p, q):
    """Independent route: interpolate Res_y(p(y), y^m q(x/y)) pointwise."""
    u = 0
    while p.coeffs[u] == 0:
        u += 1
    v = 0
    while q.coeffs[v] == 0:
        v += 1
    ph, qh = IntPoly(p.coeffs[u:]), IntPoly(q.coeffs[v:])
    nh, mh = ph.degree, qh.degree
    big = nh * mh
    pts, vals = [], []
    t = 0
    while len(pts) < big + 1:
        qt = IntPoly(list(reversed([qh.coeffs[j] * t ** j for j in range(mh + 1)])))
        pts.append(t)
        vals.append(Fraction(resultant(ph, qt)))
        t = -t if t > 0 else -t + 1
    size = big + 1
    a = [[Fraction(pts[i] ** j) for j in range(size)] for i in range(size)]
    b = vals[:]
    for col in range(size):
        piv = next(r for r in range(col, size) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    n, m = p.degree, q.degree
    zero_mult = u * m + v * n - u * v
    scale = Fraction(p.leading ** m * q.leading ** n,
                     ph.leading ** mh * qh.leading ** nh)
    coeffs = [scale * c for c in b]
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([c.numerator for c in coeffs]).shift(zero_mult)


def _companion(p):
    """Companion matrix of monic p: charpoly(_companion(p)) == p."""
    n = p.degree
    return IntMatrix([[1 if i == j + 1 else 0 for j in range(n - 1)]
                      + [-p.coeffs[i]] for i in range(n)])


def _kronecker(a, b):
    return IntMatrix([[x * y for x in ra for y in rb]
                      for ra in a.entries for rb in b.entries])


class TestKfold:
    def test_identity_fold(self):
        p = IntPoly([-1, -2, 1])
        assert kfold_product_spectrum(p, 1) == p

    def test_golden_ratio_squares(self):
        # roots of x^2-x-1 multiply pairwise to {phi^2, -1, -1, phi'^2}
        got = kfold_product_spectrum(IntPoly([-1, -1, 1]), 2)
        assert got == IntPoly([1, -3, 1]) * IntPoly([1, 1]) ** 2

    def test_zero_fold_rejected(self):
        with pytest.raises(ValueError):
            kfold_product_spectrum(IntPoly([1, 1]), 0)

    def test_direct_equals_iterated(self):
        # the i-fold Kronecker power of p's companion matrix has the ordered
        # i-fold root products for eigenvalues, zero roots included
        rng = random.Random(7)
        for d, i in itertools.product((1, 2, 3), repeat=2):
            for k in range(10):
                low = [rng.randint(-3, 3) for _ in range(d)]
                if k % 3 == 0:
                    low[0] = 0
                p = IntPoly(low + [1])
                power = companion = _companion(p)
                for _ in range(i - 1):
                    power = _kronecker(power, companion)
                assert kfold_product_spectrum(p, i) == charpoly(power), (p, i)

    def test_unimodular_product_hits_one_at_2g(self):
        # det -1 quadratic: the square of the full root product is 1
        p = IntPoly([-1, 9, 1])
        assert kfold_product_spectrum(p, 4)(1) == 0
        assert all(kfold_product_spectrum(p, i)(1) != 0 for i in (1, 2, 3))

    def test_value_at_one_shortcut(self):
        # the factors' values at 1 against the product polynomial at 1
        rng = random.Random(8)
        for _ in range(20):
            d = rng.randint(1, 4)
            p = IntPoly([rng.randint(-3, 3) for _ in range(d)] + [1])
            for i in (1, 2, 3, 4, 5):
                assert kfold_value_at_one(p, i) == kfold_product_spectrum(p, i)(1)


def _symmetric_power(w, i):
    """Sym^i W on the monomial basis: column a is the image of x^a.

    W sends x_j to sum_k W[k][j] x_k, so x^a goes to the product of those
    linear forms, expanded on the degree-i monomials.
    """
    g = w.rows
    basis = [a for a in itertools.product(range(i + 1), repeat=g)
             if sum(a) == i]
    columns = []
    for a in basis:
        image = {(0,) * g: 1}
        for j, power in enumerate(a):
            for _ in range(power):
                step = {}
                for mono, c in image.items():
                    for k in range(g):
                        if w[k, j]:
                            key = tuple(e + (t == k) for t, e in enumerate(mono))
                            step[key] = step.get(key, 0) + c * w[k, j]
                image = step
        columns.append([image.get(b, 0) for b in basis])
    return IntMatrix(columns).transpose()


def _sym_test_matrices():
    """Random integer W with g <= 3 plus singular, nilpotent, unimodular
    and finite-order ones (the rotation L of the witness construction)."""
    rng = random.Random(14)
    mats = []
    for g in (1, 2, 3):
        for _ in range(6):
            mats.append(IntMatrix([[rng.randint(-3, 3) for _ in range(g)]
                                   for _ in range(g)]))
        el, a = nonorientable_base_matrices(g, 5)
        mats += [el, a, el @ a ** (g - 1), IntMatrix.zeros(g, g)]
        el, a = nonorientable_base_matrices(g, 10 ** 6)  # reversed roots
        mats.append(el @ a ** (g - 1))
    mats += [IntMatrix([[1, 2], [2, 4]]),             # singular
             IntMatrix([[0, 1, 5], [0, 0, -2], [0, 0, 0]]),  # nilpotent
             IntMatrix([[2, -1, 3], [4, -2, 6], [1, 1, 1]]),  # singular
             IntMatrix([[0, -1], [1, 0]]),            # order 4
             IntMatrix([[0, -1], [1, -1]]),           # order 3
             IntMatrix([[2, 1, 0], [1, 1, 0], [0, 0, -1]])]  # det -1
    return mats


class TestSymmetricPower:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_equals_charpoly_of_the_explicit_matrix(self, i):
        for w in _sym_test_matrices():
            p = charpoly(w)
            assert symmetric_power_charpoly(p, i) == charpoly(
                _symmetric_power(w, i)), (w, i)

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_zero_at_one_with_the_ordered_products(self, i):
        for w in _sym_test_matrices():
            p = charpoly(w)
            sym = symmetric_power_charpoly(p, i)(1)
            assert (sym == 0) == (kfold_product_spectrum(p, i)(1) == 0)

    def test_degree(self):
        p = IntPoly([-1, 9, 0, 1])
        assert [symmetric_power_charpoly(p, i).degree
                for i in (1, 2, 3, 6)] == [3, 6, 10, 28]

    def test_unimodular_product_hits_one_at_2g(self):
        # the det -1 quadratic of TestKfold: Sym^4 holds (a b)^2 = 1
        p = IntPoly([-1, 9, 1])
        assert symmetric_power_charpoly(p, 4)(1) == 0
        assert all(symmetric_power_charpoly(p, i)(1) != 0 for i in (1, 2, 3))

    def test_zero_fold_rejected(self):
        with pytest.raises(ValueError):
            symmetric_power_charpoly(IntPoly([1, 1]), 0)


def _exterior_square(w):
    """Lambda^2 W on the basis x_i ^ x_j, i < j: its 2x2 minors."""
    pairs = list(itertools.combinations(range(w.rows), 2))
    return IntMatrix([[w[i, k] * w[j, l] - w[i, l] * w[j, k]
                       for k, l in pairs] for i, j in pairs])


class TestShapeKernel:
    """charpoly(M_d) on the free Lie ring as prod R_pi^L(pi)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_free_lie_factors_match_the_towers(self, d):
        # every matrix of _sym_test_matrices, rank <= 3; at rank 3 degree 6
        # (116 rows) Berkowitz takes seconds a matrix, so there the tower's
        # det(I - M_6) stands for its charpoly
        tables = {g: build_hall_basis(g, d) for g in (1, 2, 3)}
        for w in _sym_test_matrices():
            char = ShapeCharacter(charpoly(w), "free", d)
            mat = induced_tower(tables[w.rows], w).matrix(d)
            assert char.ranks[d] == mat.rows
            if w.rows == 3 and d == 6:
                assert char.det(d) == \
                    (IntMatrix.identity(mat.rows) - mat).det(), w
            else:
                assert char.charpoly(d) == charpoly(mat), (w, d)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_degrees_and_multiplicities_give_witt(self, g):
        for d in range(1, 11):
            assert sum(shape_degree(g, s) * shape_multiplicity(s)
                       for s in partitions(d, g)) == witt_dimension(g, d)
            assert sum(shape_degree(g, s) for s in partitions(d, g)) == \
                comb(g + d - 1, d)

    def test_partitions(self):
        assert list(partitions(5, 2)) == [(5,), (4, 1), (3, 2)]
        assert [len(list(partitions(d, d))) for d in range(8)] == \
            [1, 1, 2, 3, 5, 7, 11, 15]

    def test_shape_roots(self):
        # W = diag(2, 3, 5): the contents of (2, 1) give 2^2 3, 2^2 5, ...
        p = charpoly(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
        roots = [a * a * b for a in (2, 3, 5) for b in (2, 3, 5) if a != b]
        assert shape_charpoly(p, (2, 1)) == prod(
            (IntPoly([-x, 1]) for x in roots), start=IntPoly.one())
        assert shape_charpoly(p, (1, 1, 1)) == IntPoly([-30, 1])
        assert shape_charpoly(p, (1, 1, 1, 1)) == IntPoly.one()

    def test_one_part_and_one_box_shapes(self):
        # R_(k) = charpoly(W^k), R_(1,1) = charpoly(Lambda^2 W) and
        # R_(1,1,1) = x - det W, on the reversed-roots witness as well
        for w in _sym_test_matrices():
            if w.rows < 2:
                continue
            p = charpoly(w)
            for k in (1, 2, 3):
                assert shape_charpoly(p, (k,)) == charpoly(w ** k), (w, k)
            assert shape_charpoly(p, (1, 1)) == charpoly(
                _exterior_square(w)), w
            if w.rows == 3:
                assert shape_charpoly(p, (1, 1, 1)) == IntPoly([-w.det(), 1])

    @settings(max_examples=100, deadline=None)
    @example(IntPoly([1, 0, 3, 1]))  # p(0) = 1, |a_1| < |a_2|: via W^-1
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=6).flatmap(
        lambda low: st.sampled_from([low, [1] + low[1:], [-1] + low[1:]])
    ).map(lambda low: IntPoly(low + [1])))
    def test_expanded_kernel_matches_the_recursion(self, p):
        # monic p of degree <= 6, p(0) = +-1 included, every shape of size
        # <= 5: the cached expansion against the per-power recursion
        for d in range(6):
            for shape in partitions(d, d):
                assert shape_charpoly(p, shape) == \
                    recursive_shape_charpoly(p, shape), (p, shape)

    def test_shape_work(self):
        assert shape_work(4, 7, 10 ** 9) == 3953
        assert shape_work(45, 2, 10 ** 9) == 984150
        # counting stops past the cap, before the partitions run out
        assert shape_work(6, 12, 10 ** 6) == 1030463
        assert shape_work(1000, 2000, 10 ** 6) == 1000000 + 1000 ** 2


class TestDominance:
    def test_large_twist_passes(self):
        # charpoly of the genus-2 witness construction at m = 10
        assert dominance_root_test(IntPoly([-1, 10, 1])) is True

    def test_witness_quadratic_fails(self):
        assert dominance_root_test(IntPoly([-1, -2, 1])) is False

    def test_degenerate_linear(self):
        assert dominance_root_test(IntPoly([-1, 1])) is False

    def test_non_monic(self):
        assert dominance_root_test(IntPoly([-1, 10, 2])) is False


class TestPolyHelpers:
    def test_resultant_vs_sylvester_root_products(self):
        # Res(f, g) = lc(f)^deg(g) * prod g(alpha): check on split examples
        f = IntPoly([-2, 1]) * IntPoly([3, 1])       # roots 2, -3
        g = IntPoly([-1, 1]) * IntPoly([-5, 1])      # roots 1, 5
        expected = g(2) * g(-3)
        assert resultant(f, g) == expected
        assert sylvester(f, g).det() == expected

    def test_zero_poly_degree_is_none(self):
        assert IntPoly.zero().degree is None
        assert IntPoly.zero().is_zero
