import random
from math import comb

import pytest

from rinfty.errors import ResourceLimitError
from rinfty.freelie import (GradedQuotient, build_hall_basis, ideal_quotient,
                            induced_tower, metabelian_truncation,
                            orientable_relator, witt_dimension)
from rinfty.intlinalg import IntMatrix, charpoly

from tower_oracles import (apply_matrix_to_vector,
                           eigenvalue_one_first_degree, fixed_point_dets)

from conftest import one_relator_quotient_ranks


def vec_add(a, b, scale=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


class TestHallBasis:
    def test_dims_examples(self):
        assert build_hall_basis(2, 4).dims() == [2, 1, 2, 3]
        assert build_hall_basis(4, 3).dims() == [4, 6, 20]
        assert build_hall_basis(1, 3).dims() == [1, 0, 0]

    def test_witt_formula_up_to_rank6_class6(self):
        for r in range(1, 7):
            table = build_hall_basis(r, 6)
            for d in range(1, 7):
                assert table.dim(d) == witt_dimension(r, d)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            build_hall_basis(10, 9)

    def test_antisymmetry_and_jacobi_exhaustive(self):
        # full sweep within the class budget at r <= 4, c <= 5
        for r, c in [(2, 5), (3, 4), (4, 5)]:
            table = build_hall_basis(r, c)
            words = {d: table.words(d) for d in range(1, c + 1)}
            for da in range(1, c):
                for db in range(1, c - da + 1):
                    for wa in words[da]:
                        for wb in words[db]:
                            ab = table.bracket_words(wa, wb)
                            ba = table.bracket_words(wb, wa)
                            assert vec_add(ab, ba) == {}
                            for dc in range(1, c - da - db + 1):
                                for wc in words[dc]:
                                    t1 = table.bracket(ab, da + db,
                                                       {wc.local: 1}, dc)
                                    bc = table.bracket_words(wb, wc)
                                    t2 = table.bracket(bc, db + dc,
                                                       {wa.local: 1}, da)
                                    ca = table.bracket_words(wc, wa)
                                    t3 = table.bracket(ca, dc + da,
                                                       {wb.local: 1}, db)
                                    assert vec_add(vec_add(t1, t2), t3) == {}


class TestInducedTower:
    def test_identity_functoriality(self):
        table = build_hall_basis(2, 4)
        tower = induced_tower(table, IntMatrix.identity(2))
        for d in range(1, 5):
            assert tower.matrix(d) == IntMatrix.identity(table.dim(d))

    def test_diagonal_weights(self):
        table = build_hall_basis(2, 3)
        tower = induced_tower(table, IntMatrix([[2, 0], [0, 3]]))
        assert tower.matrix(2) == IntMatrix([[6]])

    def test_fibonacci_first_eigenvalue_degree_four(self):
        table = build_hall_basis(2, 4)
        tower = induced_tower(table, IntMatrix([[0, 1], [1, 1]]))
        dets = [(IntMatrix.identity(table.dim(d)) - tower.matrix(d)).det()
                for d in range(1, 5)]
        assert dets[0] != 0 and dets[1] != 0 and dets[2] != 0
        assert dets[3] == 0
        assert eigenvalue_one_first_degree(tower, None, 4) == 4

    def test_functoriality_on_products(self):
        rng = random.Random(11)
        table = build_hall_basis(2, 4)
        for _ in range(6):
            a = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            b = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            ta, tb = induced_tower(table, a), induced_tower(table, b)
            tab = induced_tower(table, a @ b)
            for d in range(2, 5):
                assert tab.matrix(d) == ta.matrix(d) @ tb.matrix(d)

    def test_bracket_compatibility(self):
        # M_{a+b}([u, v]) = [M_a u, M_b v] on random vectors, not just words
        rng = random.Random(13)
        table = build_hall_basis(3, 4)
        s = IntMatrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        tower = induced_tower(table, s)
        for da, db in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            va = {i: rng.randint(-2, 2) for i in range(table.dim(da))}
            vb = {i: rng.randint(-2, 2) for i in range(table.dim(db))}
            left = apply_matrix_to_vector(tower.matrix(da + db),
                                          table.bracket(va, da, vb, db))
            ia = apply_matrix_to_vector(tower.matrix(da), va)
            ib = apply_matrix_to_vector(tower.matrix(db), vb)
            assert left == table.bracket(ia, da, ib, db)

    def test_shape_mismatch(self):
        table = build_hall_basis(2, 3)
        with pytest.raises(ValueError):
            induced_tower(table, IntMatrix.identity(3))


class TestOrientableRelator:
    def test_genus_one_single_word(self):
        table = build_hall_basis(2, 2)
        vec = orientable_relator(1, table)
        assert len(vec) == 1
        assert set(vec.values()) <= {1, -1}

    def test_genus_two_unit_coefficients(self):
        table = build_hall_basis(4, 2)
        vec = orientable_relator(2, table)
        assert len(vec) == 2
        assert all(v in (1, -1) for v in vec.values())
        assert table.dim(2) == 6

    def test_minus_admissible_negates_relator(self, table_g2):
        s = IntMatrix.block_diag([IntMatrix([[1, 2], [1, 1]])] * 2)
        vec = orientable_relator(2, table_g2)
        tower = induced_tower(table_g2, s)
        image = apply_matrix_to_vector(tower.matrix(2), vec)
        assert image == {k: -v for k, v in vec.items()}

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            orientable_relator(3, build_hall_basis(4, 2))


class TestIdealQuotient:
    def test_ranks_match_generating_function_g2(self, quotient_g2):
        assert [quotient_g2.rank(d) for d in (1, 2, 3, 4)] == \
            one_relator_quotient_ranks(2, 4)
        assert one_relator_quotient_ranks(2, 3) == [4, 5, 16]

    def test_ranks_match_generating_function_g3(self, quotient_g3):
        assert [quotient_g3.rank(d) for d in (1, 2, 3, 4)] == \
            one_relator_quotient_ranks(3, 4)

    def test_torsion_free_through_degree_five_g2(self):
        table = build_hall_basis(4, 5)
        quotient = ideal_quotient(table, orientable_relator(2, table), 5)
        for d in range(1, 6):
            assert quotient.torsion_free(d)
        assert [quotient.rank(d) for d in range(1, 6)] == one_relator_quotient_ranks(2, 5)

    def test_low_degree_ideal_is_zero(self, quotient_g2):
        assert quotient_g2.rank(1) == 4
        assert quotient_g2.torsion_free(1)

    def test_degree_three_span_is_relator_brackets(self, quotient_g2):
        # the four brackets [relator, x_j] span a rank-4 ideal in degree 3
        assert quotient_g2.rank(3) == witt_dimension(4, 3) - 4

    def test_zero_generator_rejected(self, table_g2):
        with pytest.raises(ValueError):
            ideal_quotient(table_g2, {}, 4)

    def test_zero_rank_degree_projects_to_empty_matrix(self):
        # On the torus the relator [a, b] spans degree 2 and all of
        # degree 3, so nothing is left there to act on.
        table = build_hall_basis(2, 3)
        quotient = ideal_quotient(table, orientable_relator(1, table), 3)
        tower = induced_tower(table, IntMatrix([[2, 1], [1, 1]]))
        for d in (2, 3):
            assert quotient.rank(d) == 0
            assert quotient.project(tower.matrix(d), d) == IntMatrix([])
        assert list(fixed_point_dets(tower, quotient, (1, 2, 3))) == \
            [(1, -1), (2, 1), (3, 1)]


class TestMetabelian:
    def test_truncation_ranks_closed_form(self):
        # free metabelian ranks (d-1) C(n+d-2, d) on n = 2g generators,
        # less the relator ideal, whose degree-d part is C(n+d-3, d-2)
        ranks = {}
        for g in (2, 3, 4):
            n = 2 * g
            table = build_hall_basis(n, 4)
            met = metabelian_truncation(
                ideal_quotient(table, orientable_relator(g, table), 4))
            ranks[g] = [met.rank(d) for d in range(1, 5)]
            assert ranks[g] == [n] + [
                (d - 1) * comb(n + d - 2, d) - comb(n + d - 3, d - 2)
                for d in range(2, 5)]
            assert all(met.torsion_free(d) for d in range(1, 5))
        assert ranks == {2: [4, 5, 16, 35], 3: [6, 14, 64, 189],
                         4: [8, 27, 160, 594]}

    def test_truncation_needs_class_four(self):
        table = build_hall_basis(4, 3)
        quotient = ideal_quotient(table, orientable_relator(2, table), 3)
        with pytest.raises(ValueError):
            metabelian_truncation(quotient)

    def test_truncation_needs_degree_two_relator(self, table_g2):
        relator = table_g2.bracket(orientable_relator(2, table_g2), 2, {0: 1}, 1)
        with pytest.raises(ValueError):
            metabelian_truncation(GradedQuotient(table_g2, {3: [relator]},
                                                 4))


class TestEigenvalueOneDegrees:
    def test_witness_clean_through_three(self, table_g2, quotient_g2):
        s = IntMatrix.block_diag([IntMatrix([[1, 2], [1, 1]])] * 2)
        tower = induced_tower(table_g2, s)
        assert eigenvalue_one_first_degree(tower, quotient_g2, 3) is None

    def test_witness_hits_four_on_metabelian(self, table_g2, metabelian_g2):
        s = IntMatrix.block_diag([IntMatrix([[1, 2], [1, 1]])] * 2)
        tower = induced_tower(table_g2, s)
        assert eigenvalue_one_first_degree(tower, metabelian_g2, 4) == 4

    def test_identity_hits_degree_one(self, table_g2, quotient_g2):
        tower = induced_tower(table_g2, IntMatrix.identity(4))
        assert eigenvalue_one_first_degree(tower, quotient_g2, 4) == 1

    def test_quotient_zero_implies_parent_zero(self, table_g2, quotient_g2,
                                               metabelian_g2):
        # eigenvalue 1 on the metabelian quotient lattice persists upstairs
        s = IntMatrix.block_diag([IntMatrix([[1, 2], [1, 1]])] * 2)
        tower = induced_tower(table_g2, s)
        proj = metabelian_g2.project(tower.matrix(4), 4)
        assert (IntMatrix.identity(proj.rows) - proj).det() == 0
        full = quotient_g2.project(tower.matrix(4), 4)
        assert (IntMatrix.identity(full.rows) - full).det() == 0
        free = tower.matrix(4)
        assert (IntMatrix.identity(free.rows) - free).det() == 0


class TestCharpolyTowers:
    def test_quotient_charpoly_divides_parent(self, table_g2, quotient_g2):
        s = IntMatrix.block_diag([IntMatrix([[1, 2], [1, 1]])] * 2)
        tower = induced_tower(table_g2, s)
        for d in (2, 3):
            rem = list(charpoly(tower.matrix(d)).coeffs)
            quot = charpoly(quotient_g2.project(tower.matrix(d), d)).coeffs
            n = len(quot) - 1
            while len(rem) > n:  # long division by the monic quotient charpoly
                lead = rem.pop()
                for j in range(n):
                    rem[len(rem) - n + j] -= lead * quot[j]
            assert not any(rem)
