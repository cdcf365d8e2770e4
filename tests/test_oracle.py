import random

import pytest

import rinfty.oracle
from rinfty.errors import ResourceLimitError
from rinfty.freelie import build_hall_basis
from rinfty.intlinalg import IntMatrix, smith_normal_form
from rinfty.oracle import (FiniteTwistedSetup, abelian_reidemeister_count,
                           brute_force_twisted_classes, spectrum_crosscheck)


class TestAbelianCount:
    def test_fibonacci_matrix(self):
        assert abelian_reidemeister_count(IntMatrix([[0, 1], [1, 1]])) == 1

    def test_identity_infinite(self):
        assert abelian_reidemeister_count(IntMatrix.identity(2)) is None

    def test_doubling(self):
        assert abelian_reidemeister_count(IntMatrix([[2]])) == 1

    def test_agrees_with_determinant(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)]
                           for _ in range(n)])
            det = (IntMatrix.identity(n) - m).det()
            count = abelian_reidemeister_count(m)
            if det == 0:
                assert count is None
            else:
                assert count == abs(det)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            abelian_reidemeister_count(IntMatrix.zeros(2, 3))


class TestFiniteSetupGuards:
    def test_even_modulus_on_class_two(self):
        with pytest.raises(ValueError):
            FiniteTwistedSetup.identity_twist(2, 2, 4)

    def test_composite_modulus(self):
        with pytest.raises(ValueError):
            FiniteTwistedSetup.identity_twist(2, 2, 6)

    def test_order_cap(self):
        setup = FiniteTwistedSetup.identity_twist(2, 2, 5, max_order=100)
        with pytest.raises(ResourceLimitError):
            brute_force_twisted_classes(setup)

    def test_trivial_group(self):
        assert brute_force_twisted_classes(FiniteTwistedSetup(0, 1, 3)) == 1


class TestBruteForce:
    def test_heisenberg_conjugacy_classes(self):
        # extraspecial group of order 27: class equation 3 + 8*3
        setup = FiniteTwistedSetup.identity_twist(2, 2, 3)
        assert setup.group_order() == 27
        assert brute_force_twisted_classes(setup) == 11

    def test_abelian_inversion_mod_five(self):
        m = -1 * IntMatrix.identity(2)
        setup = FiniteTwistedSetup.from_abelian_matrix(m, 5)
        count = brute_force_twisted_classes(setup)
        assert count == 1
        # cokernel of I - M over Z_5
        from math import gcd
        snf = smith_normal_form(IntMatrix.identity(2) - m)
        predicted = 1
        for d in snf.diagonal:
            predicted *= gcd(d, 5)
        assert count == predicted

    def test_constructed_divisible_cases_agree(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rng.choice([4, 8, 9, 5, 25, 7])
            divisors = [d for d in (1, 2, 3, 4, 5, 7) if m % d == 0]
            diag = [rng.choice(divisors) for _ in range(n)]
            u = _random_unimodular(rng, n)
            v = _random_unimodular(rng, n)
            b = (u @ IntMatrix([[diag[i] if i == j else 0 for j in range(n)]
                                for i in range(n)])) @ v
            mat = IntMatrix.identity(n) - b
            expected = 1
            for d in diag:
                expected *= d
            setup = FiniteTwistedSetup.from_abelian_matrix(mat, m)
            assert brute_force_twisted_classes(setup) == expected

    def test_invariance_under_inner_conjugation(self):
        # under x -> h x h^-1, x ~ z x h z^-1 h^-1 is conjugacy of x h
        setup = FiniteTwistedSetup.identity_twist(2, 2, 3)
        base = brute_force_twisted_classes(setup)
        for h in [(1, 2, 1), (2, 0, 2), (0, 1, 0)]:
            hinv = setup.inverse(h)
            images = [setup.multiply(setup.multiply(h, gen), hinv)
                      for gen in setup.images]
            other = FiniteTwistedSetup(2, 2, 3, images)
            assert brute_force_twisted_classes(other) == base

    def test_swap_twist_on_heisenberg(self):
        # generator swap is an automorphism; count is finite and exact
        setup = FiniteTwistedSetup(2, 2, 5, [(0, 1, 0), (1, 0, 0)])
        count = brute_force_twisted_classes(setup)
        assert count == 5
        # abelianized twist has det(I - M) = 0 mod nothing: compare reduction
        m = IntMatrix([[0, 1], [1, 0]])
        from math import gcd
        snf = smith_normal_form(IntMatrix.identity(2) - m)
        abelian = 1
        for d in snf.diagonal:
            abelian *= gcd(d, 5)
        assert abelian == 5  # degree-1 classes; commutator direction is free


def _random_unimodular(rng, n):
    u = IntMatrix.identity(n)
    for _ in range(5):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        rows = [list(r) for r in u.entries]
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        u = IntMatrix(rows)
    return u


class TestSpectrumCrosscheck:
    def test_diagonal(self):
        table = build_hall_basis(2, 3)
        assert spectrum_crosscheck(IntMatrix([[2, 0], [0, 3]]), table, 2)

    def test_fibonacci_degree_three(self):
        table = build_hall_basis(2, 3)
        assert spectrum_crosscheck(IntMatrix([[0, 1], [1, 1]]), table, 3)

    @pytest.mark.parametrize("rows", [
        [[0, 0], [0, 0]],
        [[1, 0], [0, 1]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[1, 2, 3], [2, 4, 6], [0, 1, -1]],
    ], ids=["zero", "identity", "three-cycle", "singular"])
    def test_special_matrices(self, rows):
        table = build_hall_basis(len(rows), 4)
        for i in (1, 2, 3, 4):
            assert spectrum_crosscheck(IntMatrix(rows), table, i)

    def test_wrong_multiplicity_rejected(self, monkeypatch):
        # the true degree-3 eigenvalues are 2*2*3 = 12 and 2*3*3 = 18, and
        # diag(12, 12) has the right eigenvalue set, but not its multiset
        table = build_hall_basis(2, 3)
        fake = IntMatrix([[12, 0], [0, 12]])

        class FakeTower:
            def matrix(self, d):
                return fake

        monkeypatch.setattr(rinfty.oracle, "induced_tower",
                            lambda ring, base: FakeTower())
        assert not spectrum_crosscheck(IntMatrix([[2, 0], [0, 3]]), table, 3)

    def test_random_suite(self):
        rng = random.Random(3)
        tables = {r: build_hall_basis(r, 4) for r in (2, 3)}
        for _ in range(15):
            r = rng.choice([2, 3])
            s = IntMatrix([[rng.randint(-2, 2) for _ in range(r)]
                           for _ in range(r)])
            i = rng.randint(2, 4)
            assert spectrum_crosscheck(s, tables[r], i)
