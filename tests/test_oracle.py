import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rinfty.oracle
from rinfty.errors import ResourceLimitError
from rinfty.freelie import build_hall_basis, witt_dimension
from rinfty.intlinalg import IntMatrix, smith_normal_form
from rinfty.nilpotent import free_nilpotent_group
from rinfty.oracle import (FiniteTwistedSetup, _eval_reduced, _fiber_split,
                           _subgroup_order, abelian_reidemeister_count,
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

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(rinfty.oracle, "MAX_ORDER", 100)
        with pytest.raises(ResourceLimitError,
                           match="^group order 125 exceeds the bound 100$"):
            FiniteTwistedSetup.identity_twist(2, 2, 5)

    @pytest.mark.parametrize("r,c,modulus,order", [
        (2, 2, 2 ** 61 - 1, (2 ** 61 - 1) ** 3),
        (2, 2, (2 ** 31 - 1) ** 2, (2 ** 31 - 1) ** 6),
        (2, 6, 7, 7 ** 23), (3, 4, 5, 5 ** 32)])
    def test_order_cap_before_any_work(self, monkeypatch, r, c, modulus,
                                       order):
        # the collection maps must not start on an oversized group
        def refuse(*args):
            raise AssertionError("work started on an oversized group")

        monkeypatch.setattr(rinfty.oracle, "_coordinate_maps", refuse)
        with pytest.raises(ResourceLimitError,
                           match=f"^group order {order} exceeds the bound "
                                 f"1000000$"):
            FiniteTwistedSetup.identity_twist(r, c, modulus)

    def test_long_order_stated_as_power(self):
        # k = 8800 here: the order is refused without being written out
        with pytest.raises(ResourceLimitError,
                           match="^group order 17\\^8800 exceeds"):
            FiniteTwistedSetup.identity_twist(2, 16, 17)

    def test_trivial_group(self):
        assert brute_force_twisted_classes(FiniteTwistedSetup(0, 1, 3)) == 1


class TestPrimePowerBase:
    @pytest.mark.parametrize("m,p", [
        (2, 2), (9, 3), (2 ** 61 - 1, 2 ** 61 - 1),
        ((2 ** 31 - 1) ** 2, 2 ** 31 - 1), (7 ** 40, 7), (2 ** 200, 2)])
    def test_prime_powers(self, m, p):
        assert rinfty.oracle._prime_power_base(m) == p

    @pytest.mark.parametrize("m", [
        6, 341, 561, 3215031751, 1000003 * 1000033, 3 ** 5 * 5,
        318665857834031151167461])
    def test_composites_and_pseudoprimes(self, m):
        # 341 fools Fermat to base 2, 561 is a Carmichael number,
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7, and
        # the last one to the first twelve prime bases
        assert rinfty.oracle._prime_power_base(m) is None

    def test_agrees_with_trial_division(self):
        for m in range(2, 3000):
            p = next(d for d in range(2, m + 1) if m % d == 0)
            rest = m
            while rest % p == 0:
                rest //= p
            expected = p if rest == 1 else None
            assert rinfty.oracle._prime_power_base(m) == expected

    def test_past_the_exact_bound_refused(self):
        # the bound is a strong pseudoprime to all thirteen bases
        bound = rinfty.oracle._PRIME_TEST_BOUND
        assert bound == 1287836182261 * 2575672364521
        with pytest.raises(ResourceLimitError):
            rinfty.oracle._prime_power_base(bound)


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


def stepwise_classes(setup):
    """Reference count: union-find over z * x * phi(z)^-1, one step at a time.

    Two reduced multiplications per element and generator, the way the
    oracle counted before its moves were composed into single maps.
    """
    if setup.r == 0:
        return 1
    m = setup.modulus
    elements = list(product(range(m), repeat=setup.k))
    index = {x: i for i, x in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ambient = free_nilpotent_group(setup.r, setup.c)
    movers = [(ambient.generator(i).coords, setup.inverse(img))
              for i, img in enumerate(setup.images)]
    for x in elements:
        for z, w in movers:
            moved = setup.multiply(setup.multiply(z, x), w)
            rx, ry = find(index[x]), find(index[moved])
            if rx != ry:
                parent[ry] = rx
    return sum(1 for i in range(len(elements)) if find(i) == i)


# (rank, class, modulus) with base prime above the class, moduli 3, 5, 7,
# 9, 25, classes 1-3, ranks 2-3 and group order at most 5^5
SMALL_CASES = [
    (r, c, m) for r in (2, 3) for c in (1, 2, 3) for m in (3, 5, 7, 9, 25)
    if {3: 3, 5: 5, 7: 7, 9: 3, 25: 5}[m] > c
    and m ** free_nilpotent_group(r, c).k <= 5 ** 5]


# prime powers p^e with e >= 2 past those above, orders up to 27^3
PRIME_POWER_CASES = [(2, 1, 27), (3, 1, 27), (2, 2, 27), (2, 1, 49)]


def fiber_walk_classes(setup):
    """Second reference: union-find over all m^k elements.

    Each move sends (l, t) to (f(l), t + s(l)) as ``_fiber_split`` reads
    it, streamed over the whole fiber of each low point l; classes are the
    order less the successful unions.  For groups too large for
    ``stepwise_classes``.
    """
    m, k = setup.modulus, setup.k
    kl = k - witt_dimension(setup.r, setup.c)
    moves = [_fiber_split(polys, kl) for polys in setup.move_maps()]
    order, fiber = m ** k, m ** (k - kl)
    weights = [m ** (k - 1 - j) for j in range(k)]
    parent = list(range(order))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    unions = 0
    for start, x in zip(range(0, order, fiber), product(range(m), repeat=kl)):
        for low, shifts in moves:
            base = sum(w * _eval_reduced(f, x, m)
                       for w, f in zip(weights, low))
            rotations = [[w * ((t + _eval_reduced(s, x, m)) % m)
                          for t in range(m)]
                         for w, s in zip(weights[kl:], shifts)]
            for src, dst in enumerate(map(sum, product([base], *rotations)),
                                      start):
                rx, ry = find(src), find(dst)
                if rx != ry:
                    parent[ry] = rx
                    unions += 1
    return order - unions


class TestComposedMoves:
    def test_case_grid(self):
        assert len(SMALL_CASES) == 15
        assert (2, 3, 5) in SMALL_CASES and (3, 2, 3) in SMALL_CASES

    @pytest.mark.parametrize("r,c,m", SMALL_CASES)
    def test_identity_twist_matches_stepwise(self, r, c, m):
        setup = FiniteTwistedSetup.identity_twist(r, c, m)
        assert brute_force_twisted_classes(setup) == stepwise_classes(setup)

    @pytest.mark.parametrize("r,c,m", SMALL_CASES)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_images_match_stepwise(self, r, c, m, data):
        k = free_nilpotent_group(r, c).k
        coords = st.tuples(*[st.integers(0, m - 1)] * k)
        images = data.draw(st.lists(coords, min_size=r, max_size=r))
        setup = FiniteTwistedSetup(r, c, m, images)
        assert brute_force_twisted_classes(setup) == stepwise_classes(setup)

    @pytest.mark.parametrize("r,c,m", PRIME_POWER_CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_prime_power_images_match_stepwise(self, r, c, m, data):
        k = free_nilpotent_group(r, c).k
        coords = st.tuples(*[st.integers(0, m - 1)] * k)
        images = data.draw(st.lists(coords, min_size=r, max_size=r))
        setup = FiniteTwistedSetup(r, c, m, images)
        assert brute_force_twisted_classes(setup) == stepwise_classes(setup)

    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_rank_three_class_two_mod_nine_matches_fiber_walk(self, data):
        # 9^6 = 531,441 elements: past what ``stepwise_classes`` does in
        # a test, so the reference is the walk over every element
        coords = st.tuples(*[st.integers(0, 8)] * 6)
        images = data.draw(st.lists(coords, min_size=3, max_size=3))
        setup = FiniteTwistedSetup(3, 2, 9, images)
        assert brute_force_twisted_classes(setup) == fiber_walk_classes(setup)

    @pytest.mark.parametrize("r,m", [(r, m) for r, c, m in SMALL_CASES
                                     if c == 1])
    def test_abelian_matrices_match_stepwise(self, r, m):
        rng = random.Random(r * m)
        for _ in range(3):
            mat = IntMatrix([[rng.randint(-3, 3) for _ in range(r)]
                             for _ in range(r)])
            setup = FiniteTwistedSetup.from_abelian_matrix(mat, m)
            assert (brute_force_twisted_classes(setup)
                    == stepwise_classes(setup))

    @pytest.mark.parametrize("r,p", [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5)])
    def test_class_two_closed_form(self, r, p):
        # conjugacy classes of N_{r,2} mod p: p^m + p^(m+1) - p^(m-r+1)
        # with m = r(r-1)/2 commutator coordinates
        m = r * (r - 1) // 2
        setup = FiniteTwistedSetup.identity_twist(r, 2, p)
        assert brute_force_twisted_classes(setup) == (
            p ** m + p ** (m + 1) - p ** (m - r + 1))

    @pytest.mark.parametrize("r,c,m", SMALL_CASES)
    def test_fiber_images_are_the_moves(self, r, c, m):
        # each move sends (l, t) to (f(l), t + s(l)), with f and s read
        # off ``_fiber_split``, as z (l, t) phi(z)^-1 by the reduced group
        # law does, for every low point l and top value t, under the
        # identity twist and a seeded one
        ambient = free_nilpotent_group(r, c)
        k, rng = ambient.k, random.Random(f"{r} {c} {m}")
        kl = k - witt_dimension(r, c)
        seeded = [[rng.randrange(m) for _ in range(k)] for _ in range(r)]
        for images in (None, seeded):
            setup = FiniteTwistedSetup(r, c, m, images)
            moves = [_fiber_split(polys, kl) for polys in setup.move_maps()]
            for i, (low, shifts) in enumerate(moves):
                z = ambient.generator(i).coords
                w = setup.inverse(setup.images[i])
                for x in product(range(m), repeat=kl):
                    fx = tuple(_eval_reduced(f, x, m) for f in low)
                    sx = [_eval_reduced(s, x, m) for s in shifts]
                    for top in product(range(m), repeat=k - kl):
                        moved = fx + tuple((t + s) % m
                                           for t, s in zip(top, sx))
                        assert setup.multiply(setup.multiply(z, x + top),
                                              w) == moved, (images, i, x)

    def test_multiply_matches_exact_group_law(self, monkeypatch):
        rng = random.Random(5)
        # no count is made, so the order cap may admit 25^8 elements
        monkeypatch.setattr(rinfty.oracle, "MAX_ORDER", 25 ** 8)
        for r, c, m in [(2, 3, 5), (3, 2, 9), (2, 4, 25)]:
            ambient = free_nilpotent_group(r, c)
            setup = FiniteTwistedSetup.identity_twist(r, c, m)
            for _ in range(10):
                a = [rng.randint(-6, 6) for _ in range(ambient.k)]
                b = [rng.randint(-6, 6) for _ in range(ambient.k)]
                exact = ambient.multiply_coords(a, b)
                assert setup.multiply([x % m for x in a], [x % m for x in b]) \
                    == tuple(x % m for x in exact)
                assert setup.inverse([x % m for x in a]) == tuple(
                    x % m for x in ambient.inverse_coords(a))

    def test_few_group_operations_per_count(self, monkeypatch):
        # the moves are composed once per generator; the parent path made
        # 2 * 3 * 5^6 = 93,750 multiplications on this setup
        setup = FiniteTwistedSetup.identity_twist(3, 2, 5)
        calls = []
        for name in ("multiply", "inverse"):
            original = getattr(FiniteTwistedSetup, name)

            def counted(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(FiniteTwistedSetup, name, counted)
        assert brute_force_twisted_classes(setup) == 745
        assert len(calls) <= 2 * setup.r

    def test_moves_evaluated_once_per_low_point(self, monkeypatch):
        # r * k * m^kl = 3 * 6 * 5^3 evaluations; walking every element
        # evaluated 3 * 6 * 5^6 = 281,250
        setup = FiniteTwistedSetup.identity_twist(3, 2, 5)
        calls = []
        original = rinfty.oracle._eval_reduced

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(rinfty.oracle, "_eval_reduced", counted)
        assert brute_force_twisted_classes(setup) == 745
        assert len(calls) <= 3 * 6 * 5 ** 3

    def test_moves_evaluated_exactly_once_per_low_point(self, monkeypatch):
        # rank 3 class 2 mod 9: r * m^kl * k = 3 * 9^3 * 6 evaluations,
        # against 3 * 9^6 * 6 for one per element
        setup = FiniteTwistedSetup.identity_twist(3, 2, 9)
        calls = []
        original = rinfty.oracle._eval_reduced

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(rinfty.oracle, "_eval_reduced", counted)
        brute_force_twisted_classes(setup)
        assert len(calls) == 3 * 9 ** 3 * 6

    def test_rank_two_class_four_pinned(self):
        # 5^8 = 390,625 elements; 1345 classes at the element-wise walk too
        setup = FiniteTwistedSetup.identity_twist(2, 4, 5)
        start = time.process_time()
        assert brute_force_twisted_classes(setup) == 1345
        assert time.process_time() - start < 2


def closure_order(gens, m, n):
    """Order of the subgroup of (Z/m)^n generated by gens, by closure."""
    seen, frontier = {(0,) * n}, [(0,) * n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % m for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


class TestSubgroupOrder:
    @pytest.mark.parametrize("m,p", [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3),
                                     (27, 3), (25, 5)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_closure(self, m, p, data):
        n = data.draw(st.integers(1, 3))
        # multiples of powers of p, so that valuations vary
        entry = st.builds(lambda a, v: a * p ** v % m, st.integers(0, m - 1),
                          st.integers(0, 3))
        gens = data.draw(st.lists(st.tuples(*[entry] * n), max_size=5))
        assert _subgroup_order(gens, m) == closure_order(gens, m, n)

    def test_tail_row_carries_to_later_columns(self):
        # (3, 1) has order 9 in (Z/9)^2: the column-0 pivot 3 leaves
        # 3 * (3, 1) = (0, 3), of order 3, in column 1
        assert _subgroup_order([(3, 1)], 9) == 9
        assert closure_order([(3, 1)], 9, 2) == 9

    def test_no_generators(self):
        assert _subgroup_order([], 25) == 1
        assert _subgroup_order([(0, 0)], 25) == 1


def _gain_top_variable(polys, kl):
    polys[-1] = polys[-1] + ((1, ((kl, 1),)),)


def _lose_own_term(polys, kl):
    j = len(polys) - 1
    polys[j] = tuple(t for t in polys[j] if t != (1, ((j, 1),)))


def _double_own_term(polys, kl):
    j = len(polys) - 1
    polys[j] = tuple((2, f) if f == ((j, 1),) else (a, f)
                     for a, f in polys[j])


def _low_uses_top_variable(polys, kl):
    polys[0] = polys[0] + ((1, ((0, 1), (kl, 1))),)


class TestFiberShapeRefused:
    @pytest.mark.parametrize("broken,coordinate", [
        (_gain_top_variable, 4), (_lose_own_term, 4), (_double_own_term, 4),
        (_low_uses_top_variable, 0)],
        ids=["top-gains-top-variable", "top-loses-own-term",
             "top-own-term-doubled", "low-uses-top-variable"])
    def test_broken_move_raises_before_counting(self, monkeypatch, broken,
                                                coordinate):
        # rank 2 class 3: k = 5 coordinates, the top two of degree 3; the
        # last move is broken, so every move must be checked
        setup = FiniteTwistedSetup.identity_twist(2, 3, 5)
        original = FiniteTwistedSetup.move_maps

        def move_maps(self):
            maps = original(self)
            broken(maps[-1], 3)
            return maps

        def evaluated(*args):
            raise AssertionError("a move was evaluated before the check")

        monkeypatch.setattr(FiniteTwistedSetup, "move_maps", move_maps)
        monkeypatch.setattr(rinfty.oracle, "_eval_reduced", evaluated)
        with pytest.raises(ValueError,
                           match=f"^move coordinate {coordinate} "):
            brute_force_twisted_classes(setup)


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
