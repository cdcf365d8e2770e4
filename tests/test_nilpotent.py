import hashlib
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinfty.mvpoly import MPoly
from rinfty.nilpotent import (build_power_table,
                              free_nilpotent_group, free_rank_certificate,
                              nth_root, padding_data, padding_exponent,
                              power_padding, ser_add, ser_exp, ser_inv,
                              ser_log, ser_mul, ser_scale, ser_unit)


def coords_strategy(group, bound=3):
    return st.lists(st.integers(-bound, bound), min_size=group.k,
                    max_size=group.k).map(lambda c: group.element(c))


G22 = free_nilpotent_group(2, 2)
G23 = free_nilpotent_group(2, 3)
G33 = free_nilpotent_group(3, 3)


class TestGroupLaws:
    @settings(max_examples=30, deadline=None)
    @given(coords_strategy(G23), coords_strategy(G23), coords_strategy(G23))
    def test_associativity(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @settings(max_examples=30, deadline=None)
    @given(coords_strategy(G33, 2))
    def test_inverse_identity(self, u):
        assert u * u.inverse() == G33.identity
        assert u.inverse() * u == G33.identity
        assert u * G33.identity == u

    @settings(max_examples=25, deadline=None)
    @given(coords_strategy(G23, 2), st.integers(-6, 6), st.integers(-6, 6))
    def test_power_additivity(self, u, m, n):
        assert u ** (m + n) == u ** m * u ** n

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(1)
        for _ in range(10):
            u = G23.element([rng.randint(-2, 2) for _ in range(G23.k)])
            acc = G23.identity
            for n in range(5):
                assert u ** n == acc
                acc = acc * u

    def test_deeper_ambient_laws(self):
        rng = random.Random(2)
        g = free_nilpotent_group(3, 4)
        for _ in range(3):
            u = g.element([rng.randint(-1, 1) for _ in range(g.k)])
            v = g.element([rng.randint(-1, 1) for _ in range(g.k)])
            w = g.element([rng.randint(-1, 1) for _ in range(g.k)])
            assert (u * v) * w == u * (v * w)
            assert (u * v).inverse() == v.inverse() * u.inverse()


@st.composite
def hall_combinations(draw, group):
    """A degree d of the group and integer coefficients on its Hall basis."""
    d = draw(st.integers(1, group.c))
    h = group.table.dim(d)
    return d, draw(st.lists(st.integers(-7, 7), min_size=h, max_size=h))


G34 = free_nilpotent_group(3, 4)
G26 = free_nilpotent_group(2, 6)


class TestLieCoordinates:
    @pytest.mark.parametrize("group", [G34, G26], ids=["N34", "N26"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hall_combinations_round_trip(self, group, data):
        d, coeffs = data.draw(hall_combinations(group))
        part = {}
        for local, x in enumerate(coeffs):
            for w, v in group.lie_series(d, local).items():
                part[w] = part.get(w, 0) + x * v
        assert group.lie_coordinates(part, d) == coeffs

    def test_non_lie_element_rejected(self):
        with pytest.raises(AssertionError, match="not a Lie element"):
            G34.lie_coordinates({(0, 1): Fraction(1)}, 2)


class TestNormalForm:
    def test_collection_single_step(self):
        # basis order a, b, [b,a]: collecting b*a moves the commutator right
        a, b = G22.generators()
        assert (b * a).coords == (1, 1, 1)
        assert a * b * (b.inverse() * a.inverse() * b * a) == b * a

    def test_class_two_square_identity(self):
        a, b = G22.generators()
        ab = a * b
        comm = b.inverse() * a.inverse() * b * a
        assert ab * ab == (a * a) * (b * b) * comm
        assert (ab ** 2).coords == (2, 2, 1)
        assert ab ** 2 == ab * ab

    def test_identity_is_zero_vector(self):
        assert G22.identity.coords == (0, 0, 0)

    def test_lower_central_membership(self):
        # x lies in gamma_d when its coordinates of degree < d vanish
        def lowest_degree(x):
            return min(deg for (deg, _), c in zip(G23.basis, x.coords) if c)

        a, b = G23.generators()
        comm = b.inverse() * a.inverse() * b * a
        assert lowest_degree(comm) == 2
        deep = comm.inverse() * a.inverse() * comm * a
        assert lowest_degree(deep) == 3

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            G22.generator(0) * G23.generator(0)


M_VARS = ("m",)


def _naive_mul(a, b, c):
    """Product of {word: coeff} dicts over all word pairs, cut at length c."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= c:
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: v for w, v in out.items() if v}


def _series(flat, c):
    """The canonical series of a {word: rational} dict, words of length <= c.

    Over the lcm of the coefficient denominators the numerators have no
    common factor with it, so the pair is already in lowest form.
    """
    den = lcm(*(v.denominator for v in flat.values()))
    parts = [{} for _ in range(c + 1)]
    for w, v in flat.items():
        parts[len(w)][w] = (v * den).numerator
    return den, parts


def _is_canonical(series):
    """Positive int denominator, integer numerators, content gcd 1."""
    den, parts = series
    g = den
    for d, part in enumerate(parts):
        for w, v in part.items():
            if len(w) != d or not v:
                return False
            if isinstance(v, MPoly):
                if v.denominator != 1:
                    return False
                g = gcd(g, *v.terms.values())
            elif isinstance(v, int):
                g = gcd(g, v)
            else:
                return False
    return isinstance(den, int) and den > 0 and g == 1


def _naive_exp(flat, c, one):
    """sum over j <= c of flat^j / j!, by naive word-pair products."""
    out, term = {(): one}, {(): one}
    for j in range(1, c + 1):
        term = _naive_mul(term, flat, c)
        for w, v in term.items():
            out[w] = out.get(w, 0) + v / factorial(j)
    return {w: v for w, v in out.items() if v}


@st.composite
def flat_series(draw, c, coefficient):
    """Up to 8 words of length <= c on two letters, nonzero coefficients."""
    words = draw(st.lists(st.lists(st.integers(0, 1), max_size=c).map(tuple),
                          max_size=8, unique=True))
    out = {w: draw(coefficient) for w in words}
    return {w: v for w, v in out.items() if v}


_SMALL = st.integers(-3, 3)
_FRACTIONS = st.builds(Fraction, _SMALL, st.integers(1, 3))
_POLYS = st.builds(lambda x, y: x * MPoly.variable(M_VARS, "m") + y,
                   _SMALL, _FRACTIONS)
_RINGS = pytest.mark.parametrize(
    "coefficient,one", [(_FRACTIONS, 1), (_POLYS, MPoly.constant(M_VARS, 1))],
    ids=["Fraction", "MPoly"])


class TestSeries:
    def test_series_preconditions_raise(self):
        one = MPoly.constant(M_VARS, 1)
        twice = (1, [{(): 2}, {(0,): 1}, {}, {}])
        for series in (twice, (1, [{(): 2 * one}, {}, {}, {}])):
            with pytest.raises(ValueError):
                ser_log(series)
            with pytest.raises(ValueError):
                ser_inv(series)
        with pytest.raises(ValueError):
            ser_exp(ser_unit(3))
        with pytest.raises(AssertionError):
            G22.peel((1, [{(): 2}, {}, {}]))

    @pytest.mark.parametrize("coefficient", [_FRACTIONS, _POLYS],
                             ids=["Fraction", "MPoly"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mul_matches_naive_word_pairs(self, coefficient, data):
        c = data.draw(st.integers(1, 5))
        a = data.draw(flat_series(c, coefficient))
        b = data.draw(flat_series(c, coefficient))
        prod = ser_mul(_series(a, c), _series(b, c))
        assert prod == _series(_naive_mul(a, b, c), c)
        assert _is_canonical(prod)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_exp_log_inv_round_trip(self, data):
        c = data.draw(st.integers(1, 4))
        flat = data.draw(flat_series(c, _FRACTIONS))
        ell = _series({w: v for w, v in flat.items() if w}, c)
        e = ser_exp(ell)
        assert ser_log(e) == ell
        assert ser_mul(e, ser_inv(e)) == ser_unit(c)

    @_RINGS
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_add_and_exp_match_fraction_reference(self, coefficient, one,
                                                  data):
        c = data.draw(st.integers(1, 4))
        a = data.draw(flat_series(c, coefficient))
        b = data.draw(flat_series(c, coefficient))
        scale = data.draw(st.builds(Fraction, _SMALL, st.integers(1, 12)))
        total = ser_add((1, _series(a, c)), (scale, _series(b, c)))
        naive = dict(a)
        for w, v in b.items():
            naive[w] = naive.get(w, 0) + scale * v
        assert total == _series({w: v for w, v in naive.items() if v}, c)
        ell = {w: v for w, v in a.items() if w}
        e = ser_exp(_series(ell, c), one)
        assert e == _series(_naive_exp(ell, c, one), c)
        log = ser_log(e)
        assert log == _series(ell, c)
        inv = ser_inv(e)
        for series in (total, e, log, inv, ser_mul(e, inv),
                       ser_scale(e, scale)):
            assert _is_canonical(series)
        assert ser_mul(e, inv) == ser_unit(c, one)

    @pytest.mark.parametrize("group", [G23, G33], ids=["N23", "N33"])
    def test_group_series_are_canonical(self, group):
        rng = random.Random(4)
        for dl in group.basis:
            assert _is_canonical(group.log_basis(*dl))
        for _ in range(5):
            coords = [rng.randint(-3, 3) for _ in range(group.k)]
            series = group.series_from_coords(coords)
            assert _is_canonical(series)
            assert _is_canonical(ser_log(series))
            assert group.peel(series) == coords


class TestPowerTable:
    def test_q2_vanishes(self):
        table = build_power_table(2, 2)
        assert not table.q(2)

    def test_heisenberg_q3_is_binomial(self):
        table = build_power_table(2, 2)
        names = table.variables
        x1 = MPoly.variable(names, "x1")
        x2 = MPoly.variable(names, "x2")
        m = MPoly.variable(names, "m")
        assert table.q(3) == (m * m - m) / 2 * x1 * x2

    def test_power_of_one_is_trivial(self):
        for r, c in [(2, 2), (2, 3)]:
            table = build_power_table(r, c)
            for j in range(1, table.ambient.k + 1):
                sub = table.q(j).substitute({"m": 1})
                assert not sub

    def test_table_matches_group_power(self):
        rng = random.Random(5)
        for r, c in [(2, 2), (2, 3), (3, 2)]:
            table = build_power_table(r, c)
            group = table.ambient
            for _ in range(6):
                u = group.element([rng.randint(-2, 2) for _ in range(group.k)])
                m = rng.randint(-4, 4)
                assert table.power_coordinates(u.coords, m) == (u ** m).coords


class TestRoots:
    def test_quarter_turn_roundtrip(self):
        rng = random.Random(6)
        for group in (G22, G23, G33):
            for _ in range(6):
                w = group.element([rng.randint(-2, 2) for _ in range(group.k)])
                s = rng.choice([2, 3])
                u = w ** s
                assert nth_root(u, s) == w

    def test_root_of_fourth_powers(self):
        a, b = G22.generators()
        u = a ** 4 * b ** 4
        root = nth_root(u, 2)
        assert root is not None
        assert root ** 2 == u
        assert root.coords == (2, 2, -2)

    def test_no_root_returns_none(self):
        a, _ = G22.generators()
        assert nth_root(a, 2) is None

    def test_s_to_the_c_powers_have_roots(self):
        rng = random.Random(7)
        for s in (2, 3):
            for c in (2, 3):
                group = free_nilpotent_group(2, c)
                for _ in range(5):
                    u = group.identity
                    for _ in range(3):
                        w = group.element([rng.randint(-2, 2)
                                           for _ in range(group.k)])
                        u = u * w ** (s ** c)
                    v = nth_root(u, s)
                    assert v is not None
                    assert v ** s == u

    def test_genus_level_square_root(self):
        for g in (2, 3):
            for c in (2, 3):
                group = free_nilpotent_group(g, c)
                u = group.identity
                for i in range(g):
                    u = u * group.generator(i) ** (2 ** c)
                d = nth_root(u, 2)
                assert d is not None
                assert d ** 2 == u

    def test_small_s_rejected(self):
        with pytest.raises(ValueError):
            nth_root(G22.identity, 1)


class TestPadding:
    def test_class_two_values(self):
        assert padding_exponent(2, 2) == 4
        a, b = G22.generators()
        f, z = power_padding(2, a, b)
        assert f == 4
        assert z.coords == (0, 2, -1)
        assert a ** 2 * b ** 4 == (a * z) ** 2

    def test_identity_padding(self):
        a, _ = G22.generators()
        f, z = power_padding(2, a, G22.identity)
        assert z == G22.identity

    def test_padding_polynomials_have_no_constant_term(self):
        _, polys = padding_data(2, 3)
        for q in polys:
            assert q.constant_term() == 0

    def test_random_roundtrips(self):
        rng = random.Random(8)
        for _ in range(12):
            x = G23.element([rng.randint(-2, 2) for _ in range(G23.k)])
            y = G23.element([rng.randint(-2, 2) for _ in range(G23.k)])
            n = rng.choice([2, 3])
            f, z = power_padding(n, x, y)
            assert x ** n * y ** f == (x * z) ** n

    def test_z_lies_in_y_and_commutators(self):
        # degree-1 coordinates of z must be a multiple of y's alone when
        # y is a generator
        rng = random.Random(9)
        x_full = G23.element([1, 2, 0, -1, 1])
        y = G23.generator(1)
        f, z = power_padding(2, x_full, y)
        assert z.abelianized()[0] == 0

    def test_depends_only_on_n_and_class(self):
        assert padding_exponent(2, 3) == padding_data(2, 3)[0]
        f23 = padding_exponent(2, 3)
        g24 = free_nilpotent_group(2, 3)
        x = g24.generator(0)
        y = g24.generator(1)
        f, _ = power_padding(2, x, y)
        assert f == f23


def _term_listing(polys):
    return "\n".join(
        f"{i}: " + " ".join(f"{e}:{Fraction(c, q.denominator)}"
                            for e, c in sorted(q.terms.items()))
        for i, q in enumerate(polys))


# (n, c) -> f(n, c) and a sha256 prefix of ``_term_listing`` of the
# coordinate polynomials of z, recorded from the separate-exponential
# computation (a^n, b^m and a^-1 multiplied out as series); (2, 7) from
# the exp(t * log) map on Fraction coefficients
PADDING_PINS = {
    (2, 1): (2, "43aec793d92a9c28"),
    (2, 2): (4, "bf4fc234cfcc13f9"),
    (2, 3): (8, "e4de4b16db6e93f1"),
    (2, 4): (192, "ef6d77a0d6d1f5f2"),
    (2, 5): (384, "8e28d6a5c0703cad"),
    (2, 6): (7680, "b30364ca7fe6cb3c"),
    (2, 7): (46080, "38670f21289efbce"),
    (3, 1): (3, "b4229c054a950566"),
    (3, 2): (3, "1175ae8c3185b061"),
    (3, 3): (54, "c39925488ffca21b"),
    (3, 4): (54, "c8ba3aba00a3ada6"),
}


class TestPinnedPolynomials:
    @pytest.mark.parametrize("n,c", sorted(PADDING_PINS))
    def test_padding_data(self, n, c):
        f, polys = padding_data(n, c)
        digest = hashlib.sha256(_term_listing(polys).encode()).hexdigest()
        assert (f, digest[:16]) == PADDING_PINS[n, c]
        assert len(polys) == free_nilpotent_group(2, c).k

    def test_class_three_padding_polynomials(self):
        m = MPoly.variable(("m",), "m")
        assert padding_data(2, 3)[1] == (0, m / 2, -m / 4, m / 8,
                                         (m - m * m) / 8)
        assert padding_data(3, 3)[1] == (0, m / 3, -m / 3, 2 * m / 9,
                                         m / 6 - 7 * m * m / 54)

    def test_power_table_rank_two_class_three(self):
        table = build_power_table(2, 3)
        x1, x2, x3, m = (MPoly.variable(table.variables, name)
                         for name in ("x1", "x2", "x3", "m"))
        assert table.polys == (
            0, 0, (m * m - m) / 2 * x1 * x2,
            (2 * m ** 3 - 3 * m * m + m) / 12 * x1 * x1 * x2
            + (m - m * m) / 4 * x1 * x2 + (m * m - m) / 2 * x1 * x3,
            (4 * m ** 3 - 3 * m * m - m) / 12 * x1 * x2 * x2
            + (m - m * m) / 4 * x1 * x2 + (m * m - m) / 2 * x2 * x3)


class TestFreeRankCertificate:
    def test_scaled_generators(self):
        for g, c in [(2, 2), (3, 3)]:
            group = free_nilpotent_group(g, c)
            gens = [group.generator(i) ** (2 ** (c - 1)) for i in range(g)]
            assert free_rank_certificate(gens)

    def test_dependent_pair_fails(self):
        a, _ = G22.generators()
        assert not free_rank_certificate([a, a ** 2])

    def test_commutator_perturbation_passes(self):
        a, b = G22.generators()
        comm = a.inverse() * b.inverse() * a * b
        assert free_rank_certificate([a * comm, b])

    def test_too_many_elements(self):
        a, b = G22.generators()
        with pytest.raises(ValueError):
            free_rank_certificate([a, b, a * b])
