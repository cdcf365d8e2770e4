import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rinfty.analysis
import rinfty.freelie
import rinfty.intlinalg
from rinfty.analysis import (RinfVerdict, SurfaceSpec, _has_root_i,
                             admissibility, nonorientable_base_matrices,
                             nonorientable_charpoly_formula,
                             nonorientable_witness, omega, orientable_witness,
                             rinf_degree, sample_admissible,
                             solvability_quotient_check,
                             structural_sample_report, surface_character)
from rinfty.errors import ResourceLimitError
from rinfty.freelie import ShapeCharacter, build_hall_basis, induced_tower
from rinfty.intlinalg import (IntMatrix, IntPoly, _ShapeKernel, charpoly,
                              dominance_root_test, kfold_value_at_one,
                              split_at_one)
from rinfty.nilpotent import padding_exponent

from tower_oracles import (LabuteCharacter, bigcondition_equivalence,
                           dense_admissibility, dense_sample_admissible,
                           fixed_point_dets, orientable_context,
                           relator_image_sign, sample_nonadmissible,
                           symmetric_power_charpoly)

S2 = orientable_witness(2)

# minus-admissible with characteristic polynomial (x^2+1)^2: the +-i sub-case
S_PM_I = IntMatrix([[0, 0, -1, 1], [0, -1, -2, 3], [2, 1, 2, -2], [1, 0, 1, -1]])


# genus 1..6, sign, an int, str or tuple seed and a length 0..20
_SAMPLE_ARGS = st.tuples(
    st.integers(1, 6), st.sampled_from(["plus", "minus"]),
    st.one_of(st.integers(-2 ** 64, 2 ** 64), st.text(max_size=6),
              st.tuples(st.text(max_size=3), st.integers(0, 99))),
    st.integers(0, 20))

_DROP = object()


def _edit(*changes):
    """Document mutator setting each (path, value); ``_DROP`` deletes the key."""
    def apply(doc):
        for path, value in changes:
            target = doc
            for key in path[:-1]:
                target = target[key]
            if value is _DROP:
                del target[path[-1]]
            else:
                target[path[-1]] = value
        return doc
    return apply


def _twist(m):
    """Mutator giving the genus-3 document a self-consistent witness of twist m."""
    def apply(doc):
        el, a = nonorientable_base_matrices(2, m)
        w = el @ a
        p = charpoly(w)
        sym = {i: symmetric_power_charpoly(p, i)(1) for i in (1, 2, 3)}
        return _edit(
            (("witness", "m"), m),
            (("witness", "matrix"), [list(r) for r in w.entries]),
            (("witness", "matrix_text"), w.to_text()),
            (("witness", "symmetric_power_at_one"),
             {str(i): v for i, v in sym.items()}),
            (("structural", "witness_determinant"), w.det()))(doc)
    return apply


class TestSurfaceSpec:
    def test_torus_excluded(self):
        with pytest.raises(ValueError):
            SurfaceSpec(True, 1)

    def test_klein_bottle_excluded(self):
        with pytest.raises(ValueError):
            SurfaceSpec(False, 2)

    def test_ranks(self):
        assert SurfaceSpec(True, 2).rank == 4
        assert SurfaceSpec(False, 3).rank == 2


class TestOmega:
    def test_block_form(self):
        assert omega(1) == IntMatrix([[0, 1], [-1, 0]])

    def test_square_is_minus_identity(self):
        for g in (1, 2, 3):
            om = omega(g)
            assert om @ om == -1 * IntMatrix.identity(2 * g)
            assert om.transpose() == -1 * om


class TestAdmissibility:
    def test_identity_plus(self):
        assert admissibility(IntMatrix.identity(4), 2) == "plus"

    def test_witness_minus(self):
        assert admissibility(S2, 2) == "minus"
        assert admissibility(orientable_witness(3), 3) == "minus"

    def test_scaling_breaks_it(self):
        assert admissibility(2 * IntMatrix.identity(4), 2) == "none"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            admissibility(IntMatrix.identity(4), 3)

    @pytest.mark.parametrize("s,g,message", [
        (IntMatrix.identity(4), 3, "matrix must be 6x6"),
        (IntMatrix.identity(6), 2, "matrix must be 4x4"),
        (IntMatrix.zeros(4, 6), 2, "matrix must be 4x4"),
        (IntMatrix.zeros(6, 4), 3, "matrix must be 6x6"),
        (IntMatrix.identity(2), 0, "matrix must be 0x0"),
        (IntMatrix([]), -1, "matrix must be -2x-2"),
        (IntMatrix([]), 0, "need g >= 1")])
    def test_size_mismatch_like_the_dense_oracle(self, s, g, message):
        for classify in (admissibility, dense_admissibility):
            with pytest.raises(ValueError, match=f"^{message}$"):
                classify(s, g)

    @settings(max_examples=60, deadline=None)
    @given(_SAMPLE_ARGS)
    def test_samples_match_the_dense_oracle(self, args):
        g, sign, seed, length = args
        s = sample_admissible(g, sign, seed, length=length)
        assert admissibility(s, g) == dense_admissibility(s, g) == sign

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.lists(st.integers(-2, 2), min_size=2 * g,
                                      max_size=2 * g),
                             min_size=2 * g, max_size=2 * g))))
    def test_random_matrices_match_the_dense_oracle(self, args):
        g, rows = args
        s = IntMatrix(rows)
        assert admissibility(s, g) == dense_admissibility(s, g)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
    def test_multiples_of_identity_and_omega(self, g, k):
        # k Omega gives k^2 Omega: plus for k = +-1, none otherwise; k I
        # gives k^2 Omega too
        for s in (k * omega(g), k * IntMatrix.identity(2 * g)):
            got = admissibility(s, g)
            assert got == dense_admissibility(s, g)
            assert got == ("plus" if k in (1, -1) else "none")

    @settings(max_examples=100, deadline=None)
    @given(_SAMPLE_ARGS, st.data())
    def test_one_perturbed_entry_matches_the_dense_oracle(self, args, data):
        g, sign, seed, length = args
        rows = [list(r) for r in sample_admissible(g, sign, seed,
                                                   length=length).entries]
        i, j = (data.draw(st.integers(0, 2 * g - 1)) for _ in range(2))
        rows[i][j] += data.draw(st.integers(-3, 3).filter(bool))
        s = IntMatrix(rows)
        assert admissibility(s, g) == dense_admissibility(s, g)


class TestBigcondition:
    def test_witness_sign_minus(self, table_g2):
        assert relator_image_sign(S2, 2, table_g2) == "minus"
        assert bigcondition_equivalence(S2, 2, table_g2)

    def test_identity_sign_plus(self, table_g2):
        assert relator_image_sign(IntMatrix.identity(4), 2, table_g2) == "plus"
        assert bigcondition_equivalence(IntMatrix.identity(4), 2, table_g2)

    def test_random_suite(self, table_g2):
        for i in range(40):
            sign = "plus" if i % 2 == 0 else "minus"
            s = sample_admissible(2, sign, seed=("big", i), length=7)
            assert bigcondition_equivalence(s, 2, table_g2)
        for i in range(40):
            s = sample_nonadmissible(2, seed=("bad", i))
            assert bigcondition_equivalence(s, 2, table_g2)


class TestSampling:
    @settings(max_examples=150, deadline=None)
    @given(_SAMPLE_ARGS)
    def test_matches_the_dense_oracle(self, args):
        g, sign, seed, length = args
        s = sample_admissible(g, sign, seed, length=length)
        assert s == dense_sample_admissible(g, sign, seed, length=length)

    def test_requested_signs(self):
        for i in range(10):
            assert admissibility(sample_admissible(2, "plus", i), 2) == "plus"
            assert admissibility(sample_admissible(3, "minus", i), 3) == "minus"

    def test_seed_determinism(self):
        a = sample_admissible(2, "minus", seed=42)
        b = sample_admissible(2, "minus", seed=42)
        assert a == b

    def test_length_zero(self):
        assert sample_admissible(2, "plus", 0, length=0) == IntMatrix.identity(4)
        p = IntMatrix.block_diag([IntMatrix([[0, 1], [1, 0]])] * 2)
        assert sample_admissible(2, "minus", 0, length=0) == p

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            sample_admissible(2, "plus", 0, length=-5)

    def test_entries_grow_with_length(self):
        small = sample_admissible(2, "plus", 5, length=2)
        large = sample_admissible(2, "plus", 5, length=40)
        def norm(m):
            return max(abs(x) for row in m.entries for x in row)
        assert norm(large) > norm(small)

    def test_samples_are_unimodular(self):
        for i in range(6):
            s = sample_admissible(2, "plus" if i % 2 else "minus", i)
            assert s.det() in (1, -1)

    def test_reciprocal_symmetry_never_fails(self):
        for g in (2, 3):
            for i in range(20):
                sign = "plus" if i % 2 == 0 else "minus"
                s = sample_admissible(g, sign, seed=("sym", g, i), length=8)
                a = list(charpoly(s).coeffs)
                assert len(a) == 2 * g + 1
                if sign == "plus":  # roots pair as x <-> 1/x
                    assert a == a[::-1]
                else:  # roots pair as x <-> -1/x
                    alt = [(-1) ** j * c for j, c in enumerate(a[::-1])]
                    assert a in (alt, [-c for c in alt])


class TestOrientableWitness:
    def test_block_matrix(self):
        assert S2 == IntMatrix([[1, 2, 0, 0], [1, 1, 0, 0],
                                [0, 0, 1, 2], [0, 0, 1, 1]])

    def test_charpoly_power(self):
        for g in (2, 3):
            w = orientable_witness(g)
            assert charpoly(w) == IntPoly([-1, -2, 1]) ** g
        assert charpoly(S2)(1) == 4

    def test_genus_guard(self):
        with pytest.raises(ValueError):
            orientable_witness(1)


class TestNonorientableWitness:
    def test_base_matrices_shape(self):
        el, a = nonorientable_base_matrices(3, 7)
        assert a == IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 7]])
        assert el == IntMatrix([[0, 0, -1], [1, 0, -1], [0, 1, -1]])

    def test_charpoly_formula_all_m(self):
        for g in (2, 3, 4):
            for m in (1, 2, 10):
                el, a = nonorientable_base_matrices(g, m)
                w = el @ a ** (g - 1)
                assert charpoly(w) == nonorientable_charpoly_formula(g, m)
                assert w.det() == -1

    def test_search_genus_two(self):
        w, m, sym = nonorientable_witness(2, 3)
        f = padding_exponent(2, 3)
        assert m % (f ** 3) == 0 or any(m == (k * f) ** 3 for k in range(1, 5))
        p = charpoly(w)
        assert dominance_root_test(p)
        assert sym == {i: symmetric_power_charpoly(p, i)(1) for i in (1, 2, 3)}
        assert 0 not in sym.values()
        assert all(kfold_value_at_one(p, i) != 0 for i in (1, 2, 3))
        assert kfold_value_at_one(p, 4) == 0
        assert symmetric_power_charpoly(p, 4)(1) == 0

    def test_search_cap(self, monkeypatch):
        monkeypatch.setattr(rinfty.analysis, "MAX_M", 10)
        with pytest.raises(ResourceLimitError, match="passed the cap 10$"):
            nonorientable_witness(2, 3)

    def test_class_range(self):
        with pytest.raises(ValueError):
            nonorientable_witness(2, 4)

    def test_spectrum_degree_cap(self, monkeypatch):
        # shape_work(g, c) * c^2: 193,697 (g=4, c=7), 1,178,499 (g=5, c=7)
        # and 2,446,400 (g=40, c=2) start the search; 2,703,048 (g=41,
        # c=2), 3,340,000 (g=10, c=4) and 6,172,281 (g=5, c=9) are refused
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(rinfty.analysis, "padding_exponent", started)
        for g, c in ((4, 7), (5, 7), (40, 2), (6, 6), (9, 4), (15, 3)):
            with pytest.raises(Started):
                nonorientable_witness(g, c)
        with pytest.raises(ResourceLimitError, match=r"at least 675762 Newton "
                           r"steps \* 2\^2 = 2703048 exceeds cap 2500000"):
            nonorientable_witness(41, 2)
        for g, c in ((10, 4), (5, 9)):
            with pytest.raises(ResourceLimitError, match="exceeds cap"):
                nonorientable_witness(g, c)


class TestStructuralReports:
    def test_plus_case_multiplicity(self):
        for i in range(6):
            s = sample_admissible(2, "plus", seed=("case1", i), length=8)
            rep = structural_sample_report(s, 2)
            assert rep["sign"] == "plus"
            # degree 1 can already hit when S itself fixes a vector
            assert rep["first_eigenvalue_one_degree"] in (1, 2)
            assert rep["degree2_multiplicity"] >= 1

    def test_minus_generic_hits_four_or_earlier(self):
        rep = structural_sample_report(S2, 2)
        assert rep["sign"] == "minus"
        assert rep["first_eigenvalue_one_degree"] == 4
        assert rep["has_i_eigenvalue"] is False

    def test_minus_with_i_eigenvalue_hits_degree_two(self):
        assert admissibility(S_PM_I, 2) == "minus"
        assert charpoly(S_PM_I) == IntPoly([1, 0, 1]) ** 2
        rep = structural_sample_report(S_PM_I, 2)
        assert rep["has_i_eigenvalue"] is True
        assert rep["first_eigenvalue_one_degree"] == 2


def _at_i(p):
    """p(i) as (real, imaginary), by Horner's rule over the Gaussian integers."""
    re, im = 0, 0
    for c in reversed(p.coeffs):
        re, im = c - im, re
    return re, im


_POLYS = st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(IntPoly)


class TestPolynomialFacts:
    """The two divisibility facts the sample reports read off charpoly(S)."""

    @given(_POLYS.filter(lambda q: q(1) != 0), st.integers(0, 5))
    def test_multiplicity_of_one(self, q, k):
        assert split_at_one(IntPoly([-1, 1]) ** k * q) == (k, q(1))

    @given(_POLYS.filter(lambda q: not q.is_zero), st.integers(0, 3))
    def test_root_i(self, q, k):
        assert _has_root_i(IntPoly([1, 0, 1]) ** (k + 1) * q)
        assert _has_root_i(q) == (_at_i(q) == (0, 0))


class TestRinfDegree:
    def test_orientable_genus_two(self):
        verdict = rinf_degree(SurfaceSpec(True, 2), samples=4, seed=3)
        assert verdict.degree == 4
        assert set(verdict.witness_dets) == {1, 2, 3}
        assert all(v != 0 for v in verdict.witness_dets.values())
        assert verdict.structural["witness_metabelian_det"] == 0
        assert verdict.structural["kind"] == "structural-rinf"
        assert verdict.samples == 4

    @pytest.mark.parametrize("g", [2, 3])
    def test_orientable_verdict_forms_no_matrix_product(self, monkeypatch, g):
        # sampling, admissibility and the characters work on rows and
        # nonzeros: the verdict is the same with every product refused
        spec = SurfaceSpec(True, g)
        expected = rinf_degree(spec, samples=20).to_json_dict()
        def refuse(*args):
            raise AssertionError("matrix product in the orientable verdict")
        monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
        assert rinf_degree(spec, samples=20).to_json_dict() == expected

    def test_verdict_json_roundtrip_and_reverify(self):
        verdict = rinf_degree(SurfaceSpec(True, 2), samples=2, seed=5)
        data = verdict.to_json_dict()
        back = RinfVerdict.from_json_dict(data)
        assert back.degree == 4
        tampered = verdict.to_json_dict()
        tampered["witness"]["dets"]["2"] = 7
        with pytest.raises(ValueError):
            RinfVerdict.from_json_dict(tampered)

    @pytest.mark.parametrize("tamper", [
        _edit((("degree",), 3)),
        _edit((("structural", "class"), 3)),
        _edit((("structural", "sample_reports", 1,
                "first_eigenvalue_one_degree"), None)),
        _edit((("samples",), 1)),
        # the identity certifies nothing, yet its dets are self-consistent
        _edit((("witness", "matrix"),
               [list(r) for r in IntMatrix.identity(4).entries]),
              (("witness", "matrix_text"), IntMatrix.identity(4).to_text()),
              (("witness", "dets"), {"1": 0, "2": 0, "3": 0})),
        _edit((("structural", "kind"), "made-up")),
        _edit((("claim",), "the class-c quotients have R-infinity for c >= 2")),
        _edit((("structural", "claim"), "every action is covered")),
        _edit((("note",), "exhaustive")),
        _edit((("structural", "witness_metabelian_det"), False)),
        # two reports cannot back 10**9 samples; rejected without sampling
        _edit((("samples",), 10 ** 9)),
        _edit((("surface",), _DROP)),
        _edit((("samples",), "2")),
        lambda doc: [doc],
    ], ids=["degree", "structural-class", "sample-report", "samples",
            "identity-witness", "structural-kind", "claim", "structural-claim",
            "note", "metabelian-det-false", "samples-1e9", "surface-missing",
            "samples-string", "list-document"])
    def test_tampered_orientable_verdict_rejected(self, tamper):
        data = rinf_degree(SurfaceSpec(True, 2), samples=2, seed=5).to_json_dict()
        with pytest.raises(ValueError):
            RinfVerdict.from_json_dict(tamper(data))

    @pytest.mark.parametrize("tamper", [
        _edit((("degree",), 9)),
        _edit((("structural", "class"), 5)),
        _edit((("structural", "witness_determinant"), 5)),
        _edit((("witness", "m"), 1)),
        _edit((("witness", "m"), None)),
        # the search yields only m = (k f(2,3))^3, the first accepted is 512
        _twist(1), _twist(2), _twist(3), _twist(4),
        _edit((("structural", "kind"), "made-up")),
        _edit((("claim",), "the class-c quotients have R-infinity for c >= 2")),
        _edit((("structural", "claim"), "every action is covered")),
        _edit((("note",), "exhaustive")),
        # equal in Python, not as JSON text
        _edit((("structural", "witness_determinant"), -1.0)),
        _edit((("surface",), _DROP)),
        _edit((("surface", "genus"), "3")),
        lambda doc: [doc],
    ], ids=["degree", "structural-class", "witness-determinant", "m",
            "m-missing", "twist-1", "twist-2", "twist-3", "twist-4",
            "structural-kind", "claim", "structural-claim", "note",
            "determinant-float", "surface-missing", "genus-string",
            "list-document"])
    def test_tampered_nonorientable_verdict_rejected(self, tamper):
        data = rinf_degree(SurfaceSpec(False, 3)).to_json_dict()
        with pytest.raises(ValueError):
            RinfVerdict.from_json_dict(tamper(data))

    def test_nonorientable_genus_three(self):
        verdict = rinf_degree(SurfaceSpec(False, 3))
        assert verdict.degree == 4
        assert verdict.structural["kind"] == "product-criterion-rinf"
        assert verdict.structural["witness_determinant"] == -1
        assert verdict.witness_dets == {}
        assert all(v != 0
                   for v in verdict.witness_sym_at_one.values())
        RinfVerdict.from_json_dict(verdict.to_json_dict())

    def test_nonorientable_genus_four(self):
        verdict = rinf_degree(SurfaceSpec(False, 4))
        assert verdict.degree == 6
        assert set(verdict.witness_sym_at_one) == {1, 2, 3, 4, 5}

    def test_nonorientable_verdict_computes_each_quantity_once(self,
                                                              monkeypatch):
        # the witness search hands its Sym^i values over, one shape
        # polynomial per partition of i = 1..5 into at most 3 parts
        # (1 + 2 + 3 + 4 + 5), and its det(W) = -1; no tower
        calls = {"sym": 0, "tower": 0, "charpoly": 0, "det": 0}

        def counting(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_ShapeKernel, "__call__",
                            counting("sym", _ShapeKernel.__call__))
        monkeypatch.setattr(rinfty.freelie.InducedTower, "__init__",
                            counting("tower",
                                     rinfty.freelie.InducedTower.__init__))
        monkeypatch.setattr(rinfty.analysis, "charpoly",
                            counting("charpoly", charpoly))
        monkeypatch.setattr(IntMatrix, "det", counting("det", IntMatrix.det))
        verdict = rinf_degree(SurfaceSpec(False, 4))
        assert verdict.degree == 6
        assert calls == {"sym": 15, "tower": 0, "charpoly": 1, "det": 1}

    @pytest.mark.parametrize("genus", [3, 4])
    def test_free_tower_agrees_with_the_witness_certificate(self, genus):
        # the Sym^i values stand for det(I - M_i) on the free Lie ring:
        # nonzero below 2g, and the det(W)^2 = 1 eigenvalue at 2g
        g = genus - 1
        verdict = rinf_degree(SurfaceSpec(False, genus))
        tower = induced_tower(build_hall_basis(g, 2 * g),
                              verdict.witness_matrix)
        dets = dict(fixed_point_dets(tower, None, range(1, 2 * g + 1)))
        assert dets.pop(2 * g) == 0
        assert set(dets) == set(verdict.witness_sym_at_one)
        assert all(v != 0 for v in dets.values())

    @pytest.mark.parametrize("orientable,genus", [(True, 2), (False, 3)])
    def test_version_one_document_names_the_regenerating_command(
            self, orientable, genus):
        data = rinf_degree(SurfaceSpec(orientable, genus),
                           samples=2).to_json_dict()
        for schema in ("rinf-verdict/1", "rinf-verdict/2"):
            data["schema"] = schema
            with pytest.raises(ValueError, match=rf"^{schema} is no longer "
                               r"read; regenerate it with `rinfty degree "
                               r"--orientable\|--nonorientable --genus G"):
                RinfVerdict.from_json_dict(data)

    def test_nonorientable_genus_cap_stops_before_the_search(self,
                                                             monkeypatch):
        # genus 5 is past what finishes: refused before any witness work
        data = rinf_degree(SurfaceSpec(False, 4)).to_json_dict()
        data["surface"]["genus"] = 5

        def refuse(*args, **kwargs):
            raise AssertionError("the witness search started")

        monkeypatch.setattr(rinfty.analysis, "nonorientable_witness", refuse)
        with pytest.raises(ResourceLimitError):
            rinf_degree(SurfaceSpec(False, 5))
        with pytest.raises(ResourceLimitError):
            RinfVerdict.from_json_dict(data)

    def test_resource_guards(self):
        with pytest.raises(ResourceLimitError):
            rinf_degree(SurfaceSpec(True, 8))

    def test_document_bounded_by_the_sample_cap(self, monkeypatch):
        # 9,448 sample reports at genus 2 pass the sample-work cap in
        # ``rinf_degree``, as in ``degree``, before any sample is drawn
        data = rinf_degree(SurfaceSpec(True, 2), samples=2).to_json_dict()
        data["samples"] = 9448
        data["structural"]["sample_reports"] *= 4724

        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(rinfty.analysis, "sample_admissible", refuse)
        with pytest.raises(ResourceLimitError, match="^9448 samples of genus "
                           "2 take 100007080 Newton steps, above the sample "
                           "work cap 100000000$"):
            RinfVerdict.from_json_dict(data)

    def test_structural_claim_needs_a_sample(self):
        for samples in (0, -3):
            with pytest.raises(ValueError):
                rinf_degree(SurfaceSpec(True, 2), samples=samples)


class TestSolvability:
    def test_genus_two(self):
        assert solvability_quotient_check(2, samples=4, seed=1)

    def test_witness_is_covered(self):
        rep = structural_sample_report(S2, 2)
        assert rep["first_eigenvalue_one_degree"] is not None


def _oracle_cases(g):
    """Matrices for the tower oracle, both signs and every zero pattern."""
    return {
        "witness": orientable_witness(g),
        "identity": IntMatrix.identity(2 * g),
        "minus-identity": -IntMatrix.identity(2 * g),
        "det-zero": sample_admissible(g, "minus", seed=("det0", 0), length=8),
        "i-eigenvalue": S_PM_I if g == 2 else IntMatrix.block_diag(
            [S_PM_I] + [IntMatrix([[1, 2], [1, 1]])] * (g - 2)),
        "length-20": sample_admissible(g, "plus", seed="length-20",
                                       length=20),
    }


def _assert_charpoly_of(p, mat, where):
    """p == charpoly(mat), by Berkowitz up to 64 rows.

    Above that Berkowitz takes minutes, so p(1) = det(I - M) and the two
    top coefficients -tr M and (tr(M)^2 - tr(M^2)) / 2 are compared.
    """
    n = mat.rows
    assert p.degree == n, where
    if n <= 64:
        assert p == charpoly(mat), where
        return
    e = mat.entries
    tr = sum(e[i][i] for i in range(n))
    tr2 = sum(e[i][j] * e[j][i] for i in range(n) for j in range(n))
    assert (p(1), p.coeffs[n - 1], p.coeffs[n - 2]) == (
        (IntMatrix.identity(n) - mat).det(), -tr, (tr * tr - tr2) // 2), where


class TestSurfaceCharacter:
    """The equivariant Labute character against the projected towers."""

    @pytest.mark.parametrize("g", [2, 3])
    def test_matches_projected_towers(self, g):
        table, quotient, met = orientable_context(g)
        cases = _oracle_cases(g)
        assert charpoly(cases["det-zero"])(1) == 0
        assert _at_i(charpoly(cases["i-eigenvalue"])) == (0, 0)
        signs = set()
        for name, s in cases.items():
            sign, char = surface_character(s, g)
            signs.add(sign)
            tower = induced_tower(table, s)
            for d in range(1, 5):
                assert char.ranks[d] == quotient.rank(d)
                _assert_charpoly_of(char.charpoly(d),
                                    quotient.project(tower.matrix(d), d),
                                    (name, d))
            _assert_charpoly_of(char.charpoly("metabelian"),
                                met.project(tower.matrix(4), 4), (name, "met"))
        assert signs == {"plus", "minus"}

    @staticmethod
    def _assert_matches_labute(s, g):
        _, char = surface_character(s, g)
        oracle = LabuteCharacter(char.p, char.eps)
        assert char.ranks == oracle.ranks
        for d in range(1, 5):
            assert char.charpoly(d) == oracle.charpoly(d), d
            assert char.det(d) == oracle.det(d), d
        assert char.charpoly("metabelian") == oracle.charpoly("metabelian")
        assert char.det("metabelian") == oracle.det("metabelian")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 4), st.sampled_from(["plus", "minus"]),
           st.integers(0, 2 ** 32), st.integers(1, 10))
    def test_matches_the_labute_oracle(self, g, sign, seed, length):
        self._assert_matches_labute(
            sample_admissible(g, sign, seed, length=length), g)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_identity_and_witness_match_the_labute_oracle(self, g):
        self._assert_matches_labute(IntMatrix.identity(2 * g), g)
        self._assert_matches_labute(orientable_witness(g), g)

    def test_ranks_ignore_the_sign(self):
        # D_d is the character at S = I with eps = +1 whatever the sign
        _, plus = surface_character(IntMatrix.identity(4), 2)
        _, minus = surface_character(S2, 2)
        assert plus.ranks == minus.ranks == {1: 4, 2: 5, 3: 16, 4: 45}
        assert minus.charpoly("metabelian").degree == 35

    def test_power_sums_stop_at_the_requested_degree(self):
        _, char = surface_character(S2, 2, 2)
        assert char.ranks == {1: 4, 2: 5}
        assert char.charpoly(2) is char.charpoly(2)
        assert char.det(1) and char.det(2)
        # no shape of degree above 2 is built
        assert set(char._shapes) == {(), (1,), (1, 1)}
        with pytest.raises(ValueError, match="above"):
            char.det(3)
        with pytest.raises(ValueError, match="above"):
            char.det("metabelian")

    def test_one_power_sum_list_per_character(self, monkeypatch):
        # genus 2 through degree 4: shapes (3, 1) and (2, 1, 1) need 48
        # power sums, and one list serves all ten shapes (196 when each
        # shape computed its own); a plus sample stops at degree 2's 12
        terms = []
        original = rinfty.intlinalg._power_sums

        def counted(p, count, s=None):
            before = 1 if s is None else len(s)
            out = original(p, count, s)
            terms.append(len(out) - before)
            return out

        monkeypatch.setattr(rinfty.intlinalg, "_power_sums", counted)
        _, char = surface_character(S2, 2)
        for key in (1, 2, 3, 4, "metabelian"):
            char.split(key), char.charpoly(key)
        assert sum(terms) == 48
        terms.clear()
        plus = sample_admissible(2, "plus", 3, length=8)
        report = structural_sample_report(plus, 2)
        assert report["first_eigenvalue_one_degree"] == 2
        assert sum(terms) == 12

    def test_table_cap_guards_the_character(self):
        identity = IntMatrix.identity(58)
        assert surface_character(identity, 29, 2)[1].ranks[2] == 1652
        with pytest.raises(ResourceLimitError):
            surface_character(identity, 29, 4)

    def test_inadmissible_matrix_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            surface_character(2 * IntMatrix.identity(4), 2)


_MONIC = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(
    lambda low: IntPoly(low + [1]))


class TestShapeCharacterPaths:
    """``split`` against the exact charpoly, on every kind and key."""

    @staticmethod
    def _assert_split_is_exact(char, keys):
        # the multiplicity of 1 read from the factors' valuations is that
        # of the exact product and quotient, and so is the det
        for key in keys:
            q = char.charpoly(key)
            assert char.split(key) == (split_at_one(q)[0], q(1)), key

    @classmethod
    def _assert_free_and_sym(cls, p):
        for kind in ("free", "sym"):
            cls._assert_split_is_exact(ShapeCharacter(p, kind, 4),
                                       (1, 2, 3, 4))
        sym = ShapeCharacter(p, "sym", 4)
        for i in (1, 2, 3, 4):
            assert sym.det(i) == symmetric_power_charpoly(p, i)(1), i

    @settings(max_examples=10, deadline=None)
    @example(2, "plus", 0, 0)  # S = I: eigenvalue 1 in every factor
    @given(st.integers(2, 4), st.sampled_from(["plus", "minus"]),
           st.integers(0, 2 ** 32), st.integers(0, 8))
    def test_admissible_samples(self, g, sign, seed, length):
        s = sample_admissible(g, sign, seed, length=length)
        _, char = surface_character(s, g)
        self._assert_split_is_exact(char, (1, 2, 3, 4, "metabelian"))
        self._assert_free_and_sym(char.p)

    @settings(max_examples=30, deadline=None)
    @example(IntPoly([1, -1, -1, 1]))  # (x - 1)^2 (x + 1)
    @given(_MONIC)
    def test_random_monic_polynomials(self, p):
        self._assert_free_and_sym(p)
