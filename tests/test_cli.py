import hashlib
import json
import random
import time

import pytest

import rinfty.analysis
import rinfty.cli
import rinfty.errors
import rinfty.freelie
import rinfty.intlinalg
import rinfty.oracle
from rinfty.analysis import (SurfaceSpec, nonorientable_base_matrices,
                             orientable_witness)
from rinfty.cli import main
from rinfty.intlinalg import IntMatrix, charpoly


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_option_inventory():
    # every cap is a library constant: a new option is an edit here
    assert {name: sorted(p.name for p in cmd.params)
            for name, cmd in rinfty.cli.cli.commands.items()} == {
        "degree": ["fmt", "genus", "orientable", "samples", "seed"],
        "check": ["fmt", "genus", "klass", "matrix_path", "orientable"],
        "witness": ["fmt", "genus", "klass", "orientable"],
        "lie-dims": ["fmt", "klass", "rank"],
        "padding": ["fmt", "klass", "n", "rank"],
        "crosscheck": ["count", "fmt", "klass", "matrix_path", "modulus",
                       "rank", "seed", "what"],
        "sample": ["fmt", "genus", "length", "seed", "sign"]}


class TestDegreeCommand:
    def test_orientable_genus_two(self, capsys):
        code, out, _ = run(capsys, "degree", "--orientable", "--genus", "2",
                           "--samples", "2")
        assert code == 0
        assert "degree: 4" in out

    def test_nonorientable_genus_three(self, capsys):
        code, out, _ = run(capsys, "degree", "--nonorientable", "--genus", "3")
        assert code == 0
        assert "degree: 4" in out

    def test_torus_rejected(self, capsys):
        code, _, err = run(capsys, "degree", "--orientable", "--genus", "1")
        assert code == 1
        assert "genus" in err

    def test_json_deterministic(self, capsys):
        args = ("degree", "--orientable", "--genus", "2", "--samples", "2",
                "--seed", "7", "--format", "json")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["verdict"]["degree"] == 4
        assert doc["verdict"]["seed"] == 7
        assert "note" in doc["verdict"]

    def test_resource_cap_exit_code(self, capsys, monkeypatch):
        # the witness search reads its cap at call time
        monkeypatch.setattr(rinfty.analysis, "MAX_M", 10)
        code, _, err = run(capsys, "degree", "--nonorientable", "--genus", "3")
        assert code == 2
        assert err == "resource cap: witness search passed the cap 10\n"

    def test_nonorientable_verdict_ignores_samples_and_seed(self, capsys):
        # the seed and sample count are echoed in the config and change
        # nothing in a non-orientable verdict, which records neither
        verdicts = []
        for seed, samples in (("1", "10"), ("2", "3")):
            code, out, _ = run(capsys, "degree", "--nonorientable", "--genus",
                               "4", "--seed", seed, "--samples", samples,
                               "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["config"]["seed"] == int(seed)
            assert "seed" not in doc["verdict"]
            assert "samples" not in doc["verdict"]
            verdicts.append(doc["verdict"])
        assert verdicts[0] == verdicts[1]

    def test_nonorientable_verdict_builds_no_tower(self, capsys, monkeypatch):
        # the i-fold values of the witness search are the whole certificate
        def refuse(*args, **kwargs):
            raise AssertionError("non-orientable verdict built a tower")

        for name in ("build_hall_basis", "induced_tower", "ideal_quotient",
                     "metabelian_truncation", "orientable_relator"):
            assert not hasattr(rinfty.analysis, name)
        for module in (rinfty.freelie, rinfty.cli):
            monkeypatch.setattr(module, "build_hall_basis", refuse)
        monkeypatch.setattr(rinfty.freelie.InducedTower, "__init__", refuse)
        verdict = rinfty.analysis.rinf_degree(SurfaceSpec(False, 4))
        assert verdict.degree == 6
        code, out, err = run(capsys, "degree", "--nonorientable", "--genus",
                             "3")
        assert code == 0, err
        assert "degree: 4\n" in out
        assert "det(I - M_i)" not in out

    def test_nonorientable_genus_cap(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness search started")

        monkeypatch.setattr(rinfty.analysis, "nonorientable_witness", refuse)
        code, out, err = run(capsys, "degree", "--nonorientable", "--genus",
                             "5")
        assert code == 2
        assert out == ""
        assert err == "resource cap: non-orientable genus capped at 4\n"


class TestCheckCommand:
    @pytest.fixture()
    def witness_file(self, tmp_path, capsys):
        code, out, _ = run(capsys, "witness", "--orientable", "--genus", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        path = tmp_path / "s2.txt"
        path.write_text(doc["matrix_text"])
        return str(path)

    def test_class_three_finite(self, capsys, witness_file):
        code, out, _ = run(capsys, "check", "--matrix", witness_file,
                           "--orientable", "--genus", "2", "--class", "3")
        assert code == 0
        assert "R finite (no eigenvalue 1 through degree 3)" in out

    def test_class_four_infinite(self, capsys, witness_file):
        code, out, _ = run(capsys, "check", "--matrix", witness_file,
                           "--orientable", "--genus", "2", "--class", "4")
        assert code == 0
        assert "R infinite (degree 4)" in out

    def test_identity_infinite_degree_one(self, capsys, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text(IntMatrix.identity(4).to_text())
        code, out, _ = run(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "2", "--class", "3")
        assert code == 0
        assert "R infinite (degree 1)" in out

    def test_non_admissible_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text((2 * IntMatrix.identity(4)).to_text())
        code, _, err = run(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "2", "--class", "3")
        assert code == 1
        assert "not admissible" in err

    def test_wrong_size_rejected(self, capsys, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text(IntMatrix.identity(2).to_text())
        code, _, err = run(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "2", "--class", "3")
        assert code == 1
        assert "4x4" in err

    def test_nonorientable_check(self, capsys, tmp_path):
        # genus 3 witness: class-3 quotient keeps R finite
        code, out, _ = run(capsys, "witness", "--nonorientable", "--genus", "3",
                           "--class", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        path = tmp_path / "w.txt"
        path.write_text(doc["matrix_text"])
        code, out, _ = run(capsys, "check", "--matrix", str(path),
                           "--nonorientable", "--genus", "3", "--class", "3")
        assert code == 0
        assert "R finite" in out
        code, out, _ = run(capsys, "check", "--matrix", str(path),
                           "--nonorientable", "--genus", "3", "--class", "4")
        assert code == 0
        assert "R infinite (degree 4)" in out

    def test_orientable_paths_build_no_hall_table(self, capsys, witness_file,
                                                  monkeypatch):
        # the orientable verdicts read the Labute character, never a tower
        def refuse(*args, **kwargs):
            raise AssertionError("orientable path built a Hall table")

        for module in (rinfty.freelie, rinfty.cli):
            monkeypatch.setattr(module, "build_hall_basis", refuse)
        verdict = rinfty.analysis.rinf_degree(SurfaceSpec(True, 3), samples=4)
        assert verdict.degree == 4
        for args in (("degree", "--orientable", "--genus", "2",
                      "--samples", "4"),
                     ("check", "--matrix", witness_file, "--orientable",
                      "--genus", "2", "--class", "4")):
            code, _, err = run(capsys, *args)
            assert code == 0, err

    def test_large_genus_hits_the_table_cap(self, capsys, tmp_path):
        # (2g)^class above the Hall-table cap exits 2 before any arithmetic
        path = tmp_path / "id.txt"
        path.write_text(IntMatrix.identity(58).to_text())
        code, _, err = run(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "29", "--class", "4")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("klass,dets", [("1", "1: 0"),
                                            ("2", "1: 0, 2: 0")])
    def test_low_class_at_large_genus(self, capsys, tmp_path, klass, dets):
        # only the power sums of the requested degrees are computed
        path = tmp_path / "id.txt"
        path.write_text(IntMatrix.identity(58).to_text())
        code, out, err = run(capsys, "check", "--matrix", str(path),
                             "--orientable", "--genus", "29", "--class", klass)
        assert code == 0, err
        assert f"det(I - M_i) by degree: {dets}\n" in out

    @pytest.fixture()
    def genus_five_file(self, tmp_path):
        # L A^3 at twist exponent m = 1 on the rank-4 lattice
        el, a = nonorientable_base_matrices(4, 1)
        path = tmp_path / "la3.txt"
        path.write_text((el @ a @ a @ a).to_text())
        return str(path)

    def test_nonorientable_genus_five_class_six(self, capsys,
                                                genus_five_file):
        # the degree-6 det that the free tower took 2.3 s to reach
        code, out, err = run(capsys, "check", "--matrix", genus_five_file,
                             "--nonorientable", "--genus", "5",
                             "--class", "6")
        assert code == 0, err
        assert out.endswith("R finite (no eigenvalue 1 through degree 6)\n")

    @pytest.mark.parametrize("klass,verdict", [
        ("7", "R finite (no eigenvalue 1 through degree 7)"),
        ("8", "R infinite (degree 8)")], ids=["7", "8"])
    def test_nonorientable_genus_five_without_towers(
            self, capsys, genus_five_file, monkeypatch, klass, verdict):
        # the partition-shape kernel answers every class, with no Hall
        # table, tower or tower det; degree 8 holds det(W)^2 = 1
        def refuse(*args, **kwargs):
            raise AssertionError("check built a tower")

        for module in (rinfty.freelie, rinfty.cli):
            monkeypatch.setattr(module, "build_hall_basis", refuse)
        monkeypatch.setattr(rinfty.freelie.InducedTower, "__init__", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--matrix", genus_five_file,
                             "--nonorientable", "--genus", "5",
                             "--class", klass)
        assert time.perf_counter() - start < 5
        assert code == 0, err
        assert out.startswith(f"checked degrees 1..{klass}\n"
                              "det(I - M_i) by degree: 1: 1, 2: 4, "
                              "3: -13328, 4: 130900546994176, ")
        assert out.endswith(verdict + "\n")

    def test_shape_cap_refuses_before_any_arithmetic(self, capsys, tmp_path,
                                                     monkeypatch):
        # rank 6 through degree 12 passes a million Newton steps
        def refuse(*args, **kwargs):
            raise AssertionError("the shape kernel started")

        monkeypatch.setattr(rinfty.intlinalg, "shape_charpoly", refuse)
        monkeypatch.setattr(rinfty.intlinalg._ShapeKernel, "__call__", refuse)
        monkeypatch.setattr(rinfty.cli, "charpoly", refuse)
        path = tmp_path / "id6.txt"
        path.write_text(IntMatrix.identity(6).to_text())
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--matrix", str(path),
                             "--nonorientable", "--genus", "7",
                             "--class", "12")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("resource cap: shape kernel on rank 6 through degree "
                       "12 takes at least 1030463 Newton steps, above the "
                       "shape cap 1000000\n")

    def test_shape_cap_admits_rank_45_at_degree_2(self, capsys, tmp_path):
        # 984,150 Newton steps, under the cap: C(45, 2) = 990 roots
        rng = random.Random(2)
        path = tmp_path / "r45.txt"
        path.write_text(IntMatrix([[rng.randint(-1, 1) for _ in range(45)]
                                   for _ in range(45)]).to_text())
        code, out, err = run(capsys, "check", "--matrix", str(path),
                             "--nonorientable", "--genus", "46",
                             "--class", "2", "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["dets"]["1"] == -564842618750077106643721
        assert doc["verdict"] == "R finite (no eigenvalue 1 through degree 2)"

    @pytest.mark.parametrize("klass", ["5", "7"])
    def test_det_past_the_digit_limit_exits_2(self, capsys, tmp_path, klass):
        # L A^3 at m = 46080^7: det(I - M_5) is too long for str(); the
        # check refuses it, naming degree and size, before printing
        el, a = nonorientable_base_matrices(4, 46080 ** 7)
        path = tmp_path / "w5.txt"
        path.write_text((el @ a @ a @ a).to_text())
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "check", "--matrix", str(path),
                                 "--nonorientable", "--genus", "5",
                                 "--class", klass, "--format", fmt)
            assert code == 2
            assert out == ""
            assert err == ("resource cap: det(I - M_5) has 34811 bits and "
                           "10479 digits, above the int-to-str digit limit "
                           "4300\n")

    def test_large_entry_det_exits_2(self, capsys, tmp_path):
        # (1 - 10^2200)^2 - 1 has 4,400 digits
        path = tmp_path / "big.txt"
        path.write_text(IntMatrix([[10 ** 2200, 1],
                                   [1, 10 ** 2200]]).to_text())
        code, out, err = run(capsys, "check", "--matrix", str(path),
                             "--nonorientable", "--genus", "3",
                             "--class", "1")
        assert code == 2
        assert out == ""
        assert err == ("resource cap: det(I - M_1) has 14617 bits and 4400 "
                       "digits, above the int-to-str digit limit 4300\n")

    @pytest.mark.parametrize("command", ["check", "crosscheck"])
    def test_bad_matrix_file_names_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2 3\n")
        args = {"check": ("--nonorientable", "--genus", "3", "--class", "1"),
                "crosscheck": ("--what", "twisted", "--modulus", "5")}
        code, out, err = run(capsys, command, "--matrix", str(path),
                             *args[command])
        assert code == 1
        assert out == ""
        assert err == "error: matrix file: expected 4 entries, got 3\n"

    @pytest.mark.parametrize("command,err", [
        (("check", "--orientable", "--genus", "2", "--class", "2"),
         "error: matrix must be 4x4 for this surface, got 1500x1500\n"),
        (("crosscheck", "--what", "twisted", "--modulus", "5"),
         "resource cap: group order 5^1500 exceeds the bound 1000000\n"),
    ], ids=["check", "crosscheck"])
    def test_header_refuses_size_before_the_body(self, capsys, tmp_path,
                                                 command, err):
        # 2.25 million body tokens took 1.5-2.1 s to parse before the
        # header's size was refused
        path = tmp_path / "big.txt"
        path.write_text("1500 1500\n" + ("0 " * 1500 + "\n") * 1500)
        start = time.perf_counter()
        code, out, got = run(capsys, *command, "--matrix", str(path))
        assert time.perf_counter() - start < 0.3
        assert code == (1 if err.startswith("error: ") else 2)
        assert (out, got) == ("", err)

    def test_crosscheck_refuses_a_non_square_header(self, capsys, tmp_path):
        # the header is refused before the body, which is not even integers;
        # a 1500x1499 zero file was parsed in full first (0.7-0.9 s)
        path = tmp_path / "m.txt"
        path.write_text("3 2\na b\nc d\ne f\n")
        code, out, err = run(capsys, "crosscheck", "--what", "twisted",
                             "--modulus", "5", "--matrix", str(path))
        assert (code, out) == (1, "")
        assert err == "error: endomorphism matrix must be square\n"

    @pytest.mark.parametrize("header", ["-1 -1", "-2 -3", "2 -2", "-2 2"])
    @pytest.mark.parametrize("command", [
        ("check", "--orientable", "--genus", "2", "--class", "2"),
        ("crosscheck", "--what", "twisted", "--modulus", "5"),
    ], ids=["check", "crosscheck"])
    def test_negative_header_is_refused_as_a_file_error(self, capsys, tmp_path,
                                                        header, command):
        # before the check, "-1 -1" read as the twisted setup's rank and
        # "-2 -3" as a wrong surface size; "-2 -3" with six body tokens
        # parsed to an empty matrix
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n1 2 3\n4 5 6\n")
        code, out, err = run(capsys, *command, "--matrix", str(path))
        assert (code, out) == (1, "")
        r, c = header.split()
        assert err == f"error: matrix file: header size {r}x{c} is negative\n"

    def test_degree_certificate_reverifies_through_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "degree", "--orientable", "--genus", "2",
                           "--samples", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        witness = doc["verdict"]["witness"]
        path = tmp_path / "w.txt"
        path.write_text(witness["matrix_text"])
        code, out, _ = run(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "2", "--class", "3",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["dets"] == witness["dets"]
        assert report["first_eigenvalue_one_degree"] is None


class TestOtherCommands:
    def test_lie_dims(self, capsys):
        code, out, _ = run(capsys, "lie-dims", "--rank", "4", "--class", "3")
        assert code == 0
        assert "[4, 6, 20]" in out

    @pytest.mark.parametrize("rank,klass", [(1, 4), (2, 9), (3, 5), (4, 6)])
    def test_lie_dims_without_hall_table(self, capsys, monkeypatch, rank,
                                         klass):
        dims = rinfty.freelie.build_hall_basis(rank, klass).dims()

        def refuse(*args, **kwargs):
            raise AssertionError("lie-dims built a Hall table")

        monkeypatch.setattr(rinfty.cli, "build_hall_basis", refuse)
        monkeypatch.setattr(rinfty.freelie, "StructureTable", refuse)
        code, out, _ = run(capsys, "lie-dims", "--rank", str(rank),
                           "--class", str(klass), "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "schema": "cli-report/2", "command": "lie-dims",
            "config": {"rank": rank, "class": klass}, "dims": dims}

    def test_lie_dims_keeps_the_table_cap(self, capsys):
        # the cap bounds the printed answer, not a Hall table: class 24,
        # past the old table cap, answers, and so does class 1,000
        code, out, _ = run(capsys, "lie-dims", "--rank", "2", "--class", "24")
        assert code == 0
        assert out.startswith("[2, 1, 2, 3, 6, 9, 18, 30, 56, 99, ")
        assert out.endswith(", 364722, 698870]\n")
        code, out, _ = run(capsys, "lie-dims", "--rank", "2", "--class",
                           "1000", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"][-1] == rinfty.freelie.witt_dimension(
            2, 1000)
        code, out, err = run(capsys, "lie-dims", "--rank", "2", "--class",
                             "4075")
        assert code == 2
        assert out == ""
        assert err == ("resource cap: lie-dims on rank 2 through class 4075 "
                       "prints up to 5000025 digits, above the size cap "
                       "5000000\n")

    @pytest.mark.parametrize("args", [
        ("lie-dims", "--rank", "1", "--class", "100000"),
        ("crosscheck", "--what", "twisted", "--rank", "1", "--class",
         "100000", "--modulus", "100003"),
    ])
    def test_rank_one_table_cap(self, capsys, monkeypatch, args):
        # rank 1 is capped on its class too, before any Witt number
        def refuse(*args, **kwargs):
            raise AssertionError("a Witt number was computed")

        for module in (rinfty.freelie, rinfty.cli, rinfty.oracle):
            monkeypatch.setattr(module, "witt_dimension", refuse)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err == {
            "lie-dims": "resource cap: lie-dims on rank 1 through class "
                        "100000 has entries of up to 30103 digits, above "
                        "the digit cap 4000\n",
            "crosscheck": "resource cap: hall table for r=1, c=100000 "
                          "exceeds cap 10000000\n"}[args[0]]

    def test_table_cap_on_a_huge_class_exits_at_once(self, capsys):
        # the cap is decided without forming rank ** class
        start = time.perf_counter()
        code, out, err = run(capsys, "lie-dims", "--rank", "2", "--class",
                             "1000000000")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("resource cap: lie-dims on rank 2 through class "
                       "1000000000 has entries of up to 301029996 digits, "
                       "above the digit cap 4000\n")

    def test_lie_dims_has_no_order_option(self, capsys):
        code, out, err = run(capsys, "lie-dims", "--rank", "2", "--class",
                             "3", "--order", "alt")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_padding(self, capsys):
        code, out, _ = run(capsys, "padding", "--rank", "2", "--class", "2",
                           "--n", "2")
        assert code == 0
        assert "f(2, 2) = 4" in out
        assert "[0, 2, -1]" in out

    def test_witness_nonorientable_payload(self, capsys):
        code, out, _ = run(capsys, "witness", "--nonorientable", "--genus", "3",
                           "--class", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["determinant"] == -1
        assert doc["m"] >= 1

    def test_orientable_witness_charpoly_closed_form(self, capsys,
                                                     monkeypatch):
        # g blocks [[1, 2], [1, 1]]: (x^2 - 2x - 1)^g with no Berkowitz
        want = {g: list(charpoly(orientable_witness(g)).coeffs)
                for g in range(2, 9)}
        monkeypatch.setattr(rinfty.cli, "charpoly", _refuse)
        for g, coeffs in want.items():
            code, out, err = run(capsys, "witness", "--orientable", "--genus",
                                 str(g), "--format", "json")
            assert code == 0, err
            assert json.loads(out)["charpoly_coeffs"] == coeffs

    def test_witness_genus_five_default_class(self, capsys):
        # class 7, 193,697 steps under the witness cap: m = 46080^7
        code, out, err = run(capsys, "witness", "--nonorientable", "--genus",
                             "5", "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["config"]["class"] == 7
        assert doc["m"] == 46080 ** 7
        assert doc["determinant"] == -1

    def test_witness_genus_six_default_class_refused(self, capsys,
                                                     monkeypatch):
        # class 9 takes 22 s with the caps lifted, 4 s of it in
        # padding_exponent(2, 9): refused before the search by the
        # shape-work cap
        def refuse(*args):
            raise AssertionError("the witness search started")

        monkeypatch.setattr(rinfty.analysis, "padding_exponent", refuse)
        code, out, err = run(capsys, "witness", "--nonorientable", "--genus",
                             "6")
        assert code == 2
        assert out == ""
        assert err == ("resource cap: witness search for g=5, class 9: at "
                       "least 76201 Newton steps * 9^2 = 6172281 exceeds cap "
                       "2500000\n")

    def test_witness_genus_five_class_four(self, capsys):
        code, out, _ = run(capsys, "witness", "--nonorientable", "--genus",
                           "5", "--class", "4")
        assert code == 0
        assert "determinant: -1" in out

    def test_crosscheck_spectrum(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--what", "spectrum",
                           "--rank", "2", "--class", "3", "--count", "5",
                           "--seed", "1")
        assert code == 0
        assert "5/5 passed" in out

    @pytest.mark.parametrize("rank,klass,rows", [("3", "7", 312),
                                                 ("2", "10", 99)])
    def test_crosscheck_spectrum_row_cap(self, capsys, monkeypatch, rank,
                                         klass, rows):
        def refuse(*args, **kwargs):
            raise AssertionError("built a Hall table above the row cap")

        monkeypatch.setattr(rinfty.cli, "build_hall_basis", refuse)
        code, out, err = run(capsys, "crosscheck", "--what", "spectrum",
                             "--rank", rank, "--class", klass, "--count", "1")
        assert code == 2
        assert out == ""
        assert err == (f"resource cap: free tower on rank {rank} at degree "
                       f"{klass} has {rows} rows, above the spectrum cap 70\n")

    def test_crosscheck_spectrum_row_cap_reads_the_degree(self, capsys):
        # the tower degree is the class: class 9 has 56 rows, class 10 99
        code, out, _ = run(capsys, "crosscheck", "--what", "spectrum",
                           "--rank", "2", "--class", "9", "--count", "1")
        assert code == 0
        assert out == "spectrum crosscheck: 1/1 passed\n"

    def test_crosscheck_twisted(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--what", "twisted",
                           "--rank", "2", "--class", "2", "--modulus", "3")
        assert code == 0
        assert "27" in out and "11" in out

    def test_crosscheck_twisted_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(IntMatrix([[0, 1], [1, 1]]).to_text())
        code, out, _ = run(capsys, "crosscheck", "--what", "twisted",
                           "--matrix", str(path), "--modulus", "5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["brute_force_classes"] == 1
        assert doc["cokernel_count"] == 1

    def test_sample_determinism(self, capsys):
        args = ("sample", "--genus", "2", "--sign", "minus", "--seed", "9",
                "--format", "json")
        code, out1, _ = run(capsys, *args)
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["admissibility"] == "minus"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_sample_classifies_once(self, capsys, monkeypatch, sign, fmt):
        # the sampler asserts the sign; the payload reports the one asked
        # for, so the command's output is the same without a second check
        args = ("sample", "--genus", "3", "--sign", sign, "--seed", "4",
                "--format", fmt)
        expected = run(capsys, *args)

        def refuse(*args):
            raise AssertionError("sample classified its matrix again")

        monkeypatch.setattr(rinfty.cli, "admissibility", refuse)
        assert run(capsys, *args) == expected
        assert expected[0] == 0

    def test_usage_error_is_exit_one(self, capsys):
        code, _, err = run(capsys, "degree", "--genus", "2")
        assert code == 1


def _refuse(*args, **kwargs):
    raise AssertionError("the capped computation started")


class TestSizeCaps:
    """Each cap answers at once, before the expensive call can start."""

    def refused(self, capsys, *args):
        start = time.perf_counter()
        code, out, err = run(capsys, *args)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        return err

    @pytest.mark.parametrize("rank,klass,detail", [
        ("8", "4", " multiplies series over 4680 words, above the cap 500"),
        ("50", "3", " multiplies series over 127550 words, above the cap "
                    "500"),
        ("2", "7", ", above the class cap 6"),
        ("2", "8", ", above the class cap 6"),
    ])
    def test_padding_ambient(self, capsys, monkeypatch, rank, klass, detail):
        monkeypatch.setattr(rinfty.cli, "free_nilpotent_group", _refuse)
        err = self.refused(capsys, "padding", "--rank", rank, "--class",
                           klass, "--n", "2")
        assert err == (f"resource cap: padding on rank {rank}, class "
                       f"{klass}{detail}\n")

    @pytest.mark.parametrize("genus", ["51", "100", "3000"])
    def test_orientable_witness_genus(self, capsys, monkeypatch, genus):
        monkeypatch.setattr(rinfty.cli, "orientable_witness", _refuse)
        monkeypatch.setattr(rinfty.cli, "charpoly", _refuse)
        err = self.refused(capsys, "witness", "--orientable", "--genus",
                           genus)
        assert err == (f"resource cap: orientable witness of genus {genus}"
                       f", above the genus cap 50\n")

    @pytest.mark.parametrize("genus", ["751", "3000"])
    def test_sample_genus(self, capsys, monkeypatch, genus):
        monkeypatch.setattr(rinfty.cli, "sample_admissible", _refuse)
        err = self.refused(capsys, "sample", "--genus", genus, "--sign",
                           "plus")
        assert err == (f"resource cap: sample of genus {genus}, above the "
                       f"genus cap 750\n")

    @pytest.mark.parametrize("genus,klass", [("51", "1"), ("100", "1"),
                                             ("1026", "1"), ("51", None)])
    def test_nonorientable_witness_genus(self, capsys, monkeypatch, genus,
                                         klass):
        monkeypatch.setattr(rinfty.analysis, "padding_exponent", _refuse)
        monkeypatch.setattr(rinfty.cli, "nonorientable_witness", _refuse)
        args = ["witness", "--nonorientable", "--genus", genus]
        err = self.refused(capsys, *args, *(["--class", klass] if klass
                                            else []))
        assert err == (f"resource cap: non-orientable witness of genus "
                       f"{genus}, above the genus cap 50\n")

    @pytest.mark.parametrize("genus", ["2", "200"])
    @pytest.mark.parametrize("length", ["1001", "2000", "100000"])
    def test_sample_length(self, capsys, monkeypatch, genus, length):
        monkeypatch.setattr(rinfty.cli, "sample_admissible", _refuse)
        err = self.refused(capsys, "sample", "--genus", genus, "--sign",
                           "minus", "--length", length)
        assert err == (f"resource cap: sample of length {length}, above the "
                       f"length cap 1000\n")

    @pytest.mark.parametrize("rank,klass,detail", [
        # 4,001 digits: printing an entry past 4,300 would be exit 1
        ("10000000000", "400", "has entries of up to 4001 digits, above "
                               "the digit cap 4000"),
        ("2", "13288", "has entries of up to 4001 digits, above the digit "
                       "cap 4000"),
        ("10", "2236", "prints up to 5001932 digits, above the size cap "
                       "5000000"),
        ("1", "4075", "prints up to 5000025 digits, above the size cap "
                      "5000000"),
    ])
    def test_lie_dims_answer_size(self, capsys, monkeypatch, rank, klass,
                                  detail):
        monkeypatch.setattr(rinfty.cli, "witt_dimension", _refuse)
        err = self.refused(capsys, "lie-dims", "--rank", rank, "--class",
                           klass)
        assert err == (f"resource cap: lie-dims on rank {rank} through "
                       f"class {klass} {detail}\n")

    @pytest.mark.parametrize("genus,klass,detail", [
        ("8", "4", "degree 4 takes at least 3281024"),
        ("9", "4", "degree 4 takes at least 6893946"),
        ("12", "3", "degree 3 takes at least 4479184"),
        ("13", "3", "degree 3 takes at least 7290153"),
        ("30", "2", "degree 2 takes at least 3140100"),
    ])
    def test_orientable_check_newton_work(self, capsys, monkeypatch, tmp_path,
                                          genus, klass, detail):
        path = tmp_path / "s.txt"
        path.write_text(rinfty.analysis.sample_admissible(
            int(genus), "minus", 1, length=8).to_text())
        monkeypatch.setattr(rinfty.intlinalg, "_power_sums", _refuse)
        monkeypatch.setattr(rinfty.analysis, "admissibility", _refuse)
        monkeypatch.setattr(rinfty.analysis, "charpoly", _refuse)
        err = self.refused(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", genus, "--class", klass)
        assert err == (f"resource cap: surface character of genus {genus} "
                       f"through {detail} Newton steps, above the surface "
                       f"cap 3000000\n")

    def test_surface_character_refuses_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(rinfty.intlinalg, "_power_sums", _refuse)
        s = rinfty.analysis.sample_admissible(8, "minus", 1, length=8)
        with pytest.raises(rinfty.errors.ResourceLimitError,
                           match="genus 8 through degree 4 takes at least "
                                 "3281024 Newton steps"):
            rinfty.analysis.surface_character(s, 8, 4)

    @pytest.mark.parametrize("samples", ["10", "20"])
    def test_degree_surface_cap_comes_first(self, capsys, monkeypatch,
                                            samples):
        # no sample count is admitted at genus 8, so the sample-work cap,
        # which would suggest fewer samples, must not be the one to answer
        monkeypatch.setattr(rinfty.analysis, "orientable_witness", _refuse)
        err = self.refused(capsys, "degree", "--orientable", "--genus", "8",
                           "--samples", samples)
        assert err == ("resource cap: surface character of genus 8 through "
                       "degree 4 takes at least 3281024 Newton steps, above "
                       "the surface cap 3000000\n")

    @pytest.mark.parametrize("family", ["--orientable", "--nonorientable"])
    def test_check_genus(self, capsys, monkeypatch, tmp_path, family):
        # genus 100 at class 1 took 23.6 s in admissibility and Berkowitz
        path = tmp_path / "id.txt"
        path.write_text(IntMatrix.identity(200).to_text())
        for module in (rinfty.analysis, rinfty.cli):
            monkeypatch.setattr(module, "charpoly", _refuse)
        monkeypatch.setattr(rinfty.analysis, "admissibility", _refuse)
        err = self.refused(capsys, "check", "--matrix", str(path), family,
                           "--genus", "100", "--class", "1")
        assert err == ("resource cap: check of genus 100, above the genus "
                       "cap 50\n")

    def test_orientable_verdict_refused_before_charpoly(self, capsys,
                                                        monkeypatch):
        # without the early check genus 1000 would start a 2000-row Berkowitz
        monkeypatch.setattr(rinfty.analysis, "charpoly", _refuse)
        with pytest.raises(rinfty.errors.ResourceLimitError,
                           match="genus 1000 through degree 4"):
            rinfty.analysis.rinf_degree(SurfaceSpec(True, 1000))
        err = self.refused(capsys, "degree", "--orientable", "--genus", "8")
        assert err == ("resource cap: surface character of genus 8 through "
                       "degree 4 takes at least 3281024 Newton steps, above "
                       "the surface cap 3000000\n")

    def test_witness_search_builds_only_the_accepted_matrix(self, capsys,
                                                            monkeypatch):
        # genus 50 class 1 rejects m = 2 on its closed-form charpoly; only
        # the accepted W (m = 4) gets a Berkowitz and a Bareiss
        calls = {"charpoly": 0, "det": 0}

        def counting(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rinfty.analysis, "charpoly",
                            counting("charpoly", rinfty.analysis.charpoly))
        monkeypatch.setattr(IntMatrix, "det", counting("det", IntMatrix.det))
        code, out, err = run(capsys, "witness", "--nonorientable", "--genus",
                             "50", "--class", "1")
        assert code == 0, err
        assert "twist exponent m: 4\n" in out
        assert calls == {"charpoly": 1, "det": 1}

    @pytest.mark.parametrize("genus,samples,work", [
        ("4", "1840", "100015040"),
        ("4", "2000", "108712000"),
        ("3", "6018", "100013142"),
        ("2", "9448", "100007080"),
        ("2", "1000000000", "10585000000000"),
    ])
    def test_degree_samples(self, capsys, monkeypatch, genus, samples, work):
        monkeypatch.setattr(rinfty.analysis, "orientable_witness", _refuse)
        err = self.refused(capsys, "degree", "--orientable", "--genus", genus,
                           "--samples", samples)
        assert err == (f"resource cap: {samples} samples of genus {genus} "
                       f"take {work} Newton steps, above the sample work cap "
                       f"100000000\n")

    @pytest.mark.parametrize("rank,klass,count,detail", [
        ("6", "3", "11", "11 towers of 70 rows take 264176000"),
        ("6", "3", "30", "30 towers of 70 rows take 720480000"),
        ("2", "3", "41556", "41556 towers of 2 rows take 250000896"),
    ])
    def test_crosscheck_spectrum_count(self, capsys, monkeypatch, rank, klass,
                                       count, detail):
        monkeypatch.setattr(rinfty.cli, "build_hall_basis", _refuse)
        err = self.refused(capsys, "crosscheck", "--what", "spectrum",
                           "--rank", rank, "--class", klass, "--count", count)
        assert err == (f"resource cap: {detail} charpoly steps, above the "
                       f"count work cap 250000000\n")

    @pytest.mark.parametrize("args", [
        ("sample", "--genus", "2", "--sign", "minus", "--length", "50"),
        ("witness", "--nonorientable", "--genus", "50", "--class", "1"),
        ("lie-dims", "--rank", "10000000000", "--class", "399"),
    ])
    def test_at_the_cap_answers(self, capsys, args):
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out


class TestRejectedArguments:
    @pytest.mark.parametrize("args", [
        ("degree", "--orientable", "--genus", "2", "--samples", "0"),
        ("degree", "--orientable", "--genus", "2", "--samples", "-3"),
        ("sample", "--genus", "2", "--sign", "plus", "--length", "-5"),
        ("crosscheck", "--what", "spectrum", "--count", "0"),
        ("crosscheck", "--what", "spectrum", "--count", "-3"),
    ])
    def test_out_of_range_count_is_exit_one(self, capsys, args):
        code, out, err = run(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestCrosscheckModulus:
    @pytest.mark.parametrize("modulus", ["1000003", "1000000007"])
    def test_large_prime_modulus_hits_the_order_cap(self, capsys, modulus):
        start = time.perf_counter()
        code, out, err = run(capsys, "crosscheck", "--what", "twisted",
                             "--rank", "2", "--class", "2",
                             "--modulus", modulus)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("resource cap: group order ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rank,klass,modulus,err", [
        ("2", "40", "7", "error: modulus base 7 must exceed the class 40 "
                         "for the reduction to close\n"),
        ("1000", "3", "5", "resource cap: hall table for r=1000, c=3 exceeds "
                           "cap 10000000\n"),
        ("2", "2", "341", "error: modulus 341 is not a prime power\n"),
        ("2", "2", str((2 ** 31 - 1) ** 2),
         f"resource cap: group order {(2 ** 31 - 1) ** 6} exceeds the "
         f"bound 1000000\n"),
        ("2", "16", "17", "resource cap: group order 17^8800 exceeds the "
                          "bound 1000000\n"),
    ])
    def test_refusals_exit_at_once(self, capsys, rank, klass, modulus, err):
        start = time.perf_counter()
        code, out, got = run(capsys, "crosscheck", "--what", "twisted",
                             "--rank", rank, "--class", klass,
                             "--modulus", modulus)
        assert time.perf_counter() - start < 5
        assert code == (1 if err.startswith("error: ") else 2)
        assert out == ""
        assert got == err

    def test_composite_modulus_rejected(self, capsys):
        modulus = str(1000003 * 1000033)
        code, out, err = run(capsys, "crosscheck", "--what", "twisted",
                             "--rank", "2", "--class", "2",
                             "--modulus", modulus)
        assert code == 1
        assert out == ""
        assert err == f"error: modulus {modulus} is not a prime power\n"


class TestGoldenOutput:
    """Pinned sha256 of stdout for twelve verdict commands and five crosschecks.

    A change that keeps the verdicts must keep these bytes; a deliberate
    schema change updates the hashes together with the schema version.
    """

    def digest(self, capsys, *args):
        code, out, _ = run(capsys, *args)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    def test_orientable_degree(self, capsys):
        assert self.digest(capsys, "degree", "--orientable", "--genus", "2",
                           "--samples", "2", "--format", "json") == (
            "a234d78189a17e1cfe85a02eaee17f9c57ad834c22d92c7a2393062a894e8b7f")

    def test_orientable_genus_three_degree(self, capsys):
        assert self.digest(capsys, "degree", "--orientable", "--genus", "3",
                           "--samples", "4", "--format", "json") == (
            "c1afe0f1e8fdfb116049c7e44b86b69be295a2c42a963463e641c67665fed744")

    def test_orientable_genus_two_many_samples(self, capsys):
        # 100 minus samples, most of them decided by the metabelian det
        assert self.digest(capsys, "degree", "--orientable", "--genus", "2",
                           "--samples", "200", "--seed", "12345",
                           "--format", "json") == (
            "5ee31c7d268d61d38e46b638ab7f91fc9168467ec34411b58cedf81a8d002d9f")

    def test_orientable_genus_four_degree(self, capsys):
        # the bytes of the tower path with its genus cap raised to 4
        assert self.digest(capsys, "degree", "--orientable", "--genus", "4",
                           "--samples", "2", "--format", "json") == (
            "8e879b4b1f9bd6a44addcd4417d33d7c49404b9640623ea0605bbb0fb7c71289")

    def test_nonorientable_degree(self, capsys):
        assert self.digest(capsys, "degree", "--nonorientable", "--genus", "3",
                           "--format", "json") == (
            "1fbe9fbbc48760d4575f4f85474cdcf4d62ac48d5b0026e32e34e5430c39ee04")

    def test_check_witness_class_four(self, capsys, tmp_path):
        code, out, _ = run(capsys, "witness", "--orientable", "--genus", "2",
                           "--format", "json")
        assert code == 0
        path = tmp_path / "s2.txt"
        path.write_text(json.loads(out)["matrix_text"])
        assert self.digest(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "2", "--class", "4",
                           "--format", "json") == (
            "2a74be98f63725dfd17a9be6974f532d11f70be55d01e313d6afc4ab53d64a67")

    def test_check_genus_three_witness_class_four(self, capsys, tmp_path):
        # the 280x280 zero det at degree 4, after 24759631762948096 at degree 3
        code, out, _ = run(capsys, "witness", "--orientable", "--genus", "3",
                           "--format", "json")
        assert code == 0
        path = tmp_path / "s3.txt"
        path.write_text(json.loads(out)["matrix_text"])
        assert self.digest(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "3", "--class", "4",
                           "--format", "json") == (
            "9e98c628b622440e4925a81fd485927d190c064e0634c2caa572ce32b513eafc")

    def test_check_genus_three_plus_sample_class_four(self, capsys, tmp_path):
        # plus sign: eigenvalue 1 at degree 2, dets -4, 0, 1961738743910400, 0
        code, out, _ = run(capsys, "sample", "--genus", "3", "--sign", "plus",
                           "--seed", "7", "--format", "json")
        assert code == 0
        path = tmp_path / "p3.txt"
        path.write_text(json.loads(out)["matrix_text"])
        assert self.digest(capsys, "check", "--matrix", str(path),
                           "--orientable", "--genus", "3", "--class", "4",
                           "--format", "json") == (
            "e44c537836d2d71081dab829293a37692fc461253b32a0b5941daa0b0aa8605f")

    def test_nonorientable_genus_four_degree(self, capsys):
        # Sym^i values at 1 of up to 1,717 bits
        assert self.digest(capsys, "degree", "--nonorientable", "--genus", "4",
                           "--format", "json") == (
            "5325e4089db6d020fe47053ecadf16ecb7ec240f7882fcd45df137f1d25251de")

    def test_nonorientable_genus_four_degree_text(self, capsys):
        # the text form, with its i-fold product line
        assert self.digest(capsys, "degree", "--nonorientable", "--genus",
                           "4") == (
            "2c711a318d34eb89260779553eca2b99725938737ca3d2c9f9980686287f63c4")

    def test_crosscheck_spectrum_json(self, capsys):
        assert self.digest(capsys, "crosscheck", "--what", "spectrum",
                           "--rank", "3", "--class", "4", "--count", "20",
                           "--format", "json") == (
            "b482b820390e3d92edeb90bbe47727a83cd18bbacc383ae6caec8a19c3fbe949")

    def test_crosscheck_spectrum_text(self, capsys):
        assert self.digest(capsys, "crosscheck", "--what", "spectrum") == (
            "e5593a06d9aae380eb7661c354d92d25cb06b412878947dafffc422691bdffcb")

    def test_crosscheck_twisted_json(self, capsys):
        # the oracle workload's request: 745 classes in a group of order 5^6
        assert self.digest(capsys, "crosscheck", "--what", "twisted",
                           "--rank", "3", "--class", "2", "--modulus", "5",
                           "--format", "json") == (
            "70dd5f8ada2eb4d43291db31a27f7c465390f7092c1649c4d5868d84b1a12337")

    def test_crosscheck_twisted_text(self, capsys):
        assert self.digest(capsys, "crosscheck", "--what", "twisted",
                           "--rank", "3", "--class", "2", "--modulus", "5") == (
            "7e18ac7486195a27494baffc54d462f10b936ab5cb94d22ac1cc19dce62f985a")

    def test_crosscheck_twisted_matrix_json(self, capsys, tmp_path):
        path = tmp_path / "fib.txt"
        path.write_text(IntMatrix([[0, 1], [1, 1]]).to_text())
        assert self.digest(capsys, "crosscheck", "--what", "twisted",
                           "--matrix", str(path), "--modulus", "5",
                           "--format", "json") == (
            "f6de6c6673021829f11b2f11e694720068ddb0d575bb5b5ec1899b3f74444f4b")

    def test_nonorientable_genus_four_witness(self, capsys):
        assert self.digest(capsys, "witness", "--nonorientable", "--genus",
                           "4", "--format", "json") == (
            "a89384dec4ec41aceecbb9f3aa402758295e50458eebc34890709acf597d58c1")

    def test_check_nonorientable_genus_four_witness_class_six(self, capsys,
                                                              tmp_path):
        # free rank-3 towers through degree 6, the zero at degree 6
        code, out, _ = run(capsys, "witness", "--nonorientable", "--genus",
                           "4", "--format", "json")
        assert code == 0
        path = tmp_path / "w4.txt"
        path.write_text(json.loads(out)["matrix_text"])
        assert self.digest(capsys, "check", "--matrix", str(path),
                           "--nonorientable", "--genus", "4", "--class", "6",
                           "--format", "json") == (
            "d9ecc58050994f003bbc702690577de86dd8abe3039f6a7916ea3cabbcbb3136")
