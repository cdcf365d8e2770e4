"""Command-line front end.

Subcommands: degree, check, witness, lie-dims, padding, crosscheck,
sample.  Every command takes --format text|json; JSON output is emitted
with sorted keys and embeds the seed and configuration, so identical
invocations produce byte-identical documents.  Exit codes: 0 success,
1 invalid input, 2 resource cap hit.
"""

import json
import math
import sys

import click

from .analysis import (DEFAULT_SAMPLES, SurfaceSpec, admissibility,
                       nonorientable_charpoly_formula, nonorientable_witness,
                       orientable_witness, rinf_degree, sample_admissible,
                       surface_character)
from .errors import ResourceLimitError
from .freelie import (ShapeCharacter, build_hall_basis, check_hall_table,
                      shape_work, witt_dimension)
from .intlinalg import IntMatrix, IntPoly, charpoly
from .nilpotent import free_nilpotent_group, power_padding
from .oracle import (FiniteTwistedSetup, abelian_reidemeister_count,
                     brute_force_twisted_classes, spectrum_crosscheck)

SCHEMA_REPORT = "cli-report/2"
# Newton steps (``shape_work``) of ``check --nonorientable`` on entries in
# -1..1: rank 45 degree 2 (984,150) 1.5 s, rank 7 degree 10 (6.2 million)
# 5.9 s (2-core x86, Python 3.11).  Bits are not counted: entries of 1,000
# bits make rank 4 degree 8 (6,362 steps) take 2.2 s
SHAPE_WORK_CAP = 1_000_000
# rows of the tower matrix in ``crosscheck --what spectrum``: one charpoly
# of 70 rows (rank 6, degree 3) takes about 1.2 s, 99 rows 2.1 s, 112 rows
# 7.2 s (2-core x86, Python 3.11)
SPECTRUM_ROW_CAP = 70
# ``crosscheck --what spectrum`` costs per matrix its charpoly, rows^4, plus
# about 6,000 for the tower and the factors: 2 rows 0.2 ms, 18 rows 5 ms,
# 48 rows 0.14 s, 70 rows 0.84 s, so about 0.035 us per unit; the cap is
# about 9 s (2-core x86, Python 3.11)
SPECTRUM_COUNT_WORK_CAP = 250_000_000
# ``padding`` multiplies series over the words of length <= class in the
# rank-r ambient, one homogeneous part pair at a time.  Fresh process:
# rank 2 class 6 (126 words) 0.5-0.7 s, class 7 (254) 2.2-2.6 s; rank 3
# class 5 (363) 0.3 s, rank 8 class 3 (584) 0.2 s, rank 9 class 3 (819)
# 0.3 s (2-core x86, Python 3.11)
PADDING_CLASS_CAP = 6
PADDING_WORD_CAP = 500
# genus of ``check`` and ``witness``, fresh process (above 50 with the cap
# lifted).  ``check --orientable --class 1`` (admissibility and one
# Berkowitz) on a ``sample --sign minus --seed 1 --length 8`` matrix:
# 1.4-1.7 s at 50, 2.7-2.8 s at 60, 19 s at 100.  The orientable witness
# prints a closed-form charpoly, 0.14-0.17 s at 50; the non-orientable one
# at class 1, one charpoly of the accepted W: 0.62-0.71 s at 50, 1.5 s at
# 60.  ``sample``, text or JSON: 1.2 s at genus
# 750, 1.1-1.6 s at 800 (length 10); length 1000 takes at most 0.8 s below
# genus 200 and 1.6 s at 750, length 2000 4.9 s at genus 200, where the
# transvections have filled the matrix in (same machine)
GENUS_CAP = 50
SAMPLE_GENUS_CAP = 750
SAMPLE_LENGTH_CAP = 1000
# ``lie-dims`` prints c entries below max(r, 2)^c, of D digits at most.
# c * D near 5 million: 2.9 s at rank 2, 1.2 s at 10, 0.8 s at 1,000, 1.1 s
# at rank 1 (its Witt loop is quadratic in c too).  D < 4,300, Python's
# int-to-str limit.
LIE_DIMS_SIZE_CAP = 5_000_000
LIE_DIMS_DIGIT_CAP = 4000


def _cap(value, cap, what, name="cap"):
    """Exit 2, through ``ResourceLimitError``, when value exceeds cap."""
    if value > cap:
        raise ResourceLimitError(f"{what}, above the {name} {cap}")


def _printable(d, det):
    """det, or exit 2 when it is past Python's int-to-str digit limit."""
    bits = abs(det).bit_length()
    skip = max(0, int((bits - 1) * math.log10(2)) - 10)  # ~11 digits left
    digits = skip + len(str(abs(det) // 10 ** skip))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    _cap(digits, limit or digits, f"det(I - M_{d}) has {bits} bits and "
         f"{digits} digits", "int-to-str digit limit")
    return det


def _read_matrix(path, admit):
    """The ``IntMatrix`` of a matrix file, its size first passed to
    ``admit(rows, cols)``; exit 1 naming the file if bad."""
    with open(path) as fh:
        try:
            return IntMatrix.from_text(fh.read(), admit)
        except ValueError as exc:
            raise click.ClickException(f"matrix file: {exc}")


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)


_FORMAT = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                       default="text", show_default=True)


@click.group()
def cli():
    """Exact twisted-conjugacy analysis of nilpotent surface-group quotients."""


@cli.command()
@click.option("--orientable/--nonorientable", "orientable", required=True)
@click.option("--genus", type=int, required=True)
@click.option("--samples", type=click.IntRange(min=1),
              default=DEFAULT_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_FORMAT
def degree(orientable, genus, samples, seed, fmt):
    """Nilpotency degree at which every automorphism forces R-infinity."""
    verdict = rinf_degree(SurfaceSpec(orientable, genus), samples=samples,
                          seed=seed)
    payload = {"schema": SCHEMA_REPORT, "command": "degree",
               "config": {"samples": samples, "seed": seed},
               "verdict": verdict.to_json_dict()}
    lines = [f"degree: {verdict.degree}",
             f"claim: {verdict.claim()}",
             "witness matrix:"]
    lines += ["  " + " ".join(str(x) for x in row)
              for row in verdict.witness_matrix.entries]
    if verdict.witness_m is not None:
        lines.append(f"witness twist exponent m: {verdict.witness_m}")
    if verdict.witness_dets:
        lines.append("witness det(I - M_i) by degree: " + ", ".join(
            f"{d}: {v}" for d, v in sorted(verdict.witness_dets.items())))
    if verdict.witness_sym_at_one:
        lines.append("i-fold product spectra at 1: " + ", ".join(
            f"{i}: {'0' if v == 0 else 'nonzero'}"
            for i, v in sorted(verdict.witness_sym_at_one.items())))
    if verdict.structural["kind"] == "structural-rinf":
        reports = verdict.structural["sample_reports"]
        lines.append(f"structural certificate: {len(reports)} admissible "
                     f"samples, eigenvalue 1 by degree 4 in all")
    else:
        lines.append("structural certificate: determinant -1 forces "
                     f"eigenvalue 1 at degree {verdict.structural['class']}")
    lines.append(f"note: {verdict.note}")
    _emit(payload, fmt, lines)


@cli.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=True,
              dir_okay=False), required=True,
              help="matrix file: 'rows cols' header then integer rows")
@click.option("--orientable/--nonorientable", "orientable", required=True)
@click.option("--genus", type=int, required=True)
@click.option("--class", "klass", type=int, required=True)
@_FORMAT
def check(matrix_path, orientable, genus, klass, fmt):
    """Per-degree eigenvalue-1 report for one abelianized action."""
    spec = SurfaceSpec(orientable, genus)
    if klass < 1:
        raise click.ClickException("class must be at least 1")
    _cap(genus, GENUS_CAP, f"check of genus {genus}", "genus cap")
    n = spec.rank
    def admit(rows, cols):
        if rows != n or cols != n:
            raise click.ClickException(
                f"matrix must be {n}x{n} for this surface, got {rows}x{cols}")
    s = _read_matrix(matrix_path, admit)
    if orientable:
        computed = min(klass, 4)
        sign, char = surface_character(s, genus, computed)
        extra = {"admissibility": sign}
    else:
        computed = min(klass, 2 * n)
        work = shape_work(n, computed, SHAPE_WORK_CAP)
        _cap(work, SHAPE_WORK_CAP, f"shape kernel on rank {n} through degree "
             f"{computed} takes at least {work} Newton steps", "shape cap")
        p = charpoly(s)
        extra = {"unimodular": p(0) in (1, -1)}  # p(0) = (-1)^n det(S)
        char = ShapeCharacter(p, "free", computed)
    dets = {d: _printable(d, char.det(d)) for d in range(1, computed + 1)}
    first = next((d for d, v in dets.items() if v == 0), None)
    if first is not None:
        verdict = f"R infinite (degree {first})"
    elif computed >= klass:
        verdict = f"R finite (no eigenvalue 1 through degree {klass})"
    else:
        raise ResourceLimitError(
            f"no eigenvalue 1 found through degree {computed}; degrees above "
            f"{computed} are not computed")
    payload = {"schema": SCHEMA_REPORT, "command": "check",
               "config": {"orientable": orientable, "genus": genus,
                          "class": klass},
               "matrix": [list(r) for r in s.entries],
               "dets": {str(d): v for d, v in sorted(dets.items())},
               "first_eigenvalue_one_degree": first,
               "verdict": verdict}
    payload.update(extra)
    lines = [f"checked degrees 1..{computed}",
             "det(I - M_i) by degree: " + ", ".join(
                 f"{d}: {v}" for d, v in sorted(dets.items())),
             verdict]
    _emit(payload, fmt, lines)


@cli.command()
@click.option("--orientable/--nonorientable", "orientable", required=True)
@click.option("--genus", type=int, required=True)
@click.option("--class", "klass", type=int, default=None,
              help="quotient class for the non-orientable witness search")
@_FORMAT
def witness(orientable, genus, klass, fmt):
    """Explicit matrix whose induced tower avoids eigenvalue 1."""
    SurfaceSpec(orientable, genus)  # rejects a genus with no such surface
    kind = "orientable" if orientable else "non-orientable"
    _cap(genus, GENUS_CAP, f"{kind} witness of genus {genus}", "genus cap")
    if orientable:
        w = orientable_witness(genus)
        p = IntPoly([-1, -2, 1]) ** genus  # charpoly of each [[1,2],[1,1]]
        payload = {"schema": SCHEMA_REPORT, "command": "witness",
                   "config": {"orientable": True, "genus": genus},
                   "matrix": [list(r) for r in w.entries],
                   "matrix_text": w.to_text(),
                   "charpoly_coeffs": list(p.coeffs),
                   "admissibility": admissibility(w, genus),
                   "claim": "no eigenvalue 1 through degree 3 on the "
                            "relator quotient"}
        lines = ["witness matrix:"]
        lines += ["  " + " ".join(str(x) for x in row) for row in w.entries]
        lines.append(f"characteristic polynomial: {p}")
        _emit(payload, fmt, lines)
        return
    g = genus - 1
    if klass is None:
        klass = 2 * g - 1
    if not 1 <= klass < 2 * g:
        raise click.ClickException(f"class must satisfy 1 <= class < {2 * g}")
    w, m, _ = nonorientable_witness(g, klass)
    # the search asserted charpoly(w) = the closed formula and det(w) = -1
    p, det = nonorientable_charpoly_formula(g, m), -1
    payload = {"schema": SCHEMA_REPORT, "command": "witness",
               "config": {"orientable": False, "genus": genus,
                          "class": klass},
               "matrix": [list(r) for r in w.entries],
               "matrix_text": w.to_text(),
               "m": m,
               "determinant": det,
               "charpoly_coeffs": list(p.coeffs),
               "claim": f"no i-fold product of eigenvalues equals 1 for "
                        f"i <= {klass}, so the class-{klass} quotient "
                        f"admits a finite-Reidemeister automorphism"}
    lines = ["witness matrix:"]
    lines += ["  " + " ".join(str(x) for x in row) for row in w.entries]
    lines += [f"twist exponent m: {m}",
              f"determinant: {det}",
              f"characteristic polynomial: {p}"]
    _emit(payload, fmt, lines)


@cli.command("lie-dims")
@click.option("--rank", type=int, required=True)
@click.option("--class", "klass", type=int, required=True)
@_FORMAT
def lie_dims(rank, klass, fmt):
    """Per-degree ranks of the free Lie ring (Witt numbers)."""
    if rank < 1 or klass < 1:
        raise click.ClickException("rank and class must be at least 1")
    digits = int(klass * math.log10(max(rank, 2))) + 1
    answer = f"lie-dims on rank {rank} through class {klass}"
    _cap(digits, LIE_DIMS_DIGIT_CAP, f"{answer} has entries of up to "
         f"{digits} digits", "digit cap")
    _cap(klass * digits, LIE_DIMS_SIZE_CAP, f"{answer} prints up to "
         f"{klass * digits} digits", "size cap")
    dims = [witt_dimension(rank, d) for d in range(1, klass + 1)]
    payload = {"schema": SCHEMA_REPORT, "command": "lie-dims",
               "config": {"rank": rank, "class": klass},
               "dims": dims}
    _emit(payload, fmt, [str(dims)])


@cli.command()
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--class", "klass", type=int, required=True)
@click.option("--n", type=int, required=True)
@_FORMAT
def padding(rank, klass, n, fmt):
    """Padding identity x^n y^f = (x z)^n in the free nilpotent group."""
    if rank < 2:
        raise click.ClickException("rank must be at least 2")
    if n < 2:
        raise click.ClickException("n must be at least 2")
    if klass < 1:
        raise click.ClickException("class must be at least 1")
    ambient = f"padding on rank {rank}, class {klass}"
    _cap(klass, PADDING_CLASS_CAP, ambient, "class cap")
    words = sum(rank ** d for d in range(1, klass + 1))
    _cap(words, PADDING_WORD_CAP,
         f"{ambient} multiplies series over {words} words")
    group = free_nilpotent_group(rank, klass)
    x, y = group.generator(0), group.generator(1)
    f, z = power_padding(n, x, y)
    payload = {"schema": SCHEMA_REPORT, "command": "padding",
               "config": {"rank": rank, "class": klass, "n": n},
               "f": f,
               "z_coords": list(z.coords),
               "identity": f"x^{n} * y^{f} = (x*z)^{n}"}
    lines = [f"f({n}, {klass}) = {f}",
             f"z coordinates (Malcev basis): {list(z.coords)}",
             f"verified identity: x^{n} * y^{f} = (x*z)^{n}"]
    _emit(payload, fmt, lines)


@cli.command()
@click.option("--what", type=click.Choice(["spectrum", "twisted"]),
              required=True)
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--class", "klass", type=int, default=2, show_default=True)
@click.option("--count", type=click.IntRange(min=1), default=10,
              show_default=True,
              help="random matrices for the spectrum mode")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--modulus", type=int, default=3, show_default=True)
@click.option("--matrix", "matrix_path", type=click.Path(exists=True,
              dir_okay=False), default=None,
              help="abelian twist matrix for the twisted mode")
@_FORMAT
def crosscheck(what, rank, klass, count, seed, modulus, matrix_path, fmt):
    """Brute-force oracles versus the exact linear-algebra pipeline."""
    import random as _random
    if what == "spectrum":
        check_hall_table(rank, klass)
        rows = witt_dimension(rank, klass)
        _cap(rows, SPECTRUM_ROW_CAP,
             f"free tower on rank {rank} at degree {klass} has {rows} rows",
             "spectrum cap")
        work = count * (rows ** 4 + 6_000)
        _cap(work, SPECTRUM_COUNT_WORK_CAP, f"{count} towers of {rows} rows "
             f"take {work} charpoly steps", "count work cap")
        table = build_hall_basis(rank, klass)
        rng = _random.Random(seed)
        failures = []
        for idx in range(count):
            s = IntMatrix([[rng.randint(-2, 2) for _ in range(rank)]
                           for _ in range(rank)])
            if not spectrum_crosscheck(s, table, klass):
                failures.append([list(r) for r in s.entries])
        payload = {"schema": SCHEMA_REPORT, "command": "crosscheck",
                   "config": {"what": what, "rank": rank, "class": klass,
                              "count": count, "seed": seed},
                   "failures": failures,
                   "passed": count - len(failures)}
        _emit(payload, fmt,
              [f"spectrum crosscheck: {count - len(failures)}/{count} passed"])
        if failures:
            raise click.ClickException("spectrum crosscheck failed")
        return
    if matrix_path is not None:
        FiniteTwistedSetup(0, 1, modulus)  # the modulus, before the file
        def admit(rows, cols):
            if rows != cols:
                raise click.ClickException("endomorphism matrix must be square")
            FiniteTwistedSetup(rows, 1, modulus)
        m = _read_matrix(matrix_path, admit)
        setup = FiniteTwistedSetup.from_abelian_matrix(m, modulus)
        brute = brute_force_twisted_classes(setup)
        exact = abelian_reidemeister_count(m)
        payload = {"schema": SCHEMA_REPORT, "command": "crosscheck",
                   "config": {"what": what, "modulus": modulus},
                   "matrix": [list(r) for r in m.entries],
                   "brute_force_classes": brute,
                   "cokernel_count": exact}
        lines = [f"brute-force twisted classes mod {modulus}: {brute}",
                 f"cokernel count over Z: "
                 f"{'infinite' if exact is None else exact}"]
        _emit(payload, fmt, lines)
        return
    setup = FiniteTwistedSetup.identity_twist(rank, klass, modulus)
    brute = brute_force_twisted_classes(setup)
    payload = {"schema": SCHEMA_REPORT, "command": "crosscheck",
               "config": {"what": what, "rank": rank, "class": klass,
                          "modulus": modulus},
               "group_order": setup.group_order(),
               "identity_twist_classes": brute}
    _emit(payload, fmt,
          [f"group order {setup.group_order()}, identity-twist classes "
           f"(= conjugacy classes): {brute}"])


@cli.command()
@click.option("--genus", type=int, required=True)
@click.option("--sign", type=click.Choice(["plus", "minus"]), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--length", type=click.IntRange(min=0), default=10,
              show_default=True)
@_FORMAT
def sample(genus, sign, seed, length, fmt):
    """Random admissible matrix (S*Omega*S^T = +-Omega), seed-deterministic."""
    if genus < 1:
        raise click.ClickException("genus must be at least 1")
    _cap(genus, SAMPLE_GENUS_CAP, f"sample of genus {genus}", "genus cap")
    _cap(length, SAMPLE_LENGTH_CAP, f"sample of length {length}",
         "length cap")
    s = sample_admissible(genus, sign, seed, length=length)  # asserts sign
    payload = {"schema": SCHEMA_REPORT, "command": "sample",
               "config": {"genus": genus, "sign": sign, "seed": seed,
                          "length": length},
               "matrix": [list(r) for r in s.entries],
               "matrix_text": s.to_text(),
               "admissibility": sign}
    _emit(payload, fmt, [s.to_text().rstrip("\n")])


def main(argv=None):
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ResourceLimitError as exc:
        click.echo(f"resource cap: {exc}", err=True)
        return 2
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.exceptions.Exit as exc:  # --help and friends
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
