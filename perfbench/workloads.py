"""The four benchmark workloads: the request each sends, and its reference.

A workload has a ``name``, a ``why``, ``request(root, seed, index)``
returning the CLI argv of one request plus what its check needs, and
``check(payload, context)`` returning None for a correct answer and a
one-line reason otherwise.  Every reference comes from the paper, the
README or a closed form, never from running rinfty.
"""

import json
import os
import re

import inputs

OUT_DIR = ".perfbench_out"

ORIENTABLE_G2_WITNESS_DETS = {"1": 4, "2": -32, "3": 12544}  # README


def identity_twist_classes(p, r):
    """Conjugacy classes of the class-2 free nilpotent group N_r mod p.

    The centre is the commutator subgroup, of order p^m with
    m = r(r-1)/2, and gives p^m singleton classes.  A non-central x has
    class x[x, G], of size p^(r-1) (the rank of y -> x ^ y on the
    abelianization), so the other p^(r+m) - p^m elements fall into
    p^(m+1) - p^(m-r+1) classes.  Identity-twist classes are conjugacy
    classes.
    """
    m = r * (r - 1) // 2
    return p ** m + p ** (m + 1) - p ** (m - r + 1)


class OrientableG3:
    name = "orientable-g3"
    why = ("largest lattice of any shipped verdict (315-dim tower, 280-dim "
           "projection at degree 4): the mechanism workload for "
           "freelie.project, intlinalg.det and intlinalg.snf")

    def request(self, root, seed, index):
        sign = "plus" if index % 2 == 0 else "minus"
        s = inputs.admissible_matrix(inputs.request_rng(seed, index), 3, sign)
        path = os.path.join(OUT_DIR, "inputs", f"{self.name}-{seed}-{index}.txt")
        os.makedirs(os.path.join(root, os.path.dirname(path)), exist_ok=True)
        with open(os.path.join(root, path), "w") as fh:
            fh.write(inputs.matrix_text(s))
        argv = ["check", "--orientable", "--genus", "3", "--class", "4",
                "--matrix", path, "--format", "json"]
        return argv, {"sign": sign, "matrix": s,
                      "det1": inputs.det_i_minus(s)}

    def check(self, payload, context):
        # Paper: a symplectic matrix has eigenvalues in pairs lambda,
        # 1/lambda, so degree 2 carries eigenvalue 1; every admissible
        # matrix has it by degree 4.  Degree 1 is det(I - S) itself.
        limit = 2 if context["sign"] == "plus" else 4
        if payload.get("matrix") != context["matrix"]:
            return "matrix echoed back differs from the input"
        if payload["dets"].get("1") != context["det1"]:
            return f"degree-1 det {payload['dets'].get('1')}, want {context['det1']}"
        if payload.get("admissibility") != context["sign"]:
            return f"admissibility {payload.get('admissibility')!r}"
        match = re.fullmatch(r"R infinite \(degree (\d+)\)",
                             str(payload.get("verdict")))
        if match is None:
            return f"verdict {payload.get('verdict')!r}"
        first = int(match.group(1))
        if first > limit:
            return f"first eigenvalue-1 degree {first} > {limit}"
        if payload.get("first_eigenvalue_one_degree") != first:
            return "first_eigenvalue_one_degree disagrees with the verdict"
        if payload["dets"].get(str(first)) != 0:
            return f"det at degree {first} is not 0"
        return None


class OrientableG2Samples:
    name = "orientable-g2-samples"
    why = ("same tower/project/det/charpoly layers on hundreds of small "
           "matrices with little setup: a large-matrix rewrite must not slow "
           "it, and a parallel sample loop would show here")
    samples = 200

    def request(self, root, seed, index):
        cli_seed = inputs.request_rng(seed, index).randrange(2 ** 31)
        argv = ["degree", "--orientable", "--genus", "2",
                "--samples", str(self.samples), "--seed", str(cli_seed),
                "--format", "json"]
        return argv, {"seed": cli_seed}

    def check(self, payload, context):
        verdict = payload["verdict"]
        if payload["config"]["seed"] != context["seed"]:
            return "seed not echoed"
        if verdict["degree"] != 4:
            return f"degree {verdict['degree']}"
        if verdict["witness"]["dets"] != ORIENTABLE_G2_WITNESS_DETS:
            return f"witness dets {verdict['witness']['dets']}"
        reports = verdict["structural"]["sample_reports"]
        if len(reports) != self.samples:
            return f"{len(reports)} sample reports"
        for rep in reports:
            first = rep["first_eigenvalue_one_degree"]
            if first is None or not 1 <= first <= 4:
                return f"sample with first eigenvalue-1 degree {first}"
        return None


class NonorientableH4:
    name = "nonorientable-h4"
    why = ("no relator quotient, so it bypasses project and snf: free towers "
           "to degree 6 with 100+-bit entries, k-fold resultants and a cold "
           "padding_exponent")

    def request(self, root, seed, index):
        cli_seed = inputs.request_rng(seed, index).randrange(2 ** 31)
        argv = ["degree", "--nonorientable", "--genus", "4",
                "--seed", str(cli_seed), "--format", "json"]
        return argv, {"seed": cli_seed}

    def check(self, payload, context):
        # Paper: degree 2g = 6 for genus g+1 = 4, with a determinant -1
        # witness whose squared eigenvalue product forces eigenvalue 1.
        verdict = payload["verdict"]
        if payload["config"]["seed"] != context["seed"]:
            return "seed not echoed"
        if verdict["degree"] != 6:
            return f"degree {verdict['degree']}"
        if verdict["structural"]["witness_determinant"] != -1:
            return "witness determinant is not -1"
        return None


class Oracle:
    name = "oracle"
    why = ("the only workload on oracle.brute_force_twisted_classes (a "
           "union-find over 15,625 Malcev-coordinate elements) and the "
           "nilpotent collection maps")
    rank, klass, modulus = 3, 2, 5

    def request(self, root, seed, index):
        argv = ["crosscheck", "--what", "twisted", "--rank", str(self.rank),
                "--class", str(self.klass), "--modulus", str(self.modulus),
                "--format", "json"]
        return argv, {}

    def check(self, payload, context):
        want = identity_twist_classes(self.modulus, self.rank)
        got = payload.get("identity_twist_classes")
        if got != want:
            return f"{got} identity-twist classes, closed form gives {want}"
        order = self.modulus ** (self.rank + self.rank * (self.rank - 1) // 2)
        if payload.get("group_order") != order:
            return f"group order {payload.get('group_order')}"
        return None


WORKLOADS = {w.name: w for w in (OrientableG3(), OrientableG2Samples(),
                                 NonorientableH4(), Oracle())}


def verify(workload, report, context):
    """None if the worker's report is a correct answer, else the reason."""
    if report.get("rc") != 0:
        return f"exit code {report.get('rc')}: {report.get('stderr', '')[:200]}"
    try:
        payload = json.loads(report["stdout"])
        return workload.check(payload, context)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
