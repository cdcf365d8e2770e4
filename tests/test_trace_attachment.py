"""The benchmark's tracer still finds every kernel it wraps.

``perfbench/tracer.py`` patches rinfty functions by name from outside;
a kernel that is renamed or moved would silently drop its per-layer
metrics.  One test resolves every wrapped name without patching, the
others run traced benchmark requests end to end: a non-orientable
``check``, which reads the partition-shape kernel and unimodularity off
charpoly(W) and records no det, Hall table or tower, a spectrum
``crosscheck``, which builds the towers as that kernel's oracle, an
orientable ``check`` that must record none of the tower kernels, and a
non-orientable ``degree`` verdict, which builds no tower either: its
spans are the padding exponent and the one Hall table of the rank-2
Malcev basis behind it, and its Sym^i witness test records no k-fold
span.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from rinfty.analysis import nonorientable_witness, orientable_witness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(owner, attr) for _, owner, attr, _ in tracer.SPANS]
    targets += [(owner, attr) for _, owner, attr in tracer.COUNTERS]
    for owner, attr in targets:
        module = importlib.import_module(owner)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = getattr(module, cls_name).__dict__.get(meth)
        else:
            found = getattr(module, attr, None)
        assert callable(found), f"{owner}.{attr}"


KERNEL_SPANS = ("intlinalg.det", "intlinalg.snf", "freelie.project",
                "freelie.tower")


def _traced(*argv):
    """Payload and span names of one traced worker request."""
    request = {"id": 0, "trace": 1, "argv": [*argv, "--format", "json"]}
    proc = subprocess.run([sys.executable, WORKER, json.dumps(request)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0
    return json.loads(report["stdout"]), [span[0] for span in report["spans"]]


def _traced_check(path, *args):
    payload, names = _traced("check", "--matrix", str(path), *args)
    return payload, set(names)


def test_traced_check_records_every_kernel_span(tmp_path):
    # the non-orientable check reads unimodularity off charpoly(W): no det
    path = tmp_path / "w3.txt"
    path.write_text(nonorientable_witness(2, 3)[0].to_text())
    payload, names = _traced_check(path, "--nonorientable", "--genus", "3",
                                   "--class", "4")
    assert payload["verdict"] == "R infinite (degree 4)"
    assert payload["unimodular"] is True
    assert "intlinalg.charpoly" in names
    assert not names & {"intlinalg.det", "freelie.hall", "freelie.tower"}

    # the towers run in the spectrum crosscheck, the shape kernel's oracle
    payload, names = _traced("crosscheck", "--what", "spectrum", "--rank",
                             "2", "--class", "3", "--count", "2")
    assert payload["passed"] == 2
    assert {"freelie.hall", "freelie.tower", "intlinalg.charpoly"} <= set(names)

    # the orientable check reads the Labute character: no tower, no quotient
    path = tmp_path / "s2.txt"
    path.write_text(orientable_witness(2).to_text())
    payload, names = _traced_check(path, "--orientable", "--genus", "2",
                                   "--class", "4")
    assert payload["verdict"] == "R infinite (degree 4)"
    assert "intlinalg.charpoly" in names
    assert not names & set(KERNEL_SPANS)


def test_traced_nonorientable_verdict_builds_no_tower():
    payload, names = _traced("degree", "--nonorientable", "--genus", "3")
    assert payload["verdict"]["degree"] == 4
    assert "nilpotent.padding" in names
    assert "intlinalg.kfold" not in names
    assert names.count("freelie.hall") == 1
    assert not set(names) & {"freelie.tower", "freelie.project",
                             "intlinalg.snf"}
