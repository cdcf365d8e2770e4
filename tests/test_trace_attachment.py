"""The benchmark's tracer still finds every kernel it wraps.

``perfbench/tracer.py`` patches rinfty functions by name from outside;
a kernel that is renamed or moved would silently drop its per-layer
metrics.  One test resolves every wrapped name without patching, the
other runs one traced benchmark request end to end.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from rinfty.analysis import orientable_witness

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


def test_traced_check_records_every_kernel_span(tmp_path):
    path = tmp_path / "s2.txt"
    path.write_text(orientable_witness(2).to_text())
    request = {"id": 0, "trace": 1,
               "argv": ["check", "--matrix", str(path), "--orientable",
                        "--genus", "2", "--class", "4", "--format", "json"]}
    proc = subprocess.run([sys.executable, WORKER, json.dumps(request)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0
    assert json.loads(report["stdout"])["verdict"] == "R infinite (degree 4)"
    names = {span[0] for span in report["spans"]}
    for layer in ("intlinalg.det", "intlinalg.snf", "freelie.project",
                  "freelie.tower"):
        assert layer in names
