"""Spans around the public functions of each rinfty layer, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``rinfty`` module that holds it by name (``analysis.charpoly``,
``cli.rinf_degree``, ...), and each traced method on its class.  A span
is recorded as ``[name, start, end, stats_end, parent, request, attrs]``:
``end`` closes the call itself and ``stats_end`` also covers the
harness's own size statistics, which therefore count against neither the
layer nor its caller.  ``summarize`` turns the spans of many requests
into the per-layer metrics.
"""

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter

NAME, START, END, STATS_END, PARENT, REQUEST, ATTRS = range(7)


def _bits(values):
    return max((abs(x).bit_length() for x in values), default=0)


def _entries(mat):
    return (x for row in mat.entries for x in row)


class Tracer:
    """Span and counter recorder for one request."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._seen = {}

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, None, parent,
                           self.request_id, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.spans[idx][STATS_END] = self.spans[idx][END]

    def timed(self, name, fn, stats):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            if stats is not None:
                span[ATTRS] = stats(self, args, result)
            span[STATS_END] = time.perf_counter()
            return result
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            return result
        return wrapper

    def once(self, obj, compute):
        """``compute(obj)`` on first sight of ``obj``, else an empty dict.

        Cached tower degrees and Smith transforms come back as the same
        object many times and are counted once; the reference kept here
        pins the id.
        """
        if id(obj) in self._seen:
            return {}
        self._seen[id(obj)] = obj
        return compute(obj)

    # -- installation -------------------------------------------------------

    def install(self):
        import rinfty.cli  # noqa: F401 - loads every traced module
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rinfty" or n.startswith("rinfty.")]
        for name, owner, attr, stats in SPANS:
            self._patch(modules, owner, attr,
                        lambda fn, name=name, stats=stats:
                        self.timed(name, fn, stats))
        for name, owner, attr in COUNTERS:
            self._patch(modules, owner, attr,
                        lambda fn, name=name: self.counted(name, fn))

    @staticmethod
    def _patch(modules, owner, attr, make):
        module = sys.modules[owner]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- per-layer statistics, computed outside the span's own time --------------

def _matrix_shape(mat):
    entries = list(_entries(mat))
    return {"dim": mat.rows, "bits": _bits(entries),
            "nnz": sum(1 for x in entries if x), "size": len(entries)}


def _tower_stats(tracer, args, result):
    return tracer.once(result, _matrix_shape)


def _project_stats(tracer, args, result):
    quotient, mat, d = args[0], args[1], args[2]
    u = quotient.snf(d).u
    attrs = {"dim": mat.rows}
    u_shape = tracer.once(u, _matrix_shape)
    if u_shape:
        attrs.update(u_nnz=u_shape["nnz"], u_size=u_shape["size"])
    return attrs


def _snf_stats(tracer, args, result):
    return {"dim": max(args[0].rows, args[0].cols)}


def _det_stats(tracer, args, result):
    mat = args[0]
    return {"dim": mat.rows, "bits": _bits(_entries(mat)), "zero": result == 0}


def _charpoly_stats(tracer, args, result):
    return {"dim": args[0].rows}


def _kfold_stats(tracer, args, result):
    if isinstance(result, int):
        return {"bits": result.bit_length()}
    return {"degree": result.degree, "bits": _bits(result.coeffs)}


def _brute_stats(tracer, args, result):
    return {"elems": args[0].group_order()}


# (metric prefix, defining module, attribute, statistics)
SPANS = [
    ("freelie.hall", "rinfty.freelie", "build_hall_basis", None),
    ("freelie.tower", "rinfty.freelie", "InducedTower.matrix", _tower_stats),
    ("freelie.project", "rinfty.freelie", "GradedQuotient.project",
     _project_stats),
    ("intlinalg.snf", "rinfty.intlinalg", "smith_normal_form", _snf_stats),
    ("intlinalg.det", "rinfty.intlinalg", "IntMatrix.det", _det_stats),
    ("intlinalg.charpoly", "rinfty.intlinalg", "charpoly", _charpoly_stats),
    ("intlinalg.kfold", "rinfty.intlinalg", "kfold_value_at_one", _kfold_stats),
    ("intlinalg.kfold", "rinfty.intlinalg", "kfold_product_spectrum",
     _kfold_stats),
    ("nilpotent.padding", "rinfty.nilpotent", "padding_exponent", None),
    ("oracle.setup", "rinfty.oracle", "FiniteTwistedSetup.__init__", None),
    ("oracle.brute", "rinfty.oracle", "brute_force_twisted_classes",
     _brute_stats),
    ("analysis.sample", "rinfty.analysis", "sample_admissible", None),
    ("analysis.verdict", "rinfty.analysis", "rinf_degree", None),
]

# Calls only: oracle multiplication runs ~10^5 times per request, too
# often for a span each; the other two give the witness search's ratio.
COUNTERS = [
    ("oracle.multiply", "rinfty.oracle", "FiniteTwistedSetup.multiply"),
    ("analysis.dominance", "rinfty.intlinalg", "dominance_root_test"),
    ("analysis.witness", "rinfty.analysis", "nonorientable_witness"),
]

SPAN_LAYERS = list(dict.fromkeys(name for name, *_ in SPANS))


def self_times(spans):
    """Per-layer (calls, self seconds) of one request's spans.

    Self time is a span's own duration minus the stretch its direct
    children occupy, their statistics included.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[STATS_END] - s[START]
    calls, own = Counter(), Counter()
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        own[s[NAME]] += (s[END] - s[START]) - child[i]
    return calls, own


def summarize(traced, overhead_pairs):
    """Per-layer metrics from the traced requests of one run.

    ``traced`` is a list of worker reports with spans and counts;
    ``overhead_pairs`` holds (untraced, traced) seconds in ``cli.main``
    for the same input.  Calls and self times are medians per request;
    sizes are maxima and fractions are pooled over the run.
    """
    per_request = [self_times(r["spans"]) for r in traced]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in SPAN_LAYERS:
        put(f"{layer}.calls",
            statistics.median(c[layer] for c, _ in per_request), "count")
        put(f"{layer}.self_s",
            statistics.median(o[layer] for _, o in per_request), "s")
    put("cli.self_s", statistics.median(o["cli"] for _, o in per_request), "s")

    attrs = {}
    for r in traced:
        for s in r["spans"]:
            attrs.setdefault(s[NAME], []).append(s[ATTRS])

    def top(layer, key):
        return max((a[key] for a in attrs.get(layer, []) if key in a),
                   default=0)

    def pooled(layer, num, den):
        rows = [a for a in attrs.get(layer, []) if den in a]
        total = sum(a[den] for a in rows)
        return sum(a[num] for a in rows) / total if total else 0.0

    put("freelie.tower.max_dim", top("freelie.tower", "dim"), "rows")
    put("freelie.tower.max_bits", top("freelie.tower", "bits"), "bits")
    put("freelie.tower.nnz_frac", pooled("freelie.tower", "nnz", "size"),
        "frac")
    put("freelie.project.max_dim", top("freelie.project", "dim"), "rows")
    put("freelie.project.u_nnz_frac",
        pooled("freelie.project", "u_nnz", "u_size"), "frac")
    put("intlinalg.snf.max_dim", top("intlinalg.snf", "dim"), "rows")
    put("intlinalg.det.max_dim", top("intlinalg.det", "dim"), "rows")
    put("intlinalg.det.max_bits", top("intlinalg.det", "bits"), "bits")
    dets = attrs.get("intlinalg.det", [])
    put("intlinalg.det.zero_frac",
        sum(1 for a in dets if a.get("zero")) / len(dets) if dets else 0.0,
        "frac")
    put("intlinalg.charpoly.max_dim", top("intlinalg.charpoly", "dim"), "rows")
    put("intlinalg.kfold.max_degree", top("intlinalg.kfold", "degree"),
        "degree")
    put("intlinalg.kfold.max_bits", top("intlinalg.kfold", "bits"), "bits")

    brute_s = sum(s[END] - s[START] for r in traced for s in r["spans"]
                  if s[NAME] == "oracle.brute")
    put("oracle.brute.elems_per_s",
        sum(a.get("elems", 0) for a in attrs.get("oracle.brute", []))
        / brute_s if brute_s else 0.0, "1/s")
    put("oracle.multiply.calls",
        statistics.median(r["counts"].get("oracle.multiply", 0)
                          for r in traced), "count")
    tries = sum(r["counts"].get("analysis.dominance", 0) for r in traced)
    accepts = sum(r["counts"].get("analysis.witness", 0) for r in traced)
    put("analysis.witness.tries_per_accept",
        tries / accepts if accepts else 0.0, "ratio")
    put("trace.overhead_frac",
        statistics.median(t / u - 1 for u, t in overhead_pairs), "frac")
    return out
