"""Tests of the benchmark harness itself (references, inputs, failure counting)."""

import json
import os
import time

import inputs
import run
import tracer
import workloads


class SmallOracle(workloads.Oracle):
    """The Heisenberg group mod 3: order 27, answers in a fraction of a second."""
    rank, klass, modulus = 2, 2, 3


def test_closed_form_heisenberg_mod_3():
    assert workloads.identity_twist_classes(3, 2) == 11
    for p in (3, 5, 7):
        assert workloads.identity_twist_classes(p, 2) == p * p + p - 1
    assert workloads.identity_twist_classes(5, 3) == 745


def test_generator_emits_only_admissible_matrices():
    for seed in range(2):
        for index in range(6):
            sign = "plus" if index % 2 == 0 else "minus"
            s = inputs.admissible_matrix(inputs.request_rng(seed, index), 3,
                                         sign)
            assert inputs.admissible_sign(s, 3) == sign
    assert inputs.admissible_sign([[1, 1], [0, 2]], 1) == "none"


def test_same_seed_same_inputs():
    a = inputs.admissible_matrix(inputs.request_rng(4, 1), 3, "minus")
    b = inputs.admissible_matrix(inputs.request_rng(4, 1), 3, "minus")
    c = inputs.admissible_matrix(inputs.request_rng(5, 1), 3, "minus")
    assert a == b and a != c


def _run_small(workload):
    return run.run(workload, seed=0, seconds=0, trace=False,
                   hard_deadline=time.monotonic() + 60)


def test_correct_reference_passes():
    rec = _run_small(SmallOracle())
    assert rec["attempted"] == run.MIN_REQUESTS
    assert rec["correct"] == rec["attempted"] and not rec["failures"]


def test_wrong_reference_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "identity_twist_classes",
                        lambda p, r: p * p + p)
    rec = _run_small(SmallOracle())
    assert rec["attempted"] == run.MIN_REQUESTS
    assert rec["correct"] == 0
    assert len(rec["failures"]) == rec["attempted"]
    assert "closed form gives 12" in rec["failures"][0]["reason"]


def test_self_time_subtracts_children_with_their_statistics():
    # cli [0, 10] > det [1, 4] (statistics until 5) > kfold [2, 3]
    spans = [["cli", 0.0, 10.0, 10.0, None, 0, {}],
             ["intlinalg.det", 1.0, 4.0, 5.0, 0, 0, {}],
             ["intlinalg.kfold", 2.0, 3.0, 3.0, 1, 0, {}]]
    calls, own = tracer.self_times(spans)
    assert calls["intlinalg.det"] == 1
    assert own == {"cli": 6.0, "intlinalg.det": 2.0, "intlinalg.kfold": 1.0}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rec = {"latencies": [1.0], "busy": 1.0, "correct": 1, "attempted": 1,
           "setups": [0.1], "rss_kb": [1024]}
    assert sorted(run.end_to_end(rec)) == \
        sorted(m["name"] for m in bench["end_to_end"])
    report = {"spans": [["cli", 0.0, 1.0, 1.0, None, 0, {}]], "counts": {}}
    layers = tracer.summarize([report], [(1.0, 1.1)])
    assert sorted(layers) == sorted(m["name"] for m in bench["per_layer"])
    for m in bench["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]
    assert sorted(bench["workloads"], key=lambda w: w["name"]) == sorted(
        ({"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()),
        key=lambda w: w["name"])
