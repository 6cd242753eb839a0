"""Tests of the benchmark itself: failures are counted and charged, traced
counts repeat, and the output keeps its format.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import setfam  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from setfam._kernels import load_backend  # noqa: E402


def _ekr_job(host, omega, star, timeout_s=30.0):
    return workloads.Job(
        "small",
        partial(workloads.ekr_verdict, host),
        partial(workloads.check_ekr, host, omega, star),
        timeout_s,
    )


def test_planted_wrong_expected_value_counts_as_failed():
    host = workloads.relabel(setfam.gen_complete(8, 3), random.Random(1))
    right = _ekr_job(host, 21, 21)
    planted = _ekr_job(host, 22, 21, timeout_s=7.0)
    outcomes = harness.run_pass(workloads.Workload("planted", (right, planted)))
    assert [o.status for o in outcomes] == ["ok", "wrong"]
    assert "want (22, 21, False)" in outcomes[1].detail
    assert sum(o.failed for o in outcomes) == 1
    assert outcomes[1].charged_s == 7.0
    assert harness.pass_wall(outcomes) == outcomes[0].elapsed_s + 7.0


def test_tiny_timeout_on_cliff_case_is_recorded_and_charged():
    job = workloads.search_cliffs(seed=0, timeout_s=0.3).jobs[0]
    assert job.name == "complete-9-4"
    outcome, spans = harness.run_isolated(job)
    assert outcome.status == "timeout"
    assert outcome.failed and spans is None
    assert outcome.charged_s == 0.3
    assert harness.pass_wall([outcome]) == 0.3


def test_cliff_exception_is_recorded_by_name():
    job = workloads.search_cliffs(seed=0).jobs[1]
    assert job.name == "star-17-5"
    outcome, _ = harness.run_isolated(job)
    if setfam.KERNEL_BACKEND != "pure":
        pytest.skip("the RecursionError cliff is specific to the pure kernels")
    assert outcome.status == "RecursionError"
    assert outcome.charged_s == job.timeout_s


def test_in_process_timeout_is_not_swallowed_by_the_program():
    # suite_theorems turns any Exception in a check into a failed check;
    # the alarm must still end the whole job.
    job = workloads.Job("theorems", workloads.theorems_report, workloads.check_theorems, 0.05)
    (outcome,) = harness.run_pass(workloads.Workload("t", (job,)))
    assert outcome.status == "timeout"
    assert outcome.charged_s == 0.05


def _small_traced_run(seed):
    rng = random.Random(seed)
    hosts = [
        workloads.relabel(setfam.gen_full_star(9, 3, 1), rng),
        workloads.relabel(setfam.gen_hm(setfam.HMSpec.standard(9, 3)), rng),
    ]
    jobs = tuple(
        workloads.Job(f"h{i}", partial(workloads.ekr_verdict, h), lambda v: None, 30.0)
        for i, h in enumerate(hosts)
    )
    landscape = workloads.Job(
        "landscape-6-2",
        lambda: setfam.iso_classes(
            random.Random(seed).sample(list(setfam.enumerate_maximal_intersecting(6, 2)), k=10)
        ),
        lambda v: None,
        30.0,
    )
    tracer = tracing.Tracer().install()
    try:
        passes = harness.run_passes(workloads.Workload("small", jobs + (landscape,)), 0.0, tracer)
    finally:
        tracer.uninstall()
    assert not any(o.failed for o in passes[0])
    values, unstable = tracing.layer_metrics(tracer)
    assert not unstable
    units = tracing.metric_units()
    return {k: v for k, v in values.items() if units[k] in ("count", "ratio")}


def test_traced_counts_repeat_for_a_fixed_seed():
    first, second = _small_traced_run(3), _small_traced_run(3)
    assert first == second
    assert first["search.max_intersecting_subfamily.calls"] == 2
    assert first["search.witness_calls"] > 0
    assert first["kernels.canonical_min.calls"] >= 10
    assert first["enumeration.canonical_members.calls"] == 10


def test_tracer_sees_names_bound_by_from_import():
    from setfam import covers, enumeration

    tracer = tracing.Tracer().install()
    try:
        assert enumeration.cover_number is covers.cover_number
        assert enumeration.cover_number.__wrapped__.__module__ == "setfam.covers"
        enumeration.cover_number(setfam.gen_full_star(6, 2, 1))
    finally:
        tracer.uninstall()
    assert not hasattr(enumeration.cover_number, "__wrapped__")
    assert tracing.pass_profiles(tracer)[0]["covers.cover_number"]["calls"] == 1


def test_backend_disagreement_is_reported():
    pure = load_backend("pure")

    class Broken:
        maximal_cliques = staticmethod(pure.maximal_cliques)
        canonical_min = staticmethod(pure.canonical_min)

        @staticmethod
        def max_clique_size(adj, nv, cand, lb=0):
            return pure.max_clique_size(adj, nv, cand, lb) + 1

    assert run.backend_agreement({"pure": pure}).startswith("skipped")
    assert run.backend_agreement({"pure": pure, "again": pure}) == "agree"
    assert run.backend_agreement({"pure": pure, "broken": Broken}) == (
        "disagree on max_clique_size complete (8,3)"
    )


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_last_line_is_the_result_object():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "theorems", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
