#!/usr/bin/env python3
"""setfam benchmark: exact verdicts, how long they take and whether they
arrive at all.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; ``setfam`` is imported from its
``src/`` with the kernel backend the package selects on its own.  Jobs run
closed loop, one at a time, in one process (search-cliffs: one child
process per job, killed at the job's timeout).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s`` - median over fresh interpreters of the time from start to
  the first timed job: ``import setfam`` plus input preparation.
* ``wall_s`` - median over passes of the time one pass takes to produce
  all verdicts; a job that fails is charged its timeout.
* ``peak_rss_mb`` - peak resident memory of the process that ran the
  workload (or of its largest child).

With ``--trace 1`` it reports per-layer calls and self time from wrappers
around setfam's public functions (see tracing.py), and the tracing
overhead as traced minus untraced ``wall_s``.  ``--workload all`` runs
every workload in its own process and prints one table.

The last line of output is one JSON object: ``correct``, ``attempted``
(jobs), ``failed`` (jobs that raised, timed out or gave a wrong verdict)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
DEFAULT_SECONDS = 40


def _use_checkout_src():
    """Import setfam from this checkout only; refuse to run without it."""
    if not (SRC / "setfam" / "__init__.py").is_file():
        sys.exit(f"error: no setfam sources under {SRC}; run from a setfam checkout")
    sys.path.insert(0, str(SRC))


_use_checkout_src()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from setfam import _kernels  # noqa: E402


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def backend_agreement(backends) -> str:
    """Do the kernel backends give identical answers on small inputs?"""
    if len(backends) < 2:
        return f"skipped: only {', '.join(backends)} importable"
    from setfam import enumeration, famcore, generators

    graph = famcore.all_ksets(7, 3)
    adj = enumeration.intersection_adjacency(graph)
    host = generators.gen_complete(8, 3).members
    host_adj = enumeration.intersection_adjacency(host)
    fams = [f.members for f in enumeration.enumerate_maximal_intersecting(6, 2)]
    cases = {
        "maximal_cliques (7,3)": lambda b: tuple(b.maximal_cliques(adj, len(graph))),
        "max_clique_size complete (8,3)": lambda b: b.max_clique_size(
            host_adj, len(host), (1 << len(host)) - 1, 0
        ),
        "canonical_min maximal (6,2)": lambda b: tuple(b.canonical_min(6, f) for f in fams),
    }
    for label, case in cases.items():
        if len({case(b) for b in backends.values()}) != 1:
            return f"disagree on {label}"
    return "agree"


def measure_setup(name, seed) -> float:
    """Median time from a fresh interpreter's start to its inputs being ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _median_wall(passes) -> float:
    return statistics.median(harness.pass_wall(p) for p in passes)


def end_to_end(name, seed, seconds):
    """(passes, metrics, extra report) of an untraced run."""
    setup = measure_setup(name, seed)
    passes = harness.run_passes(workloads.WORKLOADS[name](seed), seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (_median_wall(passes), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MiB"),
    }
    return passes, metrics, {"unstable_counts": []}


def per_layer(name, seed, seconds):
    """(passes, metrics, extra report) of a run that is untraced for half
    of its time and traced, set-up included, for the other half."""
    untraced = harness.run_passes(workloads.WORKLOADS[name](seed), seconds / 2)
    tracer = tracing.Tracer().install()
    try:
        workload = workloads.WORKLOADS[name](seed)  # set-up, traced as pass 0
        traced = harness.run_passes(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    values, unstable = tracing.layer_metrics(tracer)
    values["trace.untraced_wall_s"] = _median_wall(untraced)
    values["trace.traced_wall_s"] = _median_wall(traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    metrics = {k: (values[k], unit) for k, unit in tracing.metric_units().items()}
    extra = {
        "busiest": tracing.busiest(tracer),
        "unstable_counts": unstable,
        "waiting": "none: one thread and no I/O, so no waiting metric exists",
    }
    return untraced + traced, metrics, extra


def run_workload(name, seed, seconds, trace) -> dict:
    passes, metrics, extra = (per_layer if trace else end_to_end)(name, seed, seconds)
    outcomes = [o for p in passes for o in p]
    failures = [o for o in outcomes if o.failed]
    agreement = backend_agreement(
        {n: _kernels.load_backend(n) for n in _kernels.available_backends()}
    )
    correct = (
        not any(o.status == "wrong" for o in outcomes)
        and not agreement.startswith("disagree")
        and not extra["unstable_counts"]
    )
    return {
        "record": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "backend": _kernels.BACKEND, "backend_agreement": agreement,
            "python": platform.python_version(), "commit": commit(),
            "nproc": os.cpu_count(), "passes": len(passes), "ops_per_pass": len(passes[0]),
        },
        "failures": list(dict.fromkeys((o.job, o.status, o.detail) for o in failures)),
        **extra,
        "result": {
            "correct": correct,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        },
    }


def print_run(report):
    rec = report["record"]
    print("record " + json.dumps(rec, sort_keys=True))
    res = report["result"]
    print(f"{rec['workload']}: ops {res['attempted']} ops_failed {res['failed']} "
          f"over {rec['passes']} passes")
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for job, status, detail in report["failures"]:
        print(f"  failed {job}: {status} {detail}")
    if "busiest" in report:
        print(f"  waiting: {report['waiting']}")
        for fn, calls, self_s in report["busiest"]:
            print(f"  busiest {fn:44s} calls {calls:8d} self {self_s:.4f} s")
    for name in report["unstable_counts"]:
        print(f"  count differed between passes: {name}")
    print(json.dumps(res))


def run_all(seed, seconds):
    """Every workload in its own process, one table."""
    rows = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = out.stdout.splitlines()
        rec = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
        res = json.loads(lines[-1])
        rows[name] = {
            **{k: v["value"] for k, v in res["metrics"].items()},
            "ops": rec["ops_per_pass"],
            "ops_failed": res["failed"] / rec["passes"],
            "correct": res["correct"],
            "failures": [ln.strip() for ln in lines if ln.strip().startswith("failed ")],
        }
        backend = rec["backend"]
    print(f"backend {backend}, seed {seed}, {seconds} s per workload; "
          "ops and ops_failed are per pass")
    print(f"{'workload':14s} {'setup_s (s)':>12s} {'wall_s (s)':>11s} {'ops':>4s} "
          f"{'ops_failed':>10s} {'peak_rss_mb (MiB)':>18s} correct")
    for name, r in rows.items():
        print(f"{name:14s} {r['setup_s']:12.4f} {r['wall_s']:11.4f} {r['ops']:4d} "
              f"{r['ops_failed']:10g} {r['peak_rss_mb']:18.1f} {r['correct']}")
        for line in r["failures"]:
            print(f"  {line}")
    print(json.dumps(rows))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.monotonic())
    elif args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        print_run(run_workload(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
