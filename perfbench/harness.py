"""Running a workload's jobs: one at a time, each with a timeout, each
verdict checked, every failure kept as data.

A job that raises, runs past its timeout or returns a wrong verdict is
charged its timeout, so a quick crash never reads as a speed-up and
fixing a crash never reads as a slow-down.
"""

from __future__ import annotations

import multiprocessing
import resource
import signal
import time
from dataclasses import dataclass

import tracing

# Time a child process may take to start and send its answer, on top of
# the job's own timeout, before it is killed.
SPAWN_GRACE_S = 10.0


class CaseTimeout(BaseException):
    """Raised by the alarm inside a job that ran past its timeout.  It is
    not an Exception, so no handler in the program under test swallows it."""


@dataclass(frozen=True)
class Outcome:
    job: str
    status: str  # "ok", "wrong", "timeout", or the name of the exception raised
    detail: str
    elapsed_s: float
    charged_s: float

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _raise_timeout(signum, frame):
    raise CaseTimeout


def _timed_call(run, timeout_s):
    """(status, detail, elapsed_s, verdict) of run() under a SIGALRM timeout.

    The alarm interrupts Python code only; a call into compiled code ends
    first and is then recorded as a timeout."""
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    t0 = time.perf_counter()
    verdict, elapsed = None, timeout_s
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            verdict = run()
            status, detail = "ok", ""
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        status, detail = "timeout", f"no verdict after {timeout_s:g} s"
    except Exception as e:  # a crashed job is a failed job, recorded by name
        status, detail = type(e).__name__, str(e)[:200]
    finally:
        signal.signal(signal.SIGALRM, old)
    return status, detail, elapsed, verdict


def _outcome(job, status, detail, elapsed, verdict) -> Outcome:
    if status == "ok":
        problem = job.check(verdict)
        if problem is not None:
            status, detail = "wrong", problem
    charged = elapsed if status == "ok" else job.timeout_s
    return Outcome(job.name, status, detail, elapsed, charged)


def _child(conn, run, timeout_s, traced):
    tracer = tracing.Tracer().install() if traced else None
    status, detail, elapsed, verdict = _timed_call(run, timeout_s)
    spans = tracer.snapshot() if tracer else None
    conn.send((status, detail, elapsed, verdict, spans))
    conn.close()


def run_isolated(job, traced=False):
    """Run one job in a fresh child process; (Outcome, child's spans or None).

    The child stops the job with its own alarm and still reports its spans;
    if no answer arrives in time the parent kills the child."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, job.run, job.timeout_s, traced))
    proc.start()
    send.close()
    try:
        if recv.poll(job.timeout_s + SPAWN_GRACE_S):
            status, detail, elapsed, verdict, spans = recv.recv()
        else:
            status, detail = "timeout", f"killed after {job.timeout_s + SPAWN_GRACE_S:g} s"
            elapsed, verdict, spans = job.timeout_s, None, None
    except EOFError:  # the child died without answering
        status, detail = "died", f"exit code {proc.exitcode}"
        elapsed, verdict, spans = job.timeout_s, None, None
    finally:
        recv.close()
        if proc.is_alive():
            proc.kill()
        proc.join()
    return _outcome(job, status, detail, elapsed, verdict), spans


def run_pass(workload, tracer=None) -> list[Outcome]:
    """One pass over the workload's jobs, in order.  With a tracer, spans of
    isolated jobs are merged into it from their child processes."""
    out = []
    for job in workload.jobs:
        if workload.isolated:
            outcome, spans = run_isolated(job, traced=tracer is not None)
            if tracer is not None and spans is not None:
                tracer.merge(spans)
        else:
            outcome = _outcome(job, *_timed_call(job.run, job.timeout_s))
        out.append(outcome)
    return out


def run_passes(workload, budget_s, tracer=None):
    """Whole passes until the next one would end after budget_s; at least one.
    Returns the outcomes of each pass."""
    passes = []
    t0 = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - t0 + longest <= budget_s:
        if tracer is not None:
            tracer.start_pass()
        p0 = time.perf_counter()
        passes.append(run_pass(workload, tracer))
        longest = max(longest, time.perf_counter() - p0)
    return passes


def pass_wall(outcomes) -> float:
    """wall_s of one pass: job times, with failed jobs charged their timeout."""
    return sum(o.charged_s for o in outcomes)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024
