"""The benchmark's workloads: inputs made from a seed, the jobs that turn
them into verdicts, and the verdicts each job must return.

Every job calls the public functions of ``setfam`` through module
attributes at call time, so the traced run's wrappers see the outermost
call too.  Every expected value is fixed here in advance, from closed
forms or recorded constants, and none depends on the seed: relabelling a
host or reordering a landscape must not change a verdict.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Callable

import setfam
import setfam.cli


@dataclass(frozen=True)
class Job:
    """One unit of work: ``run()`` produces a verdict and ``check(verdict)``
    returns None when it is right, or says what is wrong.  A job that runs
    past ``timeout_s`` is stopped and charged ``timeout_s``."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = field(compare=False)
    timeout_s: float


@dataclass(frozen=True)
class Workload:
    """The jobs of one pass.  ``isolated`` runs each job in its own child
    process, killed at the job's timeout."""

    name: str
    jobs: tuple[Job, ...]
    isolated: bool = False


# --- inputs -------------------------------------------------------------------


def relabel(fam: setfam.Family, rng: random.Random) -> setfam.Family:
    """The host under a random permutation of its ground set [n]."""
    perm = list(range(fam.n))
    rng.shuffle(perm)
    members = []
    for m in fam.members:
        out = 0
        while m:
            b = m & -m
            m ^= b
            out |= 1 << perm[b.bit_length() - 1]
        members.append(out)
    return setfam.Family(fam.n, fam.k, tuple(sorted(members)))


def _is_intersecting(masks) -> bool:
    # The benchmark's own check, so a verdict is not judged by the code
    # that produced it.
    return all(a & b for i, a in enumerate(masks) for b in masks[i + 1 :])


# --- search jobs ----------------------------------------------------------------


def ekr_verdict(host: setfam.Family):
    return setfam.check_ekr_property(host)


def max_subfamily(host: setfam.Family):
    return setfam.max_intersecting_subfamily(host)


def _witness_problem(host, witness, omega) -> str | None:
    if len(witness.members) != omega:
        return f"witness has {len(witness.members)} members, want {omega}"
    if (witness.n, witness.k) != (host.n, host.k):
        return "witness is not on the host's ground set"
    if not set(witness.members) <= set(host.members):
        return "witness is not contained in the host"
    if not _is_intersecting(witness.members):
        return "witness is not intersecting"
    return None


def check_ekr(host, omega, star, verdict) -> str | None:
    got = (verdict.max_intersecting, verdict.max_star, verdict.holds)
    want = (omega, star, omega <= star)
    if got != want:
        return f"(omega, max star, holds) = {got}, want {want}"
    return _witness_problem(host, verdict.witness, omega)


def check_subfamily(host, omega, result) -> str | None:
    size, witness = result
    if size != omega:
        return f"omega = {size}, want {omega}"
    return _witness_problem(host, witness, omega)


def _triple(m: int, k: int, ell: int) -> setfam.Family:
    return setfam.gen_constrained(setfam.make_triple_blocks(m, ell), k)


def _ekr(n: int, k: int) -> int:
    return comb(n - 1, k - 1)


def _hm(n: int, k: int) -> int:
    return comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1


# Each host: name, builder (looked up at call time, so a traced set-up
# sees it), omega, largest star.  omega is the EKR bound C(n-1, k-1) on
# complete hosts with n >= 2k; a full star or a Hilton-Milner host is
# already intersecting, so omega is its size.  On the three-block host at
# (m, k, l) = (12, 4, 4) the best star (centre 1) holds the 4-sets through
# 1 meeting both other blocks, C(11,3) - 2*C(7,3) + C(3,3) = 96, and no
# intersecting subfamily beats it.  The first three hosts spend their time
# proving omega; the last three are already (nearly) intersecting, so
# their time goes to the witness.
LADDER_HOSTS = (
    ("complete-13-3", lambda: setfam.gen_complete(13, 3), _ekr(13, 3), _ekr(13, 3)),
    ("complete-15-3", lambda: setfam.gen_complete(15, 3), _ekr(15, 3), _ekr(15, 3)),
    ("triple-12-4-4", lambda: _triple(12, 4, 4), 96, 96),
    ("star-14-4", lambda: setfam.gen_full_star(14, 4, 1), _ekr(14, 4), _ekr(14, 4)),
    ("hm-14-4", lambda: setfam.gen_hm(setfam.HMSpec.standard(14, 4)), _hm(14, 4), _hm(14, 4) - 1),
    ("complete-10-5", lambda: setfam.gen_complete(10, 5), _ekr(10, 5), _ekr(10, 5)),
)
# The seed relabels every ladder host but this one: with its blocks
# scattered over [12] the same search runs for minutes, so the relabelled
# host is a search-cliffs case instead.  (Relabelling leaves a complete
# host unchanged; on a star or HM host it moves the centre.)
FIXED_LABELS = frozenset({"triple-12-4-4"})
LADDER_TIMEOUT_S = 15.0

# Hosts inside the documented member cap on which the search does not
# finish in its timeout today: the omega = 56 proof on complete (9,4) and
# the omega = 84 proof on complete (10,4) each take over a minute, the
# pure kernels raise RecursionError on the 1820-member full star (17,5),
# and the relabelled three-block host runs for minutes.
CLIFF_HOSTS = (
    ("complete-9-4", lambda: setfam.gen_complete(9, 4), _ekr(9, 4)),
    ("star-17-5", lambda: setfam.gen_full_star(17, 5, 1), _ekr(17, 5)),
    ("complete-10-4", lambda: setfam.gen_complete(10, 4), _ekr(10, 4)),
    ("triple-12-4-4-relabelled", lambda: _triple(12, 4, 4), 96),
)
CLIFF_TIMEOUT_S = 10.0


def search_ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for name, build, omega, star in LADDER_HOSTS:
        host = build() if name in FIXED_LABELS else relabel(build(), rng)
        jobs.append(
            Job(
                name,
                partial(ekr_verdict, host),
                partial(check_ekr, host, omega, star),
                LADDER_TIMEOUT_S,
            )
        )
    return Workload("search-ladder", tuple(jobs))


def search_cliffs(seed: int, timeout_s: float = CLIFF_TIMEOUT_S) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for name, build, omega in CLIFF_HOSTS:
        host = relabel(build(), rng)
        jobs.append(
            Job(
                name,
                partial(max_subfamily, host),
                partial(check_subfamily, host, omega),
                timeout_s,
            )
        )
    return Workload("search-cliffs", tuple(jobs), isolated=True)


# --- landscape ------------------------------------------------------------------

# The 15 isomorphism classes of maximal intersecting 3-uniform families on
# [7], 6127 labelled families in all, and the SHA-256 of the class list
# as class_digest writes it.  Class lists are canonical, so neither the
# order the families arrive in nor their labels may change these.
LANDSCAPE_CLASSES = 15
LANDSCAPE_LABELLED = 6127
LANDSCAPE_DIGEST = "70330a81d7c2b2bb20cf17011ac0670df7aaa0b79af14b98376ee1edbd261fdd"
LANDSCAPE_TIMEOUT_S = 60.0


def class_digest(classes) -> str:
    rows = [
        (c.size, c.delta, c.Delta, c.tau, c.trivial, c.labeled_count, c.canonical.members)
        for c in classes
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def iso_landscape(seed: int):
    fams = list(setfam.enumerate_maximal_intersecting(7, 3))
    random.Random(seed).shuffle(fams)
    return setfam.iso_classes(fams)


def check_landscape(classes) -> str | None:
    got = (len(classes), sum(c.labeled_count for c in classes), class_digest(classes))
    want = (LANDSCAPE_CLASSES, LANDSCAPE_LABELLED, LANDSCAPE_DIGEST)
    if got != want:
        return f"(classes, labelled, digest) = {got}, want {want}"
    return None


def landscape(seed: int) -> Workload:
    job = Job("iso-classes-7-3", partial(iso_landscape, seed), check_landscape, LANDSCAPE_TIMEOUT_S)
    return Workload("landscape", (job,))


# --- theorems ---------------------------------------------------------------------

# The 23 checks of the theorems suite, in report order; each must pass.
THEOREM_CHECKS = (
    "triple-transversal-12-3-4",
    "triple-transversal-13-3-4",
    "triple-transversal-degenerate",
    "direct-product-ratio-4x4-1x2",
    "direct-product-ratio-4x4-2x1",
    "direct-product-ratio-2x6-1x1",
    "direct-product-ratio-2x3x3-1x1x1",
    "frankl-wilson-7-3-2",
    "frankl-wilson-8-3-2",
    "frankl-wilson-9-4-3",
    "matching-tightness-9-3-2",
    "matching-tightness-8-2-2",
    "matching-tightness-12-3-3",
    "fano-cover-number",
    "kernel-K1-empty-iff-nontrivial-7-3",
    "kernel-size-capped-intersecting-7-3",
    "kernel-layer3-bound-7-3",
    "kernel-hm-9-3",
    "audit-telescoping-grid",
    "audit-vandermonde-grid",
    "audit-tail-ratio-grid",
    "audit-degree-size-chain-grid",
    "audit-inclusion-exclusion-grid",
)
THEOREMS_TIMEOUT_S = 30.0


def theorems_report():
    return setfam.cli.suite_theorems(jobs=1)


def check_theorems(report) -> str | None:
    names = tuple(c.name for c in report.checks)
    if names != THEOREM_CHECKS:
        return f"checks {names}, want {THEOREM_CHECKS}"
    bad = [f"{c.name}: {c.status}" for c in report.checks if c.status != "pass"]
    return "; ".join(bad) if bad else None


def theorems(seed: int) -> Workload:
    # The suite's input is fixed, so the seed has nothing to vary.
    job = Job("suite-theorems", theorems_report, check_theorems, THEOREMS_TIMEOUT_S)
    return Workload("theorems", (job,))


WORKLOADS = {
    "landscape": landscape,
    "search-ladder": search_ladder,
    "theorems": theorems,
    "search-cliffs": search_cliffs,
}
