"""Command-line front end: generators, family statistics, kernels,
enumeration, exact search, bound calculators/audits, and named
verification suites with reproducible reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or regime error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, _kernels, bounds, covers, enumeration, famcore, generators, search


# --- reports ----------------------------------------------------------------


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skipped
    expected: object = None
    actual: object = None


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list
    elapsed_ms: int
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self, no_timing: bool = False) -> dict:
        d = {
            "suite": self.suite,
            "params": self.params,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "expected": _plain(c.expected),
                    "actual": _plain(c.actual),
                }
                for c in self.checks
            ],
            "version": self.version,
        }
        if not no_timing:
            d["elapsed_ms"] = self.elapsed_ms
        return d

    def to_json(self, no_timing: bool = False) -> str:
        return json.dumps(self.to_dict(no_timing), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "status", "expected", "actual"])
        for c in self.checks:
            w.writerow([c.name, c.status, _plain(c.expected), _plain(c.actual)])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  params {self.params}"]
        for c in self.checks:
            lines.append(
                f"  {c.status:7s} {c.name}  expected={_plain(c.expected)} actual={_plain(c.actual)}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} {self.suite} ({len(self.checks)} checks)")
        return "\n".join(lines) + "\n"


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def _run_tasks(rows) -> list[Check]:
    """Run the (name, fn) rows in order.  fn returns (ok, expected,
    actual), ok None for a skipped check; a check that raises fails, with
    ``error: <Type>: <msg>`` as its actual value, and the rest still run."""
    checks = []
    for name, fn in rows:
        try:
            ok, expected, actual = fn()
        except Exception as e:
            ok, expected, actual = False, None, f"error: {type(e).__name__}: {e}"
        status = "skipped" if ok is None else "pass" if ok else "fail"
        checks.append(Check(name, status, expected, actual))
    return checks


def _once(build):
    """A function that runs build() on its first call and then returns its
    result, or re-raises its exception, on every call: a shared input
    that fails is built once, not once per check that reads it."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((True, build()))
            except Exception as e:
                memo.append((False, e))
        ok, value = memo[0]
        if not ok:
            raise value
        return value

    return get


def _equals(expected, actual) -> tuple:
    return expected == actual, expected, actual


def _named(prefix: str, fn, params) -> list:
    """One row per parameter tuple p, running fn(*p), named by the prefix
    and p joined by '-', a tuple parameter joined by 'x'
    (``direct-product-ratio-4x4-1x2``)."""
    rows = []
    for p in params:
        parts = ("x".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in p)
        rows.append(("-".join([prefix, *parts]), functools.partial(fn, *p)))
    return rows


# --- suites -----------------------------------------------------------------

FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))

#: Exact-mode direct-product instances (block sizes, quotas) with
#: n_i >= 2*k_i, all well under the search cap.
THM5_EXACT_INSTANCES = (
    ((4, 4), (1, 2)),
    ((4, 4), (2, 1)),
    ((2, 6), (1, 1)),
    ((2, 3, 3), (1, 1, 1)),
)


def partition_spec(sizes, quotas) -> generators.ConstraintSpec:
    """Consecutive blocks of the given sizes partitioning [sum(sizes)]."""
    blocks = generators.consecutive_blocks(sizes)
    return generators.ConstraintSpec(sum(sizes), blocks, tuple(quotas), "exact")


def suite_prop_k3(n: int) -> VerificationReport:
    """The k = 3 landscape: all maximal intersecting 3-uniform families on
    [n] (n in {7, 8, 9}), reduced to isomorphism classes through the
    families containing {1, 2, 3} (``enumeration.landscape_classes``), and
    the class count and every size/degree bound checked class by class."""
    if not 7 <= n <= 9:
        raise ValueError(f"prop-k3 suite supports n in {{7, 8, 9}}, got {n}")
    t0 = time.perf_counter()
    # built by the first row that needs it; a crash in it fails every row
    classes = _once(lambda: enumeration.landscape_classes(n, 3))
    star_bound = bounds.ekr_bound(n, 3)
    hm_b = bounds.hm_bound(n, 3)
    hm_delta = bounds.hm_min_degree(n, 3)

    def nontrivial():
        return [c for c in classes() if not c.trivial]

    def unique_star_class():
        top = [c for c in classes() if c.size == star_bound]
        return (
            len(top) == 1 and top[0].trivial,
            f"exactly one class of size {star_bound}, trivial",
            [(c.size, c.trivial) for c in top],
        )

    def degree_ekr():
        deg_star = [c for c in classes() if c.delta == n - 2]
        return (
            all(c.delta <= n - 2 for c in classes()) and len(deg_star) == 1 and deg_star[0].trivial,
            f"delta <= {n - 2} everywhere, equality only at the full star",
            [(c.delta, c.trivial) for c in deg_star],
        )

    rows = [
        ("class-count", lambda: _equals(15, len(classes()))),
        (
            "ekr-size-bound",
            lambda: (
                all(c.size <= star_bound for c in classes()),
                f"all class sizes <= {star_bound}",
                max(c.size for c in classes()),
            ),
        ),
        ("unique-star-class", unique_star_class),
        (
            "hm-size-bound",
            lambda: (
                all(c.size <= hm_b for c in nontrivial()),
                f"non-trivial sizes <= {hm_b}",
                max((c.size for c in nontrivial()), default=0),
            ),
        ),
        (
            "hm-class-present",
            lambda: (
                any(c.size == hm_b and c.delta == hm_delta for c in nontrivial()),
                f"a non-trivial class of size {hm_b} with delta {hm_delta}",
                sorted({(c.size, c.delta) for c in nontrivial()}, reverse=True)[:3],
            ),
        ),
        (
            "min-degree-bound",
            lambda: (
                all(c.delta <= hm_delta for c in nontrivial()),
                f"delta <= {hm_delta} on non-trivial classes",
                max((c.delta for c in nontrivial()), default=0),
            ),
        ),
        ("degree-ekr", degree_ekr),
        ("labeled-total", lambda: (True, "recorded", sum(c.labeled_count for c in classes()))),
    ]
    checks = _run_tasks(rows)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport("prop-k3", {"n": n, "k": 3}, checks, elapsed)


def _triple_transversal(m, k, ell, expect_max) -> tuple:
    res = search.triple_transversal_search(search.make_triple_blocks(m, ell), k)
    return (
        res.max_size == expect_max and res.ok,
        f"max {expect_max} <= bound {res.bound}",
        {"max": res.max_size, "bound": res.bound, "valid": res.valid},
    )


def _triple_transversal_degenerate() -> tuple:
    got = search.triple_transversal_search(search.make_triple_blocks(9, 1), 3).max_size
    return got <= 1, "max <= 1 at ell = 1", got


def _ratio(sizes, quotas) -> tuple:
    host = generators.gen_constrained(partition_spec(sizes, quotas), sum(quotas))
    if len(host) > search.DEFAULT_MEMBER_CAP:
        return None, None, f"host size {len(host)} above cap"
    size, _ = search.max_intersecting_subfamily(host)
    bound = max(Fraction(q, s) for s, q in zip(sizes, quotas))
    ratio = Fraction(size, len(host))
    return ratio <= bound, f"ratio <= {bound}", f"{size}/{len(host)} = {ratio}"


def _frankl_wilson(n, k, t) -> tuple:
    value, valid = bounds.frankl_wilson_bound(n, k, t)
    ms = generators.gen_complete(n, k).members
    nv = len(ms)
    adj = enumeration.intersection_adjacency(ms, t)
    # {F : [t] subset F} is always a t-intersecting family of size C(n-t, k-t)
    seed = bounds.binom(n - t, k - t)
    got = _kernels.max_clique_size(adj, nv, (1 << nv) - 1, seed)
    return got == value and valid, f"max t-intersecting size == {value} (valid={valid})", got


def _matching(n, k, s) -> tuple:
    fam = generators.gen_meets_front(n, k, s)
    threshold, valid = bounds.matching_threshold(n, k, s)
    nu = covers.matching_number(fam)
    return (
        len(fam) == threshold and nu == s,
        f"size {threshold}, matching number {s} (valid={valid})",
        {"size": len(fam), "nu": nu},
    )


def _kernel_scan(counts) -> tuple[bool, int, int, int]:
    """(K_1 is empty exactly for the non-trivial families, number of
    families whose size-<=k kernel is not pairwise intersecting, max |K_3|,
    number of families) over intersecting families, given as a mapping
    from (n, k, degree-order encode) to how many families it stands for
    (the weights of ``enumeration.landscape_counts``).  One kernel and one
    triviality test per encode, a relabelled copy of every family it
    counts: all four facts are relabelling invariants (K(pF) = pK(F)), so
    a violation counts once per family."""
    k1_ok, bad, worst, total = True, 0, 0, 0
    for (n, k, enc), count in counts.items():
        fam = famcore.Family(n, k, enc)
        kern = covers.kernel(fam)
        cvs = kern.all_covers()
        k1_ok &= (not kern.layers[1]) == (famcore.is_trivial(fam) is None)
        bad += count * (not famcore._pairwise_intersecting(cvs))
        worst = max(worst, len(kern.layers[3]))
        total += count
    return k1_ok, enumeration.exact_int(bad), worst, enumeration.exact_int(total)


def _kernel_hm93() -> tuple:
    kern = covers.kernel(generators.gen_hm(generators.HMSpec.standard(9, 3)))
    expect2 = tuple(sorted(famcore.kset(p) for p in ((1, 2), (1, 3), (1, 4))))
    expect3 = (famcore.kset((2, 3, 4)),)
    return (
        kern.layers[1] == () and kern.layers[2] == expect2 and kern.layers[3] == expect3,
        "{x,s} pairs plus S itself",
        {str(i): [famcore.elements(c) for c in layer] for i, layer in kern.layers.items()},
    )


def _grid_check(name: str) -> tuple:
    results = _audit_grid(name)
    bad = [r.params for r in results if r.validity and not r.holds]
    actual = bad if bad else f"{len(results)} points"
    return not bad, f"all {len(results)} valid grid points hold", actual


def suite_theorems(jobs: int = 1) -> VerificationReport:
    """Desk-scale verification of every bound: exact extremal searches
    against the closed forms, matching tightness, kernel structure over
    the enumerated (7,3) landscape, and all identity/inequality audits.
    Checks run serially: ``jobs`` must be 1, and goes once the benchmark
    stops passing it."""
    if jobs != 1:
        raise ValueError(f"suite_theorems runs serially; jobs must be 1, got {jobs}")
    t0 = time.perf_counter()
    # the (7,3) landscape, counted through one member into one kernel scan
    # that the three landscape checks share; a crash in it fails each of them
    scan = _once(lambda: _kernel_scan(enumeration.landscape_counts(7, 3)))
    rows = [
        *_named(
            "triple-transversal",
            functools.partial(_triple_transversal, expect_max=16),
            ((12, 3, 4), (13, 3, 4)),
        ),
        ("triple-transversal-degenerate", _triple_transversal_degenerate),
        *_named("direct-product-ratio", _ratio, THM5_EXACT_INSTANCES),
        *_named("frankl-wilson", _frankl_wilson, ((7, 3, 2), (8, 3, 2), (9, 4, 3))),
        *_named("matching-tightness", _matching, ((9, 3, 2), (8, 2, 2), (12, 3, 3))),
        (
            "fano-cover-number",
            lambda: _equals(3, covers.cover_number(famcore.family(7, 3, FANO_LINES))),
        ),
        (
            "kernel-K1-empty-iff-nontrivial-7-3",
            lambda: (
                scan()[0],
                "K1 empty exactly for non-trivial families",
                f"{scan()[3]} families",
            ),
        ),
        (
            "kernel-size-capped-intersecting-7-3",
            lambda: (
                scan()[1] == 0,
                "size-<=k kernel pairwise intersecting for all maximal families",
                f"{scan()[1]} violations in {scan()[3]} families",
            ),
        ),
        ("kernel-layer3-bound-7-3", lambda: (scan()[2] <= 27, "|K_3| <= 27", scan()[2])),
        ("kernel-hm-9-3", _kernel_hm93),
        *((f"audit-{a}-grid", functools.partial(_grid_check, a)) for a in AUDIT_GRIDS),
    ]
    checks = _run_tasks(rows)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport("theorems", {}, checks, elapsed)


#: Each suite is called with the --n value, None when it is not given.
SUITES = {
    "prop-k3": lambda n: suite_prop_k3(7 if n is None else n),
    "theorems": lambda n: suite_theorems(),
}


# --- subcommand handlers ----------------------------------------------------


def _read_fam(path: str) -> famcore.Family:
    with open(path, "r", encoding="ascii") as f:
        return famcore.parse_fam(f.read())


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.what == "star":
        fam = generators.gen_full_star(args.n, args.k, args.x)
    elif args.what == "hm":
        if args.s is not None:
            s = famcore.kset(int(t) for t in args.s.split(","))
        else:
            # the first k of 1..k+1 other than x: {2, .., k+1} for x = 1
            s = famcore.kset([e for e in range(1, args.k + 2) if e != args.x][: args.k])
        fam = generators.gen_hm(generators.HMSpec(args.n, args.k, args.x, s))
    elif args.what == "meets-front":
        fam = generators.gen_meets_front(args.n, args.k, args.s)
    elif args.what == "constrained":
        with open(args.spec, "r", encoding="ascii") as f:
            spec = generators.parse_constraint_spec(f.read())
        fam = generators.gen_constrained(spec, args.k)
    else:  # complete
        fam = generators.gen_complete(args.n, args.k)
    _emit(famcore.format_fam(fam), args.output)
    return 0


def cmd_stats(args) -> int:
    fam = _read_fam(args.file)
    inter = famcore.is_intersecting(fam)
    obj = {
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "delta": 0,
        "Delta": 0,
        "t": None,
        "tau": None,
        "nu": covers.matching_number(fam),
        "trivial": famcore.is_trivial(fam),
        "intersecting": inter,
        "maximal": False,
        "kernel_layer_sizes": None,
    }
    prof = famcore.degree_profile(fam)
    obj["delta"], obj["Delta"] = prof.delta, prof.Delta
    if len(fam) >= 2:
        obj["t"] = famcore.intersection_parameter(fam)
    if fam.members:
        obj["tau"] = covers.cover_number(fam)
    if inter:
        try:
            obj["maximal"] = famcore.maximal_closure(fam) == fam
        except ValueError:  # C(n, k) above the sweep cap
            obj["maximal"] = None
        if fam.members:
            obj["kernel_layer_sizes"] = list(covers.kernel_layer_sizes(fam))
    print(json.dumps(obj, sort_keys=True))
    return 0


def cmd_kernel(args) -> int:
    fam = _read_fam(args.file)
    kern = covers.kernel(fam, fam.n if args.full else args.cap)
    obj = {
        "n": fam.n,
        "k": fam.k,
        "size_cap": kern.size_cap,
        "layers": {
            str(i): [list(famcore.elements(c)) for c in layer]
            for i, layer in kern.layers.items()
        },
        "layer_sizes": [len(kern.layers[i]) for i in sorted(kern.layers)],
    }
    print(json.dumps(obj, sort_keys=True))
    return 0


def cmd_enumerate(args) -> int:
    obj = {"n": args.n, "k": args.k}
    if args.classes:
        # counted through the families containing [k]; refuses n > 10 before a sweep
        classes = enumeration.landscape_classes(args.n, args.k)
        obj["labeled_total"] = sum(c.labeled_count for c in classes)
        obj["classes"] = [
            {
                "size": c.size,
                "delta": c.delta,
                "Delta": c.Delta,
                "tau": c.tau,
                "trivial": c.trivial,
                "labeled_count": c.labeled_count,
                "members": [list(famcore.elements(m)) for m in c.canonical.members],
            }
            for c in classes
        ]
    else:
        fams = list(enumeration.enumerate_maximal_intersecting(args.n, args.k))
        obj["labeled_total"] = len(fams)
        obj["families"] = [[list(famcore.elements(m)) for m in f.members] for f in fams]
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_search(args) -> int:
    if args.what == "max-intersecting":
        host = _read_fam(args.host)
        size, witness = search.max_intersecting_subfamily(host, args.cap)
        obj = {
            "size": size,
            "witness": [list(famcore.elements(m)) for m in witness.members],
        }
    else:  # ekr
        with open(args.spec, "r", encoding="ascii") as f:
            spec = generators.parse_constraint_spec(f.read())
        host = generators.gen_constrained(spec, args.k)
        verdict = search.check_ekr_property(host, args.cap)
        obj = {
            "holds": verdict.holds,
            "max_intersecting": verdict.max_intersecting,
            "max_star": verdict.max_star,
            "star_center": verdict.star_center,
            "gap": verdict.gap,
            "host_size": len(host),
            "witness": [list(famcore.elements(m)) for m in verdict.witness.members],
        }
    print(json.dumps(obj, sort_keys=True))
    return 0


def _ledger_json(m: int, k: int, ell: int) -> str:
    ledger = bounds.triple_transversal_ledger(m, k, ell)
    entries = {str(r): v for r, v in ledger["entries"].items()}
    return json.dumps({"entries": entries, "total": ledger["total"]}, sort_keys=True)


BOUND_CALCS = {
    "ekr": (lambda a: bounds.ekr_bound(a.n, a.k), ("n", "k")),
    "hm": (lambda a: bounds.hm_bound(a.n, a.k), ("n", "k")),
    "hm-min-degree": (lambda a: bounds.hm_min_degree(a.n, a.k), ("n", "k")),
    "frankl-wilson": (lambda a: bounds.frankl_wilson_bound(a.n, a.k, a.t)[0], ("n", "k", "t")),
    "frankl-maxdeg": (lambda a: bounds.frankl_maxdeg_bound(a.n, a.k, a.i), ("n", "k", "i")),
    "matching-threshold": (lambda a: bounds.matching_threshold(a.n, a.k, a.s)[0], ("n", "k", "s")),
    "hk-gap": (lambda a: bounds.hk_gap_constant(a.n, a.k), ("n", "k")),
    "triple-transversal": (lambda a: bounds.triple_transversal_bound(a.m, a.k, a.l), ("m", "k", "l")),
    "triple-transversal-ledger": (lambda a: _ledger_json(a.m, a.k, a.l), ("m", "k", "l")),
}

#: The --grid keys each audit reads, in the order ``bounds.<audit>_grid``
#: takes them, with their defaults.  A key with a tuple default takes a
#: list ("c=4|30"), one with an int default a bound ("k<=6").
AUDIT_GRIDS = {
    "telescoping": {"n": 60, "k": 10},
    "vandermonde": {"m": 60, "k": 10, "l": 6},
    "tail-ratio": {"c": (4, 30), "k": 6},
    "degree-size-chain": {"c": (4, 30), "k": 6},
    "inclusion-exclusion": {"n": 13, "k": 4},
}


def _audit_grid(name: str, text: str | None = None) -> list:
    """The named audit over its default grid, with the comma-separated
    --grid tokens applied.  A key the audit does not read, or a token of
    the other form, is refused with the accepted keys."""
    grid = dict(AUDIT_GRIDS[name])
    for token in text.split(",") if text else ():
        key, op, val = token.partition("<=")
        if not op:
            key, op, val = token.partition("=")
        key = key.strip()
        if not op or key not in grid or (op == "=") != isinstance(grid[key], tuple):
            forms = [f"{k}=N|N" if isinstance(v, tuple) else f"{k}<=N" for k, v in grid.items()]
            raise ValueError(f"bad grid token {token.strip()!r}; {name!r} accepts {', '.join(forms)}")
        grid[key] = tuple(int(v) for v in val.split("|")) if op == "=" else int(val)
    # looked up at call time, so a wrapper installed on the module sees it
    return getattr(bounds, name.replace("-", "_") + "_grid")(*grid.values())


def cmd_bounds(args) -> int:
    if args.what == "calc":
        if args.name not in BOUND_CALCS:
            raise ValueError(f"unknown bound {args.name!r}; options: {sorted(BOUND_CALCS)}")
        fn, needed = BOUND_CALCS[args.name]
        for p in needed:
            if getattr(args, p) is None:
                raise ValueError(f"bound {args.name!r} needs --{p}")
        print(fn(args))
        return 0
    # audit
    if args.name not in AUDIT_GRIDS:
        raise ValueError(f"unknown audit {args.name!r}; options: {sorted(AUDIT_GRIDS)}")
    results = _audit_grid(args.name, args.grid)
    param_names = sorted({k for r in results for k in r.params})
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(param_names + ["lhs", "rhs", "holds", "validity"])
    for r in results:
        w.writerow(
            [r.params.get(p, "") for p in param_names]
            + [_plain(r.lhs), _plain(r.rhs), r.holds, r.validity]
        )
    _emit(buf.getvalue(), args.output)
    failed = [r for r in results if r.validity and not r.holds]
    if failed:
        print(f"FAIL: {len(failed)} valid grid points violated", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; options: {sorted(SUITES)}")
    if args.n is not None and args.suite != "prop-k3":
        raise ValueError(f"--n applies only to --suite prop-k3, not {args.suite!r}")
    report = SUITES[args.suite](args.n)
    if args.json:
        text = report.to_json(no_timing=args.no_timing) + "\n"
    elif args.csv:
        text = report.to_csv()
    else:
        text = report.to_text()
    _emit(text, args.output)
    return 0 if report.passed else 1


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="setfam", description=__doc__)
    p.add_argument("--version", action="version", version=f"setfam {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def out_opt(sp):
        sp.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    g = sub.add_parser("gen", help="emit a named family as a .fam file")
    gsub = g.add_subparsers(dest="what", required=True)
    for name in ("star", "hm", "meets-front", "complete"):
        sp = gsub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        if name == "star":
            sp.add_argument("--x", type=int, required=True)
        if name == "hm":
            sp.add_argument("--x", type=int, default=1)
            sp.add_argument("--s", default=None, help="comma-separated k elements avoiding x")
        if name == "meets-front":
            sp.add_argument("--s", type=int, required=True)
        out_opt(sp)
        sp.set_defaults(func=cmd_gen)
    sp = gsub.add_parser("constrained")
    sp.add_argument("--spec", required=True, help="constraint-spec text file")
    sp.add_argument("--k", type=int, required=True)
    out_opt(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("stats", help="print family statistics as JSON")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("kernel", help="minimal covers grouped by size")
    sp.add_argument("file")
    cap = sp.add_mutually_exclusive_group()
    cap.add_argument("--cap", type=int, default=None, help="cover size cap in [1, n] (default k)")
    cap.add_argument("--full", action="store_true", help="enumerate all minimal covers (cap n)")
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("enumerate", help="all maximal intersecting families at (n, k)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--classes", action="store_true", help="reduce to isomorphism classes")
    out_opt(sp)
    sp.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("search", help="exact maximum intersecting subfamily")
    ssub = s.add_subparsers(dest="what", required=True)
    sp = ssub.add_parser("max-intersecting")
    sp.add_argument("--host", required=True, help=".fam host family")
    sp.add_argument("--cap", type=int, default=search.DEFAULT_MEMBER_CAP)
    sp.set_defaults(func=cmd_search)
    sp = ssub.add_parser("ekr")
    sp.add_argument("--spec", required=True, help="constraint-spec text file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cap", type=int, default=search.DEFAULT_MEMBER_CAP)
    sp.set_defaults(func=cmd_search)

    b = sub.add_parser("bounds", help="closed-form bounds and exact audits")
    bsub = b.add_subparsers(dest="what", required=True)
    sp = bsub.add_parser("calc")
    sp.add_argument("--name", required=True)
    for param in ("n", "k", "t", "s", "i", "l", "m"):
        sp.add_argument(f"--{param}", type=int, default=None)
    sp.set_defaults(func=cmd_bounds)
    sp = bsub.add_parser("audit")
    sp.add_argument("--name", required=True)
    sp.add_argument("--grid", default=None, help='e.g. "n<=60,k<=10" or "c=4|30,k<=6"')
    out_opt(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument(
        "--n", type=int, default=None, help="prop-k3 only: ground-set size 7, 8 or 9 (default 7)"
    )
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    sp.add_argument("--no-timing", action="store_true", help="omit elapsed_ms for byte-stable output")
    out_opt(sp)
    sp.set_defaults(func=cmd_verify)

    return p


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
