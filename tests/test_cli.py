import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam import _kernels, cli, covers, enumeration, famcore
from setfam.famcore import kset, parse_fam
from setfam.generators import (
    ConstraintSpec,
    HMSpec,
    format_constraint_spec,
    gen_complete,
    gen_full_star,
    gen_hm,
    gen_meets_front,
)
from setfam.search import make_triple_blocks


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_star_stdout(capsys):
    code, out, _ = run(capsys, "gen", "star", "--n", "7", "--k", "3", "--x", "1")
    assert code == 0
    assert parse_fam(out) == gen_full_star(7, 3, 1)


def test_gen_to_file_and_stats(tmp_path, capsys):
    path = tmp_path / "star.fam"
    code, _, _ = run(capsys, "gen", "star", "--n", "7", "--k", "3", "--x", "2", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 15
    assert obj["delta"] == 5 and obj["Delta"] == 15
    assert obj["t"] == 1 and obj["tau"] == 1 and obj["nu"] == 1
    assert obj["trivial"] == 2
    assert obj["maximal"] is True
    assert obj["kernel_layer_sizes"] == [1, 0, 0]


def test_gen_hm_and_meets_front(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "hm", "--n", "9", "--k", "3")
    assert code == 0 and parse_fam(out) == gen_hm(HMSpec.standard(9, 3))
    assert len(parse_fam(out)) == 19
    # without --s, s is the first k of 1..k+1 other than x
    code, out, _ = run(capsys, "gen", "hm", "--n", "9", "--k", "3", "--x", "3")
    assert code == 0 and parse_fam(out) == gen_hm(HMSpec(9, 3, 3, kset((1, 2, 4))))
    code, out, _ = run(capsys, "gen", "hm", "--n", "9", "--k", "3", "--x", "2", "--s", "1,3,4")
    assert code == 0 and len(parse_fam(out)) == 19
    code, out, _ = run(capsys, "gen", "meets-front", "--n", "9", "--k", "3", "--s", "2")
    assert code == 0 and parse_fam(out) == gen_meets_front(9, 3, 2)
    spec = ConstraintSpec(8, (0b1111, 0b11110000), (1, 2), "exact")
    sp = tmp_path / "spec.txt"
    sp.write_text(format_constraint_spec(spec))
    code, out, _ = run(capsys, "gen", "constrained", "--spec", str(sp), "--k", "3")
    assert code == 0 and len(parse_fam(out)) == 24


def test_stats_missing_file(capsys):
    code, _, err = run(capsys, "stats", "missing.fam")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_suite_and_bound(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    code, _, err = run(capsys, "bounds", "calc", "--name", "nope")
    assert code == 2


def test_bounds_calc(capsys):
    code, out, _ = run(capsys, "bounds", "calc", "--name", "hm-min-degree", "--n", "12", "--k", "4")
    assert code == 0
    assert out.strip() == "30"
    code, out, _ = run(capsys, "bounds", "calc", "--name", "ekr", "--n", "7", "--k", "3")
    assert out.strip() == "15"
    code, _, err = run(capsys, "bounds", "calc", "--name", "ekr", "--n", "7")
    assert code == 2  # missing --k


def test_bounds_calc_flags_are_the_ones_the_calculators_read():
    args = cli.build_parser().parse_args(["bounds", "calc", "--name", "ekr"])
    flags = set(vars(args)) - {"command", "what", "name", "func"}
    assert flags == {p for _, params in cli.BOUND_CALCS.values() for p in params}


def test_bounds_audit_csv(capsys):
    code, out, _ = run(capsys, "bounds", "audit", "--name", "telescoping", "--grid", "n<=20,k<=4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,lhs,rhs,holds,validity"
    assert all(line.endswith("True,True") for line in lines[1:])
    code, out, _ = run(capsys, "bounds", "audit", "--name", "tail-ratio", "--grid", "c=4,k<=3")
    assert code == 0


@pytest.mark.parametrize(
    "name, grid",
    [("telescoping", "n=4|30"), ("tail-ratio", "c<=4"), ("telescoping", "q<=5"), ("vandermonde", "l")],
)
def test_bounds_audit_refuses_unread_keys_and_wrong_forms(capsys, name, grid):
    code, out, err = run(capsys, "bounds", "audit", "--name", name, "--grid", grid)
    assert code == 2 and out == ""
    assert err.startswith("error: bad grid token")
    assert ("'tail-ratio' accepts c=N|N, k<=N" if name == "tail-ratio" else "k<=N") in err


def test_kernel_command(capsys, tmp_path):
    path = tmp_path / "hm.fam"
    run(capsys, "gen", "hm", "--n", "9", "--k", "3", "-o", str(path))
    code, out, _ = run(capsys, "kernel", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["layer_sizes"] == [0, 3, 1]
    assert obj["layers"]["2"] == [[1, 2], [1, 3], [1, 4]]
    assert obj["layers"]["3"] == [[2, 3, 4]]


def test_kernel_cap_rules(capsys, tmp_path):
    path = tmp_path / "hm.fam"
    run(capsys, "gen", "hm", "--n", "9", "--k", "3", "-o", str(path))
    for cap in ("-1", "0", "10", "100"):
        code, out, err = run(capsys, "kernel", str(path), "--cap", cap)
        assert code == 2 and out == ""
        assert "error:" in err and "size cap" in err
    code, out, err = run(capsys, "kernel", str(path), "--cap", "2", "--full")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err
    code, out, _ = run(capsys, "kernel", str(path), "--cap", "2")
    assert code == 0 and json.loads(out)["layer_sizes"] == [0, 3]
    code, out, _ = run(capsys, "kernel", str(path), "--full")
    assert code == 0 and json.loads(out)["size_cap"] == 9


def test_enumerate_command_schema(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--k", "2", "--classes")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5 and obj["k"] == 2
    assert obj["labeled_total"] == 15
    assert len(obj["classes"]) == 2
    first = obj["classes"][0]
    assert set(first) == {"size", "delta", "Delta", "tau", "trivial", "labeled_count", "members"}
    assert first["size"] == 4 and first["labeled_count"] == 5 and first["trivial"] is True
    code, _, _ = run(capsys, "enumerate", "--n", "6", "--k", "3")
    assert code == 2  # n <= 2k regime


def test_enumerate_refuses_out_of_range_before_the_sweep(capsys):
    # n = 63 would otherwise build a 39,711-vertex intersection graph first
    for argv in (("--n", "63", "--k", "3"), ("--n", "5", "--k", "0"), ("--n", "1", "--k", "1")):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:")


def test_enumerate_classes_refuses_past_exact_mode_before_the_sweep(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--n", "11", "--k", "4", "--classes")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n <= 10" in err


def test_search_commands(capsys, tmp_path):
    host = tmp_path / "host.fam"
    run(capsys, "gen", "complete", "--n", "7", "--k", "3", "-o", str(host))
    code, out, _ = run(capsys, "search", "max-intersecting", "--host", str(host))
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 15 and len(obj["witness"]) == 15

    spec = ConstraintSpec(9, (0b111,), (2,), "atleast")
    sp = tmp_path / "spec.txt"
    sp.write_text(format_constraint_spec(spec))
    code, out, _ = run(capsys, "search", "ekr", "--spec", str(sp), "--k", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is False
    assert obj["max_intersecting"] == 19 and obj["max_star"] == 13 and obj["gap"] == 6


def test_verify_prop_k3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop-k3", "--n", "7")
    assert code == 0
    assert "PASS prop-k3" in out


def test_verify_prop_k3_n9(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop-k3", "--n", "9", "--json", "--no-timing")
    assert code == 0
    obj = json.loads(out)
    assert obj["params"] == {"k": 3, "n": 9}
    checks = {c["name"]: c for c in obj["checks"]}
    assert len(checks) == 8 and all(c["status"] == "pass" for c in checks.values())
    assert checks["labeled-total"]["actual"] == 72531
    assert checks["min-degree-bound"]["actual"] == 3  # delta(HM_{9,3})
    # n outside {7, 8, 9} is refused before any enumeration
    for n in ("6", "10"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "prop-k3", "--n", n)
        assert code == 2 and out == "" and "7, 8, 9" in err
        assert time.perf_counter() - t0 < 1


def test_verify_report_determinism(capsys):
    for suite, extra in (("prop-k3", ("--n", "7")), ("theorems", ())):
        args = ("verify", "--suite", suite, *extra, "--json", "--no-timing")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical without timing
        obj = json.loads(out1)
        assert obj["suite"] == suite
        assert "elapsed_ms" not in obj
        assert all(c["status"] == "pass" for c in obj["checks"])


def test_suite_theorems_is_serial():
    for jobs in (0, 2, 4):
        with pytest.raises(ValueError, match="jobs"):
            cli.suite_theorems(jobs=jobs)


KERNEL_CHECKS = {
    "kernel-K1-empty-iff-nontrivial-7-3",
    "kernel-size-capped-intersecting-7-3",
    "kernel-layer3-bound-7-3",
    "kernel-hm-9-3",
}


def test_theorems_kernel_once_per_family(monkeypatch):
    # one kernel per degree-order encode of the (7,3) families through
    # {1, 2, 3}, shared by the three landscape checks, plus one for HM(9,3)
    s0 = famcore.kset((1, 2, 3))
    encodes = {
        enumeration._degree_order_encode(f.n, f.members)
        for f in enumeration.enumerate_maximal_intersecting(7, 3)
        if s0 in f.members
    }
    calls = []
    real = covers.kernel

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(covers, "kernel", counted)
    report = cli.suite_theorems()
    assert report.passed
    assert len(calls) == len(encodes) + 1 == 46


def test_kernel_scan_matches_per_family_kernels():
    # the memoised scan against a kernel built on every labelled family
    fams = list(enumeration.enumerate_maximal_intersecting(7, 3))
    k1_ok, bad, worst = True, 0, 0
    for f in fams:
        kern = covers.kernel(f)
        k1_ok &= (not kern.layers[1]) == (famcore.is_trivial(f) is None)
        cvs = kern.all_covers()
        bad += not all(a & b for i, a in enumerate(cvs) for b in cvs[i + 1 :])
        worst = max(worst, len(kern.layers[3]))
    assert (k1_ok, bad, worst) == (True, 0, 10)
    assert cli._kernel_scan(enumeration.encode_counts(fams)) == (k1_ok, bad, worst, 6127)
    # counted through one member, weighted by C(7, 3)/|F|: the same facts
    assert cli._kernel_scan(enumeration.landscape_counts(7, 3)) == (True, 0, 10, 6127)


def test_kernel_scan_counts_violations_per_family():
    # a lone 3-set is intersecting, but its covers {a}, {b}, {c} are pairwise
    # disjoint: its three labelled copies share one encode and count three times
    fams = [famcore.family(7, 3, [t]) for t in ((1, 2, 3), (4, 5, 6), (2, 5, 7))]
    fams.append(famcore.family(7, 3, [(1, 2, 3), (1, 4, 5)]))
    assert len({enumeration._degree_order_encode(7, f.members) for f in fams}) == 2
    assert cli._kernel_scan(enumeration.encode_counts(fams)) == (True, 4, 0, 4)


def test_kernel_scan_compares_k1_with_triviality(monkeypatch):
    # both families are stars, so K_1 is non-empty; a triviality test that
    # calls them non-trivial must make the K_1 fact fail
    fams = [famcore.family(7, 3, [(1, 2, 3)]), famcore.family(7, 3, [(1, 2, 3), (1, 4, 5)])]
    monkeypatch.setattr(famcore, "is_trivial", lambda fam: None)
    assert cli._kernel_scan(enumeration.encode_counts(fams))[0] is False


THEOREMS_CHECKS = [
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
]


def test_theorems_check_names_pinned():
    # the names and their order are part of the report bytes
    assert [c.name for c in cli.suite_theorems().checks] == THEOREMS_CHECKS


def test_prop_k3_degree_bound_is_computed(monkeypatch):
    # min-degree-bound compares against bounds.hm_min_degree, not a literal
    monkeypatch.setattr(cli.bounds, "hm_min_degree", lambda n, k: 2)
    checks = {c.name: c for c in cli.suite_prop_k3(7).checks}
    assert checks["min-degree-bound"].status == "fail"
    assert checks["min-degree-bound"].expected == "delta <= 2 on non-trivial classes"
    assert checks["hm-class-present"].status == "fail"


def test_theorems_kernel_crash_fails_only_kernel_checks(monkeypatch):
    def broken(*a, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(covers, "kernel", broken)
    report = cli.suite_theorems()
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert failed == KERNEL_CHECKS
    assert len(report.checks) == 23
    for c in report.checks:
        if c.name in KERNEL_CHECKS:
            assert c.actual == "error: RuntimeError: boom"


def test_theorems_crash_keeps_the_row_name(monkeypatch):
    # a crashed check is reported under its own pinned name, and only the
    # checks that build constrained hosts fail
    def broken(*a, **kw):
        raise RuntimeError("no host")

    monkeypatch.setattr(cli.generators, "gen_constrained", broken)
    report = cli.suite_theorems()
    assert [c.name for c in report.checks] == THEOREMS_CHECKS
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in failed] == [n for n in THEOREMS_CHECKS if n.startswith("direct-product")]
    assert len(failed) == 4
    assert all(c.actual == "error: RuntimeError: no host" and c.expected is None for c in failed)


PROP_K3_CHECKS = [
    "class-count",
    "ekr-size-bound",
    "unique-star-class",
    "hm-size-bound",
    "hm-class-present",
    "min-degree-bound",
    "degree-ekr",
    "labeled-total",
]


def test_prop_k3_landscape_crash_fails_every_check(capsys, monkeypatch):
    # a crash while the classes are built fails each check by name, exit 1
    def broken(*a, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(_kernels, "canonical_min", broken)
    code, out, err = run(capsys, "verify", "--suite", "prop-k3", "--n", "7", "--json", "--no-timing")
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == PROP_K3_CHECKS
    assert all(c["status"] == "fail" and c["actual"] == "error: RuntimeError: boom" for c in checks)


def test_suites_build_a_failed_landscape_once(monkeypatch):
    # a landscape build that raises is not retried by every row that
    # reads it: each suite builds it once and reports the same error
    calls = []

    def failing(name):
        def build(n, k):
            calls.append(name)
            raise RuntimeError(f"no {name} at ({n},{k})")

        return build

    monkeypatch.setattr(enumeration, "landscape_classes", failing("classes"))
    monkeypatch.setattr(enumeration, "landscape_counts", failing("counts"))
    report = cli.suite_prop_k3(9)
    assert calls == ["classes"]
    assert [c.name for c in report.checks] == PROP_K3_CHECKS
    assert {(c.status, c.actual) for c in report.checks} == {
        ("fail", "error: RuntimeError: no classes at (9,3)")
    }
    calls.clear()
    report = cli.suite_theorems()
    assert calls == ["counts"]
    landscape = [c for c in report.checks if c.name in KERNEL_CHECKS - {"kernel-hm-9-3"}]
    assert len(landscape) == 3
    assert {(c.status, c.actual) for c in landscape} == {
        ("fail", "error: RuntimeError: no counts at (7,3)")
    }
    assert {c.name for c in report.checks if c.status == "fail"} == {c.name for c in landscape}


def test_prop_k3_crash_fails_only_its_check(monkeypatch):
    # delta <= None raises inside min-degree-bound; the other checks still run
    monkeypatch.setattr(cli.bounds, "hm_min_degree", lambda n, k: None)
    report = cli.suite_prop_k3(7)
    status = {c.name: c.status for c in report.checks}
    assert list(status) == PROP_K3_CHECKS
    assert {n for n, st in status.items() if st == "fail"} == {"hm-class-present", "min-degree-bound"}
    crashed = report.checks[5]
    assert crashed.expected is None and crashed.actual.startswith("error: TypeError: ")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--suite", "theorems", "--json", "--no-timing"),
            "731ac129d460849250ec5968a0d64ccdc4e470f7996f15858818e31bd685674f",
        ),
        (
            ("verify", "--suite", "prop-k3", "--n", "7", "--json", "--no-timing"),
            "1077e1d83243d43b7274cc2c7baf7bf053c9f5d36a33e9b48343831360ad61b7",
        ),
        (
            ("enumerate", "--n", "7", "--k", "3", "--classes"),
            "19fa86e4c92a8ada701099613d3d4dd87e82fb768bebb30b5d9b3802b3acf389",
        ),
    ],
)
def test_report_bytes_pinned(capsys, argv, digest):
    # digests of the reports as the suites have always printed them
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def relabelled(fam, seed):
    perm = list(range(fam.n))
    random.Random(seed).shuffle(perm)
    return famcore.family(
        fam.n, fam.k, (sum(1 << perm[i] for i in range(fam.n) if m >> i & 1) for m in fam.members)
    )


@pytest.mark.parametrize(
    "name, digest",
    [
        # omega settled by a star above the Hilton-Milner bound
        ("complete-9-4", "70979e000be1bc288bc6ab1885bbdf1ec67c67dc484147ffc7632e1a081293c0"),
        ("star-14-4-seed-1", "5d8b005f1df6b28164ff99ce54f87435e8210181dc2086b55ba3cf474b9aa6cf"),
        # a star at the bound, with a non-trivial optimum that is lex-least
        ("hm-7-3-plus-156", "654d277127a854090e898fca28e9350d0de98b008dea54ae8c3de0e53ffe4cd7"),
    ],
)
def test_search_bytes_pinned(tmp_path, capsys, name, digest):
    hosts = {
        "complete-9-4": lambda: gen_complete(9, 4),
        "star-14-4-seed-1": lambda: relabelled(gen_full_star(14, 4, 1), 1),
        "hm-7-3-plus-156": lambda: famcore.family(
            7, 3, gen_hm(HMSpec.standard(7, 3)).members + (kset((1, 5, 6)),)
        ),
    }
    path = tmp_path / f"{name}.fam"
    path.write_text(famcore.format_fam(hosts[name]()))
    code, out, _ = run(capsys, "search", "max-intersecting", "--host", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_search_ekr_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "triple.spec"
    path.write_text(format_constraint_spec(make_triple_blocks(12, 4)))
    code, out, _ = run(capsys, "search", "ekr", "--spec", str(path), "--k", "4")
    assert code == 0
    digest = "de7e69a65f1d379310cfbc34aeb8f9b14c5f8693a891d74ad732d15a3a9e0430"
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_enumerate_classes_counts_through_one_member(capsys, monkeypatch):
    # only the maximal families containing {1, 2, 3} are decoded; the
    # labelled enumeration of all 6127 is never called
    built = []
    real = enumeration._maximal_members

    def recording(vertices):
        for mem in real(vertices):
            built.append(mem)
            yield mem

    def refused(n, k):
        raise AssertionError("enumerate_maximal_intersecting called")

    monkeypatch.setattr(enumeration, "_maximal_members", recording)
    monkeypatch.setattr(enumeration, "enumerate_maximal_intersecting", refused)
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--k", "3", "--classes")
    assert code == 0 and json.loads(out)["labeled_total"] == 6127
    assert len(built) == 1860 and all(kset((1, 2, 3)) in mem for mem in built)


@pytest.mark.parametrize("n, k", [(3, 1), (5, 2), (6, 2), (7, 2), (8, 2), (7, 3), (8, 3)])
def test_enumerate_classes_bytes_equal_the_labelled_route(capsys, monkeypatch, n, k):
    argv = ("enumerate", "--n", str(n), "--k", str(k), "--classes")
    code, through_one, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(
        enumeration,
        "landscape_classes",
        lambda n, k: enumeration.iso_classes(enumeration.enumerate_maximal_intersecting(n, k)),
    )
    code, labelled, _ = run(capsys, *argv)
    assert code == 0 and through_one == labelled


def test_verify_refuses_ignored_options(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theorems", "--n", "7")
    assert code == 2 and out == ""
    assert "error:" in err and "--n" in err
    code, out, err = run(capsys, "verify", "--suite", "prop-k3", "--n", "7", "--json", "--csv")
    assert code == 2 and out == ""
    assert "error:" in err and "--csv" in err
    for suite, jobs in (("prop-k3", "4"), ("prop-k3", "0"), ("theorems", "0"), ("theorems", "-2")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--jobs", jobs)
        assert code == 2 and out == ""
        assert "error:" in err and "--jobs" in err


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop-k3", "--n", "7", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "name,status,expected,actual"


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    def broken(n):
        return cli.VerificationReport(
            "prop-k3", {"n": n}, [cli.Check("forced", "fail", 1, 2)], 0
        )

    monkeypatch.setitem(cli.SUITES, "prop-k3", broken)
    monkeypatch.setattr(cli, "suite_prop_k3", broken)
    code, out, _ = run(capsys, "verify", "--suite", "prop-k3", "--n", "7")
    assert code == 1
    assert "FAIL" in out


@settings(max_examples=40, deadline=None)
@given(st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12))
def test_property_unknown_commands_exit_two(word):
    known = {"gen", "stats", "kernel", "enumerate", "search", "bounds", "verify", "--version", "-h", "--help"}
    if word in known:
        return
    assert cli.run([word]) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5))
def test_property_bad_bound_params_never_crash(n, k):
    code = cli.run(["bounds", "calc", "--name", "ekr", "--n", str(n), "--k", str(k)])
    assert code in (0, 2)
