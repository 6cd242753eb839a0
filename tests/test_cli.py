import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam import cli, covers
from setfam.famcore import parse_fam
from setfam.generators import (
    ConstraintSpec,
    format_constraint_spec,
    gen_full_star,
    gen_meets_front,
)


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
    assert code == 0 and parse_fam(out).members and len(parse_fam(out)) == 19
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


def test_bounds_audit_csv(capsys):
    code, out, _ = run(capsys, "bounds", "audit", "--name", "telescoping", "--grid", "n<=20,k<=4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,lhs,rhs,holds,validity"
    assert all(line.endswith("True,True") for line in lines[1:])
    code, out, _ = run(capsys, "bounds", "audit", "--name", "tail-ratio", "--grid", "c=4,k<=3")
    assert code == 0


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
    # one kernel per (7,3) family, shared by the three landscape checks,
    # plus one for HM(9,3)
    calls = []
    real = covers.kernel

    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(covers, "kernel", counted)
    report = cli.suite_theorems()
    assert report.passed
    assert len(calls) == 6127 + 1


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
