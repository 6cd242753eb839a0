from fractions import Fraction
from itertools import combinations

import pytest

from setfam import cli
from setfam.bounds import (
    audit_degree_size_chain,
    audit_inclusion_exclusion,
    audit_tail_ratio,
    audit_telescoping,
    audit_vandermonde,
    binom,
    degree_size_chain_grid,
    ekr_bound,
    frankl_maxdeg_bound,
    frankl_wilson_bound,
    hk_gap_constant,
    hm_bound,
    hm_min_degree,
    inclusion_exclusion_grid,
    matching_threshold,
    tail_ratio_grid,
    telescoping_grid,
    triple_transversal_bound,
    triple_transversal_ledger,
    vandermonde_grid,
)
from setfam.covers import matching_number
from setfam.famcore import degree_profile
from setfam.generators import HMSpec, gen_hm, gen_meets_front


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(5, -1) == 0
    assert binom(-2, 1) == 0
    assert binom(0, 0) == 1


def test_ekr_bound():
    assert ekr_bound(7, 3) == 15
    assert ekr_bound(9, 4) == 56
    assert ekr_bound(6, 3) == 10
    with pytest.raises(ValueError):
        ekr_bound(3, 4)


def test_hm_bound():
    assert hm_bound(7, 3) == 13
    assert hm_bound(9, 4) == 53
    assert len(gen_hm(HMSpec.standard(9, 4))) == 53
    for k in range(2, 6):
        n = 2 * k + 1
        assert hm_bound(n, k) == ekr_bound(n, k) - binom(k, k - 1) + 1
        # at n = 2k the value is the EKR bound, met by a star
        assert hm_bound(2 * k, k) == ekr_bound(2 * k, k)
    # below 2k all k-sets meet: the ten 3-sets of [5] are a non-trivial
    # intersecting family, so no value is a bound there
    for n, k in ((3, 5), (4, 0), (5, -1), (5, 3), (4, 3)):
        with pytest.raises(ValueError):
            hm_bound(n, k)


def test_hm_min_degree():
    for n in range(7, 15):
        assert hm_min_degree(n, 3) == 3
    assert hm_min_degree(12, 4) == 30
    assert hm_min_degree(10, 4) == binom(8, 2) - binom(4, 2) == 22
    with pytest.raises(ValueError):
        hm_min_degree(5, 4)


def test_hm_min_degree_matches_construction():
    for n in range(7, 15):
        for k in range(3, 6):
            measured = degree_profile(gen_hm(HMSpec.standard(n, k))).delta
            assert hm_min_degree(n, k) == measured


def test_frankl_wilson_bound():
    assert frankl_wilson_bound(7, 3, 2) == (5, True)
    assert frankl_wilson_bound(9, 3, 3) == (1, True)  # C(6, 0); valid since 9 >= 4
    assert frankl_wilson_bound(7, 3, 1) == (15, True)
    with pytest.raises(ValueError):
        frankl_wilson_bound(7, 3, 0)


def test_frankl_maxdeg_bound():
    assert frankl_maxdeg_bound(9, 4, 3) == 56 - 20 + 15 == 51
    assert frankl_maxdeg_bound(7, 3, 3) == 13
    for n, k in ((9, 4), (11, 5), (13, 6)):
        assert frankl_maxdeg_bound(n, k, k + 1) == hm_bound(n, k)
    with pytest.raises(ValueError):
        frankl_maxdeg_bound(9, 4, 2)
    with pytest.raises(ValueError):
        frankl_maxdeg_bound(8, 4, 3)


def test_matching_threshold():
    assert matching_threshold(7, 3, 1) == (15, False)  # value is the EKR bound; 7 < 3k - 1
    value, valid = matching_threshold(9, 3, 2)
    assert value == 49 and not valid
    assert matching_threshold(12, 3, 3) == (136, False)
    assert matching_threshold(25, 3, 4) == (binom(25, 3) - binom(21, 3), True)


def test_matching_threshold_tightness():
    for n, k, s in ((9, 3, 2), (8, 2, 2), (12, 3, 3), (10, 2, 3)):
        fam = gen_meets_front(n, k, s)
        assert len(fam) == matching_threshold(n, k, s)[0]
        assert matching_number(fam) == s


def test_hk_gap_constant():
    assert hk_gap_constant(9, 3) == 28 - 10 - 4 + 2 == 16
    assert hk_gap_constant(7, 3) == 15 - 3 - 2 + 2 == 12
    # at k = 2 the two constants coincide (C(n-4, 0) = 1); strictly
    # below the Hilton-Milner bound from k = 3 on
    for n in range(5, 41):
        assert hk_gap_constant(n, 2) == hm_bound(n, 2)
    for k in range(3, 9):
        for n in range(2 * k + 1, 41):
            assert hk_gap_constant(n, k) < hm_bound(n, k)


@pytest.mark.parametrize(
    "name, fn, args",
    [
        ("hk-gap", hk_gap_constant, {"n": 9, "k": 0}),
        ("hm-min-degree", hm_min_degree, {"n": 5, "k": 0}),
        ("hm-min-degree", hm_min_degree, {"n": 9, "k": -4}),
        ("matching-threshold", matching_threshold, {"n": 4, "k": 7, "s": 1}),
        ("frankl-wilson", frankl_wilson_bound, {"n": 3, "k": 5, "t": 2}),
        ("hm", hm_bound, {"n": 5, "k": 3}),
    ],
)
def test_closed_forms_refuse_k_outside_1_n(name, fn, args, capsys):
    with pytest.raises(ValueError):
        fn(*args.values())
    argv = ["bounds", "calc", "--name", name]
    for p, v in args.items():
        argv += [f"--{p}", str(v)]
    assert cli.run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


def test_triple_transversal_ledger():
    led = triple_transversal_ledger(12, 3, 4)
    assert led["entries"] == {3: 16}
    assert led["total"] == 16
    led = triple_transversal_ledger(15, 5, 4)
    assert led["total"] == 16 * binom(12, 2) == 1056
    assert sum(led["entries"].values()) == 1056
    assert led["entries"][3] == 16 * binom(3, 2)
    assert led["entries"][4] == 3 * 3 * 16 * binom(3, 1)
    assert led["entries"][5] == 16 * binom(9, 2)
    for m in range(9, 30):
        assert triple_transversal_ledger(m, 3, 1)["total"] == 1
    assert triple_transversal_bound(12, 3, 4) == 16


def test_triple_transversal_refuses_impossible_blocks(capsys):
    # three disjoint ell-blocks need ell >= 1 and m >= 3*ell
    for m, ell in ((5, 4), (11, 4), (9, 0), (9, -1)):
        for fn in (triple_transversal_bound, triple_transversal_ledger):
            with pytest.raises(ValueError, match="m >= 3\\*ell"):
                fn(m, 3, ell)
        for name in ("triple-transversal", "triple-transversal-ledger"):
            argv = ["bounds", "calc", "--name", name, "--m", str(m), "--k", "3", "--l", str(ell)]
            assert cli.run(argv) == 2
    assert capsys.readouterr().out == ""


def test_audit_vandermonde():
    r = audit_vandermonde(12, 5, 3)
    assert r.holds and r.lhs == 36
    assert audit_vandermonde(12, 3, 4).holds
    with pytest.raises(ValueError):
        audit_vandermonde(8, 5, 3)  # m < 3*ell


def test_audit_telescoping():
    r = audit_telescoping(7, 3)
    assert r.holds and r.lhs == 15
    r = audit_telescoping(8, 3)
    assert r.holds and r.lhs == 6 + 5 + 10
    with pytest.raises(ValueError):
        audit_telescoping(5, 3)


def test_audit_tail_ratio():
    r = audit_tail_ratio(64, 4, 1, 4)
    assert r.holds and r.validity
    assert r.lhs == binom(56, 2)
    assert r.rhs == Fraction(1, 2) * binom(62, 2)
    # near the limit the ratio approaches 1
    r = audit_tail_ratio(10 * 4 * 36, 6, 5, 4)
    assert r.holds


def test_audit_degree_size_chain():
    assert audit_degree_size_chain(480, 4, 30).holds
    assert audit_degree_size_chain(64, 4, 4).holds
    r = audit_degree_size_chain(36, 3, 4)  # k = 3 edge case, C(., 0) terms
    assert r.holds and r.validity


def test_audit_inclusion_exclusion():
    r = audit_inclusion_exclusion(12, 3, 1)
    assert r.holds
    assert r.lhs == 10 - 14 + 5 == 1
    assert r.rhs == 1
    assert audit_inclusion_exclusion(13, 4, 2).holds
    with pytest.raises(ValueError):
        audit_inclusion_exclusion(6, 3, 1)  # n < 2k - t + 2
    with pytest.raises(ValueError):
        audit_inclusion_exclusion(12, 3, 3)  # t = k excluded


def test_inclusion_exclusion_formula_is_a_count():
    # independent recount with sets instead of masks
    n, k, t = 11, 4, 2
    r = audit_inclusion_exclusion(n, k, t)
    e1 = set(range(3, k + 3))
    e2 = set(range(3, t + 3)) | set(range(k + 3, 2 * k - t + 3))
    assert len(e1) == len(e2) == k and len(e1 & e2) == t
    count = sum(
        1
        for c in combinations(range(1, n + 1), k)
        if {1, 2} <= set(c) and set(c) & e1 and set(c) & e2
    )
    assert r.lhs == count


def test_grids_all_hold():
    assert all(r.holds for r in telescoping_grid())
    assert all(r.holds for r in vandermonde_grid())
    assert all(r.holds for r in tail_ratio_grid() if r.validity)
    assert all(r.holds for r in degree_size_chain_grid() if r.validity)
    assert all(r.holds for r in inclusion_exclusion_grid())


def test_exactness_no_floats():
    r = audit_tail_ratio(64, 4, 1, 4)
    assert isinstance(r.lhs, Fraction) and isinstance(r.rhs, Fraction)
    r = audit_degree_size_chain(64, 4, 4)
    assert isinstance(r.lhs, Fraction) and isinstance(r.rhs, Fraction)


def test_triple_transversal_ledger_identity_grid():
    # the ledger constructor asserts the Vandermonde collapse internally;
    # sweep the whole grid to exercise it
    for k in range(3, 11):
        for ell in range(1, 7):
            for m in range(3 * ell, 61):
                led = triple_transversal_ledger(m, k, ell)
                assert led["total"] == triple_transversal_bound(m, k, ell)
