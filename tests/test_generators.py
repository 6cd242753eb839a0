from math import comb

import pytest

from setfam.covers import matching_number
from setfam.famcore import degree_profile, elements, is_intersecting, is_trivial, kset
from setfam.generators import (
    ConstraintSpec,
    HMSpec,
    format_constraint_spec,
    gen_complete,
    gen_constrained,
    gen_full_star,
    gen_hm,
    gen_meets_front,
    parse_constraint_spec,
)


def test_full_star_sizes():
    assert len(gen_full_star(7, 3, 1)) == 15
    assert [elements(m) for m in gen_full_star(4, 2, 4)] == [(1, 4), (2, 4), (3, 4)]


def test_full_star_degrees():
    star = gen_full_star(9, 4, 2)
    assert len(star) == 56
    prof = degree_profile(star)
    # every element besides the center has degree C(7, 2)
    assert all(prof.degrees[x - 1] == 21 for x in range(1, 10) if x != 2)
    assert is_trivial(star) == 2


def test_full_star_errors():
    with pytest.raises(ValueError):
        gen_full_star(7, 3, 0)
    with pytest.raises(ValueError):
        gen_full_star(7, 3, 8)
    with pytest.raises(ValueError):
        gen_full_star(7, 8, 1)


def test_star_hm_meets_front_refuse_oversized_output():
    # C(39, 19) and C(40, 20) are far above COMPLETE_CAP: refuse, do not stall
    with pytest.raises(ValueError, match="cap"):
        gen_full_star(40, 20, 1)
    with pytest.raises(ValueError, match="cap"):
        gen_hm(HMSpec.standard(40, 20))
    with pytest.raises(ValueError, match="cap"):
        gen_meets_front(40, 20, 1)


def test_hm_sizes():
    assert len(gen_hm(HMSpec.standard(7, 3))) == 13
    hm12 = gen_hm(HMSpec.standard(12, 4))
    assert len(hm12) == comb(11, 3) - comb(7, 3) + 1 == 131
    assert is_intersecting(hm12)
    assert is_trivial(hm12) is None


def test_hm_delta_attained_outside():
    hm = gen_hm(HMSpec.standard(9, 3))
    prof = degree_profile(hm)
    assert prof.delta == 3
    assert set(prof.argmin) == {5, 6, 7, 8, 9}  # everything outside s and x


def test_hm_spec_validation():
    with pytest.raises(ValueError):
        HMSpec(9, 3, 2, kset((2, 3, 4)))  # x inside s
    with pytest.raises(ValueError):
        HMSpec(9, 3, 1, kset((2, 3)))  # |s| != k
    with pytest.raises(ValueError):
        HMSpec(3, 3, 1, kset((2, 3, 4)))  # n < k + 1 (and s out of range)


def test_hm_size_formula_grid():
    for n in range(4, 15):
        for k in range(2, n // 2 + 1):
            fam = gen_hm(HMSpec.standard(n, k))
            assert len(fam) == comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1
            assert is_intersecting(fam)
            if n >= 2 * k + 1:
                assert is_trivial(fam) is None


def test_meets_front_sizes():
    assert len(gen_meets_front(7, 3, 1)) == 15
    assert len(gen_meets_front(9, 3, 2)) == comb(9, 3) - comb(7, 3) == 49
    assert len(gen_meets_front(6, 2, 3)) == 12
    with pytest.raises(ValueError):
        gen_meets_front(7, 3, 5)  # s > n - k


def test_meets_front_matching_number():
    # every member meets {1..s}, so the least-element bound is s at the
    # root; without it the last three took 1 s, 4 s and 72 s
    cases = ((9, 3, 2), (8, 2, 2), (10, 2, 3), (12, 3, 3), (15, 3, 4), (16, 4, 3), (18, 3, 5))
    for n, k, s in cases:
        assert n >= k * (s + 1)
        assert matching_number(gen_meets_front(n, k, s)) == s


def test_complete():
    assert len(gen_complete(5, 2)) == 10
    assert len(gen_complete(7, 3)) == 35
    assert len(gen_complete(4, 4)) == 1
    with pytest.raises(ValueError, match="cap"):
        gen_complete(40, 20)


def test_constrained_refuses_oversized_sweep():
    spec = ConstraintSpec(40, (kset((1, 2, 3)),), (1,), "atleast")
    with pytest.raises(ValueError, match="cap"):
        gen_constrained(spec, 20)


def test_constrained_exact_product():
    spec = ConstraintSpec(8, (kset(range(1, 5)), kset(range(5, 9))), (1, 2), "exact")
    fam = gen_constrained(spec, 3)
    assert len(fam) == 4 * 6 == 24
    # every member: exactly 1 in the first block, 2 in the second
    b1, b2 = spec.blocks
    assert all((m & b1).bit_count() == 1 and (m & b2).bit_count() == 2 for m in fam)


def test_constrained_exact_with_implicit_remainder():
    # declared blocks do not partition [6]; remainder block takes k - 1 = 1
    spec = ConstraintSpec(6, (kset((1, 2)),), (1,), "exact")
    fam = gen_constrained(spec, 2)
    assert len(fam) == 2 * 4


def test_constrained_atleast_transversals():
    blocks = tuple(kset(range(4 * i + 1, 4 * i + 5)) for i in range(3))
    spec = ConstraintSpec(12, blocks, (1, 1, 1), "atleast")
    fam = gen_constrained(spec, 3)
    assert len(fam) == 64


def test_constrained_atleast_two_of_three():
    spec = ConstraintSpec(9, (kset((1, 2, 3)),), (2,), "atleast")
    fam = gen_constrained(spec, 3)
    assert len(fam) == 3 * 6 + 1 == 19
    assert is_intersecting(fam)


def test_constrained_infeasible_is_empty():
    spec = ConstraintSpec(8, (kset((1, 2, 3)),), (3,), "atleast")
    assert len(gen_constrained(spec, 2)) == 0  # quota sum exceeds k
    spec = ConstraintSpec(8, (kset((1, 2)), kset((3, 4))), (2, 2), "exact")
    assert len(gen_constrained(spec, 3)) == 0  # negative remainder quota


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec(8, (kset((1, 2)), kset((2, 3))), (1, 1), "atleast")  # overlap
    with pytest.raises(ValueError):
        ConstraintSpec(8, (kset((1, 2)),), (3,), "atleast")  # quota > block
    with pytest.raises(ValueError):
        ConstraintSpec(8, (kset((1, 2)),), (1,), "between")  # bad mode
    with pytest.raises(ValueError):
        ConstraintSpec(8, (kset((1, 9)),), (1,), "exact")  # out of range


def test_constraint_spec_text_roundtrip():
    spec = ConstraintSpec(12, (kset((1, 2, 3, 4)), kset((5, 6, 7, 8))), (1, 2), "atleast")
    text = format_constraint_spec(spec)
    assert "block: 1 2 3 4 | quota: 1 | mode: atleast" in text
    assert parse_constraint_spec(text) == spec
    with pytest.raises(ValueError):
        parse_constraint_spec("block: 1 2 | quota: 1 | mode: exact\n")  # no n
    with pytest.raises(ValueError):
        parse_constraint_spec(
            "n: 8\nblock: 1 2 | quota: 1 | mode: exact\nblock: 3 4 | quota: 1 | mode: atleast\n"
        )


def test_constrained_exact_size_is_product_of_binomials():
    cases = (((4, 4), (1, 2)), ((2, 6), (1, 1)), ((3, 3, 3), (1, 1, 1)), ((5, 4), (2, 2)))
    for sizes, quotas in cases:
        blocks, lo = [], 0
        for s in sizes:
            blocks.append(kset(range(lo + 1, lo + s + 1)))
            lo += s
        spec = ConstraintSpec(lo, tuple(blocks), tuple(quotas), "exact")
        fam = gen_constrained(spec, sum(quotas))
        product = 1
        for s, q in zip(sizes, quotas):
            product *= comb(s, q)
        assert len(fam) == product
