import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_minimal_covers, nx_max_clique_size, relabel, relabel_mask
from setfam.covers import (
    Kernel,
    cover_number,
    find_high_tau_link,
    is_cover,
    kernel,
    kernel_layer_sizes,
    matching_number,
    restriction_link,
)
from setfam.famcore import Family, all_ksets, family, is_intersecting, kset
from setfam.generators import HMSpec, gen_complete, gen_full_star, gen_hm, gen_meets_front

HM93 = gen_hm(HMSpec(9, 3, 1, kset((2, 3, 4))))
FANO = family(7, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)])
TRIANGLE = family(5, 2, [(1, 2), (1, 3), (2, 3)])


def test_is_cover():
    star = gen_full_star(7, 3, 2)
    assert is_cover(star, kset((2,)))
    assert is_cover(HM93, kset((1, 2)))
    assert not is_cover(HM93, kset((1,)))  # misses s itself
    assert is_cover(Family(5, 2, ()), kset((1,)))  # vacuous


def test_cover_number():
    assert cover_number(gen_full_star(7, 3, 1)) == 1
    assert cover_number(HM93) == 2
    assert cover_number(FANO) == 3
    with pytest.raises(ValueError):
        cover_number(Family(5, 2, ()))


def test_kernel_star():
    kern = kernel(gen_full_star(7, 3, 1))
    assert kern.layers[1] == (kset((1,)),)
    assert kern.layers[2] == ()
    assert kern.layers[3] == ()


def test_kernel_hm93_against_powerset_oracle():
    kern = kernel(HM93)
    got = sorted(kern.all_covers())
    want = [c for c in brute_minimal_covers(HM93.members, 9) if c.bit_count() <= 3]
    assert got == sorted(want)
    assert kern.layers[2] == tuple(sorted(kset(p) for p in ((1, 2), (1, 3), (1, 4))))
    assert kern.layers[3] == (kset((2, 3, 4)),)


def test_kernel_triangle_against_oracle():
    kern = kernel(TRIANGLE)
    assert kern.layers[1] == ()
    assert sorted(kern.layers[2]) == brute_minimal_covers(TRIANGLE.members, 5)


def test_kernel_full_enumeration():
    # with the cap lifted, a full star also has its size-5 covers of [2..7]
    kern = kernel(gen_full_star(7, 3, 1), size_cap=7)
    want = brute_minimal_covers(gen_full_star(7, 3, 1).members, 7)
    assert sorted(kern.all_covers()) == want
    assert len(kern.layers[5]) == 6


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_kernel_matches_powerset_oracle(data):
    # part of an HM-style family: s plus some k-sets through x that meet s,
    # so intersecting but in general not maximal
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(2, n - 1))
    x = data.draw(st.integers(1, n))
    others = [e for e in range(1, n + 1) if e != x]
    s = kset(data.draw(st.lists(st.sampled_from(others), min_size=k, max_size=k, unique=True)))
    through_x = [m for m in gen_full_star(n, k, x).members if m & s]
    members = data.draw(st.lists(st.sampled_from(through_x), min_size=1, max_size=8, unique=True))
    if data.draw(st.booleans()):
        members.append(s)
    fam = Family(n, k, tuple(sorted(members)))
    cap = data.draw(st.integers(1, n))
    want = brute_minimal_covers(fam.members, n, cap)
    kern = kernel(fam, cap)
    assert sorted(kern.layers) == list(range(1, cap + 1))
    for i, layer in kern.layers.items():
        assert layer == tuple(c for c in want if c.bit_count() == i)


def random_intersecting(rng, n, k, size):
    """Up to size k-sets on [n], drawn in random order, each kept if it
    meets every one kept before it."""
    pool = list(all_ksets(n, k))
    rng.shuffle(pool)
    kept = []
    for m in pool:
        if len(kept) == size:
            break
        if all(m & o for o in kept):
            kept.append(m)
    return Family(n, k, tuple(sorted(kept)))


def test_kernel_commutes_with_relabelling():
    # K(pF) = pK(F) at every cap: what lets the theorems suite build one
    # kernel per degree-order encode instead of one per family
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(2, 10)
        k = rng.randint(1, n)
        fam = random_intersecting(rng, n, k, rng.randint(1, 25))
        perm = list(range(n))
        rng.shuffle(perm)
        moved = relabel(fam, perm)
        for cap in range(1, n + 1):
            kern = kernel(fam, cap)
            want = Kernel(
                cap,
                {i: tuple(sorted(relabel_mask(c, perm) for c in layer)) for i, layer in kern.layers.items()},
            )
            assert kernel(moved, cap) == want


def test_kernel_preconditions():
    with pytest.raises(ValueError):
        kernel(family(6, 3, [(1, 2, 3), (4, 5, 6)]))
    with pytest.raises(ValueError):
        kernel(Family(5, 2, ()))


def test_kernel_size_cap_range():
    # a cap outside [1, n] is refused, not read as k or padded with empty layers
    for cap in (-1, 0, 10, 100):
        with pytest.raises(ValueError, match="size cap"):
            kernel(HM93, size_cap=cap)
    assert kernel(HM93, size_cap=1).layers == {1: ()}
    assert sorted(kernel(HM93, size_cap=9).layers) == list(range(1, 10))


def test_kernel_layer_sizes():
    assert kernel_layer_sizes(HM93) == (0, 3, 1)
    assert kernel_layer_sizes(gen_full_star(7, 3, 1)) == (1, 0, 0)


def test_restriction_link():
    star = gen_full_star(7, 3, 1)
    link = restriction_link(star, kset((1,)))
    assert link.k == 2 and len(link) == 15
    assert all(not m & 1 for m in link.members)
    assert restriction_link(star, 0) == star
    got = restriction_link(HM93, kset((2, 3)))
    assert sorted(got.members) == [kset((1,)), kset((4,))]
    assert restriction_link(star, kset((6, 7))).k == 1
    with pytest.raises(ValueError):
        restriction_link(star, kset((1, 2, 3)))


def test_link_composition():
    y, z = kset((1,)), kset((2,))
    one = restriction_link(restriction_link(HM93, y), z)
    both = restriction_link(HM93, y | z)
    assert one == both


def test_link_tau_identity():
    assert cover_number(restriction_link(HM93, 0)) == cover_number(HM93)


def test_find_high_tau_link_star():
    # 5-edge star: the center's link is 5 singletons with cover number 5
    fam = family(8, 2, [(1, x) for x in range(2, 7)])
    y = find_high_tau_link(fam, 2)
    assert y == kset((1,))
    assert cover_number(restriction_link(fam, y)) == 5


def test_find_high_tau_link_disjoint_pairs():
    # tau of the family itself is 3 = k + 1, so the empty set qualifies
    fam = family(8, 2, [(1, 2), (3, 4), (5, 6)])
    y = find_high_tau_link(fam, 2)
    assert y == 0
    link = restriction_link(fam, y)
    assert cover_number(link) >= 3


def test_find_high_tau_link_none():
    # a single edge: every link has cover number 1
    fam = family(6, 2, [(1, 2)])
    assert find_high_tau_link(fam, 2) is None


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_property_large_uniform_family_has_high_tau_link(data):
    # i-uniform family with more than k**i members always yields some y
    k = 2
    i = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(2 * i + 1, 8))
    pool = all_ksets(n, i)
    need = k**i + 1
    if need > len(pool):
        return
    members = data.draw(
        st.lists(st.sampled_from(pool), min_size=need, max_size=min(len(pool), need + 3), unique=True)
    )
    fam = Family(n, i, tuple(sorted(members)))
    y = find_high_tau_link(fam, k)
    assert y is not None
    assert cover_number(restriction_link(fam, y)) >= k + 1


def test_matching_number():
    assert matching_number(gen_meets_front(9, 3, 2)) == 2
    assert matching_number(HM93) == 1
    assert matching_number(gen_complete(6, 2)) == 3
    assert matching_number(Family(6, 2, ())) == 0


def test_matching_number_against_networkx():
    # the largest clique of the disjointness graph, found by networkx
    rng = random.Random(2026)
    for _ in range(150):
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, 14)
        pool = all_ksets(n, k)
        ms = sorted(rng.sample(pool, min(len(pool), rng.randint(0, 80))))
        disjoint = [sum(1 << j for j, b in enumerate(ms) if not a & b) for a in ms]
        assert matching_number(Family(n, k, tuple(ms))) == nx_max_clique_size(disjoint, len(ms))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_property_members_are_covers_and_tau_at_most_k(data):
    n = data.draw(st.integers(4, 8))
    k = data.draw(st.integers(2, 3))
    x = data.draw(st.integers(1, n))
    star = gen_full_star(n, k, x)
    members = data.draw(
        st.lists(st.sampled_from(list(star.members)), min_size=1, max_size=6, unique=True)
    )
    fam = Family(n, k, tuple(sorted(members)))
    assert is_intersecting(fam)
    assert all(is_cover(fam, m) for m in fam.members)
    assert cover_number(fam) <= k
