import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam.famcore import (
    Family,
    all_ksets,
    degree,
    degree_profile,
    elements,
    family,
    format_fam,
    intersection_parameter,
    is_intersecting,
    is_trivial,
    kset,
    maximal_closure,
    member_columns,
    parse_fam,
    subfamily_at,
    twin_classes,
)
from setfam.generators import HMSpec, gen_complete, gen_constrained, gen_full_star, gen_hm
from setfam.search import make_triple_blocks


HM93 = gen_hm(HMSpec(9, 3, 1, kset((2, 3, 4))))


@st.composite
def families(draw, max_n=8, max_k=4, max_members=8):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, min(max_k, n)))
    pool = all_ksets(n, k)
    members = draw(st.lists(st.sampled_from(pool), max_size=max_members, unique=True))
    return Family(n, k, tuple(sorted(members)))


def test_kset_roundtrip():
    assert kset((3, 1, 5)) == 0b10101
    assert elements(0b10101) == (1, 3, 5)
    assert kset(()) == 0
    with pytest.raises(ValueError):
        kset((0,))
    with pytest.raises(ValueError):
        kset((2, 2))


def test_family_validation():
    with pytest.raises(ValueError):
        Family(1, 1, ())
    with pytest.raises(ValueError):
        Family(5, 2, (kset((1, 2, 3)),))  # wrong arity
    with pytest.raises(ValueError):
        Family(5, 2, (kset((1, 6)),))  # out of range
    with pytest.raises(ValueError):
        Family(5, 2, (3, 3))  # duplicate
    f = family(5, 2, [(2, 1), (1, 2), (4, 5)])  # dedup + sort
    assert len(f) == 2


def test_degree_star():
    star = gen_full_star(7, 3, 1)
    assert degree(star, 1) == 15
    assert degree(star, 2) == 5
    with pytest.raises(ValueError):
        degree(star, 0)
    with pytest.raises(ValueError):
        degree(star, 8)


def test_degree_hm93_element9_bruteforce():
    # oracle: count triples of [9] containing {1, 9} and meeting {2, 3, 4}
    oracle = sum(
        1
        for c in combinations(range(1, 10), 3)
        if 1 in c and 9 in c and set(c) & {2, 3, 4}
    )
    assert oracle == 3
    assert degree(HM93, 9) == 3


def test_degree_profile_hm():
    assert degree_profile(HM93).delta == 3
    hm124 = gen_hm(HMSpec.standard(12, 4))
    prof = degree_profile(hm124)
    # oracle: brute-force minimum over [12]
    brute = min(
        sum(1 for m in hm124.members if m >> (x - 1) & 1) for x in range(1, 13)
    )
    assert prof.delta == brute == 30


def test_degree_profile_empty():
    prof = degree_profile(Family(5, 2, ()))
    assert prof.degrees == (0,) * 5
    assert prof.delta == prof.Delta == 0


def test_degree_profile_matches_degree():
    rng = random.Random(7)
    fams = [Family(5, 2, ()), Family(9, 4, ())]
    for _ in range(60):
        n = rng.randint(2, 10)
        k = rng.randint(1, n)
        pool = all_ksets(n, k)
        fams.append(family(n, k, rng.sample(pool, rng.randint(0, min(40, len(pool))))))
    for fam in fams:
        prof = degree_profile(fam)
        assert prof.degrees == tuple(degree(fam, x) for x in range(1, fam.n + 1))
        assert prof.delta == min(prof.degrees) and prof.Delta == max(prof.degrees)
        assert prof.argmin == tuple(x for x in range(1, fam.n + 1) if degree(fam, x) == prof.delta)
        assert prof.argmax == tuple(x for x in range(1, fam.n + 1) if degree(fam, x) == prof.Delta)


def test_degree_profile_handshake_examples():
    for fam in (HM93, gen_full_star(7, 3, 1)):
        prof = degree_profile(fam)
        assert sum(prof.degrees) == fam.k * len(fam)


def test_is_intersecting():
    assert is_intersecting(gen_full_star(7, 3, 1))
    assert not is_intersecting(family(6, 3, [(1, 2, 3), (4, 5, 6)]))
    assert is_intersecting(HM93)


def test_intersection_parameter():
    assert intersection_parameter(family(5, 3, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])) == 2
    assert intersection_parameter(HM93) == 1
    assert intersection_parameter(gen_full_star(8, 3, 1)) == 1
    with pytest.raises(ValueError):
        intersection_parameter(family(5, 2, [(1, 2)]))


def test_is_trivial():
    assert is_trivial(gen_full_star(7, 3, 3)) == 3
    assert is_trivial(HM93) is None
    assert is_trivial(family(5, 3, [(1, 2, 3)])) == 1  # tie-break: smallest
    assert is_trivial(Family(5, 2, ())) == 1  # degenerate convention


def test_subfamily_at():
    star = gen_full_star(7, 3, 1)
    assert subfamily_at(star, 1) == star
    # only S misses the center of a Hilton-Milner family
    at_center = subfamily_at(HM93, 1)
    assert set(at_center.members) == set(HM93.members) - {kset((2, 3, 4))}
    assert len(subfamily_at(star, 1).members) == degree(star, 1)
    lonely = family(6, 2, [(1, 2)])
    assert subfamily_at(lonely, 5).members == ()


def test_maximal_closure_full_star_fixed():
    star = gen_full_star(7, 3, 1)
    assert maximal_closure(star) == star


def test_maximal_closure_triangle_fixed():
    tri = family(5, 2, [(1, 2), (1, 3), (2, 3)])
    assert maximal_closure(tri) == tri


def test_maximal_closure_small_n():
    # n < 2k: all triples of [5] pairwise intersect, closure is complete
    fam = family(5, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)])
    closed = maximal_closure(fam)
    assert len(closed) == 10
    assert is_intersecting(closed)


def test_maximal_closure_properties():
    fam = family(7, 3, [(1, 2, 3), (1, 2, 4)])
    closed = maximal_closure(fam)
    assert set(fam.members) <= set(closed.members)  # extensive
    assert maximal_closure(closed) == closed  # idempotent
    # closure output is maximal: nothing else can be added
    others = [g for g in all_ksets(7, 3) if g not in set(closed.members)]
    assert all(any(not (g & f) for f in closed.members) for g in others)
    with pytest.raises(ValueError):
        maximal_closure(family(6, 3, [(1, 2, 3), (4, 5, 6)]))


def lex_greedy_closure(fam):
    # the k-sets of [n] by increasing mask, each kept when it meets every
    # set kept so far, starting from the members
    kept = list(fam.members)
    ksets = sorted(sum(1 << (e - 1) for e in c) for c in combinations(range(1, fam.n + 1), fam.k))
    for g in ksets:
        if g not in kept and all(g & f for f in kept):
            kept.append(g)
    return Family(fam.n, fam.k, tuple(sorted(kept)))


@st.composite
def intersecting_families(draw, max_n=9, max_k=4, max_members=6):
    fam = draw(families(max_n, max_k, max_members))
    kept = []
    for m in fam.members:
        if all(m & f for f in kept):
            kept.append(m)
    return Family(fam.n, fam.k, tuple(kept))


@settings(max_examples=150, deadline=None)
@given(intersecting_families())
def test_property_maximal_closure_is_the_lex_greedy_extension(fam):
    closed = maximal_closure(fam)
    assert closed == lex_greedy_closure(fam)
    ext = [g for g in all_ksets(fam.n, fam.k) if all(g & f for f in fam.members)]
    if is_intersecting(Family(fam.n, fam.k, tuple(ext))):
        assert closed.members == tuple(ext)  # the unique maximal extension


@settings(max_examples=60, deadline=None)
@given(families(max_n=7, max_k=3, max_members=6))
def test_property_handshake(fam):
    prof = degree_profile(fam)
    assert sum(prof.degrees) == fam.k * len(fam)
    assert prof.delta <= prof.Delta or not fam.members


@settings(max_examples=60, deadline=None)
@given(families())
def test_property_trivial_implies_intersecting(fam):
    if is_trivial(fam) is not None:
        assert is_intersecting(fam)


@settings(max_examples=60, deadline=None)
@given(families(max_n=7, max_k=3, max_members=5))
def test_property_t_parameter_vs_intersecting(fam):
    if len(fam) >= 2:
        assert (intersection_parameter(fam) >= 1) == is_intersecting(fam)


@settings(max_examples=40, deadline=None)
@given(families(max_n=6, max_k=3, max_members=4), st.randoms(use_true_random=False))
def test_property_closure_monotone_on_chain(fam, rnd):
    """F <= F' <= closure(F) forces closure(F') == closure(F)."""
    if not is_intersecting(fam):
        return
    closed = maximal_closure(fam)
    extra = [m for m in closed.members if m not in set(fam.members)]
    rnd.shuffle(extra)
    mid = Family(
        fam.n, fam.k, tuple(sorted(set(fam.members) | set(extra[: len(extra) // 2])))
    )
    assert maximal_closure(mid) == closed


def brute_twin_classes(fam):
    """Twin classes by trying every transposition (a b) on the member set,
    then grouping elements by their set of twins."""
    present = set(fam.members)

    def swap(m, a, b):
        if (m >> a & 1) != (m >> b & 1):
            m ^= (1 << a) | (1 << b)
        return m

    twins = [
        sum(1 << b for b in range(fam.n) if {swap(m, a, b) for m in present} == present)
        for a in range(fam.n)
    ]
    return tuple(sorted(set(twins), key=lambda c: c & -c))


@settings(max_examples=150, deadline=None)
@given(families(max_n=7, max_k=4, max_members=12))
def test_property_twin_classes_match_transposition_sweep(fam):
    assert twin_classes(fam) == brute_twin_classes(fam)


def test_twin_classes_known_families():
    assert twin_classes(gen_complete(7, 3)) == (kset(range(1, 8)),)
    assert twin_classes(gen_full_star(8, 3, 4)) == (kset((1, 2, 3, 5, 6, 7, 8)), kset((4,)))
    # HM(n, k) at x = 1, S = {2, .., k+1}: {x}, S and the rest
    for n, k in ((9, 3), (10, 4)):
        assert twin_classes(gen_hm(HMSpec.standard(n, k))) == (
            kset((1,)),
            kset(range(2, k + 2)),
            kset(range(k + 2, n + 1)),
        )
    three = gen_constrained(make_triple_blocks(12, 4), 4)
    assert twin_classes(three) == (kset(range(1, 5)), kset(range(5, 9)), kset(range(9, 13)))
    # the edges of the path 1-2-3-4: no transposition keeps them
    path = family(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert twin_classes(path) == tuple(kset((e,)) for e in range(1, 5))
    # elements in no member are all twins
    assert twin_classes(family(6, 2, [(1, 2)])) == (kset((1, 2)), kset((3, 4, 5, 6)))
    assert twin_classes(Family(5, 2, ())) == (kset(range(1, 6)),)


# --- .fam format -------------------------------------------------------------


def test_fam_roundtrip():
    text = format_fam(HM93)
    assert parse_fam(text) == HM93
    star = gen_full_star(4, 2, 4)
    assert parse_fam(format_fam(star)) == star
    assert format_fam(star).splitlines()[0] == "4 2"


def test_fam_comments_and_blank_lines():
    text = "# a comment\n5 2\n\n1 2\n# another\n1 3\n"
    fam = parse_fam(text)
    assert fam == family(5, 2, [(1, 2), (1, 3)])


@pytest.mark.parametrize(
    "bad",
    [
        "5 2\n1 2 3\n",  # wrong arity
        "5 2\n2 1\n",  # unsorted elements
        "5 2\n1 6\n",  # out of range
        "5 2\n1 3\n1 2\n",  # unsorted lines
        "5 2\n1 2\n1 2\n",  # duplicate line
        "5\n1 2\n",  # bad header
        "5 2\n1 x\n",  # non-integer
        "5 2\r\n1 2\n",  # CR line ending
        "",  # missing header
    ],
)
def test_fam_strict_rejections(bad):
    with pytest.raises(ValueError):
        parse_fam(bad)


# ground-set sizes at and around each 16-bit lane boundary, and member
# counts at and around each 16-row block boundary
COLUMN_NS = (2, 15, 16, 17, 31, 32, 33, 47, 48, 49, 62)
COLUMN_MS = (0, 1, 15, 16, 17, 255, 256, 257)


def loop_member_columns(n, members):
    """member_columns as a loop over each member's bits: the reference for
    the block transpose."""
    cols = [0] * n
    for i, v in enumerate(members):
        for e in range(n):
            if v >> e & 1:
                cols[e] |= 1 << i
    return cols


def random_masks(rnd, n, m):
    """m masks on [n], dense or sparse, one of them empty when m > 0."""
    sparse = rnd.random() < 0.5
    ms = [rnd.getrandbits(n) & (rnd.getrandbits(n) if sparse else -1) for _ in range(m)]
    if ms:
        ms[rnd.randrange(m)] = 0
    return ms


def test_member_columns_every_lane_and_block_boundary():
    rng = random.Random(2401)
    for n in COLUMN_NS:
        for m in COLUMN_MS:
            ms = random_masks(rng, n, m)
            if m > 1:
                ms[-1] |= 1 << (n - 1)  # the top element of [n] is used
            want = loop_member_columns(n, ms)
            assert member_columns(n, ms) == want
            assert member_columns(n, (v for v in ms)) == want


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(COLUMN_NS),
    st.sampled_from(COLUMN_MS),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_property_member_columns_match_bit_loop(n, m, rnd, as_generator):
    ms = random_masks(rnd, n, m)
    got = member_columns(n, (v for v in ms) if as_generator else tuple(ms))
    assert got == loop_member_columns(n, ms)
