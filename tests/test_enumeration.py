import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import brute_canonical, naive_maximal_intersecting, relabel
from setfam import _kernels, enumeration
from setfam.enumeration import (
    UnsupportedRegimeError,
    enumerate_maximal_intersecting,
    intersection_adjacency,
    iso_classes,
)
from setfam.famcore import (
    Family,
    all_ksets,
    degree_profile,
    is_intersecting,
    is_trivial,
    kset,
    maximal_closure,
    member_columns,
)
from setfam.generators import HMSpec, gen_full_star, gen_hm


def test_intersection_adjacency_threshold():
    def check(ms, t):
        adj = intersection_adjacency(ms, t)
        assert len(adj) == len(ms)
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                shared = i != j and bin(a & b).count("1") >= t
                assert bool(adj[i] >> j & 1) == shared

    ms = all_ksets(6, 3)
    for t in (1, 2, 3):
        check(ms, t)
    assert intersection_adjacency(ms) == intersection_adjacency(ms, 1)
    # t <= 0: every two distinct members are adjacent, disjoint or empty
    for t in (0, -2):
        check(ms, t)
        check([0, 0, 0b11, 0b100], t)
    # t above every member's size: no edges
    assert intersection_adjacency(ms, 4) == [0] * len(ms)
    assert intersection_adjacency([], 1) == []
    assert intersection_adjacency([0]) == [0]
    # seeded non-uniform masks, duplicates and the empty mask included
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(1, 12)
        ms = [rng.randrange(1 << n) for _ in range(rng.randint(0, 25))]
        k = max((m.bit_count() for m in ms), default=0)
        for t in range(1, k + 2):
            check(ms, t)


def test_intersection_adjacency_t1_against_pairwise_and():
    # the per-slice tables of t = 1 on ground sets below, at and across
    # their 6-element slice boundaries, with and without given columns
    def pairwise(ms):
        return [
            sum(1 << j for j, b in enumerate(ms) if j != i and a & b) for i, a in enumerate(ms)
        ]

    rng = random.Random(2402)
    for n in (5, 6, 7, 12, 13, 62):
        for m in (1, 2, 9, 64, 70):
            ms = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
            ms[0] |= 1 << (n - 1)
            want = pairwise(ms)
            assert intersection_adjacency(ms) == want
            assert intersection_adjacency(ms, 1, cols=member_columns(n, ms)) == want
        ks = all_ksets(n, 2) if n < 62 else [kset((1, 62)), kset((30, 31)), kset((31, 62))]
        assert intersection_adjacency(ks, cols=member_columns(n, ks)) == pairwise(ks)
    assert intersection_adjacency([]) == []
    assert intersection_adjacency([], cols=member_columns(13, [])) == []
    for v in (0, 1, kset((5, 62))):
        assert intersection_adjacency([v]) == [0]
        assert intersection_adjacency([v], cols=member_columns(62, [v])) == [0]


@pytest.mark.parametrize(
    "n, k, through, nv",
    [
        (5, 2, 0, 10),
        (9, 2, 0, 36),
        (7, 2, 0, 21),
        (7, 3, 0, 35),
        (7, 3, 0b111, 31),
        (8, 3, 0b111, 46),
    ],
)
def test_maximal_families_decode_against_bit_loop(n, k, through, nv):
    # the per-slice clique decode on vertex counts below, at and across a
    # multiple of its 6-vertex slices
    vertices = [v for v in all_ksets(n, k) if not through or v & through]
    assert len(vertices) == nv
    want = []
    for clique in _kernels.maximal_cliques(intersection_adjacency(vertices), len(vertices)):
        mem = []
        while clique:
            b = clique & -clique
            clique ^= b
            mem.append(vertices[b.bit_length() - 1])
        want.append(tuple(mem))
    assert list(enumeration._maximal_members(vertices)) == want


def test_5_2_against_powerset_oracle():
    got = {f.members for f in enumerate_maximal_intersecting(5, 2)}
    want = naive_maximal_intersecting(5, 2)
    want = {tuple(sorted(f)) for f in want}
    assert got == want
    assert len(got) == 15


def test_5_2_classes():
    classes = iso_classes(enumerate_maximal_intersecting(5, 2))
    assert [(c.size, c.labeled_count, c.trivial) for c in classes] == [
        (4, 5, True),
        (3, 10, False),
    ]


def test_regime_rejection():
    with pytest.raises(UnsupportedRegimeError):
        list(enumerate_maximal_intersecting(6, 3))
    with pytest.raises(UnsupportedRegimeError):
        list(enumerate_maximal_intersecting(4, 2))


def test_7_3_stream_contents():
    fams = list(enumerate_maximal_intersecting(7, 3))
    seen = {f.members for f in fams}
    assert len(seen) == len(fams)  # no duplicates
    assert gen_full_star(7, 3, 1).members in seen
    assert gen_hm(HMSpec.standard(7, 3)).members in seen
    # spot-check maximality and intersection on a sample
    rng = random.Random(11)
    for f in rng.sample(fams, 40):
        assert is_intersecting(f)
        assert maximal_closure(f) == f


def test_enumeration_streams_families():
    # the first family comes as soon as the clique search finds it: at
    # (9,3) a list of all 72,531 clique masks alone would take about 3 MB
    tracemalloc.start()
    try:
        first = next(enumerate_maximal_intersecting(9, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert is_intersecting(first) and maximal_closure(first) == first
    assert peak < 1_000_000


def test_7_3_fifteen_classes_and_bounds():
    classes = iso_classes(enumerate_maximal_intersecting(7, 3))
    assert len(classes) == 15
    star = [c for c in classes if c.size == 15]
    assert len(star) == 1 and star[0].trivial and star[0].delta == 5
    nontrivial = [c for c in classes if not c.trivial]
    assert len(nontrivial) == 14
    assert all(c.size <= 13 for c in nontrivial)
    assert all(c.delta <= 3 for c in nontrivial)
    assert [c for c in classes if c.delta == 5] == star


def test_8_3_fifteen_classes():
    classes = iso_classes(enumerate_maximal_intersecting(8, 3))
    assert len(classes) == 15
    assert max(c.size for c in classes) == 21  # the full star on [8]


@pytest.mark.parametrize(
    "n, k, total",
    [(3, 1, 3), (5, 2, 15), (6, 2, 26), (7, 2, 42), (8, 2, 64), (7, 3, 6127), (8, 3, 23936)],
)
def test_landscape_classes_against_the_labelled_path(n, k, total):
    # counted through [k] with weights C(n, k)/|F|: the same classes, in
    # the same order, with the same int labeled counts, as every family
    want = iso_classes(enumerate_maximal_intersecting(n, k))
    got = enumeration.landscape_classes(n, k)
    assert got == want
    assert all(type(c.labeled_count) is int for c in got)
    assert sum(c.labeled_count for c in got) == total


def test_landscape_counts_enumerates_only_the_families_through_k():
    # (7,3): 1860 of the 6127 families contain {1, 2, 3}, in 45 encodes
    s0 = kset((1, 2, 3))
    through = [f for f in enumerate_maximal_intersecting(7, 3) if s0 in f.members]
    assert len(through) == 1860
    counts = enumeration.landscape_counts(7, 3)
    assert counts == {
        key: Fraction(count * 35, len(key[2]))
        for key, count in enumeration.encode_counts(through).items()
    }
    assert len(counts) == 45 and sum(counts.values()) == 6127


@pytest.mark.parametrize("n, k, total", [(5, 2, 15), (6, 2, 26), (7, 3, 6127), (8, 3, 23936)])
def test_enumerated_families_equal_validated_ones(n, k, total):
    # the enumeration builds its families without re-validating them; each
    # must be the Family the validating constructor builds, and frozen
    count = 0
    for f in enumerate_maximal_intersecting(n, k):
        g = Family(f.n, f.k, f.members)
        assert type(f) is Family
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        with pytest.raises(FrozenInstanceError):
            f.members = ()
        count += 1
    assert count == total


def test_landscape_counts_builds_no_family(monkeypatch):
    want = {nk: enumeration.landscape_counts(*nk) for nk in ((7, 3), (8, 3))}

    def refused(*args, **kwargs):
        raise AssertionError("a Family was built for landscape_counts")

    monkeypatch.setattr(enumeration, "Family", refused)
    for nk, counts in want.items():
        assert enumeration.landscape_counts(*nk) == counts


@pytest.mark.parametrize(
    "n, k, error, match",
    [
        (6, 3, UnsupportedRegimeError, "n > 2k"),
        (4, 2, UnsupportedRegimeError, "n > 2k"),
        (11, 3, ValueError, "exact canonical mode"),
        (1, 1, ValueError, "2 <= n"),
        (7, 0, ValueError, "1 <= k"),
    ],
)
def test_landscape_refuses_before_any_kset(monkeypatch, n, k, error, match):
    def never(n, k):
        raise AssertionError("k-sets built for a refused landscape")

    monkeypatch.setattr(enumeration, "all_ksets", never)
    for build in (enumeration.landscape_counts, enumeration.landscape_classes):
        with pytest.raises(error, match=match):
            build(n, k)


def test_class_totals_must_be_whole():
    enc = gen_full_star(7, 3, 1).members
    with pytest.raises(ValueError, match="whole"):
        enumeration._classes({(7, 3, enc): Fraction(7, 2)})
    (star,) = enumeration._classes({(7, 3, enc): Fraction(14, 2)})
    assert star.labeled_count == 7 and type(star.labeled_count) is int


def test_canonical_members_symmetries():
    star = _kernels.canonical_min(7, gen_full_star(7, 3, 1).members)
    assert star == _kernels.canonical_min(7, gen_full_star(7, 3, 5).members)
    hm1 = gen_hm(HMSpec(7, 3, 1, kset((2, 3, 4))))
    hm2 = gen_hm(HMSpec(7, 3, 7, kset((1, 2, 3))))
    canon = _kernels.canonical_min(7, hm1.members)
    assert canon == _kernels.canonical_min(7, hm2.members)
    assert canon != star
    # the encode is itself a family in the class
    assert _kernels.canonical_min(7, Family(7, 3, canon).members) == canon


def test_canonical_members_brute_force():
    rng = random.Random(3)
    from setfam.famcore import all_ksets

    for _ in range(120):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        pool = all_ksets(n, k)
        members = tuple(sorted(rng.sample(pool, rng.randint(1, min(5, len(pool))))))
        fam = Family(n, k, members)
        assert _kernels.canonical_min(fam.n, fam.members) == brute_canonical(n, members)


def test_iso_classes_merges_relabelings():
    hm = gen_hm(HMSpec.standard(7, 3))
    perm = [3, 0, 6, 4, 2, 5, 1]
    classes = iso_classes([hm, relabel(hm, perm)])
    assert len(classes) == 1
    assert classes[0].labeled_count == 2


def test_iso_classes_on_partial_shared_bucket():
    # one profile key of (7,3) holds two classes (orbits of 840 and 140):
    # the profile is each element's degree and sorted co-degree row; a
    # shuffled part of that bucket is not a union of whole orbits, and
    # must still group exactly as canonicalizing every family does
    def key(fam):
        cols = member_columns(fam.n, fam.members)
        return tuple(
            sorted((c.bit_count(), tuple(sorted((c & d).bit_count() for d in cols))) for c in cols)
        )

    fams = list(enumerate_maximal_intersecting(7, 3))
    by_key = Counter(key(c.canonical) for c in iso_classes(fams))
    shared = [k for k, classes in by_key.items() if classes > 1]
    assert len(shared) == 1
    rng = random.Random(12)
    sample = rng.sample([f for f in fams if key(f) == shared[0]], 150)
    want = Counter(_kernels.canonical_min(f.n, f.members) for f in sample)
    assert len(want) == 2
    got = iso_classes(sample)
    assert {c.canonical.members: c.labeled_count for c in got} == want


def test_iso_classes_orbit_stabiliser_7_3():
    # each class of the whole (7,3) landscape is one orbit of S_7, so its
    # labeled count is 7!/|Aut|, with Aut counted by a permutation sweep
    classes = iso_classes(enumerate_maximal_intersecting(7, 3))
    perms = list(permutations(range(7)))
    for c in classes:
        rep = set(c.canonical.members)
        aut = sum(
            all(sum(1 << p[i] for i in range(7) if m >> i & 1) in rep for m in rep)
            for p in perms
        )
        assert c.labeled_count * aut == len(perms)
    assert sum(c.labeled_count for c in classes) == 6127


def test_iso_classes_invariant_under_global_relabeling():
    fams = list(enumerate_maximal_intersecting(5, 2))
    base = iso_classes(fams)
    perm = [2, 4, 0, 1, 3]
    shuffled = [relabel(f, perm) for f in fams]
    again = iso_classes(shuffled)
    assert [(c.size, c.labeled_count, c.delta, c.tau) for c in base] == [
        (c.size, c.labeled_count, c.delta, c.tau) for c in again
    ]
    assert [c.canonical for c in base] == [c.canonical for c in again]


def test_iso_classes_needs_exact_mode():
    with pytest.raises(ValueError):
        iso_classes([gen_full_star(12, 3, 1)])


def test_iso_classes_refuses_before_encoding(monkeypatch):
    def never(n, members):
        raise AssertionError("encode built for a refused family")

    monkeypatch.setattr(enumeration, "_degree_order_encode", never)
    with pytest.raises(ValueError, match="exact canonical mode"):
        iso_classes([gen_full_star(12, 3, 1)])


def loop_degree_order_encode(n, members):
    """The degree-order encode as a loop over members and their elements:
    the reference for the bit-sliced ``_degree_order_encode``."""
    cols = member_columns(n, members)
    order = sorted(range(n), key=lambda e: cols[e].bit_count())
    img = [0] * n
    for r, e in enumerate(order):
        img[e] = 1 << r
    out = []
    for v in members:
        w = 0
        while v:
            b = v & -v
            v ^= b
            w |= img[b.bit_length() - 1]
        out.append(w)
    out.sort()
    return tuple(out)


def test_degree_order_encode_against_loop():
    rng = random.Random(1402)
    cases = []
    for n in range(2, 11):
        cases.append((n, ()))
        for k in range(1, n + 1):
            pool = all_ksets(n, k)
            for _ in range(6):
                cases.append((n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))))
    # more than 200 members, and the full 16-bit lane
    for n, k in ((10, 4), (10, 5), (10, 6), (12, 6), (16, 3), (16, 15)):
        pool = all_ksets(n, k)
        cases.append((n, tuple(sorted(rng.sample(pool, min(len(pool), 201 + rng.randrange(60)))))))
    assert sum(len(ms) > 200 for _, ms in cases) >= 5
    for n, ms in cases:
        assert enumeration._degree_order_encode(n, ms) == loop_degree_order_encode(n, ms)


def test_degree_order_encode_refuses_wide_ground_sets():
    with pytest.raises(ValueError, match="n <= 16"):
        enumeration._degree_order_encode(17, gen_full_star(17, 2, 1).members)


def test_encode_counts_against_per_family_counter():
    fams73 = list(enumerate_maximal_intersecting(7, 3))
    random.Random(1501).shuffle(fams73)
    mixed = fams73[:400] + list(enumerate_maximal_intersecting(8, 3))[:400]
    mixed += list(enumerate_maximal_intersecting(6, 2)) + fams73[400:800]
    random.Random(1502).shuffle(mixed)
    for fams in (fams73, mixed):
        want = Counter(
            (f.n, f.k, enumeration._degree_order_encode(f.n, f.members)) for f in fams
        )
        got = enumeration.encode_counts(fams)
        assert got == want and list(got) == list(want)  # first-seen order
        assert sum(got.values()) == len(fams)
        assert enumeration.encode_counts(f for f in fams) == got
    assert len(enumeration.encode_counts(fams73)) == 75
    assert {n for n, _, _ in enumeration.encode_counts(mixed)} == {6, 7, 8}


def per_family_classes(fams):
    """Counter of (n, k, canonical encode) with canonical_min run on
    every labeled family (once per distinct family: it is deterministic)."""
    canon = {f: _kernels.canonical_min(f.n, f.members) for f in set(fams)}
    return Counter((f.n, f.k, canon[f]) for f in fams)


def class_counts(classes):
    return Counter(
        {(c.canonical.n, c.canonical.k, c.canonical.members): c.labeled_count for c in classes}
    )


def triples(n, ts):
    return Family(n, 3, tuple(sorted(kset(t) for t in ts)))


# a 2-regular (9,3) family, and another of the same degrees in another class
REG_9_3 = triples(9, ((1, 2, 3), (1, 5, 8), (2, 4, 7), (3, 6, 9), (4, 6, 7), (5, 8, 9)))
REG_9_3_OTHER = triples(9, ((1, 2, 3), (1, 2, 9), (3, 6, 8), (4, 5, 9), (4, 6, 7), (5, 7, 8)))


def seeded_relabelings(fam, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        perm = list(range(fam.n))
        rng.shuffle(perm)
        out.append(relabel(fam, perm))
    return out


def test_iso_classes_exact_where_degrees_tie():
    # every element has the same degree, so the degree-order encode of each
    # labeled copy is the copy itself: only repeats of a copy are placed
    # by the encode, and every new copy takes the relabeling path
    fano = triples(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)))
    fams = [relabel(fano, p) for p in permutations(range(7))]
    assert len(fams) == 5040 and len(set(fams)) == 30
    want = per_family_classes(fams)
    assert want == {(7, 3, _kernels.canonical_min(7, fano.members)): 5040}
    assert class_counts(iso_classes(fams)) == want

    # the 2-regular (9,3) family: 3000 seeded relabelings, most of them new
    assert set(degree_profile(REG_9_3).degrees) == {2}
    fams = seeded_relabelings(REG_9_3, 3000, 13)
    assert len(set(fams)) > 2500
    want = per_family_classes(fams)
    assert len(want) == 1
    assert class_counts(iso_classes(fams)) == want


def test_iso_classes_keeps_equal_degree_classes_apart():
    # two classes whose elements all have degree 2: an encode that kept
    # only degrees would merge them
    assert set(degree_profile(REG_9_3_OTHER).degrees) == {2}
    fams = seeded_relabelings(REG_9_3, 300, 14) + seeded_relabelings(REG_9_3_OTHER, 300, 15)
    random.Random(16).shuffle(fams)
    want = per_family_classes(fams)
    assert len(want) == 2
    assert class_counts(iso_classes(fams)) == want


def test_iso_classes_effort_7_3(monkeypatch):
    # the 6127 families are counted by degree-order encode first, and
    # canonical_min runs once per encode (75): 15 full searches, one per
    # class, and 60 that stop at a class canonical already known
    calls = Counter()
    real = _kernels.canonical_min

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls["canonical_min"] += 1
        calls["new class"] += out not in kwargs["known"]
        return out

    monkeypatch.setattr(_kernels, "canonical_min", counted)
    classes = iso_classes(enumerate_maximal_intersecting(7, 3))
    assert len(classes) == 15 and sum(c.labeled_count for c in classes) == 6127
    assert calls == {"canonical_min": 75, "new class": 15}


def test_class_report_order():
    classes = iso_classes(enumerate_maximal_intersecting(7, 3))
    sizes = [c.size for c in classes]
    assert sizes == sorted(sizes, reverse=True)
    for a, b in zip(classes, classes[1:]):
        if a.size == b.size:
            assert a.canonical.members < b.canonical.members


def test_class_stats_consistency():
    for c in iso_classes(enumerate_maximal_intersecting(5, 2)):
        assert c.size == len(c.canonical)
        assert (is_trivial(c.canonical) is not None) == c.trivial


def test_iso_classes_keeps_other_n_and_k_apart():
    # the same member masks on [8], or the empty family at another k, are
    # other classes: every input family is counted once, in a class of
    # its own n and k
    star = gen_full_star(7, 3, 1)
    cases = (
        ([star, star, Family(8, 3, star.members)], [(7, 3, 2), (8, 3, 1)]),
        ([Family(7, 2, ()), Family(7, 3, ())], [(7, 2, 1), (7, 3, 1)]),
    )
    for fams, want in cases:
        classes = iso_classes(fams)
        got = sorted((c.canonical.n, c.canonical.k, c.labeled_count) for c in classes)
        assert got == want
