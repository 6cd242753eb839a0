import random
from fractions import Fraction
from math import comb

import pytest

from conftest import nx_lex_least_max_clique, nx_max_clique_size
from setfam import _kernels, search
from setfam.bounds import binom
from setfam.enumeration import intersection_adjacency
from setfam.famcore import Family, all_ksets, family, is_intersecting, is_trivial, kset
from setfam.generators import (
    ConstraintSpec,
    HMSpec,
    consecutive_blocks,
    gen_complete,
    gen_constrained,
    gen_full_star,
    gen_hm,
)
from setfam.search import (
    check_ekr_property,
    make_triple_blocks,
    max_intersecting_subfamily,
    max_star_size,
    triple_transversal_search,
)


def blocks_spec(sizes, quotas, mode="exact"):
    blocks = []
    lo = 0
    for s in sizes:
        blocks.append(sum(1 << j for j in range(lo, lo + s)))
        lo += s
    return ConstraintSpec(lo, tuple(blocks), tuple(quotas), mode)


def test_ekr_on_complete_families():
    for n, k in ((5, 2), (6, 2), (7, 2), (8, 2), (7, 3), (8, 3)):
        host = gen_complete(n, k)
        size, witness = max_intersecting_subfamily(host)
        assert size == comb(n - 1, k - 1)
        assert is_intersecting(witness) and len(witness) == size


def test_max_clique_against_networkx():
    for host in (gen_complete(7, 3), gen_complete(6, 2)):
        adj = intersection_adjacency(host.members)
        size, _ = max_intersecting_subfamily(host)
        assert size == nx_max_clique_size(adj, len(host))


def test_witness_self_check(monkeypatch):
    # a kernel reporting one more than the optimum: no omega-clique exists
    real = _kernels.max_clique_size
    monkeypatch.setattr(_kernels, "max_clique_size", lambda *args: real(*args) + 1)
    with pytest.raises(AssertionError, match="witness reconstruction failed"):
        max_intersecting_subfamily(gen_complete(6, 2))
    monkeypatch.undo()

    # a graph in which member 3 does not see member 0: the star certificate
    # takes all four members, which are then no clique of the graph
    def one_sided(members, t=1, *, cols=None):
        adj = intersection_adjacency(members, t, cols=cols)
        adj[3] &= ~1
        return adj

    monkeypatch.setattr(search, "intersection_adjacency", one_sided)
    with pytest.raises(AssertionError, match="witness reconstruction failed"):
        max_intersecting_subfamily(gen_full_star(5, 2, 1))


def test_witness_is_lex_least():
    host = gen_complete(5, 2)
    size, witness = max_intersecting_subfamily(host)
    assert size == 4
    # all maximum intersecting pair families on [5] are stars; the star
    # at 1 is the lexicographically least witness
    assert witness.members == tuple(sorted(kset((1, x)) for x in range(2, 6)))


def test_complete_2k_witness_avoids_n():
    # at n = 2k the lex-least optimum of the complete host takes one set of
    # each complement pair, the one that avoids n
    for n, k in ((6, 3), (8, 4), (10, 5)):
        size, witness = max_intersecting_subfamily(gen_complete(n, k))
        assert size == comb(n - 1, k)
        assert witness.members == tuple(all_ksets(n - 1, k))


def oracle_hosts(count, seed):
    """Seeded hosts on [n], n <= 8, of at most 36 members, in four kinds
    taken in turn: random k-sets; relabelled unions of two
    block-constrained hosts; partial Hilton-Milner families with a few
    random k-sets added; and tight-block hosts (every member holds two of
    three fixed elements, so they all meet and beat every star) with a
    few random k-sets added."""
    rng = random.Random(seed)
    hosts = []
    while len(hosts) < count:
        n, k = rng.randint(5, 8), rng.randint(2, 3)
        pool = all_ksets(n, k)
        kind = len(hosts) % 4
        if kind == 0:
            members = rng.sample(pool, rng.randint(1, min(len(pool), 30)))
        elif kind == 1:
            members = []
            for _ in range(2):
                a = rng.randint(1, n - 1)
                b = rng.randint(1, n - a)
                quotas = (rng.randint(1, min(a, k)), rng.randint(1, min(b, k)))
                spec = ConstraintSpec(
                    n, consecutive_blocks((a, b)), quotas, rng.choice(("exact", "atleast"))
                )
                members += gen_constrained(spec, k).members
        elif kind == 2:
            hm = gen_hm(HMSpec.standard(n, k)).members
            members = rng.sample(hm, len(hm) - rng.randint(0, 2))
            members += rng.sample(pool, rng.randint(1, 4))
        else:
            tight = ConstraintSpec(n, (kset((1, 2, 3)),), (2,), "atleast")
            members = list(gen_constrained(tight, k).members)
            members += rng.sample(pool, rng.randint(0, 5))
        perm = list(range(n))
        if kind:
            rng.shuffle(perm)
        members = {sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in members}
        if 0 < len(members) <= 36:
            hosts.append(family(n, k, members))
    return hosts


def test_witness_matches_lex_least_oracle():
    hosts = oracle_hosts(160, seed=9)
    above_star = 0
    for host in hosts:
        want = nx_lex_least_max_clique(intersection_adjacency(host.members), len(host))
        size, witness = max_intersecting_subfamily(host)
        assert size == len(want)
        assert witness.members == tuple(host.members[i] for i in want)
        above_star += size > max_star_size(host)[0]
    # both starts are exercised: hosts whose best star is an optimum, and
    # hosts where every star falls short
    assert min(above_star, len(hosts) - above_star) >= 30


def test_intersecting_host_returns_itself():
    hm = gen_hm(HMSpec.standard(9, 3))
    size, witness = max_intersecting_subfamily(hm)
    assert size == len(hm)
    assert witness == hm


def test_full_star_inside_member_cap():
    # 1820 members: the best star is the optimum, so it certifies every step
    host = gen_full_star(17, 5, 1)
    assert max_intersecting_subfamily(host) == (1820, host)


def test_relabelled_three_block_host():
    # the three 4-blocks of [12] scattered by a fixed permutation: the
    # twin classes are still the blocks, so the omega proof branches once
    # per member orbit at its root
    perm = (7, 2, 11, 4, 0, 9, 5, 1, 10, 3, 8, 6)
    base = gen_constrained(make_triple_blocks(12, 4), 4)
    relabelled = (sum(1 << perm[i] for i in range(12) if m >> i & 1) for m in base.members)
    host = Family(12, 4, tuple(sorted(relabelled)))
    size, witness = max_intersecting_subfamily(host)
    assert size == 96
    assert len(witness) == 96 and is_intersecting(witness)
    assert set(witness.members) <= set(host.members)


def test_complete_10_4_omega():
    size, witness = max_intersecting_subfamily(gen_complete(10, 4))
    assert size == comb(9, 3) == 84
    assert len(witness) == 84 and is_intersecting(witness)


def test_complete_9_4_omega():
    # vertex-transitive, so no vertex order helps; the proof of omega
    # branches once per orbit of the stabiliser of the chosen members
    size, witness = max_intersecting_subfamily(gen_complete(9, 4))
    assert size == comb(8, 3) == 56
    assert witness == gen_full_star(9, 4, 1)


def test_member_cap():
    host = gen_complete(7, 3)
    with pytest.raises(ValueError):
        max_intersecting_subfamily(host, member_cap=10)


def test_empty_host():
    host = Family(6, 3, ())
    assert max_intersecting_subfamily(host) == (0, host)
    assert max_star_size(host) == (0, None)


def test_max_star_size():
    assert max_star_size(gen_complete(7, 3)) == (15, 1)
    host = gen_constrained(blocks_spec((4, 4), (1, 2)), 3)
    size, center = max_star_size(host)
    assert size == 12 and center == 5  # any element of the second block
    fam = gen_constrained(ConstraintSpec(9, (kset((1, 2, 3)),), (2,), "atleast"), 3)
    assert max_star_size(fam) == (13, 1)


def test_direct_product_instance():
    host = gen_constrained(blocks_spec((4, 4), (1, 2)), 3)
    assert len(host) == 24
    size, witness = max_intersecting_subfamily(host)
    assert size == 12
    assert is_intersecting(witness)
    assert set(witness.members) <= set(host.members)


def test_direct_product_ratio_bound():
    for sizes, quotas in (((4, 4), (1, 2)), ((4, 4), (2, 1)), ((2, 6), (1, 1)), ((5, 4), (2, 2))):
        assert all(s >= 2 * q for s, q in zip(sizes, quotas))
        host = gen_constrained(blocks_spec(sizes, quotas), sum(quotas))
        assert len(host) <= 2000
        size, _ = max_intersecting_subfamily(host)
        assert Fraction(size, len(host)) <= max(
            Fraction(q, s) for s, q in zip(sizes, quotas)
        )


def test_ekr_holds_on_complete():
    verdict = check_ekr_property(gen_complete(7, 3))
    assert verdict.holds and verdict.gap == 0
    assert verdict.max_intersecting == verdict.max_star == 15


def test_ekr_fails_on_tight_block():
    # a block with fewer than 2*quota elements makes the host itself
    # intersecting and larger than every star
    host = gen_constrained(ConstraintSpec(9, (kset((1, 2, 3)),), (2,), "atleast"), 3)
    verdict = check_ekr_property(host)
    assert not verdict.holds
    assert verdict.max_intersecting == 19 and verdict.max_star == 13
    assert verdict.gap == 6
    assert is_intersecting(verdict.witness)
    assert is_trivial(verdict.witness) is None
    assert len(verdict.witness) > verdict.max_star


def test_ekr_three_tiny_transversal_blocks():
    # three disjoint 2-sets in [8], one element from each: the outcome at
    # this small n is recorded; here the best star ties the maximum
    blocks = (kset((1, 2)), kset((3, 4)), kset((5, 6)))
    host = gen_constrained(ConstraintSpec(8, blocks, (1, 1, 1), "atleast"), 3)
    assert len(host) == 8
    verdict = check_ekr_property(host)
    assert verdict.max_intersecting == 4
    assert verdict.max_star == 4
    assert verdict.holds


def test_triple_transversal_search():
    for m in (12, 13):
        res = triple_transversal_search(make_triple_blocks(m, 4), 3)
        assert res.max_size == 16
        assert res.bound == 16
        assert res.ok and res.valid
        assert is_intersecting(res.witness)
    degenerate = triple_transversal_search(make_triple_blocks(9, 1), 3)
    assert degenerate.max_size <= 1
    assert degenerate.bound == 1
    assert degenerate.ok and not degenerate.valid


def test_triple_transversal_spec_validation():
    spec = make_triple_blocks(12, 4)
    with pytest.raises(ValueError):
        triple_transversal_search(
            ConstraintSpec(spec.n, spec.blocks, spec.quotas, "exact"), 3
        )
    with pytest.raises(ValueError):
        triple_transversal_search(
            ConstraintSpec(12, spec.blocks[:2], (1, 1), "atleast"), 3
        )
    uneven = (kset((1, 2)), kset((3, 4, 5)), kset((6, 7)))
    with pytest.raises(ValueError):
        triple_transversal_search(ConstraintSpec(12, uneven, (1, 1, 1), "atleast"), 3)


def test_triple_transversal_star_attains_bound():
    # a star centered inside one block, restricted to the transversals,
    # reaches ell^2 members, so the bound is tight at k = 3
    res = triple_transversal_search(make_triple_blocks(12, 4), 3)
    star = [m for m in gen_constrained(make_triple_blocks(12, 4), 3).members if m & 1]
    assert len(star) == 16 == res.max_size
    assert binom(12 - 3, 0) * 16 == res.bound


def test_max_intersecting_at_least_max_star():
    hosts = (
        gen_complete(7, 3),
        gen_complete(6, 2),
        gen_constrained(blocks_spec((4, 4), (1, 2)), 3),
        gen_constrained(ConstraintSpec(9, (kset((1, 2, 3)),), (2,), "atleast"), 3),
        gen_hm(HMSpec.standard(9, 3)),
    )
    for host in hosts:
        size, _ = max_intersecting_subfamily(host)
        assert size >= max_star_size(host)[0]
