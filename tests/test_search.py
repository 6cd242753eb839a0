import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from conftest import nx_lex_least_max_clique, nx_max_clique_size, relabel, relabel_mask
from test_kernels import random_block_host
from setfam import _kernels, search
from setfam.bounds import binom
from setfam.enumeration import intersection_adjacency
from setfam.famcore import (
    Family,
    all_ksets,
    family,
    is_intersecting,
    is_trivial,
    kset,
    member_columns,
)
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
    # both hosts are above the HM bound; the kernel's proof, which that
    # bound skips, is checked too
    for host in (gen_complete(7, 3), gen_complete(6, 2)):
        adj = intersection_adjacency(host.members)
        size, _ = max_intersecting_subfamily(host)
        assert size == orbital_omega(host) == nx_max_clique_size(adj, len(host))


def test_witness_self_check(monkeypatch):
    # a kernel reporting one more than the optimum: no omega-clique exists.
    # All 3-sets of [5] meet, so no bound settles omega and the kernel runs
    real = _kernels.max_clique_size
    monkeypatch.setattr(_kernels, "max_clique_size", lambda *args: real(*args) + 1)
    with pytest.raises(AssertionError, match="witness reconstruction failed"):
        max_intersecting_subfamily(gen_complete(5, 3))
    monkeypatch.undo()

    # a graph in which member 3 does not see member 0: at n = 2k the star
    # reaches the EKR bound, the witness loop runs, and the star certificate
    # takes all ten members, which are then no clique of the graph
    def one_sided(members, t=1, *, cols=None):
        adj = intersection_adjacency(members, t, cols=cols)
        adj[3] &= ~1
        return adj

    monkeypatch.setattr(search, "intersection_adjacency", one_sided)
    with pytest.raises(AssertionError, match="witness reconstruction failed"):
        max_intersecting_subfamily(gen_full_star(6, 3, 1))
    monkeypatch.undo()

    # a column of element 1 that swaps its last member for one without 1:
    # the star above the HM bound is cut to that column, which is no star
    def swapped(n, members):
        cols = member_columns(n, members)
        outside = next(i for i, m in enumerate(members) if not m & 1)
        cols[0] ^= 1 << cols[0].bit_length() - 1 | 1 << outside
        return cols

    monkeypatch.setattr(search, "member_columns", swapped)
    with pytest.raises(AssertionError, match="witness reconstruction failed"):
        max_intersecting_subfamily(gen_complete(6, 2))


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
        members = {relabel_mask(m, perm) for m in members}
        if 0 < len(members) <= 36:
            hosts.append(family(n, k, members))
    return hosts


def star_regime(host):
    """Where the best star stands against the bound on non-trivial
    intersecting families: the Hilton-Milner bound for n > 2k, the EKR
    bound at n = 2k."""
    n, k = host.n, host.k
    star = max_star_size(host)[0]
    if n > 2 * k:
        hm = comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1
        return "above" if star > hm else "at-hm" if star == hm else "below"
    if n == 2 * k and star == comb(n - 1, k - 1):
        return "at-ekr"
    return "below"


def test_witness_matches_lex_least_oracle():
    hosts = oracle_hosts(160, seed=9)
    above_star = 0
    regimes = Counter()
    for host in hosts:
        want = nx_lex_least_max_clique(intersection_adjacency(host.members), len(host))
        size, witness = max_intersecting_subfamily(host)
        assert size == len(want)
        assert witness.members == tuple(host.members[i] for i in want)
        above_star += size > max_star_size(host)[0]
        regimes[star_regime(host)] += 1
    # both starts are exercised: hosts whose best star is an optimum, and
    # hosts where every star falls short
    assert min(above_star, len(hosts) - above_star) >= 30
    # and every way the best star settles omega, or does not
    assert set(regimes) == {"above", "at-hm", "at-ekr", "below"}


def test_star_at_hm_bound_with_a_non_trivial_optimum():
    # HM(7,3) (x = 1, S = {2,3,4}) plus {1,5,6}: the star at 1 has
    # hm(7,3) = 13 members, and so does HM(7,3) itself, which holds S
    hm = gen_hm(HMSpec.standard(7, 3))
    host = family(7, 3, hm.members + (kset((1, 5, 6)),))
    assert star_regime(host) == "at-hm" and max_star_size(host) == (13, 1)
    want = nx_lex_least_max_clique(intersection_adjacency(host.members), len(host))
    size, witness = max_intersecting_subfamily(host)
    assert size == len(want) == 13
    assert witness.members == tuple(host.members[i] for i in want)
    assert witness == hm and is_trivial(witness) is None


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
    host = relabel(base, perm)
    size, witness = max_intersecting_subfamily(host)
    assert size == 96
    assert len(witness) == 96 and is_intersecting(witness)
    assert set(witness.members) <= set(host.members)


def orbital_omega(host):
    """The kernel's omega proof on the whole host, seeded with the best
    star and given the host's symmetry, with no bound cutting it short."""
    cols = member_columns(host.n, host.members)
    adj = intersection_adjacency(host.members, cols=cols)
    nv = len(host)
    star = max_star_size(host)[0]
    return _kernels.max_clique_size(adj, nv, (1 << nv) - 1, star, (host.members, cols))


def test_complete_10_4_omega():
    host = gen_complete(10, 4)
    size, witness = max_intersecting_subfamily(host)
    assert size == comb(9, 3) == 84
    assert len(witness) == 84 and is_intersecting(witness)
    assert orbital_omega(host) == 84


def test_complete_9_4_omega():
    # vertex-transitive, so no vertex order helps; the kernel's proof of
    # omega branches once per orbit of the stabiliser of the chosen members
    host = gen_complete(9, 4)
    size, witness = max_intersecting_subfamily(host)
    assert size == comb(8, 3) == 56
    assert witness == gen_full_star(9, 4, 1)
    assert orbital_omega(host) == 56


def lex_least_full_column(host, degree):
    """The least sorted index tuple among the member columns of the given
    degree."""
    cols = (
        tuple(i for i, m in enumerate(host.members) if m >> e & 1) for e in range(host.n)
    )
    return min(c for c in cols if len(c) == degree)


def timed_search(host):
    t0 = time.perf_counter()
    result = max_intersecting_subfamily(host)
    return result, time.perf_counter() - t0


def test_cut_witness_is_the_lex_least_column():
    # stars at 1 and at 2 of four pairs each, above hm(7,2) = 3; the least
    # member {2,3} holds 2, so the star at 2 is lex-least, not the one at 1
    host = family(
        7, 2, [(2, 3), (2, 4), (2, 5), (2, 6), (1, 4), (1, 5), (1, 6), (1, 7)]
    )
    assert star_regime(host) == "above" and max_star_size(host) == (4, 1)
    want = nx_lex_least_max_clique(intersection_adjacency(host.members), len(host))
    size, witness = max_intersecting_subfamily(host)
    assert size == 4
    assert witness.members == tuple(host.members[i] for i in want)
    assert witness == family(7, 2, [(2, 3), (2, 4), (2, 5), (2, 6)])


def test_bound_settles_omega_without_the_proof(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    # above the bound nothing is built or searched
    with monkeypatch.context() as m:
        m.setattr(search, "intersection_adjacency", refuse)
        m.setattr(_kernels, "_twin_classes", refuse)
        m.setattr(_kernels, "max_clique_size", refuse)
        assert max_intersecting_subfamily(gen_complete(9, 4)) == (56, gen_full_star(9, 4, 1))

    # at the bound the witness may still search, but omega is not proved:
    # no call gets the host's symmetry
    real = _kernels.max_clique_size
    calls = []

    def recording(*args):
        calls.append(len(args))
        return real(*args)

    monkeypatch.setattr(_kernels, "max_clique_size", recording)
    hm = gen_hm(HMSpec.standard(7, 3))
    at_hm = family(7, 3, hm.members + (kset((1, 5, 6)),))
    for host, size in ((at_hm, 13), (gen_complete(8, 4), 35), (gen_full_star(6, 3, 1), 10)):
        assert star_regime(host) in ("at-hm", "at-ekr")
        assert max_intersecting_subfamily(host)[0] == size
    assert 5 not in calls


def test_block_host_stalls_end_at_the_hm_bound():
    # draws 238 and 396 (counted from 1) of this generator are (9,4) hosts
    # whose omega proofs once ran for 33 s and past 100 s: few small twin
    # classes.  A star of C(8,3) = 56 members meets the EKR bound, so
    # omega = 56, and 56 > hm(9,4) = 53, so every optimum is a full column
    rng = random.Random(3)
    draws = []
    for _ in range(396):
        n = rng.randint(3, 9)
        draws.append(random_block_host(rng, n, rng.randint(1, min(4, n))))
    for host, members in ((draws[237], 123), (draws[395], 101)):
        assert (host.n, host.k, len(host)) == (9, 4, members)
        assert max_star_size(host)[0] == comb(8, 3) == 56
        (size, witness), elapsed = timed_search(host)
        assert size == 56
        best = lex_least_full_column(host, 56)
        assert witness.members == tuple(host.members[i] for i in best)
        assert elapsed < 1.0, f"{elapsed:.2f}s"


@pytest.mark.parametrize("seed, star", [(1, 103), (3, 102)])
def test_twin_less_stalls_end_above_the_hm_bound(seed, star):
    # no twin classes, so the kernel has no symmetry to branch on; its
    # omega proof took 10-30 s.  The best star beats hm(11,4) = 101, so
    # every non-trivial clique is smaller and omega is the star
    host = family(11, 4, random.Random(seed).sample(all_ksets(11, 4), 260))
    assert max_star_size(host)[0] == star > comb(10, 3) - comb(6, 3) + 1 == 101
    (size, witness), elapsed = timed_search(host)
    assert size == star
    best = lex_least_full_column(host, star)
    assert witness.members == tuple(host.members[i] for i in best)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


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
