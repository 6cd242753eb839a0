"""Kernel contract tests: the search kernels against independent oracles."""

import random
import time
from itertools import combinations, product

import pytest

from conftest import brute_canonical, nx_max_clique_size, nx_maximal_cliques, relabel_mask
from setfam import _kernels
from setfam.enumeration import intersection_adjacency
from setfam.famcore import Family, all_ksets, family, member_columns, twin_classes
from setfam.generators import ConstraintSpec, gen_constrained


def random_graph(rng, nv, p):
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_maximal_cliques_against_networkx():
    rng = random.Random(5)
    for _ in range(60):
        nv = rng.randint(0, 30)
        adj = random_graph(rng, nv, rng.choice([0.2, 0.5, 0.8]))
        got = {
            frozenset(i for i in range(nv) if m >> i & 1)
            for m in _kernels.maximal_cliques(adj, nv)
        }
        assert got == nx_maximal_cliques(adj, nv)


def test_max_clique_size_against_networkx():
    # dense graphs make whole candidate sets cliques, at the root and at
    # inner nodes; a proper non-empty cand is compared on the induced
    # subgraph (vertices outside cand isolated, which cannot raise a
    # non-empty maximum)
    rng = random.Random(6)
    for _ in range(120):
        nv = rng.randint(2, 28)
        adj = random_graph(rng, nv, rng.choice([0.3, 0.6, 0.9, 0.95, 1.0]))
        full = (1 << nv) - 1
        assert _kernels.max_clique_size(adj, nv, full, 0) == nx_max_clique_size(adj, nv)
        cand = rng.randrange(1, full)
        induced = [adj[i] & cand if cand >> i & 1 else 0 for i in range(nv)]
        assert _kernels.max_clique_size(adj, nv, cand, 0) == nx_max_clique_size(induced, nv)


def test_max_clique_size_deep_search():
    # the complete graph on 1100 vertices minus one edge: the search
    # descends about a thousand levels, past the default recursion limit
    nv = 1100
    full = (1 << nv) - 1
    adj = [full ^ (1 << i) for i in range(nv)]
    adj[0] ^= 1 << 1
    adj[1] ^= 1 << 0
    assert _kernels.max_clique_size(adj, nv, full, 0) == nv - 1


def test_max_clique_size_lb_contract():
    # returns max(lb, clique size); empty candidate set gives max(lb, 0)
    adj = [0b110, 0b101, 0b011]  # triangle
    assert _kernels.max_clique_size(adj, 3, 0b111, 0) == 3
    assert _kernels.max_clique_size(adj, 3, 0b111, 3) == 3
    assert _kernels.max_clique_size(adj, 3, 0, 2) == 2
    assert _kernels.max_clique_size(adj, 3, 0, 0) == 0
    assert _kernels.max_clique_size(adj, 3, 0b011, 0) == 2


def random_block_host(rng, n, k):
    """The union of one to three gen_constrained hosts on [n], each with
    random disjoint blocks, quotas and mode, under one random relabelling."""
    members = set()
    for _ in range(rng.randint(1, 3)):
        elems = list(range(n))
        rng.shuffle(elems)
        blocks, quotas = [], []
        lo = 0
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, max(1, (n - lo) // 2))
            if lo + size > n:
                break
            blocks.append(sum(1 << e for e in elems[lo : lo + size]))
            quotas.append(rng.randint(0, min(size, k)))
            lo += size
        spec = ConstraintSpec(n, tuple(blocks), tuple(quotas), rng.choice(("exact", "atleast")))
        members.update(gen_constrained(spec, k).members)
    perm = list(range(n))
    rng.shuffle(perm)
    return Family(n, k, tuple(sorted(relabel_mask(m, perm) for m in members)))


def orbit_input(host):
    """The kernel's symmetry input for a host: (members, cols)."""
    return host.members, member_columns(host.n, host.members)


def count_orbits(members, atoms, cand):
    """Count-vector oracle: the vertex masks of cand grouped by how many
    elements each member has in each atom, as a set of the masks with two
    or more vertices."""
    groups = {}
    for i, m in enumerate(members):
        if cand >> i & 1:
            key = tuple((m & a).bit_count() for a in atoms)
            groups[key] = groups.get(key, 0) | 1 << i
    return {g for g in groups.values() if g & (g - 1)}


def check_orbit_path(host):
    """The orbit path's omega equals the plain kernel's and networkx's;
    returns whether some root orbit has two or more members."""
    nv = len(host)
    adj = intersection_adjacency(host.members)
    full = (1 << nv) - 1
    sym = orbit_input(host)
    want = nx_max_clique_size(adj, nv)
    assert _kernels.max_clique_size(adj, nv, full, 0, sym) == want
    assert _kernels.max_clique_size(adj, nv, full, 0) == want
    return bool(count_orbits(host.members, twin_classes(host), full))


def test_max_clique_size_orbit_path_on_block_hosts():
    # relabelled unions of block-constrained hosts: their twin classes
    # are scattered over [n], and most have orbits of two or more members
    rng = random.Random(11)
    hosts = symmetric = 0
    while hosts < 150:
        host = random_block_host(rng, rng.randint(3, 8), rng.randint(1, 3))
        if len(host) < 2:
            continue
        hosts += 1
        symmetric += check_orbit_path(host)
    assert symmetric >= 100


# Hosts on which a wrong orbit map loses the optimum.  On both, the
# lowest-index member {1,2} lies in no maximum clique, so merging every
# member into one orbit branches on it alone.  On the second, {1,2} also
# has the triangle members' degree in the intersection graph, and their
# count vector over the classes of [n] by element degree, so orbits by
# either degree merge it with the triangle.
ORBIT_FIXTURES = (
    # {1,2} apart from the triangle on {3,4,5}: omega 3
    (family(5, 2, [(1, 2), (3, 4), (3, 5), (4, 5)]), 3),
    # the path 7-1-2-3 beside the triangle on {4,5,6}: omega 3
    (family(7, 2, [(1, 2), (2, 3), (1, 7), (4, 5), (4, 6), (5, 6)]), 3),
)


def test_max_clique_size_orbit_path_fixtures():
    for host, omega in ORBIT_FIXTURES:
        assert check_orbit_path(host)
        nv = len(host)
        adj = intersection_adjacency(host.members)
        assert _kernels.max_clique_size(adj, nv, (1 << nv) - 1, 0, orbit_input(host)) == omega


def test_max_clique_size_orbit_root_only():
    # two disjoint triangles {12,13,23} and {45,46,56}: the twin classes
    # {1,2,3} and {4,5,6} make each triangle one root orbit, so the root
    # branches on vertices 0 and 3 alone; below {1,2} the swap (1 2) still
    # joins {1,3} and {2,3} into one orbit, and that frame finds a triangle
    host = family(6, 2, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    members, cols = sym = orbit_input(host)
    adj = intersection_adjacency(members)
    assert twin_classes(host) == (0b000111, 0b111000)
    root = _kernels._root_orbits(0b111111, sym)
    assert sorted(root[1]) == [0b000111, 0b111000]
    assert _kernels._child_orbits(root, sym, 0, 0b000110)[1] == [0b000110]
    assert _kernels.max_clique_size(adj, 6, 0b111111, 0, sym) == 3
    assert _kernels.max_clique_size(adj, 6, 0b111111, 3, sym) == 3
    assert _kernels.max_clique_size(adj, 6, 0, 2, sym) == 2


def test_max_clique_size_orbits_in_an_inner_frame():
    # the k-sets of {2..n} meeting {2,3}, plus {1,2,3}: element 1 is a
    # twin class of its own, so {1,2,3} is fixed at the root, while its
    # neighbours fall into orbits of two or more members, and the frame
    # below it branches on those
    hosts = [
        Family(n, 3, tuple(m for m in all_ksets(n, 3) if m == 0b111 or not m & 1 and m & 0b110))
        for n in (7, 8)
    ]
    for host in hosts:
        nv = len(host)
        members, cols = sym = orbit_input(host)
        classes = twin_classes(host)
        assert classes[0] == 0b1
        adj = intersection_adjacency(members, cols=cols)
        full = (1 << nv) - 1
        root = _kernels._root_orbits(full, sym)
        assert root is not None and set(root[1]) == count_orbits(members, classes, full)
        inner = 0
        for u in range(nv):
            if any(o >> u & 1 for o in root[1]):
                continue  # u is not fixed at the root
            below = full & adj[u]
            child = _kernels._child_orbits(root, sym, u, below)
            atoms = [x for a in classes for x in (a & members[u], a & ~members[u]) if x]
            assert (set(child[1]) if child else set()) == count_orbits(members, atoms, below)
            inner += child is not None
        assert inner >= 1
        assert _kernels.max_clique_size(adj, nv, full, 0, sym) == nx_max_clique_size(adj, nv)


def test_column_split_against_count_vectors():
    # the bit-sliced split of a vertex set by the counts over a list of
    # atoms, and the child refinement by a chosen member's atom halves,
    # against grouping the members by their count vectors
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(2, 9)
        host = random_block_host(rng, n, rng.randint(1, min(4, n)))
        nv = len(host)
        if nv < 2:
            continue
        members = host.members
        cols = member_columns(host.n, members)
        cand = rng.randrange(1, 1 << nv)
        # a random partition of [n] into atoms
        labels = [rng.randrange(3) for _ in range(host.n)]
        atoms = [sum(1 << e for e in range(host.n) if labels[e] == j) for j in range(3)]
        atoms = [a for a in atoms if a]
        orbits = [cand] if cand & (cand - 1) else []
        for a in atoms:
            orbits = _kernels._split(orbits, _kernels._count_planes(cols, a))
        assert len(orbits) == len(set(orbits))
        assert set(orbits) == count_orbits(members, atoms, cand)
        # refine by a random member's halves, from the parent's orbits
        u = rng.randrange(nv)
        child_cand = cand & rng.randrange(1 << nv)
        sym = ([a for a in atoms if a & (a - 1)], orbits)
        child = _kernels._child_orbits(sym, (members, cols), u, child_cand)
        halves = [x for a in atoms for x in (a & members[u], a & ~members[u]) if x]
        assert (set(child[1]) if child else set()) == count_orbits(members, halves, child_cand)


def test_canonical_min_against_permutation_sweep():
    # known holds canonical encodes of other random families on the same
    # n, and now and then the input's own class: a search that stops at a
    # known leaf must still return the least relabeling
    rng = random.Random(7)
    stopped = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        pool = [sum(1 << i for i in c) for c in combinations(range(n), k)]

        def draw():
            return tuple(sorted(rng.sample(pool, rng.randint(1, min(5, len(pool))))))

        members = draw()
        want = brute_canonical(n, members)
        assert _kernels.canonical_min(n, members) == want
        known = {brute_canonical(n, draw()) for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.5:
            known.add(want)
        stopped += want in known
        perm = list(range(n))
        rng.shuffle(perm)
        moved = tuple(relabel_mask(m, perm) for m in members)
        assert _kernels.canonical_min(n, moved, known=known) == want
    assert stopped >= 30  # the early stop is exercised
    assert _kernels.canonical_min(6, ()) == ()
    assert _kernels.canonical_min(6, (), known={()}) == ()
    # another size, or the empty member, never matches a known class
    for members, other in (((0b011,), (0b011, 0b101)), ((0, 0b011), (0b110, 0b011))):
        known = {_kernels.canonical_min(3, other)}
        assert _kernels.canonical_min(3, members, known=known) == brute_canonical(3, members)


def test_canonical_min_known_where_invariants_cannot_decide():
    # the canonical encodes of the two (7,3) classes that share every
    # element's degree and sorted co-degree row (orbits of 840 and 140
    # labeled copies): knowing one must not draw the other into it
    a = (7, 11, 13, 19, 22, 28, 37, 38, 42, 49)
    b = (7, 11, 13, 22, 26, 28, 38, 42, 44, 49)
    ca, cb = _kernels.canonical_min(7, a), _kernels.canonical_min(7, b)
    assert ca != cb
    moved = tuple(relabel_mask(m, [3, 0, 6, 4, 2, 5, 1]) for m in a)
    assert _kernels.canonical_min(7, moved, known={cb}) == ca
    assert _kernels.canonical_min(7, moved, known={ca, cb}) == ca


def affine_plane_3():
    """The 12 lines of AG(2,3) on [9], point (x, y) as element 3x + y."""
    lines = {
        frozenset(((x + i * dx) % 3, (y + i * dy) % 3) for i in range(3))
        for x in range(3)
        for y in range(3)
        for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2))
    }
    return [sum(1 << (3 * x + y) for x, y in line) for line in lines]


def test_canonical_min_known_stops_early():
    # AG(2,3) has no twins and every degree ties: a full search takes
    # about 100 times as long as one that stops at the known canonical
    # leaf, so a search that ran on after it shows here
    fam = affine_plane_3()
    assert twin_classes(family(9, 3, fam)) == tuple(1 << e for e in range(9))
    canon = _kernels.canonical_min(9, fam)
    moved = tuple(relabel_mask(m, [4, 8, 0, 6, 2, 7, 1, 5, 3]) for m in fam)

    def fastest(reps, **kw):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            assert _kernels.canonical_min(9, moved, **kw) == canon
            times.append(time.perf_counter() - t0)
        return min(times)

    assert fastest(5, known={canon}) * 10 < fastest(3)


def block_product(blocks):
    """The sets meeting each of the disjoint blocks in one element."""
    return [sum(1 << e for e in c) for c in product(*blocks)]


def test_canonical_min_on_twin_blocks(monkeypatch):
    # families whose twin classes are the blocks of a product, and their
    # complements among all k-sets, each under three relabellings: against
    # the brute force on [6] and [7], and on [9] against the search that
    # branches on every element (twin classes turned off)
    rng = random.Random(24)
    cases = []
    for blocks in (
        ((0, 1), (2, 3), (4, 5)),
        ((0, 1), (2, 3), (4, 5, 6)),
        ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    ):
        n, k = max(blocks[-1]) + 1, len(blocks)
        prod = block_product(blocks)
        comp = sorted(set(all_ksets(n, k)) - set(prod))
        assert twin_classes(family(n, k, prod)) == tuple(sum(1 << e for e in b) for b in blocks)
        for fam in (prod, comp):
            copies = []
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                copies.append(_kernels.canonical_min(n, [relabel_mask(m, perm) for m in fam]))
            cases.append((n, fam, copies))
    for n, fam, copies in cases:
        if n < 9:
            assert copies == [brute_canonical(n, fam)] * 3
    monkeypatch.setattr(
        _kernels, "_twin_classes", lambda n, ms, cols=None: tuple(1 << e for e in range(n))
    )
    for n, fam, copies in cases:
        assert copies == [_kernels.canonical_min(n, fam)] * 3


def test_backend_interface():
    assert _kernels.BACKEND == "pure"
    assert _kernels.available_backends() == ["pure"]
    assert _kernels.load_backend("pure") is _kernels
    with pytest.raises(ValueError):
        _kernels.load_backend("compiled")
