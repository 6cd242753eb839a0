"""Kernel contract tests: the search kernels against independent oracles."""

import random
from itertools import combinations, permutations

import pytest

from conftest import brute_canonical, nx_max_clique_size, nx_maximal_cliques
from setfam import _kernels
from setfam._kernels import pure


def random_graph(rng, nv, p):
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def relabel_masks(members, perm):
    """The member set under the element map i -> perm[i]."""
    return {sum(1 << perm[i] for i in range(len(perm)) if m >> i & 1) for m in members}


def test_maximal_cliques_against_networkx():
    rng = random.Random(5)
    for _ in range(60):
        nv = rng.randint(0, 30)
        adj = random_graph(rng, nv, rng.choice([0.2, 0.5, 0.8]))
        got = {
            frozenset(i for i in range(nv) if m >> i & 1)
            for m in pure.maximal_cliques(adj, nv)
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
        assert pure.max_clique_size(adj, nv, full, 0) == nx_max_clique_size(adj, nv)
        cand = rng.randrange(1, full)
        induced = [adj[i] & cand if cand >> i & 1 else 0 for i in range(nv)]
        assert pure.max_clique_size(adj, nv, cand, 0) == nx_max_clique_size(induced, nv)


def test_max_clique_size_deep_search():
    # the complete graph on 1100 vertices minus one edge: the search
    # descends about a thousand levels, past the default recursion limit
    nv = 1100
    full = (1 << nv) - 1
    adj = [full ^ (1 << i) for i in range(nv)]
    adj[0] ^= 1 << 1
    adj[1] ^= 1 << 0
    assert pure.max_clique_size(adj, nv, full, 0) == nv - 1


def test_max_clique_size_lb_contract():
    # returns max(lb, clique size); empty candidate set gives max(lb, 0)
    adj = [0b110, 0b101, 0b011]  # triangle
    assert pure.max_clique_size(adj, 3, 0b111, 0) == 3
    assert pure.max_clique_size(adj, 3, 0b111, 3) == 3
    assert pure.max_clique_size(adj, 3, 0, 2) == 2
    assert pure.max_clique_size(adj, 3, 0, 0) == 0
    assert pure.max_clique_size(adj, 3, 0b011, 0) == 2


def test_canonical_min_against_permutation_sweep():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        pool = [sum(1 << i for i in c) for c in combinations(range(n), k)]
        members = tuple(sorted(rng.sample(pool, rng.randint(1, min(5, len(pool))))))
        assert pure.canonical_min(n, members) == brute_canonical(n, members)
    assert pure.canonical_min(6, ()) == ()


def test_find_relabeling_against_permutation_sweep():
    # half the targets are relabelings of the source, half are random
    # families of the same size; a permutation must come back exactly
    # when the sweep finds one, and it must carry source onto target
    rng = random.Random(8)
    found = 0
    cases = 400
    for _ in range(cases):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        pool = [sum(1 << i for i in c) for c in combinations(range(n), k)]
        source = tuple(rng.sample(pool, rng.randint(1, min(8, len(pool)))))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            target = tuple(relabel_masks(source, perm))
        else:
            target = tuple(rng.sample(pool, len(source)))
        exists = any(
            relabel_masks(source, p) == set(target) for p in permutations(range(n))
        )
        got = pure.find_relabeling(n, source, target)
        assert (got is not None) == exists
        if got is not None:
            found += 1
            assert sorted(got) == list(range(n))
            assert relabel_masks(source, got) == set(target)
    assert min(found, cases - found) >= 30  # both outcomes are exercised
    # unequal sizes, and the empty member, never relabel away
    assert pure.find_relabeling(3, (0b011,), (0b011, 0b101)) is None
    assert pure.find_relabeling(3, (0, 0b011), (0b110, 0b011)) is None
    assert pure.find_relabeling(3, (0, 0b011), (0, 0b110)) is not None


def test_backend_interface():
    assert _kernels.BACKEND == "pure"
    assert _kernels.available_backends() == ["pure"]
    backend = _kernels.load_backend("pure")
    for name in ("maximal_cliques", "max_clique_size", "canonical_min", "find_relabeling"):
        assert getattr(backend, name) is getattr(_kernels, name)
    with pytest.raises(ValueError):
        _kernels.load_backend("compiled")
