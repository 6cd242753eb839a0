"""Shared brute-force oracles.

Everything here recomputes expected values from first principles
(powerset scans, permutation sweeps, third-party clique enumeration) so
tests never check the library against itself.
"""

from __future__ import annotations

from itertools import combinations, permutations

import networkx as nx


def masks_of(n, k):
    return [sum(1 << i for i in c) for c in combinations(range(n), k)]


def brute_minimal_covers(members, n, max_size=None):
    """All minimal covers of the given member masks, by powerset scan."""
    cap = n if max_size is None else max_size
    covers = []
    for size in range(0, cap + 1):
        for c in combinations(range(n), size):
            s = sum(1 << i for i in c)
            if all(m & s for m in members):
                covers.append(s)
    minimal = []
    for c in covers:
        if not any(other != c and other & c == other for other in covers):
            minimal.append(c)
    return sorted(minimal)


def nx_max_clique_size(adjacency_masks, nv):
    g = nx.Graph()
    g.add_nodes_from(range(nv))
    for i in range(nv):
        m = adjacency_masks[i] >> (i + 1) << (i + 1)
        while m:
            b = m & -m
            m ^= b
            g.add_edge(i, b.bit_length() - 1)
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def nx_lex_least_max_clique(adjacency_masks, nv):
    """The least sorted vertex tuple among networkx's maximum cliques."""
    cliques = [tuple(sorted(c)) for c in nx_maximal_cliques(adjacency_masks, nv)]
    top = max(map(len, cliques), default=0)
    return min((c for c in cliques if len(c) == top), default=())


def nx_maximal_cliques(adjacency_masks, nv):
    g = nx.Graph()
    g.add_nodes_from(range(nv))
    for i in range(nv):
        for j in range(i + 1, nv):
            if adjacency_masks[i] >> j & 1:
                g.add_edge(i, j)
    return {frozenset(c) for c in nx.find_cliques(g)}


def brute_canonical(n, members):
    """Minimum relabeled encode over every permutation of [n] (small n only)."""
    best = None
    for perm in permutations(range(n)):
        enc = tuple(
            sorted(
                sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in members
            )
        )
        if best is None or enc < best:
            best = enc
    return best


def naive_maximal_intersecting(n, k):
    """Every maximal intersecting family by scanning all subfamilies
    (feasible only while 2^C(n,k) stays tiny)."""
    pool = masks_of(n, k)
    out = []
    for bits in range(1, 1 << len(pool)):
        fam = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        if any(a & b == 0 for i, a in enumerate(fam) for b in fam[i + 1 :]):
            continue
        if any(g not in fam and all(g & f for f in fam) for g in pool):
            continue
        out.append(tuple(fam))
    return set(out)
