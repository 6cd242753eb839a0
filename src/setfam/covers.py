"""Covers, cover number, kernels (the families of minimal covers), links,
and matching number."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .famcore import Family, KSet, elements, is_intersecting


def is_cover(fam: Family, s: KSet) -> bool:
    """True iff s meets every member (vacuously true for the empty family)."""
    return all(m & s for m in fam.members)


def cover_number(fam: Family) -> int:
    """Exact minimum cover size, by branch and bound over the elements of
    an uncovered member."""
    ms = fam.members
    if not ms:
        raise ValueError("cover number of an empty family is undefined")
    best = fam.n

    def bb(cov: int, size: int):
        nonlocal best
        if size >= best:
            return
        for m in ms:
            if not m & cov:
                mm = m
                while mm:
                    b = mm & -mm
                    mm ^= b
                    bb(cov | b, size + 1)
                return
        best = size

    bb(0, 0)
    return best


@dataclass(frozen=True)
class Kernel:
    """Minimal covers grouped by size: layers[i] holds the size-i covers
    for 1 <= i <= size_cap, each layer sorted by mask."""

    size_cap: int
    layers: dict[int, tuple[KSet, ...]]

    def all_covers(self) -> tuple[KSet, ...]:
        out = []
        for i in sorted(self.layers):
            out.extend(self.layers[i])
        return tuple(out)


def kernel(fam: Family, size_cap: int | None = None) -> Kernel:
    """All minimal covers of size <= size_cap (default k; pass n for the
    full kernel; anything outside [1, n] is refused).

    Depth-first search that branches on the elements of the first member
    the partial cover misses.  Each sibling branch bans the elements tried
    before it, so every cover is reached once.  Minimality is decided in
    the same pass over the members: a cover is minimal iff each of its
    elements is the only element of the cover that some member meets."""
    cap = fam.k if size_cap is None else size_cap
    if not 1 <= cap <= fam.n:
        raise ValueError(f"kernel size cap must be in [1, {fam.n}], got {cap}")
    if not fam.members:
        raise ValueError("kernel of an empty family is undefined")
    if not is_intersecting(fam):
        raise ValueError("kernel requires an intersecting family")
    ms = fam.members
    layers: dict[int, list[int]] = {i: [] for i in range(1, cap + 1)}

    def dfs(cov: int, size: int, banned: int):
        private = 0  # elements of cov that some member meets alone
        for m in ms:
            hit = m & cov
            if not hit:
                if size < cap:
                    free = m & ~banned
                    while free:
                        b = free & -free
                        free ^= b
                        dfs(cov | b, size + 1, banned)
                        banned |= b
                return
            if not hit & (hit - 1):
                private |= hit
        if private == cov:
            layers[size].append(cov)

    dfs(0, 0, 0)
    return Kernel(cap, {i: tuple(sorted(v)) for i, v in layers.items()})


def kernel_layer_sizes(fam: Family) -> tuple[int, ...]:
    """(|K_1|, .., |K_k|) for the size-capped kernel."""
    kern = kernel(fam)
    return tuple(len(kern.layers[i]) for i in range(1, fam.k + 1))


def restriction_link(fam: Family, y: KSet) -> Family:
    """The link {F - y : F in fam, F contains y}; uniformity drops to
    k - |y|, the ground set stays [n].  Empty when no member contains y."""
    if y == 0:
        return fam
    yc = y.bit_count()
    if yc >= fam.k:
        raise ValueError("link requires |y| < k (uniformity must stay positive)")
    sub = sorted(m & ~y for m in fam.members if m & y == y)
    return Family(fam.n, fam.k - yc, tuple(sub))


def find_high_tau_link(fam: Family, k: int) -> KSet | None:
    """Some y with cover_number(link at y) >= k + 1, or None.

    Searches y over subsets of members, smallest size first and then by
    mask.  For an i-uniform family with more than k**i members such a y
    always exists.
    """
    i = fam.k
    for size in range(0, i):
        cands: set[int] = set()
        for m in fam.members:
            for c in combinations(elements(m), size):
                cands.add(sum(1 << (e - 1) for e in c))
        for y in sorted(cands):
            link = restriction_link(fam, y)
            if link.members and cover_number(link) >= k + 1:
                return y
    return None


def matching_number(fam: Family) -> int:
    """Exact maximum number of pairwise disjoint members.

    Branches on the lowest element still present among the candidates:
    either some member through it joins the matching or the element is
    discarded entirely.

    A branch is pruned when either of two bounds on the candidates'
    matching number shows it cannot beat the best found.  The members of
    a matching are disjoint k-sets, so they cover k elements each of the
    candidates' union.  Their least elements are distinct, so there are
    no more of them than distinct least elements c & -c among the
    candidates.  On a family whose members all meet {1..s} the second
    bound is s at the root, and the search stops at the first s-matching.
    The second bound is collected only when the first does not prune, so
    branches the union bound settles cost no extra pass.
    """
    best = 0
    k = fam.k

    def rec(cands: list[int], count: int):
        nonlocal best
        if count > best:
            best = count
        if not cands:
            return
        union = 0
        for c in cands:
            union |= c
        if count + union.bit_count() // k <= best:
            return
        lows = 0
        for c in cands:
            lows |= c & -c
        if count + lows.bit_count() <= best:
            return
        ebit = union & -union
        with_e = [c for c in cands if c & ebit]
        without = [c for c in cands if not c & ebit]
        for m in with_e:
            rec([c for c in cands if not c & m], count + 1)
        if without:
            rec(without, count)

    rec(list(fam.members), 0)
    return best
