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
    full kernel; anything outside [1, n] is refused).  Depth-first search
    over hitting sets of the first uncovered member, followed by a
    minimality filter."""
    cap = fam.k if size_cap is None else size_cap
    if not 1 <= cap <= fam.n:
        raise ValueError(f"kernel size cap must be in [1, {fam.n}], got {cap}")
    if not fam.members:
        raise ValueError("kernel of an empty family is undefined")
    if not is_intersecting(fam):
        raise ValueError("kernel requires an intersecting family")
    ms = fam.members
    found: set[int] = set()

    def dfs(cov: int, size: int):
        for m in ms:
            if not m & cov:
                if size == cap:
                    return
                mm = m
                while mm:
                    b = mm & -mm
                    mm ^= b
                    dfs(cov | b, size + 1)
                return
        found.add(cov)

    dfs(0, 0)

    def minimal(c: int) -> bool:
        cc = c
        while cc:
            b = cc & -cc
            cc ^= b
            if is_cover(fam, c ^ b):
                return False
        return True

    layers: dict[int, list[int]] = {i: [] for i in range(1, cap + 1)}
    for c in sorted(found):
        if minimal(c):
            layers[c.bit_count()].append(c)
    return Kernel(cap, {i: tuple(v) for i, v in layers.items()})


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
        ebit = union & -union
        with_e = [c for c in cands if c & ebit]
        without = [c for c in cands if not c & ebit]
        for m in with_e:
            rec([c for c in cands if not c & m], count + 1)
        if without:
            rec(without, count)

    rec(list(fam.members), 0)
    return best
