"""Exhaustive enumeration of maximal intersecting families and their
reduction to isomorphism classes.

Maximal intersecting k-uniform families on [n] are exactly the maximal
cliques of the intersection graph on all C(n, k) k-sets, so enumeration
is maximal-clique enumeration over that graph.  Isomorphism uses the
minimum relabeling over all permutations of [n] (exact for n <= 10).
The one relabeling invariant is ``_kernels.relabel_profile``: its key
buckets families here.  Above n = 10 there is no exact canonical form,
and ``iso_classes`` refuses such families.
Reducing to classes canonicalizes once per class.  Most families are
placed by one dict lookup on their degree-order encode (the members
relabeled with the elements sorted by degree): equal encodes come from
relabelings of each other, so a family whose encode was seen joins that
family's class.  Only a family with a new encode is placed by an
explicit relabeling onto a class's canonical encode (see ``iso_classes``).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import and_
from typing import Iterable, Iterator

from . import _kernels
from .covers import cover_number
from .famcore import MAX_GROUND, Family, all_ksets, degree_profile, is_trivial, member_columns

EXACT_CANONICAL_MAX_N = 10


class UnsupportedRegimeError(ValueError):
    """Raised for parameter regimes the enumerator refuses (n <= 2k)."""


def intersection_adjacency(members, t: int = 1, *, cols=None) -> list[int]:
    """Bitmask adjacency of the t-intersection graph on the given masks:
    two members are adjacent when they share at least t elements.

    Built from the member columns (:func:`famcore.member_columns`, on the
    ground set the largest mask spans unless the caller passes cols): the
    members sharing t elements with member i are the OR, over the t-subsets
    of its elements, of the AND of their columns; for t = 1, the OR of its
    elements' columns.  Member i itself is then dropped.  That is m * C(k, t)
    big-int operations instead of m(m-1)/2 pair tests.  For t <= 0 every
    two distinct members are adjacent."""
    ms = list(members)
    nv = len(ms)
    if t <= 0:
        return [((1 << nv) - 1) ^ (1 << i) for i in range(nv)]
    if cols is None:
        cols = member_columns(max(ms, default=0).bit_length(), ms)
    adj = []
    for i, v in enumerate(ms):
        own = []  # the columns of member i's elements
        while v:
            b = v & -v
            v ^= b
            own.append(cols[b.bit_length() - 1])
        nb = 0
        if t == 1:
            for c in own:
                nb |= c
        else:
            for sub in combinations(own, t):
                nb |= reduce(and_, sub)
        adj.append(nb & ~(1 << i))
    return adj


def enumerate_maximal_intersecting(n: int, k: int) -> Iterator[Family]:
    """Yield every maximal intersecting k-uniform family on [n] once, in
    discovery order.  Requires n > 2k: at n = 2k every family avoiding
    both sets of a complement pair extends ambiguously and the count
    explodes, so that regime is rejected, as are n outside [2, MAX_GROUND]
    and k outside [1, n], before any k-set is built."""
    if not 2 <= n <= MAX_GROUND or not 1 <= k <= n:
        raise ValueError(f"need 2 <= n <= {MAX_GROUND} and 1 <= k <= n, got n={n}, k={k}")
    if n <= 2 * k:
        raise UnsupportedRegimeError(
            f"enumeration needs n > 2k, got n={n}, k={k}"
        )
    vertices = all_ksets(n, k)
    adj = intersection_adjacency(vertices)
    for clique in _kernels.maximal_cliques(adj, len(vertices)):
        mem = []
        c = clique
        while c:
            b = c & -c
            c ^= b
            mem.append(vertices[b.bit_length() - 1])
        yield Family(n, k, tuple(mem))


def canonical_members(fam: Family) -> tuple[int, ...]:
    """Exact canonical encoding (minimum relabeled member tuple)."""
    return _kernels.canonical_min(fam.n, fam.members)


_LANE = 16  # bits per member in the degree-order encode


@cache
def _lane_ones(m: int) -> int:
    """A 1 at the low bit of each of m 16-bit lanes.  Cached per member
    count; callers keep n <= 10, so at most C(10, 5) = 252 entries."""
    return ((1 << (_LANE * m)) - 1) // ((1 << _LANE) - 1)


def _degree_order_encode(n: int, members) -> tuple[int, ...]:
    """The sorted member tuple after relabeling the elements of [n] in
    order of (degree, index): the element of rank r gets label r + 1.
    It is a relabeling of the family, so two families with equal encodes
    are isomorphic; isomorphic families may still have different encodes
    when degrees tie.

    Bit-sliced: the members are packed into one int x, one member per
    16-bit lane (through ``array('H')`` in native byte order, so lane
    order may be reversed, which the final sort undoes).  With REP
    holding a 1 at the low bit of every lane, (x >> e) & REP holds bit e
    of every member, so its popcount is the degree of element e + 1, and
    shifting it left by the rank of e moves that bit to its new label in
    every lane at once.  The OR of the shifted slices is the relabeled
    family, unpacked and sorted.  Lanes are 16 bits, so n > 16 is
    refused."""
    if n > _LANE:
        raise ValueError(f"degree-order encode needs n <= {_LANE}, got n={n}")
    m = len(members)
    x = int.from_bytes(array("H", members), sys.byteorder)
    rep = _lane_ones(m)
    slices = [(x >> e) & rep for e in range(n)]
    degs = [s.bit_count() for s in slices]
    y = 0
    for r, e in enumerate(sorted(range(n), key=degs.__getitem__)):
        y |= slices[e] << r
    return tuple(sorted(array("H", y.to_bytes(2 * m, sys.byteorder))))


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class: canonical representative, how many labeled
    copies were seen, and its headline statistics."""

    canonical: Family
    labeled_count: int
    size: int
    delta: int
    Delta: int
    tau: int
    trivial: bool


def iso_classes(families: Iterable[Family]) -> list[IsoClass]:
    """Group families by canonical form.

    Classes are reported by size descending, then by canonical encoding,
    then by n and k.  Each family first gets its degree-order encode
    (``_degree_order_encode``).  If p and q relabel families F and G onto
    the same encode, q^-1 p carries F onto G, so a family whose (n, k,
    encode) was seen before joins the class recorded for it, with no
    profile and no search.  At (7,3) and (8,3) that places all but 75
    families.  A family with a new encode takes the path below, and its
    encode is then recorded with the class it joined.

    Its relabel_profile is built once, and its key, with the family's n
    and k, picks the family's bucket.  A bucket keeps, for each class
    found in it so far, the class key (n, k and the canonical encode) and
    that encode's profile (built once per class).
    A family that some permutation carries onto one of those encodes
    joins that class; only a family that relabels onto none of them is
    canonicalized, and it opens a new class in its bucket.  So
    canonicalization runs once per class, every class is still keyed by
    its exact minimum encode on its own n and k, and no assumption is
    made about which labeled copies the input holds.
    """
    counts: dict[tuple, int] = {}
    buckets: dict[tuple, list[tuple]] = {}
    seen: dict[tuple, tuple] = {}  # (n, k, degree-order encode) -> class key
    for fam in families:
        if fam.n > EXACT_CANONICAL_MAX_N:
            raise ValueError(
                f"iso_classes needs exact canonical mode (n <= {EXACT_CANONICAL_MAX_N})"
            )
        quick = (fam.n, fam.k, _degree_order_encode(fam.n, fam.members))
        key = seen.get(quick)
        if key is not None:
            counts[key] += 1
            continue
        prof = _kernels.relabel_profile(fam.n, fam.members)
        known = buckets.setdefault((fam.n, fam.k, prof[3]), [])
        for key, target in known:
            if _kernels.find_relabeling(fam.n, prof, target) is not None:
                break
        else:
            # the bucket key is a relabeling invariant, so this class can
            # live only in this bucket: its key is new
            enc = canonical_members(fam)
            key = (fam.n, fam.k, enc)
            known.append((key, _kernels.relabel_profile(fam.n, enc)))
            counts[key] = 0
        seen[quick] = key
        counts[key] += 1
    out = []
    for key, count in counts.items():
        rep = Family(*key)
        prof = degree_profile(rep)
        out.append(
            IsoClass(
                canonical=rep,
                labeled_count=count,
                size=len(rep),
                delta=prof.delta,
                Delta=prof.Delta,
                tau=cover_number(rep) if rep.members else 0,
                trivial=is_trivial(rep) is not None,
            )
        )
    out.sort(key=lambda c: (-c.size, c.canonical.members, c.canonical.n, c.canonical.k))
    return out
