"""Exhaustive enumeration of maximal intersecting families and their
reduction to isomorphism classes.

Maximal intersecting k-uniform families on [n] are exactly the maximal
cliques of the intersection graph on all C(n, k) k-sets, so enumeration
is maximal-clique enumeration over that graph.  Isomorphism uses the
minimum relabeling over all permutations of [n] (exact for n <= 10).
Above n = 10 there is no exact canonical form, and ``iso_classes``
refuses such families.  Reducing to classes runs one canonical search
per degree-order encode (``encode_counts``), not one per family, and a
search stops at the first relabeling that is a class canonical already
found (``_kernels.canonical_min``'s ``known``).

A whole landscape can also be counted through one member
(``landscape_counts``, ``landscape_classes``): only the maximal families
containing [k] are decoded, each weighted by C(n, k)/|F|, which gives
every relabelling-invariant count of the whole landscape exactly, because
S_n is transitive on k-sets.  At (7,3) that is 1860 of the 6127 families.

Both paths share one clique decode, ``_maximal_members``, which yields
plain ascending member tuples.  ``landscape_counts`` encodes those tuples
directly and builds no ``Family``; ``enumerate_maximal_intersecting``
wraps each in a ``Family`` without re-validating it, since its n and k
are checked up front and its members come ascending out of ``all_ksets``.
A ``Family`` a caller passes in (``encode_counts``, ``iso_classes``) was
validated when the caller built it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import comb
from operator import and_
from typing import Iterable, Iterator, Mapping

from . import _kernels
from .covers import cover_number
from .famcore import (
    MAX_GROUND,
    Family,
    _unchecked_family,
    all_ksets,
    degree_profile,
    is_trivial,
    member_columns,
)

EXACT_CANONICAL_MAX_N = 10

_SLICE = 6  # bits per lookup table: intersection_adjacency, clique decode
_SLICE_MASK = (1 << _SLICE) - 1


class UnsupportedRegimeError(ValueError):
    """Raised for parameter regimes the enumerator refuses (n <= 2k)."""


def intersection_adjacency(members, t: int = 1, *, cols=None) -> list[int]:
    """Bitmask adjacency of the t-intersection graph on the given masks:
    two members are adjacent when they share at least t elements.

    Built from the member columns (:func:`famcore.member_columns`, on the
    ground set the largest mask spans unless the caller passes cols): the
    members sharing t elements with member i are the OR, over the t-subsets
    of its elements, of the AND of their columns; for t = 1, the OR of its
    elements' columns.  Member i itself is then dropped.  For t <= 0 every
    two distinct members are adjacent.

    For t = 1 the ground set is cut into slices of 6 elements, and each
    slice gets a 64-entry table: entry b is the OR of the columns of the
    slice's elements in b, built as tab[b] = tab[b ^ low] | column of
    low, where low is the lowest bit of b.  A member's neighbourhood is
    then one lookup per slice, and each slice is one pass over the
    members.  For t >= 2 each member ORs the ANDs of its elements'
    columns, m * C(k, t) big-int operations."""
    ms = list(members)
    nv = len(ms)
    if t <= 0:
        return [((1 << nv) - 1) ^ (1 << i) for i in range(nv)]
    if cols is None:
        cols = member_columns(max(ms, default=0).bit_length(), ms)
    if t == 1:
        nb = [0] * nv
        for s in range(0, len(cols), _SLICE):
            tab = [0]
            for b in range(1, 1 << min(_SLICE, len(cols) - s)):
                low = b & -b
                tab.append(tab[b ^ low] | cols[s + low.bit_length() - 1])
            nb = [a | tab[v >> s & _SLICE_MASK] for a, v in zip(nb, ms)]
        return [a & ~(1 << i) for i, a in enumerate(nb)]
    adj = []
    for i, v in enumerate(ms):
        own = []  # the columns of member i's elements
        while v:
            b = v & -v
            v ^= b
            own.append(cols[b.bit_length() - 1])
        nb = 0
        for sub in combinations(own, t):
            nb |= reduce(and_, sub)
        adj.append(nb & ~(1 << i))
    return adj


def _check_regime(n: int, k: int) -> None:
    if not 2 <= n <= MAX_GROUND or not 1 <= k <= n:
        raise ValueError(f"need 2 <= n <= {MAX_GROUND} and 1 <= k <= n, got n={n}, k={k}")
    if n <= 2 * k:
        raise UnsupportedRegimeError(
            f"enumeration needs n > 2k, got n={n}, k={k}"
        )


def _maximal_members(vertices: list[int]) -> Iterator[tuple[int, ...]]:
    """The member tuple of each maximal clique of the intersection graph
    on the given k-sets (in ascending order), as the clique search finds
    it; each tuple is ascending.

    A clique mask is decoded through the same 6-vertex slices as the
    t = 1 tables of ``intersection_adjacency``: slice s gets a 64-entry
    table whose entry b is the tuple of the slice's vertices in b, in
    ascending order, built as tab[b] = (vertex of low,) + tab[b ^ low],
    where low is the lowest bit of b.  A clique's members are then one
    lookup and one tuple concatenation per slice.  The tables are built
    per call."""
    nv = len(vertices)
    adj = intersection_adjacency(vertices)
    tables = []
    for s in range(0, nv, _SLICE):
        tab = [()]
        for b in range(1, 1 << min(_SLICE, nv - s)):
            low = b & -b
            tab.append((vertices[s + low.bit_length() - 1],) + tab[b ^ low])
        tables.append(tab)
    for clique in _kernels.maximal_cliques(adj, nv):
        mem = ()
        for tab in tables:
            mem += tab[clique & _SLICE_MASK]
            clique >>= _SLICE
        yield mem


def _maximal_families(n: int, k: int, vertices: list[int]) -> Iterator[Family]:
    """A Family for each tuple of ``_maximal_members(vertices)``, in its
    order.  The vertices must be distinct k-sets of [n] in ascending
    order, with n and k already checked (``_check_regime``): every decoded
    tuple is then a valid member tuple, so it is not validated again."""
    for mem in _maximal_members(vertices):
        yield _unchecked_family(n, k, mem)


def enumerate_maximal_intersecting(n: int, k: int) -> Iterator[Family]:
    """Yield every maximal intersecting k-uniform family on [n] once, in
    discovery order, each as soon as the clique search finds it.  Requires n > 2k: at n = 2k every family avoiding
    both sets of a complement pair extends ambiguously and the count
    explodes, so that regime is rejected, as are n outside [2, MAX_GROUND]
    and k outside [1, n], before any k-set is built."""
    _check_regime(n, k)
    yield from _maximal_families(n, k, all_ksets(n, k))


def landscape_counts(n: int, k: int) -> dict[tuple, Fraction]:
    """``encode_counts`` of the whole (n, k) landscape, counted through one
    member: each (n, k, degree-order encode) of the maximal intersecting
    families that contain S0 = [k], mapped to count * C(n, k) / |F|.

    For a relabelling-invariant property P, double counting over members
    gives #{F : P(F)} = sum over F with P of sum over S in F of 1/|F|, and
    S_n is transitive on k-sets, so every S contributes what S0 does:
    C(n, k) * sum over F containing S0 with P of 1/|F|.  So a sum of these
    weights over whole classes (or over encodes sharing an invariant) is
    the number of labelled families there, an integer; one encode's weight
    need not be.  The families through S0 are the maximal cliques of the
    intersection graph on the k-sets meeting S0: S0 is adjacent to all of
    them, so each such clique contains S0 and is maximal in the whole
    graph.  The decoded member tuples are encoded as they come, so no
    ``Family`` is built.  Refuses what ``enumerate_maximal_intersecting``
    and ``encode_counts`` refuse, before any k-set is built."""
    _check_regime(n, k)
    if n > EXACT_CANONICAL_MAX_N:
        raise ValueError(f"exact canonical mode needs n <= {EXACT_CANONICAL_MAX_N}, got {n}")
    s0 = (1 << k) - 1
    counts: dict[tuple, int] = {}
    for mem in _maximal_members([v for v in all_ksets(n, k) if v & s0]):
        enc = _degree_order_encode(n, mem)
        counts[enc] = counts.get(enc, 0) + 1
    total = comb(n, k)
    return {(n, k, enc): Fraction(count * total, len(enc)) for enc, count in counts.items()}


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


def encode_counts(families: Iterable[Family]) -> dict[tuple, int]:
    """How many families carry each (n, k, degree-order encode), keys in
    first-seen order.  The encode is a relabeled copy of each family it
    counts, so a relabeling invariant computed on it holds for all of
    them.  A family with n > EXACT_CANONICAL_MAX_N is refused unencoded."""
    counts: dict[tuple, int] = {}
    for fam in families:
        if fam.n > EXACT_CANONICAL_MAX_N:
            raise ValueError(f"exact canonical mode needs n <= {EXACT_CANONICAL_MAX_N}, got {fam.n}")
        key = (fam.n, fam.k, _degree_order_encode(fam.n, fam.members))
        counts[key] = counts.get(key, 0) + 1
    return counts


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


def exact_int(total: int | Fraction) -> int:
    """total as an int; a sum of ``landscape_counts`` weights that is not
    whole means a weight or the enumeration behind it is wrong."""
    if total.denominator != 1:
        raise ValueError(f"a labelled-family count must be whole, got {total}")
    return int(total)


def iso_classes(families: Iterable[Family]) -> list[IsoClass]:
    """Group families by canonical form.

    Classes are reported by size descending, then by canonical encoding,
    then by n and k.  Each encode of ``encode_counts`` is canonicalized
    once, and its count goes to its class: at (7,3) and (8,3), 75 encodes
    stand for thousands of families.  The canonical encodes found so far
    on the same n and k are passed as ``known``, so the search for an
    encode of a class already found stops at that class's canonical
    encode; only the first encode of each class runs a full search.  No
    assumption is made about which labeled copies the input holds.
    """
    return _classes(encode_counts(families))


def landscape_classes(n: int, k: int) -> list[IsoClass]:
    """``iso_classes(enumerate_maximal_intersecting(n, k))``, built from the
    families through [k] only (``landscape_counts``): the same classes in
    the same order, with the same labeled counts."""
    return _classes(landscape_counts(n, k))


def _classes(counts: Mapping[tuple, int | Fraction]) -> list[IsoClass]:
    """The classes of the encodes in counts, each class's labeled_count the
    sum of its encodes' counts, which must be whole."""
    totals: dict[tuple, int | Fraction] = {}
    seen: dict[tuple, set] = {}
    for (n, k, enc), count in counts.items():
        known = seen.setdefault((n, k), set())
        canon = _kernels.canonical_min(n, enc, known=known)
        known.add(canon)
        key = (n, k, canon)
        totals[key] = totals.get(key, 0) + count
    out = []
    for key, total in totals.items():
        rep = Family(*key)
        prof = degree_profile(rep)
        out.append(
            IsoClass(
                canonical=rep,
                labeled_count=exact_int(total),
                size=len(rep),
                delta=prof.delta,
                Delta=prof.Delta,
                tau=cover_number(rep) if rep.members else 0,
                trivial=is_trivial(rep) is not None,
            )
        )
    out.sort(key=lambda c: (-c.size, c.canonical.members, c.canonical.n, c.canonical.k))
    return out
