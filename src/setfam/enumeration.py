"""Exhaustive enumeration of maximal intersecting families and their
reduction to isomorphism classes.

Maximal intersecting k-uniform families on [n] are exactly the maximal
cliques of the intersection graph on all C(n, k) k-sets, so enumeration
is maximal-clique enumeration over that graph.  Isomorphism uses the
minimum relabeling over all permutations of [n] (exact for n <= 10).
The one relabeling invariant is ``_kernels.relabel_profile``: its key
buckets families here and is the coarse fingerprint above n = 10.
Reducing to classes canonicalizes once per class: every later family of
a class is placed by an explicit relabeling onto the class's canonical
encode (see ``iso_classes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _kernels
from .covers import cover_number
from .famcore import MAX_GROUND, Family, all_ksets, degree_profile, is_trivial

EXACT_CANONICAL_MAX_N = 10


class UnsupportedRegimeError(ValueError):
    """Raised for parameter regimes the enumerator refuses (n <= 2k)."""


def intersection_adjacency(members, t: int = 1) -> list[int]:
    """Bitmask adjacency of the t-intersection graph on the given masks:
    two members are adjacent when they share at least t elements."""
    ms = list(members)
    nv = len(ms)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if (ms[i] & ms[j]).bit_count() >= t:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
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


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical key of a family under ground-set relabeling.

    Exact mode (n <= 10): key is the minimum sorted member tuple over all
    permutations and `family` is the relabeled Family.  Above that the
    key degrades to the relabel_profile key and coarse is True: equal
    keys then mean "possibly isomorphic" only.
    """

    key: tuple
    coarse: bool
    family: Family | None


def canonical_members(fam: Family) -> tuple[int, ...]:
    """Exact canonical encoding (minimum relabeled member tuple)."""
    return _kernels.canonical_min(fam.n, fam.members)


def canonical_form(fam: Family) -> CanonicalForm:
    """Canonical form of fam; exact for n <= 10, coarse fingerprint above."""
    if fam.n > EXACT_CANONICAL_MAX_N:
        return CanonicalForm(_kernels.relabel_profile(fam.n, fam.members)[3], True, None)
    enc = canonical_members(fam)
    return CanonicalForm(enc, False, Family(fam.n, fam.k, enc))


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
    then by n and k.  Each family's relabel_profile is built once, and its
    key, with the family's n and k, picks the family's bucket.  A bucket
    keeps, for each class found in it so far, the class key (n, k and the
    canonical encode) and that encode's profile (built once per class).
    A family that some permutation carries onto one of those encodes
    joins that class; only a family that relabels onto none of them is
    canonicalized, and it opens a new class in its bucket.  So
    canonicalization runs once per class, every class is still keyed by
    its exact minimum encode on its own n and k, and no assumption is
    made about which labeled copies the input holds.
    """
    counts: dict[tuple, int] = {}
    buckets: dict[tuple, list[tuple]] = {}
    for fam in families:
        if fam.n > EXACT_CANONICAL_MAX_N:
            raise ValueError(
                f"iso_classes needs exact canonical mode (n <= {EXACT_CANONICAL_MAX_N})"
            )
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
