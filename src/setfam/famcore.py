"""Bitmask k-sets and k-uniform families on a ground set [n] = {1, .., n}.

A set is a Python int with bit i-1 set iff element i is present.  The
ground set is capped at 62 elements so every member fits a machine word
and a pairwise intersection test is a single AND.  A Family keeps its
members as a strictly increasing tuple of masks, so families compare and
hash by value.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import combinations
from math import comb

MAX_GROUND = 62

#: Guard for operations that sweep all C(n, k) k-sets of [n].
COMPLETE_CAP = 10_000_000

KSet = int


def kset(elems) -> KSet:
    """Encode an iterable of 1-based elements as a bitmask."""
    m = 0
    for e in elems:
        if e < 1 or e > MAX_GROUND:
            raise ValueError(f"elements must lie in [1, {MAX_GROUND}], got {e}")
        b = 1 << (e - 1)
        if m & b:
            raise ValueError(f"duplicate element {e}")
        m |= b
    return m


def elements(mask: KSet) -> tuple[int, ...]:
    """Decode a bitmask into its ascending 1-based elements."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return tuple(out)


@dataclass(frozen=True)
class Family:
    """A k-uniform family on [n].

    members is strictly increasing, every member has popcount k, and all
    bits lie below n.  The constructor validates; use :func:`family` to
    build one from unsorted input.
    """

    n: int
    k: int
    members: tuple[KSet, ...] = ()

    def __post_init__(self):
        if not 2 <= self.n <= MAX_GROUND:
            raise ValueError(f"n must be in [2, {MAX_GROUND}], got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must be in [1, n], got k={self.k} with n={self.n}")
        full = (1 << self.n) - 1
        prev = 0
        for m in self.members:
            if m <= prev:
                raise ValueError("members must be strictly increasing and distinct")
            if m & ~full:
                raise ValueError(f"member {elements(m)} uses elements outside [{self.n}]")
            if m.bit_count() != self.k:
                raise ValueError(f"member {elements(m)} is not a {self.k}-set")
            prev = m

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _unchecked_family(n: int, k: int, members: tuple[KSet, ...]) -> Family:
    """Family(n, k, members) without the validation of ``__post_init__``.

    Precondition, on the caller: 2 <= n <= MAX_GROUND, 1 <= k <= n, and
    members is a strictly increasing tuple of k-sets of [n].  The fields
    are set in declaration order as the frozen dataclass's own
    ``__init__`` sets them, so the result equals, hashes and prints like
    the validated Family and stays frozen."""
    fam = object.__new__(Family)
    object.__setattr__(fam, "n", n)
    object.__setattr__(fam, "k", k)
    object.__setattr__(fam, "members", members)
    return fam


def family(n: int, k: int, sets) -> Family:
    """Build a Family from masks or element iterables, sorting and deduplicating."""
    masks = set()
    for s in sets:
        masks.add(s if isinstance(s, int) else kset(s))
    return Family(n, k, tuple(sorted(masks)))


def all_ksets(n: int, k: int) -> list[KSet]:
    """All k-subsets of [n] as ascending masks (guarded by COMPLETE_CAP)."""
    if comb(n, k) > COMPLETE_CAP:
        raise ValueError(f"C({n},{k}) exceeds the {COMPLETE_CAP} member cap")
    return sorted(sum(1 << i for i in c) for c in combinations(range(n), k))


@dataclass(frozen=True)
class DegreeProfile:
    """Per-element degrees d_1..d_n with their minimum/maximum and witnesses."""

    degrees: tuple[int, ...]
    delta: int
    Delta: int
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]


def degree(fam: Family, x: int) -> int:
    """Number of members containing element x (1 <= x <= n)."""
    if not 1 <= x <= fam.n:
        raise ValueError(f"element {x} out of range [1, {fam.n}]")
    b = 1 << (x - 1)
    return sum(1 for m in fam.members if m & b)


# The four swap rounds of a 16 x 16 bit-matrix transpose (Hacker's
# Delight, section 7-3), as (shift, mask) with the 256-bit block mask
# in little-endian bytes.  Row r of a block is its bits 16r .. 16r + 15,
# and round s swaps bit (r, c) with (r + s, c - s) wherever r & s == 0
# and c & s != 0, a distance of 15s bits.
_TRANSPOSE_ROUNDS = tuple(
    (15 * s, mask.to_bytes(32, "little"))
    for s, mask in (
        (8, 0xFF00FF00FF00FF00FF00FF00FF00FF00),
        (4, 0xF0F0F0F0F0F0F0F00000000000000000F0F0F0F0F0F0F0F0),
        (2, 0xCCCCCCCC00000000CCCCCCCC00000000CCCCCCCC00000000CCCCCCCC),
        (1, 0xAAAA0000AAAA0000AAAA0000AAAA0000AAAA0000AAAA0000AAAA0000AAAA),
    )
)


def member_columns(n: int, members) -> list[int]:
    """cols[e]: the mask of the indices i (positions in members) whose
    member holds element e + 1, for e in range(n).  The popcount of a
    column is a degree, and the columns of a member's elements together
    hold every member that meets it.  Bits at n and above are ignored.

    A bit-matrix transpose: the members, packed as little-endian 64-bit
    words, are read as four 16-bit lanes each, so lane q of every member
    is the strided view words[q::4], the m x 16 bit matrix of the
    elements 16q + 1 .. 16q + 16.  That matrix, one int holding member i
    at bits 16i .. 16i + 15, is transposed in 16 x 16 blocks, all blocks
    at once, by four masked swap rounds; afterwards the 16 bits at
    block b, row c hold members 16b .. 16b + 15 of column 16q + c, so
    column c is the strided view rows[c::16]."""
    ms = array("Q", members)
    if not ms:
        return [0] * n
    if sys.byteorder == "big":
        ms.byteswap()
    words = array("H", ms.tobytes())
    blocks = -(-len(ms) // 16)
    rounds = [(sh, int.from_bytes(mask * blocks, "little")) for sh, mask in _TRANSPOSE_ROUNDS]
    cols = []
    for q in range(-(-n // 16)):
        x = int.from_bytes(words[q::4], "little")
        for sh, mask in rounds:
            t = (x ^ x >> sh) & mask
            x ^= t ^ t << sh
        rows = array("H", x.to_bytes(32 * blocks, "little"))
        cols += [int.from_bytes(rows[c::16], "little") for c in range(min(16, n - 16 * q))]
    return cols


def degree_profile(fam: Family) -> DegreeProfile:
    """Degrees of all elements of [n]; the minimum ranges over all of [n],
    so elements in no member contribute degree 0."""
    degs = [c.bit_count() for c in member_columns(fam.n, fam.members)]
    lo, hi = min(degs), max(degs)
    return DegreeProfile(
        degrees=tuple(degs),
        delta=lo,
        Delta=hi,
        argmin=tuple(i + 1 for i, d in enumerate(degs) if d == lo),
        argmax=tuple(i + 1 for i, d in enumerate(degs) if d == hi),
    )


def twin_classes(fam: Family, *, cols=None) -> tuple[KSet, ...]:
    """The partition of [n] into twin classes, as element masks ordered by
    least element.

    Elements a and b are twins when the transposition (a b) maps the
    member set onto itself.  Twinship is an equivalence ((a c) is
    (a b)(b c)(a b)), so each element is tested against one
    representative per class.  Every permutation that keeps each class
    fixed setwise is then an automorphism of the family, and two members
    lie in one orbit of that group iff they meet every class in the same
    number of elements.

    The test reads the member columns (:func:`member_columns`, built here
    unless cols gives them): only the members holding exactly one of a
    and b move, so a and b are twins iff as many members hold a without b
    as b without a, and each of the former, swapped, is a member.
    """
    return _twin_classes(fam.n, fam.members, cols)


def _twin_classes(n: int, members, cols=None) -> tuple[KSet, ...]:
    """:func:`twin_classes` of a sequence of distinct masks on [n]."""
    if cols is None:
        cols = member_columns(n, members)
    present = set(members)
    reps: list[int] = []  # the least element of each class
    classes: list[KSet] = []
    for e in range(n):
        ce = cols[e]
        for c, r in enumerate(reps):
            only = ce & ~cols[r]
            if only.bit_count() != (cols[r] & ~ce).bit_count():
                continue
            pair = 1 << r | 1 << e
            while only:
                b = only & -only
                if members[b.bit_length() - 1] ^ pair not in present:
                    break
                only ^= b
            else:
                classes[c] |= 1 << e
                break
        else:
            reps.append(e)
            classes.append(1 << e)
    return tuple(classes)


def _pairwise_intersecting(masks) -> bool:
    ms = list(masks)
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if not a & b:
                return False
    return True


def is_intersecting(fam: Family) -> bool:
    """True iff every two members share an element (vacuously true when
    the family has fewer than two members)."""
    return _pairwise_intersecting(fam.members)


def intersection_parameter(fam: Family) -> int:
    """Minimum pairwise intersection size t; the family is t-intersecting
    but not (t+1)-intersecting.  Needs at least two members."""
    ms = fam.members
    if len(ms) < 2:
        raise ValueError("intersection parameter needs at least two members")
    t = fam.k
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            c = (a & b).bit_count()
            if c < t:
                t = c
                if t == 0:
                    return 0
    return t


def is_trivial(fam: Family) -> int | None:
    """Smallest element contained in every member, or None.

    The empty family reports center 1 by convention (degenerate: every
    element is vacuously common).
    """
    if not fam.members:
        return 1
    common = (1 << fam.n) - 1
    for m in fam.members:
        common &= m
        if not common:
            return None
    return (common & -common).bit_length()


def subfamily_at(fam: Family, x: int) -> Family:
    """The members containing element x."""
    if not 1 <= x <= fam.n:
        raise ValueError(f"element {x} out of range [1, {fam.n}]")
    b = 1 << (x - 1)
    return Family(fam.n, fam.k, tuple(m for m in fam.members if m & b))


def maximal_closure(fam: Family) -> Family:
    """Extend an intersecting family to a maximal intersecting one.

    A greedy pass over the k-sets of [n] in increasing mask order adds
    each one that meets every member chosen so far.  When
    {G : G meets every member of F} is intersecting, it is the unique
    maximal intersecting family containing the input, and the pass adds
    exactly that set.  Otherwise the input has several maximal
    extensions, and the pass picks one deterministically.
    """
    if not is_intersecting(fam):
        raise ValueError("maximal_closure requires an intersecting family")
    chosen = set(fam.members)
    for g in all_ksets(fam.n, fam.k):
        if g not in chosen and all(g & f for f in chosen):
            chosen.add(g)
    return Family(fam.n, fam.k, tuple(sorted(chosen)))


# --- ".fam" text format ---------------------------------------------------
#
# line 1: "n k"; every further non-empty line: k ascending 1-based elements
# separated by single spaces; member lines sorted lexicographically as
# integer tuples; '#' starts a comment line; parsing is strict.


def format_fam(fam: Family) -> str:
    lines = [f"{fam.n} {fam.k}"]
    for tup in sorted(elements(m) for m in fam.members):
        lines.append(" ".join(str(e) for e in tup))
    return "\n".join(lines) + "\n"


def parse_fam(text: str) -> Family:
    """Parse the ".fam" format; rejects wrong arity, out-of-range values,
    unsorted elements, and unsorted or duplicate member lines."""
    if "\r" in text:
        raise ValueError(".fam files use LF line endings")
    header: tuple[int, int] | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line or line.startswith("#"):
            continue
        tokens = line.split(" ")
        if any(not t.isdigit() for t in tokens):
            raise ValueError(f"line {lineno}: expected space-separated integers")
        values = tuple(int(t) for t in tokens)
        if header is None:
            if len(values) != 2:
                raise ValueError(f"line {lineno}: header must be 'n k'")
            header = values
            continue
        n, k = header
        if len(values) != k:
            raise ValueError(f"line {lineno}: expected {k} elements, got {len(values)}")
        if any(not 1 <= e <= n for e in values):
            raise ValueError(f"line {lineno}: element out of range [1, {n}]")
        if any(values[i] >= values[i + 1] for i in range(k - 1)):
            raise ValueError(f"line {lineno}: elements must be strictly ascending")
        if rows and values <= rows[-1]:
            raise ValueError(f"line {lineno}: member lines must be sorted and distinct")
        rows.append(values)
    if header is None:
        raise ValueError("missing 'n k' header line")
    n, k = header
    return Family(n, k, tuple(sorted(kset(r) for r in rows)))
