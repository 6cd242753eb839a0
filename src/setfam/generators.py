"""Constructors for the named families: full stars, Hilton-Milner
families, front-meeting families, block-constrained families, and the
complete family (the oracle ground family)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .famcore import COMPLETE_CAP, Family, KSet, all_ksets, elements, kset


@dataclass(frozen=True)
class HMSpec:
    """Parameters of a Hilton-Milner family: a k-set s and a center x not in s."""

    n: int
    k: int
    x: int
    s: KSet

    def __post_init__(self):
        if self.n < self.k + 1:
            raise ValueError("Hilton-Milner family needs n >= k + 1")
        if not 1 <= self.x <= self.n:
            raise ValueError(f"center {self.x} out of range [1, {self.n}]")
        if self.s & ~((1 << self.n) - 1):
            raise ValueError("s uses elements outside [n]")
        if self.s.bit_count() != self.k:
            raise ValueError(f"s must be a {self.k}-set")
        if self.s & (1 << (self.x - 1)):
            raise ValueError("center x must not lie in s")

    @classmethod
    def standard(cls, n: int, k: int) -> "HMSpec":
        """x = 1 and s = {2, .., k+1}."""
        return cls(n, k, 1, kset(range(2, k + 2)))


@dataclass(frozen=True)
class ConstraintSpec:
    """Disjoint blocks of [n] with per-block quotas.

    mode "exact" demands |F & X_i| == k_i (with an implicit final block
    [n] minus the union absorbing the remaining quota); mode "atleast"
    demands |F & X_i| >= k_i and leaves elements outside the blocks free.
    """

    n: int
    blocks: tuple[KSet, ...]
    quotas: tuple[int, ...]
    mode: str = "atleast"

    def __post_init__(self):
        if self.mode not in ("exact", "atleast"):
            raise ValueError(f"mode must be 'exact' or 'atleast', got {self.mode!r}")
        if len(self.blocks) != len(self.quotas):
            raise ValueError("blocks and quotas must have equal length")
        if not self.blocks:
            raise ValueError("at least one block is required")
        full = (1 << self.n) - 1
        seen = 0
        for b, q in zip(self.blocks, self.quotas):
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if b & ~full:
                raise ValueError("block uses elements outside [n]")
            if b & seen:
                raise ValueError("blocks must be pairwise disjoint")
            if not 0 <= q <= b.bit_count():
                raise ValueError(f"quota {q} exceeds block size {b.bit_count()}")
            seen |= b


def gen_full_star(n: int, k: int, x: int) -> Family:
    """All k-subsets of [n] containing the fixed element x, refused when
    C(n-1, k-1) exceeds COMPLETE_CAP."""
    if not 1 <= x <= n:
        raise ValueError(f"center {x} out of range [1, {n}]")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got {k}")
    if comb(n - 1, k - 1) > COMPLETE_CAP:
        raise ValueError(f"C({n - 1},{k - 1}) exceeds the {COMPLETE_CAP} member cap")
    xb = 1 << (x - 1)
    others = [i for i in range(n) if i != x - 1]
    masks = sorted(xb | sum(1 << i for i in c) for c in combinations(others, k - 1))
    return Family(n, k, tuple(masks))


def gen_hm(spec: HMSpec) -> Family:
    """The Hilton-Milner family: {s} plus every k-set containing x and
    meeting s.  Size is C(n-1,k-1) - C(n-k-1,k-1) + 1."""
    star = gen_full_star(spec.n, spec.k, spec.x).members
    masks = sorted([spec.s, *(m for m in star if m & spec.s)])
    return Family(spec.n, spec.k, tuple(masks))


def gen_meets_front(n: int, k: int, s: int) -> Family:
    """All k-sets meeting {1, .., s}.  Size is C(n,k) - C(n-s,k)."""
    if not 1 <= s <= n - k:
        raise ValueError(f"s must be in [1, n-k], got s={s} with n={n}, k={k}")
    front = (1 << s) - 1
    return Family(n, k, tuple(m for m in all_ksets(n, k) if m & front))


def gen_complete(n: int, k: int, member_cap: int = COMPLETE_CAP) -> Family:
    """All C(n,k) k-subsets of [n], refused above member_cap."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got {k}")
    if comb(n, k) > member_cap:
        raise ValueError(f"C({n},{k}) = {comb(n, k)} exceeds the cap {member_cap}")
    masks = sorted(sum(1 << i for i in c) for c in combinations(range(n), k))
    return Family(n, k, tuple(masks))


def gen_constrained(spec: ConstraintSpec, k: int, member_cap: int = COMPLETE_CAP) -> Family:
    """All k-sets of [n] satisfying the block quotas under the given mode.

    Infeasible quota combinations yield an empty family rather than an
    error, so parameter sweeps never abort.
    """
    n = spec.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got {k}")
    if comb(n, k) > member_cap:
        raise ValueError(f"C({n},{k}) = {comb(n, k)} exceeds the cap {member_cap}")
    pairs = list(zip(spec.blocks, spec.quotas))
    if spec.mode == "exact":
        rest = ((1 << n) - 1) & ~sum(spec.blocks)
        rest_quota = k - sum(spec.quotas)
        if rest_quota < 0 or rest_quota > rest.bit_count():
            return Family(n, k, ())
        if rest:
            pairs.append((rest, rest_quota))
        keep = lambda m: all((m & b).bit_count() == q for b, q in pairs)
    else:
        if sum(spec.quotas) > k:
            return Family(n, k, ())
        keep = lambda m: all((m & b).bit_count() >= q for b, q in pairs)
    masks = sorted(
        m for c in combinations(range(n), k) if keep(m := sum(1 << i for i in c))
    )
    return Family(n, k, tuple(masks))


# --- constraint-spec text format -------------------------------------------
#
#   n: 12
#   block: 1 2 3 4 | quota: 1 | mode: atleast
#   block: 5 6 7 8 | quota: 1 | mode: atleast
#
# One block per line; all lines must agree on the mode.


def format_constraint_spec(spec: ConstraintSpec) -> str:
    lines = [f"n: {spec.n}"]
    for b, q in zip(spec.blocks, spec.quotas):
        elems = " ".join(str(e) for e in elements(b))
        lines.append(f"block: {elems} | quota: {q} | mode: {spec.mode}")
    return "\n".join(lines) + "\n"


def parse_constraint_spec(text: str) -> ConstraintSpec:
    n = None
    blocks: list[KSet] = []
    quotas: list[int] = []
    modes: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n:"):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate 'n:' line")
            n = int(line[2:].strip())
            continue
        parts = [p.strip() for p in line.split("|")]
        fields = {}
        for p in parts:
            key, _, val = p.partition(":")
            fields[key.strip()] = val.strip()
        if set(fields) != {"block", "quota", "mode"}:
            raise ValueError(f"line {lineno}: expected 'block: .. | quota: .. | mode: ..'")
        blocks.append(kset(int(t) for t in fields["block"].split()))
        quotas.append(int(fields["quota"]))
        modes.add(fields["mode"])
    if n is None:
        raise ValueError("missing 'n:' line")
    if len(modes) != 1:
        raise ValueError("all block lines must agree on the mode")
    return ConstraintSpec(n, tuple(blocks), tuple(quotas), modes.pop())
