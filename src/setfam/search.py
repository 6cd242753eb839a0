"""Exact maximum intersecting subfamilies and EKR-property verdicts.

The largest intersecting subfamily of a host family is the maximum
clique of the host's intersection graph.  The best star settles it first
when it reaches the Hilton-Milner bound on non-trivial intersecting
families (the EKR bound at n = 2k); above that bound the witness is the
lex-least full column of largest degree, and no graph is built.
Otherwise the search is exact branch and bound with greedy-coloring
upper bounds, seeded with the best star.  The proof of the optimum branches once per member orbit in every frame whose
symmetry group is non-trivial: the group fixes the host's ground-set
twin classes and the members chosen on the frame's path, and its orbits
are split from the member columns.  The lex-least witness is
then rebuilt member by member; a step searches only when no known optimum
(the best star, or a greedy completion) already contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import _kernels
from .bounds import hm_bound, triple_transversal_bound
from .enumeration import intersection_adjacency
from .famcore import Family, member_columns, twin_classes
from .generators import ConstraintSpec, consecutive_blocks, gen_constrained

DEFAULT_MEMBER_CAP = 5000


def max_star_size(host: Family) -> tuple[int, int | None]:
    """(max_x |host(x)|, smallest maximizing x); (0, None) when empty."""
    return _best_star(member_columns(host.n, host.members))


def _best_star(cols) -> tuple[int, int | None]:
    """The largest column popcount and the least element (1-based) that
    has it; (0, None) when every column is empty."""
    degs = [c.bit_count() for c in cols]
    star = max(degs, default=0)
    return (star, degs.index(star) + 1) if star else (0, None)


def max_intersecting_subfamily(
    host: Family, member_cap: int = DEFAULT_MEMBER_CAP, *, _cols=None
) -> tuple[int, Family]:
    """Exact maximum intersecting subfamily of host with a witness.

    The host's member columns (:func:`famcore.member_columns`) are built
    once (check_ekr_property passes the ones it built as _cols); the
    best star, the intersection graph and the twin classes
    (:func:`famcore.twin_classes`) come from them.

    The best star is compared with hm = :func:`bounds.hm_bound` first.
    For n > 2k every non-trivial intersecting family of k-sets has at
    most hm members (Hilton-Milner); at n = 2k, hm is C(2k-1, k-1), the
    EKR bound on every intersecting family.  Three regimes follow:

    * n > 2k and star > hm: every omega-clique is trivial, so it lies in
      one column and, with star members, is a full column of largest
      degree.  omega is the star and the witness is the lex-least such
      column (columns compare as sorted index tuples: A < B iff the
      lowest bit of A ^ B is in A).  No graph is built and no search
      runs.  The witness is checked to have star members, all holding
      the column's element.
    * star == hm (n > 2k), or the star meets the EKR bound (n = 2k): no
      clique beats the star, so omega is the star without a proof, and
      the witness is rebuilt as below, since a non-trivial optimum may
      be lex-smaller than every star.
    * Otherwise (below the bound, or n < 2k) omega is proved by search.

    The proof of omega is one clique search that branches once
    per member orbit in every frame with a non-trivial group: the
    permutations of [n] that fix each twin class and each member chosen
    on the frame's path (see :func:`_kernels.max_clique_size`).  The
    whole vertex set is a union of orbits, as that search requires.

    The witness is the lexicographically least optimum (smallest sorted
    member tuple).  Outside the first regime it is built greedily: visiting vertices in ascending
    order, v joins the chosen ones exactly when some omega-clique
    contains them all and v.

    A certificate decides most steps without search: an omega-clique
    containing every chosen vertex, or nothing.  It starts as the best
    star when that star has omega members.  A step accepts v at once when
    the certificate holds v.  Otherwise the greedy completion (the chosen
    vertices, v, then their common neighbours in ascending order, each
    kept when adjacent to all kept so far) is a clique; if it has omega
    members it proves the step and becomes the certificate.  Only when
    neither holds does a clique search on those common neighbours decide;
    it is passed no symmetry.  An acceptance by search clears the
    certificate, which lacks v.  A rejection keeps it, since the chosen
    vertices are unchanged, and drops v from the candidates: the chosen
    vertices only grow, so no later omega-clique through them holds v.
    Every accepted step is proved by an omega-clique and every rejected
    one by a search, so the witness is the one a search at every step
    gives.  It is checked as an omega-clique of the graph before it is
    returned.

    Hosts above member_cap are refused; split the host or raise the cap
    explicitly.
    """
    nv = len(host.members)
    if nv > member_cap:
        raise ValueError(
            f"host has {nv} members, above the cap {member_cap}; "
            f"raise member_cap explicitly if this size is intended"
        )
    if nv == 0:
        return 0, host
    n, k = host.n, host.k
    cols = member_columns(n, host.members) if _cols is None else _cols
    star, center = _best_star(cols)
    # a star that reaches hm is an optimum (the regimes above)
    hm = hm_bound(n, k) if n >= 2 * k else None
    if n > 2 * k and star > hm:
        # c precedes best as a sorted index tuple when the lowest bit of
        # c ^ best is in c
        best = x = 0
        for e, c in enumerate(cols):
            if c.bit_count() == star and (not best or (c ^ best) & -(c ^ best) & c):
                best, x = c, e
        witness = _subfamily(host, best)
        if len(witness) != star or any(not m >> x & 1 for m in witness.members):
            raise AssertionError("witness reconstruction failed")
        return star, witness
    adj = intersection_adjacency(host.members, cols=cols)
    full = (1 << nv) - 1
    if star == hm:
        omega = star
    else:
        omega = _kernels.max_clique_size(
            adj, nv, full, star, (host.members, cols, twin_classes(host, cols=cols))
        )
    cert = cols[center - 1] if omega == star else 0
    chosen = 0
    cand = full
    need = omega
    for v in range(nv):
        if need == 0:
            break
        bit = 1 << v
        if not cand & bit:
            continue
        sub = cand & adj[v]
        if not cert & bit:
            # greedy completion: walk sub in ascending order, keeping each
            # vertex adjacent to all kept so far
            g, rest = chosen | bit, sub
            while rest:
                b = rest & -rest
                g |= b
                rest &= adj[b.bit_length() - 1]
            if g.bit_count() == omega:
                cert = g
            elif 1 + _kernels.max_clique_size(adj, nv, sub, need - 2) >= need:
                cert = 0
            else:
                cand ^= bit
                continue
        chosen |= bit
        cand = sub
        need -= 1
    # the witness must be an omega-clique of adj: each chosen member
    # misses no other chosen one
    ok = chosen.bit_count() == omega
    rest = chosen
    while ok and rest:
        b = rest & -rest
        rest ^= b
        ok = chosen & ~adj[b.bit_length() - 1] == b
    if not ok:
        raise AssertionError("witness reconstruction failed")
    return omega, _subfamily(host, chosen)


def _subfamily(host: Family, mask: int) -> Family:
    """The members of host whose indices are the set bits of mask."""
    # bin(mask)[:1:-1] lists the bits of mask from bit 0 up
    picked = compress(host.members, map("1".__eq__, bin(mask)[:1:-1]))
    return Family(host.n, host.k, tuple(picked))


@dataclass(frozen=True)
class EkrVerdict:
    """Comparison of the largest intersecting subfamily against the
    largest star of a host; holds means no intersecting subfamily beats
    every star.  Raw maxima are recorded so callers can classify the
    hypothesis side themselves."""

    holds: bool
    max_intersecting: int
    witness: Family
    max_star: int
    star_center: int | None
    gap: int


def check_ekr_property(host: Family, member_cap: int = DEFAULT_MEMBER_CAP) -> EkrVerdict:
    """Does the host have the EKR property (its largest intersecting
    subfamily is a star)?  On failure the witness is a non-trivial
    intersecting subfamily beating every star."""
    cols = member_columns(host.n, host.members)
    size, witness = max_intersecting_subfamily(host, member_cap, _cols=cols)
    star, center = _best_star(cols)
    gap = size - star
    return EkrVerdict(
        holds=gap <= 0,
        max_intersecting=size,
        witness=witness,
        max_star=star,
        star_center=center,
        gap=gap,
    )


@dataclass(frozen=True)
class TripleTransversalResult:
    """Exact extremal search against the three-block transversal bound
    ell^2 * C(m-3, k-3); valid marks the hypothesis range
    (k >= 3, ell >= 4, m >= k*ell)."""

    max_size: int
    bound: int
    ok: bool
    valid: bool
    witness: Family


def triple_transversal_search(spec: ConstraintSpec, k: int) -> TripleTransversalResult:
    """Maximum intersecting family on [m] whose members meet each of three
    disjoint equal-size blocks, compared against the closed-form bound.

    spec must carry exactly three disjoint equal blocks in at-least mode
    with quotas (1, 1, 1).
    """
    if spec.mode != "atleast":
        raise ValueError("triple transversal search needs at-least mode")
    if len(spec.blocks) != 3 or spec.quotas != (1, 1, 1):
        raise ValueError("spec must have three blocks with quotas (1, 1, 1)")
    sizes = {b.bit_count() for b in spec.blocks}
    if len(sizes) != 1:
        raise ValueError("the three blocks must have equal size")
    ell = sizes.pop()
    m = spec.n
    host = gen_constrained(spec, k)
    max_size, witness = max_intersecting_subfamily(host)
    bound = triple_transversal_bound(m, k, ell)
    return TripleTransversalResult(
        max_size=max_size,
        bound=bound,
        ok=max_size <= bound,
        valid=k >= 3 and ell >= 4 and m >= k * ell,
        witness=witness,
    )


def make_triple_blocks(m: int, ell: int) -> ConstraintSpec:
    """Three disjoint ell-blocks {1..ell}, {ell+1..2ell}, {2ell+1..3ell}
    in [m], at-least quotas (1, 1, 1)."""
    if m < 3 * ell:
        raise ValueError(f"need m >= 3*ell, got m={m}, ell={ell}")
    return ConstraintSpec(m, consecutive_blocks((ell, ell, ell)), (1, 1, 1), "atleast")
