"""Closed-form bounds, thresholds and identities for intersecting
families, plus exact numeric audits of the inequalities they rest on.

Everything here is exact big-integer or rational arithmetic; binomials
follow the combinatorial convention C(a, b) = 0 for b < 0 or a < b, which
keeps every formula total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb


def binom(a: int, b: int) -> int:
    """C(a, b) with C(a, b) = 0 outside 0 <= b <= a."""
    if b < 0 or a < b or a < 0:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one exact inequality/identity check.

    holds is the truth of the comparison; validity records whether the
    parameters satisfy the hypothesis range the statement was made for,
    so out-of-hypothesis points stay explorable without counting as
    failures.
    """

    params: dict = field(compare=False)
    lhs: object
    rhs: object
    holds: bool
    validity: bool


# --- closed forms -----------------------------------------------------------


def ekr_bound(n: int, k: int) -> int:
    """Maximum size of an intersecting k-uniform family on [n] for
    n >= 2k: C(n-1, k-1)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return binom(n - 1, k - 1)


def hm_bound(n: int, k: int) -> int:
    """Maximum size of a non-trivial intersecting family for n > 2k
    (Hilton-Milner): C(n-1,k-1) - C(n-k-1,k-1) + 1."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1


def hm_min_degree(n: int, k: int) -> int:
    """Minimum degree of the Hilton-Milner family:
    C(n-2,k-2) - C(n-k-2,k-2)."""
    if not 1 <= k <= n - 2:
        raise ValueError(f"need 1 <= k <= n - 2, got k={k}, n={n}")
    return binom(n - 2, k - 2) - binom(n - k - 2, k - 2)


def frankl_wilson_bound(n: int, k: int, t: int) -> tuple[int, bool]:
    """Maximum size of a t-intersecting k-uniform family on [n]:
    C(n-t, k-t), valid for n >= (t+1)(k-t+1) (Frankl, Wilson)."""
    if not 1 <= t <= k <= n:
        raise ValueError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    return binom(n - t, k - t), n >= (t + 1) * (k - t + 1)


def frankl_maxdeg_bound(n: int, k: int, i: int) -> int:
    """Size bound for intersecting families whose maximum degree is at
    most C(n-1,k-1) - C(n-i,k-1), for 3 <= i <= k+1 and n > 2k:
    C(n-1,k-1) - C(n-i,k-1) + C(n-i,k-i+1)."""
    if not 3 <= i <= k + 1:
        raise ValueError(f"need 3 <= i <= k+1, got i={i}, k={k}")
    if n <= 2 * k:
        raise ValueError(f"need n > 2k, got n={n}, k={k}")
    return binom(n - 1, k - 1) - binom(n - i, k - 1) + binom(n - i, k - i + 1)


def matching_threshold(n: int, k: int, s: int) -> tuple[int, bool]:
    """Families larger than C(n,k) - C(n-s,k) contain a matching of size
    s+1; valid for n >= (2s+1)k - s.  gen_meets_front(n, k, s) attains the
    threshold exactly with matching number s."""
    if s < 1 or not 1 <= k <= n:
        raise ValueError(f"need s >= 1 and 1 <= k <= n, got s={s}, k={k}, n={n}")
    return binom(n, k) - binom(n - s, k), n >= (2 * s + 1) * k - s


def hk_gap_constant(n: int, k: int) -> int:
    """Maximum size of a non-trivial intersecting family not contained in
    a Hilton-Milner family (Han, Kohayakawa):
    C(n-1,k-1) - C(n-k-1,k-1) - C(n-k-2,k-2) + 2."""
    if k < 1 or n <= 2 * k:
        raise ValueError(f"need k >= 1 and n > 2k, got n={n}, k={k}")
    return (
        binom(n - 1, k - 1)
        - binom(n - k - 1, k - 1)
        - binom(n - k - 2, k - 2)
        + 2
    )


def triple_transversal_bound(m: int, k: int, ell: int) -> int:
    """Size bound for intersecting k-uniform families on [m] whose
    members all meet three disjoint ell-sets: ell^2 * C(m-3, k-3).
    Three disjoint ell-sets in [m] need ell >= 1 and m >= 3*ell."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if ell < 1 or m < 3 * ell:
        raise ValueError(f"need 1 <= ell and m >= 3*ell, got m={m}, ell={ell}")
    return ell * ell * binom(m - 3, k - 3)


def triple_transversal_ledger(m: int, k: int, ell: int) -> dict:
    """Per-trace-size bounds behind triple_transversal_bound.

    Splitting members by how many elements they take from the union of
    the three ell-sets (r = 3 .. k) gives the per-r bounds below; their
    sum collapses to ell^2 * C(m-3, k-3) by the Vandermonde identity.
    Raises if the collapse fails.
    """
    total = triple_transversal_bound(m, k, ell)  # validates m, k and ell
    entries: dict[int, int] = {}
    for r in range(3, k + 1):
        if r == 3:
            entries[r] = ell * ell * binom(m - 3 * ell, k - 3)
        elif r == 4:
            entries[r] = 3 * (ell - 1) * ell * ell * binom(m - 3 * ell, k - 4)
        else:
            entries[r] = ell * ell * binom(3 * ell - 3, r - 3) * binom(m - 3 * ell, k - r)
    if sum(entries.values()) != total:
        raise AssertionError(
            f"ledger sum {sum(entries.values())} != total {total} at (m={m}, k={k}, ell={ell})"
        )
    return {"entries": entries, "total": total}


# --- audits -----------------------------------------------------------------


def audit_vandermonde(m: int, k: int, ell: int) -> AuditResult:
    """C(m-3, k-3) == sum_i C(m-3*ell, k-3-i) * C(3*ell-3, i)."""
    if m < 3 * ell or k < 3:
        raise ValueError(f"need m >= 3*ell and k >= 3, got m={m}, k={k}, ell={ell}")
    lhs = binom(m - 3, k - 3)
    rhs = sum(binom(m - 3 * ell, k - 3 - i) * binom(3 * ell - 3, i) for i in range(k - 2))
    return AuditResult({"m": m, "k": k, "ell": ell}, lhs, rhs, lhs == rhs, True)


def audit_telescoping(n: int, k: int) -> AuditResult:
    """C(n-2,k-2) + C(n-3,k-2) + .. + C(2k-1,k-2) + C(2k-1,k-1) == C(n-1,k-1),
    the identity behind peeling off minimum-degree elements down to 2k."""
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    lhs = sum(binom(j, k - 2) for j in range(2 * k - 1, n - 1)) + binom(2 * k - 1, k - 1)
    rhs = binom(n - 1, k - 1)
    return AuditResult({"n": n, "k": k}, lhs, rhs, lhs == rhs, True)


def audit_tail_ratio(n: int, k: int, t: int, c: int) -> AuditResult:
    """C(n-2k+t-1, k-2) >= ((c-2)/c) * C(n-t-1, k-2), exact rationals;
    valid for n >= c*k*k."""
    if not 1 <= t <= k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={k}")
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    lhs = Fraction(binom(n - 2 * k + t - 1, k - 2))
    rhs = Fraction(c - 2, c) * binom(n - t - 1, k - 2)
    return AuditResult(
        {"n": n, "k": k, "t": t, "c": c}, lhs, rhs, lhs >= rhs, n >= c * k * k
    )


def audit_degree_size_chain(n: int, k: int, c: int) -> AuditResult:
    """The size lower bound that a minimum degree above the Hilton-Milner
    value forces:

        (n/k) * (C(n-2,k-2) - C(n-k-2,k-2)) > ((c-1)/c) * (k-2) * C(n-2,k-2)

    together with its intermediate step
    C(n-k-2, k-3) >= ((c-1)/c) * C(n-3, k-3).  Valid for n >= c*k*k.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if c < 2:
        raise ValueError(f"need c >= 2, got {c}")
    lhs = Fraction(n, k) * (binom(n - 2, k - 2) - binom(n - k - 2, k - 2))
    rhs = Fraction(c - 1, c) * (k - 2) * binom(n - 2, k - 2)
    step = Fraction(binom(n - k - 2, k - 3)) >= Fraction(c - 1, c) * binom(n - 3, k - 3)
    return AuditResult(
        {"n": n, "k": k, "c": c}, lhs, rhs, lhs > rhs and step, n >= c * k * k
    )


def audit_inclusion_exclusion(n: int, k: int, t: int) -> AuditResult:
    """Count of k-sets containing two fixed elements and meeting both of
    two k-sets E, E' with |E & E'| = t (all four parts disjoint):

        C(n-2,k-2) - 2*C(n-k-2,k-2) + C(n-2k+t-2,k-2)

    checked against a brute-force count on a concrete placement.
    """
    if not 1 <= t <= k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={k}")
    if n < 2 * k - t + 2:
        raise ValueError(f"placement needs n >= 2k-t+2, got n={n}, k={k}, t={t}")
    if n > 14:
        raise ValueError(f"brute-force arm is capped at n <= 14, got {n}")
    closed = binom(n - 2, k - 2) - 2 * binom(n - k - 2, k - 2) + binom(n - 2 * k + t - 2, k - 2)
    u, x = 1, 2
    e1 = set(range(3, k + 3))
    e2 = set(range(3, t + 3)) | set(range(k + 3, 2 * k - t + 3))
    count = 0
    for cmb in combinations(range(1, n + 1), k):
        s = set(cmb)
        if u in s and x in s and s & e1 and s & e2:
            count += 1
    return AuditResult({"n": n, "k": k, "t": t}, closed, count, closed == count, True)


# --- default audit grids ------------------------------------------------------


def telescoping_grid(max_n: int = 60, max_k: int = 10) -> list[AuditResult]:
    return [
        audit_telescoping(n, k)
        for k in range(2, max_k + 1)
        for n in range(2 * k, max_n + 1)
    ]


def vandermonde_grid(max_m: int = 60, max_k: int = 10, max_ell: int = 6) -> list[AuditResult]:
    return [
        audit_vandermonde(m, k, ell)
        for k in range(3, max_k + 1)
        for ell in range(1, max_ell + 1)
        for m in range(3 * ell, max_m + 1)
    ]


def tail_ratio_grid(cs=(4, 30), max_k: int = 6) -> list[AuditResult]:
    out = []
    for c in cs:
        for k in range(2, max_k + 1):
            for n in (c * k * k, c * k * k + 1, 2 * c * k * k):
                for t in range(1, k):
                    out.append(audit_tail_ratio(n, k, t, c))
    return out


def degree_size_chain_grid(cs=(4, 30), max_k: int = 6) -> list[AuditResult]:
    out = []
    for c in cs:
        for k in range(3, max_k + 1):
            for n in (c * k * k, c * k * k + 1, 2 * c * k * k):
                out.append(audit_degree_size_chain(n, k, c))
    return out


def inclusion_exclusion_grid(max_n: int = 13, max_k: int = 4) -> list[AuditResult]:
    out = []
    for k in range(2, max_k + 1):
        for t in range(1, k):
            for n in range(2 * k - t + 2, max_n + 1):
                out.append(audit_inclusion_exclusion(n, k, t))
    return out
