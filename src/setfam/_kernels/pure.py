"""Pure-Python search kernels.

Graph vertices are indices 0..nv-1 and adj[v] is the neighborhood of v
as a bitmask over vertex indices (no self loops).
"""

from __future__ import annotations

from ..famcore import member_columns


def maximal_cliques(adj, nv: int) -> list[int]:
    """All maximal cliques as vertex bitmasks (Bron-Kerbosch, pivoting)."""
    out: list[int] = []
    if nv == 0:
        return out

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        # pivot u maximizing |P & N(u)| over P | X
        m = p | x
        best_u = -1
        best = -1
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            c = (p & adj[u]).bit_count()
            if c > best:
                best = c
                best_u = u
        ext = p & ~adj[best_u]
        while ext:
            b = ext & -ext
            ext ^= b
            av = adj[b.bit_length() - 1]
            expand(r | b, p & av, x & av)
            p ^= b
            x |= b

    expand(0, (1 << nv) - 1, 0)
    return out


def max_clique_size(adj, nv: int, cand: int, lb: int = 0, orbit=None) -> int:
    """max(lb, size of the largest clique induced on the cand vertex set).

    lb must be the size of a clique known to exist (it seeds the pruning
    bound); the empty graph has clique size 0.

    Branch and bound with greedy-coloring bounds (Tomita & Seki's MCQ),
    run on an explicit stack of frames (p, size, order, colors, i), so
    the clique size is not limited by the recursion limit.

    orbit, when given, maps each vertex to the vertex mask of its orbit
    under a group of graph automorphisms, and cand must be a union of
    orbits.  The root frame then branches once per orbit (orbital
    branching): where it would branch on v it branches on u, the
    lowest-index vertex of v's orbit still in P, and then removes the
    whole orbit from P.  An automorphism carries any clique in P that
    meets the orbit to one through u, still inside P because P stays a
    union of orbits.  Inner frames run as with orbit=None.
    """
    best = lb if lb > 0 else 0
    if not cand:
        return best
    stack = []
    p, size = cand, 0
    while True:
        # greedy coloring of p: order vertices by color class, colors ascending
        order: list[int] = []
        colors: list[int] = []
        un = p
        c = 0
        while un:
            c += 1
            avail = un
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append(v)
                colors.append(c)
                un ^= b
                avail &= ~(adj[v] | b)
        i = len(order) - 1
        if c == len(order):
            # a greedy class stays a singleton only when its first vertex
            # is adjacent to every vertex still uncolored, so all classes
            # are singletons exactly when p is a clique: nothing to branch
            if size + c > best:
                best = size + c
            i = -1
        # branch on order[i], order[i-1], ..., resuming parent frames
        while True:
            if i >= 0 and size + colors[i] > best:
                v = order[i]
                i -= 1
                if not stack and orbit is not None:
                    # root frame: what is left of P still lies in
                    # order[0..i], so colors[i] bounds it as before
                    o = orbit[v] & p
                    if not o:
                        continue  # v went with an earlier orbit
                    v = (o & -o).bit_length() - 1
                    np_ = p & adj[v]
                    p ^= o
                else:
                    np_ = p & adj[v]
                    p ^= 1 << v
                if np_:
                    stack.append((p, size, order, colors, i))
                    p, size = np_, size + 1
                    break
                if size + 1 > best:
                    best = size + 1
            elif stack:
                p, size, order, colors, i = stack.pop()
            else:
                return best


def canonical_min(n: int, members) -> tuple[int, ...]:
    """Lexicographically least relabeling of a family under permutations of [n].

    members are element bitmasks; returns the encode, the sorted tuple of
    relabeled masks.

    Branch and bound: new labels 1, 2, .. are assigned to old elements in
    order, support elements first (a minimal relabeling never puts an
    unused element below a used one).  Per-member lower-bound masks prune
    against the incumbent; a key equal to the incumbent cannot beat it.
    """
    ms = list(members)
    m = len(ms)
    if m == 0:
        return ()
    support = 0
    for v in ms:
        support |= v
    sup = []
    s = support
    while s:
        b = s & -s
        s ^= b
        sup.append(b.bit_length() - 1)

    best = None
    # member indices containing each support element
    cols = {e: [i for i in range(m) if ms[i] >> e & 1] for e in sup}

    def rec(t, j, p, unassigned, low):
        # low is this node's sorted lower-bound list (computed by the parent)
        nonlocal best
        if not unassigned:
            if best is None or low < best:
                best = low
            return
        bitp = 1 << p
        shift = p + 1
        kids = []
        for e in unassigned:
            t2 = t.copy()
            j2 = j.copy()
            for i in cols[e]:
                t2[i] |= bitp
                j2[i] -= 1
            key = [t2[i] | (((1 << j2[i]) - 1) << shift) for i in range(m)]
            key.sort()
            kids.append((key, e, t2, j2))
        kids.sort(key=lambda kv: kv[0])
        for key, e, t2, j2 in kids:
            if best is not None and key >= best:
                break  # keys ascend; the rest are dominated too
            rec(t2, j2, shift, [u for u in unassigned if u != e], key)

    t0 = [0] * m
    j0 = [v.bit_count() for v in ms]
    low0 = sorted((1 << j) - 1 for j in j0)
    rec(t0, j0, 0, sup, low0)
    return tuple(best)


def relabel_profile(n: int, members):
    """(mset, co, inv, key): the member set; co[a][b], the number of
    members holding both a and b (the diagonal is the degree); inv[e] =
    (degree, sorted co row), element e's relabeling invariant; and key =
    (size, 0 in mset, sorted inv), the family's.  Equal keys are needed
    for a relabeling, but do not prove one."""
    mset = frozenset(members)
    # the columns index members in set order; co does not depend on it
    cols = member_columns(n, mset)
    co = [[(c & d).bit_count() for d in cols] for c in cols]
    inv = [(co[e][e], tuple(sorted(co[e]))) for e in range(n)]
    return mset, co, inv, (len(mset), 0 in mset, tuple(sorted(inv)))


def find_relabeling(n: int, source, target) -> tuple[int, ...] | None:
    """A permutation p of [n] carrying the source family's member set
    exactly onto the target's (element e goes to p[e]), or None when no
    permutation does.  source and target are relabel_profile results.

    Backtracking over source elements, fewest candidates first.  Element
    invariants prune: e may go only to a target element with the same
    degree and sorted co-degree row, and every assigned pair must keep its
    co-degree.  Invariants only prune; a member counts as placed only once
    all its elements are assigned and its image is a target member.
    """
    src, co_s, inv_s, key_s = source
    tgt, co_t, inv_t, key_t = target
    # the key holds the sizes and the empty member, which no step below
    # places because it has no elements
    if key_s != key_t:
        return None
    cands = [[t for t in range(n) if inv_t[t] == inv_s[e]] for e in range(n)]
    order = sorted(range(n), key=lambda e: len(cands[e]))
    # the members whose last element in order is order[i], as element lists
    done = [[] for _ in range(n)]
    pos = {e: i for i, e in enumerate(order)}
    for v in src:
        els = [e for e in range(n) if v >> e & 1]
        if els:
            done[max(pos[e] for e in els)].append(els)
    perm = [-1] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        e = order[i]
        row_s = co_s[e]
        before = order[:i]
        for t in cands[e]:
            if used >> t & 1:
                continue
            row_t = co_t[t]
            if any(row_s[f] != row_t[perm[f]] for f in before):
                continue
            perm[e] = t
            if all(sum(1 << perm[a] for a in els) in tgt for els in done[i]) and place(
                i + 1, used | 1 << t
            ):
                return True
        perm[e] = -1
        return False

    return tuple(perm) if place(0, 0) else None
