"""Pure-Python search kernels.

Graph vertices are indices 0..nv-1 and adj[v] is the neighborhood of v
as a bitmask over vertex indices (no self loops).
"""

from __future__ import annotations

from typing import Iterator

from ..famcore import _twin_classes


def maximal_cliques(adj, nv: int) -> Iterator[int]:
    """Yield every maximal clique as a vertex bitmask (Bron-Kerbosch,
    pivoting), one at a time: no list of cliques is built.

    ``expand`` recurses once per vertex of the clique being grown, so it
    uses at most omega + 1 frames.  On the intersection graph of the
    k-sets of [n] with n > 2k, omega = C(n-1, k-1) (EKR), so at most
    C(n-1, k-1) + 1 frames: 16 at (7,3), 57 at (9,4).  That passes
    Python's default limit of 1000 only from C(n-1, k-1) >= 1000 on,
    (15,5) or (21,4), far past any enumeration that finishes."""
    if nv == 0:
        return

    def expand(r: int, p: int, x: int):
        if not p and not x:
            yield r
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
            yield from expand(r | b, p & av, x & av)
            p ^= b
            x |= b

    yield from expand(0, (1 << nv) - 1, 0)


def max_clique_size(adj, nv: int, cand: int, lb: int = 0, host=None) -> int:
    """max(lb, size of the largest clique induced on the cand vertex set).

    lb must be the size of a clique known to exist (it seeds the pruning
    bound); the empty graph has clique size 0.

    Branch and bound with greedy-coloring bounds (Tomita & Seki's MCQ),
    run on an explicit stack of frames (p, size, order, colors, i, sym),
    so the clique size is not limited by the recursion limit.

    host, when given, is (members, cols, classes): vertex v is the member
    mask members[v], cols is famcore.member_columns of the members, and
    classes are twin classes of the host (famcore.twin_classes), so that
    every permutation of the ground set fixing each class setwise maps the
    graph onto itself.  cand must be a union of orbits of that group.
    Each frame then branches once per orbit (orbital branching, Ostrowski
    et al. 2011) of the stabiliser of the members chosen on its path.
    That stabiliser permutes freely within each atom: the classes split by
    every chosen member (A & u, A - u).  Two members share an orbit iff
    they meet every atom in the same number of elements.  Where the frame
    would branch on v it branches on u, the lowest-index vertex of v's
    orbit still in P, and then removes the whole orbit from P.  Soundness
    is the same argument in every frame: P is a union of orbits of the
    frame's group, so a group element carries any clique in P that meets
    the orbit to one through u, still inside P; removing whole orbits
    keeps P a union of orbits; and the child's P & adj[u] is a union of
    orbits of u's stabiliser, because automorphisms fixing u fix adj[u].
    A child's orbits refine its parent's (see _child_orbits), so a frame
    has orbits only if every ancestor had them.  Once the group is
    trivial, or every orbit in P is one vertex, the frame and all its
    descendants run the plain path.
    """
    best = lb if lb > 0 else 0
    if not cand:
        return best
    stack = []
    p, size = cand, 0
    sym = None if host is None else _root_orbits(cand, host)
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
                if sym is not None:
                    # what is left of P still lies in order[0..i], so
                    # colors[i] bounds it as before
                    bit = 1 << v
                    o = bit
                    for orb in sym[1]:
                        if orb & bit:
                            o = orb & p
                            break
                    if not o:
                        continue  # v went with an earlier orbit
                    v = (o & -o).bit_length() - 1
                    np_ = p & adj[v]
                    p ^= o
                    child = _child_orbits(sym, host, v, np_) if np_ & (np_ - 1) else None
                else:
                    np_ = p & adj[v]
                    p ^= 1 << v
                    child = None
                if np_:
                    stack.append((p, size, order, colors, i, sym))
                    p, size, sym = np_, size + 1, child
                    break
                if size + 1 > best:
                    best = size + 1
            elif stack:
                p, size, order, colors, i, sym = stack.pop()
            else:
                return best


def _count_planes(cols, elems: int) -> list[int]:
    """Bit-sliced counter of the columns of the elements in elems: plane j
    holds the members whose count of those elements has bit j set."""
    planes: list[int] = []
    while elems:
        b = elems & -elems
        elems ^= b
        carry = cols[b.bit_length() - 1]
        if not carry:
            continue
        for j, q in enumerate(planes):
            planes[j] = q ^ carry
            carry &= q
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _split(orbits: list[int], planes: list[int]) -> list[int]:
    """Each orbit split by membership in each plane; parts of one vertex
    are dropped, since a lone vertex is its own orbit from then on."""
    for q in planes:
        out = []
        for o in orbits:
            a = o & q
            if a and a != o:
                o ^= a
                if a & (a - 1):
                    out.append(a)
                if o & (o - 1):
                    out.append(o)
            else:
                out.append(o)
        orbits = out
    return orbits


def _root_orbits(cand: int, host):
    """(atoms, orbits) of the group fixing every class, on cand, or None
    when that group is trivial on cand.  Only atoms and orbits of two or
    more elements are kept; a vertex in no listed orbit is its own."""
    _, cols, classes = host
    atoms = [a for a in classes if a & (a - 1)]
    if not atoms or not cand & (cand - 1):
        return None
    orbits = [cand]
    for a in classes:
        orbits = _split(orbits, _count_planes(cols, a))
    return (atoms, orbits) if orbits else None


def _child_orbits(sym, host, u: int, np_: int):
    """(atoms, orbits) of the stabiliser of member u within the frame's
    group, on the child set np_, or None when it is trivial there.

    Each parent orbit is cut down to np_ and split by the counts over the
    halves of the atoms u splits.  Counting one half suffices: the parent
    orbit already fixes the count over the whole atom."""
    atoms, orbits = sym
    members, cols, _ = host
    mu = members[u]
    orbits = [o for o in (o & np_ for o in orbits) if o & (o - 1)]
    if not orbits:
        return None
    new_atoms: list[int] = []
    for a in atoms:
        x = a & mu
        if x and x != a:
            y = a ^ x
            if x & (x - 1):
                new_atoms.append(x)
            if y & (y - 1):
                new_atoms.append(y)
            # count the smaller half: fewer columns to add
            half = x if x.bit_count() <= y.bit_count() else y
            orbits = _split(orbits, _count_planes(cols, half))
        else:
            new_atoms.append(a)
    return (new_atoms, orbits) if new_atoms and orbits else None


def canonical_min(n: int, members, *, known=frozenset()) -> tuple[int, ...]:
    """Lexicographically least relabeling of a family under permutations of [n].

    members are element bitmasks; returns the encode, the sorted tuple of
    relabeled masks.

    Branch and bound: new labels 1, 2, .. are assigned to old elements in
    order, support elements first (a minimal relabeling never puts an
    unused element below a used one).  Per-member lower-bound masks prune
    against the incumbent; a key equal to the incumbent cannot beat it.

    known must hold only canonical encodes (results of this function) of
    families on the same n.  The search stops at the first leaf in known
    and returns it: a leaf is a relabeling of the family, so the family
    is isomorphic to the known one, whose least relabeling is that leaf.
    When the family's class is not in known no leaf is, and the search
    runs to the end as without it.

    Twins (famcore.twin_classes) are branched on once per class: a node
    gives label p to one unassigned element of each class, not to all of
    them.  For unassigned twins a and b, every relabeling through the
    child that labels a is pi, one through the child that labels b is
    pi o (a b), which agrees with pi on every assigned element and maps
    the family to the same relabeled tuple, since (a b) is an
    automorphism.  So the two subtrees hold the same leaves, and the
    least leaf and the first leaf in known are unchanged.  Duplicate
    members turn this off (the twin test reads the member set).
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
    # twin[e]: the twin class of e as an element mask, for each support
    # element whose class holds another one
    twin = {}
    if len(set(ms)) == m:
        for c in _twin_classes(support.bit_length(), ms):
            c &= support
            if c & (c - 1):
                for e in sup:
                    if c >> e & 1:
                        twin[e] = c

    def rec(t, j, p, unassigned, low) -> bool:
        # low is this node's sorted lower-bound list (computed by the
        # parent); True means a leaf in known was reached: stop
        nonlocal best
        if not unassigned:
            if best is None or low < best:
                best = low
            return tuple(low) in known
        bitp = 1 << p
        shift = p + 1
        # a member's bound in the child that gives label p to e: its
        # unassigned elements take the next labels, from p if it holds e,
        # else from p + 1; only the kids searched get their own t and j
        ones = [(1 << x) - 1 for x in j]
        hit = [t[i] | ones[i] << p for i in range(m)]
        miss = [t[i] | ones[i] << shift for i in range(m)]
        kids = []
        firsts = unassigned
        if twin:
            # the first unassigned element of each twin class
            firsts, taken = [], 0
            for e in unassigned:
                if not taken >> e & 1:
                    firsts.append(e)
                    taken |= twin.get(e, 0)
        for e in firsts:
            key = miss.copy()
            for i in cols[e]:
                key[i] = hit[i]
            key.sort()
            kids.append((key, e))
        kids.sort(key=lambda kv: kv[0])
        for key, e in kids:
            if best is not None and key >= best:
                break  # keys ascend; the rest are dominated too
            t2 = t.copy()
            j2 = j.copy()
            for i in cols[e]:
                t2[i] |= bitp
                j2[i] -= 1
            if rec(t2, j2, shift, [u for u in unassigned if u != e], key):
                return True
        return False

    t0 = [0] * m
    j0 = [v.bit_count() for v in ms]
    low0 = sorted((1 << j) - 1 for j in j0)
    rec(t0, j0, 0, sup, low0)
    return tuple(best)
