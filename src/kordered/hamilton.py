"""Exact S-cycle search, k-orderedness, degree predicates and path finding.

An S-cycle for a sequence S = v1,...,vk of distinct vertices is a cycle
that encounters the vi in that cyclic order (either traversal direction,
arbitrary vertices interleaved).  The solver is a staged, bit-sliced DP
over paths from v1 that enter v2,...,vk in that order, so a "none" answer
is exhaustive.  Stage t holds, per last vertex, one int whose bit F says
whether such a path has visited v1..vt and exactly the subset F of the
n-k other vertices.  A step extends every state of one last vertex at
once, by a mask and a shift of that int, so the interpreter works per
vertex and round, not per subset.

This one kernel is the only exact engine.  ``is_k_ordered`` runs it on
the canonical sequences that no earlier cycle has realised; each cycle
found strikes the canonical forms of all its k-subsets, which
``realised_sequences`` reads off the cycle directly, with no per-subset
canonicalisation.  ``find_hamiltonian_path`` runs the kernel anchored at
one endpoint, with the other left out of the free set and appended after
the walk back, so it places n-2 vertices like a k=2 cycle search.  The
kernel's k stages of 2^m-bit ints, m the free vertices, cap the exact
answers at ``EXACT_SOLVER_LIMIT`` vertices; the kernel refuses larger
graphs before it allocates.  ``enumerate_hamiltonian_cycles`` lists
every Hamiltonian cycle and serves as a reference; no decision procedure
here depends on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .core import Graph, GraphError, bit_list, bits


# the worst cases, a Hamiltonian cycle or path in K24 (22 free vertices),
# take ~0.6-0.85 s and ~77 MB (2 vCPU, Python 3.11)
EXACT_SOLVER_LIMIT = 24


class NotHamiltonianError(ValueError):
    """The operation requires a Hamiltonian graph and the input is not one."""


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle given as a permutation of 0..n-1, read cyclically."""

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class HamPath:
    """A path given as its vertex order; endpoints are order[0], order[-1]."""

    order: tuple[int, ...]

    @property
    def ends(self) -> tuple[int, int]:
        return self.order[0], self.order[-1]

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PathSearchResult:
    """Outcome of find_hamiltonian_path.

    ``authoritative`` is True when a "no path" answer is exhaustive (the
    exact DP ran); heuristic-only misses are flagged inconclusive instead.
    """

    path: HamPath | None
    method: str  # "rotation", "exact" or "none"
    authoritative: bool

    def __bool__(self) -> bool:
        return self.path is not None


def _check_sequence(g: Graph, seq: Sequence[int]) -> tuple[int, ...]:
    s = tuple(seq)
    if len(s) < 2:
        raise GraphError("ordered sequence needs at least 2 vertices")
    if len(s) > g.n:
        raise GraphError("ordered sequence longer than the vertex count")
    if len(set(s)) != len(s):
        raise GraphError("ordered sequence has repeated vertices")
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"sequence vertex {v} out of range")
    return s


def _lacking_masks(m: int) -> list[int]:
    """lacks[i] has bit F set, for F in 0..2^m-1, exactly when F lacks bit i."""
    size = 1 << m
    out = []
    for i in range(m):
        pattern, width = (1 << (1 << i)) - 1, 2 << i  # 2^i ones, then 2^i zeros
        while width < size:
            pattern |= pattern << width
            width <<= 1
        out.append(pattern)
    return out


def _staged_reach(
    adj: Sequence[int], n: int, seq: Sequence[int], skip: int = 0
) -> tuple[list[list[int]], dict[int, int]]:
    """Reachable states of paths from seq[0] that enter the anchors in order
    and never visit a vertex of the mask ``skip``.

    Stage t means anchors seq[0..t] are visited and seq[t] was the last one
    entered.  ``reach[t][v]`` is one int over the 2^m subsets F of the m
    free vertices (neither anchors nor skipped), numbered by ``slot``: bit
    F is set when a path visits seq[0..t] plus exactly F and ends at v.
    Anchors never enter F.  A free move to w ORs the ints of w's
    neighbours, keeps the subsets that lack w and shifts them by
    2^slot[w]; a stage is closed by frontier rounds that OR only the bits
    new in the last round.  Entering seq[t+1] ORs its neighbours' ints
    into stage t+1 once stage t is closed.  Stages stop early, fewer than
    k, once one is empty.

    Memory: the stages hold about k*(m+1)*2^m bits, the free moves one
    2^m-bit mask per free vertex, and a round's new bits at most as much
    again.  Refuses n above EXACT_SOLVER_LIMIT before anything is
    allocated.
    """
    if n > EXACT_SOLVER_LIMIT:
        raise GraphError(
            f"n={n} exceeds EXACT_SOLVER_LIMIT={EXACT_SOLVER_LIMIT} of the exact subset DP"
        )
    amask = skip
    for v in seq:
        amask |= 1 << v
    free = [v for v in range(n) if not amask >> v & 1]
    slot = {v: i for i, v in enumerate(free)}
    # one free move per free vertex: (vertex, neighbours, subsets lacking it, shift)
    moves = [(w, adj[w], lack, 1 << i)
             for (i, w), lack in zip(enumerate(free), _lacking_masks(len(free)))]
    stages: list[list[int]] = []
    entry = 1  # seq[0] alone: the empty free subset
    for t, a in enumerate(seq):
        if t:
            entry = 0
            for u in bits(adj[a]):
                entry |= reach[u]
            if not entry:
                break
        reach = [0] * n
        reach[a] = entry
        delta = {a: entry}
        changed = 1 << a
        while changed:
            grown = {}
            grew = 0
            for w, row, lack, shift in moves:
                nb = row & changed
                if not nb:
                    continue
                acc = 0
                while nb:
                    b = nb & -nb
                    nb ^= b
                    acc |= delta[b.bit_length() - 1]
                old = reach[w]
                merged = old | (acc & lack) << shift
                new = merged ^ old
                if new:
                    reach[w] = merged
                    grown[w] = new
                    grew |= 1 << w
            delta, changed = grown, grew
        stages.append(reach)
    return stages, slot


def _anchored_path(
    adj: Sequence[int], n: int, seq: Sequence[int], ends: int, skip: int = 0
) -> list[int] | None:
    """A path from seq[0] through every vertex outside the mask ``skip``
    that enters the anchors in order and stops on a vertex of ``ends``, or
    None (exhaustive).

    The last vertex is the lowest-index one in ``ends`` the kernel reaches
    with every such vertex visited, and each step back takes the
    lowest-index predecessor, so the answer is a function of the graph,
    seq and skip alone.
    """
    stages, slot = _staged_reach(adj, n, seq, skip)
    if len(stages) < len(seq):
        return None
    t = len(stages) - 1
    f = (1 << len(slot)) - 1
    reach = stages[t]
    for cur in bits(ends):
        if reach[cur] >> f & 1:
            break
    else:
        return None
    out = []
    while True:
        out.append(cur)
        if cur == seq[t]:
            if t == 0:
                break
            t -= 1
        else:
            f ^= 1 << slot[cur]
        reach = stages[t]
        for u in bits(adj[cur]):
            if reach[u] >> f & 1:
                cur = u
                break
    out.reverse()
    return out


def find_s_cycle(g: Graph, seq: Sequence[int]) -> HamCycle | None:
    """Hamiltonian cycle encountering seq in cyclic order, or None.

    The search is exhaustive: None means no such cycle exists.
    """
    s = _check_sequence(g, seq)
    n = g.n
    if n < 3:
        return None
    order = _anchored_path(g.adj, n, s, g.adj[s[0]])
    if order is None:
        return None
    cycle = HamCycle(tuple(order))
    assert verify_s_cycle(g, s, cycle).ok
    return cycle


def hamiltonian_cycle(g: Graph) -> HamCycle | None:
    """Some Hamiltonian cycle of g, or None (exhaustive)."""
    if g.n < 3:
        return None
    return find_s_cycle(g, (0, 1))


def verify_s_cycle(g: Graph, seq: Sequence[int], cycle: HamCycle) -> VerifyResult:
    """Certificate check: valid Hamiltonian cycle that meets seq in order.

    The order check scans one pass around the cycle starting at seq[0],
    in each of the two directions.  Failures carry a reason code:
    "missing vertex", "non-edge" or "order violated".
    """
    order = tuple(cycle.order)
    n = g.n
    if len(order) != n or set(order) != set(range(n)):
        return VerifyResult(False, "missing vertex")
    for i in range(n):
        if not g.has_edge(order[i], order[(i + 1) % n]):
            return VerifyResult(False, "non-edge")
    s = tuple(seq)
    if any(not 0 <= v < n for v in s):
        return VerifyResult(False, "missing vertex")
    if len(set(s)) != len(s) or len(s) < 2:
        return VerifyResult(False, "order violated")
    pos = {v: i for i, v in enumerate(order)}
    p0 = pos[s[0]]
    forward = [(pos[v] - p0) % n for v in s]
    backward = [(p0 - pos[v]) % n for v in s]
    if all(x < y for x, y in zip(forward, forward[1:])):
        return VerifyResult(True)
    if all(x < y for x, y in zip(backward, backward[1:])):
        return VerifyResult(True)
    return VerifyResult(False, "order violated")


def enumerate_hamiltonian_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every Hamiltonian cycle once, rooted at 0 with order[1] < order[-1]."""
    n = g.n
    if n < 3:
        return
    adj = g.adj
    path = [0] * n
    cand = [0] * n
    used = 1
    depth = 1
    cand[1] = adj[0]
    while True:
        c = cand[depth]
        if c == 0:
            depth -= 1
            if depth == 0:
                return
            used ^= 1 << path[depth]
            continue
        b = c & -c
        cand[depth] = c ^ b
        v = b.bit_length() - 1
        path[depth] = v
        if depth == n - 1:
            if (adj[v] & 1) and path[1] < v:
                yield tuple(path)
            continue
        used |= b
        depth += 1
        cand[depth] = adj[v] & ~used


def realised_sequences(order: Sequence[int], k: int) -> set[tuple[int, ...]]:
    """The canonical form of every t in ``combinations(order, k)`` for a
    cycle with vertex order ``order``: least vertex first, then the
    lexicographically smaller of the two directions.  Built without
    canonicalising each t.

    A subset whose least vertex is m reads, around the cycle after m, as
    m followed by a (k-1)-combination c of the vertices above m in that
    cyclic order; its canonical form is (m,)+c when c[0] < c[-1] and
    (m,)+c reversed otherwise.
    """
    ring = tuple(order)
    out: set[tuple[int, ...]] = set()
    for m in range(len(ring) - k + 1):
        p = ring.index(m)
        above = [v for v in ring[p + 1:] + ring[:p] if v > m]
        head = (m,)
        out.update([head + c if c[0] < c[-1] else head + c[::-1]
                    for c in combinations(above, k - 1)])
    return out


def is_k_ordered(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether every k-sequence of distinct vertices has a
    Hamiltonian S-cycle; on failure return a witness sequence.

    Sequences are only examined up to the dihedral action (rotations and
    reversal preserve S-cycle existence), a 2k-fold saving.  The canonical
    sequences are walked in lexicographic order and each one not yet
    struck gets the exact DP of ``find_s_cycle``.  A cycle it returns
    strikes the canonical order it realises on every k-subset, so one DP
    settles many sequences (``realised_sequences`` reads those orders off
    the cycle); a "none" ends the walk, and that sequence is the
    lexicographically least failing canonical sequence, the witness.

    Raises NotHamiltonianError when g has no Hamiltonian cycle at all.
    """
    if not 2 <= k <= g.n:
        raise GraphError(f"k={k} outside 2..n")
    cycle = hamiltonian_cycle(g)
    if cycle is None:
        raise NotHamiltonianError("graph has no Hamiltonian cycle")
    if k <= 3:
        # every Hamiltonian graph is 2- and 3-ordered
        return True, None

    struck = realised_sequences(cycle.order, k)
    # a canonical sequence is its least vertex a, then an ordering of k-1
    # larger vertices whose first entry is below its last: lexicographic order
    for a in range(g.n):
        for p in permutations(range(a + 1, g.n), k - 1):
            s = (a,) + p
            if p[0] > p[-1] or s in struck:
                continue
            cycle = find_s_cycle(g, s)
            if cycle is None:
                return False, s
            struck |= realised_sequences(cycle.order, k)
    return True, None


# -- degree-sequence predicates ---------------------------------------


def posa_condition(g: Graph) -> bool:
    """Sorted-degree test d_{k-1} > k for all 2 <= k <= n/2 (1-indexed);
    sufficient for Hamiltonian-connectedness."""
    n = g.n
    if n < 3:
        raise GraphError("needs at least 3 vertices")
    degs = sorted(row.bit_count() for row in g.adj)
    for k in range(2, n // 2 + 1):
        if degs[k - 2] <= k:
            return False
    return True


def bipartite_posa_condition(g: Graph, a, b) -> bool:
    """Side-wise sorted-degree test for balanced bipartite graphs:
    d_{j-1} > j for all 2 <= j <= (m+1)/2, on both sides (cross edges only)."""
    am, bm = g._mask(a), g._mask(b)
    if am & bm:
        raise GraphError("sides must be disjoint")
    a_list, b_list = bit_list(am), bit_list(bm)
    if len(a_list) != len(b_list) or len(a_list) < 2:
        raise GraphError("sides must have equal size >= 2")
    m = len(a_list)
    j_max = (m + 1) // 2
    for side, other in ((a_list, bm), (b_list, am)):
        degs = sorted((g.adj[v] & other).bit_count() for v in side)
        for j in range(2, j_max + 1):
            if degs[j - 2] <= j:
                return False
    return True


# -- Hamiltonian path between fixed endpoints --------------------------


def _nth_bit(mask: int, r: int) -> int:
    """Position of the r-th lowest set bit of mask, counting from 0: the
    same as ``bit_list(mask)[r]``, found by binary search on bit counts
    instead of listing the bits.  Needs 0 <= r < mask.bit_count()."""
    # fewer than r+1 set bits lie below lo, and more than r below hi
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask & ((1 << mid) - 1)).bit_count() > r:
            hi = mid
        else:
            lo = mid
    return lo


def _rotation_attempt(
    g: Graph, allowed: int, x: int, targets: int, rng: random.Random, step_cap: int
) -> list[int] | None:
    """Grow a path from x inside ``allowed`` ending on a target vertex,
    using greedy extension plus end rotations.

    Each extension and each pivot is the r-th lowest candidate for
    r = rng.randrange(candidates), so a seed fixes the path."""
    adj = g.adj
    path = [x]
    in_path = 1 << x
    pos = {x: 0}
    tried_ends = 0
    for _ in range(step_cap):
        end = path[-1]
        ext = adj[end] & allowed & ~in_path
        if ext:
            v = _nth_bit(ext, rng.randrange(ext.bit_count()))
            pos[v] = len(path)
            path.append(v)
            in_path |= 1 << v
            tried_ends = 0
            if in_path == allowed and (1 << v) & targets:
                return path
            continue
        if in_path == allowed and (1 << end) & targets:
            return path
        # rotate: pick a neighbour of the endpoint inside the path, other
        # than its predecessor (that rotation would change nothing)
        pivots = adj[end] & in_path
        if len(path) >= 2:
            pivots &= ~(1 << path[-2])
        if not pivots:
            return None
        i = pos[_nth_bit(pivots, rng.randrange(pivots.bit_count()))]
        path[i + 1:] = reversed(path[i + 1:])
        for j in range(i + 1, len(path)):
            pos[path[j]] = j
        tried_ends += 1
        if tried_ends > len(path) + 4:
            return None
    return None


def find_hamiltonian_path(
    g: Graph,
    x: int,
    y: int,
    *,
    restarts: int = 50,
    seed: int = 0,
) -> PathSearchResult:
    """Hamiltonian path from x to y.

    Stage one is rotation-extension with ``restarts`` seeded random
    starts; each step takes the r-th lowest candidate bit for a seeded
    r, so a seed fixes the path.  Stage two, for n <= EXACT_SOLVER_LIMIT,
    is the exhaustive kernel anchored at x over the n-2 vertices other
    than x and y, ending on a neighbour of y, making a "none" answer
    authoritative.  Beyond the limit a miss is inconclusive and flagged
    as such.
    """
    if x == y:
        raise GraphError("endpoints must differ")
    n = g.n
    if not (0 <= x < n and 0 <= y < n):
        raise GraphError("endpoint out of range")
    if n == 2:
        if g.has_edge(x, y):
            return PathSearchResult(HamPath((x, y)), "exact", True)
        return PathSearchResult(None, "none", True)

    full = g.vertex_mask
    allowed = full & ~(1 << y)
    targets = g.adj[y] & allowed
    if targets:
        step_cap = 40 * n
        for r in range(restarts):
            rng = random.Random(seed * 1_000_003 + r)
            got = _rotation_attempt(g, allowed, x, targets, rng, step_cap)
            if got is not None:
                path = HamPath(tuple(got) + (y,))
                assert _is_valid_path(g, path, x, y)
                return PathSearchResult(path, "rotation", True)
    if n <= EXACT_SOLVER_LIMIT:
        # y is the fixed last vertex: the DP leaves it out, ends on a
        # neighbour of it, and y is appended
        order = _anchored_path(g.adj, n, (x,), g.adj[y], skip=1 << y)
        if order is not None:
            return PathSearchResult(HamPath(tuple(order) + (y,)), "exact", True)
        return PathSearchResult(None, "none", True)
    return PathSearchResult(None, "none", False)


def _is_valid_path(g: Graph, path: HamPath, x: int, y: int) -> bool:
    order = path.order
    if len(set(order)) != len(order) or len(order) != g.n:
        return False
    if order[0] != x or order[-1] != y:
        return False
    return all(g.has_edge(u, v) for u, v in zip(order, order[1:]))
