"""Exact S-cycle search, k-orderedness, degree predicates and path finding.

An S-cycle for a sequence S = v1,...,vk of distinct vertices is a cycle
that encounters the vi in that cyclic order (either traversal direction,
arbitrary vertices interleaved).  The solver is a subset DP over states
(visited-mask, last-vertex) anchored at v1: anchor v_j may only be entered
once v2,...,v_{j-1} are already in the mask, so a "none" answer is
exhaustive.  The DP is bit-parallel over the last-vertex set, which keeps
the per-mask work O(n).

This one DP is the only exact engine.  ``is_k_ordered`` runs it on the
canonical sequences that no earlier cycle has realised, and
``find_hamiltonian_path`` runs it anchored at one endpoint alone.  The
2^n table caps the exact answers at ``EXACT_SOLVER_LIMIT`` vertices; the
DP refuses larger graphs before it allocates.
``enumerate_hamiltonian_cycles`` lists every Hamiltonian cycle and serves
as a reference; no decision procedure here depends on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .core import Graph, GraphError, bit_list


EXACT_SOLVER_LIMIT = 24  # subset-DP masks stop fitting in memory past this


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


def _anchored_dp(adj: Sequence[int], n: int, seq: Sequence[int]) -> list[int]:
    """dp[mask] = bitset of feasible last vertices for anchored paths.

    Refuses n above EXACT_SOLVER_LIMIT before the 2^n table is allocated.
    """
    if n > EXACT_SOLVER_LIMIT:
        raise GraphError(
            f"n={n} exceeds EXACT_SOLVER_LIMIT={EXACT_SOLVER_LIMIT} of the exact subset DP"
        )
    full = (1 << n) - 1
    amask = 0
    for v in seq:
        amask |= 1 << v
    free = full & ~amask
    k = len(seq)
    gate = [0] * (k + 1)
    for t in range(1, k):
        gate[t] = 1 << seq[t]
    start_bit = 1 << seq[0]
    dp = [0] * (full + 1)
    dp[start_bit] = start_bit
    for mask in range(start_bit, full + 1):
        lasts = dp[mask]
        if not lasts:
            continue
        t = (mask & amask).bit_count()
        cand = (free | gate[t]) & ~mask
        while cand:
            nb = cand & -cand
            cand ^= nb
            if lasts & adj[nb.bit_length() - 1]:
                dp[mask | nb] |= nb
    return dp


def _walk_back(adj: Sequence[int], dp: list[int], start: int, last: int, full: int) -> list[int]:
    out = []
    cur, mask = last, full
    while cur != start:
        out.append(cur)
        mask ^= 1 << cur
        preds = dp[mask] & adj[cur]
        cur = (preds & -preds).bit_length() - 1
    out.append(start)
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
    dp = _anchored_dp(g.adj, n, s)
    full = (1 << n) - 1
    ends = dp[full] & g.adj[s[0]]
    if not ends:
        return None
    last = (ends & -ends).bit_length() - 1
    order = _walk_back(g.adj, dp, s[0], last, full)
    cycle = HamCycle(tuple(order))
    assert verify_s_cycle(g, s, cycle).ok
    return cycle


def hamiltonian_cycle(g: Graph) -> HamCycle | None:
    """Some Hamiltonian cycle of g, or None (exhaustive)."""
    if g.n < 3:
        return None
    return find_s_cycle(g, (0, 1))


def is_hamiltonian(g: Graph) -> bool:
    return hamiltonian_cycle(g) is not None


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


def canonical_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    """Dihedral canonical form: rotate the min vertex first, then the
    lexicographically smaller of the two directions."""
    s = tuple(seq)
    i = s.index(min(s))
    fwd = s[i:] + s[:i]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, rev)


def is_k_ordered(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether every k-sequence of distinct vertices has a
    Hamiltonian S-cycle; on failure return a witness sequence.

    Sequences are only examined up to the dihedral action (rotations and
    reversal preserve S-cycle existence), a 2k-fold saving.  The canonical
    sequences are walked in lexicographic order and each one not yet
    struck gets the exact DP of ``find_s_cycle``.  A cycle it returns
    strikes the canonical order it realises on every k-subset, so one DP
    settles many sequences; a "none" ends the walk, and that sequence is
    the lexicographically least failing canonical sequence, the witness.

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

    struck: set[tuple[int, ...]] = set()

    def strike(cycle: HamCycle) -> None:
        struck.update(canonical_sequence(t) for t in combinations(cycle.order, k))

    strike(cycle)
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
            strike(cycle)
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


def _rotation_attempt(
    g: Graph, allowed: int, x: int, targets: int, rng: random.Random, step_cap: int
) -> list[int] | None:
    """Grow a path from x inside ``allowed`` ending on a target vertex,
    using greedy extension plus end rotations."""
    adj = g.adj
    path = [x]
    in_path = 1 << x
    pos = {x: 0}
    tried_ends = 0
    for _ in range(step_cap):
        end = path[-1]
        ext = adj[end] & allowed & ~in_path
        if ext:
            choices = bit_list(ext)
            v = choices[rng.randrange(len(choices))]
            pos[v] = len(path)
            path.append(v)
            in_path |= 1 << v
            tried_ends = 0
            if in_path == allowed and (1 << v) & targets:
                return path
            continue
        if in_path == allowed and (1 << end) & targets:
            return path
        # rotate: pick a neighbour of the endpoint inside the path
        pivots = adj[end] & in_path
        if len(path) >= 2:
            pivots &= ~(1 << path[-2])
        choices = [v for v in bit_list(pivots) if pos[v] + 1 < len(path) - 1]
        if not choices:
            return None
        piv = choices[rng.randrange(len(choices))]
        i = pos[piv]
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
    starts; stage two, for n <= EXACT_SOLVER_LIMIT, is the exhaustive
    subset DP anchored at x, making a "none" answer authoritative.
    Beyond the limit a miss is inconclusive and flagged as such.
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
        dp = _anchored_dp(g.adj, n, (x,))
        if dp[full] >> y & 1:
            path = HamPath(tuple(_walk_back(g.adj, dp, x, y, full)))
            return PathSearchResult(path, "exact", True)
        return PathSearchResult(None, "none", True)
    return PathSearchResult(None, "none", False)


def _is_valid_path(g: Graph, path: HamPath, x: int, y: int) -> bool:
    order = path.order
    if len(set(order)) != len(order) or len(order) != g.n:
        return False
    if order[0] != x or order[-1] != y:
        return False
    return all(g.has_edge(u, v) for u, v in zip(order, order[1:]))
