"""Maximum matching in general and bipartite graphs.

General graphs use augmenting-path search with blossom contraction; the
bipartite routine is an alternating-BFS/DFS layering that also extracts a
minimum vertex cover certificate, so every answer ships with its Konig
equality check.  Both are deterministic: augmenting always starts from the
lowest-index free vertex and adjacency is scanned in ascending order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Graph, GraphError, bit_list, bits


@dataclass(frozen=True)
class Matching:
    """A set of pairwise-disjoint edges of a host graph on n vertices."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = 0
        for u, v in self.edges:
            m = (1 << u) | (1 << v)
            if u == v or seen & m:
                raise GraphError("matching edges must be pairwise disjoint")
            seen |= m

    def __len__(self) -> int:
        return len(self.edges)


def _edges_from_match(n: int, match: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple((u, match[u]) for u in range(n) if match[u] > u)


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching via augmenting paths with blossom shrinking."""
    n = g.n
    adj = [bit_list(row) for row in g.adj]
    match = [-1] * n
    # greedy seed keeps the number of augmenting phases small
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    parent = [-1] * n
    base = list(range(n))

    def find_lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def augment_from(root: int) -> bool:
        for i in range(n):
            parent[i] = -1
            base[i] = i
        in_queue = [False] * n
        queue = deque([root])
        in_queue[root] = True
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur_base = find_lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # flip the alternating path back to the root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
        return False

    for u in range(n):
        if match[u] == -1:
            augment_from(u)
    return Matching(n, _edges_from_match(n, match))


def bipartite_matching_and_cover(g: Graph, a, b) -> tuple[Matching, frozenset[int]]:
    """Maximum matching restricted to a-b edges plus a minimum vertex cover.

    Only edges with one endpoint in each side are considered; anything else
    is dropped by construction.  The returned cover has |cover| == |matching|
    (Konig) and meets every a-b edge.
    """
    am, bm = g._mask(a), g._mask(b)
    if am & bm:
        raise GraphError("bipartite sides must be disjoint")
    a_list = bit_list(am)
    b_list = bit_list(bm)
    adj = {u: [v for v in bits(g.adj[u] & bm)] for u in a_list}

    match_a = {u: -1 for u in a_list}
    match_b = {v: -1 for v in b_list}
    INF = len(a_list) + 1

    def bfs_layers() -> tuple[bool, dict[int, int]]:
        dist = {}
        queue = deque()
        for u in a_list:
            if match_a[u] == -1:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_b[v]
                if w == -1:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found, dist

    def try_augment(u: int, dist: dict[int, int]) -> bool:
        for v in adj[u]:
            w = match_b[v]
            if w == -1 or (dist.get(w) == dist.get(u, INF) + 1 and try_augment(w, dist)):
                match_a[u] = v
                match_b[v] = u
                return True
        dist[u] = INF
        return False

    while True:
        found, dist = bfs_layers()
        if not found:
            break
        for u in a_list:
            if match_a[u] == -1:
                try_augment(u, dist)

    edges = tuple(sorted((u, match_a[u]) for u in a_list if match_a[u] != -1))
    matching = Matching(g.n, edges)

    # Konig: alternating reachability from the free a-side vertices
    reach = set(u for u in a_list if match_a[u] == -1)
    queue = deque(reach)
    reach_b: set[int] = set()
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in reach_b or match_a[u] == v:
                continue
            reach_b.add(v)
            w = match_b[v]
            if w != -1 and w not in reach:
                reach.add(w)
                queue.append(w)
    cover = frozenset(u for u in a_list if u not in reach) | frozenset(reach_b)
    return matching, cover
