"""Immutable bitset-backed simple graphs and degree/density primitives.

Vertices are dense integer indices 0..n-1.  Each adjacency row is a Python
int used as a bitset over the vertex indices, which keeps neighbourhood
intersections, degree counts and subset restrictions cheap.  Graphs are
immutable after construction; "removal" operations return new graphs.
Vertex sets are passed around either as iterables of indices or directly
as int bitmasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


# The draws of random.Random's sample and shuffle, taken from its bound
# getrandbits without the stdlib's per-call argument checks and method
# layers: same stream, same results, about half the cost in a hot loop.
# tests/test_core.py compares them with the running interpreter's random
# module.


def sampler(getrandbits, population: list):
    """A function k -> ``random.Random.sample(population, k)``, for
    0 <= k <= len(population), drawing from getrandbits.  The per-size
    choice between the stdlib's two branches and the pool branch's bit
    widths are worked out once, here, for every call.

    Pool branch, taken when an n-list needs less room than a k-set by the
    stdlib's own float size estimate: a pick from the m unpicked draws
    below m and is swapped into slot m - 1, so the picks are the pool's
    last k slots, in reverse draw order.  Set branch: redraw positions
    until an unpicked one comes up."""
    n = len(population)
    uses_pool = []
    for k in range(n + 1):
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        uses_pool.append(n <= setsize)
    steps = [(m - 1, m.bit_length()) for m in range(n, 0, -1)]
    t = n.bit_length()

    def draw(k: int) -> list:
        if uses_pool[k]:
            pool = population.copy()
            for last, width in steps[:k]:
                j = getrandbits(width)
                while j > last:
                    j = getrandbits(width)
                pool[j], pool[last] = pool[last], pool[j]
            return pool[n - k:][::-1]
        result = []
        selected: set[int] = set()
        for _ in range(k):
            j = getrandbits(t)
            while j >= n or j in selected:
                j = getrandbits(t)
            selected.add(j)
            result.append(population[j])
        return result

    return draw


def draw_shuffle(getrandbits, x: list) -> None:
    """``random.Random.shuffle(x)``: reverse Fisher-Yates, in place.  The
    positions i whose draw bound i + 1 has t bits run as one loop, so no
    bit width is computed per element."""
    hi = len(x) - 1
    for t in range(len(x).bit_length(), 1, -1):
        lo = (1 << (t - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = getrandbits(t)
            while j > i:
                j = getrandbits(t)
            x[i], x[j] = x[j], x[i]
        hi = lo - 1


class GraphError(ValueError):
    """Raised for malformed graph construction or invalid vertex sets."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``n`` vertices, one bitset row per vertex.

    Invariants (checked on construction): adjacency is symmetric, there
    are no loops, and every row fits in ``n`` bits.  The symmetry check
    writes the whole matrix as n*n ASCII '0'/'1' bytes (row u at offset
    u*n, bit v at u*n + v) and compares each column slice with its row
    slice, so it costs n*n bytes and no per-edge Python work; only a
    failing check walks the arcs, to name the first one-way arc.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise GraphError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        n = self.n
        full = (1 << n) - 1
        adj = self.adj
        # Symmetry: lay the rows out as one n*n matrix of ASCII '0'/'1', row
        # u at offset u*n with bit v at u*n + v.  The matrix is symmetric
        # when every column slice equals its row slice.
        flat = bytearray(n * n)
        fmt = f"0{n}b"
        for u, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {u} has bits outside 0..{n - 1}")
            if row & (1 << u):
                raise GraphError(f"loop at vertex {u}")
            flat[u * n:(u + 1) * n] = format(row, fmt)[::-1].encode("ascii")
        if all(flat[u::n] == flat[u * n:(u + 1) * n] for u in range(n)):
            return
        # name the first one-way arc in row order
        for u, row in enumerate(adj):
            r = row
            while r:
                b = r & -r
                r ^= b
                v = b.bit_length() - 1
                if not adj[v] & (1 << u):
                    raise GraphError(f"asymmetric edge {u}-{v}")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << u) for u in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, p: int, q: int) -> "Graph":
        """K_{p,q} with side vertices 0..p-1 and p..p+q-1."""
        return cls.from_edges(p + q, [(a, p + b) for a in range(p) for b in range(q)])

    # -- queries -----------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            base = u + 1
            while row:
                b = row & -row
                yield (u, base + b.bit_length() - 1)
                row ^= b

    def without_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the listed edges removed (absent edges ignored)."""
        rows = list(self.adj)
        for u, v in pairs:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def _mask(self, members) -> int:
        if isinstance(members, int):
            m = members
        else:
            members = tuple(members)
            # checked before packing: 1 << v fails for v < 0, and a huge v
            # would allocate its bit
            in_range = all(0 <= v < self.n for v in members)
            m = mask_of(members) if in_range else -1
        if m & ~self.vertex_mask:
            raise GraphError("vertex set has members outside 0..n-1")
        return m


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    min_degree: int
    max_degree: int


def degree_profile(g: Graph) -> DegreeProfile:
    """Per-vertex degrees together with the minimum and maximum degree."""
    degs = tuple(row.bit_count() for row in g.adj)
    if not degs:
        return DegreeProfile((), 0, 0)
    return DegreeProfile(degs, min(degs), max(degs))


def edges_between(g: Graph, a, b) -> int:
    """Count edges with one endpoint in a and the other in b (disjoint sets)."""
    am, bm = g._mask(a), g._mask(b)
    if am & bm:
        raise GraphError("edges_between requires disjoint vertex sets")
    total = 0
    m = am
    while m:
        bit = m & -m
        m ^= bit
        total += (g.adj[bit.bit_length() - 1] & bm).bit_count()
    return total


def density(g: Graph, a, b) -> Fraction:
    """Exact pair density e(a,b) / (|a|*|b|) between disjoint non-empty sets."""
    am, bm = g._mask(a), g._mask(b)
    ca, cb = am.bit_count(), bm.bit_count()
    if ca == 0 or cb == 0:
        raise GraphError("density requires non-empty sets")
    return Fraction(edges_between(g, am, bm), ca * cb)


def induced_subgraph(g: Graph, members) -> tuple[Graph, tuple[int, ...]]:
    """Restriction of g to a non-empty vertex set.

    Returns the induced graph plus the index map: position i of the map
    holds the original label of new vertex i.  Each new row is assembled
    from shifted slices of the old row, one per maximal run of
    consecutive members, so the cost grows with the number of runs
    rather than the number of edges.
    """
    m = g._mask(members)
    if m == 0:
        raise GraphError("induced_subgraph requires a non-empty set")
    # maximal runs of consecutive members: (lowest label, width mask, new
    # index of the lowest label); a run moves down as one block
    runs = []
    old: list[int] = []
    rest = m
    while rest:
        lo = (rest & -rest).bit_length() - 1
        top = rest >> lo
        width = (top ^ (top + 1)).bit_length() - 1
        runs.append((lo, (1 << width) - 1, len(old)))
        old.extend(range(lo, lo + width))
        rest &= ~(((1 << width) - 1) << lo)
    rows = []
    for v in old:
        row = g.adj[v]
        new = 0
        for lo, run_mask, at in runs:
            new |= (row >> lo & run_mask) << at
        rows.append(new)
    return Graph(len(old), tuple(rows)), tuple(old)
