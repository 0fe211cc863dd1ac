"""Output checks written independently of the kordered package.

Nothing here imports kordered: graphs are the benchmark's own lists of
adjacency bitsets, encoded to graph6 by this module, so a defect in the
package's codec, cycle verifier or solvers cannot hide from these checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def encode_graph6(n: int, rows: list[int]) -> str:
    """graph6 text for n <= 258047 vertices (upper triangle, column order)."""
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    acc = nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (rows[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        for u in range(len(rows)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def cycle_problem(rows: list[int], order, seq) -> str | None:
    """Why ``order`` is not a Hamiltonian cycle meeting ``seq`` in cyclic
    order (either direction), or None when it is one."""
    n = len(rows)
    if sorted(order) != list(range(n)):
        return "not a permutation of the vertices"
    for i, v in enumerate(order):
        if not rows[v] >> order[i - 1] & 1:
            return f"non-edge {order[i - 1]}-{v}"
    return _order_problem(order, seq)


def path_problem(rows: list[int], order, x: int, y: int) -> str | None:
    n = len(rows)
    if sorted(order) != list(range(n)):
        return "not a permutation of the vertices"
    if order[0] != x or order[-1] != y:
        return "wrong endpoints"
    for u, v in zip(order, order[1:]):
        if not rows[u] >> v & 1:
            return f"non-edge {u}-{v}"
    return None


def _order_problem(order, seq) -> str | None:
    members = set(seq)
    start = list(order).index(seq[0])
    n = len(order)
    for step in (1, -1):
        met = [order[(start + step * i) % n] for i in range(n)]
        if [v for v in met if v in members] == list(seq):
            return None
    return "sequence not met in cyclic order"


def has_s_cycle(rows: list[int], seq) -> bool:
    """Exhaustive search for a Hamiltonian cycle through ``seq`` in order.

    Layered reachability over (visited set, end vertex): the cycle is
    walked from seq[0] and a sequence vertex may only be entered when all
    earlier ones are visited.  Walking one direction suffices, because an
    undirected cycle can be read either way round.  Meant for n <= 12.
    """
    n = len(rows)
    seq_mask = sum(1 << v for v in seq)
    layer = {1 << seq[0]: {seq[0]}}
    for _ in range(n - 1):
        nxt: dict[int, set[int]] = {}
        for mask, ends in layer.items():
            t = bin(mask & seq_mask).count("1")
            allowed = ((1 << n) - 1) & ~mask & ~seq_mask
            if t < len(seq):
                allowed |= 1 << seq[t]
            for v in ends:
                step = rows[v] & allowed
                for w in range(n):
                    if step >> w & 1:
                        nxt.setdefault(mask | 1 << w, set()).add(w)
        layer = nxt
    full = (1 << n) - 1
    return any(rows[v] >> seq[0] & 1 for v in layer.get(full, ()))


def degree_sum_floor(rows: list[int]) -> int:
    """min deg(u) + deg(v) over non-adjacent pairs (large when complete)."""
    n = len(rows)
    deg = [bin(r).count("1") for r in rows]
    return min(
        (deg[u] + deg[v] for u, v in combinations(range(n), 2) if not rows[u] >> v & 1),
        default=2 * n,
    )


def forced_none(rows: list[int], seq) -> bool:
    """True when seq = (a, x, v, b) and v has exactly the neighbours a and b.

    Every Hamiltonian cycle then runs a-v-b: read one way it meets v
    straight after a, before x; read the other way it meets b straight
    before v.  Neither reading is a, x, v, b, so no S-cycle exists.
    """
    if len(seq) != 4:
        return False
    a, _, v, b = seq
    return rows[v] == (1 << a | 1 << b)


def pair_density(rows: list[int], xs, ys) -> Fraction:
    ym = sum(1 << y for y in ys)
    edges = sum(bin(rows[x] & ym).count("1") for x in xs)
    return Fraction(edges, len(xs) * len(ys))
