"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithm families from the package:
matching number by exhaustive branching over the lowest uncovered vertex,
Hamiltonian cycles by recursive neighbor-set backtracking, S-cycle
existence by scanning every enumerated cycle, k-orderedness by marking
the order every enumerated cycle realises, regularity by full quantifier
enumeration.  Two exceptions keep a replaced implementation as a
same-answer oracle: the list DP over all 2^n masks that the staged exact
kernel replaced, for the very same cycles and paths, and the regularity
checks with every subset size and Fraction densities, for the very same
verdicts and witnesses.  The per-bit graph6 codec, symmetry check and
induced-subgraph remap are kept the same way, for the very same strings,
messages and graphs, against the whole-row versions that replaced them,
and so is the rotation-extension step that lists its candidates, for the
very same paths.
Slow on purpose; only run at desk scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from kordered import Graph, bit_list, enumerate_hamiltonian_cycles
from kordered.graph6 import _HEADER, Graph6Error, _decode_size, _encode_size
from kordered.regularity import RegularityVerdict, _min_size, _pair_density


def brute_matching_number(g: Graph) -> int:
    n = g.n
    adj = g.adj

    @lru_cache(maxsize=None)
    def best_from(covered: int) -> int:
        v = None
        for u in range(n):
            if not covered & (1 << u):
                v = u
                break
        if v is None:
            return 0
        best = best_from(covered | (1 << v))  # leave v unmatched
        nbrs = adj[v] & ~covered
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            best = max(best, 1 + best_from(covered | (1 << v) | b))
        return best

    result = best_from(0)
    best_from.cache_clear()
    return result


def naive_hamiltonian_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All Hamiltonian cycles, each once: rooted at 0, second < last."""
    n = g.n
    out: list[tuple[int, ...]] = []
    if n < 3:
        return out

    def rec(path: list[int], used: set[int]) -> None:
        if len(path) == n:
            if g.has_edge(path[-1], 0) and path[1] < path[-1]:
                out.append(tuple(path))
            return
        for v in range(n):
            if v not in used and g.has_edge(path[-1], v):
                path.append(v)
                used.add(v)
                rec(path, used)
                path.pop()
                used.remove(v)

    rec([0], {0})
    return out


def cycle_meets_order(order: tuple[int, ...], seq) -> bool:
    """Does the cycle encounter seq in cyclic order (either direction)?"""
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    p0 = pos[seq[0]]
    fwd = [(pos[v] - p0) % n for v in seq]
    bwd = [(p0 - pos[v]) % n for v in seq]
    return all(x < y for x, y in zip(fwd, fwd[1:])) or all(
        x < y for x, y in zip(bwd, bwd[1:])
    )


def canonical_sequence(seq) -> tuple[int, ...]:
    """Dihedral canonical form: rotate the min vertex first, then the
    lexicographically smaller of the two directions."""
    s = tuple(seq)
    i = s.index(min(s))
    fwd = s[i:] + s[:i]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, rev)


def s_cycle_exists_naive(g: Graph, seq) -> bool:
    return any(cycle_meets_order(c, seq) for c in naive_hamiltonian_cycles(g))


def is_k_ordered_by_enumeration(g: Graph, k: int):
    """k-orderedness by enumerating every Hamiltonian cycle.

    Each cycle marks the canonical order it realises on every k-subset
    (rotated to start at the subset's least vertex, then the smaller of
    the two directions).  Returns (True, None), (False, least unmarked
    canonical sequence), or None when g has no Hamiltonian cycle.
    Assumes k >= 4.
    """
    n = g.n
    remaining = {
        t: {(t[0],) + p for p in permutations(t[1:]) if p[0] < p[-1]}
        for t in combinations(range(n), k)
    }
    pos = [0] * n
    hamiltonian = False
    for cyc in enumerate_hamiltonian_cycles(g):
        hamiltonian = True
        for i, v in enumerate(cyc):
            pos[v] = i
        for t, want in remaining.items():
            induced = sorted(t, key=pos.__getitem__)
            j = induced.index(t[0])
            fwd = tuple(induced[j:] + induced[:j])
            rev = (fwd[0],) + tuple(reversed(fwd[1:]))
            want.discard(min(fwd, rev))
    if not hamiltonian:
        return None
    missing = [min(v) for v in remaining.values() if v]
    return (False, min(missing)) if missing else (True, None)


def first_failing_sequence_naive(g: Graph, k: int):
    """The lexicographically least canonical k-sequence with no S-cycle,
    or None.  Canonical: least vertex first, second entry below the last.
    This is ``s_cycle_exists_naive`` with the cycle list built once."""
    cycles = naive_hamiltonian_cycles(g)
    for seq in permutations(range(g.n), k):
        if seq[0] == min(seq) and seq[1] < seq[-1]:
            if not any(cycle_meets_order(c, seq) for c in cycles):
                return seq
    return None


def anchored_list_dp(g: Graph, seq) -> list[int]:
    """dp[mask] = bitset of last vertices of paths from seq[0] that visit
    exactly ``mask`` and enter the other anchors in order.

    The list DP over all 2^n masks that the staged kernel replaced; kept
    as the "same cycle, same path" oracle, so only run it at small n.
    """
    n = g.n
    adj = g.adj
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


def list_dp_walk_back(g: Graph, dp: list[int], start: int, last: int) -> tuple[int, ...]:
    """Read a path back from the full mask; each step takes the
    lowest-index predecessor."""
    out = []
    cur, mask = last, (1 << g.n) - 1
    while cur != start:
        out.append(cur)
        mask ^= 1 << cur
        preds = dp[mask] & g.adj[cur]
        cur = (preds & -preds).bit_length() - 1
    out.append(start)
    out.reverse()
    return tuple(out)


def s_cycle_by_list_dp(g: Graph, seq):
    """The cycle order the list DP returns for seq, or None."""
    if g.n < 3:
        return None
    dp = anchored_list_dp(g, seq)
    ends = dp[(1 << g.n) - 1] & g.adj[seq[0]]
    if not ends:
        return None
    return list_dp_walk_back(g, dp, seq[0], (ends & -ends).bit_length() - 1)


def ham_path_by_list_dp(g: Graph, x: int, y: int):
    """The x-y path order the list DP returns, or None."""
    dp = anchored_list_dp(g, (x,))
    if not dp[(1 << g.n) - 1] >> y & 1:
        return None
    return list_dp_walk_back(g, dp, x, y)


def rotation_attempt_by_listing(
    g: Graph, allowed: int, x: int, targets: int, rng: random.Random, step_cap: int
) -> list[int] | None:
    """Rotation-extension that lists every candidate, draws one with
    ``rng.randrange(len(choices))`` and filters pivots by position: the
    version the r-th-set-bit draw replaced, kept for the very same paths."""
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


def rotation_path_by_listing(g: Graph, x: int, y: int, restarts: int, seed: int):
    """The x-y path order the rotation stage of ``find_hamiltonian_path``
    returns for these restarts and seed, drawn by listing, or None."""
    allowed = g.vertex_mask & ~(1 << y)
    targets = g.adj[y] & allowed
    if not targets:
        return None
    for r in range(restarts):
        rng = random.Random(seed * 1_000_003 + r)
        got = rotation_attempt_by_listing(g, allowed, x, targets, rng, 40 * g.n)
        if got is not None:
            return tuple(got) + (y,)
    return None


def ham_path_exists_naive(g: Graph, x: int, y: int) -> bool:
    n = g.n

    def rec(last: int, used: int) -> bool:
        if used == (1 << n) - 1:
            return last == y
        nbrs = g.adj[last] & ~used
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            v = b.bit_length() - 1
            if v == y and used | b != (1 << n) - 1:
                continue
            if rec(v, used | b):
                return True
        return False

    return rec(x, 1 << x)


def naive_edges_between(g: Graph, a, b) -> int:
    a, b = set(a), set(b)
    count = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) and ((u in a and v in b) or (u in b and v in a)):
                count += 1
    return count


def regular_pair_naive(g: Graph, a, b, eps: Fraction):
    """Full quantifier enumeration of Definition-style regularity.

    Returns (regular, witness) where witness = (X, Y, deviation).
    """
    a, b = sorted(a), sorted(b)
    na, nb = len(a), len(b)

    def dens(xs, ys) -> Fraction:
        e = sum(1 for x in xs for y in ys if g.has_edge(x, y))
        return Fraction(e, len(xs) * len(ys))

    d0 = dens(a, b)
    for sx in range(1, na + 1):
        if Fraction(sx) <= eps * na:
            continue
        for xs in combinations(a, sx):
            for sy in range(1, nb + 1):
                if Fraction(sy) <= eps * nb:
                    continue
                for ys in combinations(b, sy):
                    dev = abs(dens(xs, ys) - d0)
                    if dev >= eps:
                        return False, (xs, ys, dev)
    return True, None


def exact_regularity_all_sizes(
    g: Graph, a_list: list[int], b_list: list[int], eps: Fraction
) -> RegularityVerdict:
    """The exact check the one-size scan replaced: every |X| >= x_min,
    every |Y| >= y_min, densities as Fractions.  Same verdict and witness."""
    na, nb = len(a_list), len(b_list)
    d0 = _pair_density(g, a_list, b_list)
    x_min = _min_size(eps, na)
    y_min = _min_size(eps, nb)
    if x_min > na or y_min > nb:
        return RegularityVerdict(True, "exact")
    for size_x in range(x_min, na + 1):
        for xs in combinations(a_list, size_x):
            xm = 0
            for v in xs:
                xm |= 1 << v
            # degree of each b-vertex into X; extremes over Y of each size
            into_x = [((g.adj[v] & xm).bit_count(), v) for v in b_list]
            hi = sorted(into_x, key=lambda t: (-t[0], t[1]))
            lo = sorted(into_x)
            run_hi = 0
            run_lo = 0
            pref_hi = []
            pref_lo = []
            for i in range(nb):
                run_hi += hi[i][0]
                run_lo += lo[i][0]
                pref_hi.append(run_hi)
                pref_lo.append(run_lo)
            for size_y in range(y_min, nb + 1):
                denom = size_x * size_y
                d_hi = Fraction(pref_hi[size_y - 1], denom)
                if d_hi - d0 >= eps:
                    ys = tuple(sorted(v for _, v in hi[:size_y]))
                    return RegularityVerdict(False, "exact", (tuple(xs), ys, d_hi - d0))
                d_lo = Fraction(pref_lo[size_y - 1], denom)
                if d0 - d_lo >= eps:
                    ys = tuple(sorted(v for _, v in lo[:size_y]))
                    return RegularityVerdict(False, "exact", (tuple(xs), ys, d0 - d_lo))
    return RegularityVerdict(True, "exact")


def sampled_regularity_by_fractions(
    g: Graph,
    a_list: list[int],
    b_list: list[int],
    eps: Fraction,
    samples: int,
    seed: int,
) -> RegularityVerdict:
    """The sampled check with Fraction densities, which the integer
    comparison replaced: same draws, same verdict and witness per seed."""
    na, nb = len(a_list), len(b_list)
    d0 = _pair_density(g, a_list, b_list)
    x_min = _min_size(eps, na)
    y_min = _min_size(eps, nb)
    if x_min > na or y_min > nb:
        return RegularityVerdict(True, "sampled")
    rng = random.Random(seed)
    for _ in range(samples):
        sx = rng.randint(x_min, na)
        sy = rng.randint(y_min, nb)
        xs = sorted(rng.sample(a_list, sx))
        ys = sorted(rng.sample(b_list, sy))
        dev = abs(_pair_density(g, xs, ys) - d0)
        if dev >= eps:
            return RegularityVerdict(False, "sampled", (tuple(xs), tuple(ys), dev))
    return RegularityVerdict(True, "sampled")


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def graph_error_per_arc(n: int, rows) -> str | None:
    """The GraphError message Graph(n, rows) raises, found arc by arc.

    Out-of-range bits and loops row by row first, then the first arc in
    row order whose reverse is missing; None for a valid graph.
    """
    full = (1 << n) - 1
    for u, row in enumerate(rows):
        if row & ~full:
            return f"row {u} has bits outside 0..{n - 1}"
        if row & (1 << u):
            return f"loop at vertex {u}"
    for u, row in enumerate(rows):
        for v in range(n):
            if row >> v & 1 and not rows[v] >> u & 1:
                return f"asymmetric edge {u}-{v}"
    return None


def induced_subgraph_per_bit(g: Graph, members: int) -> tuple[Graph, tuple[int, ...]]:
    """induced_subgraph by remapping each edge bit through a label table."""
    old = [v for v in range(g.n) if members >> v & 1]
    new_index = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        r = g.adj[v] & members
        while r:
            b = r & -r
            r ^= b
            row |= 1 << new_index[b.bit_length() - 1]
        rows.append(row)
    return Graph(len(old), tuple(rows)), tuple(old)


def encode_graph6_per_bit(g: Graph) -> str:
    """graph6 encoding one matrix bit at a time, six bits per byte."""
    out = bytearray(_encode_size(g.n))
    buf = 0
    nbits = 0
    for col in range(1, g.n):
        col_bit = 1 << col
        for row in range(col):
            buf = (buf << 1) | (1 if g.adj[row] & col_bit else 0)
            nbits += 1
            if nbits == 6:
                out.append(buf + 63)
                buf = 0
                nbits = 0
    if nbits:
        out.append((buf << (6 - nbits)) + 63)
    return out.decode("ascii")


def decode_graph6_per_bit(text: str) -> Graph:
    """graph6 decoding byte by byte and bit by bit, with the same errors."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 input") from exc
    for i, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte!r} outside graph6 alphabet", i)
    n, consumed = _decode_size(data)
    body = data[consumed:]
    nbits = n * (n - 1) // 2
    needed = (nbits + 5) // 6
    if len(body) != needed:
        raise Graph6Error(
            f"expected {needed} data bytes for n={n}, got {len(body)}",
            consumed + min(len(body), needed),
        )
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            byte = body[idx // 6]
            if (byte - 63) >> (5 - idx % 6) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            idx += 1
    if nbits % 6:
        tail = (body[-1] - 63) & ((1 << (6 - nbits % 6)) - 1)
        if tail:
            raise Graph6Error("non-zero padding bits", consumed + len(body) - 1)
    return Graph(n, tuple(rows))
