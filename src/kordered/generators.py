"""Instance generators: the sharpness construction, extremal-case synthetic
instances, and random graphs with a minimum-degree floor.

All generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Graph, bits, density, degree_profile, draw_shuffle


class ConstructionError(ValueError):
    """Raised when requested generator parameters are infeasible."""


# share of the cross edges the dense bipartite generator deletes
DELETE_FRAC = 0.05


def _link(rows: list[int], u: int, v: int) -> None:
    rows[u] |= 1 << v
    rows[v] |= 1 << u


def _clique_rows(n: int, na: int) -> list[int]:
    """Adjacency rows of two disjoint cliques on 0..na-1 and na..n-1."""
    a_mask = (1 << na) - 1
    b_mask = ((1 << n) - 1) ^ a_mask
    return [(a_mask if v < na else b_mask) ^ (1 << v) for v in range(n)]


def min_degree_threshold(n: int, k: int) -> int:
    """The minimum-degree floor ceil(n/2) + floor(k/2) - 1 that forces
    k-ordered Hamiltonicity for large n."""
    return (n + 1) // 2 + k // 2 - 1


def sharpness_min_degree(n: int, k: int) -> int:
    """Minimum degree ceil(n/2) + floor(k/2) - 2 achieved by the sharpness
    construction (one below the forcing threshold)."""
    return (n + 1) // 2 + k // 2 - 2


@dataclass(frozen=True)
class SharpnessGraph:
    """Two cliques U, W joined through small connector sets, plus the
    ordered witness sequence that no Hamiltonian cycle can realise.

    The u_i are indices 0..floor(n/2)-1, the w_j follow.  Cross edges are
    exactly U x {w_1..w_h} and W x {u_1..u_{h-1}} with h = floor(k/2):
    every side switch of a cycle must pass through a connector, and the
    witness demands more switches than the connectors can serve.
    """

    graph: Graph
    u_side: tuple[int, ...]
    w_side: tuple[int, ...]
    witness: tuple[int, ...]
    n: int
    k: int

    @property
    def min_degree(self) -> int:
        return degree_profile(self.graph).min_degree


def build_sharpness_graph(n: int, k: int) -> SharpnessGraph:
    """Build the extremal graph showing the degree threshold is tight.

    Requires n >= 4 and 2 <= k <= floor(n/2) (the construction's validity
    boundary).  The 1-based labels map as u_i -> i-1 and
    w_j -> floor(n/2) + j - 1.
    """
    if n < 4:
        raise ConstructionError("need n >= 4")
    if not 2 <= k <= n // 2:
        raise ConstructionError(f"k={k} outside 2..floor(n/2) for n={n}")
    nu = n // 2
    nw = n - nu
    h = k // 2

    def u(i: int) -> int:  # 1-based
        return i - 1

    def w(j: int) -> int:  # 1-based
        return nu + j - 1

    rows = _clique_rows(n, nu)
    for i in range(1, nu + 1):
        for j in range(1, h + 1):
            _link(rows, u(i), w(j))
    for j in range(1, nw + 1):
        for i in range(1, h):
            _link(rows, u(i), w(j))

    witness: list[int] = []
    for i in range(1, h + 1):
        witness.append(u(h + i - 1))
        witness.append(w(h + i))
    if k % 2 == 1:
        witness.append(u(2 * h))

    return SharpnessGraph(
        graph=Graph(n, tuple(rows)),
        u_side=tuple(range(nu)),
        w_side=tuple(range(nu, n)),
        witness=tuple(witness),
        n=n,
        k=k,
    )


@dataclass(frozen=True)
class ClusterInstance:
    """A generated two-cluster instance with its achieved statistics."""

    graph: Graph
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    min_degree: int
    cross_density: Fraction
    params: dict


def _cluster_instance(rows: list[int], na: int, params: dict) -> ClusterInstance:
    """Freeze the rows into a graph with sides 0..na-1 and na..n-1."""
    g = Graph(len(rows), tuple(rows))
    side_a, side_b = tuple(range(na)), tuple(range(na, g.n))
    return ClusterInstance(
        graph=g,
        side_a=side_a,
        side_b=side_b,
        min_degree=degree_profile(g).min_degree,
        cross_density=density(g, side_a, side_b),
        params=params,
    )


def build_sparse_cut_instance(
    n: int, k: int, cut_degree: int | None = None, seed: int = 0
) -> ClusterInstance:
    """Two cliques with few, evenly spread cross edges.

    Every vertex ends with degree >= min_degree_threshold(n, k) while the
    cross density d(A,B) stays tiny.  Cross edges are laid out round-robin
    (seeded shifts) so cross degrees stay balanced.
    """
    if n < 8:
        raise ConstructionError("need n >= 8")
    na = n // 2
    nb = n - na
    need_a = min_degree_threshold(n, k) - (na - 1)
    need_b = min_degree_threshold(n, k) - (nb - 1)
    if cut_degree is None:
        cut_degree = max(need_a, need_b, 1)
    if cut_degree < max(need_a, need_b, 1):
        raise ConstructionError(
            f"cut_degree={cut_degree} below the degree floor (need {max(need_a, need_b, 1)})"
        )
    if cut_degree > min(na, nb):
        raise ConstructionError("cut_degree larger than the opposite side")

    rng = random.Random(seed)
    rows = _clique_rows(n, na)
    a_mask = (1 << na) - 1
    for t in rng.sample(range(nb), cut_degree):
        for i in range(na):
            _link(rows, i, na + (i + t) % nb)
    # the smaller side's round-robin can leave b-vertices short when na < nb;
    # pair them with the a-vertices of least cross degree
    for v in range(na, n):
        need = cut_degree - (rows[v] & a_mask).bit_count()
        if need > 0:
            by_load = sorted(bits(a_mask & ~rows[v]), key=lambda u: (rows[u] >> na).bit_count())
            for u in by_load[:need]:
                _link(rows, u, v)
    return _cluster_instance(
        rows, na, {"kind": "sparse", "n": n, "k": k, "cut_degree": cut_degree, "seed": seed}
    )


def build_dense_bipartite_instance(
    n: int, k: int, imbalance: int = 0, seed: int = 0
) -> ClusterInstance:
    """Near-complete bipartite instance with |A| - |B| = imbalance.

    A seeded fraction ``DELETE_FRAC`` of cross edges is deleted under a
    per-vertex budget, then same-side edges are added so every vertex clears
    the degree floor min_degree_threshold(n, k); in particular A carries
    enough internal edges to support an imbalance-sized matching.
    """
    r = imbalance
    if r < 0 or r > max(2, n // 10):
        raise ConstructionError(f"imbalance {r} infeasible for n={n}")
    if (n + r) % 2 != 0:
        raise ConstructionError(f"imbalance {r} has wrong parity for n={n}")
    na = (n + r) // 2
    nb = n - na
    if nb < 4:
        raise ConstructionError("need a larger instance")
    floor_deg = min_degree_threshold(n, k)

    getrandbits = random.Random(seed).getrandbits
    a_mask = (1 << na) - 1
    b_mask = ((1 << n) - 1) ^ a_mask
    rows = [b_mask] * na + [a_mask] * nb

    # delete a sprinkling of cross edges, bounded per vertex, visiting them
    # in a shuffled order; cross edge (u, na + w) is the int u*nb + w, which
    # shuffles as its (u, v) pair would, since a shuffle's permutation
    # depends only on the list's length.  Each deletion spends one unit of
    # budget on each side, so none is possible once either side's budget
    # is spent: the walk stops at the target share or at that point,
    # whichever comes first (at n=401, after ~25,000 of the 40,200 pairs
    # for a typical seed)
    budget = [int(DELETE_FRAC * nb)] * na + [int(DELETE_FRAC * na)] * nb
    deletable = list(range(na * nb))
    draw_shuffle(getrandbits, deletable)
    target_deletions = min(
        int(DELETE_FRAC * len(deletable)), sum(budget[:na]), sum(budget[na:])
    )
    removed = 0
    for c in deletable:
        if removed >= target_deletions:
            break
        u = c // nb
        if not budget[u]:
            continue
        v = na + c % nb
        if budget[v]:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            budget[u] -= 1
            budget[v] -= 1
            removed += 1

    # plant a matching of size r inside A for the balancing step
    free_a = list(range(na))
    draw_shuffle(getrandbits, free_a)
    for i in range(r):
        _link(rows, free_a[2 * i], free_a[2 * i + 1])

    # raise every deficient vertex to the floor by pairing inside its side
    # with the partner of least internal degree, the lowest index among
    # ties; degrees only grow, so one pass in index order visits the
    # deficient vertices in turn.  bucket[d] is the mask of side vertices
    # of internal degree d.
    for side in (a_mask, b_mask):
        internal = [(row & side).bit_count() for row in rows]
        bucket: dict[int, int] = {}
        for v in bits(side):
            bucket[internal[v]] = bucket.get(internal[v], 0) | 1 << v
        for v in bits(side):
            while rows[v].bit_count() < floor_deg:
                partners = side & ~rows[v] & ~(1 << v)
                if not partners:
                    raise ConstructionError("cannot satisfy the degree floor")
                for d in sorted(bucket):
                    meet = bucket[d] & partners
                    if meet:
                        break
                u = (meet & -meet).bit_length() - 1
                _link(rows, u, v)
                for w in (u, v):
                    d = internal[w]
                    internal[w] = d + 1
                    bucket[d] ^= 1 << w
                    bucket[d + 1] = bucket.get(d + 1, 0) | 1 << w

    return _cluster_instance(rows, na, {
        "kind": "dense",
        "n": n,
        "k": k,
        "imbalance": r,
        "seed": seed,
        "delete_frac": DELETE_FRAC,
    })


def random_graph_min_degree(n: int, target_delta: int, seed: int = 0) -> Graph:
    """G(n,p) sample with p calibrated to the target, then greedy edge
    augmentation until the minimum degree reaches target_delta."""
    if not 0 <= target_delta < n:
        raise ConstructionError("target_delta must be in 0..n-1")
    rng = random.Random(seed)
    p = min(1.0, (target_delta + 1) / max(1, n - 1))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                _link(rows, u, v)
    deg = [row.bit_count() for row in rows]
    full = (1 << n) - 1
    while True:
        lo = min(range(n), key=deg.__getitem__)
        if deg[lo] >= target_delta:
            break
        v = min(bits(full & ~rows[lo] & ~(1 << lo)), key=deg.__getitem__)
        _link(rows, lo, v)
        deg[lo] += 1
        deg[v] += 1
    return Graph(n, tuple(rows))
