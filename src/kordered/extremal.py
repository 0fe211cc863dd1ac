"""Constructive Hamiltonian S-cycle builders for the two extremal regimes,
plus the three-way case classifier.

The sparse solver handles two dense clusters with a thin cut: it cleans up
exceptional vertices, secures a bridge matching across the cut, threads an
S-cycle through the five transition cases, absorbs whatever is left of each
side with Hamiltonian-connected patches, and certificate-checks the result.
The dense solver handles a near-complete bipartite pair: it rebalances the
sides, threads the imbalance through an internal matching, builds a short
S-path, and closes with a bipartite Hamiltonian path.  Soundness is
unconditional: a returned cycle always passes verify_s_cycle; the
asymptotic hypotheses only affect whether a run succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Graph,
    GraphError,
    bit_list,
    bits,
    degree_profile,
    density,
    induced_subgraph,
    mask_of,
)
from .hamilton import (
    HamCycle,
    _check_sequence,
    _path_within,
    bipartite_posa_condition,
    posa_condition,
    verify_s_cycle,
)
from .matching import bipartite_matching_and_cover, maximum_matching
from .generators import min_degree_threshold
from .regularity import as_fraction


class HypothesisViolation(ValueError):
    """Input does not satisfy the structural hypotheses of a solver stage."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and a one-line detail."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


class RoutingError(StageError):
    """connect_pairs could not route a pair within its length budget."""

    def __init__(self, pair, detail: str):
        super().__init__("routing", f"pair {pair}: {detail}")
        self.pair = pair


@dataclass(frozen=True)
class ExtremalParams:
    """The two constants the extremal layer reads, 0 < beta < alpha < 1.

    beta bounds the classifier's pair density and overlap bands; alpha
    bounds the solvers' cut density, cluster sizes and exceptional degrees.
    The defaults are chosen so that instances with a few dozen to a few
    hundred vertices clear every threshold test.
    """

    beta: Fraction = Fraction(1, 100)
    alpha: Fraction = Fraction(1, 10)

    def __post_init__(self) -> None:
        beta, alpha = as_fraction(self.beta), as_fraction(self.alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        if not 0 < beta < alpha < 1:
            raise GraphError("parameters must satisfy 0 < beta < alpha < 1")


# The degree tests of cleanup and the dense rebalance, exact in integers
# with alpha = p/q: each compares powers of non-negative integers instead
# of forming an alpha-th root.


def _exceptional(deg: int, size: int, alpha: Fraction, dense: bool) -> bool:
    """Is a cross degree deg into a side of ``size`` vertices exceptional?
    Dense: deg < (1 - sqrt(alpha)) size.  Sparse: deg >= sqrt(alpha) size."""
    if dense:
        return (size - deg) ** 2 * alpha.denominator > alpha.numerator * size**2
    return deg**2 * alpha.denominator >= alpha.numerator * size**2


def _low_degree(deg: int, n: int, alpha: Fraction) -> bool:
    """deg < (1 - alpha^(1/4)) n/2, that is n/2 - deg > alpha^(1/4) n/2."""
    gap = n - 2 * deg
    return gap > 0 and gap**4 * alpha.denominator > alpha.numerator * n**4


def _heavy(deg: int, size: int, alpha: Fraction) -> bool:
    """deg >= alpha^(1/4) size: a rebalance mover's internal degree."""
    return deg**4 * alpha.denominator >= alpha.numerator * size**4


@dataclass(frozen=True)
class ClusterPair:
    """Result of exceptional-vertex cleanup: a disjoint partition A + B = V,
    the extracted exceptional sets, the originally unassigned leftovers, and
    the vertices whose relevant degree is still below (1 - alpha^(1/4)) n/2."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    exc_a: tuple[int, ...]
    exc_b: tuple[int, ...]
    leftovers: tuple[int, ...]
    low_degree: tuple[int, ...]


def _cleanup(g: Graph, a, b, params: ExtremalParams, dense: bool) -> ClusterPair:
    am, bm = g._mask(a), g._mask(b)
    if am & bm:
        raise HypothesisViolation("cleanup", "clusters must be disjoint")
    alpha = params.alpha
    ca, cb = am.bit_count(), bm.bit_count()

    exc_a = [
        v for v in bits(am) if _exceptional((g.adj[v] & bm).bit_count(), cb, alpha, dense)
    ]
    exc_b = [
        v for v in bits(bm) if _exceptional((g.adj[v] & am).bit_count(), ca, alpha, dense)
    ]
    a2 = am & ~mask_of(exc_a)
    b2 = bm & ~mask_of(exc_b)
    leftovers = bit_list(g.vertex_mask & ~(am | bm))
    pool = sorted(exc_a + exc_b + leftovers)
    add_a, add_b = 0, 0
    for z in pool:
        toward_a = (g.adj[z] & a2).bit_count() >= (g.adj[z] & b2).bit_count()
        if dense:
            toward_a = not toward_a
        if toward_a:
            add_a |= 1 << z
        else:
            add_b |= 1 << z
    fa = a2 | add_a
    fb = b2 | add_b

    low = []
    for v in bits(fa | fb):
        in_a = bool(fa & (1 << v))
        if dense:
            ref_mask = fb if in_a else fa  # cross degree matters here
        else:
            ref_mask = fa if in_a else fb  # within-side degree
        if _low_degree((g.adj[v] & ref_mask).bit_count(), g.n, alpha):
            low.append(v)
    return ClusterPair(
        side_a=tuple(bit_list(fa)),
        side_b=tuple(bit_list(fb)),
        exc_a=tuple(exc_a),
        exc_b=tuple(exc_b),
        leftovers=tuple(leftovers),
        low_degree=tuple(low),
    )


def cleanup_sparse(g: Graph, a, b, params: ExtremalParams | None = None) -> ClusterPair:
    """Extract vertices with cross degree >= sqrt(alpha)|other| from each
    cluster, then reassign them and everything outside A u B to the side
    where they have the larger degree (ties go to A, measured against the
    stripped sides)."""
    return _cleanup(g, a, b, params or ExtremalParams(), dense=False)


def cleanup_dense(g: Graph, a, b, params: ExtremalParams | None = None) -> ClusterPair:
    """Dense variant: vertices with cross degree < (1 - sqrt(alpha))|other|
    are exceptional, and reassignment sends each vertex opposite to its
    larger-degree side (so its cross degree ends up high)."""
    return _cleanup(g, a, b, params or ExtremalParams(), dense=True)


# -- classifier --------------------------------------------------------


@dataclass(frozen=True)
class ExtremalCase:
    label: str  # "dense", "sparse" or "impossible"
    solver_sides: tuple[tuple[int, ...], tuple[int, ...]] | None


def _edges_meeting(g: Graph, am: int, bm: int) -> int:
    """Edges with one endpoint in am and the other in bm, counted once
    (the sets may overlap)."""
    ordered = sum((g.adj[v] & bm).bit_count() for v in bits(am))
    both = am & bm
    inside = sum((g.adj[v] & both).bit_count() for v in bits(both)) // 2
    return ordered - inside


def classify_extremal(g: Graph, a, b, params: ExtremalParams | None = None) -> ExtremalCase:
    """Three-way split of a low-density (not necessarily disjoint) pair.

    Large overlap means the complement split around the intersection is a
    dense bipartite instance; small overlap strips the intersection and
    leaves a sparse two-cluster instance; the middle band cannot occur
    under the size/density hypotheses and is reported as a violation
    rather than handled.
    """
    p = params or ExtremalParams()
    am, bm = g._mask(a), g._mask(b)
    ca, cb = am.bit_count(), bm.bit_count()
    n = g.n
    half = Fraction(n, 2)
    lo = (1 - p.beta) * half
    if not (lo <= ca <= half and lo <= cb <= half):
        raise HypothesisViolation(
            "classify", f"cluster sizes {ca},{cb} outside [(1-beta)n/2, n/2]"
        )
    dens = Fraction(_edges_meeting(g, am, bm), ca * cb)
    if dens >= p.beta:
        raise HypothesisViolation("classify", f"pair density {dens} not below beta={p.beta}")
    inter = am & bm
    i = inter.bit_count()
    gap = half - i
    if gap <= 0 or gap**2 <= p.beta * half**2:
        core = bit_list(inter)
        rest = bit_list(g.vertex_mask & ~inter)
        return ExtremalCase("dense", (tuple(core), tuple(rest)))
    if Fraction(i) ** 2 < p.beta * half**2:
        return ExtremalCase(
            "sparse", (tuple(bit_list(am & ~bm)), tuple(bit_list(bm & ~am)))
        )
    return ExtremalCase("impossible", None)


# -- connecting paths ---------------------------------------------------


@dataclass(frozen=True)
class PathSystem:
    """Internally disjoint paths with declared endpoints."""

    paths: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph) -> None:
        seen_interior = 0
        endpoints = 0
        for p in self.paths:
            endpoints |= (1 << p[0]) | (1 << p[-1])
        for p in self.paths:
            for u, v in zip(p, p[1:]):
                if not g.has_edge(u, v):
                    raise GraphError(f"path uses non-edge {u}-{v}")
            inner = mask_of(p[1:-1])
            if inner & (seen_interior | endpoints):
                raise GraphError("paths are not internally disjoint")
            seen_interior |= inner


def _bfs_route(adj_of, u: int, w: int, interior_ok: int, max_len: int) -> list[int] | None:
    """Shortest u-w path of length <= max_len whose interior stays inside
    interior_ok; deterministic lowest-index expansion."""
    if u == w:
        raise GraphError("pair endpoints must differ")
    target = 1 << w
    parent = {u: -1}
    frontier = [u]
    for depth in range(max_len):
        nxt = []
        for x in frontier:
            nbrs = adj_of(x)
            if nbrs & target:
                path = [w, x]
                while parent[x] != -1:
                    x = parent[x]
                    path.append(x)
                path.reverse()
                return path
            cand = nbrs & interior_ok
            while cand:
                b = cand & -cand
                cand ^= b
                v = b.bit_length() - 1
                if v not in parent:
                    parent[v] = x
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return None


def connect_pairs(
    g: Graph,
    pairs,
    *,
    within=None,
    cross=None,
    max_len: int = 4,
    avoid=(),
) -> PathSystem:
    """Greedy internally disjoint routing of endpoint pairs.

    Exactly one of ``within`` (paths inside one vertex set) or ``cross``
    (a side pair; only edges across it are walkable) selects the host.
    Interiors never touch pair endpoints, previously routed interiors, or
    the avoid set.  Pairs are processed in order, shortest path first; a
    pair that cannot be routed raises RoutingError naming it.
    """
    if (within is None) == (cross is None):
        raise GraphError("specify exactly one of within / cross")
    pairs = [tuple(p) for p in pairs]
    if within is not None:
        allowed = g._mask(within)

        def adj_of(v: int) -> int:
            return g.adj[v] & allowed

    else:
        am, bm = g._mask(cross[0]), g._mask(cross[1])
        if am & bm:
            raise GraphError("cross sides must be disjoint")
        allowed = am | bm

        def adj_of(v: int) -> int:
            return g.adj[v] & (bm if am & (1 << v) else am)

    avoid_mask = g._mask(avoid)
    endpoint_mask = 0
    for u, w in pairs:
        if not (allowed & (1 << u) and allowed & (1 << w)):
            raise RoutingError((u, w), "endpoint outside the host set")
        endpoint_mask |= (1 << u) | (1 << w)
    used_interior = 0
    out = []
    for u, w in pairs:
        interior_ok = allowed & ~(endpoint_mask | avoid_mask | used_interior)
        path = _bfs_route(adj_of, u, w, interior_ok, max_len)
        if path is None:
            raise RoutingError((u, w), f"no path of length <= {max_len} ({len(out)} routed before it)")
        used_interior |= mask_of(path[1:-1])
        out.append(tuple(path))
    system = PathSystem(tuple(out))
    system.validate(g)
    return system


# -- the two solvers ----------------------------------------------------


@dataclass
class ExtremalSolution:
    cycle: HamCycle
    trace: dict


def _route_or_fail(g, side_mask, u, w, blocked):
    if u == w:
        return [u]

    def adj_of(v: int) -> int:
        return g.adj[v] & side_mask

    path = _bfs_route(adj_of, u, w, side_mask & ~blocked, 4)
    if path is None:
        raise StageError("assembly", f"cannot route {u}->{w} inside one side")
    return path


def _check_common_hypotheses(g, am, bm, s, alpha: Fraction, stage: str, dense: bool):
    n = g.n
    if am & bm:
        raise HypothesisViolation(stage, "clusters must be disjoint")
    ca, cb = am.bit_count(), bm.bit_count()
    floor_sz = (1 - alpha) * Fraction(n, 2)
    if ca < floor_sz or cb < floor_sz:
        raise HypothesisViolation(stage, f"cluster sizes {ca},{cb} below (1-alpha)n/2")
    k = len(s)
    if k > n // 2:
        raise HypothesisViolation(stage, f"k={k} above floor(n/2)")
    if degree_profile(g).min_degree < min_degree_threshold(n, k):
        raise HypothesisViolation(
            stage, f"minimum degree below the threshold {min_degree_threshold(n, k)}"
        )
    dens = density(g, am, bm)
    if dense:
        if dens <= 1 - alpha:
            raise HypothesisViolation(stage, f"cross density {dens} not above 1-alpha")
    else:
        if dens >= alpha:
            raise HypothesisViolation(stage, f"cross density {dens} not below alpha")


def _prepare(g: Graph, a, b, seq, params: ExtremalParams | None, kind: str):
    """Shared head of both solvers: check the hypotheses, clean up the
    clusters and start the trace."""
    p = params or ExtremalParams()
    s = _check_sequence(g, seq)
    am, bm = g._mask(a), g._mask(b)
    dense = kind == "dense"
    _check_common_hypotheses(g, am, bm, s, p.alpha, f"{kind}-hypotheses", dense)
    cp = (cleanup_dense if dense else cleanup_sparse)(g, am, bm, p)
    cleanup = {
        "exceptional": len(cp.exc_a) + len(cp.exc_b),
        "leftovers": len(cp.leftovers),
        "low_degree": len(cp.low_degree),
    }
    trace: dict = {"kind": kind, "n": g.n, "k": len(s), "cleanup": cleanup}
    return p, s, cp, trace


def _certified(g: Graph, s, cyc: list[int], trace: dict) -> ExtremalSolution:
    """Shared tail of both solvers: certificate-check the assembled cycle."""
    cycle = HamCycle(tuple(cyc))
    check = verify_s_cycle(g, s, cycle)
    trace["certified"] = bool(check)
    if not check:
        raise StageError("certify", f"assembled cycle failed verification: {check.reason}")
    return ExtremalSolution(cycle, trace)


def solve_extremal_sparse(
    g: Graph, a, b, seq, params: ExtremalParams | None = None, *, seed: int = 0
) -> ExtremalSolution:
    """Hamiltonian S-cycle for two dense clusters with a sparse cut.

    Pipeline: cleanup -> bridge matching across the cut (edges with both
    ends on the sequence removed) -> iterative assembly over the five
    transition cases, spending one bridge per side switch -> absorb the
    remainder of each side through a Hamiltonian-connected patch -> absorb
    a completely untouched side via two cross edges.  The result is
    certificate-checked before it is returned.
    """
    p, s, cp, trace = _prepare(g, a, b, seq, params, "sparse")
    amask = mask_of(cp.side_a)
    bmask = mask_of(cp.side_b)
    low_mask = mask_of(cp.low_degree)

    s_mask = mask_of(s)
    side_of = {v: 0 if amask & (1 << v) else 1 for v in s}
    transitions = sum(
        1 for i in range(len(s)) if side_of[s[i]] != side_of[s[(i + 1) % len(s)]]
    )

    # bridge matching: cross edges minus those joining two sequence vertices
    forbidden = []
    for u in s:
        if side_of[u] == 0:
            others = g.adj[u] & bmask & s_mask
            forbidden.extend((u, v) for v in bits(others))
    h = g.without_edges(forbidden)
    bridges, cover = bipartite_matching_and_cover(h, amask, bmask)
    trace["bridges"] = len(bridges)
    trace["transitions"] = transitions
    trace["cover"] = len(cover)
    if len(bridges) < transitions:
        raise HypothesisViolation(
            "bridge-matching",
            f"only {len(bridges)} bridges for {transitions} side switches",
        )

    # Reserve only the bridges the assembly can actually spend: the edges
    # matched to sequence vertices plus a free reserve of one edge per side
    # switch.  Blocking every matching endpoint from path interiors would
    # starve the interior pool (the matching covers about half of each side).
    # partner maps both ends of every unspent reserved bridge to each other.
    s_incident = [
        e for e in bridges.edges if s_mask & ((1 << e[0]) | (1 << e[1]))
    ]
    free_edges = sorted(
        e for e in bridges.edges if not (s_mask & ((1 << e[0]) | (1 << e[1])))
    )[: max(transitions, 1)]
    partner: dict[int, int] = {}
    for u, v in s_incident + free_edges:
        partner[u] = v
        partner[v] = u
    reserved = mask_of(partner)
    trace["reserved_bridges"] = len(partner) // 2

    cyc = [s[0]]
    used = 1 << s[0]
    interior_block = s_mask | reserved | low_mask
    path_lengths = []
    k = len(s)

    for idx in range(k):
        vi = s[idx]
        vn = s[(idx + 1) % k]
        closing = idx == k - 1
        xm = amask if side_of[vi] == 0 else bmask
        ym = amask if side_of[vn] == 0 else bmask
        blocked = used | interior_block
        if xm == ym:
            seg = _route_or_fail(g, xm, vi, vn, blocked)
        else:
            # cross over bridge u0-w0: vi's own, else vn's own, else a
            # free one with both ends unused
            w = partner.get(vi)
            w2 = partner.get(vn)
            if w is not None and not used & (1 << w):
                u0, w0 = vi, w
            elif w2 is not None and not used & (1 << w2):
                u0, w0 = w2, vn
            else:
                for e in free_edges:
                    u0 = e[0] if xm & (1 << e[0]) else e[1]
                    w0 = e[1] if u0 == e[0] else e[0]
                    if not used & ((1 << u0) | (1 << w0)):
                        break
                else:
                    raise StageError("assembly", f"no free bridge for the side switch {vi}->{vn}")
            del partner[u0], partner[w0]
            seg = _route_or_fail(g, xm, vi, u0, blocked) + _route_or_fail(
                g, ym, w0, vn, blocked
            )
        path_lengths.append(len(seg) - 1)
        add = seg[1:-1] if closing else seg[1:]
        for v in add:
            if used & (1 << v):
                raise StageError("assembly", f"vertex {v} reused")
            used |= 1 << v
        cyc.extend(add)

    trace["path_lengths"] = path_lengths

    retries = 0
    absorbed = []
    for side_mask in (amask, bmask):
        missing = side_mask & ~used
        if not missing:
            continue
        if not side_mask & used:
            # a fully untouched side is spliced in whole, further below
            continue
        anchors = [
            i
            for i in range(len(cyc))
            if side_mask & (1 << cyc[i]) and side_mask & (1 << cyc[(i + 1) % len(cyc)])
        ]
        if not anchors:
            raise StageError("absorption", "no same-side pair to anchor "
                             f"{missing.bit_count()} missing vertices")
        for attempt, i in enumerate(anchors[:10]):
            x, y = cyc[i], cyc[(i + 1) % len(cyc)]
            t_mask = missing | (1 << x) | (1 << y)
            patch = _path_within(g, t_mask, x, y, seed=seed + attempt).path
            if patch is not None:
                break
            retries += 1
        else:
            posa = "holds" if posa_condition(induced_subgraph(g, t_mask)[0]) else "fails"
            raise StageError("absorption", "patch path not found for "
                             f"{missing.bit_count()} missing vertices (Posa condition {posa})")
        interior = patch.order[1:-1]
        cyc[i + 1:i + 1] = interior
        used |= mask_of(interior)
        absorbed.append(side_mask.bit_count())

    leftover = g.vertex_mask & ~used
    if leftover:
        if leftover not in (amask, bmask):
            raise StageError("untouched-side", f"{leftover.bit_count()} leftover vertices "
                             "are not a full untouched side")
        for i in range(min(10, len(cyc))):
            n1 = g.adj[cyc[i]] & leftover
            if not n1:
                continue
            y1 = (n1 & -n1).bit_length() - 1
            n2 = g.adj[cyc[(i + 1) % len(cyc)]] & leftover & ~(1 << y1)
            if not n2:
                continue
            y2 = (n2 & -n2).bit_length() - 1
            segment = _path_within(g, leftover, y1, y2, seed=seed + i).path
            if segment is not None:
                break
            retries += 1
        else:
            raise StageError("untouched-side", "could not splice the untouched side")
        cyc[i + 1:i + 1] = segment.order

    trace["retries"] = retries
    trace["absorbed_side_sizes"] = absorbed
    return _certified(g, s, cyc, trace)


def solve_extremal_dense(
    g: Graph, a, b, seq, params: ExtremalParams | None = None, *, seed: int = 0
) -> ExtremalSolution:
    """Hamiltonian S-cycle for a near-complete bipartite pair.

    Pipeline: dense cleanup -> move high-internal-degree vertices until the
    sides balance or no mover qualifies -> cover the residual imbalance r
    with an r-matching inside the big side -> thread an S-path through the
    matching edges using short cross paths -> fix endpoint parity with one
    extra vertex -> close with a Hamiltonian path of the remaining
    bipartite graph.  Certificate-checked before returning.
    """
    p, s, cp, trace = _prepare(g, a, b, seq, params, "dense")
    amask = mask_of(cp.side_a)
    bmask = mask_of(cp.side_b)
    if amask.bit_count() < bmask.bit_count():
        amask, bmask = bmask, amask

    # rebalance: move internal-degree-heavy vertices to the small side
    moves = 0
    while amask.bit_count() > bmask.bit_count():
        ca = amask.bit_count()
        best = None
        for v in bits(amask):
            dv = (g.adj[v] & amask).bit_count()
            if _heavy(dv, ca, p.alpha):
                if best is None or dv > best[0]:
                    best = (dv, v)
        if best is None:
            break
        v = best[1]
        amask &= ~(1 << v)
        bmask |= 1 << v
        moves += 1
    trace["balancing_moves"] = moves
    r = amask.bit_count() - bmask.bit_count()
    trace["imbalance"] = r

    s_mask = mask_of(s)
    matching_edges: list[tuple[int, int]] = []
    if r > 0:
        host = amask & ~s_mask
        sub, idx_map = induced_subgraph(g, host)
        mm = maximum_matching(sub)
        if len(mm) < r:
            raise HypothesisViolation(
                "imbalance-matching",
                f"internal matching of size {len(mm)} cannot cover imbalance {r}",
            )
        matching_edges = sorted(
            tuple(sorted((idx_map[u], idx_map[v]))) for u, v in mm.edges
        )[:r]
    trace["matching_size"] = len(matching_edges)

    pairs = []
    for i in range(r - 1):
        pairs.append((matching_edges[i][1], matching_edges[i + 1][0]))
    if r > 0:
        pairs.append((matching_edges[r - 1][1], s[0]))
    for j in range(len(s) - 1):
        pairs.append((s[j], s[j + 1]))
    keep_out = set(cp.low_degree)
    for e in matching_edges:
        keep_out.update(e)
    system = connect_pairs(
        g,
        pairs,
        cross=(bit_list(amask), bit_list(bmask)),
        max_len=5,
        avoid=sorted(keep_out),
    )
    trace["path_lengths"] = [len(p_) - 1 for p_ in system.paths]

    # a segment that starts off the path's end is joined by a matching edge
    path = [matching_edges[0][0] if r else s[0]]
    for seg in system.paths:
        path.extend(seg[seg[0] == path[-1]:])
    if len(set(path)) != len(path):
        raise StageError("threading", "threaded path repeats a vertex")

    p_mask = mask_of(path)
    side_bit = lambda v: 0 if amask & (1 << v) else 1
    if side_bit(path[0]) == side_bit(path[-1]):
        other = bmask if side_bit(path[-1]) == 0 else amask
        cand = g.adj[path[-1]] & other & ~p_mask & ~s_mask
        if not cand:
            raise StageError("parity", "no spare vertex to fix endpoint parity")
        v = (cand & -cand).bit_length() - 1
        path.append(v)
        p_mask |= 1 << v
    trace["s_path_len"] = len(path)

    remainder = (g.vertex_mask & ~p_mask) | (1 << path[0]) | (1 << path[-1])
    ra = (remainder & amask).bit_count()
    rb = (remainder & bmask).bit_count()
    if ra != rb:
        raise StageError("closing", f"remainder sides unbalanced ({ra} vs {rb})")
    cross_rows = tuple(
        g.adj[v] & (bmask if amask & (1 << v) else amask) for v in range(g.n)
    )
    g_cross = Graph(g.n, cross_rows)
    if ra >= 2:
        trace["bipartite_posa"] = bipartite_posa_condition(
            g_cross, remainder & amask, remainder & bmask
        )
    if remainder == (1 << path[0]) | (1 << path[-1]):
        if not g.has_edge(path[0], path[-1]):
            raise StageError("closing", "degenerate remainder without a closing edge")
        cyc = path
    else:
        for attempt in range(10):
            closing = _path_within(g_cross, remainder, path[-1], path[0],
                                   seed=seed + attempt).path
            if closing is not None:
                break
        else:
            raise StageError("closing", "no bipartite Hamiltonian path over "
                             f"{remainder.bit_count()} remainder vertices")
        cyc = path + list(closing.order[1:-1])

    return _certified(g, s, cyc, trace)


def solve_extremal(
    g: Graph, a, b, seq, params: ExtremalParams | None = None, *, seed: int = 0
) -> ExtremalSolution:
    """Classify a (possibly overlapping) low-density pair and dispatch to
    the matching solver; the impossible middle band raises."""
    p = params or ExtremalParams()
    case = classify_extremal(g, a, b, p)
    if case.label == "impossible":
        raise HypothesisViolation(
            "classify", "overlap size falls in the impossible middle band"
        )
    ra, rb = case.solver_sides
    if case.label == "dense":
        return solve_extremal_dense(g, ra, rb, seq, p, seed=seed)
    return solve_extremal_sparse(g, ra, rb, seq, p, seed=seed)
