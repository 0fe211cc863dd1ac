"""Exact and sampled checkers for epsilon-regular and super-regular pairs.

A pair (A, B) is epsilon-regular when every X in A, Y in B with
|X| > eps|A| and |Y| > eps|B| satisfies |d(X,Y) - d(A,B)| < eps.  Exact
checking is co-NP-hard in general, so the exact mode is capped by size;
above the cap the checker samples subset pairs and only ever reports
"irregular" together with a concrete witness.

The exact mode scans only |X| = x_min and |Y| = y_min, the least
admissible sizes, and never enumerates Y.  Fix X and order B by degree
into X: the densest Y of a given size is the top of that order, and the
average of the s largest degrees never rises as s grows (nor that of the
s smallest falls), so a Y of any size deviating upwards (downwards)
implies that the y_min densest (sparsest) vertices do too.  The same
averaging over X, with Y fixed, takes any deviating pair down to
|X| = x_min.  So one pass over the x_min-subsets of A, in lexicographic
order, testing the densest then the sparsest y_min vertices against two
integer edge-count thresholds, finds a deviating pair if one exists.  It
also finds the pair that a scan over every |X| >= x_min and |Y| >= y_min
(sizes increasing, densest before sparsest) would find first: that scan
meets the x_min-subsets first, and any X that deviates at some |Y|
already deviates at y_min, on the same side.  The degrees into X come
from one sum: each A-row is packed one byte per B-vertex, so the bytes
of the sum of X's packs are the degrees (at most EXACT_CAP < 256).
A side-14 pair at eps = 0.45 (3,432 subsets X) takes ~5 ms on a 2-vCPU
host, against ~9 ms with one big-int AND per B-vertex and X.

The sampled mode draws exactly what ``random.Random(seed)`` would give
through ``randint`` and ``sample``, for each of ``samples`` rounds: |X|,
|Y|, then X and Y.  It takes those draws straight from the generator's
``getrandbits``, which skips the stdlib's per-call layers: the sizes
inline, X and Y through one ``core.sampler`` per side.  A side-40 pair at the default 10,000 samples takes
~90 ms on a 2-vCPU host, against ~220 ms through the stdlib methods.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import Graph, GraphError, bit_list, density, mask_of, sampler


def as_fraction(x) -> Fraction:
    """Exact threshold parsing; floats go through their decimal string so
    0.3 means 3/10, not the binary float.  A literal that does not parse
    raises GraphError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError):
        raise GraphError(f"not an exact number: {x!r}") from None


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    mode: str  # "exact" or "sampled"
    witness: tuple[tuple[int, ...], tuple[int, ...], Fraction] | None = None
    failing_vertex: int | None = None

    def __bool__(self) -> bool:
        return self.regular


EXACT_CAP = 14


def _checked_args(eps, mode: str, samples: int) -> Fraction:
    """Parse eps and check it, the mode and the sample count before any
    verdict is formed; zero samples would draw nothing and call any pair
    regular."""
    e = as_fraction(eps)
    if e <= 0:
        raise GraphError("eps must be positive")
    if mode not in ("auto", "exact", "sampled"):
        raise GraphError(f"unknown mode {mode!r}")
    if samples < 1:
        raise GraphError(f"samples must be at least 1, got {samples}")
    return e


def _sides(g: Graph, a, b) -> tuple[list[int], list[int]]:
    am, bm = g._mask(a), g._mask(b)
    if am & bm:
        raise GraphError("sides must be disjoint")
    if am == 0 or bm == 0:
        raise GraphError("sides must be non-empty")
    return bit_list(am), bit_list(bm)


def _min_size(eps: Fraction, m: int) -> int:
    """Smallest integer strictly greater than eps*m."""
    return math.floor(eps * m) + 1


def _exact_check(
    g: Graph, a_list: list[int], b_list: list[int], eps: Fraction
) -> RegularityVerdict:
    na, nb = len(a_list), len(b_list)
    d0 = density(g, a_list, b_list)
    x_min = _min_size(eps, na)
    y_min = _min_size(eps, nb)
    if x_min > na or y_min > nb:
        return RegularityVerdict(True, "exact")
    cells = x_min * y_min
    # edge counts between X and Y, |X| = x_min and |Y| = y_min, that deviate
    # from d0 by at least eps: at least hi_at, or at most lo_at
    hi_at = math.ceil((d0 + eps) * cells)
    lo_at = math.floor((d0 - eps) * cells)
    # byte i of an a-vertex's pack is its adjacency to b_list[i], so the
    # bytes of a sum of x_min <= EXACT_CAP < 256 packs are the degrees of
    # b_list into X
    packs = [
        int.from_bytes(bytes(g.adj[u] >> v & 1 for v in b_list), "little") for u in a_list
    ]
    a_bits = [1 << v for v in a_list]
    for x_packs, x_bits in zip(combinations(packs, x_min), combinations(a_bits, x_min)):
        into_x = sorted(sum(x_packs).to_bytes(nb, "little"))
        if sum(into_x[-y_min:]) >= hi_at:
            return _exact_witness(g, x_bits, b_list, y_min, d0, high=True)
        if sum(into_x[:y_min]) <= lo_at:
            return _exact_witness(g, x_bits, b_list, y_min, d0, high=False)
    return RegularityVerdict(True, "exact")


def _exact_witness(
    g: Graph, x_bits: tuple[int, ...], b_list: list[int], y_min: int, d0: Fraction, high: bool
) -> RegularityVerdict:
    """The verdict for an X known to deviate: Y is its y_min densest
    (high) or sparsest b-vertices, ties to the lower index."""
    xm = sum(x_bits)
    into_x = [((g.adj[v] & xm).bit_count(), v) for v in b_list]
    picked = sorted(into_x, key=lambda t: (-t[0], t[1]) if high else t)[:y_min]
    d = Fraction(sum(deg for deg, _ in picked), len(x_bits) * y_min)
    xs = tuple(b.bit_length() - 1 for b in x_bits)
    ys = tuple(sorted(v for _, v in picked))
    return RegularityVerdict(False, "exact", (xs, ys, d - d0 if high else d0 - d))


def _sampled_check(
    g: Graph,
    a_list: list[int],
    b_list: list[int],
    eps: Fraction,
    samples: int,
    seed: int,
) -> RegularityVerdict:
    na, nb = len(a_list), len(b_list)
    d0 = density(g, a_list, b_list)
    x_min = _min_size(eps, na)
    y_min = _min_size(eps, nb)
    if x_min > na or y_min > nb:
        return RegularityVerdict(True, "sampled")
    p0, q0 = d0.numerator, d0.denominator
    pe, qe = eps.numerator, eps.denominator
    # X is drawn from A-vertex entries (row & B) | 1 << x, whose B-part
    # meets Y in the edges of x and whose other bit names x; Y from
    # single-bit masks
    bm = mask_of(b_list)
    getrandbits = random.Random(seed).getrandbits
    draw_x = sampler(getrandbits, [(g.adj[x] & bm) | 1 << x for x in a_list])
    draw_y = sampler(getrandbits, [1 << y for y in b_list])
    # the sizes: rng.randint(x_min, na) and rng.randint(y_min, nb)
    x_top, y_top = na - x_min, nb - y_min
    tx, ty = (x_top + 1).bit_length(), (y_top + 1).bit_length()
    for _ in range(samples):
        sx = getrandbits(tx)
        while sx > x_top:
            sx = getrandbits(tx)
        sx += x_min
        sy = getrandbits(ty)
        while sy > y_top:
            sy = getrandbits(ty)
        sy += y_min
        x_picked = draw_x(sx)
        ym = sum(draw_y(sy))
        e = sum(map(int.bit_count, map(ym.__and__, x_picked)))
        # |e/(sx*sy) - p0/q0| >= pe/qe, in integers
        cells = sx * sy
        gap = abs(e * q0 - p0 * cells)
        if gap * qe >= pe * cells * q0:
            xs = tuple(sorted((x & ~bm).bit_length() - 1 for x in x_picked))
            ys = tuple(sorted(bit_list(ym)))
            return RegularityVerdict(False, "sampled", (xs, ys, Fraction(gap, cells * q0)))
    return RegularityVerdict(True, "sampled")


def is_epsilon_regular(
    g: Graph,
    a,
    b,
    eps,
    *,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 0,
) -> RegularityVerdict:
    """Decide epsilon-regularity of the pair (a, b).

    mode "exact" enumerates the quantifier (sides capped at ``EXACT_CAP``
    and raising beyond it), "sampled" draws ``samples`` random subset
    pairs, "auto" picks exact when the sides fit under the cap and
    otherwise downgrades to sampled; the verdict records which mode ran.
    A sampled verdict never claims irregularity without a witness pair.
    ``samples`` below 1 raises GraphError in every mode.
    """
    a_list, b_list = _sides(g, a, b)
    e = _checked_args(eps, mode, samples)
    fits = len(a_list) <= EXACT_CAP and len(b_list) <= EXACT_CAP
    if mode == "exact" and not fits:
        raise GraphError(
            f"exact mode capped at side size {EXACT_CAP}; use mode='auto' or 'sampled'"
        )
    if mode == "sampled" or not fits:
        return _sampled_check(g, a_list, b_list, e, samples, seed)
    return _exact_check(g, a_list, b_list, e)


def is_super_regular(
    g: Graph,
    a,
    b,
    eps,
    delta,
    *,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 0,
) -> RegularityVerdict:
    """Epsilon-regular plus a per-vertex cross-degree floor: every a-vertex
    needs degree > delta*|B| into b and vice versa.  A failing vertex is
    reported on the verdict."""
    a_list, b_list = _sides(g, a, b)
    _checked_args(eps, mode, samples)
    d = as_fraction(delta)
    am, bm = mask_of(a_list), mask_of(b_list)
    for v in a_list:
        if (g.adj[v] & bm).bit_count() <= d * len(b_list):
            return RegularityVerdict(False, "exact", failing_vertex=v)
    for v in b_list:
        if (g.adj[v] & am).bit_count() <= d * len(a_list):
            return RegularityVerdict(False, "exact", failing_vertex=v)
    return is_epsilon_regular(g, a, b, eps, mode=mode, samples=samples, seed=seed)
