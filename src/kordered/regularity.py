"""Exact and sampled checkers for epsilon-regular and super-regular pairs.

A pair (A, B) is epsilon-regular when every X in A, Y in B with
|X| > eps|A| and |Y| > eps|B| satisfies |d(X,Y) - d(A,B)| < eps.  Exact
checking is co-NP-hard in general, so the exact mode is capped by size;
above the cap the checker samples subset pairs and only ever reports
"irregular" together with a concrete witness.

The exact mode does not enumerate Y at all: for a fixed X and fixed |Y|
the extreme densities are reached by taking the |Y| vertices of largest
(resp. smallest) degree into X, so scanning those extremes over all X and
all admissible |Y| decides the quantifier exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import Graph, GraphError, bit_list, mask_of


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


def _checked_eps(eps, mode: str) -> Fraction:
    """Parse eps and check it and the mode before any verdict is formed."""
    e = as_fraction(eps)
    if e <= 0:
        raise GraphError("eps must be positive")
    if mode not in ("auto", "exact", "sampled"):
        raise GraphError(f"unknown mode {mode!r}")
    return e


def _sides(g: Graph, a, b) -> tuple[list[int], list[int]]:
    am, bm = g._mask(a), g._mask(b)
    if am & bm:
        raise GraphError("sides must be disjoint")
    if am == 0 or bm == 0:
        raise GraphError("sides must be non-empty")
    return bit_list(am), bit_list(bm)


def _pair_density(g: Graph, xs: list[int], ys: list[int]) -> Fraction:
    ym = 0
    for v in ys:
        ym |= 1 << v
    e = sum((g.adj[x] & ym).bit_count() for x in xs)
    return Fraction(e, len(xs) * len(ys))


def _min_size(eps: Fraction, m: int) -> int:
    """Smallest integer strictly greater than eps*m."""
    return math.floor(eps * m) + 1


def _exact_check(
    g: Graph, a_list: list[int], b_list: list[int], eps: Fraction
) -> RegularityVerdict:
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


def _sampled_check(
    g: Graph,
    a_list: list[int],
    b_list: list[int],
    eps: Fraction,
    samples: int,
    seed: int,
) -> RegularityVerdict:
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
    """
    a_list, b_list = _sides(g, a, b)
    e = _checked_eps(eps, mode)
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
    _checked_eps(eps, mode)
    d = as_fraction(delta)
    am, bm = mask_of(a_list), mask_of(b_list)
    for v in a_list:
        if (g.adj[v] & bm).bit_count() <= d * len(b_list):
            return RegularityVerdict(False, "exact", failing_vertex=v)
    for v in b_list:
        if (g.adj[v] & am).bit_count() <= d * len(a_list):
            return RegularityVerdict(False, "exact", failing_vertex=v)
    return is_epsilon_regular(g, a, b, eps, mode=mode, samples=samples, seed=seed)
