import hashlib
import random
from fractions import Fraction

import pytest

from kordered import Graph, GraphError, is_epsilon_regular, is_super_regular
from kordered.regularity import as_fraction
from oracles import (
    exact_regularity_all_sizes,
    exact_regularity_per_x_mask,
    regular_pair_naive,
    sampled_regularity_by_fractions,
)


def bipartite_random(rng, na, nb, p):
    edges = [
        (u, na + v) for u in range(na) for v in range(nb) if rng.random() < p
    ]
    return Graph.from_edges(na + nb, edges), list(range(na)), list(range(na, na + nb))


def test_complete_bipartite_always_regular():
    g = Graph.complete_bipartite(6, 6)
    for eps in ("0.05", "0.3", "0.9"):
        v = is_epsilon_regular(g, range(6), range(6, 12), eps)
        assert v.regular and v.mode == "exact"


def test_empty_pair_always_regular():
    g = Graph.empty(12)
    assert is_epsilon_regular(g, range(6), range(6, 12), "0.1").regular


def test_perfect_matching_irregular_with_witness():
    g = Graph.from_edges(12, [(i, 6 + i) for i in range(6)])
    v = is_epsilon_regular(g, range(6), range(6, 12), "0.3")
    assert not v.regular and v.mode == "exact"
    xs, ys, dev = v.witness
    assert dev >= Fraction(3, 10)
    assert len(xs) > Fraction(3, 10) * 6 and len(ys) > Fraction(3, 10) * 6
    # the extreme witness pairs matched vertices together
    assert {6 + x for x in xs} >= set(ys)


def test_exact_matches_enumeration_oracle():
    rng = random.Random(61)
    for _ in range(40):
        na = rng.randint(2, 6)
        nb = rng.randint(2, 6)
        g, a, b = bipartite_random(rng, na, nb, rng.uniform(0.15, 0.9))
        eps = as_fraction(rng.choice(["0.2", "0.3", "0.4", "0.25"]))
        mine = is_epsilon_regular(g, a, b, eps)
        ref, ref_witness = regular_pair_naive(g, a, b, eps)
        assert mine.regular == ref
        if not mine.regular:
            xs, ys, dev = mine.witness
            assert dev >= eps
            assert Fraction(len(xs)) > eps * na
            assert Fraction(len(ys)) > eps * nb


def interleaved_pair(rng, na, nb, p):
    """A random graph whose sides A and B interleave, with a few vertices
    outside both and edges inside the sides too; only A-B edges count."""
    n = na + nb + rng.randint(0, 2)
    order = rng.sample(range(n), n)
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )
    return g, sorted(order[:na]), sorted(order[na:na + nb])


def test_exact_same_verdicts_and_witnesses_as_the_all_sizes_scan():
    rng = random.Random(64)
    irregular = 0
    for _ in range(1200):
        na, nb = rng.randint(1, 10), rng.randint(1, 10)
        g, a, b = interleaved_pair(rng, na, nb, rng.random())
        eps = Fraction(rng.randint(1, 19), 20)
        got = is_epsilon_regular(g, a, b, eps, mode="exact")
        assert got == exact_regularity_all_sizes(g, a, b, eps), (g.adj, a, b, eps)
        irregular += not got.regular
    assert 200 <= irregular <= 1000


def test_exact_same_verdicts_as_the_all_sizes_scan_at_side_12():
    rng = random.Random(65)
    g, a, b = bipartite_random(rng, 12, 12, 0.5)
    for eps in ("0.45", "0.3"):
        got = is_epsilon_regular(g, a, b, eps, mode="exact")
        assert got == exact_regularity_all_sizes(g, a, b, as_fraction(eps))
        assert got.regular == (eps == "0.45")


def test_exact_same_verdicts_and_witnesses_as_the_per_x_mask_scan():
    rng = random.Random(67)
    irregular = 0
    for i in range(320):
        na, nb = rng.randint(1, 14), rng.randint(1, 14)
        g, a, b = interleaved_pair(rng, na, nb, rng.random())
        if i % 4 == 0:
            eps = Fraction(1, na + 1)  # x_min = 1
        elif i % 4 == 1:
            eps = Fraction(max(na - 1, 1), max(na, 2))  # x_min = |A|
        else:
            eps = Fraction(rng.randint(1, 19), 20)
        got = is_epsilon_regular(g, a, b, eps, mode="exact")
        assert got == exact_regularity_per_x_mask(g, a, b, eps), (g.adj, a, b, eps)
        irregular += not got.regular
    assert 60 <= irregular <= 260


def test_sampled_same_verdicts_and_witnesses_as_fraction_densities():
    rng = random.Random(66)
    irregular = 0
    for seed in range(80):
        # small sides make deviations of exactly eps common
        top = 40 if seed % 2 else 6
        na, nb = rng.randint(1, top), rng.randint(1, top)
        g, a, b = interleaved_pair(rng, na, nb, rng.random())
        eps = Fraction(rng.randint(1, 10), 20)
        got = is_epsilon_regular(g, a, b, eps, mode="sampled", samples=300, seed=seed)
        assert got == sampled_regularity_by_fractions(g, a, b, eps, 300, seed)
        irregular += not got.regular
    assert 10 <= irregular <= 70
    # side 120 at eps 1/20: subsets of 7-21 vertices come from random.sample's
    # set branch; p = 0.97 stays regular through every sample
    eps = Fraction(1, 20)
    for seed, p in ((0, 0.5), (1, 0.97)):
        g, a, b = interleaved_pair(rng, 120, 120, p)
        got = is_epsilon_regular(g, a, b, eps, mode="sampled", samples=300, seed=seed)
        assert got == sampled_regularity_by_fractions(g, a, b, eps, 300, seed)
        assert got.regular == (p == 0.97)


def _sampled_records():
    for seed in range(40):
        rng = random.Random(seed)
        g, a, b = bipartite_random(rng, 40, 40, rng.uniform(0.1, 0.9))
        yield seed, 40, "0.2", is_epsilon_regular(g, a, b, "0.2", mode="sampled",
                                                 samples=200, seed=seed)
        g, a, b = bipartite_random(rng, 12, 12, rng.uniform(0.1, 0.9))
        for eps in ("0.1", "0.2", "0.3"):
            yield seed, 12, eps, is_epsilon_regular(g, a, b, eps, mode="sampled",
                                                    samples=200, seed=seed)
    # side 120 at eps 1/20 draws subsets of 7-21 vertices, which random.sample
    # takes by reselecting into a set rather than from a pool; p = 0.97 stays
    # regular through all 2,000 samples
    rng = random.Random(120)
    for seed, p in enumerate((0.5, 0.97)):
        g, a, b = bipartite_random(rng, 120, 120, p)
        yield seed, 120, "1/20", is_epsilon_regular(g, a, b, Fraction(1, 20), mode="sampled",
                                                    samples=2000, seed=seed)


# recorded with the sampled check drawing through random.Random's randint
# and sample
PINNED_SAMPLED_DIGEST = "dde0ecdea64d8426e2e72184f8f051443f51d48f5c32dd1f48411e87ca2e8c41"


def test_sampled_output_is_pinned():
    h = hashlib.sha256()
    for record in _sampled_records():
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == PINNED_SAMPLED_DIGEST


def test_monotone_in_epsilon_exact_mode():
    rng = random.Random(62)
    grid = [Fraction(x, 20) for x in range(2, 19)]
    for _ in range(20):
        g, a, b = bipartite_random(rng, rng.randint(3, 7), rng.randint(3, 7),
                                   rng.uniform(0.2, 0.8))
        verdicts = [is_epsilon_regular(g, a, b, e).regular for e in grid]
        # once regular, regular for every larger epsilon
        if True in verdicts:
            first = verdicts.index(True)
            assert all(verdicts[first:])


def test_sampled_mode_irregular_needs_witness():
    g = Graph.from_edges(12, [(i, 6 + i) for i in range(6)])
    v = is_epsilon_regular(g, range(6), range(6, 12), "0.3", mode="sampled", samples=4000)
    assert v.mode == "sampled"
    if not v.regular:
        xs, ys, dev = v.witness
        assert dev >= Fraction(3, 10)


def test_auto_downgrades_above_cap_and_exact_raises():
    rng = random.Random(63)
    g, a, b = bipartite_random(rng, 16, 16, 0.5)
    v = is_epsilon_regular(g, a, b, "0.2", samples=300)
    assert v.mode == "sampled"
    with pytest.raises(GraphError):
        is_epsilon_regular(g, a, b, "0.2", mode="exact")


def test_super_regular_complete_bipartite():
    g = Graph.complete_bipartite(6, 6)
    assert is_super_regular(g, range(6), range(6, 12), "0.3", "0.9").regular


def test_super_regular_reports_failing_vertex():
    g = Graph.complete_bipartite(6, 6).without_edges([(0, 6 + j) for j in range(6)])
    v = is_super_regular(g, range(6), range(6, 12), "0.3", "0.5")
    assert not v.regular
    assert v.failing_vertex == 0


def test_super_regular_k66_minus_matching():
    g = Graph.complete_bipartite(6, 6).without_edges([(i, 6 + i) for i in range(6)])
    v = is_super_regular(g, range(6), range(6, 12), "0.4", "0.5")
    assert v.regular


def test_degree_floor_is_strict():
    # degree exactly delta*|B| must fail the strict bound
    g = Graph.complete_bipartite(4, 4).without_edges([(0, 4), (0, 5)])
    v = is_super_regular(g, range(4), range(4, 8), "0.9", "0.5")
    assert not v.regular and v.failing_vertex == 0
    # a bad eps or mode is refused before the floor can answer
    for eps, mode in (("abc", "auto"), ("-1", "auto"), ("0.9", "bogus")):
        with pytest.raises(GraphError):
            is_super_regular(g, range(4), range(4, 8), eps, "0.5", mode=mode)
    with pytest.raises(GraphError):
        is_epsilon_regular(g, range(4), range(4, 8), "0.9", mode="bogus")


def test_as_fraction_decimal_semantics():
    assert as_fraction(0.3) == Fraction(3, 10)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(1) == 1


def test_sides_validated():
    g = Graph.complete_bipartite(4, 4)
    with pytest.raises(GraphError):
        is_epsilon_regular(g, [0, 1], [1, 2], "0.3")
    with pytest.raises(GraphError):
        is_epsilon_regular(g, [], [4, 5], "0.3")
    with pytest.raises(GraphError):
        is_epsilon_regular(g, [0], [4], "0")


def test_fewer_than_one_sample_is_refused():
    # zero draws would find no witness and call the pair regular
    g = Graph.complete(6)
    for samples in (0, -3):
        for mode in ("sampled", "auto", "exact"):
            with pytest.raises(GraphError, match="samples must be at least 1"):
                is_epsilon_regular(g, [0, 1, 2], [3, 4, 5], "0.1", mode=mode, samples=samples)
        with pytest.raises(GraphError, match="samples must be at least 1"):
            is_super_regular(g, [0, 1, 2], [3, 4, 5], "0.1", "0.5", samples=samples)
    assert is_epsilon_regular(g, [0, 1, 2], [3, 4, 5], "0.1", mode="sampled", samples=1)
