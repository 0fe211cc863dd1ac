"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else; every expected value
is either trivial, verified against the source formulas, or computed by an
independent oracle from oracles.py.
"""

import random
import time

from kordered import (
    ExtremalParams,
    Graph,
    build_dense_bipartite_instance,
    build_sparse_cut_instance,
    degree_profile,
    find_hamiltonian_path,
    find_s_cycle,
    hamiltonian_cycle,
    is_k_ordered,
    maximum_matching,
    posa_condition,
    random_graph_min_degree,
    sharpness_min_degree,
    sharpness_sweep,
    solve_extremal_dense,
    solve_extremal_sparse,
    verify_s_cycle,
    is_epsilon_regular,
)
from kordered.cli import main
from kordered.regularity import as_fraction
from oracles import (
    brute_matching_number,
    random_graph,
    regular_pair_naive,
    s_cycle_exists_naive,
)

DESK_PARAMS = ExtremalParams(alpha="0.3")


def test_criterion_1_sharpness_reproduction():
    t0 = time.time()
    report = sharpness_sweep(range(8, 17))
    elapsed = time.time() - t0
    assert report.aggregates["rows"] == 43
    for row in report.rows:
        assert row["delta"] == sharpness_min_degree(row["n"], row["k"]), row
        assert row["outcome"] == "none", row
    assert report.aggregates["violations"] == 0
    assert elapsed < 300.0
    print(f"\n[criterion 1] PASS: 43/43 sharpness rows exact, {elapsed:.1f}s (< 300s)")


def test_criterion_2_oracle_equivalence():
    rng = random.Random(1002)
    agree = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.85))
        k = rng.randint(2, min(5, n))
        seq = tuple(rng.sample(range(n), k))
        got = find_s_cycle(g, seq)
        expected = s_cycle_exists_naive(g, seq)
        assert (got is not None) == expected, (n, seq)
        if got is not None:
            assert verify_s_cycle(g, seq, got)
        agree += 1
    assert agree == 300
    print("[criterion 2] PASS: 300/300 instances agree with the enumeration oracle")


def test_criterion_3_classical_anchors():
    rng = random.Random(1003)
    # every Hamiltonian graph is 2- and 3-ordered
    done = 0
    while done < 200:
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.uniform(0.35, 0.95))
        if hamiltonian_cycle(g) is None:
            continue
        done += 1
        assert is_k_ordered(g, 2) == (True, None)
        assert is_k_ordered(g, 3) == (True, None)
        seq = tuple(rng.sample(range(n), min(3, n)))
        assert find_s_cycle(g, seq) is not None
    # complete graphs are n-ordered
    for n in range(3, 9):
        ok, _ = is_k_ordered(Graph.complete(n), n)
        assert ok, n
    # Dirac: minimum degree >= n/2 forces a Hamiltonian cycle
    done = 0
    while done < 200:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.45, 1.0))
        if 2 * degree_profile(g).min_degree < n:
            continue
        done += 1
        assert hamiltonian_cycle(g) is not None, n
    print("[criterion 3] PASS: 200 Hamiltonian samples 2-/3-ordered, "
          "K_n n-ordered (n<=8), 200 Dirac samples Hamiltonian")


def test_criterion_4_monotonicity():
    rng = random.Random(1004)
    checked = 0
    while checked < 100:
        n = rng.randint(6, 10)
        g = random_graph(rng, n, rng.uniform(0.5, 0.95))
        if hamiltonian_cycle(g) is None:
            continue
        checked += 1
        for k in (4, 5):
            if k > n:
                continue
            ok, _ = is_k_ordered(g, k)
            if ok:
                for lower in range(2, k):
                    assert is_k_ordered(g, lower)[0], (n, k, lower)
    print("[criterion 4] PASS: 100 graphs, k-ordered implies l-ordered for l <= k")


def test_criterion_5_matching_bounds():
    rng = random.Random(1005)
    brute_checked = 0
    for _ in range(500):
        n = rng.randint(2, 60)
        g = random_graph(rng, n, rng.uniform(0.05, 0.9))
        nu = len(maximum_matching(g))
        profile = degree_profile(g)
        delta, top = profile.min_degree, profile.max_degree
        # Erdos-Posa: nu >= min(delta, (n-1)/2)
        assert 2 * nu >= min(2 * delta, n - 1)
        # nu >= delta*n / (2*(delta+Delta)) whenever there is an edge
        if top > 0:
            assert 2 * nu * (delta + top) >= delta * n
        if n <= 12:
            assert nu == brute_matching_number(g)
            brute_checked += 1
    assert brute_checked > 0
    print(f"[criterion 5] PASS: both matching bounds hold on 500 graphs; "
          f"nu matches brute force on {brute_checked} graphs with n <= 12")


def test_criterion_6_posa_predicates():
    rng = random.Random(1006)
    graphs = 0
    pairs = 0
    rotation_only = 0
    while graphs < 200:
        n = rng.randint(6, 12)
        g = random_graph_min_degree(n, n // 2 + 1, seed=rng.randrange(10**9))
        if not posa_condition(g):
            continue
        graphs += 1
        for x in range(n):
            for y in range(x + 1, n):
                res = find_hamiltonian_path(g, x, y, seed=pairs)
                assert res.path is not None, (n, x, y)
                pairs += 1
                rotation_only += res.method == "rotation"
    rate = rotation_only / pairs
    assert pairs >= 200
    print(f"[criterion 6] PASS: {graphs} graphs Hamiltonian-connected "
          f"({pairs} pairs); rotation-only rate {rate:.4f} (reported, target >= 0.95)")


def test_criterion_7_extremal_solvers():
    rng = random.Random(1007)
    worst = 0.0
    for t in range(50):
        n = rng.choice([40, 48, 56, 60, 64, 72, 80])
        k = rng.randint(2, 8)
        inst = build_sparse_cut_instance(n, k, seed=t)
        seq = tuple(rng.sample(range(n), k))
        t0 = time.time()
        sol = solve_extremal_sparse(
            inst.graph, inst.side_a, inst.side_b, seq, DESK_PARAMS, seed=t
        )
        dt = time.time() - t0
        worst = max(worst, dt)
        assert dt < 2.0
        assert verify_s_cycle(inst.graph, seq, sol.cycle)
    r_seen = set()
    for t in range(50):
        r = (0, 1, 2)[t % 3]
        n = rng.choice([40, 50, 60, 80]) + (r % 2)
        k = rng.randint(2, 8)
        inst = build_dense_bipartite_instance(n, k, imbalance=r, seed=t)
        r_seen.add(r)
        seq = tuple(rng.sample(range(n), k))
        t0 = time.time()
        sol = solve_extremal_dense(
            inst.graph, inst.side_a, inst.side_b, seq, DESK_PARAMS, seed=t
        )
        dt = time.time() - t0
        worst = max(worst, dt)
        assert dt < 2.0
        assert verify_s_cycle(inst.graph, seq, sol.cycle)
    assert r_seen == {0, 1, 2}
    print(f"[criterion 7] PASS: 50 sparse + 50 dense instances certified, "
          f"worst instance {worst:.3f}s (< 2s)")


def test_criterion_8_regularity_oracle_equivalence():
    rng = random.Random(1008)
    # the pinned perfect-matching witness case
    pm = Graph.from_edges(12, [(i, 6 + i) for i in range(6)])
    v = is_epsilon_regular(pm, range(6), range(6, 12), "0.3")
    assert not v.regular and v.witness[2] >= as_fraction("0.3")
    agree = 0
    for _ in range(200):
        m = rng.randint(2, 8)
        edges = [
            (u, m + w) for u in range(m) for w in range(m) if rng.random() < rng.uniform(0.1, 0.9)
        ]
        g = Graph.from_edges(2 * m, edges)
        a, b = list(range(m)), list(range(m, 2 * m))
        eps = as_fraction(rng.choice(["0.2", "0.25", "0.3", "0.4"]))
        mine = is_epsilon_regular(g, a, b, eps)
        ref, _ = regular_pair_naive(g, a, b, eps)
        assert mine.mode == "exact"
        assert mine.regular == ref, (m, eps, edges)
        if not mine.regular:
            xs, ys, dev = mine.witness
            assert dev >= eps
        agree += 1
    assert agree == 200
    print("[criterion 8] PASS: 200/200 exact verdicts match the quantifier "
          "enumeration oracle (plus the matching witness case)")


def test_criterion_9_deterministic_reports(capsys):
    outputs = []
    for _ in range(2):
        assert main(["sharpness", "--n", "8-11", "--format", "json"]) == 0
        assert main(["scan", "--n", "8", "--k", "3", "--trials", "4",
                     "--seed", "11", "--format", "csv"]) == 0
        assert main(["extremal", "--kind", "dense", "--n", "40", "--k", "3",
                     "--trials", "2", "--seed", "11", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        print("\n[criterion 9] PASS: repeated CLI runs are byte-identical")
