import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kordered
from kordered import (
    Graph,
    GraphError,
    build_sharpness_graph,
    decode_graph6,
    encode_graph6,
    extremal_demo,
    find_s_cycle,
    ore_condition,
    sharpness_sweep,
    threshold_scan,
)
from kordered.cli import main


# -- ore condition ------------------------------------------------------


def test_ore_vacuous_on_complete_graphs():
    for n in (4, 6, 9):
        assert ore_condition(Graph.complete(n), 3)


def test_ore_cycle_fails():
    # C6 with k=3 needs degree sums >= 6 on nonadjacent pairs; all are 4
    assert not ore_condition(Graph.cycle(6), 3)


def test_ore_sharpness_graph_value():
    # nonadjacent u_i, w_j (both outside the connectors) have degrees 6+5=11 < 12
    assert not ore_condition(build_sharpness_graph(10, 4).graph, 4)


def test_ore_needs_k_at_least_3():
    with pytest.raises(GraphError):
        ore_condition(Graph.complete(4), 2)


# -- reports ------------------------------------------------------------


def test_sweep_rows_and_aggregates():
    rep = sharpness_sweep([8, 9, 10])
    assert rep.aggregates["rows"] == len(rep.rows) == 3 + 3 + 4
    assert rep.aggregates["violations"] == 0
    assert all(r["outcome"] == "none" and r["delta_ok"] for r in rep.rows)


def test_sweep_reports_are_reproducible():
    a = sharpness_sweep([8, 9])
    b = sharpness_sweep([8, 9])
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_scan_trivial_delta_gives_fraction_one():
    # offset chosen so delta = n-1 forces the complete graph
    from kordered.generators import min_degree_threshold

    n, k = 9, 3
    off = (n - 1) - min_degree_threshold(n, k)
    rep = threshold_scan(n, k, trials=4, seed=1, offsets=(off,))
    assert rep.aggregates[f"fraction_at_{off:+d}"] == 1.0


def test_scan_false_rows_carry_checkable_witnesses():
    rep = threshold_scan(10, 4, trials=6, seed=3, offsets=(-2, -1))
    from kordered.experiments import scan_instance_seed
    from kordered.generators import random_graph_min_degree

    assert rep.aggregates["rows"] == len(rep.rows)
    rechecked = 0
    for row in rep.rows:
        if not row["ordered"] and row["witness"]:
            g = random_graph_min_degree(
                10, row["delta"], seed=scan_instance_seed(3, row["offset"], row["trial"])
            )
            witness = tuple(int(x) for x in row["witness"].split())
            assert find_s_cycle(g, witness) is None
            rechecked += 1
    assert rechecked > 0


def test_scan_deterministic():
    a = threshold_scan(9, 3, trials=5, seed=7)
    b = threshold_scan(9, 3, trials=5, seed=7)
    assert a.to_json() == b.to_json()


def test_scan_flags_monotone_dips_as_list():
    rep = threshold_scan(9, 3, trials=4, seed=2, offsets=(-1, 0, 1))
    assert isinstance(rep.aggregates["monotone_dips"], list)
    fractions = [
        rep.aggregates[f"fraction_at_{off:+d}"] for off in (-1, 0, 1)
    ]
    expected_dips = sum(1 for a, b in zip(fractions, fractions[1:]) if b < a)
    assert len(rep.aggregates["monotone_dips"]) == expected_dips


def test_extremal_demo_batches_certify():
    rep = extremal_demo("sparse", 50, 4, seed=2, trials=3)
    assert rep.aggregates["certified"] == 3
    rep = extremal_demo("dense", 51, 3, seed=2, trials=3)
    assert rep.aggregates["certified"] == 3
    assert all(r["retries"] == 0 for r in rep.rows)


def test_sweep_rows_follow_n_then_k():
    rep = sharpness_sweep([10, 8, 9])
    assert [(r["n"], r["k"]) for r in rep.rows] == [
        (n, k) for n in (10, 8, 9) for k in range(2, n // 2 + 1)
    ]


def test_sweep_and_scan_reject_oversize_n():
    from kordered import ConstructionError
    import pytest as _pytest

    with _pytest.raises(ConstructionError):
        sharpness_sweep([30])
    with _pytest.raises(ConstructionError):
        threshold_scan(30, 3, trials=1)


# -- CLI ----------------------------------------------------------------


def test_cli_gen_sharpness_and_scycle(tmp_path, capsys):
    side = tmp_path / "side.json"
    out = tmp_path / "g.g6"
    rc = main([
        "gen", "--kind", "sharpness", "--n", "10", "--k", "4",
        "--out", str(out), "--sidecar", str(side),
    ])
    assert rc == 0
    sidecar = json.loads(side.read_text())
    assert sidecar["delta"] == 5
    g = decode_graph6(out.read_text().strip())
    assert g == build_sharpness_graph(10, 4).graph

    seq = ",".join(map(str, sidecar["witness"]))
    rc = main(["scycle", str(out), "--seq", seq])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["cycle"] is None

    rc = main(["scycle", str(out), "--seq", "0,5"])
    payload = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and payload["cycle"] is not None


def test_cli_ordered(tmp_path, capsys):
    p = tmp_path / "c6.g6"
    p.write_text(encode_graph6(Graph.cycle(6)) + "\n")
    rc = main(["ordered", str(p), "--k", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["ordered"] is False
    assert payload["witness"] is not None


def test_cli_ordered_non_hamiltonian_exit(tmp_path, capsys):
    p = tmp_path / "p5.g6"
    p.write_text(encode_graph6(Graph.path(5)) + "\n")
    rc = main(["ordered", str(p), "--k", "3"])
    capsys.readouterr()
    assert rc == 2


def test_cli_sharpness_and_determinism(capsys):
    rc = main(["sharpness", "--n", "8-10", "--format", "json"])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc = main(["sharpness", "--n", "8-10", "--format", "json"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["aggregates"]["violations"] == 0


def test_cli_parse_errors_exit_2_with_one_line(tmp_path, capsys):
    p = tmp_path / "c6.g6"
    p.write_text(encode_graph6(Graph.cycle(6)) + "\n")
    k33 = tmp_path / "k33.g6"
    k33.write_text(encode_graph6(Graph.complete_bipartite(3, 3)) + "\n")
    bad_edges = tmp_path / "bad.txt"
    bad_edges.write_text("3\n0 x\n")
    not_ascii = tmp_path / "latin1.g6"
    not_ascii.write_bytes(b"\xff\n")
    for argv in (
        ["scan", "--n", "8", "--k", "4", "--offsets=x"],
        ["sharpness", "--n", "8-x"],
        ["sharpness", "--n", "16-8"],
        ["scycle", str(p), "--seq", "0,a"],
        ["ordered", str(bad_edges), "--k", "2"],
        ["regular", str(p), "--a", "0,2,4", "--b", "1,3,5", "--eps", "abc"],
        ["regular", str(p), "--a", "0,2,4", "--b", "1,3,5", "--eps", "0.3", "--delta", "zz"],
        ["regular", str(k33), "--a", "0,1,2", "--b", "3,4,5", "--eps", "abc", "--delta", "1"],
        ["regular", str(k33), "--a", "0,1,2", "--b", "3,4,5", "--eps", "-1", "--delta", "1"],
        ["scycle", str(tmp_path / "missing.g6"), "--seq", "0,1"],
        ["scycle", str(not_ascii), "--seq", "0,1"],
        ["scycle", str(p), "--seq=--"],
        ["regular", str(k33), "--a", "0,1,2", "--b=-1", "--eps", "0.3"],
        ["extremal", "--kind", "sparse", "--n", "8", "--k=-1"],
        ["scan", "--n", "8", "--k", "4", "--trials", "0"],
        ["extremal", "--kind", "sparse", "--n", "60", "--k", "4", "--trials", "-3"],
        ["regular", str(k33), "--a", "0,1,2", "--b", "3,4,5", "--eps", "0.3",
         "--mode", "sampled", "--samples", "0"],
        ["regular", str(k33), "--a", "0,1,2", "--b", "3,4,5", "--eps", "0.3",
         "--mode", "sampled", "--samples", "-4"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, code, prefix", [
    (["sharpness", "--n", "8-12", "--k", "9"], 3, "infeasible: "),
    (["sharpness", "--n", "3"], 3, "infeasible: "),
    (["sharpness", "--n", "8", "--k", "1"], 3, "infeasible: "),
    (["scan", "--n", "8", "--k", "4", "--trials", "2", "--offsets=50"], 3, "infeasible: "),
    (["scan", "--n", "8", "--k", "12", "--trials", "1"], 2, "error: k=12 outside 2..n"),
    (["scan", "--n", "0", "--k", "2", "--trials", "1"], 2, "error: k=2 outside 2..n"),
])
def test_cli_requests_that_select_nothing_fail(argv, code, prefix, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err


def test_partly_valid_requests_drop_the_invalid_pairs():
    rep = sharpness_sweep([3, 8], [1, 2, 9])
    assert [(r["n"], r["k"]) for r in rep.rows] == [(8, 2)]
    rep = threshold_scan(8, 4, trials=1, offsets=(50, 0))
    assert [r["offset"] for r in rep.rows] == [0]


def test_python_dash_m_runs_the_cli():
    src = str(Path(kordered.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "kordered", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0 and "scycle" in shown.stdout
    refused = run("scan", "--n", "8", "--k", "4", "--trials", "0")
    assert refused.returncode == 2
    assert refused.stderr == "error: --trials must be at least 1, got 0\n"


def test_cli_scycle_refuses_graphs_past_the_cap(tmp_path, capsys):
    p = tmp_path / "k25.g6"
    p.write_text(encode_graph6(Graph.complete(25)) + "\n")
    assert main(["scycle", str(p), "--seq", "0,1,2"]) == 2
    err = capsys.readouterr().err
    assert "EXACT_SOLVER_LIMIT" in err and err.count("\n") == 1, err


def test_cli_scan_csv(capsys):
    rc = main(["scan", "--n", "8", "--k", "3", "--trials", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("offset,delta,trial,ordered")


def test_cli_extremal(capsys):
    rc = main([
        "extremal", "--kind", "sparse", "--n", "40", "--k", "3",
        "--trials", "2", "--seed", "4", "--format", "json",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["aggregates"]["certified"] == 2


def test_cli_regular(tmp_path, capsys):
    p = tmp_path / "pm.g6"
    g = Graph.from_edges(12, [(i, 6 + i) for i in range(6)])
    p.write_text(encode_graph6(g) + "\n")
    rc = main([
        "regular", str(p), "--a", "0,1,2,3,4,5", "--b", "6,7,8,9,10,11",
        "--eps", "0.3",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["regular"] is False and payload["mode"] == "exact"
    assert payload["witness"] is not None


def test_cli_gen_infeasible_exit_code(capsys):
    for argv in (
        ["gen", "--kind", "sparse", "--n", "60", "--k", "4", "--cut-degree", "1"],
        # k = n + 1 passes the sparse generator at even n, so the demo must
        # refuse it before drawing k of n vertices
        ["extremal", "--kind", "sparse", "--n", "60", "--k", "61"],
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and err.count("\n") == 1, err


def test_cli_edge_list_input(tmp_path, capsys):
    p = tmp_path / "c6.txt"
    from kordered import format_edge_list

    p.write_text(format_edge_list(Graph.cycle(6)))
    rc = main(["scycle", str(p), "--seq", "0,2,4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["cycle"] is not None
