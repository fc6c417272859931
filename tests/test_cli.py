"""Command line tests: every subcommand drives its module through main()
with temporary files, checking outputs, exit codes, and the byte-level
determinism contract of the CSV emitters (wall clock column excluded).
"""

import json
import time

import pytest

from cyclecover import cli
from cyclecover.cli import main
from cyclecover.core import (
    CycleBlowupCertificate,
    Graph,
    graph_from_text,
    graph_to_text,
    verify_cycle_blowup,
)
from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate


def write_graph(path, G: Graph) -> str:
    path.write_text(graph_to_text(G))
    return str(path)


def strip_wall(text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]


# ---------------------------------------------------------------------------
# generate


def test_generate_full_density_gives_complete_graph(tmp_path):
    out = tmp_path / "g.txt"
    rc = main(["generate", "--kind", "gnp", "--n", "10", "--p", "1.0",
               "--delta-target", "9", "--out", str(out)])
    assert rc == 0
    assert graph_from_text(out.read_text()) == Graph.complete(10)


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["generate", "--kind", "gnp", "--n", "30", "--p", "0.5",
            "--delta-target", "18", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_extremal_overlap_meets_target(tmp_path):
    out = tmp_path / "d.txt"
    rc = main(["generate", "--kind", "dirac", "--n", "10",
               "--delta-target", "5", "--out", str(out)])
    assert rc == 0
    G = graph_from_text(out.read_text())
    assert min(G.degree(v) for v in range(G.n)) >= 5


def test_generate_from_file_reads_a_lone_carriage_return_as_a_space(tmp_path):
    src, out = tmp_path / "src.txt", tmp_path / "out.txt"
    src.write_bytes(b"3 2\n0\r1\n1 2\n")
    rc = main(["generate", "--kind", "file", "--path", str(src), "--n", "3", "--out", str(out)])
    assert rc == 0
    assert graph_from_text(out.read_text()) == Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("argv, needle", [
    (["--kind", "gnp", "--n", "10", "--delta-target", "10"], "infeasible"),
    (["--kind", "file"], "needs a path"),
    (["--kind", "dirac", "--n", "10", "--overlap", "8"], "overlap too large"),
    (["--kind", "gnp", "--n", "-3"], "vertex count n must be nonnegative"),
    (["--kind", "dirac", "--n", "-3"], "vertex count n must be nonnegative"),
    (["--kind", "cliques", "--n", "-3"], "vertex count n must be nonnegative"),
    (["--kind", "file", "--n", "-3"], "vertex count n must be nonnegative"),
    (["--kind", "gnp", "--p", "1.7"], "edge probability p must lie in [0, 1]"),
    (["--kind", "gnp", "--p", "-0.1"], "edge probability p must lie in [0, 1]"),
    (["--kind", "gnp", "--p", "nan"], "edge probability p must lie in [0, 1]"),
    (["--kind", "file", "--path", "no/such/graph.txt"], "No such file"),
])
def test_generate_refusals_exit_two_with_diagnostics(argv, needle, capsys):
    rc = main(["generate"] + argv)
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err.startswith("refused: ")
    assert needle in out.err


# ---------------------------------------------------------------------------
# solve / verify


def test_solve_writes_verifiable_certificate(tmp_path):
    g = write_graph(tmp_path / "g.txt", Graph.complete(52))
    cert_path = tmp_path / "cert.json"
    csv_path = tmp_path / "run.csv"
    rc = main(["solve", g, "--out", str(cert_path), "--csv", str(csv_path)])
    assert rc == 0
    cert = CycleBlowupCertificate.from_json(cert_path.read_text())
    assert verify_cycle_blowup(Graph.complete(52), cert).status == "PASS"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[2].startswith("52,0,desk,PASS,")


def test_solve_failure_exits_two_with_stage(tmp_path, capsys):
    adj = [0] * 52
    for base in (0, 26):
        for a in range(26):
            for b in range(a + 1, 26):
                adj[base + a] |= 1 << (base + b)
                adj[base + b] |= 1 << (base + a)
    g = write_graph(tmp_path / "two.txt", Graph(52, adj))
    rc = main(["solve", g])
    assert rc == 2
    assert "stage=cover" in capsys.readouterr().err


def test_solve_refuses_below_order_floor(tmp_path, capsys):
    g = write_graph(tmp_path / "small.txt", Graph.complete(40))
    rc = main(["solve", g])
    assert rc == 2
    assert "exhaustive" in capsys.readouterr().err


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.complete(52))
    cert_path = tmp_path / "cert.json"
    assert main(["solve", g, "--out", str(cert_path)]) == 0
    assert main(["verify", g, str(cert_path)]) == 0
    blob = json.loads(cert_path.read_text())
    blob["clusters"] = blob["clusters"][1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert main(["verify", g, str(bad)]) == 2
    assert capsys.readouterr().err.startswith("FAIL")


def test_verify_reads_graph_text_grammar(tmp_path, capsys):
    # ln 12 = 2.4849, c = 1.2, eta = 0.25 pins every size to exactly 3
    cert = CycleBlowupCertificate(12, 1.2, 0.25, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert.to_json())
    head, *edges = graph_to_text(Graph.complete(12)).splitlines()
    lines = ["# K12, CRLF endings", "", head, "  # edges follow", "\t"]
    lines += [e.replace(" ", "\t ") + " " for e in edges]
    g = tmp_path / "g.txt"
    g.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    assert main(["verify", str(g), str(cert_path)]) == 0
    assert capsys.readouterr().out == "PASS\n"
    g.write_bytes("\n".join(lines[:-1] + ["10 11 # last"]).encode() + b"\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(g), str(cert_path)])
    assert exc.value.code == 2
    assert "bad edge line '10 11 # last'" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"n": 3',                                   # truncated JSON
    '{"n": 12, "c": 1.2, "eta": 0.25}',          # no "clusters" key
    # fractional or boolean order and ids, which int() used to truncate
    '{"n": 12.9, "c": 1.2, "eta": 0.25, "clusters": [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]}',
    '{"n": 12, "c": 1.2, "eta": 0.25, "clusters": [[0.7, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]}',
    '{"n": 12, "c": 1.2, "eta": 0.25, "clusters": [[true, 0, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]}',
])
def test_verify_bad_certificate_exits_two(tmp_path, capsys, text):
    g = write_graph(tmp_path / "g.txt", Graph.complete(12))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text)
    assert main(["verify", g, str(cert_path)]) == 2
    assert capsys.readouterr().err.startswith(f"bad certificate file {cert_path}: ")


def test_missing_graph_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(missing)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"bad graph file {missing}: ")


@pytest.mark.parametrize("argv, reason", [
    (["solve", "G", "--preset", "nope"], "unknown preset 'nope'"),
    (["sweep", "--ns", "60", "--seeds", "0", "--preset", "nope"], "unknown preset 'nope'"),
    (["generate", "--n", "10", "--preset", "nope"], "unknown preset 'nope'"),
    (["solve", "G", "--budget", "-5"], "--budget must be nonnegative"),
], ids=["solve-preset", "sweep-preset", "generate-preset", "solve-budget"])
def test_bad_common_flags_exit_two(tmp_path, capsys, argv, reason):
    g = write_graph(tmp_path / "g.txt", Graph.complete(52))
    with pytest.raises(SystemExit) as exc:
        main([g if a == "G" else a for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("refused: ") and reason in out.err


# ---------------------------------------------------------------------------
# cover / connect / biclique


def test_cover_reports_simple_partition(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.complete(60))
    rc = main(["cover", g])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kind SIMPLE" in out
    assert "uncovered 0" in out
    assert "verify PASS" in out


def test_cover_reads_a_lone_carriage_return_as_a_space(tmp_path, capsys):
    head, first, *rest = graph_to_text(Graph.complete(60)).splitlines()
    g = tmp_path / "g.txt"
    g.write_bytes("\n".join([head, first.replace(" ", "\r")] + rest).encode() + b"\n")
    assert main(["cover", str(g)]) == 0
    assert "verify PASS" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["simple", "almost"])
def test_cover_refuses_a_host_too_small_for_the_scales(tmp_path, capsys, mode):
    g = write_graph(tmp_path / "g.txt", Graph.from_edges(5, [(v, v + 1) for v in range(4)]))
    assert main(["cover", g, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and "a cluster scale collapsed" in err


def test_connect_emits_three_sides(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.complete(30))
    rc = main(["connect", g, "--side-a", "0,1,2,3", "--side-b", "4,5,6,7",
               "--m-prime", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    a, b, w = (set(map(int, line.split(","))) for line in lines)
    assert len(a) == len(b) == len(w) == 2
    assert a <= {0, 1, 2, 3} and b <= {4, 5, 6, 7}
    assert not w & (set(range(8)))


def test_connect_failure_exit_code(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.empty(12))
    rc = main(["connect", g, "--side-a", "0,1", "--side-b", "2,3",
               "--m-prime", "1"])
    assert rc == 2
    assert "FAILURE" in capsys.readouterr().err


# each id names the bad side and the reason
@pytest.mark.parametrize("side_a,side_b,reason", [
    pytest.param("0,1", "1,2", "overlap", id="1,2-overlap"),
    pytest.param("0,1", "2,40", "outside the host", id="2,40-outside the host"),
    pytest.param("0,x", "2,3", "bad id list '0,x'", id="0,x-bad id list"),
])
def test_connect_bad_sides_exit_two(tmp_path, capsys, side_a, side_b, reason):
    g = write_graph(tmp_path / "g.txt", Graph.complete(12))
    assert main(["connect", g, "--side-a", side_a, "--side-b", side_b]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and reason in err


def test_biclique_found_and_absent(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt",
                    Graph.complete_multipartite([5, 5]))
    rc = main(["biclique", g, "-p", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2

    empty = write_graph(tmp_path / "e.txt", Graph.empty(10))
    assert main(["biclique", empty, "-p", "2"]) == 2
    assert "NONE" in capsys.readouterr().out


@pytest.mark.parametrize("argv,reason", [
    (["-p", "0"], "p must be at least 1"),
    (["--side-a", "0,1", "--side-b", "1,2"], "sides overlap"),
    (["--side-a", "0,1", "--side-b", "2,40"], "outside the host"),
    (["--side-a", "0,y", "--side-b", "2,3"], "bad id list '0,y'"),
    (["--side-a", "0,1"], "give both --side-a and --side-b"),
], ids=["p-zero", "overlap", "outside", "bad-id", "one-side"])
def test_biclique_bad_requests_exit_two(tmp_path, capsys, argv, reason):
    g = write_graph(tmp_path / "g.txt", Graph.complete(12))
    assert main(["biclique", g] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and reason in err


# ---------------------------------------------------------------------------
# match / inherit-scan


def test_match_complete_host(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.complete(20))
    rc = main(["match", g, "--s", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    seen = sorted(int(tok) for line in lines for tok in line.split(","))
    assert seen == list(range(20))


def test_match_refuses_indivisible_order(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.complete(20))
    rc = main(["match", g, "--s", "3"])
    assert rc == 2
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("argv,reason", [
    (["match", "--s", "0"], "s must satisfy 2 <= s <= n"),
    (["inherit-scan", "--trials", "0"], "trials must be at least 1"),
], ids=["match-s-zero", "inherit-scan-no-trials"])
def test_match_and_inherit_scan_bad_requests_exit_two(tmp_path, capsys, argv, reason):
    g = write_graph(tmp_path / "g.txt", Graph.complete(6))
    assert main(argv[:1] + [g] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and reason in err


def test_inherit_scan_complete_graph_is_all_ones(tmp_path, capsys):
    g = write_graph(tmp_path / "g.txt", Graph.complete(12))
    rc = main(["inherit-scan", g, "--trials", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema=1"
    assert len(lines) == 14
    for line in lines[2:]:
        assert line.endswith(",1.000000")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_ordered_and_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--ns", "52,60", "--seeds", "0:2", "--p", "0.97"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert strip_wall(a.read_text()) == strip_wall(b.read_text())
    keys = [tuple(map(int, line.split(",")[:2]))
            for line in a.read_text().strip().splitlines()[2:]]
    assert keys == sorted(keys)
    assert len(keys) == 4


def test_sweep_failure_rows_carry_stage_labels(tmp_path):
    out = tmp_path / "f.csv"
    rc = main(["sweep", "--ns", "60", "--seeds", "0", "--kind", "cliques",
               "--delta-frac", "0.5", "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().splitlines()[-1]
    assert ",FAILURE:cover," in row


def test_sweep_surfaces_generator_errors_per_row(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["sweep", "--ns", "52,60", "--seeds", "0", "--p", "0.97",
               "--delta-frac", "1.01", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()[2:]
    assert len(rows) == 2
    assert all(",ERROR:ValueError," in row for row in rows)


def test_sweep_requires_nonempty_ranges(capsys):
    rc = main(["sweep", "--ns", "60", "--seeds", ""])
    assert rc == 2
    assert "nonempty ranges" in capsys.readouterr().err


@pytest.mark.parametrize("ns,seeds,reason", [
    ("60,x", "0", "bad id list '60,x'"),
    ("1:2:3:4", "0", "bad range '1:2:3:4'"),
    ("1:x", "0", "bad range '1:x'"),
    ("1:5:0", "0", "bad range '1:5:0'"),
    ("60", "0,y", "bad id list '0,y'"),
], ids=["ns-bad-id", "ns-four-fields", "ns-bad-bound", "ns-zero-step", "seeds-bad-id"])
def test_sweep_unreadable_ranges_exit_two(capsys, ns, seeds, reason):
    assert main(["sweep", "--ns", ns, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and reason in err


def test_sweep_worker_pool_matches_sequential(tmp_path):
    seq, par = tmp_path / "s.csv", tmp_path / "p.csv"
    argv = ["sweep", "--ns", "52", "--seeds", "0:2", "--p", "0.97"]
    assert main(argv + ["--out", str(seq)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(par)]) == 0
    assert strip_wall(seq.read_text()) == strip_wall(par.read_text())


def test_sweep_csv_matches_solve_row(tmp_path):
    # one grid cell and a direct solve of the same instance agree on every
    # deterministic column
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--ns", "60", "--seeds", "0", "--p", "0.97",
                 "--out", str(sweep_csv)]) == 0
    spec = GeneratorSpec(kind=GNP_REPAIRED, n=60, p=0.97, delta_target=45,
                         seed=0)
    g = write_graph(tmp_path / "g.txt", generate(spec))
    solve_csv = tmp_path / "solve.csv"
    cert = tmp_path / "cert.json"
    assert main(["solve", g, "--out", str(cert),
                 "--csv", str(solve_csv)]) == 0
    row_sweep = strip_wall(sweep_csv.read_text())[-1]
    row_solve = strip_wall(solve_csv.read_text())[-1]
    assert row_sweep == row_solve


def test_sweep_wall_ms_times_the_solve_alone(tmp_path, monkeypatch):
    # solve --csv times spanning_cycle_blowup only; so does the sweep column
    def slow_generate(spec):
        time.sleep(0.5)
        return generate(spec)

    monkeypatch.setattr(cli, "generate", slow_generate)
    out = tmp_path / "w.csv"
    assert main(["sweep", "--ns", "60", "--seeds", "0", "--p", "0.97",
                 "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[-1]
    assert ",PASS," in row
    assert float(row.rsplit(",", 1)[1]) < 500
