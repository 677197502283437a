"""CLI runs, in subprocesses end to end and in-process: output shapes and exit codes."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperchrom import (
    Hypergraph,
    InputError,
    ListAssignment,
    chromatic_polynomial,
    cli,
    count_L_colorings,
    count_L_colorings_expansion,
    enumerate_delta_cycles,
    generators,
    nb_subsets,
)
from hyperchrom.generators import fig1, random_antichain, random_assignment


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperchrom.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, text):
        p = root / name
        p.write_text(text)
        paths[name] = str(p)

    put("e1.json", Hypergraph(3, [(1, 2, 3)]).to_json())
    put("e2.json", Hypergraph(5, [(1, 2, 3), (3, 4, 5)]).to_json())
    put("tri.json", Hypergraph(3, [(1, 2), (2, 3), (1, 3)]).to_json())
    put("tri3.json", Hypergraph(6, [(1, 2, 3), (3, 4, 5), (5, 6, 1)]).to_json())
    put("h2.json", fig1(2).to_json())
    put("L1.json", ListAssignment(2, {1: [1, 2], 2: [1, 2], 3: [2, 3]}).to_json())
    put("bad_contain.json", '{"n":4,"edges":[[1,2],[1,2,3]]}')
    put("bad_vertex.json", '{"n":2,"edges":[[0,1]]}')
    put("garbage.json", "{not json")
    paths["root"] = str(root)
    return paths


class TestChromatic:
    def test_polynomial_only(self, files):
        out = run_cli("chromatic", files["e1.json"])
        assert out.returncode == 0
        assert out.stdout == "k^3 - k\n"

    def test_with_eval_and_oracle(self, files):
        out = run_cli("chromatic", files["e1.json"], "--k", "3", "--oracle")
        assert out.returncode == 0
        assert out.stdout == "k^3 - k\n24 (oracle agrees)\n"

    def test_eta_does_not_change_polynomial(self, files):
        a = run_cli("chromatic", files["tri.json"])
        b = run_cli("chromatic", files["tri.json"], "--eta", "3,2,1")
        assert a.stdout == b.stdout == "k^3 - 3k^2 + 2k\n"

    def test_json_record(self, files):
        out = run_cli("chromatic", files["e2.json"], "--k", "3", "--json")
        record = json.loads(out.stdout)
        assert record["text"] == "k^5 - 2k^3 + k"
        assert record["eval"] == 192
        assert record["poly"][0] == [5, 1]


    def test_value_past_the_int_str_limit(self, tmp_path, capsys):
        # P(H, 2) has 6,021 digits, past CPython's 4,300-digit limit for int to str
        path = tmp_path / "big.json"
        path.write_text('{"n": 20000, "edges": [[1, 2, 3]]}')
        poly = {"poly": [[20000, 1], [19998, -1]], "text": "k^20000 - k^19998"}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = str(2**20000 - 2**19998)
            record = json.dumps({**poly, "eval": 2**20000 - 2**19998, "k": 2}, sort_keys=True)
        finally:
            sys.set_int_max_str_digits(limit)
        out = run_cli("chromatic", str(path), "--k", "2")
        assert (out.returncode, out.stdout, out.stderr) == (0, f"k^20000 - k^19998\n{value}\n", "")
        assert cli.main(["chromatic", str(path), "--k", "2", "--json"]) == 0
        assert capsys.readouterr() == (record + "\n", "")
        # the limit is back, so the readers still refuse such an integer
        assert sys.get_int_max_str_digits() == limit
        path.write_text('{"n": ' + value + ', "edges": [[1, 2, 3]]}')
        out = run_cli("chromatic", str(path), "--k", "2")
        assert out.returncode == 2 and "digits" in out.stderr


class TestDeltaCycles:
    def test_triangle(self, files):
        out = run_cli("delta-cycles", files["tri.json"])
        assert out.returncode == 0
        assert out.stdout == "1 delta-cycle\nsize 3: {e1,e2,e3} broken: {e2,e3}\n"

    def test_eta_moves_the_break(self, files):
        out = run_cli("delta-cycles", files["tri.json"], "--eta", "3,2,1")
        assert "broken: {e1,e2}" in out.stdout

    def test_acyclic(self, files):
        out = run_cli("delta-cycles", files["h2.json"])
        assert out.stdout == "0 delta-cycles\n"


class TestNb:
    def test_stream_and_count(self, files):
        out = run_cli("nb", files["tri.json"])
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert lines[-1] == "6 subsets"
        assert "{e2,e3}" not in lines
        assert "{e1,e2}" in lines

    def test_filters(self, files):
        out = run_cli("nb", files["tri.json"], "--size", "2")
        assert out.stdout == "{e1,e2}\n{e1,e3}\n2 subsets\n"
        out = run_cli("nb", files["e2.json"], "--contains", "2", "--json")
        record = json.loads(out.stdout)
        assert record["count"] == 2
        assert [2] in record["subsets"]


class TestListCount:
    def test_worked_example(self, files):
        out = run_cli("list-count", files["e1.json"], files["L1.json"])
        assert out.returncode == 0
        assert out.stdout == (
            "P(H,L)=7, alpha=1\nroutes: brute=7 expansion=7\nalpha per edge: 1\n"
        )

    def test_json_record(self, files):
        out = run_cli("list-count", files["e1.json"], files["L1.json"], "--json")
        record = json.loads(out.stdout)
        assert record["P_HL"] == 7
        assert record["routes_agree"] is True

    def test_color_past_int64(self, files, tmp_path):
        lists = tmp_path / "big.json"
        lists.write_text('{"k":2,"lists":{"1":[1,9223372036854775808],"2":[1,2],"3":[1,2]}}')
        out = run_cli("list-count", files["e1.json"], str(lists), "--json")
        assert (out.returncode, out.stderr) == (0, "")
        record = json.loads(out.stdout)
        assert (record["P_HL"], record["routes_agree"]) == (7, True)

    def test_vertex_key_aliases_refused(self, files, tmp_path):
        # "01" used to be read as vertex 1, silently replacing its list
        for name, lists in (
            ("alias.json", '{"k":2,"lists":{"1":[1,2],"01":[3,4],"2":[1,2],"3":[1,2]}}'),
            ("twice.json", '{"k":2,"lists":{"1":[1,2],"1":[3,4],"2":[1,2],"3":[1,2]}}'),
        ):
            path = tmp_path / name
            path.write_text(lists)
            out = run_cli("list-count", files["e1.json"], str(path))
            assert (out.returncode, out.stdout) == (2, "")
            assert "error:" in out.stderr


class TestPlk:
    def test_exact_constant_witness(self, files):
        out = run_cli("plk", files["e1.json"], "--k", "2")
        assert out.returncode == 0
        assert out.stdout == "P_l=6 = P; witness: constant lists\nP(H,k)=6\n"

    def test_budget_refusal_hints_heuristic(self, files):
        out = run_cli("plk", files["e2.json"], "--k", "3")
        assert out.returncode == 3
        assert "budget refused" in out.stderr
        assert "--heuristic" in out.stderr

    def test_heuristic_route(self, files):
        out = run_cli("plk", files["e2.json"], "--k", "3", "--heuristic")
        assert out.returncode == 0
        assert out.stdout.startswith("P_l<=")
        assert "; P=192" in out.stdout.splitlines()[0]

    def test_json_record(self, files):
        out = run_cli("plk", files["tri.json"], "--k", "2", "--json")
        record = json.loads(out.stdout)
        assert record["P_l"] == 0
        assert record["P"] == 0
        assert record["exact"] is True
        assert record["equal"] is True
        assert record["witness"]["k"] == 2


class TestVerify:
    def test_grids_all_hold(self, files, tmp_path):
        csv_path = str(tmp_path / "grids.csv")
        out = run_cli("verify", "--grids", "--csv", csv_path)
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert len(lines) == 11
        assert all(": holds" in line for line in lines)
        csv_lines = (tmp_path / "grids.csv").read_text().splitlines()
        assert csv_lines[0] == "name,m,r,rho,k,lhs,rhs,verdict"
        assert len(csv_lines) == 12

    def test_theorem_holds(self, files):
        out = run_cli("verify", "--theorem", "2", "--k", "4", files["tri3.json"])
        assert out.returncode == 0
        line = out.stdout.splitlines()[0]
        assert line.startswith(f"theorem2_threshold {files['tri3.json']}: holds ")

    def test_theorem_not_applicable(self, files):
        out = run_cli("verify", "--theorem", "1", "--k", "9", files["e2.json"])
        assert out.returncode == 0
        assert "not-applicable" in out.stdout
        assert "m < rho^3/2 + 1" in out.stdout

    def test_directory_input_expands_sorted(self, files, tmp_path):
        d = tmp_path / "batch"
        d.mkdir()
        (d / "a.json").write_text(Hypergraph(6, [(1, 2, 3), (3, 4, 5), (5, 6, 1)]).to_json())
        (d / "b.json").write_text(Hypergraph(6, [(1, 2, 3), (3, 4, 5), (5, 6, 1)]).to_json())
        out = run_cli("verify", "--theorem", "2", "--k", "4", str(d))
        lines = out.stdout.splitlines()
        assert len(lines) == 2
        assert "a.json" in lines[0] and "b.json" in lines[1]

    def test_json_structure(self, files):
        out = run_cli("verify", "--theorem", "2", "--k", "4", files["tri3.json"], "--json")
        records = json.loads(out.stdout)
        assert records[0]["verdict"] == "holds"
        assert records[0]["relation"] == ">="

    def test_nothing_to_verify(self, files):
        out = run_cli("verify")
        assert out.returncode == 2

    def test_theorem_needs_k(self, files):
        out = run_cli("verify", "--theorem", "2", files["tri3.json"])
        assert out.returncode == 2


class TestGen:
    def test_fig1_to_stdout(self):
        out = run_cli("gen", "--family", "fig1", "--index", "1")
        assert out.returncode == 0
        assert out.stdout == fig1(1).to_json() + "\n"

    def test_deterministic_random_family(self):
        args = ("gen", "--family", "random-linear", "--n", "9", "--m", "4", "--r", "3", "--seed", "7")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        H = Hypergraph.from_json(a.stdout)
        assert H.m == 4

    def test_out_file(self, tmp_path):
        dest = tmp_path / "h.json"
        out = run_cli("gen", "--family", "tight-path", "--n", "6", "--r", "3", "--out", str(dest))
        assert out.returncode == 0
        assert out.stdout == ""
        assert Hypergraph.load(str(dest)).m == 4

    def test_missing_parameter(self):
        out = run_cli("gen", "--family", "random-linear", "--n", "9", "--m", "4")
        assert out.returncode == 2
        assert "--r" in out.stderr

    def test_unsatisfiable_family(self):
        out = run_cli("gen", "--family", "random-linear", "--n", "4", "--m", "2", "--r", "3")
        assert out.returncode == 4
        assert "generator failed" in out.stderr

    def test_bad_index(self):
        out = run_cli("gen", "--family", "fig1", "--index", "9")
        assert out.returncode == 2


class TestErrorPaths:
    def test_missing_file(self):
        out = run_cli("chromatic", "/nonexistent/h.json")
        assert out.returncode == 2
        assert "error:" in out.stderr

    def test_garbage_json(self, files):
        out = run_cli("chromatic", files["garbage.json"])
        assert out.returncode == 2

    def test_containment_rejected(self, files):
        out = run_cli("chromatic", files["bad_contain.json"])
        assert out.returncode == 2
        assert "contained in" in out.stderr

    def test_nonpositive_vertex_rejected(self, files):
        out = run_cli("chromatic", files["bad_vertex.json"])
        assert out.returncode == 2
        assert "vertex 0" in out.stderr

    def test_budget_env_respected(self, files):
        out = run_cli(
            "chromatic", files["e2.json"], env_extra={"HYPERCHROM_BUDGET": "nb_edges=1"}
        )
        assert out.returncode == 3
        assert "HYPERCHROM_BUDGET" in out.stderr

    def test_bad_eta_text(self, files):
        out = run_cli("chromatic", files["e1.json"], "--eta", "1,x")
        assert out.returncode == 2


def _malformed(text: str, kind: str, rng: random.Random) -> bytes:
    """Valid JSON text spoiled one way, at a place drawn from rng."""
    spot = rng.choice(list(re.finditer(r"\d+", text)))
    if kind == "oversized-int":  # past CPython's 4,300-digit int-string limit
        return (text[: spot.start()] + "9" * rng.randint(4301, 6000) + text[spot.end():]).encode()
    if kind == "deep-nesting":
        depth = rng.randint(2000, 100_000)
        return (text[: spot.start()] + "[" * depth + "]" * depth + text[spot.end():]).encode()
    if kind == "non-utf8":
        stray = rng.choice([b"\xff", b"\xc3(", b"\xe9"])
        return text[: spot.start()].encode() + stray + text[spot.start():].encode()
    key = rng.choice(sorted(json.loads(text)))  # repeated-key: a top-level key, twice
    return ('{"%s":1,' % key + text[1:]).encode()


class TestMalformedFiles:
    KINDS = ("oversized-int", "deep-nesting", "non-utf8", "repeated-key")

    def test_every_command_exits_2_without_traceback(self, capsys, tmp_path):
        rng = random.Random(25)
        runs = 0
        for case in range(3):
            n, k = rng.randint(4, 7), rng.randint(1, 3)
            H = random_antichain(n, rng.randint(1, 4), rng)
            hyper = tmp_path / f"h{case}.json"
            lists = tmp_path / f"l{case}.json"
            hyper.write_text(H.to_json())
            lists.write_text(random_assignment(n, k, k + 2, rng).to_json())
            for kind in self.KINDS:
                bad_h = tmp_path / f"h{case}-{kind}.json"
                bad_l = tmp_path / f"l{case}-{kind}.json"
                bad_h.write_bytes(_malformed(H.to_json(), kind, rng))
                bad_l.write_bytes(_malformed(lists.read_text(), kind, rng))
                for argv in (
                    ["chromatic", str(bad_h)],
                    ["nb", str(bad_h)],
                    ["plk", str(bad_h), "--k", "2"],
                    ["list-count", str(bad_h), str(lists)],
                    ["list-count", str(hyper), str(bad_l)],
                ):
                    rc = cli.main(argv)
                    captured = capsys.readouterr()
                    assert rc == 2, (kind, argv, captured.err[:200])
                    assert captured.out == ""
                    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
                    runs += 1
        assert runs == 60

    @pytest.mark.parametrize(
        "argv",
        [("chromatic",), ("nb",), ("delta-cycles",), ("plk", "--k", "2")],
        ids=["chromatic", "nb", "delta-cycles", "plk"],
    )
    def test_n_past_sys_maxsize_exits_2(self, capsys, tmp_path, argv):
        # 4,000 digits pass the JSON reader, but no count list can be that long
        huge = tmp_path / "huge.json"
        huge.write_text('{"n": %s, "edges": [[1,2,3]]}' % ("9" * 4000))
        rc = cli.main([argv[0], str(huge), *argv[1:]])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "exceeds sys.maxsize" in captured.err

    def test_repeated_hypergraph_key_refused(self):
        with pytest.raises(InputError, match="repeated key 'n' in hypergraph JSON"):
            Hypergraph.from_json('{"n": 3, "n": 4, "edges": [[1,2,3]]}')
        assert Hypergraph.from_json('{"n": 3, "edges": [[1,2,3]]}') == Hypergraph(3, [(1, 2, 3)])


class TestDeterminism:
    def test_byte_identical_reruns(self, files):
        for args in (
            ("chromatic", files["e2.json"], "--k", "4", "--oracle"),
            ("nb", files["tri.json"]),
            ("plk", files["e2.json"], "--k", "2"),
        ):
            a = run_cli(*args)
            b = run_cli(*args)
            assert (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)


class TestInProcess:
    """Flags and families run through ``cli.main(argv)`` in this process."""

    @staticmethod
    def run(capsys, *argv):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("random-rho --n 8 --m 4 --r 3 --rho 2 --seed 3",
             lambda: generators.random_r_uniform_rho(8, 4, 3, 2, seed=3)),
            ("random-r-uniform-rho --n 8 --m 4 --r 3 --rho 2 --seed 3",
             lambda: generators.random_r_uniform_rho(8, 4, 3, 2, seed=3)),
            ("random-linear-r-uniform --n 9 --m 4 --r 3 --seed 7",
             lambda: generators.random_linear_r_uniform(9, 4, 3, seed=7)),
            ("sunflower-free --n 9 --m 4 --r 3 --seed 5",
             lambda: generators.sunflower_free(9, 4, 3, seed=5)),
            ("sunflower-free --n 9 --m 4 --r 3",
             lambda: generators.sunflower_free(9, 4, 3)),
        ],
    )
    def test_gen_prints_library_json(self, capsys, argv, expected):
        rc, out, err = self.run(capsys, "gen", "--family", *argv.split())
        assert (rc, err) == (0, "")
        assert out == expected().to_json() + "\n"

    def test_gen_missing_rho(self, capsys):
        rc, out, err = self.run(capsys, *"gen --family random-rho --n 8 --m 4 --r 3".split())
        assert rc == 2
        assert out == ""
        assert err == "error: --family random-rho needs --rho\n"

    def test_verify_effort(self, capsys, files):
        argv = ("verify", "--theorem", "2", "--k", "2", files["tri3.json"], "--json")
        rc, out, _ = self.run(capsys, *argv, "--effort", "threshold")
        assert rc == 0
        assert json.loads(out)[0]["details"] == {}
        rc, out, _ = self.run(capsys, *argv, "--effort", "exact")
        assert rc == 0
        H = Hypergraph.load(files["tri3.json"])
        P = chromatic_polynomial(H).eval(2)
        assert json.loads(out)[0]["details"] == {"P": P, "P_l": P, "exact_equal": True}

    def test_plk_heuristic_without_iterations(self, capsys, files):
        argv = ("plk", files["e2.json"], "--k", "3", "--heuristic", "--iterations")
        rc, out, _ = self.run(capsys, *argv, "0", "--json")
        assert rc == 0
        record = json.loads(out)
        assert record["P_l_upper"] == record["P"] == 192
        assert ListAssignment.from_json(json.dumps(record["witness"])).is_constant()
        rc, _, err = self.run(capsys, *argv, "-1")
        assert rc == 2 and "iterations" in err

    def test_nb_eta(self, capsys, files):
        H = Hypergraph.load(files["tri3.json"])
        rc, out, _ = self.run(capsys, "nb", files["tri3.json"], "--eta", "3,1,2", "--json")
        assert rc == 0
        expected = [list(A.labels) for A in nb_subsets(H, eta=(3, 1, 2))]
        assert json.loads(out)["subsets"] == expected
        H = Hypergraph.load(files["tri.json"])
        rc, out, _ = self.run(capsys, "nb", files["tri.json"], "--eta", "2,3,1")
        expected = [A.labels for A in nb_subsets(H, eta=(2, 3, 1))]
        assert expected != [A.labels for A in nb_subsets(H)]
        assert out.splitlines()[:-1] == ["{%s}" % ",".join(f"e{a}" for a in s) for s in expected]

    def test_list_count_eta(self, capsys, files):
        H = Hypergraph.load(files["e1.json"])
        L = ListAssignment.from_json(Path(files["L1.json"]).read_text())
        argv = ("list-count", files["e1.json"], files["L1.json"], "--eta")
        rc, out, _ = self.run(capsys, *argv, "1", "--json")
        assert rc == 0
        record = json.loads(out)
        assert record["expansion"] == count_L_colorings_expansion(H, L, eta=(1,)) == 7
        assert record["brute"] == count_L_colorings(H, L)
        for eta in ("1,x", "2"):
            rc, _, err = self.run(capsys, *argv, eta)
            assert rc == 2 and "eta" in err

    def test_bad_eta_reported_before_bad_file(self, capsys):
        rc, _, err = self.run(capsys, "chromatic", "/nonexistent/h.json", "--eta", "x")
        assert rc == 2
        assert err.startswith("error: --eta wants comma-separated integers")

    def test_delta_cycles_json_matches_catalog(self, capsys, files):
        H = Hypergraph.load(files["tri.json"])
        catalog = enumerate_delta_cycles(H)
        rc, out, _ = self.run(capsys, "delta-cycles", files["tri.json"], "--eta", "3,2,1", "--json")
        assert rc == 0
        assert json.loads(out) == {
            "count": len(catalog.cycles),
            "cycles": [
                {"edges": list(cyc.labels), "size": cyc.size, "broken": list(brk.labels)}
                for cyc, brk in zip(catalog.cycles, catalog.broken_per_cycle((3, 2, 1)))
            ],
        }
