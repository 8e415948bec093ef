import json

import pytest

from mbckit import cli


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("a b\nb c\nc d\nd a\n")
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("a b\nb c\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGbcCommand:
    def test_prints_value(self, capsys, c4_file):
        code, out, _ = run(capsys, "gbc", "-g", c4_file, "--set", "a,c")
        assert code == 0
        assert out.strip() == "12"

    def test_unknown_label(self, capsys, c4_file):
        code, _, err = run(capsys, "gbc", "-g", c4_file, "--set", "zz")
        assert code == 3
        assert "error" in err


class TestSolveCommand:
    def test_report_shape_and_key_order(self, capsys, c4_file):
        code, out, _ = run(capsys, "solve", "-g", c4_file, "--budget", "2", "--algo", "unit")
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "n", "m", "budget", "algo", "nodes", "cost", "gbc", "time_ms", "seed",
        ]
        del report["time_ms"]
        assert report == {
            "n": 4,
            "m": 4,
            "budget": 2.0,
            "algo": "unit",
            "nodes": ["a", "c"],
            "cost": 2.0,
            "gbc": 12.0,
            "seed": None,
        }

    def test_costed_ratio_with_cost_file(self, capsys, p3_file, tmp_path):
        costs = tmp_path / "costs.txt"
        costs.write_text("a 1\nb 10\nc 1\n")
        code, out, _ = run(
            capsys, "solve", "-g", p3_file, "--costs", str(costs),
            "--budget", "2", "--algo", "ratio",
        )
        assert code == 0
        report = json.loads(out)
        assert report["nodes"] == ["a", "c"]
        assert report["gbc"] == 6.0

    def test_tree_algo_on_non_tree(self, capsys, c4_file):
        code, _, err = run(capsys, "solve", "-g", c4_file, "--budget", "1", "--algo", "tree")
        assert code == 3
        assert "error" in err

    def test_tree_algo_refuses_oversized_tables(self, capsys, tmp_path):
        path = tmp_path / "p400.txt"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(399)))
        code, out, err = run(capsys, "solve", "-g", str(path), "--budget", "3", "--algo", "tree")
        assert code == 3
        assert out == ""
        assert "cap" in err

    @pytest.mark.parametrize("algo", ["modified", "tree"])
    def test_one_apsp_per_solve(self, capsys, p3_file, bfs_calls, algo):
        code, _, _ = run(capsys, "solve", "-g", p3_file, "--budget", "1", "--algo", algo)
        assert code == 0
        assert len(bfs_calls) == 1

    @staticmethod
    def _fractional_tree(tmp_path):
        graph = tmp_path / "tree.txt"
        graph.write_text("0 1\n0 2\n0 4\n0 7\n2 3\n4 5\n5 6\n6 8\n")
        costs = tmp_path / "costs.txt"
        costs.write_text("0 .05\n1 .05\n2 .05\n3 .2\n4 .05\n5 .1\n6 1.1\n7 .05\n8 .1\n")
        return graph, costs

    def test_tree_fractional_costs_within_budget_slack(self, capsys, tmp_path):
        # the DP's own sum for {0, 2, 5, 8} is 0.3; cost_of sums the same
        # costs to 0.30000000000000004
        from mbckit import parse_instance, tree_solve

        graph, costs = self._fractional_tree(tmp_path)
        code, out, err = run(
            capsys, "solve", "-g", str(graph), "--costs", str(costs),
            "--budget", "0.3", "--algo", "tree",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["gbc"] == 72.0
        assert report["nodes"] == ["0", "2", "5", "8"]
        inst = parse_instance(graph.read_text(), costs.read_text(), 0.3)
        sol = tree_solve(inst)
        assert sol.gbc == 72.0
        assert [inst.graph.labels[v] for v in sol.nodes] == report["nodes"]

    def test_exact_fractional_costs_within_budget_slack(self, capsys, tmp_path):
        # the walk's running sum for {0, 2, 5, 8} is 0.30000000000000004,
        # which fits the budget 0.3 within the audit's slack
        graph, costs = self._fractional_tree(tmp_path)
        code, out, err = run(
            capsys, "solve", "-g", str(graph), "--costs", str(costs),
            "--budget", "0.3", "--algo", "exact",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["gbc"] == 72.0
        assert report["nodes"] == ["0", "2", "5", "8"]

    def test_missing_budget(self, capsys, c4_file):
        code, _, err = run(capsys, "solve", "-g", c4_file, "--algo", "exact")
        assert code == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "-g", "/nope/missing.txt", "--budget", "1", "--algo", "unit")
        assert code == 3

    def test_unit_algo_needs_unit_costs(self, capsys, p3_file, tmp_path):
        costs = tmp_path / "costs.txt"
        costs.write_text("b 2\n")
        code, _, _ = run(
            capsys, "solve", "-g", p3_file, "--costs", str(costs),
            "--budget", "2", "--algo", "unit",
        )
        assert code == 3

    def test_fractional_budget_rejected_for_unit(self, capsys, p3_file):
        code, _, _ = run(capsys, "solve", "-g", p3_file, "--budget", "1.5", "--algo", "unit")
        assert code == 3

    def test_usage_error_is_exit_two(self, capsys, c4_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "-g", c4_file, "--budget", "1", "--algo", "bogus"])
        assert exc.value.code == 2

    def test_self_audit_catches_bad_solver(self, capsys, c4_file, monkeypatch):
        from mbckit.greedy import Solution

        def broken(inst, algo):
            return Solution(nodes=(0,), cost=1.0, gbc=999.0, algorithm=algo)

        monkeypatch.setattr(cli, "_solve_instance", broken)
        code, _, err = run(capsys, "solve", "-g", c4_file, "--budget", "1", "--algo", "exact")
        assert code == 4
        assert "consistency" in err

    def test_self_audit_catches_over_budget_set(self, capsys, c4_file, monkeypatch):
        from mbckit.greedy import Solution

        def spendthrift(inst):
            # the whole cycle, valued correctly, but four times the budget
            return Solution(nodes=(0, 1, 2, 3), cost=4.0, gbc=12.0, algorithm="ratio")

        monkeypatch.setattr(cli, "greedy_ratio", spendthrift)
        code, out, err = run(capsys, "solve", "-g", c4_file, "--budget", "1", "--algo", "ratio")
        assert code == 4
        assert out == ""
        assert "budget" in err

    def test_json_instance_budget_used(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"edges": [["a", "b"], ["b", "c"]], "budget": 1}))
        code, out, _ = run(capsys, "solve", "-g", str(path), "--algo", "exact")
        assert code == 0
        assert json.loads(out)["nodes"] == ["b"]

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_nonfinite_budget(self, capsys, c4_file, budget):
        code, out, err = run(capsys, "solve", "-g", c4_file, "--budget", budget, "--algo", "exact")
        assert code == 3
        assert out == ""
        assert "budget must be finite and nonnegative" in err

    @pytest.mark.parametrize("costs", [[1, 2], "a", 3])
    def test_json_costs_not_an_object(self, capsys, tmp_path, costs):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"edges": [["a", "b"], ["b", "c"]], "costs": costs}))
        code, out, err = run(capsys, "solve", "-g", str(path), "--budget", "1", "--algo", "exact")
        assert code == 3
        assert out == ""
        assert "'costs' must be an object" in err


class TestGenCommand:
    def test_tight_writes_instance_and_meta(self, capsys, tmp_path):
        prefix = tmp_path / "tight"
        code, out, _ = run(capsys, "gen", "tight", "--k", "2", "--ls", "6", "--lt", "3", "-o", str(prefix))
        assert code == 0
        inst = json.loads((tmp_path / "tight.json").read_text())
        meta = json.loads((tmp_path / "tight.meta.json").read_text())
        assert inst["budget"] == 2.0
        assert meta["k"] == 2
        assert str(tmp_path / "tight.json") in out

    def test_random_with_costs(self, capsys, tmp_path):
        prefix = tmp_path / "rnd"
        code, _, _ = run(
            capsys, "gen", "random", "--n", "9", "--p", "0.3", "--seed", "4",
            "--costs", "--budget", "3", "-o", str(prefix),
        )
        assert code == 0
        doc = json.loads((tmp_path / "rnd.json").read_text())
        assert doc["budget"] == 3.0
        assert len(doc["costs"]) == 9

    def test_tree(self, capsys, tmp_path):
        prefix = tmp_path / "tr"
        code, _, _ = run(capsys, "gen", "tree", "--n", "7", "--seed", "2", "-o", str(prefix))
        assert code == 0
        doc = json.loads((tmp_path / "tr.json").read_text())
        assert len(doc["edges"]) == 6

    def test_apx(self, capsys, tmp_path, p3_file):
        prefix = tmp_path / "apx"
        code, _, _ = run(capsys, "gen", "apx", "-g", p3_file, "--l", "2", "-o", str(prefix))
        assert code == 0
        meta = json.loads((tmp_path / "apx.meta.json").read_text())
        assert meta["l"] == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("kind", ["reduction", "oracle", "tree", "ratio"])
    def test_suites_pass_on_small_inputs(self, capsys, tmp_path, kind):
        path = tmp_path / "g.txt"
        if kind == "tree":
            path.write_text("a b\nb c\nb d\nd e\n")
        else:
            path.write_text("a b\nb c\nc d\nd a\na c\n")
        code, out, _ = run(capsys, "verify", kind, "-g", str(path))
        assert code == 0
        assert out.strip() == f"{kind}: ok"


class TestBenchCommand:
    def test_csv_output(self, capsys, tmp_path, c4_file):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {
                "name": "c4",
                "graph": c4_file,
                "budget": 2,
                "algos": ["ratio", "exact"],
                "exact": True,
            }
        ]))
        code, out, _ = run(capsys, "bench", "--suite", str(suite))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "instance,algo,gbc,opt,ratio,time_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "c4" and first[1] == "ratio"
        assert float(first[2]) == 12.0
        assert float(first[4]) == 1.0

    def test_audit_catches_bad_solver(self, capsys, tmp_path, c4_file, monkeypatch):
        from mbckit.greedy import Solution

        def broken(inst, algo):
            return Solution(nodes=(0,), cost=1.0, gbc=999.0, algorithm=algo)

        monkeypatch.setattr(cli, "_solve_instance", broken)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([{"graph": c4_file, "budget": 1, "algos": ["ratio"]}]))
        code, _, err = run(capsys, "bench", "--suite", str(suite))
        assert code == 4
        assert "consistency" in err
