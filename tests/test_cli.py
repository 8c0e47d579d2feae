"""Tests for the ``bagcq`` command-line interface."""

import pytest

from repro.cli import _load_instance, _parse_facts, build_parser, main


class TestInstanceLoading:
    def test_named(self):
        instance = _load_instance("markov")
        assert instance.name == "markov"

    def test_with_arguments(self):
        instance = _load_instance("linear:2:3:7")
        assert instance.solvable

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            _load_instance("nonsense")


class TestFactParsing:
    def test_basic(self):
        structure = _parse_facts("E(a,b) E(b,a)")
        assert structure.fact_count("E") == 2

    def test_constants(self):
        structure = _parse_facts("E(#s,#h)")
        assert structure.interpret("s") == "s"


class TestCommands:
    def test_evaluate(self, capsys):
        exit_code = main(
            ["evaluate", "--query", "E(x,y) & E(y,x)", "--facts", "E(a,b) E(b,a) E(a,a)"]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_evaluate_treewidth_engine(self, capsys):
        exit_code = main(
            ["evaluate", "--query", "E(x,y)", "--facts", "E(a,b)", "--engine", "treewidth"]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_reduce_unsolvable(self, capsys):
        exit_code = main(["reduce", "--instance", "always_positive", "--grid", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Theorem 1 output" in out
        assert "no counterexample" in out

    def test_compare(self, capsys):
        exit_code = main(["compare"])
        assert exit_code == 0
        assert str(59**10) in capsys.readouterr().out

    def test_gadget(self, capsys):
        exit_code = main(["gadget", "--c", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "equality (=) verified: True" in out

    def test_core(self, capsys):
        exit_code = main(["core", "--query", "E(x, y) & E(x, z)"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "dropped 1 redundant" in out

    def test_core_of_core(self, capsys):
        exit_code = main(["core", "--query", "E(x, y) & E(y, x)"])
        assert exit_code == 0
        assert "already a core" in capsys.readouterr().out

    def test_equivalent(self, capsys):
        exit_code = main(
            ["equivalent", "--left", "E(x, y)", "--right", "E(u, v)"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bag-equivalent (iff isomorphic): True" in out

    def test_not_equivalent(self, capsys):
        exit_code = main(
            ["equivalent", "--left", "E(x, y)", "--right", "E(x, y) & E(u, v)"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bag-equivalent (iff isomorphic): False" in out
        assert "set-equivalent (Chandra-Merlin): True" in out

    def test_answers(self, capsys):
        exit_code = main(
            [
                "answers",
                "--query",
                "E(x, y)",
                "--head",
                "x",
                "--facts",
                "E(a,b) E(a,c) E(b,c)",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "(a) x2" in out
        assert "(b) x1" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFlagPlumbing:
    """--workers / --no-cache / --stats-json must never change verdicts."""

    EVALUATE = [
        "evaluate",
        "--query",
        "E(x,y) & E(y,z) & U(x)",
        "--facts",
        "E(a,b) E(b,c) E(c,a) U(a) U(b)",
    ]
    SEARCH = [
        "search",
        "--phi-s",
        "E(x,y) & E(y,x)",
        "--phi-b",
        "E(x,y)",
        "--domain-size",
        "2",
        "--count",
        "30",
        "--seed",
        "0",
    ]

    def _run(self, capsys, argv):
        exit_code = main(argv)
        captured = capsys.readouterr()
        return exit_code, captured.out

    def test_evaluate_workers_and_cache_flags_bit_identical(self, capsys):
        baseline = self._run(capsys, self.EVALUATE)
        for extra in (
            ["--workers", "2"],
            ["--no-cache"],
            ["--workers", "2", "--no-cache"],
        ):
            assert self._run(capsys, self.EVALUATE + extra) == baseline

    def test_search_workers_and_cache_flags_bit_identical(self, capsys):
        baseline = self._run(capsys, self.SEARCH)
        assert baseline[0] == 0
        assert "counterexample" in baseline[1]
        for extra in (
            ["--workers", "2"],
            ["--no-cache"],
            ["--batch-size", "4"],
            ["--workers", "2", "--no-cache", "--batch-size", "4"],
        ):
            assert self._run(capsys, self.SEARCH + extra) == baseline

    def test_search_stats_json_does_not_change_stdout(self, capsys, tmp_path):
        import json

        baseline = self._run(capsys, self.SEARCH)
        target = tmp_path / "search_obs.json"
        with_stats = self._run(
            capsys, self.SEARCH + ["--stats-json", str(target)]
        )
        assert with_stats == baseline
        data = json.loads(target.read_text())
        assert data["metrics"]["search.structures_evaluated"]["value"] > 0
        assert data["trace"][0]["name"] == "cli.search"

    def test_evaluate_stats_json_does_not_change_stdout(self, capsys, tmp_path):
        baseline = self._run(capsys, self.EVALUATE)
        target = tmp_path / "eval_obs.json"
        with_stats = self._run(
            capsys, self.EVALUATE + ["--stats-json", str(target)]
        )
        assert with_stats == baseline
        assert target.exists()


class TestFuzzCommand:
    def test_fuzz_smoke_exits_clean(self, capsys):
        exit_code = main(["fuzz", "--max-cases", "30", "--seed", "0"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cases=30" in out
        assert "failures=0" in out

    def test_fuzz_oracle_filter(self, capsys):
        exit_code = main(
            [
                "fuzz",
                "--max-cases",
                "30",
                "--seed",
                "0",
                "--oracle",
                "gadget_equality",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "gadget_equality" in out
        assert "cross_engine" not in out

    def test_fuzz_unknown_oracle_rejected(self):
        with pytest.raises(SystemExit, match="unknown oracle"):
            main(["fuzz", "--max-cases", "5", "--oracle", "nope"])

    def test_fuzz_negative_budgets_rejected(self):
        with pytest.raises(SystemExit, match="--max-cases must be >= 0"):
            main(["fuzz", "--max-cases", "-5"])
        with pytest.raises(SystemExit, match="--budget-seconds must be >= 0"):
            main(["fuzz", "--budget-seconds", "-1"])

    def test_fuzz_stats_json_has_qa_counters(self, capsys, tmp_path):
        import json

        target = tmp_path / "fuzz_obs.json"
        exit_code = main(
            [
                "fuzz",
                "--max-cases",
                "20",
                "--seed",
                "0",
                "--stats-json",
                str(target),
            ]
        )
        assert exit_code == 0
        data = json.loads(target.read_text())
        assert data["metrics"]["qa.cases"]["value"] == 20
        assert data["metrics"]["qa.checks"]["value"] > 20
        assert data["metrics"]["qa.failures"]["value"] == 0
        assert data["trace"][0]["name"] == "cli.fuzz"


class TestStatsFlags:
    def test_evaluate_stats_to_stderr(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--query",
                "E(x,y) & E(y,x)",
                "--facts",
                "E(a,b) E(b,a)",
                "--stats",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "2"
        assert "observability report" in captured.err
        assert "cli.evaluate" in captured.err
        assert "bt.nodes" in captured.err
        assert "engine.dispatch.backtracking" in captured.err

    def test_evaluate_without_stats_is_silent(self, capsys):
        exit_code = main(
            ["evaluate", "--query", "E(x,y)", "--facts", "E(a,b)"]
        )
        assert exit_code == 0
        assert "observability" not in capsys.readouterr().err

    def test_stats_json_artifact(self, tmp_path, capsys):
        import json

        target = tmp_path / "obs.json"
        exit_code = main(
            [
                "evaluate",
                "--query",
                "E(x,y)",
                "--facts",
                "E(a,b) E(b,c)",
                "--stats-json",
                str(target),
            ]
        )
        assert exit_code == 0
        # --stats-json alone does not print the text report.
        assert "observability" not in capsys.readouterr().err
        data = json.loads(target.read_text())
        assert data["metrics"]["bt.calls"]["value"] == 1
        assert data["metrics"]["bt.nodes"]["value"] > 0
        assert data["trace"][0]["name"] == "cli.evaluate"

    def test_reduce_stats_has_step_spans_and_counters(self, capsys, tmp_path):
        import json

        target = tmp_path / "reduce_obs.json"
        exit_code = main(
            [
                "reduce",
                "--instance",
                "always_positive",
                "--grid",
                "1",
                "--stats",
                "--stats-json",
                str(target),
            ]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        for step in ("reduce.arena", "reduce.pi", "reduce.zeta", "reduce.delta"):
            assert step in err
        assert "bt.nodes" in err
        assert "bt.memo_misses" in err
        data = json.loads(target.read_text())
        assert data["metrics"]["bt.nodes"]["value"] > 0
        names = {root["name"] for root in data["trace"]}
        assert names == {"cli.reduce"}

    def test_evaluate_acyclic_engine(self, capsys):
        # The Yannakakis counter is a reference, not an engine: naming it
        # is an argparse error, as any unknown engine is.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "evaluate",
                    "--query",
                    "E(x,y) & E(y,z)",
                    "--facts",
                    "E(a,b) E(b,c)",
                    "--engine",
                    "acyclic",
                    "--stats",
                ]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'acyclic'" in capsys.readouterr().err

    def test_stats_report_emitted_on_error(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--query",
                "E(x,y,z)",
                "--facts",
                "E(a,b)",
                "--engine",
                "treewidth",
                "--stats",
            ]
        )
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "[engine: treewidth]" in err
        assert "observability report" in err


class TestExplainCommand:
    def test_explain_text(self, capsys):
        exit_code = main(
            ["explain", "--query", "E(x,y) & E(y,z)", "--facts", "E(a,b) E(b,c)"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "engine=" in out

    def test_explain_json_is_stable_plan_dict(self, capsys):
        import json

        exit_code = main(["explain", "--query", "E(x,y) & E(y,z)", "--json"])
        assert exit_code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["engines"]
        assert all("engine" in step for step in payload["steps"])
        # Stable JSON: key-sorted, so the output round-trips byte-for-byte.
        assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)

    def test_explain_json_matches_library_plan(self, capsys):
        import json

        from repro.planner import PlanCache, plan
        from repro.queries import parse_query

        query_text = "E(x,y) & E(y,z) & F(u,u)"
        exit_code = main(["explain", "--query", query_text, "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        query = parse_query(query_text)
        local = plan(query, query.canonical_structure(), cache=PlanCache())
        assert payload == json.loads(json.dumps(local.to_dict()))


class TestServiceCommands:
    @pytest.fixture()
    def server(self):
        from repro.service import EvaluationServer, ServerConfig

        with EvaluationServer(ServerConfig(workers=1)) as srv:
            yield srv

    def test_call_evaluate(self, capsys, server):
        exit_code = main(
            [
                "call",
                "evaluate",
                "--url",
                server.url,
                "--query",
                "E(x,y) & E(y,x)",
                "--facts",
                "E(a,b) E(b,a) E(a,a)",
            ]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_call_healthz(self, capsys, server):
        import json

        exit_code = main(["call", "healthz", "--url", server.url])
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_call_explain(self, capsys, server):
        import json

        exit_code = main(
            ["call", "explain", "--url", server.url, "--query", "E(x,y) & E(y,z)"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["steps"]

    def test_call_decide(self, capsys, server):
        import json

        exit_code = main(
            [
                "call",
                "decide",
                "--url",
                server.url,
                "--phi-s",
                "E(x,y) & E(y,x)",
                "--phi-b",
                "E(x,y)",
                "--count",
                "5",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] in ("counterexample", "exhausted")

    def test_call_contain(self, capsys, server):
        import json

        from repro.service import ServiceClient

        def call(phi_s: str, phi_b: str) -> str:
            argv = ["call", "contain", "--url", server.url]
            assert main([*argv, "--phi-s", phi_s, "--phi-b", phi_b]) == 0
            return capsys.readouterr().out

        contained = call("E(x,y) & E(y,x)", "E(x,y)")
        assert '"contained": true' in contained
        assert '"witness"' in contained
        assert sorted(json.loads(contained)["witness"]) == ["x", "y"]
        refuted = call("E(x,y)", "E(x,y) & E(y,x)")
        assert '"contained": false' in refuted
        assert '"certificate"' in refuted
        certificate = json.loads(refuted)["certificate"]
        assert (certificate["lhs"], certificate["rhs"]) == (1, 0)

        metrics = ServiceClient(server.url).metrics()["metrics"]
        assert metrics["contain.cq_tests"]["value"] >= 2
        assert metrics["contain.verdicts.contained"]["value"] >= 1
        assert metrics["contain.verdicts.not_contained"]["value"] >= 1
        assert any(name.startswith("service.request_ms.contain") for name in metrics)

    def test_call_evaluate_requires_query(self, server):
        with pytest.raises(SystemExit):
            main(["call", "evaluate", "--url", server.url])

    def test_engine_choices_are_auto_and_every_engine(self):
        import argparse

        from repro.homomorphism.engine import ENGINES

        def engine_choices(parser: argparse.ArgumentParser):
            for action in parser._actions:
                if "--engine" in action.option_strings:
                    yield tuple(action.choices)
                if isinstance(action, argparse._SubParsersAction):
                    for subparser in action.choices.values():
                        yield from engine_choices(subparser)

        choices = list(engine_choices(build_parser()))
        assert len(choices) >= 5
        assert set(choices) == {("auto", *ENGINES)}

    def test_serve_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.port == 8642
        assert args.workers >= 1
        assert args.no_coalesce is False
