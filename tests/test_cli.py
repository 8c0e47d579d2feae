"""Tests for the ``bagcq`` command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import _load_instance, _parse_facts, build_parser, main

SUBCOMMANDS = (
    "reduce",
    "gadget",
    "evaluate",
    "explain",
    "update",
    "serve",
    "snapshot",
    "call",
    "loadgen",
    "slo",
    "search",
    "contain",
    "fuzz",
    "compare",
    "verify-paper",
    "core",
    "equivalent",
    "answers",
)
ENDPOINTS = (
    "evaluate",
    "explain",
    "decide",
    "contain",
    "db",
    "update",
    "healthz",
    "metrics",
    "traces",
    "snapshot",
)
ENGINE_CHOICES = ("auto", "backtracking", "treewidth", "compiled")

#: Each action of a parser, keyed by its option strings (or its dest, for
#: a positional): ``(dest, default, required, choices, type, action,
#: nargs)``, with ``type`` and the action class by name.
HELP = {"-h --help": ("help", argparse.SUPPRESS, False, None, None, "Help", 0)}
COMMON = {
    **HELP,
    "--stats": ("stats", False, False, None, None, "StoreTrue", 0),
    "--stats-json": ("stats_json", None, False, None, None, "Store", None),
}
#: The whole ``bagcq`` surface, recorded from the hand-written parser the
#: table-driven one replaced: every subcommand keeps every flag as it was.
SURFACE = {
    "bagcq": {
        **HELP,
        "command": ("command", None, True, SUBCOMMANDS, None, "SubParsers", "A..."),
    },
    "reduce": {
        **COMMON,
        "--instance": ("instance", None, True, None, None, "Store", None),
        "--grid": ("grid", 2, False, None, "int", "Store", None),
    },
    "gadget": {
        **COMMON,
        "--c": ("c", None, True, None, "int", "Store", None),
        "--check-structures": ("check_structures", 0, False, None, "int", "Store", None),
    },
    "evaluate": {
        **COMMON,
        "--query": ("query", None, True, None, None, "Store", None),
        "--facts": ("facts", None, True, None, None, "Store", None),
        "--engine": ("engine", "auto", False, ENGINE_CHOICES, None, "Store", None),
        "--workers": ("workers", 1, False, None, "_positive_int", "Store", None),
        "--no-cache": ("no_cache", False, False, None, None, "StoreTrue", 0),
    },
    "explain": {
        **COMMON,
        "--query": ("query", None, True, None, None, "Store", None),
        "--facts": ("facts", None, False, None, None, "Store", None),
        "--json": ("json", False, False, None, None, "StoreTrue", 0),
    },
    "update": {
        **COMMON,
        "--query": ("query", None, False, None, None, "Store", None),
        "--facts": ("facts", None, True, None, None, "Store", None),
        "--insert": ("insert", None, False, None, None, "Store", None),
        "--delete": ("delete", None, False, None, None, "Store", None),
        "--delta-file": ("delta_file", None, False, None, None, "Store", None),
        "--engine": ("engine", "auto", False, ENGINE_CHOICES, None, "Store", None),
    },
    "serve": {
        **COMMON,
        "--host": ("host", "127.0.0.1", False, None, None, "Store", None),
        "--port": ("port", 8642, False, None, "int", "Store", None),
        "--workers": ("workers", 4, False, None, "_positive_int", "Store", None),
        "--queue-depth": ("queue_depth", 64, False, None, "_positive_int", "Store", None),
        "--deadline-ms": ("deadline_ms", 30000, False, None, "_positive_int", "Store", None),
        "--no-coalesce": ("no_coalesce", False, False, None, None, "StoreTrue", 0),
        "--shards": ("shards", 1, False, None, "_positive_int", "Store", None),
        "--snapshot-dir": ("snapshot_dir", None, False, None, None, "Store", None),
    },
    "snapshot": {
        **COMMON,
        "--url": ("url", "http://127.0.0.1:8642", False, None, None, "Store", None),
        "--timeout-s": ("timeout_s", 60.0, False, None, "float", "Store", None),
    },
    "call": {
        **COMMON,
        "endpoint": ("endpoint", None, True, ENDPOINTS, None, "Store", None),
        "--url": ("url", "http://127.0.0.1:8642", False, None, None, "Store", None),
        "--query": ("query", None, False, None, None, "Store", None),
        "--facts": ("facts", None, False, None, None, "Store", None),
        "--db": ("db", None, False, None, None, "Store", None),
        "--insert": ("insert", None, False, None, None, "Store", None),
        "--delete": ("delete", None, False, None, None, "Store", None),
        "--delta-file": ("delta_file", None, False, None, None, "Store", None),
        "--phi-s": ("phi_s", None, False, None, None, "Append", None),
        "--phi-b": ("phi_b", None, False, None, None, "Append", None),
        "--no-witness": ("no_witness", False, False, None, None, "StoreTrue", 0),
        "--engine": ("engine", "auto", False, ENGINE_CHOICES, None, "Store", None),
        "--multiplier": ("multiplier", 1, False, None, "int", "Store", None),
        "--additive": ("additive", 0, False, None, "int", "Store", None),
        "--domain-size": ("domain_size", 3, False, None, "int", "Store", None),
        "--count": ("count", 100, False, None, "int", "Store", None),
        "--seed": ("seed", 0, False, None, "int", "Store", None),
        "--deadline-ms": ("deadline_ms", None, False, None, "int", "Store", None),
        "--retries": ("retries", 4, False, None, "int", "Store", None),
    },
    "loadgen": {
        **COMMON,
        "--url": ("url", "http://127.0.0.1:8642", False, None, None, "Store", None),
        "--scenario": ("scenario", None, False, None, None, "Append", None),
        "--requests": ("requests", 120, False, None, "_positive_int", "Store", None),
        "--clients": ("clients", 4, False, None, "_positive_int", "Store", None),
        "--seed": ("seed", 0, False, None, "int", "Store", None),
        "--output": ("output", None, False, None, None, "Store", None),
        "--check-slo": ("check_slo", False, False, None, None, "StoreTrue", 0),
    },
    "slo": {
        **COMMON,
        "--run": ("run", None, True, None, None, "Store", None),
        "--baseline": ("baseline", None, False, None, None, "Store", None),
        "--p95-ratio": ("p95_ratio", 1.5, False, None, "float", "Store", None),
        "--throughput-ratio": ("throughput_ratio", 0.6, False, None, "float", "Store", None),
        "--p95-floor-ms": ("p95_floor_ms", 5.0, False, None, "float", "Store", None),
    },
    "search": {
        **COMMON,
        "--phi-s": ("phi_s", None, True, None, None, "Store", None),
        "--phi-b": ("phi_b", None, True, None, None, "Store", None),
        "--multiplier": ("multiplier", 1, False, None, "int", "Store", None),
        "--additive": ("additive", 0, False, None, "int", "Store", None),
        "--domain-size": ("domain_size", 3, False, None, "int", "Store", None),
        "--density": ("density", 0.3, False, None, "float", "Store", None),
        "--count": ("count", 100, False, None, "int", "Store", None),
        "--seed": ("seed", 0, False, None, "int", "Store", None),
        "--max-candidates": ("max_candidates", None, False, None, "int", "Store", None),
        "--engine": ("engine", "auto", False, ENGINE_CHOICES, None, "Store", None),
        "--workers": ("workers", 1, False, None, "_positive_int", "Store", None),
        "--batch-size": ("batch_size", None, False, None, "_positive_int", "Store", None),
        "--no-cache": ("no_cache", False, False, None, None, "StoreTrue", 0),
    },
    "contain": {
        **COMMON,
        "--phi-s": ("phi_s", None, True, None, None, "Append", None),
        "--phi-b": ("phi_b", None, True, None, None, "Append", None),
        "--engine": ("engine", "auto", False, ENGINE_CHOICES, None, "Store", None),
        "--no-witness": ("no_witness", False, False, None, None, "StoreTrue", 0),
        "--json": ("json", False, False, None, None, "StoreTrue", 0),
    },
    "fuzz": {
        **COMMON,
        "--max-cases": ("max_cases", None, False, None, "int", "Store", None),
        "--budget-seconds": ("budget_seconds", None, False, None, "float", "Store", None),
        "--seed": ("seed", 0, False, None, "int", "Store", None),
        "--oracle": ("oracle", None, False, None, None, "Append", None),
        "--corpus": ("corpus", None, False, None, None, "Store", None),
        "--no-shrink": ("no_shrink", False, False, None, None, "StoreTrue", 0),
    },
    "compare": {
        **COMMON,
    },
    "verify-paper": {
        **COMMON,
    },
    "core": {
        **COMMON,
        "--query": ("query", None, True, None, None, "Store", None),
    },
    "equivalent": {
        **COMMON,
        "--left": ("left", None, True, None, None, "Store", None),
        "--right": ("right", None, True, None, None, "Store", None),
    },
    "answers": {
        **COMMON,
        "--query": ("query", None, True, None, None, "Store", None),
        "--head": ("head", None, True, None, None, "Store", None),
        "--facts": ("facts", None, True, None, None, "Store", None),
    },
}


def _actions(parser: argparse.ArgumentParser) -> dict:
    return {
        (" ".join(action.option_strings) or action.dest): (
            action.dest,
            action.default,
            action.required,
            None if action.choices is None else tuple(action.choices),
            getattr(action.type, "__name__", None),
            type(action).__name__[1 : -len("Action")],
            action.nargs,
        )
        for action in parser._actions
    }


def _surface(parser: argparse.ArgumentParser) -> dict:
    [subcommands] = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        "bagcq": _actions(parser),
        **{name: _actions(sub) for name, sub in subcommands.choices.items()},
    }


class TestParserSurface:
    def test_every_subcommand_keeps_every_flag(self):
        assert _surface(build_parser()) == SURFACE


#: A fenced ``bash`` block of a Markdown file.
BASH_BLOCK = re.compile(r"^```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)
ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = (ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")))


def _documented_commands():
    """``(file, argv)`` of every ``bagcq`` (or ``python -m repro.cli``)
    command in the documents' ``bash`` blocks."""
    for document in DOCUMENTS:
        for block in BASH_BLOCK.findall(document.read_text(encoding="utf-8")):
            for line in block.replace("\\\n", " ").splitlines():
                for command in line.split("&&"):
                    words = shlex.split(command, comments=True)
                    if words and words[-1] == "&":
                        words.pop()
                    if "bagcq" in words:
                        yield document.name, words[words.index("bagcq") + 1 :]
                    elif "repro.cli" in words:
                        yield document.name, words[words.index("repro.cli") + 1 :]


class TestDocumentedCommands:
    def test_every_documented_command_parses(self, capsys):
        commands = list(_documented_commands())
        assert len(commands) >= 40
        rejected = []
        for document, argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                rejected.append((document, shlex.join(argv)))
        assert rejected == [], capsys.readouterr().err


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


class TestUpdateCommand:
    FACTS = ["update", "--facts", "E(a,b) E(b,c)"]

    def test_insert_recounts_at_each_version(self, capsys):
        argv = [*self.FACTS, "--query", "E(x,y) & E(y,z)", "--insert", "E(c,a)"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "count@v0 = 1"
        assert lines[1].startswith("version=1 touched=[E] ")
        assert lines[2] == "count@v1 = 3"
        assert len(lines) == 3

    def test_insert_and_delete_are_one_delta(self, capsys):
        argv = [
            *self.FACTS,
            "--query",
            "E(#a,y)",
            "--insert",
            "E(a,c)",
            "--delete",
            "E(b,c)",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [lines[0], lines[2]] == ["count@v0 = 1", "count@v1 = 2"]
        assert len(lines) == 3

    def test_delta_file_applies_in_order(self, capsys, tmp_path):
        deltas = tmp_path / "deltas.json"
        deltas.write_text(
            json.dumps(
                [
                    {"inserts": [["E", ["c", "a"]]], "deletes": []},
                    {"inserts": [], "deletes": [["E", ["a", "b"]]]},
                ]
            )
        )
        argv = [*self.FACTS, "--query", "E(x,y) & E(y,z)", "--delta-file", str(deltas)]
        assert main(argv) == 0
        counts = [
            line for line in capsys.readouterr().out.splitlines() if "count@" in line
        ]
        assert counts == ["count@v0 = 1", "count@v1 = 3", "count@v2 = 1"]

    def test_without_query_prints_only_reports(self, capsys):
        assert main([*self.FACTS, "--insert", "E(c,a)"]) == 0
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("version=1 ")

    def test_needs_a_delta(self):
        with pytest.raises(SystemExit, match="update needs --insert"):
            main(self.FACTS)


class TestContainCommand:
    def test_cq_contained_prints_the_witness(self, capsys):
        argv = ["contain", "--phi-s", "E(x,y) & E(y,x)", "--phi-b", "E(x,y)"]
        assert main(argv) == 0
        verdict, *witness = capsys.readouterr().out.splitlines()
        assert verdict == "phi_s ⊆ phi_b under set semantics [engine: auto]"
        # Either homomorphism onto E(x,y) & E(y,x) is a witness.
        assert witness in (
            ["  witness: x -> x", "  witness: y -> y"],
            ["  witness: x -> y", "  witness: y -> x"],
        )

    def test_cq_refuted_prints_the_certificate(self, capsys):
        argv = ["contain", "--phi-s", "E(x,y)", "--phi-b", "E(x,y) & E(y,x)"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "phi_s ⊄ phi_b under set semantics [engine: auto]",
            "  certificate: canonical(phi_s) with phi_s = 1 > phi_b = 0 "
            "(|domain| = 2, 1 facts)",
        ]

    def test_ucq_prints_coverage(self, capsys):
        argv = ["contain", "--phi-s", "E(x,y)", "--phi-s", "U(x)"]
        assert main([*argv, "--phi-b", "E(x,y)", "--engine", "treewidth"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "phi_s ⊄ phi_b under set semantics [engine: treewidth]",
            "  disjunct 0 ⊆ container 0",
            "  disjunct 1 uncovered",
            "  certificate: canonical(phi_s) with phi_s = 1 > phi_b = 0 "
            "(|domain| = 1, 1 facts)",
        ]

    def test_json_names_the_kind(self, capsys):
        cq = ["contain", "--phi-s", "E(x,y) & E(y,x)", "--phi-b", "E(x,y)"]
        assert main([*cq, "--json", "--no-witness"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert (verdict["kind"], verdict["contained"]) == ("cq", True)
        assert verdict["witness"] is None
        ucq = ["contain", "--phi-s", "E(x,y)", "--phi-s", "E(x,x)"]
        assert main([*ucq, "--phi-b", "E(x,y)", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert (verdict["kind"], verdict["contained"]) == ("ucq", True)
        assert [entry["container"] for entry in verdict["coverage"]] == [0, 0]


class TestSloCommand:
    ROW = {
        "scenario": "zipf-duplicates",
        "p95_ms": 40.0,
        "throughput_rps": 50.0,
        "shed_rate": 0.0,
    }

    def _write(self, tmp_path, name, **row):
        path = tmp_path / name
        path.write_text(json.dumps({"scenarios": [{**self.ROW, **row}]}))
        return str(path)

    def test_a_run_within_objectives_passes(self, capsys, tmp_path):
        run = self._write(tmp_path, "run.json")
        baseline = self._write(tmp_path, "baseline.json", p95_ms=35.0)
        assert main(["slo", "--run", run, "--baseline", baseline]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "1 scenario(s) within objectives"
        assert captured.err == ""

    def test_a_violating_run_exits_1(self, capsys, tmp_path):
        run = self._write(tmp_path, "run.json", p95_ms=90.0, throughput_rps=1.0)
        baseline = self._write(tmp_path, "baseline.json")
        argv = ["slo", "--run", run, "--baseline", baseline, "--p95-ratio", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        violations = captured.err.splitlines()
        assert all(line.startswith("SLO VIOLATION: ") for line in violations)
        assert any("throughput 1.00 rps below SLO" in line for line in violations)
        assert any("p95 90.0 ms > 2.0x baseline" in line for line in violations)


class TestVerifyPaperCommand:
    @staticmethod
    def _claims(*passed):
        return [
            (SimpleNamespace(claim_id=f"claim-{index}", statement="a claim"), ok)
            for index, ok in enumerate(passed)
        ]

    def test_every_claim_verifies(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.paper.verify_all", lambda: self._claims(True))
        assert main(["verify-paper"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[ok ] claim-0 ")
        assert lines[-1] == "every registered claim of the paper verifies"

    def test_a_failing_claim_exits_1(self, capsys, monkeypatch):
        claims = self._claims(True, False)
        monkeypatch.setattr("repro.paper.verify_all", lambda: claims)
        assert main(["verify-paper"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("[FAIL] claim-1 ")
        assert lines[-1] == "1 claim(s) FAILED"


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

    def test_call_metrics_and_traces(self, capsys, server):
        argv = ["call", "evaluate", "--url", server.url]
        assert main([*argv, "--query", "E(x,y)", "--facts", "E(a,b)"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["call", "metrics", "--url", server.url]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["service.requests"]["value"] >= 1
        assert any(name.startswith("service.request_ms.evaluate") for name in metrics)
        assert main(["call", "traces", "--url", server.url]) == 0
        traces = json.loads(capsys.readouterr().out)["traces"]
        assert any(trace["endpoint"] == "evaluate" for trace in traces)

    def test_loadgen_writes_its_document(self, capsys, server, tmp_path):
        output = tmp_path / "load.json"
        argv = ["loadgen", "--url", server.url, "--scenario", "zipf-duplicates"]
        assert main([*argv, "--requests", "4", "--output", str(output)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("zipf-duplicates ")
        assert "(4/4 ok, 0 timed out)" in lines[0]
        assert lines[1] == f"wrote {output}"
        document = json.loads(output.read_text())
        assert (document["experiment"], document["requests"]) == ("E18-load", 4)
        assert [row["scenario"] for row in document["scenarios"]] == [
            "zipf-duplicates"
        ]

    def test_loadgen_rejects_an_unknown_scenario(self, server):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["loadgen", "--url", server.url, "--scenario", "nope"])

    def test_call_db_update_round_trip(self, capsys):
        from repro.service import EvaluationServer, ServerConfig, ServiceClient

        with EvaluationServer(ServerConfig(workers=2)) as server:

            def call(*argv) -> str:
                assert main(["call", *argv, "--url", server.url]) == 0
                return capsys.readouterr().out

            def count() -> str:
                return call("evaluate", "--query", "E(x,y) & E(y,z)", "--db", "g")

            loaded = call("db", "--db", "g", "--facts", "E(a,b) E(b,c) E(c,a)")
            assert json.loads(loaded)["version"] == 0
            assert count().strip() == "3"
            inserted = call("update", "--db", "g", "--insert", "E(a,c)")
            assert json.loads(inserted)["version"] == 1
            assert count().strip() == "5"
            reverted = call("update", "--db", "g", "--delete", "E(a,c)")
            assert json.loads(reverted)["version"] == 2
            assert count().strip() == "3"
            metrics = ServiceClient(server.url).metrics()["metrics"]
        assert metrics["service.db_loads"]["value"] == 1
        assert metrics["service.db_updates"]["value"] == 2
        assert metrics["delta.applied"]["value"] == 2
        assert metrics["service.databases"]["value"] == 1
        assert any(name.startswith("service.request_ms.update") for name in metrics)

    def test_call_decide_rejects_a_union(self, server):
        argv = ["call", "decide", "--url", server.url, "--phi-b", "E(x,y)"]
        with pytest.raises(SystemExit, match="call decide needs"):
            main([*argv, "--phi-s", "E(x,y) & E(y,x)", "--phi-s", "E(x,x)"])
        with pytest.raises(SystemExit, match="call decide needs"):
            main([*argv, "--phi-s", "E(x,x)", "--phi-b", "E(x,x)"])

    def test_snapshot_saves_the_caches(self, capsys, tmp_path):
        from repro.service import EvaluationServer, ServerConfig

        config = ServerConfig(workers=1, snapshot_dir=str(tmp_path))
        with EvaluationServer(config) as server:
            assert main(["snapshot", "--url", server.url]) == 0
            saved = json.loads(capsys.readouterr().out)
            assert main(["call", "snapshot", "--url", server.url]) == 0
            again = json.loads(capsys.readouterr().out)
        assert saved["snapshot_dir"] == again["snapshot_dir"] == str(tmp_path)
        assert set(saved["saved"]) == {"counts", "plans", "containment"}

    def test_snapshot_without_a_directory_is_an_error(self, capsys, server):
        for argv in (["snapshot"], ["call", "snapshot"]):
            assert main([*argv, "--url", server.url]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == (
                "error: server has no snapshot directory; "
                "start it with --snapshot-dir"
            )

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
