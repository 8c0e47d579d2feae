"""Command-line interface: ``bagcq``.

Subcommands::

    bagcq reduce --instance pell_nontrivial:2 [--grid 3]
        Run the full Hilbert-10 → Lemma 11 → Theorem 1 pipeline on a named
        Diophantine instance and search a valuation grid for a verified
        counterexample database.

    bagcq gadget --c 3 [--check-structures 200]
        Build the α multiplication gadget for c, verify its (=) witness and
        probe the (≤) condition on random structures.

    bagcq evaluate --query "E(x,y) & E(y,x)" --facts "E(a,b) E(b,a)" \\
            [--engine auto] [--workers 4] [--no-cache]
        Count homomorphisms of a query over an inline database, optionally
        fanning component evaluation across a process pool; repeated
        components are shared through the canonicalization-keyed count
        cache unless ``--no-cache``.  The default ``--engine auto`` routes
        every connected component through the repro.planner cost model.

    bagcq explain --query "E(x,y) & E(y,z)" [--facts "E(a,b) E(b,c)"] [--json]
        Print the evaluation plan the ``auto`` engine would execute:
        connected components, the engine and cost estimate chosen for
        each, and plan-cache hit/miss totals.  Without ``--facts`` the
        query is planned against its own canonical database; ``--json``
        emits the machine-readable plan (identical to the service's
        ``/explain`` payload).

    bagcq update --facts "E(a,b) E(b,c)" --query "E(x,y) & E(y,z)" \\
            --insert "E(c,a)" [--delete "E(a,b)"] [--delta-file deltas.json]
        Apply a mutation batch to an inline database through the
        incremental :class:`repro.homomorphism.delta.DeltaEvaluator`:
        print the delta report (version, touched relations, cache
        migrations/evictions) after every step and, with ``--query``,
        the recount — only affected components are recomputed, the rest
        are reused Lemma-1 factors (``--stats`` shows the split).

    bagcq serve [--port 8642] [--workers 4] [--queue-depth 64] \\
            [--deadline-ms 30000] [--no-coalesce] [--shards N] \\
            [--snapshot-dir DIR]
        Run the long-lived evaluation daemon (``repro.service``): warm
        shared caches, admission control, single-flight coalescing of
        identical requests, per-request deadlines, /healthz + /metrics.
        ``--shards N`` (N > 1) runs N such servers as supervised
        subprocesses behind a consistent-hash router (``repro.shard``);
        ``--snapshot-dir`` adds the durable write-through/warm-restore
        cache tier.

    bagcq snapshot [--url URL]
        Ask a running daemon (or router — it fans out to every shard)
        to bulk-sync its caches to the durable tier (``POST /snapshot``).

    bagcq call evaluate --query "E(x,y)" --facts "E(a,b)" [--url URL]
    bagcq call db --db g --facts "E(a,b) E(b,c)"
    bagcq call update --db g --insert "E(c,a)" [--delete "E(a,b)"]
    bagcq call evaluate --query "E(x,y)" --db g
    bagcq call healthz | metrics | traces | explain | decide …
        Drive a running daemon from the shell through the retrying
        ``ServiceClient``; ``call db`` loads a named server-resident
        database, ``call update`` mutates it in place (bumping its
        version), and ``call evaluate --db`` counts against it.

    bagcq loadgen --url URL [--scenario NAME]… [--requests 120] \\
            [--clients 4] [--seed 0] [--output BENCH_load.json] [--check-slo]
        Replay the named seeded traffic scenarios (default: all five)
        against a running daemon and print throughput / server-side
        p50/p95/p99 / shed-rate per scenario (repro.loadgen).

    bagcq slo --run BENCH_load.json [--baseline benchmarks/BENCH_load.json]
        Judge a recorded load run against the declared objectives and,
        when a baseline is given, against it (the CI regression gate).
        Exits non-zero on any violation.

    bagcq compare --instance linear:2:3:7
        Print the inequality-budget comparison against Jayram-Kolaitis-Vee.

    bagcq search --phi-s "E(x,y) & E(y,z) & E(z,x)" --phi-b "E(x,y)" \\
            --multiplier 2 --domain-size 3 --count 200 [--workers 2]
        Search a seeded stream of random databases for a counterexample to
        ``multiplier*phi_s(D) <= phi_b(D) + additive``.  The verdict is
        bit-identical across --workers/--no-cache/--batch-size settings.

    bagcq fuzz --max-cases 2000 --seed 0 [--oracle cross_engine] \\
            [--corpus tests/corpus] [--budget-seconds 60]
        Run the repro.qa differential fuzzer: seeded cases, paper-lemma
        oracles, delta-debugging shrinker.  Existing corpus entries are
        replayed first; minimized findings are written back to --corpus.

Every subcommand accepts ``--stats`` (print an observability report —
per-step spans plus engine/search counters — to stderr) and
``--stats-json PATH`` (write the same report as stable JSON).  See
``docs/OBSERVABILITY.md`` for the metric glossary.

The parser is data: ``_FLAGS`` declares every flag once, ``_COMMANDS``
has one row per subcommand and ``_CALLS`` one per ``call`` endpoint.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import BagCQError
from repro.homomorphism import ENGINES
from repro.queries.parser import parse_query
from repro.relational.structure import Structure

__all__ = ["main"]


def _load_instance(spec: str):
    """Resolve ``name`` or ``name:arg1:arg2…`` to a Diophantine instance."""
    from repro.polynomials import diophantine

    name, _, argument_text = spec.partition(":")
    factories = {
        "linear": diophantine.linear,
        "pell": diophantine.pell,
        "pell_nontrivial": diophantine.pell_nontrivial,
        "sum_of_squares": diophantine.sum_of_squares,
        "markov": diophantine.markov,
        "fermat_cubes": diophantine.fermat_cubes,
        "always_positive": diophantine.always_positive,
        "parity_obstruction": diophantine.parity_obstruction,
    }
    if name not in factories:
        raise SystemExit(
            f"unknown instance {name!r}; choose from {sorted(factories)}"
        )
    arguments = [int(piece) for piece in argument_text.split(":") if piece]
    return factories[name](*arguments)


def _parse_facts(text: str, query=None) -> Structure:
    """An inline database (:func:`repro.io.structure_from_facts`) that
    also interprets ``query``'s constants, each as itself."""
    from repro.io import interpret_query_constants, structure_from_facts

    structure = structure_from_facts(text)
    if query is None:
        return structure
    return interpret_query_constants(structure, query)


def _command_reduce(args: argparse.Namespace) -> int:
    from repro.core.theorem1 import reduce_polynomial

    instance = _load_instance(args.instance)
    print(instance)
    hilbert, reduction = reduce_polynomial(instance.polynomial)
    print()
    print(hilbert.describe())
    print()
    report = reduction.size_report()
    print(f"Theorem 1 output: C = {report['C']}")
    print(
        f"  phi_s: {report['phi_s_atoms']} atoms, "
        f"{report['phi_s_variables']} variables"
    )
    print(
        f"  phi_b: {report['phi_b_atoms']} atoms, "
        f"{report['phi_b_variables']} variables"
    )
    # Sanity-check the reduction by exact counting on one correct
    # database (the all-ones valuation): ℂ·φ_s(D) ≤ φ_b(D) must hold.
    # This also exercises the counting engines, so a --stats run shows
    # real backtracking/memo numbers even when the grid search is empty.
    from repro.obs.trace import span as obs_span

    with obs_span("reduce.baseline_check") as step:
        baseline = {index: 1 for index in range(1, reduction.instance.n + 1)}
        database = reduction.correct_database(baseline)
        holds = reduction.holds_on(database)
        step.set(holds=holds, domain=len(database.domain))
    print(
        f"baseline check (all-ones valuation, |domain| = "
        f"{len(database.domain)}): C*phi_s <= phi_b {'holds' if holds else 'VIOLATED'}"
    )
    if args.grid >= 0:
        witness = reduction.find_counterexample(args.grid)
        if witness is None:
            print(f"no counterexample on the {args.grid}-grid")
        else:
            print(
                f"verified counterexample database found "
                f"(|domain| = {len(witness.domain)}, "
                f"{witness.fact_count()} facts)"
            )
    return 0


def _command_gadget(args: argparse.Namespace) -> int:
    from repro.core.alpha import alpha_gadget
    from repro.decision.search import random_structures

    gadget = alpha_gadget(args.c)
    print(gadget)
    counts = gadget.witness_counts()
    print(f"witness counts: alpha_s = {counts[0]}, alpha_b = {counts[1]}")
    print(f"equality (=) verified: {gadget.verify_equality()}")
    if args.check_structures > 0:
        schema = gadget.query_s.schema.union(gadget.query_b.schema)
        stream = random_structures(
            schema,
            domain_size=3,
            count=args.check_structures,
            nontrivial_constants=True,
        )
        violator = gadget.upper_bound_violation(stream)
        print(
            f"upper bound (<=) violated on sample: "
            f"{'yes' if violator is not None else 'no'}"
        )
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    from repro.homomorphism.batch import count_many

    query = parse_query(args.query)
    [value] = count_many(
        [(query, _parse_facts(args.facts, query))],
        engine=args.engine,
        workers=args.workers,
        cache=False if args.no_cache else None,
    )
    print(value)
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.planner import PlanCache, plan

    query = parse_query(args.query)
    if args.facts is not None:
        structure = _parse_facts(args.facts, query)
        source = f"inline database ({structure.fact_count()} facts)"
    else:
        structure = query.canonical_structure()
        source = f"canonical database ({structure.fact_count()} facts)"
    # A fresh cache keeps the hit/miss line meaningful for this query
    # alone: repeated components hit, everything else misses.
    chosen = plan(query, structure, cache=PlanCache())
    if args.json:
        from repro.obs.report import stable_json_dumps

        print(stable_json_dumps(chosen.to_dict()))
        return 0
    print(f"query: {query}")
    print(f"planned against: {source}, |domain| = {len(structure.domain)}")
    print(chosen.explain())
    return 0


def _parse_deltas(args: argparse.Namespace):
    """The mutation batch shared by ``update`` and ``call update``.

    ``--delta-file`` holds one io delta payload or a list of them (applied
    in order); ``--insert``/``--delete`` build one extra delta from
    ground-atom text.
    """
    import json
    from pathlib import Path

    from repro.io import delta_from_dict, ground_facts_from_text
    from repro.relational.structure import Delta

    deltas = []
    if args.delta_file is not None:
        payload = json.loads(Path(args.delta_file).read_text())
        entries = payload if isinstance(payload, list) else [payload]
        deltas.extend(delta_from_dict(entry) for entry in entries)
    if args.insert is not None or args.delete is not None:
        deltas.append(
            Delta(
                inserts=tuple(
                    ground_facts_from_text(args.insert)
                    if args.insert is not None
                    else ()
                ),
                deletes=tuple(
                    ground_facts_from_text(args.delete)
                    if args.delete is not None
                    else ()
                ),
            )
        )
    if not deltas:
        raise SystemExit("update needs --insert, --delete, or --delta-file")
    return deltas


def _command_update(args: argparse.Namespace) -> int:
    from repro.homomorphism.delta import DeltaEvaluator

    query = parse_query(args.query) if args.query is not None else None
    structure = _parse_facts(args.facts, query)
    deltas = _parse_deltas(args)
    evaluator = DeltaEvaluator(structure, engine=args.engine)
    if query is not None:
        print(f"count@v0 = {evaluator.evaluate(query)}")
    for delta in deltas:
        report = evaluator.apply(delta)
        print(report.describe())
        if query is not None:
            print(
                f"count@v{report.version} = {evaluator.evaluate(query)}"
            )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    options = dict(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        coalesce=not args.no_coalesce,
        snapshot_dir=args.snapshot_dir,
    )
    if args.shards > 1:
        from repro.shard import RouterConfig, serve_sharded

        serve_sharded(
            RouterConfig(
                shards=args.shards, workers_per_shard=args.workers, **options
            )
        )
        return 0
    from repro.service import ServerConfig, serve

    serve(ServerConfig(workers=args.workers, **options))
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    args.endpoint = "snapshot"
    return _command_call(args)


def _union(queries: list[str]):
    """One query, or the disjuncts of a union when the flag repeats."""
    return queries[0] if len(queries) == 1 else queries


#: ``bagcq call``'s endpoints in ``--help`` order: what each needs and
#: the client call that answers it, which returns the answers to print
#: as stable JSON.  A need names a flag by its dest and asks for it
#: once; ``a|b`` asks for exactly one of two flags, ``name+`` for a
#: repeatable flag at least once.
_CALLS = {
    "evaluate": (
        "query facts|db",
        lambda client, args: [
            client.evaluate(
                args.query,
                args.facts,
                engine=args.engine,
                deadline_ms=args.deadline_ms,
                db=args.db,
            )
        ],
    ),
    "explain": (
        "query",
        lambda client, args: [
            client.explain(args.query, structure=args.facts)["plan"]
        ],
    ),
    "decide": (
        "phi_s phi_b",
        lambda client, args: [
            client.decide(
                args.phi_s[0],
                args.phi_b[0],
                multiplier=args.multiplier,
                additive=args.additive,
                domain_size=args.domain_size,
                count=args.count,
                seed=args.seed,
                engine=args.engine,
                deadline_ms=args.deadline_ms,
            )
        ],
    ),
    "contain": (
        "phi_s+ phi_b+",
        lambda client, args: [
            client.contain(
                _union(args.phi_s),
                _union(args.phi_b),
                engine=args.engine,
                witness=not args.no_witness,
                deadline_ms=args.deadline_ms,
            )
        ],
    ),
    "db": (
        "db facts",
        lambda client, args: [
            client.load_db(
                args.db,
                args.facts,
                engine=args.engine,
                deadline_ms=args.deadline_ms,
            )
        ],
    ),
    "update": (
        "db",
        lambda client, args: (
            client.update(args.db, delta=delta, deadline_ms=args.deadline_ms)
            for delta in _parse_deltas(args)
        ),
    ),
    "healthz": ("", lambda client, args: [client.healthz()]),
    "metrics": ("", lambda client, args: [client.metrics()]),
    "traces": ("", lambda client, args: [client.traces()]),
    "snapshot": ("", lambda client, args: [client.snapshot()]),
}


def _meets(args: argparse.Namespace, need: str) -> bool:
    given = 0
    for dest in need.rstrip("+").split("|"):
        value = getattr(args, dest)
        if value is not None:
            given += len(value) if isinstance(value, list) else 1
    return given >= 1 if need.endswith("+") else given == 1


def _describe(need: str) -> str:
    flags = ["--" + dest.replace("_", "-") for dest in need.rstrip("+").split("|")]
    if len(flags) > 1:
        return "one of " + " or ".join(flags)
    return flags[0] if need.endswith("+") else f"one {flags[0]}"


def _command_call(args: argparse.Namespace) -> int:
    from repro.obs.report import stable_json_dumps
    from repro.service import ServiceClient

    needs, call = _CALLS[args.endpoint]
    if not all(_meets(args, need) for need in needs.split()):
        raise SystemExit(
            f"call {args.endpoint} needs "
            + " and ".join(_describe(need) for need in needs.split())
        )
    # `bagcq snapshot` sets a timeout and `bagcq call` a retry budget.
    options = {
        name: value
        for name, value in vars(args).items()
        if name in ("retries", "timeout_s")
    }
    client = ServiceClient(args.url, **options)
    for answer in call(client, args):
        print(stable_json_dumps(answer))
    return 0


def _print_violations(violations: list[str]) -> int:
    for violation in violations:
        print(f"SLO VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        DEFAULT_SLOS,
        SCENARIO_NAMES,
        build_scenario,
        evaluate_slo,
        run_scenario,
    )
    from repro.obs.report import stable_json_dumps

    names = args.scenario or list(SCENARIO_NAMES)
    unknown = sorted(set(names) - set(SCENARIO_NAMES))
    if unknown:
        raise SystemExit(
            f"unknown scenario(s) {unknown}; choose from {list(SCENARIO_NAMES)}"
        )
    rows = []
    violations: list[str] = []
    for name in names:
        scenario = build_scenario(
            name, seed=args.seed, requests=args.requests, clients=args.clients
        )
        result = run_scenario(scenario, args.url)
        row = result.to_dict()
        rows.append(row)
        print(
            f"{row['scenario']:<18} {row['throughput_rps']:>9.2f} rps  "
            f"p50 {row['p50_ms'] or 0:>8.2f} ms  "
            f"p95 {row['p95_ms'] or 0:>8.2f} ms  "
            f"shed {row['shed_rate']:.2%}  "
            f"({row['completed']}/{row['requests']} ok, "
            f"{row['deadline_exceeded']} timed out)"
        )
        if args.check_slo and name in DEFAULT_SLOS:
            violations.extend(evaluate_slo(row, DEFAULT_SLOS[name]))
    document = {
        "experiment": "E18-load",
        "seed": args.seed,
        "requests": args.requests,
        "clients": args.clients,
        "scenarios": rows,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(stable_json_dumps(document))
            handle.write("\n")
        print(f"wrote {args.output}")
    return _print_violations(violations)


def _command_slo(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.loadgen import DEFAULT_SLOS, check_regression, evaluate_slo

    with open(args.run, encoding="utf-8") as handle:
        current = json_module.load(handle)
    violations: list[str] = []
    for row in current.get("scenarios", []):
        slo = DEFAULT_SLOS.get(row.get("scenario"))
        if slo is not None:
            violations.extend(evaluate_slo(row, slo))
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json_module.load(handle)
        violations.extend(
            check_regression(
                current,
                baseline,
                p95_ratio=args.p95_ratio,
                throughput_ratio=args.throughput_ratio,
                p95_floor_ms=args.p95_floor_ms,
            )
        )
    if violations:
        return _print_violations(violations)
    print(f"{len(current.get('scenarios', []))} scenario(s) within objectives")
    return 0


def _command_search(args: argparse.Namespace) -> int:
    from repro.decision.search import find_counterexample, random_structures
    from repro.errors import SearchBudgetExceeded

    phi_s = parse_query(args.phi_s)
    phi_b = parse_query(args.phi_b)
    schema = phi_s.schema.union(phi_b.schema)
    stream = random_structures(
        schema,
        domain_size=args.domain_size,
        density=args.density,
        count=args.count,
        seed=args.seed,
    )
    try:
        outcome = find_counterexample(
            phi_s,
            phi_b,
            stream,
            multiplier=args.multiplier,
            additive=args.additive,
            max_candidates=args.max_candidates,
            engine=args.engine,
            workers=args.workers,
            batch_size=args.batch_size,
            cache=False if args.no_cache else None,
        )
    except SearchBudgetExceeded as error:
        print(f"budget exceeded: {error}")
        return 2
    if outcome.found:
        print(
            f"counterexample after {outcome.checked} candidates: "
            f"{args.multiplier}*phi_s(D) = {outcome.lhs} > "
            f"phi_b(D) + {args.additive} = {outcome.rhs} "
            f"(|domain| = {len(outcome.counterexample.domain)}, "
            f"{outcome.counterexample.fact_count()} facts)"
        )
        return 0
    print(f"no counterexample in {outcome.checked} candidates")
    return 0


def _command_contain(args: argparse.Namespace) -> int:
    from repro.containment_set import cq_containment, ucq_containment
    from repro.obs.report import stable_json_dumps

    left = [parse_query(text) for text in args.phi_s]
    right = [parse_query(text) for text in args.phi_b]
    want_witness = not args.no_witness
    if len(left) == 1 and len(right) == 1:
        kind = "cq"
        verdict = cq_containment(
            left[0], right[0], engine=args.engine, want_witness=want_witness
        )
    else:
        kind = "ucq"
        verdict = ucq_containment(
            left, right, engine=args.engine, want_witness=want_witness
        )
    if args.json:
        print(stable_json_dumps({"kind": kind, **verdict.to_dict()}))
        return 0
    relation = "⊆" if verdict.contained else "⊄"
    print(f"phi_s {relation} phi_b under set semantics [engine: {args.engine}]")
    if kind == "cq":
        if verdict.contained and verdict.witness is not None:
            for variable, target in verdict.witness:
                print(f"  witness: {variable.name} -> {target}")
    else:
        for entry in verdict.coverage:
            if entry.covered:
                print(
                    f"  disjunct {entry.disjunct} ⊆ container {entry.container}"
                )
            else:
                print(f"  disjunct {entry.disjunct} uncovered")
    if not verdict.contained and verdict.certificate is not None:
        certificate = verdict.certificate
        print(
            f"  certificate: canonical(phi_s) with phi_s = {certificate.lhs} "
            f"> phi_b = {certificate.rhs} "
            f"(|domain| = {len(certificate.structure.domain)}, "
            f"{certificate.structure.fact_count()} facts)"
        )
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import oracle_names, run_fuzz

    if args.max_cases is not None and args.max_cases < 0:
        raise SystemExit(f"--max-cases must be >= 0, got {args.max_cases}")
    if args.budget_seconds is not None and args.budget_seconds < 0:
        raise SystemExit(
            f"--budget-seconds must be >= 0, got {args.budget_seconds}"
        )
    if args.oracle:
        unknown = sorted(set(args.oracle) - set(oracle_names()))
        if unknown:
            raise SystemExit(
                f"unknown oracle(s) {unknown}; choose from {sorted(oracle_names())}"
            )
    report = run_fuzz(
        max_cases=args.max_cases,
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        oracles=args.oracle or None,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
    )
    print(report.describe())
    if not report.ok:
        for finding in report.findings:
            if finding.corpus_path is not None:
                print(f"minimized finding written to {finding.corpus_path}")
        return 1
    return 0


def _command_core(args: argparse.Namespace) -> int:
    from repro.decision import core

    query = parse_query(args.query)
    minimized = core(query)
    print(minimized)
    if minimized.atom_count < query.atom_count:
        print(
            f"# dropped {query.atom_count - minimized.atom_count} redundant "
            "atom(s) — set-equivalent, NOT bag-equivalent (Chaudhuri-Vardi)",
        )
    else:
        print("# already a core")
    return 0


def _command_equivalent(args: argparse.Namespace) -> int:
    from repro.decision import bag_equivalent, set_equivalent

    left = parse_query(args.left)
    right = parse_query(args.right)
    bag = bag_equivalent(left, right)
    print(f"bag-equivalent (iff isomorphic): {bag}")
    if not left.has_inequalities() and not right.has_inequalities():
        print(f"set-equivalent (Chandra-Merlin): {set_equivalent(left, right)}")
    return 0


def _command_answers(args: argparse.Namespace) -> int:
    from repro.queries import OpenQuery

    body = parse_query(args.query)
    head = tuple(name.strip() for name in args.head.split(",") if name.strip())
    open_query = OpenQuery(body, head)
    structure = _parse_facts(args.facts, body)
    for answer, multiplicity in sorted(
        open_query.answers(structure).items(), key=lambda kv: repr(kv[0])
    ):
        rendered = ", ".join(str(value) for value in answer)
        print(f"({rendered}) x{multiplicity}")
    return 0


def _command_verify_paper(args: argparse.Namespace) -> int:
    from repro.paper import verify_all

    failures = 0
    for claim, passed in verify_all():
        status = "ok " if passed else "FAIL"
        print(f"[{status}] {claim.claim_id:<22} {claim.statement}")
        if not passed:
            failures += 1
    print()
    if failures:
        print(f"{failures} claim(s) FAILED")
        return 1
    print("every registered claim of the paper verifies")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.baselines.jkv import comparison_row, format_comparison_table
    from repro.core.theorem3 import theorem3_reduction
    from repro.polynomials import Lemma11Instance, Monomial

    minimal = Lemma11Instance(
        c=2,
        monomials=(Monomial.of(1),),
        s_coefficients=(1,),
        b_coefficients=(1,),
    )
    rows = [comparison_row("minimal (materialized)", theorem3_reduction(minimal))]
    print(format_comparison_table(rows))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: Every flag, one entry per meaning: ``name: (option, add_argument
#: keywords)``.  ``--workers``, ``--deadline-ms``, ``--phi-s`` and
#: ``--phi-b`` each mean two things, so each has two entries.
_FLAGS = {
    "stats": ("--stats", dict(action="store_true",
              help="print an observability report (spans + counters) to stderr")),
    "stats_json": ("--stats-json", dict(metavar="PATH",
                   help="write the observability report as stable JSON to PATH")),
    "instance": ("--instance", dict(help="e.g. pell_nontrivial:2")),
    "grid": ("--grid", dict(type=int, default=2, help="valuation grid bound")),
    "c": ("--c", dict(type=int)),
    "check_structures": ("--check-structures", dict(type=int, default=0)),
    "query": ("--query", {}),
    "facts": ("--facts", dict(help="inline database, e.g. 'E(a,b) E(b,c)'; "
              "explain plans against the query's canonical one without it")),
    "engine": ("--engine", dict(choices=("auto", *ENGINES), default="auto",
               help="counting engine; 'auto' (default) plans per component")),
    "workers": ("--workers", dict(type=_positive_int, default=1,
                help="fan counting across a process pool (default: 1, serial)")),
    "no_cache": ("--no-cache", dict(action="store_true",
                 help="disable the canonicalization-keyed component count cache")),
    "json": ("--json", dict(action="store_true",
             help="print the plan (as /explain returns it) or the verdict as JSON")),
    "insert": ("--insert", dict(help="ground atoms to insert, e.g. 'E(a,b); E(b,c)'")),
    "delete": ("--delete", dict(help="ground atoms to delete")),
    "delta_file": ("--delta-file", dict(
                   help="JSON file with one io delta payload or a list of them")),
    "host": ("--host", dict(default="127.0.0.1")),
    "port": ("--port", dict(type=int, default=8642, help="0 picks an ephemeral port")),
    "threads": ("--workers", dict(type=_positive_int, default=4,
                help="evaluation threads")),
    "queue_depth": ("--queue-depth", dict(type=_positive_int, default=64,
                    help="admission bound; beyond it requests are shed with 429")),
    "default_deadline_ms": ("--deadline-ms", dict(type=_positive_int, default=30_000,
                            help="default per-request deadline")),
    "no_coalesce": ("--no-coalesce", dict(action="store_true",
                    help="disable single-flight coalescing of identical requests")),
    "shards": ("--shards", dict(type=_positive_int, default=1,
               help="worker subprocesses behind a consistent-hash router "
               "(1 = classic single-process server)")),
    "snapshot_dir": ("--snapshot-dir", dict(metavar="DIR",
                     help="durable cache tier: warm-start from DIR and write "
                     "through to it (with --shards each worker gets DIR/shard-NN)")),
    "url": ("--url", dict(default="http://127.0.0.1:8642", help="service base URL")),
    "timeout_s": ("--timeout-s", dict(type=float, default=60.0,
                  help="request timeout")),
    "endpoint": ("endpoint", dict(choices=tuple(_CALLS))),
    "db": ("--db", dict(help="named server-resident database (evaluate/db/update)")),
    "phi_s": ("--phi-s", dict(help="smaller-side query")),
    "phi_b": ("--phi-b", dict(help="bigger-side query")),
    "phi_s_union": ("--phi-s", dict(action="append",
                    help="smaller-side query; repeat for a union's disjuncts")),
    "phi_b_union": ("--phi-b", dict(action="append",
                    help="bigger-side query; repeat for a union's disjuncts")),
    "no_witness": ("--no-witness", dict(action="store_true",
                   help="skip the witness homomorphism on positive verdicts")),
    "multiplier": ("--multiplier", dict(type=int, default=1)),
    "additive": ("--additive", dict(type=int, default=0)),
    "domain_size": ("--domain-size", dict(type=int, default=3)),
    "count": ("--count", dict(type=int, default=100,
              help="candidate databases to draw")),
    "seed": ("--seed", dict(type=int, default=0)),
    "deadline_ms": ("--deadline-ms", dict(type=int, help="this request's deadline")),
    "retries": ("--retries", dict(type=int, default=4, help="client retry budget")),
    "scenario": ("--scenario", dict(action="append", metavar="NAME",
                 help="scenario to replay (repeatable; default: all of them)")),
    "requests": ("--requests", dict(type=_positive_int, default=120,
                 help="requests per scenario")),
    "clients": ("--clients", dict(type=_positive_int, default=4,
                help="concurrent workers")),
    "output": ("--output", dict(metavar="PATH",
               help="write the BENCH_load-shaped JSON document to PATH")),
    "check_slo": ("--check-slo", dict(action="store_true",
                  help="exit non-zero when a scenario misses its declared objectives")),
    "run": ("--run", dict(metavar="PATH", help="BENCH_load-shaped JSON")),
    "baseline": ("--baseline", dict(metavar="PATH",
                 help="checked-in baseline to gate regressions against")),
    "p95_ratio": ("--p95-ratio", dict(type=float, default=1.5,
                  help="allowed p95 growth vs baseline (default 1.5x)")),
    "throughput_ratio": ("--throughput-ratio", dict(type=float, default=0.6,
                         help="required throughput vs baseline (default 60%%)")),
    "p95_floor_ms": ("--p95-floor-ms", dict(type=float, default=5.0,
                     help="ignore p95 regressions below this absolute latency "
                     "(default 5 ms; raise on noisy shared runners)")),
    "density": ("--density", dict(type=float, default=0.3)),
    "max_candidates": ("--max-candidates", dict(type=int)),
    "batch_size": ("--batch-size", dict(type=_positive_int,
                   help="candidates per count_many generation (implies batching)")),
    "max_cases": ("--max-cases", dict(type=int,
                  help="cases to generate (default 500 when no time budget is given)")),
    "budget_seconds": ("--budget-seconds", dict(type=float,
                       help="wall-clock budget; fuzzing stops at the first limit hit")),
    "oracle": ("--oracle", dict(action="append", metavar="NAME",
               help="restrict to this oracle (repeatable; default: all registered)")),
    "corpus": ("--corpus", dict(metavar="DIR",
               help="replay this corpus first and write minimized findings into it")),
    "no_shrink": ("--no-shrink", dict(action="store_true",
                  help="report raw failing cases without delta-debugging them")),
    "left": ("--left", {}),
    "right": ("--right", {}),
    "head": ("--head", dict(help="e.g. 'x,y'")),
}

#: The flags every subcommand takes.
_COMMON_FLAGS = "stats stats_json"

#: The subcommands in ``--help`` order: ``(name, help, handler, flags)``,
#: with the flags by ``_FLAGS`` name and a ``!`` on each required one.
_COMMANDS = (
    ("reduce", "run the full reduction pipeline", _command_reduce,
     "instance! grid"),
    ("gadget", "build and verify an alpha gadget", _command_gadget,
     "c! check_structures"),
    ("evaluate", "count homomorphisms", _command_evaluate,
     "query! facts! engine workers no_cache"),
    ("explain", "print the auto engine's evaluation plan for a query",
     _command_explain, "query! facts json"),
    ("update", "apply deltas to an inline database and recount incrementally",
     _command_update, "query facts! insert delete delta_file engine"),
    ("serve", "run the long-lived evaluation daemon (repro.service)",
     _command_serve, "host port threads queue_depth default_deadline_ms "
     "no_coalesce shards snapshot_dir"),
    ("snapshot", "persist a running daemon's caches to its snapshot directory",
     _command_snapshot, "url timeout_s"),
    ("call", "call a running bagcq service from the shell", _command_call,
     "endpoint url query facts db insert delete delta_file phi_s_union "
     "phi_b_union no_witness engine multiplier additive domain_size count "
     "seed deadline_ms retries"),
    ("loadgen", "replay seeded traffic scenarios against a running daemon",
     _command_loadgen, "url scenario requests clients seed output check_slo"),
    ("slo", "judge a recorded load run against objectives and a baseline",
     _command_slo, "run! baseline p95_ratio throughput_ratio p95_floor_ms"),
    ("search", "search random databases for a containment counterexample",
     _command_search, "phi_s! phi_b! multiplier additive domain_size density "
     "count seed max_candidates engine workers batch_size no_cache"),
    ("contain", "decide set-semantics containment (Chandra-Merlin / all-any)",
     _command_contain, "phi_s_union! phi_b_union! engine no_witness json"),
    ("fuzz", "differential fuzzing with paper-lemma oracles (repro.qa)",
     _command_fuzz, "max_cases budget_seconds seed oracle corpus no_shrink"),
    ("compare", "inequality budget vs Jayram-Kolaitis-Vee", _command_compare, ""),
    ("verify-paper", "run the executable registry of the paper's claims",
     _command_verify_paper, ""),
    ("core", "set-semantics core of a conjunctive query", _command_core,
     "query!"),
    ("equivalent", "bag/set equivalence of two queries", _command_equivalent,
     "left! right!"),
    ("answers", "answer multiset of an open query on an inline database",
     _command_answers, "query! head! facts!"),
)


def _add_flags(parser: argparse.ArgumentParser, flags: str) -> None:
    for flag in flags.split():
        option, keywords = _FLAGS[flag.rstrip("!")]
        if flag.endswith("!"):
            keywords = {**keywords, "required": True}
        parser.add_argument(option, **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagcq",
        description="Bag-semantics CQ containment: gadgets and reductions "
        "from Marcinkowski & Orda, PODS 2024.",
    )
    # The common flags live on one parent parser that every subcommand
    # shares, so a server holds one set of their actions, not eighteen.
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, _COMMON_FLAGS)
    subcommands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _COMMANDS:
        subcommand = subcommands.add_parser(name, help=help_text, parents=[common])
        subcommand.set_defaults(handler=handler)
        _add_flags(subcommand, flags)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stats_json = getattr(args, "stats_json", None)
    if not (getattr(args, "stats", False) or stats_json):
        try:
            return args.handler(args)
        except BagCQError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    from repro.obs import observe, span

    # The report is emitted even when the command fails — budget
    # exhaustion and mid-evaluation errors are exactly when the counters
    # explain what happened.
    with observe() as observation:
        with span(f"cli.{args.command}"):
            try:
                exit_code = args.handler(args)
            except BagCQError as error:
                print(f"error: {error}", file=sys.stderr)
                exit_code = 1
    if getattr(args, "stats", False):
        print(observation.render_text(), file=sys.stderr)
    if stats_json:
        with open(stats_json, "w", encoding="utf-8") as handle:
            handle.write(observation.render_json())
            handle.write("\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
