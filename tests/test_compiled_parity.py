"""The compiled engine's differential test wall (PR 7).

``engine="compiled"`` must be a *drop-in* for the interpreted engines:
bit-identical counts on every input and identical error classes on every
bad input, through every evaluation path the library offers.  This suite
drives the seeded qa case stream (the same generator the fuzzer and the
load generator share) through:

* serial ``count`` — compiled vs backtracking vs auto (vs the
  Yannakakis reference counter where applicable);
* the cached, batched, and ``workers=2`` paths (``CountCache`` /
  ``count_many``);
* ``count_at_least`` (including the factorized :class:`QueryProduct`
  path and the PR-3 zero-factor two-pass regression) and ``count_ucq``;
* the error discipline: uninterpreted constants raise
  :class:`~repro.errors.ConstantError` (never engine-tagged), arity
  mismatches raise :class:`~repro.errors.EvaluationError` tagged
  ``[engine: compiled]`` — exactly like the default engine;
* the compiled artifacts themselves: both specializations (array
  Yannakakis / closure chain), artifact reuse across α-equivalent
  components, and the 64-bit overflow fallback to exact ``int`` columns.
"""

from __future__ import annotations

import pytest

from repro.errors import ConstantError, EvaluationError
from repro.homomorphism import (
    CountCache,
    compile_component,
    compiled_supported,
    count,
    count_at_least,
    count_homomorphisms,
    count_homomorphisms_compiled,
    count_many,
    count_ucq,
)
from repro.homomorphism.acyclic import is_acyclic
from repro.obs import observe
from repro.planner import PlanCache
from repro.qa.generators import case_at
from repro.queries import parse_query
from repro.queries.product import QueryProduct
from repro.queries.terms import Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational import Schema, Structure
from tests.conftest import yannakakis_count

#: Seeded corpus slice: enough cases to cover every generator feature
#: (constants, inequalities, repeated variables, multi-component shapes)
#: while keeping the suite in tier-1 time.
CASE_COUNT = 120
SEED = 1

def _cq_cases():
    cases = []
    index = 0
    while len(cases) < CASE_COUNT:
        case = case_at(index, SEED)
        index += 1
        if case.kind == "cq" and case.query is not None:
            cases.append(case)
    return cases


def _ucq_cases(limit=12):
    cases = []
    index = 0
    while len(cases) < limit:
        case = case_at(index, SEED)
        index += 1
        if case.kind == "ucq" and case.disjuncts:
            cases.append(case)
    return cases


_CQ_CASES = _cq_cases()
_UCQ_CASES = _ucq_cases()


class TestSeededCorpusParity:
    def test_serial_counts_bit_identical(self):
        for case in _CQ_CASES:
            reference = count(case.query, case.structure, engine="backtracking")
            via_compiled = count(case.query, case.structure, engine="compiled")
            assert via_compiled == reference, case.describe()
            via_auto = count(case.query, case.structure, engine="auto")
            assert via_auto == reference, case.describe()

    def test_acyclic_agrees_where_applicable(self):
        checked = 0
        for case in _CQ_CASES:
            if case.query.has_inequalities():
                continue
            if not all(
                is_acyclic(component)
                for component in case.query.connected_components()
            ):
                continue
            reference = yannakakis_count(case.query, case.structure)
            assert (
                count(case.query, case.structure, engine="compiled")
                == reference
            ), case.describe()
            checked += 1
        assert checked > 10  # the slice really exercises the comparison

    def test_cached_path_bit_identical(self):
        cache = CountCache()
        for case in _CQ_CASES:
            reference = count(case.query, case.structure, engine="backtracking")
            assert (
                count(case.query, case.structure, engine="compiled", cache=cache)
                == reference
            ), case.describe()
            # Warm hit returns the same value again.
            assert (
                count(case.query, case.structure, engine="compiled", cache=cache)
                == reference
            ), case.describe()

    def test_batched_path_bit_identical(self):
        pairs = [(case.query, case.structure) for case in _CQ_CASES]
        reference = [count(query, structure) for query, structure in pairs]
        assert count_many(pairs, engine="compiled") == reference

    def test_two_worker_path_bit_identical(self):
        pairs = [(case.query, case.structure) for case in _CQ_CASES[:30]]
        reference = [count(query, structure) for query, structure in pairs]
        assert count_many(pairs, engine="compiled", workers=2) == reference

    def test_count_at_least_matches_exact_value(self):
        for case in _CQ_CASES[:40]:
            value = count(case.query, case.structure)
            for bound, expected in (
                (0, True),
                (value, True),
                (value + 1, False),
            ):
                assert (
                    count_at_least(
                        case.query, case.structure, bound, engine="compiled"
                    )
                    is expected
                ), case.describe()
            product = QueryProduct.of(case.query, 2)
            squared = value * value
            assert count_at_least(
                product, case.structure, squared, engine="compiled"
            )
            assert not count_at_least(
                product, case.structure, squared + 1, engine="compiled"
            )

    def test_count_at_least_zero_factor_regression(self):
        # The PR-3 fuzzer-caught bug: a nonzero factor must not clear the
        # bound past a zero factor *behind* it.  The two-pass fix has to
        # hold under compilation too.
        structure = Structure(
            Schema.from_arities({"E": 2, "Z": 2}), {"E": [(0, 1)], "Z": []}
        )
        nonzero = parse_query("E(x, y)")
        zero = parse_query("Z(u, v)")
        product = QueryProduct([(nonzero, 10**100), (zero, 1)])
        assert not count_at_least(product, structure, 1, engine="compiled")
        assert count(product, structure, engine="compiled") == 0

    def test_count_ucq_bit_identical(self):
        for case in _UCQ_CASES:
            ucq = UnionOfConjunctiveQueries(case.disjuncts)
            reference = count_ucq(ucq, case.structure, engine="backtracking")
            assert (
                count_ucq(ucq, case.structure, engine="compiled") == reference
            ), case.describe()
            assert (
                count_ucq(
                    ucq, case.structure, engine="compiled", cache=CountCache()
                )
                == reference
            ), case.describe()
            assert (
                count_ucq(ucq, case.structure, engine="compiled", workers=2)
                == reference
            ), case.describe()


class TestErrorClassParity:
    """Outside the envelope the compiled engine falls back to the
    interpreter, so every error class (and tag) matches the default."""

    def test_uninterpreted_constant_raises_constant_error(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1)]})
        query = parse_query("E(x, #nowhere)")
        with pytest.raises(ConstantError) as compiled_error:
            count(query, structure, engine="compiled")
        with pytest.raises(ConstantError) as reference_error:
            count(query, structure, engine="backtracking")
        assert str(compiled_error.value) == str(reference_error.value)
        # ConstantError is not an EvaluationError: never engine-tagged.
        assert "[engine:" not in str(compiled_error.value)

    def test_arity_mismatch_tagged_with_compiled(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1)]})
        query = parse_query("E(x, y, z)")
        with pytest.raises(EvaluationError, match=r"\[engine: compiled\]"):
            count(query, structure, engine="compiled")
        with pytest.raises(EvaluationError, match=r"\[engine: backtracking\]"):
            count(query, structure, engine="backtracking")

    def test_fallback_counts_match_on_inequality_queries(self, edge_schema):
        structure = Structure(
            edge_schema, {"E": [(0, 1), (1, 2), (2, 0), (1, 0)]}
        )
        for text in (
            "E(x, y) & x != y",
            "E(x, y) & E(y, z) & x != z",
            "E(x, y) & E(y, z) & E(z, x) & x != y & y != z",
        ):
            query = parse_query(text)
            assert not compiled_supported(query, structure)
            assert count(query, structure, engine="compiled") == count(
                query, structure, engine="backtracking"
            )

    def test_fallback_is_counted(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1)]})
        query = parse_query("E(x, y) & x != y")
        with observe() as observation:
            count(query, structure, engine="compiled")
        metrics = observation.report()["metrics"]
        assert metrics["compiled.calls"]["value"] == 1
        assert metrics["compiled.fallbacks"]["value"] == 1

    def test_unknown_engine_message_lists_compiled(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1)]})
        with pytest.raises(EvaluationError, match="compiled"):
            count(parse_query("E(x, y)"), structure, engine="nope")


class TestCompiledArtifacts:
    def test_acyclic_shape_compiles_to_array_semiring(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1), (1, 2)]})
        artifact = compile_component(parse_query("E(x, y) & E(y, z)"), structure)
        assert artifact.mode == "acyclic"
        assert artifact.run() == 1

    def test_cyclic_shape_compiles_to_closure_chain(self, edge_schema):
        structure = Structure(
            edge_schema, {"E": [(0, 1), (1, 2), (2, 0)]}
        )
        query = parse_query("E(x, y) & E(y, z) & E(z, x)")
        artifact = compile_component(query, structure)
        assert artifact.mode == "chain"
        assert artifact.run() == 3
        assert artifact.run() == 3  # artifacts are reusable

    def test_alpha_equivalent_components_share_one_artifact(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1), (1, 2), (2, 0)]})
        query = parse_query("E(x, y) & E(y, z) & E(z, x)")
        renamed = query.rename(
            {
                variable: Variable(f"zz_{position}")
                for position, variable in enumerate(sorted(query.variables))
            }
        )
        cache = PlanCache()
        _, first_hit = cache.compiled_artifact(
            query, structure, compile_component
        )
        _, second_hit = cache.compiled_artifact(
            renamed, structure, compile_component
        )
        assert not first_hit
        assert second_hit  # canonical keying: one build for the α-class
        assert cache.artifacts.stats()["misses"] == 1
        assert cache.artifacts.stats()["hits"] == 1

    def test_artifact_reuse_visible_in_counters(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1), (1, 2)]})
        query = parse_query("E(a, b) & E(b, c)")
        count_homomorphisms_compiled(query, structure)  # prime the store
        with observe() as observation:
            count_homomorphisms_compiled(query, structure)
        metrics = observation.report()["metrics"]
        assert metrics["plan.compile.cache_hits"]["value"] == 1
        assert metrics["compiled.artifact_reuses"]["value"] == 1
        assert metrics.get("plan.compile.builds", {"value": 0})["value"] == 0

    def test_overflow_falls_back_to_exact_int_columns(self):
        # A 22-leaf star over a 10-out-degree centre counts 10^22 — past
        # 64-bit — so the array('q') pass must overflow and re-run on
        # Python ints, bit-identical to the interpreter.
        schema = Schema.from_arities({"E": 2})
        structure = Structure(
            schema, {"E": [(0, j) for j in range(10)]}, domain=range(10)
        )
        text = " & ".join(f"E(x, y{i})" for i in range(22))
        query = parse_query(text)
        reference = count_homomorphisms(query, structure)
        assert reference == 10**22
        with observe() as observation:
            assert count_homomorphisms_compiled(query, structure) == reference
        metrics = observation.report()["metrics"]
        assert metrics["compiled.overflow_fallbacks"]["value"] >= 1

    def test_supported_predicate_gates(self, edge_schema):
        structure = Structure(edge_schema, {"E": [(0, 1)]})
        assert compiled_supported(parse_query("E(x, y)"), structure)
        assert not compiled_supported(
            parse_query("E(x, y) & x != y"), structure
        )
        assert not compiled_supported(parse_query("E(x, #nowhere)"), structure)
        assert not compiled_supported(parse_query("E(x, y, z)"), structure)
        # A relation the structure does not declare is the empty relation:
        # supported, and counted as zero.
        missing = parse_query("R(x, y)")
        assert compiled_supported(missing, structure)
        assert count(missing, structure, engine="compiled") == 0
