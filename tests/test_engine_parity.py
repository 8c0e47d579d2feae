"""Property test: the three engines agree, and obs sees every dispatch.

For random small acyclic queries and random structures, the
backtracking, tree-decomposition, and compiled engines must return the
same exact count as the Yannakakis reference counter, and the
observability report must record **exactly one engine dispatch per
connected component** of the query — the dispatch accounting the E13
engine-comparison benchmarks build on.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.homomorphism.acyclic import is_acyclic
from repro.homomorphism.engine import ENGINES, count
from repro.obs import observe
from repro.queries import Atom, ConjunctiveQuery, Variable
from repro.relational import Schema, Structure
from tests.conftest import yannakakis_count

SCHEMA = Schema.from_arities({"E": 2, "U": 1})

elements = st.integers(min_value=0, max_value=2)


@st.composite
def structures(draw) -> Structure:
    edge_facts = draw(st.sets(st.tuples(elements, elements), max_size=6))
    unary_facts = draw(st.sets(st.tuples(elements), max_size=3))
    return Structure(
        SCHEMA, {"E": edge_facts, "U": unary_facts}, domain=range(3)
    )


@st.composite
def acyclic_queries(draw) -> ConjunctiveQuery:
    """Random inequality-free CQs, filtered to the α-acyclic class.

    Small shapes (≤ 3 atoms over ≤ 4 variables) are acyclic often enough
    that the ``assume`` filter stays cheap.
    """
    variables = [Variable(f"v{i}") for i in range(draw(st.integers(1, 4)))]
    pick = st.sampled_from(variables)
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            atoms.append(Atom("E", (draw(pick), draw(pick))))
        else:
            atoms.append(Atom("U", (draw(pick),)))
    query = ConjunctiveQuery(atoms)
    assume(is_acyclic(query))
    return query


@settings(max_examples=80, deadline=None)
@given(acyclic_queries(), structures())
def test_three_engines_agree_and_dispatch_once_per_component(query, structure):
    components = len(query.connected_components())
    values = {}
    for engine in ENGINES:
        with observe() as observation:
            values[engine] = count(query, structure, engine=engine)
        metrics = observation.report()["metrics"]
        dispatches = metrics[f"engine.dispatch.{engine}"]["value"]
        if values[engine] > 0:
            assert dispatches == components, (
                f"{engine}: {dispatches} dispatches for {components} components"
            )
        else:
            # A zero component short-circuits the factorization; later
            # components are (correctly) never dispatched.
            assert 1 <= dispatches <= components
        # No cross-engine leakage: only the chosen engine dispatched.
        for other in ENGINES:
            if other != engine:
                assert f"engine.dispatch.{other}" not in metrics
    assert set(values.values()) == {yannakakis_count(query, structure)}
