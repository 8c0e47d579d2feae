"""Metamorphic properties of bag-semantics evaluation.

Each test states a semantic invariant that must hold for *every* query and
structure — no oracle needed beyond the evaluator itself:

* ``φ(D)`` is invariant under bijective variable renaming (homomorphism
  counts do not see names);
* ``φ(D)`` is invariant under atom/inequality reordering (a CQ is a set
  of atoms);
* ``(φ ∧̄ ψ)(D) = φ(D)·ψ(D)`` — Lemma 1's multiplicativity over disjoint
  unions — and ``(φ↑k)(D) = φ(D)^k`` (Definition 2);
* ``count_at_least(φ, D, b) ⟺ φ(D) ≥ b``.

Every property is checked through both the cached and the uncached
evaluation paths, so a cache bug that respects these invariants only by
accident on the differential corpus still gets caught here.
"""

from __future__ import annotations

import random

import pytest

from repro.homomorphism import CountCache, count, count_at_least, count_many
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.queries.product import QueryProduct
from repro.queries.terms import Variable
from repro.relational import Schema, Structure
from repro.workloads import cycle_query, path_query, random_queries, star_query

SCHEMA = Schema.from_arities({"E": 2, "U": 1})

STRUCTURES = [
    Structure(
        SCHEMA,
        {"E": [(0, 1), (1, 2), (2, 0), (2, 2)], "U": [(1,)]},
        domain=range(3),
    ),
    Structure(
        SCHEMA,
        {"E": [(0, 0), (1, 0), (1, 2)], "U": [(0,), (2,)]},
        domain=range(3),
    ),
]

QUERIES = (
    [path_query(4), star_query(3), cycle_query(3), cycle_query(5)]
    + list(random_queries(SCHEMA, count=12, variable_count=4, atom_count=4, seed=5))
    + list(
        random_queries(
            SCHEMA,
            count=8,
            variable_count=3,
            atom_count=3,
            inequality_count=1,
            seed=23,
        )
    )
)

#: Every evaluation path: plain serial, through a component cache,
#: batched, and the compiled engine (bare and cached) — the specialized
#: evaluators must satisfy the same invariants as the interpreter.
PATHS = [
    pytest.param(lambda q, d: count(q, d), id="uncached"),
    pytest.param(lambda q, d: count(q, d, cache=CountCache()), id="cached"),
    pytest.param(lambda q, d: count_many([(q, d)])[0], id="batched"),
    pytest.param(lambda q, d: count(q, d, engine="compiled"), id="compiled"),
    pytest.param(
        lambda q, d: count(q, d, engine="compiled", cache=CountCache()),
        id="compiled-cached",
    ),
]


def _random_renaming(query: ConjunctiveQuery, seed: int) -> dict:
    rng = random.Random(seed)
    names = sorted(query.variables)
    shuffled = [Variable(f"r{i}_{v.name}") for i, v in enumerate(names)]
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))


@pytest.mark.parametrize("evaluate", PATHS)
def test_invariant_under_variable_renaming(evaluate):
    for seed, query in enumerate(QUERIES):
        renamed = query.rename(_random_renaming(query, seed))
        for structure in STRUCTURES:
            assert evaluate(renamed, structure) == evaluate(query, structure), (
                f"renaming changed the count of {query}"
            )


@pytest.mark.parametrize("evaluate", PATHS)
def test_invariant_under_atom_reordering(evaluate):
    for seed, query in enumerate(QUERIES):
        rng = random.Random(1000 + seed)
        atoms = list(query.atoms)
        inequalities = list(query.inequalities)
        rng.shuffle(atoms)
        rng.shuffle(inequalities)
        reordered = ConjunctiveQuery(atoms, inequalities)
        assert reordered == query  # atom sets are order-blind by design
        for structure in STRUCTURES:
            assert evaluate(reordered, structure) == evaluate(query, structure)


@pytest.mark.parametrize("evaluate", PATHS)
def test_multiplicative_over_disjoint_unions(evaluate):
    pairs = [
        (path_query(3), star_query(2)),
        (cycle_query(3), path_query(2)),
        (QUERIES[5], QUERIES[9]),
        (QUERIES[6], QUERIES[6]),  # self-product: φ ∧̄ φ
    ]
    for left, right in pairs:
        union = left * right  # disjoint_conj renames apart (Lemma 1)
        for structure in STRUCTURES:
            assert evaluate(union, structure) == evaluate(
                left, structure
            ) * evaluate(right, structure)


@pytest.mark.parametrize("evaluate", PATHS)
def test_power_is_pointwise_power(evaluate):
    for query in (path_query(2), cycle_query(3)):
        for structure in STRUCTURES:
            base = evaluate(query, structure)
            for k in (0, 1, 2, 3):
                assert evaluate(query**k, structure) == base**k
                assert (
                    evaluate(QueryProduct.of(query, k), structure) == base**k
                )


@pytest.mark.parametrize("engine", ["backtracking", "compiled"])
@pytest.mark.parametrize("cache", [None, CountCache()], ids=["uncached", "cached"])
def test_count_at_least_agrees_with_count(cache, engine):
    for query in QUERIES[:12]:
        for structure in STRUCTURES:
            exact = count(query, structure)
            for bound in (0, 1, exact - 1, exact, exact + 1, exact * 2 + 3):
                if bound < 0:
                    continue
                assert count_at_least(
                    query, structure, bound, cache=cache, engine=engine
                ) is (exact >= bound), (query, bound, engine)


@pytest.mark.parametrize("cache", [None, CountCache()], ids=["uncached", "cached"])
def test_count_at_least_on_factorized_products(cache):
    product = QueryProduct.of(cycle_query(3), 7) * QueryProduct.of(path_query(2), 2)
    for structure in STRUCTURES:
        exact = count(product, structure)
        for bound in (0, 1, exact, exact + 1):
            assert count_at_least(
                product, structure, bound, cache=cache
            ) is (exact >= bound)
        # Astronomical exponents never materialize on the predicate path.
        huge = QueryProduct.of(cycle_query(3), 10**100)
        base = count(cycle_query(3), structure)
        if base >= 2:
            assert count_at_least(huge, structure, 2**64, cache=cache)


@pytest.mark.parametrize("engine", ["backtracking", "compiled", "auto"])
def test_count_at_least_zero_factor_two_pass(engine):
    """The PR-3 fuzzer-caught bug, re-pinned for every engine: a factor
    evaluating to zero *behind* an astronomical nonzero factor must
    annihilate the product before any bound is declared cleared."""
    structure = Structure(
        Schema.from_arities({"E": 2, "Z": 2}), {"E": [(0, 1)], "Z": []}
    )
    product = QueryProduct(
        [(path_query(2), 10**100), (parse_query("Z(u, v)"), 1)]
    )
    assert not count_at_least(product, structure, 1, engine=engine)
    assert count(product, structure, engine=engine) == 0


# -- set-semantics containment invariants -------------------------------------
#
# The Chandra–Merlin verdict is a preorder on inequality-free CQs, so it
# must be reflexive, transitive, monotone under weakening (dropping an
# atom), invariant under α-renaming and atom reordering of either side,
# and monotone under union-widening on the UCQ level.

from repro.containment_set import cq_contained, ucq_contained  # noqa: E402

#: QUERIES stripped of inequalities (the classical test refuses them).
CLEAN = [query.without_inequalities() for query in QUERIES]


def test_containment_is_reflexive():
    for query in CLEAN:
        assert cq_contained(query, query), f"{query} not contained in itself"


def test_containment_invariant_under_renaming():
    for seed, query in enumerate(CLEAN[:12]):
        renamed = query.rename(_random_renaming(query, 5000 + seed))
        partner = CLEAN[(seed + 7) % len(CLEAN)]
        assert cq_contained(query, renamed)
        assert cq_contained(renamed, query)
        # Renaming either side never flips a verdict against a partner.
        assert cq_contained(query, partner) == cq_contained(renamed, partner)
        assert cq_contained(partner, query) == cq_contained(partner, renamed)


def test_containment_invariant_under_atom_reordering():
    for seed, query in enumerate(CLEAN[:12]):
        rng = random.Random(6000 + seed)
        atoms = list(query.atoms)
        rng.shuffle(atoms)
        reordered = ConjunctiveQuery(atoms)
        partner = CLEAN[(seed + 3) % len(CLEAN)]
        assert cq_contained(query, partner) == cq_contained(reordered, partner)
        assert cq_contained(partner, query) == cq_contained(partner, reordered)


def test_weakening_chains_are_monotone_and_transitive():
    """Dropping atoms weakens: Q ⊆ Q₁ ⊆ Q₂ ⊆ …, and each prefix pair of
    the chain must also be directly contained (transitivity on a chain
    whose links are guaranteed positive)."""
    for query in CLEAN:
        if query.atom_count < 3:
            continue
        chain = [query]
        while chain[-1].atom_count > 1:
            chain.append(ConjunctiveQuery(chain[-1].atoms[:-1]))
        for i in range(len(chain) - 1):
            assert cq_contained(chain[i], chain[i + 1])
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert cq_contained(chain[i], chain[j]), (
                    f"transitivity broke between drop-{i} and drop-{j}"
                )


def test_containment_transitive_on_sampled_triples():
    rng = random.Random(424242)
    triples = [rng.sample(range(len(CLEAN)), 3) for _ in range(30)]
    for a, b, c in triples:
        if cq_contained(CLEAN[a], CLEAN[b]) and cq_contained(
            CLEAN[b], CLEAN[c]
        ):
            assert cq_contained(CLEAN[a], CLEAN[c]), (
                f"{CLEAN[a]} ⊆ {CLEAN[b]} ⊆ {CLEAN[c]} but not transitively"
            )


def test_union_widening_is_monotone():
    """Q ⊆ Q ∪ Q′ — any union containing a disjunct contains it."""
    for offset, query in enumerate(CLEAN[:10]):
        extras = [CLEAN[(offset + 5) % len(CLEAN)], path_query(2)]
        union = [query, *extras]
        assert ucq_contained([query], union)
        assert ucq_contained(union, union)
        # Widening the right side never flips a positive verdict.
        assert ucq_contained([query], union + [cycle_query(3)])


# -- component keys under atom shuffling ----------------------------------

#: The seeded qa corpus the shuffle test walks: cases of these seeds.
SHUFFLE_SEEDS = (0, 1, 2)
SHUFFLE_CASES = 300
SHUFFLE_COPIES = 4

#: Share of α-renamed, atom-shuffled copies whose ComponentKey differs
#: from the original's, measured on the corpus above (EXPERIMENTS E28):
#: 1-WL refinement with stored-order tie-breaking is incomplete, so this
#: is a regression bound, not a law.  Symmetric shapes miss far more
#: often (a directed 6-cycle: 0.8).
SHUFFLE_MISS_BOUND = 0.0


def _shuffled_copy(query: ConjunctiveQuery, rng: random.Random):
    """An α-renamed copy of ``query`` with atoms and inequalities shuffled."""
    names = sorted(query.variables, key=lambda variable: variable.name)
    fresh = [Variable(f"s{index}") for index in range(len(names))]
    rng.shuffle(fresh)
    renamed = query.rename(dict(zip(names, fresh)))
    atoms, inequalities = list(renamed.atoms), list(renamed.inequalities)
    rng.shuffle(atoms)
    rng.shuffle(inequalities)
    return ConjunctiveQuery(atoms, inequalities)


def _outcome(query: ConjunctiveQuery, structure: Structure):
    """The count, or the error class a count raises."""
    try:
        return count(query, structure, engine="backtracking")
    except Exception as error:  # noqa: BLE001 — compared, not hidden
        return type(error).__name__


def test_component_key_under_atom_shuffling():
    """Equal keys always mean equal counts; the share of shuffled copies
    that get a different key stays at its measured bound."""
    from repro.homomorphism.cache import component_key
    from repro.qa.generators import case_at

    rng = random.Random(28)
    groups: dict = {}
    copies = differ = 0
    for seed in SHUFFLE_SEEDS:
        for index in range(SHUFFLE_CASES):
            case = case_at(index, seed)
            if case.query is None:
                continue
            for component in case.query.connected_components():
                key = component_key(component)
                groups.setdefault(key, [component])
                for _ in range(SHUFFLE_COPIES):
                    copy = _shuffled_copy(component, rng)
                    copies += 1
                    other = component_key(copy)
                    differ += other != key
                    members = groups.setdefault(other, [copy])
                    if len(members) < 3 and copy not in members:
                        members.append(copy)
    structures = [
        case.structure
        for case in (case_at(index, 99) for index in range(12))
        if case.structure is not None
    ][:4]
    for members in groups.values():
        for structure in structures:
            expected = _outcome(members[0], structure)
            for other in members[1:]:
                assert _outcome(other, structure) == expected, (
                    members[0],
                    other,
                )
    assert copies > 5000
    assert differ / copies <= SHUFFLE_MISS_BOUND
