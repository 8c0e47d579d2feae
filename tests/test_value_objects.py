"""The served path's value objects behave as the frozen dataclasses they were.

Each class is built by position, compared, hashed, printed and pickled
the way ``@dataclass(frozen=True)`` did it: the same ``repr``, equality
and hash over the field tuple (so sets and dicts of atoms iterate in the
same order), ``NotImplemented`` against any other class, an
``AttributeError`` on assignment, and a pickle round-trip (the batch
process pool ships queries to its workers).
"""

import pickle

import pytest

from repro.containment_set.chandra_merlin import AbsenceCertificate, CQContainment
from repro.containment_set.ucq import DisjunctCoverage, UCQContainment
from repro.decision.search import SearchOutcome
from repro.errors import QueryError, SchemaError
from repro.homomorphism.cache import DEFAULT_CACHE_SIZE
from repro.homomorphism.delta import DeltaReport
from repro.planner.analyze import ComponentProfile
from repro.planner.plan import Plan, PlanStep
from repro.queries import Atom, Constant, Inequality, Variable, parse_query
from repro.relational import RelationSymbol, Schema, Structure
from repro.relational.structure import Delta
from repro.service.databases import DEFAULT_MAX_DATABASES
from repro.service.handlers import ParsedRequest
from repro.service.server import ServerConfig
from repro.shard.persist import RestoreReport
from repro.shard.router import RouterConfig

X, Y = Variable("x"), Variable("y")
QUERY = parse_query("E(x, y)")
STRUCTURE = Structure(Schema.from_arities({"E": 2}), {"E": [(0, 1)]})
PROFILE = ComponentProfile(1, 2, 0, True, 1)
STEP = PlanStep(QUERY, "compiled", 2.0, PROFILE)
CERTIFICATE = AbsenceCertificate(STRUCTURE, 1, 0)
COVERAGE = DisjunctCoverage(0, None, None)


def _run() -> dict:
    return {}


#: One instance of every converted class, built by position, and the
#: ``repr`` its dataclass gave it.
CASES = [
    (
        Atom("E", (X, Constant("a"))),
        "Atom(relation='E', terms=(Variable(name='x'), Constant(name='a')))",
    ),
    (
        Inequality(Y, X),
        "Inequality(left=Variable(name='x'), right=Variable(name='y'))",
    ),
    (RelationSymbol("E", 2), "RelationSymbol(name='E', arity=2)"),
    (
        Delta([("E", [1, 2])]),
        "Delta(inserts=(('E', (1, 2)),), deletes=(), add_elements=(), "
        "remove_elements=())",
    ),
    (
        DeltaReport(3, ("E",), False, 1, 2, 0, "ab12"),
        "DeltaReport(version=3, touched_relations=('E',), domain_changed=False, "
        "invalidated=1, migrated=2, refreshed_artifacts=0, fingerprint='ab12')",
    ),
    (
        ParsedRequest("evaluate", ("evaluate", 7), _run),
        f"ParsedRequest(endpoint='evaluate', key=('evaluate', 7), run={_run!r})",
    ),
    (
        ServerConfig("0.0.0.0", 8642, 2),
        "ServerConfig(host='0.0.0.0', port=8642, workers=2, queue_depth=64, "
        "default_deadline_ms=30000, max_deadline_ms=300000, coalesce=True, "
        f"retry_after_s=0.05, count_cache_size={DEFAULT_CACHE_SIZE}, "
        "trace_buffer=128, recent_ids=1024, "
        f"max_databases={DEFAULT_MAX_DATABASES}, snapshot_dir=None)",
    ),
    (
        PROFILE,
        "ComponentProfile(atom_count=1, variable_count=2, inequality_count=0, "
        "acyclic=True, treewidth_bound=1)",
    ),
    (
        STEP,
        f"PlanStep(component={QUERY!r}, engine='compiled', est_cost=2.0, "
        f"profile={PROFILE!r}, exponent=1)",
    ),
    (Plan((STEP,), 1, 0), f"Plan(steps=({STEP!r},), cache_hits=1, cache_misses=0)"),
    (
        CERTIFICATE,
        f"AbsenceCertificate(structure={STRUCTURE!r}, lhs=1, rhs=0)",
    ),
    (
        CQContainment(True, "backtracking", ((X, Y),), None),
        "CQContainment(contained=True, engine='backtracking', "
        "witness=((Variable(name='x'), Variable(name='y')),), certificate=None)",
    ),
    (
        COVERAGE,
        "DisjunctCoverage(disjunct=0, container=None, witness=None)",
    ),
    (
        UCQContainment(False, "auto", (COVERAGE,), CERTIFICATE),
        f"UCQContainment(contained=False, engine='auto', coverage=({COVERAGE!r},), "
        f"certificate={CERTIFICATE!r})",
    ),
    (
        SearchOutcome(None, 5),
        "SearchOutcome(counterexample=None, checked=5, lhs=None, rhs=None)",
    ),
    (
        RouterConfig("127.0.0.1", 0, 3),
        "RouterConfig(host='127.0.0.1', port=0, shards=3, workers_per_shard=4, "
        "queue_depth=64, default_deadline_ms=30000, coalesce=True, "
        "snapshot_dir=None, virtual_nodes=64, ready_timeout_s=30.0, "
        "proxy_timeout_s=310.0)",
    ),
    (RestoreReport(2), "RestoreReport(loaded=2, rejected=0)"),
]

IDS = [type(value).__name__ for value, _ in CASES]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value.__slots__)


@pytest.mark.parametrize(("value", "expected"), CASES, ids=IDS)
def test_repr(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize(("value", "expected"), CASES, ids=IDS)
def test_keyword_construction_equals_positional(value, expected):
    by_keyword = type(value)(**dict(zip(value.__slots__, _fields(value))))
    assert by_keyword == value
    assert hash(by_keyword) == hash(value)


@pytest.mark.parametrize(("value", "expected"), CASES, ids=IDS)
def test_equality_and_hash_over_the_field_tuple(value, expected):
    fields = _fields(value)
    assert hash(value) == hash(fields)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    assert value.__eq__(object()) is NotImplemented
    for other, _ in CASES:
        if type(other) is not type(value):
            assert value.__eq__(other) is NotImplemented
            assert value != other


@pytest.mark.parametrize(("value", "expected"), CASES, ids=IDS)
def test_assignment_raises_attribute_error(value, expected):
    first = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize(("value", "expected"), CASES, ids=IDS)
def test_pickle_round_trip(value, expected):
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value)
    assert restored == value
    assert repr(restored) == expected


def test_unequal_fields_compare_unequal():
    assert Atom("E", (X, Y)) != Atom("E", (Y, X))
    assert RestoreReport(1) != RestoreReport(1, 1)
    # Same field values, another class: never equal.
    assert CQContainment(True, "auto", None, None) != UCQContainment(
        True, "auto", None, None
    )


def test_relation_symbol_ordering():
    e2, e3, f1 = RelationSymbol("E", 2), RelationSymbol("E", 3), RelationSymbol("F", 1)
    assert e2 < e3 < f1
    assert e2 <= RelationSymbol("E", 2) <= e3
    assert f1 > e3 >= e3
    assert sorted([f1, e3, e2]) == [e2, e3, f1]
    assert e2.__lt__(("E", 3)) is NotImplemented
    with pytest.raises(TypeError):
        e2 < ("E", 3)  # noqa: B015


def test_constructor_checks_still_run():
    with pytest.raises(QueryError):
        Atom("", (X,))
    with pytest.raises(QueryError):
        Inequality(X, "y")
    with pytest.raises(SchemaError):
        RelationSymbol("E", 0)


def test_construction_rejects_wrong_arguments():
    with pytest.raises(TypeError):
        RestoreReport(1, 2, 3)
    with pytest.raises(TypeError):
        SearchOutcome(None)  # ``checked`` has no default
    with pytest.raises(TypeError):
        RestoreReport(loaded=1, restored=2)
    with pytest.raises(TypeError):
        RestoreReport(1, loaded=1)
