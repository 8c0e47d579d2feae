"""The oracle registry: named exact-count predicates over fuzz cases.

An oracle is a *predicate that must hold on every generated instance*.
Because the paper's lemmas are exact count identities, each oracle has a
crisp failure criterion — two numbers that must be equal and are not.
Registered oracles (``bagcq fuzz --oracle NAME`` selects a subset):

``cross_engine``
    The homomorphism engines and the planner-driven ``auto`` engine
    agree, and so does the Yannakakis reference counter where it is
    applicable (inequality-free, acyclic components); ``compiled`` is
    checked on *every* case — it is total, falling back to the
    interpreter outside its envelope, so the arm also exercises the
    fallback's parity.
``batch_parity``
    :func:`repro.homomorphism.batch.count_many` — with a private cache,
    with caching disabled, and with a tiny shared LRU — is bit-identical
    to serial :func:`repro.homomorphism.engine.count`.
``count_at_least``
    ``count_at_least(φ, D, b) ⟺ φ(D) ≥ b`` around the exact value,
    including through the factorized :class:`QueryProduct` path.
``multiplicativity``
    Lemma 1 / Definition 2: ``(φ ∧̄ ψ)(D) = φ(D)·ψ(D)`` and
    ``(φ↑k)(D) = φ(D)^k``.
``invariance``
    ``φ(D)`` is invariant under bijective variable renaming and atom
    reordering (the cache canonicalization must respect both).
``ucq_linearity``
    ``Σ mᵢ·φᵢ(D)`` — the UCQ value — matches serial and batched/cached
    evaluation of :func:`~repro.homomorphism.engine.count_ucq`.
``bag_vs_set``
    The set-semantics bridge: derived pairs with known positive verdicts
    hold; a negative Chandra–Merlin verdict's certificate is a genuine
    bag counterexample (and the search prescreen uses it); a positive
    verdict is never contradicted by a fuzzed structure or a search
    counterexample; all engines agree on verdicts and witnesses.
``delta_vs_full``
    Incremental (delta) evaluation is bit-identical to a full recount
    after **every** step of a seeded mutation sequence, across the
    serial, cached, batched, compiled, and service paths — and the
    incrementally maintained fingerprints match recomputed ones.
``gadget_equality``
    Definition 3 ``(=)``: the α multiplication gadget for ``c`` attains
    ``α_s(D) = c·α_b(D) ≠ 0`` on its packaged witness.

To add an oracle, decorate a ``check(case) -> OracleResult`` function
with ``@oracle("name", kinds=(...))`` here (or in any imported module);
the fuzzer, the corpus replayer, and the CLI pick it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.homomorphism.acyclic import count_homomorphisms_acyclic, is_acyclic
from repro.homomorphism.batch import count_many
from repro.homomorphism.cache import CountCache
from repro.homomorphism.engine import ENGINES, count, count_at_least, count_ucq
from repro.qa.generators import FuzzCase
from repro.queries.cq import ConjunctiveQuery
from repro.queries.product import QueryProduct
from repro.queries.terms import Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.workloads.random_queries import path_query

__all__ = [
    "Oracle",
    "OracleResult",
    "all_oracles",
    "get_oracle",
    "oracle",
    "oracle_names",
]


@dataclass(frozen=True)
class OracleResult:
    """Verdict of one oracle on one case."""

    ok: bool
    details: str = ""

    @classmethod
    def passed(cls) -> "OracleResult":
        return cls(True)

    @classmethod
    def failed(cls, details: str) -> "OracleResult":
        return cls(False, details)


@dataclass(frozen=True)
class Oracle:
    """A named predicate over fuzz cases of the given ``kinds``."""

    name: str
    kinds: tuple[str, ...]
    check: Callable[[FuzzCase], OracleResult]
    doc: str = ""

    def applies(self, case: FuzzCase) -> bool:
        return case.kind in self.kinds

    def judge(self, case: FuzzCase) -> OracleResult:
        """Run the check; an exception is itself a failure (with detail)."""
        if not self.applies(case):
            return OracleResult.passed()
        try:
            return self.check(case)
        except Exception as error:  # noqa: BLE001 — a crash is a finding
            return OracleResult.failed(
                f"oracle raised {type(error).__name__}: {error}"
            )


_REGISTRY: dict[str, Oracle] = {}


def oracle(name: str, kinds: Iterable[str] = ("cq",)):
    """Register ``check`` under ``name`` for cases of the given kinds."""

    def register(check: Callable[[FuzzCase], OracleResult]):
        if name in _REGISTRY:
            raise ValueError(f"oracle {name!r} already registered")
        _REGISTRY[name] = Oracle(
            name=name,
            kinds=tuple(kinds),
            check=check,
            doc=(check.__doc__ or "").strip().splitlines()[0]
            if check.__doc__
            else "",
        )
        return check

    return register


def all_oracles() -> tuple[Oracle, ...]:
    """Every registered oracle, in registration (= documentation) order."""
    return tuple(_REGISTRY.values())


def oracle_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_oracle(name: str) -> Oracle:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


# -- the oracles -----------------------------------------------------------


@oracle("cross_engine")
def _cross_engine(case: FuzzCase) -> OracleResult:
    """backtracking, treewidth, compiled, auto (Yannakakis where applicable) agree."""
    reference = count(case.query, case.structure, engine="backtracking")
    via_td = count(case.query, case.structure, engine="treewidth")
    if via_td != reference:
        return OracleResult.failed(
            f"backtracking={reference} treewidth={via_td}"
        )
    via_compiled = count(case.query, case.structure, engine="compiled")
    if via_compiled != reference:
        return OracleResult.failed(
            f"backtracking={reference} compiled={via_compiled}"
        )
    via_auto = count(case.query, case.structure, engine="auto")
    if via_auto != reference:
        return OracleResult.failed(
            f"backtracking={reference} auto={via_auto}"
        )
    components = case.query.connected_components()
    if not case.query.has_inequalities() and all(
        is_acyclic(component) for component in components
    ):
        via_ac = 1
        for component in components:
            via_ac *= count_homomorphisms_acyclic(component, case.structure)
            if via_ac == 0:
                break
        if via_ac != reference:
            return OracleResult.failed(
                f"backtracking={reference} acyclic={via_ac}"
            )
    if case.query.has_inequalities():
        via_ie = count(
            case.query,
            case.structure,
            engine="backtracking",
            use_inclusion_exclusion=True,
        )
        if via_ie != reference:
            return OracleResult.failed(
                f"backtracking={reference} inclusion_exclusion={via_ie}"
            )
    return OracleResult.passed()


@oracle("batch_parity")
def _batch_parity(case: FuzzCase) -> OracleResult:
    """count_many (fresh cache / no cache / tiny LRU) ≡ serial count."""
    serial = count(case.query, case.structure)
    pairs = [(case.query, case.structure)] * 3
    for cache in (None, False, CountCache(max_entries=2)):
        batched = count_many(pairs, cache=cache)
        if batched != [serial] * 3:
            return OracleResult.failed(
                f"serial={serial} batched={batched} cache={cache!r}"
            )
    return OracleResult.passed()


@oracle("count_at_least")
def _count_at_least(case: FuzzCase) -> OracleResult:
    """count_at_least(φ, D, b) ⟺ φ(D) ≥ b, plain and factorized."""
    value = count(case.query, case.structure)
    product = QueryProduct.of(case.query, 2)
    checks = [
        (case.query, 0, True),
        (case.query, value, True),
        (case.query, value + 1, False),
        (product, value * value, True),
        (product, value * value + 1, False),
    ]
    for query, bound, expected in checks:
        got = count_at_least(query, case.structure, bound)
        if got is not expected:
            return OracleResult.failed(
                f"count={value} bound={bound} expected={expected} got={got}"
            )
    return OracleResult.passed()


@oracle("multiplicativity")
def _multiplicativity(case: FuzzCase) -> OracleResult:
    """Lemma 1: (φ ∧̄ ψ)(D) = φ(D)·ψ(D); Definition 2: (φ↑k)(D) = φ(D)^k."""
    structure = case.structure
    value = count(case.query, structure)
    binary = sorted(
        symbol.name for symbol in structure.schema if symbol.arity == 2
    )
    if binary:
        other = path_query(2, relation=binary[0])
        conj = case.query * other
        expected = value * count(other, structure)
        got = count(conj, structure)
        if got != expected:
            return OracleResult.failed(
                f"(phi ∧̄ psi)(D)={got} but phi(D)*psi(D)={expected}"
            )
    squared = count(case.query.power(2), structure)
    if squared != value * value:
        return OracleResult.failed(
            f"(phi↑2)(D)={squared} but phi(D)^2={value * value}"
        )
    lazy = count(QueryProduct.of(case.query, 3), structure)
    if lazy != value**3:
        return OracleResult.failed(
            f"QueryProduct(phi,3)(D)={lazy} but phi(D)^3={value**3}"
        )
    return OracleResult.passed()


@oracle("invariance")
def _invariance(case: FuzzCase) -> OracleResult:
    """φ(D) is invariant under variable renaming and atom reordering."""
    reference = count(case.query, case.structure)
    mapping = {
        variable: Variable(f"zz_{position}")
        for position, variable in enumerate(sorted(case.query.variables))
    }
    renamed = case.query.rename(mapping)
    via_renamed = count(renamed, case.structure)
    if via_renamed != reference:
        return OracleResult.failed(
            f"original={reference} renamed={via_renamed}"
        )
    reordered = ConjunctiveQuery(
        tuple(reversed(case.query.atoms)),
        tuple(reversed(case.query.inequalities)),
    )
    via_reordered = count(reordered, case.structure)
    if via_reordered != reference:
        return OracleResult.failed(
            f"original={reference} reordered={via_reordered}"
        )
    return OracleResult.passed()


@oracle("ucq_linearity", kinds=("ucq",))
def _ucq_linearity(case: FuzzCase) -> OracleResult:
    """UCQ value = Σ mᵢ·φᵢ(D), serial and batched/cached alike."""
    ucq = UnionOfConjunctiveQueries(case.disjuncts)
    expected = sum(
        multiplicity * count(query, case.structure)
        for query, multiplicity in case.disjuncts
    )
    serial = count_ucq(ucq, case.structure)
    if serial != expected:
        return OracleResult.failed(f"sum={expected} count_ucq={serial}")
    cached = count_ucq(ucq, case.structure, cache=CountCache())
    if cached != expected:
        return OracleResult.failed(f"sum={expected} cached={cached}")
    return OracleResult.passed()


@oracle("bag_vs_set", kinds=("cq", "ucq"))
def _bag_vs_set(case: FuzzCase) -> OracleResult:
    """Set containment is necessary for bag containment, never contradicted.

    From each case a family of query pairs is derived (drop-an-atom
    weakenings, α-renamings) and three properties are enforced:

    * *Expected positives*: ``Q ⊆ Q``, ``Q ⊆ Q-minus-an-atom``, and both
      directions of an α-renaming are set-contained.
    * *Bridge*: a negative set verdict's certificate is a genuine bag
      counterexample — ``Q1`` counts positive, ``Q2`` counts zero on it —
      and the counterexample search refutes the pair without evaluating
      a single candidate (the prescreen).
    * *Non-contradiction*: when the set verdict is positive, no database
      (fuzzed or searched) has ``Q1`` positive and ``Q2`` zero; a found
      bag violation must be a multiplicity gap, not a boolean one.

    Verdicts must agree across backtracking/treewidth/compiled/auto,
    witnesses included.
    """
    from repro.containment_set import cq_containment, cq_contained, ucq_contained
    from repro.decision.search import find_counterexample

    if case.kind == "ucq":
        disjuncts = [query.without_inequalities() for query, _ in case.disjuncts]
        union = disjuncts
        widened = disjuncts + [path_query(2)]
        if not ucq_contained(union, widened):
            return OracleResult.failed("U ⊄ U ∪ {path} (monotonicity)")
        if not ucq_contained([disjuncts[0]], union):
            return OracleResult.failed("q0 ⊄ union containing q0")
        return OracleResult.passed()

    base = case.query.without_inequalities()
    renamed = base.rename(
        {
            variable: Variable(f"bvs_{position}")
            for position, variable in enumerate(sorted(base.variables))
        }
    )
    weakened = ConjunctiveQuery(base.atoms[:-1]) if base.atom_count > 1 else base
    if not base.constants <= weakened.constants:
        # Dropping the atom dropped a constant, so the reverse direction
        # would (correctly) raise ConstantError on canonical(weakened);
        # fall back to the identity pair.
        weakened = base
    for phi_s, phi_b, label in (
        (base, base, "Q ⊆ Q"),
        (base, weakened, "Q ⊆ weakened(Q)"),
        (base, renamed, "Q ⊆ α(Q)"),
        (renamed, base, "α(Q) ⊆ Q"),
    ):
        if not cq_contained(phi_s, phi_b):
            return OracleResult.failed(f"expected positive failed: {label}")

    # The interesting direction can go either way; all engines must agree
    # on it, witness and certificate included.
    reference = cq_containment(weakened, base, engine="backtracking")
    for engine in (*ENGINES, "auto"):
        if engine == "backtracking":
            continue
        other = cq_containment(weakened, base, engine=engine)
        if other.contained is not reference.contained:
            return OracleResult.failed(
                f"verdict disagrees: backtracking={reference.contained} "
                f"{engine}={other.contained}"
            )
        if other.witness != reference.witness:
            return OracleResult.failed(f"witness differs under {engine}")

    if not reference.contained:
        certificate = reference.certificate
        lhs = count(weakened, certificate.structure)
        rhs = count(base, certificate.structure)
        if lhs < 1 or rhs != 0:
            return OracleResult.failed(
                f"certificate not a bag counterexample: lhs={lhs} rhs={rhs}"
            )
        prescreened = find_counterexample(weakened, base, [])
        if not prescreened.found or prescreened.checked != 0:
            return OracleResult.failed(
                "prescreen missed a set-refuted pair "
                f"(found={prescreened.found} checked={prescreened.checked})"
            )
    else:
        # Positive set verdict: Q1 positive forces Q2 positive on the
        # fuzzed structure, and any bag violation the search reports must
        # keep Q2 positive (a multiplicity gap, never a boolean one).
        if count(weakened, case.structure) > 0 and count(base, case.structure) == 0:
            return OracleResult.failed(
                "fuzzed structure contradicts positive set verdict"
            )
        outcome = find_counterexample(weakened, base, [case.structure])
        if outcome.found and count(base, outcome.counterexample) == 0:
            return OracleResult.failed(
                "search counterexample contradicts positive set verdict"
            )
    return OracleResult.passed()


@oracle("delta_vs_full", kinds=("mutation",))
def _delta_vs_full(case: FuzzCase) -> OracleResult:
    """Incremental evaluation after every delta ≡ full recount from scratch.

    Replays the case's mutation sequence four ways in lockstep and
    demands bit-identical counts after *every* step:

    * **serial** — a cold ``count`` with the backtracking engine on an
      independently maintained structure (the ground truth);
    * **cached/incremental** — a :class:`~repro.homomorphism.delta.DeltaEvaluator`
      whose cache is migrated/evicted by fingerprints, plus the compiled
      engine on the evolved structure;
    * **batched** — :func:`~repro.homomorphism.batch.count_many` with a
      fresh cache;
    * **service** — the transport-free ``/db``/``/update``/``/evaluate``
      handlers over a :class:`~repro.service.databases.DatabaseRegistry`.

    Fingerprint soundness rides along: after each step the incrementally
    maintained fingerprint vector must equal that of a structure rebuilt
    from scratch.  A mutation made inapplicable by shrinking (e.g. its
    base facts were dropped) raises ``SchemaError`` identically on every
    path and passes vacuously.
    """
    from repro.errors import SchemaError
    from repro.homomorphism.delta import DeltaEvaluator
    from repro.io import delta_to_dict, query_to_dict, structure_to_dict
    from repro.relational.structure import Structure
    from repro.service.databases import DatabaseRegistry
    from repro.service.handlers import parse_db, parse_evaluate, parse_update

    evaluator = DeltaEvaluator(
        case.structure, engine="auto", cache=CountCache()
    )
    registry = DatabaseRegistry(CountCache())
    parse_db(
        {"name": "fuzz", "structure": structure_to_dict(case.structure)},
        None,
        registry,
    ).run()
    query_payload = query_to_dict(case.query)
    full = case.structure
    for step, delta in enumerate(case.mutations):
        try:
            full = full.apply_delta(delta)
        except SchemaError:
            return OracleResult.passed()  # shrunk-invalid; vacuous
        evaluator.apply(delta)
        parse_update(
            {"db": "fuzz", "delta": delta_to_dict(delta)}, None, registry
        ).run()
        rebuilt = Structure(
            full.schema,
            {name: full.facts(name) for name in full.schema.relation_names},
            full.constants,
            full.domain,
        )
        if evaluator.structure != full:
            return OracleResult.failed(
                f"step {step}: incremental structure diverged from "
                f"independently applied delta"
            )
        if (
            evaluator.structure.fingerprint_vector()
            != rebuilt.fingerprint_vector()
        ):
            return OracleResult.failed(
                f"step {step}: incremental fingerprints != recomputed"
            )
        cold = count(case.query, rebuilt, engine="backtracking")
        incremental = evaluator.evaluate(case.query)
        if incremental != cold:
            return OracleResult.failed(
                f"step {step}: incremental={incremental} cold={cold}"
            )
        batched = count_many([(case.query, full)], cache=CountCache())[0]
        if batched != cold:
            return OracleResult.failed(
                f"step {step}: batched={batched} cold={cold}"
            )
        via_compiled = count(case.query, full, engine="compiled")
        if via_compiled != cold:
            return OracleResult.failed(
                f"step {step}: compiled={via_compiled} cold={cold}"
            )
        via_service = parse_evaluate(
            {"query": query_payload, "db": "fuzz"}, CountCache(), registry
        ).run()["count"]
        if via_service != cold:
            return OracleResult.failed(
                f"step {step}: service={via_service} cold={cold}"
            )
    return OracleResult.passed()


@oracle("gadget_equality", kinds=("gadget",))
def _gadget_equality(case: FuzzCase) -> OracleResult:
    """Definition 3 (=): α_s(D) = c·α_b(D) ≠ 0 on the gadget's witness."""
    from repro.core.alpha import alpha_gadget

    gadget = alpha_gadget(case.gadget_c)
    if not gadget.verify_equality():
        value_s, value_b = gadget.witness_counts()
        return OracleResult.failed(
            f"alpha_s(W)={value_s} alpha_b(W)={value_b} "
            f"ratio should be {case.gadget_c}"
        )
    return OracleResult.passed()
