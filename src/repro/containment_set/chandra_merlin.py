"""CQ ⊆ CQ under set semantics: the Chandra–Merlin homomorphism test.

``φ_s ⊆_set φ_b`` — every database satisfying ``φ_s`` satisfies ``φ_b``
— holds iff ``Hom(φ_b, canonical(φ_s)) ≠ ∅`` [Chandra & Merlin 1977].
The test here is phrased as a *count*, ``φ_b(canonical(φ_s)) > 0``, so
the question dispatches through :func:`repro.homomorphism.engine.count`
and any of the three engines (``backtracking``, ``treewidth``,
``compiled``) or the planner-driven ``auto`` can answer it.
The verdict is engine-independent; so is the witness, which is always
the first homomorphism of the deterministic backtracking enumeration.

Two artifacts make a verdict checkable:

* **Witness** (positive verdict): a homomorphism ``φ_b → canonical(φ_s)``,
  i.e. a map from ``φ_b``'s variables to ``φ_s``'s terms.
* **Absence certificate** (negative verdict): ``canonical(φ_s)`` itself,
  on which ``φ_s`` counts ``≥ 1`` (the identity embedding) while ``φ_b``
  counts ``0``.  The same structure is therefore also a *bag*-semantics
  counterexample — the soundness bridge the
  :mod:`repro.decision.search` prescreen stands on.

Error classes match direct engine evaluation: queries with inequalities
raise :class:`~repro.errors.QueryError` (the classical test does not
apply to them), unknown engine names raise
:class:`~repro.errors.EvaluationError` before any work happens, and a
``φ_b`` constant that ``canonical(φ_s)`` does not interpret raises
:class:`~repro.errors.ConstantError` exactly as ``count`` would.
"""

from __future__ import annotations

from repro._value import Value
from repro.containment_set.cache import ContainmentCache, containment_cache_key
from repro.errors import QueryError
from repro.homomorphism.backtracking import enumerate_homomorphisms
from repro.homomorphism.cache import CountCache
from repro.homomorphism.engine import _resolve_engine, count
from repro.io import structure_to_dict
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Term, Variable
from repro.relational.structure import Structure

__all__ = [
    "AbsenceCertificate",
    "CQContainment",
    "cq_containment",
    "cq_contained",
    "encode_witness",
]


def _encode_term(term) -> dict:
    kind = "const" if isinstance(term, Constant) else "var"
    return {"kind": kind, "name": term.name}


def encode_witness(witness: tuple[tuple[Variable, Term], ...] | None):
    """The wire form of a witness: variable name → encoded target term."""
    if witness is None:
        return None
    return {
        variable.name: _encode_term(target) for variable, target in witness
    }


class AbsenceCertificate(Value):
    """Evidence that ``φ_s ⊄ φ_b``: a database separating the two.

    ``structure`` is ``canonical(φ_s)``; ``lhs = φ_s(structure) ≥ 1`` and
    ``rhs = φ_b(structure) = 0``, so the certificate refutes *bag*
    containment (any ``multiplier ≥ 1``, ``additive ≤ 0``) as well.
    """

    __slots__ = ("structure", "lhs", "rhs")

    structure: Structure
    lhs: int
    rhs: int

    def to_dict(self) -> dict:
        return {
            "structure": structure_to_dict(self.structure),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class CQContainment(Value):
    """One answered containment question, with its checkable evidence."""

    __slots__ = ("contained", "engine", "witness", "certificate")

    contained: bool
    engine: str
    witness: tuple[tuple[Variable, Term], ...] | None
    certificate: AbsenceCertificate | None

    def witness_mapping(self) -> dict[Variable, Term] | None:
        return dict(self.witness) if self.witness is not None else None

    def to_dict(self) -> dict:
        return {
            "contained": self.contained,
            "engine": self.engine,
            "witness": encode_witness(self.witness),
            "certificate": (
                self.certificate.to_dict()
                if self.certificate is not None
                else None
            ),
        }


def _require_plain_cq(query, side: str) -> ConjunctiveQuery:
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError(
            f"set-semantics containment needs plain conjunctive queries; "
            f"{side} is {type(query).__name__}"
        )
    if query.has_inequalities():
        raise QueryError(
            f"the Chandra-Merlin test applies to CQs without inequalities; "
            f"{side} has {query.inequality_count}"
        )
    return query


def _first_homomorphism(
    phi_b: ConjunctiveQuery, canonical: Structure
) -> tuple[tuple[Variable, Term], ...]:
    mapping = next(enumerate_homomorphisms(phi_b, canonical))
    return tuple(
        sorted(mapping.items(), key=lambda item: item[0].name)
    )


def cq_containment(
    phi_s: ConjunctiveQuery,
    phi_b: ConjunctiveQuery,
    engine: str = "auto",
    cache: ContainmentCache | None = None,
    count_cache: CountCache | None = None,
    want_witness: bool = True,
) -> CQContainment:
    """Decide ``φ_s ⊆_set φ_b`` and package the evidence.

    ``engine`` names the counting engine for the homomorphism test
    (``"auto"`` routes through the planner).  ``cache`` reuses verdicts
    across α-equivalent pairs; ``count_cache`` additionally shares the
    underlying component counts.  ``want_witness=False`` skips the
    witness enumeration on positive verdicts — the prescreen's choice,
    which only needs the boolean.

    Records a ``contain.cq`` span and ``contain.*`` counters under an
    active :func:`repro.obs.observe` scope.
    """
    _resolve_engine(engine)
    phi_s = _require_plain_cq(phi_s, "phi_s")
    phi_b = _require_plain_cq(phi_b, "phi_b")

    with span("contain.cq", engine=engine) as current:
        obs_metrics.add("contain.cq_tests")
        key = containment_cache_key(phi_s, phi_b, engine)
        cached = cache.lookup(key) if cache is not None else None
        canonical = phi_s.canonical_structure()
        if cached is not None:
            contained, phi_s_count = cached
        else:
            obs_metrics.add("contain.hom_tests")
            contained = (
                count(phi_b, canonical, engine=engine, cache=count_cache) > 0
            )
            # The certificate price φ_s(canonical(φ_s)) is α-invariant,
            # so it rides in the cache entry; witnesses do not (they name
            # the original variables) and are re-enumerated per call.
            phi_s_count = (
                count(phi_s, canonical, engine=engine, cache=count_cache)
                if not contained
                else None
            )
            if cache is not None:
                cache.store(key, (contained, phi_s_count))

        if contained:
            obs_metrics.add("contain.verdicts.contained")
            witness = (
                _first_homomorphism(phi_b, canonical) if want_witness else None
            )
            current.set(contained=True)
            return CQContainment(
                contained=True, engine=engine, witness=witness, certificate=None
            )
        obs_metrics.add("contain.verdicts.not_contained")
        current.set(contained=False)
        return CQContainment(
            contained=False,
            engine=engine,
            witness=None,
            certificate=AbsenceCertificate(
                structure=canonical, lhs=phi_s_count, rhs=0
            ),
        )


def cq_contained(
    phi_s: ConjunctiveQuery,
    phi_b: ConjunctiveQuery,
    engine: str = "auto",
    cache: ContainmentCache | None = None,
    count_cache: CountCache | None = None,
) -> bool:
    """Boolean form of :func:`cq_containment` (no witness enumeration)."""
    return cq_containment(
        phi_s,
        phi_b,
        engine=engine,
        cache=cache,
        count_cache=count_cache,
        want_witness=False,
    ).contained
