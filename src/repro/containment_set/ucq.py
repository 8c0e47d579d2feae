"""UCQ ⊆ UCQ under set semantics: the all/any reduction over CQ pairs.

Sagiv–Yannakakis: a union is set-contained in a union iff *every*
disjunct of the left side is contained in *some* disjunct of the right —
``all(any(cq ⊆ cq' for cq' in U₂) for cq in U₁)``.  (Completeness is the
canonical-database argument again: ``canonical(q₁)`` satisfies ``U₁``,
so it must satisfy ``U₂``, i.e. some ``q₂`` maps into it.)

The inner ``any`` is short-circuited in *planner cost order*: for each
left disjunct the candidate containers are sorted by the estimated cost
of their homomorphism test against ``canonical(q₁)`` (via
:func:`repro.planner.plan`), so cheap positive answers are found before
expensive ones are attempted.  Candidates skipped by an early positive
answer are counted in ``contain.ucq.short_circuits``.

Disjunct multiplicities are irrelevant under set semantics — a disjunct
contributes iff its multiplicity is positive — so zero-multiplicity
disjuncts are dropped from both sides before the reduction.
"""

from __future__ import annotations

from typing import Sequence

from repro._value import Value
from repro.containment_set.cache import ContainmentCache
from repro.containment_set.chandra_merlin import (
    AbsenceCertificate,
    cq_containment,
    encode_witness,
)
from repro.errors import ConstantError, QueryError
from repro.homomorphism.cache import CountCache
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Term, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries

__all__ = ["DisjunctCoverage", "UCQContainment", "ucq_containment", "ucq_contained"]


class DisjunctCoverage(Value):
    """How one left disjunct fared: which right disjunct covers it, if any."""

    __slots__ = ("disjunct", "container", "witness")

    disjunct: int
    container: int | None
    witness: tuple[tuple[Variable, Term], ...] | None

    @property
    def covered(self) -> bool:
        return self.container is not None

    def to_dict(self) -> dict:
        return {
            "disjunct": self.disjunct,
            "container": self.container,
            "witness": encode_witness(self.witness),
        }


class UCQContainment(Value):
    """The full coverage matrix of one UCQ ⊆ UCQ question."""

    __slots__ = ("contained", "engine", "coverage", "certificate")

    contained: bool
    engine: str
    coverage: tuple[DisjunctCoverage, ...]
    certificate: AbsenceCertificate | None

    def to_dict(self) -> dict:
        return {
            "contained": self.contained,
            "engine": self.engine,
            "coverage": [entry.to_dict() for entry in self.coverage],
            "certificate": (
                self.certificate.to_dict()
                if self.certificate is not None
                else None
            ),
        }


def _disjunct_queries(side, name: str) -> list[ConjunctiveQuery]:
    """The positively-weighted disjuncts of a UCQ/CQ/sequence, in order."""
    if isinstance(side, UnionOfConjunctiveQueries):
        return [query for query, multiplicity in side.disjuncts if multiplicity > 0]
    if isinstance(side, ConjunctiveQuery):
        return [side]
    if isinstance(side, (list, tuple)):
        queries = list(side)
        if not all(isinstance(query, ConjunctiveQuery) for query in queries):
            raise QueryError(
                f"{name} must contain only conjunctive queries"
            )
        return queries
    raise QueryError(
        f"{name} must be a UCQ, a CQ, or a sequence of CQs; "
        f"got {type(side).__name__}"
    )


def _cost_order(
    containee: ConjunctiveQuery, containers: Sequence[ConjunctiveQuery]
) -> list[int]:
    """Container indices, cheapest homomorphism test first.

    The estimate is the planner's cost of evaluating each container on
    ``canonical(containee)`` — exactly the work the Chandra–Merlin test
    performs.  Ties (and unplannable containers) keep input order, so
    the chosen container — hence the reported witness — is deterministic
    and engine-independent.
    """
    from repro.planner import plan

    canonical = containee.canonical_structure()
    estimates = []
    for index, container in enumerate(containers):
        try:
            estimate = plan(container, canonical).total_cost
        except Exception:  # noqa: BLE001 — cost order is a heuristic only
            estimate = float("inf")
        estimates.append((estimate, index))
    return [index for _, index in sorted(estimates)]


def ucq_containment(
    left,
    right,
    engine: str = "auto",
    cache: ContainmentCache | None = None,
    count_cache: CountCache | None = None,
    want_witness: bool = True,
) -> UCQContainment:
    """Decide ``left ⊆_set right`` for unions of conjunctive queries.

    Accepts :class:`UnionOfConjunctiveQueries`, a plain CQ (a singleton
    union), or a sequence of CQs on either side.  Every left disjunct is
    reported with the right disjunct covering it (and the witness
    homomorphism, unless ``want_witness=False``); the first uncovered
    disjunct supplies the absence certificate — its canonical database
    satisfies ``left`` but no disjunct of ``right``.
    """
    containees = _disjunct_queries(left, "left")
    containers = _disjunct_queries(right, "right")

    with span(
        "contain.ucq",
        engine=engine,
        left_disjuncts=len(containees),
        right_disjuncts=len(containers),
    ) as current:
        obs_metrics.add("contain.ucq_tests")
        coverage: list[DisjunctCoverage] = []
        certificate: AbsenceCertificate | None = None
        for position, containee in enumerate(containees):
            order = _cost_order(containee, containers)
            found: DisjunctCoverage | None = None
            last: AbsenceCertificate | None = None
            for rank, index in enumerate(order):
                obs_metrics.add("contain.ucq.pairs_tested")
                try:
                    verdict = cq_containment(
                        containee,
                        containers[index],
                        engine=engine,
                        cache=cache,
                        count_cache=count_cache,
                        want_witness=want_witness,
                    )
                except ConstantError:
                    # The container names a constant canonical(containee)
                    # does not interpret, so no homomorphism can preserve
                    # it: this container cannot cover the disjunct.  The
                    # CQ-level API keeps the strict error (parity with
                    # direct evaluation); here another container may
                    # still answer the union-level question.
                    obs_metrics.add("contain.ucq.constant_skips")
                    continue
                if verdict.contained:
                    obs_metrics.add(
                        "contain.ucq.short_circuits", len(order) - rank - 1
                    )
                    found = DisjunctCoverage(
                        disjunct=position,
                        container=index,
                        witness=verdict.witness,
                    )
                    break
                last = verdict.certificate
            if found is not None:
                coverage.append(found)
                continue
            coverage.append(
                DisjunctCoverage(disjunct=position, container=None, witness=None)
            )
            if certificate is None:
                # Every container failed on canonical(containee), so the
                # canonical database itself separates the unions.  With
                # no containers at all the certificate is priced directly.
                certificate = last if last is not None else _direct_certificate(
                    containee, engine, count_cache
                )
        contained = all(entry.covered for entry in coverage)
        obs_metrics.add(
            "contain.verdicts.ucq_contained"
            if contained
            else "contain.verdicts.ucq_not_contained"
        )
        current.set(contained=contained)
        return UCQContainment(
            contained=contained,
            engine=engine,
            coverage=tuple(coverage),
            certificate=None if contained else certificate,
        )


def _direct_certificate(
    containee: ConjunctiveQuery, engine: str, count_cache
) -> AbsenceCertificate:
    from repro.homomorphism.engine import count

    canonical = containee.canonical_structure()
    return AbsenceCertificate(
        structure=canonical,
        lhs=count(containee, canonical, engine=engine, cache=count_cache),
        rhs=0,
    )


def ucq_contained(
    left,
    right,
    engine: str = "auto",
    cache: ContainmentCache | None = None,
    count_cache: CountCache | None = None,
) -> bool:
    """Boolean form of :func:`ucq_containment` (no witness enumeration)."""
    return ucq_containment(
        left,
        right,
        engine=engine,
        cache=cache,
        count_cache=count_cache,
        want_witness=False,
    ).contained
