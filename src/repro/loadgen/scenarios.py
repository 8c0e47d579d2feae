"""Named, seeded traffic scenarios: pure functions of ``(name, seed)``.

Every scenario is a tuple of :class:`ScheduledRequest` values built from
the fuzzing corpus's pure per-index generator
(:func:`repro.qa.generators.case_at`), so a scenario replays bit-for-bit
from its seed — the same property the qa corpus relies on, reused here
for load.  No wall-clock offsets: replay is *closed-loop* (each worker
sends its next request when the previous one answers), which keeps
results machine-speed-relative instead of schedule-relative and needs no
timer coordination across workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.alpha import alpha_gadget
from repro.core.cycliq import cycliq
from repro.qa.generators import FuzzCase, case_at
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Variable
from repro.relational.structure import Structure

__all__ = [
    "SCENARIO_NAMES",
    "Scenario",
    "ScheduledRequest",
    "build_scenario",
]


@dataclass(frozen=True)
class ScheduledRequest:
    """One request of a scenario: payload, owner, and deadline."""

    index: int
    tenant: int
    kind: str  # "cq" | "ucq" | "contain"
    #: The evaluation database; ``None`` for containment requests,
    #: which are pure query-vs-query decisions.
    structure: Structure | None = None
    query: ConjunctiveQuery | None = None
    disjuncts: tuple[tuple[ConjunctiveQuery, int], ...] = ()
    #: Containment only: the bigger side (``query`` is the smaller side).
    against: ConjunctiveQuery | None = None
    deadline_ms: int | None = None


@dataclass(frozen=True)
class Scenario:
    """A named traffic shape: its workers and its full schedule."""

    name: str
    seed: int
    clients: int
    schedule: tuple[ScheduledRequest, ...]

    @property
    def requests(self) -> int:
        return len(self.schedule)


def _evaluable_cases(seed: int, count: int, start: int = 0) -> list[FuzzCase]:
    """The first ``count`` cq/ucq cases of the stream (gadget kind has no
    standalone structure, so it is skipped here and used explicitly by
    the adversarial scenario)."""
    cases: list[FuzzCase] = []
    index = start
    while len(cases) < count:
        case = case_at(index, seed)
        if case.kind in ("cq", "ucq"):
            cases.append(case)
        index += 1
    return cases


def _request_from_case(
    index: int, tenant: int, case: FuzzCase, deadline_ms: int | None = None
) -> ScheduledRequest:
    assert case.structure is not None
    if case.kind == "ucq":
        return ScheduledRequest(
            index=index,
            tenant=tenant,
            kind="ucq",
            structure=case.structure,
            disjuncts=case.disjuncts,
            deadline_ms=deadline_ms,
        )
    assert case.query is not None
    return ScheduledRequest(
        index=index,
        tenant=tenant,
        kind="cq",
        structure=case.structure,
        query=case.query,
        deadline_ms=deadline_ms,
    )


def _zipf_weights(size: int, exponent: float = 1.1) -> list[float]:
    return [1.0 / (rank**exponent) for rank in range(1, size + 1)]


def _zipf_duplicates(seed: int, requests: int, clients: int) -> Scenario:
    """A small pool sampled rank-weighted: most traffic hits few queries.

    The shape the count cache and single-flight coalescing exist for —
    expect high ``service.coalesced`` + cache hits, low p95.
    """
    rng = random.Random(seed)
    pool = _evaluable_cases(seed, 24)
    weights = _zipf_weights(len(pool))
    schedule = tuple(
        _request_from_case(index, tenant=index % clients, case=case)
        for index, case in enumerate(
            rng.choices(pool, weights=weights, k=requests)
        )
    )
    return Scenario("zipf-duplicates", seed, clients, schedule)


def _case_fingerprint(case: FuzzCase) -> str:
    if case.kind == "ucq":
        payload = " | ".join(
            f"{multiplicity}*{disjunct}" for disjunct, multiplicity in case.disjuncts
        )
    else:
        payload = str(case.query)
    return f"{case.kind}:{payload}"


def _multi_tenant(seed: int, requests: int, clients: int) -> Scenario:
    """Each tenant owns a disjoint pool; traffic interleaves round-robin.

    Tenants never share queries (colliding cases from the per-tenant
    streams are skipped), so coalescing cannot help across them — this
    measures fair progress under heterogeneous interleaving.
    """
    claimed: set[str] = set()
    pools: list[list[FuzzCase]] = []
    for tenant in range(clients):
        pool: list[FuzzCase] = []
        index = 0
        while len(pool) < 12:
            case = case_at(index, (seed << 8) ^ tenant)
            index += 1
            if case.kind not in ("cq", "ucq"):
                continue
            fingerprint = _case_fingerprint(case)
            if fingerprint in claimed:
                continue
            claimed.add(fingerprint)
            pool.append(case)
        pools.append(pool)
    rngs = [random.Random((seed << 16) ^ tenant) for tenant in range(clients)]
    schedule = tuple(
        _request_from_case(
            index,
            tenant=index % clients,
            case=rngs[index % clients].choice(pools[index % clients]),
        )
        for index in range(requests)
    )
    return Scenario("multi-tenant", seed, clients, schedule)


def _adversarial_tail(seed: int, requests: int, clients: int) -> Scenario:
    """Mostly cheap traffic with a deliberately heavy tail.

    Every 5th request is adversarial: a ternary CYCLIQ on a dense
    structure or an α-gadget pair evaluated on its own witness.  The tail is what
    stretches p95/p99 away from p50.
    """
    rng = random.Random(seed)
    cheap = _evaluable_cases(seed, 20)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    cyc = cycliq("T", (x, y, z))
    # A dense ternary structure: every T-tuple over a 4-element domain.
    domain = tuple(range(4))
    dense = Structure(
        cheap[0].structure.schema,
        {
            "T": {
                (a, b, c) for a in domain for b in domain for c in domain
            }
        },
        {},
        domain,
    )
    gadgets = [alpha_gadget(c) for c in (2, 3, 4)]
    schedule = []
    for index in range(requests):
        tenant = index % clients
        if index % 5 == 4:
            if (index // 5) % 2 == 0:
                schedule.append(
                    ScheduledRequest(
                        index=index,
                        tenant=tenant,
                        kind="cq",
                        structure=dense,
                        query=cyc,
                    )
                )
            else:
                gadget = gadgets[(index // 10) % len(gadgets)]
                schedule.append(
                    ScheduledRequest(
                        index=index,
                        tenant=tenant,
                        kind="cq",
                        structure=gadget.witness,
                        query=gadget.query_b,
                    )
                )
        else:
            schedule.append(
                _request_from_case(index, tenant, rng.choice(cheap))
            )
    return Scenario("adversarial-tail", seed, clients, tuple(schedule))


#: The deadline mix of the ``deadline-spread`` scenario, in ms.  The
#: 1 ms entry is effectively unmeetable for a cold evaluation — by
#: design, so the scenario always exercises the 504 path.
_DEADLINE_CHOICES_MS = (1, 10, 50, 200, 30_000)


def _deadline_spread(seed: int, requests: int, clients: int) -> Scenario:
    """The zipf pool replayed under a deterministic spread of deadlines."""
    rng = random.Random(seed)
    pool = _evaluable_cases(seed, 16)
    weights = _zipf_weights(len(pool))
    schedule = tuple(
        _request_from_case(
            index,
            tenant=index % clients,
            case=case,
            deadline_ms=_DEADLINE_CHOICES_MS[index % len(_DEADLINE_CHOICES_MS)],
        )
        for index, case in enumerate(
            rng.choices(pool, weights=weights, k=requests)
        )
    )
    return Scenario("deadline-spread", seed, clients, schedule)


def _contain(seed: int, requests: int, clients: int) -> Scenario:
    """Set-semantics containment traffic (``/contain``), duplicate-heavy.

    Pairs drawn zipf-weighted from a small pool of CQ sides: every 3rd
    pair is an identity (``q ⊆ q``, always positive, witness returned),
    the rest are cross pairs whose verdict the Chandra–Merlin engine
    decides.  Duplicates exercise the ContainmentCache and per-verdict
    single-flight exactly the way zipf-duplicates exercises the count
    cache.
    """
    rng = random.Random(seed)
    # Chandra-Merlin only decides inequality-free CQs, and a cross pair
    # may put one side's constants outside the other's canonical
    # structure — so the pool is constant- and inequality-free.
    pool = [
        case.query
        for case in _evaluable_cases(seed, 60)
        if case.kind == "cq"
        and not case.query.has_inequalities()
        and not case.query.constants
    ][:12]
    weights = _zipf_weights(len(pool))
    schedule = []
    for index in range(requests):
        phi_s = rng.choices(pool, weights=weights, k=1)[0]
        if index % 3 == 2:
            phi_b = phi_s
        else:
            phi_b = rng.choices(pool, weights=weights, k=1)[0]
        schedule.append(
            ScheduledRequest(
                index=index,
                tenant=index % clients,
                kind="contain",
                query=phi_s,
                against=phi_b,
            )
        )
    return Scenario("contain", seed, clients, tuple(schedule))


_BUILDERS = {
    "zipf-duplicates": _zipf_duplicates,
    "multi-tenant": _multi_tenant,
    "adversarial-tail": _adversarial_tail,
    "deadline-spread": _deadline_spread,
    "contain": _contain,
}

SCENARIO_NAMES = tuple(_BUILDERS)


def build_scenario(
    name: str, seed: int = 0, requests: int = 120, clients: int = 4
) -> Scenario:
    """The named scenario for ``seed`` — a pure function of its arguments."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    return builder(seed, requests, clients)
