"""Fitting the planner's cost scales from measured evaluations.

The cost model compares engines in abstract "fact visits"; what ``auto``
actually needs is for ``scale_e × visits_e`` to rank engines by wall
time.  This module measures that mapping on the seeded case stream the
fuzzer and load generator already share: every cq case is evaluated by
*every* safe engine (forced, not planned), pairing the engine's
structural visit estimate with its measured seconds, and
:func:`repro.planner.fit_constants` turns the samples into per-engine
scales (ratio of totals, normalized to the backtracking engine).

Determinism: the *samples'* visit sides and the case stream are pure
functions of the seed; the seconds are machine-dependent, which is the
point — ``bagcq calibrate`` fits constants for the machine it runs on.
The round-trip guarantee tested in ``tests/test_calibrate.py`` is that a
fitted :class:`~repro.planner.CostConstants` survives
``to_dict → JSON → from_dict`` bit-for-bit and that plan selection under
the reloaded constants equals selection under the fitted ones.
"""

from __future__ import annotations

import time

from repro.homomorphism.engine import count
from repro.planner import CostConstants, analyze_component, fit_constants
from repro.planner.cost import eligible_engines, estimate_visits
from repro.qa.generators import case_at

__all__ = ["calibrate", "collect_samples"]


def collect_samples(
    case_count: int = 40, seed: int = 0, repeat: int = 3
) -> list[tuple[str, float, float]]:
    """``(engine, visits, seconds)`` samples over the seeded case stream.

    Each case contributes one sample per engine that is safe for *every*
    connected component (a forced engine runs whole-query).  ``repeat``
    evaluations amortize timer granularity; visits are per single
    evaluation, so seconds are divided back down.
    """
    if case_count < 1:
        raise ValueError(f"case_count must be >= 1, got {case_count}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    samples: list[tuple[str, float, float]] = []
    index = 0
    collected = 0
    while collected < case_count:
        case = case_at(index, seed)
        index += 1
        if case.kind != "cq" or case.query is None or case.structure is None:
            continue
        collected += 1
        components = case.query.connected_components()
        profiles = [
            analyze_component(component) for component in components
        ]
        safe: set[str] | None = None
        for component, profile in zip(components, profiles):
            engines = set(
                eligible_engines(component, profile, case.structure)
            )
            safe = engines if safe is None else safe & engines
        for engine in sorted(safe or ()):
            visits = sum(
                estimate_visits(engine, component, profile, case.structure)
                for component, profile in zip(components, profiles)
            )
            started = time.perf_counter()
            for _ in range(repeat):
                count(case.query, case.structure, engine=engine)
            seconds = (time.perf_counter() - started) / repeat
            samples.append((engine, visits, seconds))
    return samples


def calibrate(
    case_count: int = 40,
    seed: int = 0,
    repeat: int = 3,
    base: CostConstants | None = None,
) -> CostConstants:
    """Fitted cost constants for this machine (scales only; shapes kept)."""
    return fit_constants(collect_samples(case_count, seed, repeat), base)
