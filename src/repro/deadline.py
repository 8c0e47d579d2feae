"""Cooperative deadlines: a running count stops itself when it expires.

Python threads cannot be interrupted from outside, so an evaluation is
bounded only if it checks its own deadline.  The engines call
:func:`check` where they already loop: every :data:`CHECK_EVERY`
backtracking nodes or candidate bindings of a compiled chain, once per
Yannakakis pass, once per chunk of tree-decomposition bag assignments
and once per counterexample candidate.  The check is a context-variable read, so a
caller that installs no flight pays almost nothing and is never stopped.

A *flight* is any object with a ``deadline`` (a :func:`time.monotonic`
instant, read live on every check, so it may be extended while the
evaluation runs) and an ``expire()`` method, installed in
:data:`FLIGHT`.  A check that finds the deadline passed calls
``expire()``, which raises :class:`~repro.errors.DeadlineExpired` or
returns when it finds the deadline extended after all.  The evaluation
server installs each request's flight, which expires at the latest
deadline among its waiters.

A stopped count is never cached: the count cache stores a component's
count only once it is complete, and the compiled engine drops an
artifact it built for the stopped count (see
:func:`repro.homomorphism.compiled.count_homomorphisms_compiled`).
"""

from __future__ import annotations

from contextvars import ContextVar
from time import monotonic

__all__ = ["CHECK_EVERY", "FLIGHT", "check"]

#: Units of work between two checks: backtracking nodes, scanned facts
#: and enumerated domain values, or candidate bindings of a compiled
#: chain.  A check reads a context variable and the clock; at this
#: spacing a stopped count overshoots its deadline by a few
#: milliseconds (EXPERIMENTS.md, E27).
CHECK_EVERY = 1024

#: The flight the running evaluation serves, or ``None`` (never stopped).
FLIGHT: ContextVar = ContextVar("repro_deadline_flight", default=None)


def check() -> None:
    """Stop the running evaluation if its flight's deadline has passed."""
    flight = FLIGHT.get()
    if flight is not None and monotonic() > flight.deadline:
        flight.expire()

