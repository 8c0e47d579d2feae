"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.deadline import check
from repro.homomorphism import count_homomorphisms_acyclic, is_homomorphism
from repro.polynomials import Lemma11Instance, Monomial
from repro.relational import Schema, Structure
from repro.service.handlers import ENDPOINTS, ParsedRequest


@pytest.fixture
def edge_schema() -> Schema:
    return Schema.from_arities({"E": 2})


@pytest.fixture
def mixed_schema() -> Schema:
    return Schema.from_arities({"E": 2, "U": 1, "T": 3})


@pytest.fixture
def triangle(edge_schema: Schema) -> Structure:
    """A directed 3-cycle."""
    return Structure(edge_schema, {"E": [(0, 1), (1, 2), (2, 0)]})


@pytest.fixture
def loop_and_edge(edge_schema: Schema) -> Structure:
    """A self-loop plus one extra edge — the smallest interesting mix."""
    return Structure(edge_schema, {"E": [(0, 0), (0, 1)]})


@pytest.fixture
def minimal_lemma11() -> Lemma11Instance:
    """The smallest legal Lemma 11 instance: c = 2, P_s = P_b = x₁."""
    return Lemma11Instance(
        c=2,
        monomials=(Monomial.of(1),),
        s_coefficients=(1,),
        b_coefficients=(1,),
    )


@pytest.fixture
def richer_lemma11() -> Lemma11Instance:
    """Two monomials, two variables, non-trivial coefficients."""
    return Lemma11Instance(
        c=3,
        monomials=(Monomial.of(1, 2), Monomial.of(1, 1)),
        s_coefficients=(2, 1),
        b_coefficients=(3, 4),
    )


def brute_force_count(query, structure) -> int:
    """Reference counter: try every assignment (exponential, tests only)."""
    variables = sorted(query.variables)
    domain = sorted(structure.domain, key=repr)
    total = 0
    for combo in itertools.product(domain, repeat=len(variables)):
        if is_homomorphism(dict(zip(variables, combo)), query, structure):
            total += 1
    return total


def yannakakis_count(query, structure) -> int:
    """Reference counter: the Yannakakis pass per connected component
    (inequality-free, α-acyclic components only)."""
    total = 1
    for component in query.connected_components():
        total *= count_homomorphisms_acyclic(component, structure)
    return total


def wait_for(condition, timeout_s: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class Gate:
    """A service endpoint whose evaluations wait at a gate.

    ``run()`` sets :attr:`entered`, then loops on the deadline check
    (:func:`repro.deadline.check`) until :attr:`opened` is set, then
    runs the real evaluation.  A test holds a worker for as long as it
    likes without timing a slow query, and a flight whose deadline
    passes at the gate is cancelled exactly as a running count is.
    """

    def __init__(self, monkeypatch, endpoint: str) -> None:
        self.entered = threading.Event()
        self.opened = threading.Event()
        parse = ENDPOINTS[endpoint]

        def gated(body, cache, databases=None) -> ParsedRequest:
            parsed = parse(body, cache, databases)

            def run() -> dict:
                self.entered.set()
                while not self.opened.wait(0.001):
                    check()
                return parsed.run()

            return ParsedRequest(parsed.endpoint, parsed.key, run)

        monkeypatch.setitem(ENDPOINTS, endpoint, gated)


@pytest.fixture
def gate(monkeypatch):
    """``gate(endpoint)`` holds that endpoint's evaluations at a
    :class:`Gate`; every gate opens at teardown, so no worker stays held."""
    gates: list[Gate] = []

    def hold(endpoint: str = "evaluate") -> Gate:
        gates.append(Gate(monkeypatch, endpoint))
        return gates[-1]

    yield hold
    for held in gates:
        held.opened.set()
