"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`BagCQError`, so
callers can catch a single type at API boundaries.
"""

from __future__ import annotations


class BagCQError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(BagCQError):
    """A relation symbol is unknown, redeclared, or used with a wrong arity."""


class ArityError(SchemaError):
    """A tuple or atom does not match the arity of its relation symbol."""


class ConstantError(BagCQError):
    """A constant is missing an interpretation, or interpretations clash."""


class QueryError(BagCQError):
    """A conjunctive query is malformed."""


class ParseError(QueryError):
    """The textual query syntax could not be parsed."""


class PolynomialError(BagCQError):
    """A polynomial or a Lemma 11 instance is malformed."""


class Lemma11ViolationError(PolynomialError):
    """A pair of polynomials violates one of the side conditions of Lemma 11."""


class ReductionError(BagCQError):
    """A reduction step received input outside its contract."""


class EvaluationError(BagCQError):
    """A query could not be evaluated over a structure."""


class MaterializationError(BagCQError):
    """A factorized query is too large to expand into plain syntax."""


class SearchBudgetExceeded(BagCQError):
    """A semi-decision search procedure ran out of its configured budget."""


class DeadlineExpired(BagCQError):
    """An evaluation was stopped at its deadline (see :mod:`repro.deadline`)."""
