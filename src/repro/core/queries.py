"""Declarative implication queries — the Table 2 framework.

The paper motivates a whole family of real-time statistics over a stream
(Table 2).  This module turns each class into a declarative object that a
:class:`QueryEngine` evaluates while scanning the stream once:

===============================  =============================================
Paper query class                Construction here
===============================  =============================================
Distinct Count                   :class:`DistinctCountQuery`
Implication one-to-one           :meth:`ImplicationQuery.one_to_one`
Implication one-to-many          :meth:`ImplicationQuery.one_to_many`
one-to-one with noise            ``one_to_one(..., min_top_confidence=0.8)``
Complement Implication           ``complement=True`` (non-implication count)
Conditional Implication          ``where=`` predicate on the full tuple
Compound Implication             multi-attribute ``lhs`` (itemsets are tuples)
Complex Implication              :class:`WindowedImplicationQuery` (sliding
                                 windows, on :mod:`repro.windowed`) and
                                 :class:`AggregateQuery` (averages over
                                 itemset populations)
===============================  =============================================

Backends: every query runs either on the **exact** counter (hash tables;
small data, ground truth) or on the **sketch** (NIPS/CI with stochastic
averaging; constrained environments).  The engine evaluates any mix of
registered queries in a single pass.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ..baselines.exact import ExactImplicationCounter
from ..sketch.fm import PCSA
from ..stream.schema import Relation, Schema
from .conditions import ImplicationConditions
from .estimator import ImplicationCountEstimator

__all__ = [
    "ImplicationQuery",
    "DistinctCountQuery",
    "WindowedImplicationQuery",
    "AggregateQuery",
    "QueryEngine",
]

#: A predicate over the full (positional) tuple, used by conditional queries.
RowPredicate = Callable[[Mapping[str, Hashable]], bool]


class ImplicationQuery:
    """``SELECT COUNT(DISTINCT A) FROM R WHERE A implies B`` (Section 3).

    Parameters
    ----------
    lhs / rhs:
        Attribute names forming the itemset sides ``A`` and ``B``; multiple
        LHS attributes give a *compound* implication.
    conditions:
        The ``(K, tau, c, theta)`` conditions.
    where:
        Optional predicate over the attribute-keyed tuple; tuples failing it
        are invisible to this query (a *conditional* implication).
    complement:
        Answer with the non-implication count instead (Table 2's
        "Complement Implication": itemsets with support that fail the
        conditions).
    name:
        Label used in engine reports; defaults to a rendered description.
    """

    def __init__(
        self,
        lhs: Sequence[str],
        rhs: Sequence[str],
        conditions: ImplicationConditions,
        where: RowPredicate | None = None,
        complement: bool = False,
        name: str | None = None,
    ) -> None:
        if not lhs or not rhs:
            raise ValueError("lhs and rhs must each name at least one attribute")
        overlap = set(lhs) & set(rhs)
        if overlap:
            raise ValueError(
                f"lhs and rhs must be disjoint (Section 3 assumes A ∩ B = ∅); "
                f"both contain {sorted(overlap)}"
            )
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)
        self.conditions = conditions
        self.where = where
        self.complement = complement
        self.name = name or self._default_name()

    def _default_name(self) -> str:
        arrow = "-/->" if self.complement else "->"
        lhs = ",".join(self.lhs)
        rhs = ",".join(self.rhs)
        return f"{lhs} {arrow} {rhs} [{self.conditions.describe()}]"

    # Convenience constructors matching the Table 2 vocabulary ----------

    @classmethod
    def one_to_one(
        cls,
        lhs: Sequence[str],
        rhs: Sequence[str],
        min_support: int = 1,
        min_top_confidence: float = 1.0,
        **kwargs,
    ) -> "ImplicationQuery":
        """"How many A are associated with exactly one B" (noise-tolerant
        when ``min_top_confidence < 1``)."""
        conditions = ImplicationConditions(
            max_multiplicity=None if min_top_confidence < 1.0 else 1,
            min_support=min_support,
            top_c=1,
            min_top_confidence=min_top_confidence,
        )
        return cls(lhs, rhs, conditions, **kwargs)

    @classmethod
    def one_to_c(
        cls,
        lhs: Sequence[str],
        rhs: Sequence[str],
        c: int,
        min_top_confidence: float,
        min_support: int = 1,
        max_multiplicity: int | None = None,
        **kwargs,
    ) -> "ImplicationQuery":
        """"How many A appear with at most c B's theta of the time"."""
        conditions = ImplicationConditions(
            max_multiplicity=max_multiplicity,
            min_support=min_support,
            top_c=c,
            min_top_confidence=min_top_confidence,
        )
        return cls(lhs, rhs, conditions, **kwargs)

    @classmethod
    def one_to_many(
        cls,
        lhs: Sequence[str],
        rhs: Sequence[str],
        more_than: int,
        min_support: int = 1,
        **kwargs,
    ) -> "ImplicationQuery":
        """"How many A are associated with *more than* N distinct B's".

        Expressed as the complement of a multiplicity-capped implication:
        the itemsets that violate ``multiplicity <= more_than`` are exactly
        the ones associated with more than ``more_than`` partners.
        """
        if more_than < 1:
            raise ValueError(f"more_than must be >= 1, got {more_than}")
        conditions = ImplicationConditions(
            max_multiplicity=more_than, min_support=min_support
        )
        kwargs.setdefault(
            "name", f"{','.join(lhs)} -> more than {more_than} {','.join(rhs)}"
        )
        return cls(lhs, rhs, conditions, complement=True, **kwargs)


class DistinctCountQuery:
    """Plain ``COUNT(DISTINCT A)`` — the Table 2 "Distinct Count" row."""

    def __init__(
        self,
        lhs: Sequence[str],
        where: RowPredicate | None = None,
        name: str | None = None,
    ) -> None:
        if not lhs:
            raise ValueError("lhs must name at least one attribute")
        self.lhs = tuple(lhs)
        self.where = where
        self.name = name or f"count distinct {','.join(self.lhs)}"


class WindowedImplicationQuery:
    """An implication query over a sliding window of the stream.

    Covers Table 2's "Complex Implication" row (e.g. counts "over a sliding
    window of 1h").  Only available on the sketch backend: the engine runs
    it on a :class:`~repro.windowed.WindowedImplicationEstimator`, which
    rotates ``generations`` pane-disjoint NIPS/CI estimators (Section 3.2)
    and covers the last ``window`` tuples, rounded up to its pane grid.
    The estimator validates both settings at :meth:`QueryEngine.register`
    (``window`` must be a multiple of ``generations``).
    """

    def __init__(
        self,
        query: ImplicationQuery,
        window: int,
        generations: int = 4,
        name: str | None = None,
    ) -> None:
        self.query = query
        self.window = window
        self.generations = generations
        self.name = name or f"{query.name} over last {window} tuples"


class AggregateQuery:
    """An aggregate over an itemset population (Table 2's last row).

    Examples: "the *average number* of sources contacting the destinations
    that violate the fan-in condition", or "the average support of the
    services that imply a single source".  The answer is a statistic, not a
    count; it requires per-itemset detail, so the exact backend uses full
    hash tables and the sketch backend uses a distinct sample
    (:class:`~repro.core.aggregates.SampledImplicationAggregates`).

    Parameters
    ----------
    lhs / rhs / conditions / where:
        As for :class:`ImplicationQuery`.
    statistic:
        ``"average_multiplicity"``, ``"average_support"`` or
        ``"median_support"``.
    population:
        ``"satisfied"``, ``"violated"`` or ``"supported"`` — which itemsets
        the statistic ranges over.
    """

    STATISTICS = ("average_multiplicity", "average_support", "median_support")

    def __init__(
        self,
        lhs: Sequence[str],
        rhs: Sequence[str],
        conditions: ImplicationConditions,
        statistic: str = "average_multiplicity",
        population: str = "satisfied",
        where: RowPredicate | None = None,
        name: str | None = None,
    ) -> None:
        from .aggregates import POPULATIONS

        if not lhs or not rhs:
            raise ValueError("lhs and rhs must each name at least one attribute")
        if statistic not in self.STATISTICS:
            raise ValueError(
                f"statistic must be one of {self.STATISTICS}, got {statistic!r}"
            )
        if population not in POPULATIONS:
            raise ValueError(
                f"population must be one of {POPULATIONS}, got {population!r}"
            )
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)
        self.conditions = conditions
        self.statistic = statistic
        self.population = population
        self.where = where
        self.name = name or (
            f"{statistic}({population} {','.join(self.lhs)} vs "
            f"{','.join(self.rhs)})"
        )


class _BoundQuery:
    """A registered query compiled against a schema and a backend counter."""

    def __init__(self, query, schema: Schema, counter, kind: str) -> None:
        self.query = query
        self.kind = kind
        self.counter = counter
        # Windowed queries wrap an inner ImplicationQuery carrying the
        # attribute lists and the predicate.
        inner = getattr(query, "query", query)
        self.project_lhs = schema.projector(inner.lhs)
        self.project_rhs = (
            schema.projector(inner.rhs) if hasattr(inner, "rhs") else None
        )
        self._schema = schema
        self.where = getattr(inner, "where", None)

    def process(self, row: Sequence[Hashable]) -> None:
        if self.where is not None and not self.where(self._schema.as_dict(row)):
            return
        lhs = self.project_lhs(row)
        if self.kind == "distinct":
            self.counter.add(lhs)
            return
        self.counter.update(lhs, self.project_rhs(row))

    def result(self) -> float:
        if self.kind == "distinct":
            if isinstance(self.counter, _ExactDistinct):
                return float(len(self.counter))
            return self.counter.estimate()
        if self.kind == "aggregate":
            statistic = getattr(self.counter, self.query.statistic)
            return statistic(self.query.population)
        if self.kind == "windowed":
            query = self.query.query
        else:
            query = self.query
        if query.complement:
            return self.counter.nonimplication_count()
        return self.counter.implication_count()


class _ExactDistinct:
    """Exact distinct counter with the sketch ``add``/``estimate`` interface."""

    def __init__(self) -> None:
        self._seen: set = set()

    def add(self, item: Hashable) -> None:
        self._seen.add(item)

    def estimate(self) -> float:
        return float(len(self._seen))

    def __len__(self) -> int:
        return len(self._seen)


class QueryEngine:
    """Evaluate many implication queries in one pass over a stream.

    Parameters
    ----------
    schema:
        The stream schema; queries name attributes of it.
    backend:
        ``"exact"`` (hash tables; ground truth on small data) or
        ``"sketch"`` (NIPS/CI estimators; constrained environments).
    **backend_kwargs:
        Forwarded to :class:`ImplicationCountEstimator` (or, for a
        windowed query, :class:`~repro.windowed.WindowedImplicationEstimator`)
        on the sketch backend (``num_bitmaps``, ``fringe_size``, ``seed``, …).

    >>> engine = QueryEngine(schema)
    >>> engine.register(ImplicationQuery.one_to_one(["destination"], ["source"]))
    >>> engine.process_rows(relation)
    >>> engine.results()            # doctest: +SKIP
    """

    def __init__(self, schema: Schema, backend: str = "exact", **backend_kwargs) -> None:
        if backend not in ("exact", "sketch"):
            raise ValueError(f"backend must be 'exact' or 'sketch', got {backend!r}")
        self.schema = schema
        self.backend = backend
        self.backend_kwargs = backend_kwargs
        self._bound: dict[str, _BoundQuery] = {}
        self.tuples_seen = 0

    def _make_counter(self, conditions: ImplicationConditions):
        if self.backend == "exact":
            return ExactImplicationCounter(conditions)
        return ImplicationCountEstimator(conditions, **self.backend_kwargs)

    def register(
        self, query: ImplicationQuery | DistinctCountQuery | WindowedImplicationQuery
    ) -> str:
        """Register a query; returns its name (the key for :meth:`result`)."""
        if not isinstance(
            query,
            (
                ImplicationQuery,
                DistinctCountQuery,
                WindowedImplicationQuery,
                AggregateQuery,
            ),
        ):
            raise TypeError(f"cannot register query of type {type(query).__name__}")
        if query.name in self._bound:
            raise ValueError(f"a query named {query.name!r} is already registered")
        if isinstance(query, DistinctCountQuery):
            counter = (
                _ExactDistinct()
                if self.backend == "exact"
                else PCSA(seed=self.backend_kwargs.get("seed", 0))
            )
            bound = _BoundQuery(query, self.schema, counter, "distinct")
        elif isinstance(query, WindowedImplicationQuery):
            if self.backend != "sketch":
                raise ValueError(
                    "windowed queries need the sketch backend (estimator "
                    "rotation per Section 3.2); exact sliding windows would "
                    "require storing the window"
                )
            # Imported here: repro.windowed is built on repro.core.
            from ..windowed.estimator import WindowedImplicationEstimator

            counter = WindowedImplicationEstimator(
                query.query.conditions,
                window=query.window,
                generations=query.generations,
                **self.backend_kwargs,
            )
            bound = _BoundQuery(query, self.schema, counter, "windowed")
        elif isinstance(query, AggregateQuery):
            from .aggregates import (
                ExactImplicationAggregates,
                SampledImplicationAggregates,
            )

            if self.backend == "exact":
                counter = ExactImplicationAggregates(query.conditions)
            else:
                counter = SampledImplicationAggregates(
                    query.conditions,
                    seed=self.backend_kwargs.get("seed", 0),
                )
            bound = _BoundQuery(query, self.schema, counter, "aggregate")
        else:
            counter = self._make_counter(query.conditions)
            bound = _BoundQuery(query, self.schema, counter, "implication")
        self._bound[query.name] = bound
        return query.name

    def process_row(self, row: Sequence[Hashable]) -> None:
        """Feed one positional tuple to every registered query."""
        self.tuples_seen += 1
        for bound in self._bound.values():
            bound.process(row)

    def process_rows(self, rows: Iterable[Sequence[Hashable]] | Relation) -> None:
        for row in rows:
            self.process_row(row)

    def process_dicts(self, dicts: Iterable[Mapping[str, Hashable]]) -> None:
        for mapping in dicts:
            self.process_row(self.schema.row_from_mapping(mapping))

    def result(self, name: str) -> float:
        """Current answer of the named query."""
        try:
            return self._bound[name].result()
        except KeyError:
            raise KeyError(
                f"no query named {name!r}; registered: {sorted(self._bound)}"
            ) from None

    def results(self) -> dict[str, float]:
        """Current answers of every registered query."""
        return {name: bound.result() for name, bound in self._bound.items()}

    def counter(self, name: str):
        """The backend counter behind a query (for inspection/tests)."""
        return self._bound[name].counter

    def __repr__(self) -> str:
        return (
            f"QueryEngine(backend={self.backend!r}, "
            f"queries={len(self._bound)}, tuples={self.tuples_seen})"
        )
