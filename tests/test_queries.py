"""Tests for the Table 2 query framework, using the Table 1 toy stream.

Each test reproduces a worked example from the paper's Sections 1, 3.1.2 or
Table 2 with the exact backend, then the sketch backend is smoke-tested for
interface parity.
"""

from __future__ import annotations

import pytest

from repro.core.conditions import ImplicationConditions
from repro.core.queries import (
    DistinctCountQuery,
    ImplicationQuery,
    QueryEngine,
    WindowedImplicationQuery,
)
from repro.datasets.network import table1_relation
from repro.windowed import WindowedImplicationEstimator, windowed_state_digest


@pytest.fixture
def engine() -> QueryEngine:
    return QueryEngine(table1_relation().schema, backend="exact")


def run(engine: QueryEngine, query) -> float:
    name = engine.register(query)
    engine.process_rows(table1_relation())
    return engine.result(name)


class TestTable2Examples:
    def test_distinct_count_sources(self, engine):
        """'How many sources have we seen so far' -> 3."""
        assert run(engine, DistinctCountQuery(["source"])) == 3.0

    def test_one_to_one_destinations(self, engine):
        """'How many destinations are contacted by only one source' -> 2
        (D2 <- S1 and D1 <- S2; Section 1)."""
        query = ImplicationQuery.one_to_one(["destination"], ["source"])
        assert run(engine, query) == 2.0

    def test_noisy_one_to_one_destinations(self, engine):
        """'...by one single source 80% of the time' -> 3 (D3 qualifies)."""
        query = ImplicationQuery.one_to_one(
            ["destination"], ["source"], min_top_confidence=0.8
        )
        assert run(engine, query) == 3.0

    def test_services_single_source(self, engine):
        """'How many services are requested from only one source' -> 2
        (WWW <- S1, FTP <- S2)."""
        query = ImplicationQuery.one_to_one(["service"], ["source"])
        assert run(engine, query) == 2.0

    def test_one_to_many_sources(self, engine):
        """'How many sources contact more than one destination' -> 1 (S1)."""
        query = ImplicationQuery.one_to_many(["source"], ["destination"], more_than=1)
        assert run(engine, query) == 1.0

    def test_complement_not_only_web(self, engine):
        """'How many sources do not use only one service' -> 2 (S1, S2)."""
        query = ImplicationQuery(
            ["source"],
            ["service"],
            ImplicationConditions(max_multiplicity=1, min_support=1),
            complement=True,
        )
        assert run(engine, query) == 2.0

    def test_conditional_morning(self, engine):
        """'How many sources contact only one destination during the
        morning' -> 1 (S2; S1 contacts D2 and D3 in the morning)."""
        query = ImplicationQuery.one_to_one(
            ["source"],
            ["destination"],
            where=lambda row: row["time"] == "Morning",
        )
        assert run(engine, query) == 1.0

    def test_compound_source_service(self, engine):
        """'How many sources contact only one target per service' -> 4
        compound itemsets: (S2,FTP), (S2,P2P), (S1,P2P), (S3,P2P)."""
        query = ImplicationQuery.one_to_one(["source", "service"], ["destination"])
        assert run(engine, query) == 4.0


class TestSection312Example:
    def make_query(self, theta: float, min_support: int = 1) -> ImplicationQuery:
        """'Services used by at most two sources theta of the time', with
        maximum multiplicity five and the given minimum support."""
        return ImplicationQuery.one_to_c(
            ["service"],
            ["source"],
            c=2,
            min_top_confidence=theta,
            min_support=min_support,
            max_multiplicity=5,
        )

    def test_theta_80_gives_two(self, engine):
        """WWW and FTP qualify; P2P's top-2 confidence is 75% < 80%."""
        assert run(engine, self.make_query(0.8)) == 2.0

    def test_theta_75_gives_three(self, engine):
        """Lowering theta to 75% makes P2P valid."""
        assert run(engine, self.make_query(0.75)) == 3.0

    def test_min_support_two_drops_ftp(self, engine):
        """With minimum support 2, (FTP <- S2) is not valid."""
        assert run(engine, self.make_query(0.8, min_support=2)) == 1.0


class TestQueryConstruction:
    def test_lhs_rhs_disjoint(self):
        with pytest.raises(ValueError):
            ImplicationQuery(["a"], ["a"], ImplicationConditions())

    def test_lhs_nonempty(self):
        with pytest.raises(ValueError):
            ImplicationQuery([], ["b"], ImplicationConditions())
        with pytest.raises(ValueError):
            DistinctCountQuery([])

    def test_one_to_many_validation(self):
        with pytest.raises(ValueError):
            ImplicationQuery.one_to_many(["a"], ["b"], more_than=0)

    def test_default_names_are_informative(self):
        query = ImplicationQuery.one_to_one(["destination"], ["source"])
        assert "destination" in query.name
        assert "->" in query.name
        complement = ImplicationQuery(
            ["a"], ["b"], ImplicationConditions(), complement=True
        )
        assert "-/->" in complement.name


class TestEngine:
    def test_duplicate_names_rejected(self, engine):
        engine.register(DistinctCountQuery(["source"], name="dup"))
        with pytest.raises(ValueError):
            engine.register(DistinctCountQuery(["service"], name="dup"))

    def test_unknown_result(self, engine):
        with pytest.raises(KeyError):
            engine.result("missing")

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            QueryEngine(table1_relation().schema, backend="magic")

    def test_unknown_query_type(self, engine):
        with pytest.raises(TypeError):
            engine.register(object())

    def test_results_returns_all(self, engine):
        engine.register(DistinctCountQuery(["source"], name="sources"))
        engine.register(DistinctCountQuery(["destination"], name="destinations"))
        engine.process_rows(table1_relation())
        results = engine.results()
        assert results == {"sources": 3.0, "destinations": 3.0}

    def test_process_dicts(self, engine):
        engine.register(DistinctCountQuery(["source"], name="sources"))
        engine.process_dicts(table1_relation().dicts())
        assert engine.result("sources") == 3.0

    def test_counter_accessor(self, engine):
        name = engine.register(
            ImplicationQuery.one_to_one(["destination"], ["source"])
        )
        engine.process_rows(table1_relation())
        counter = engine.counter(name)
        assert counter.implication_count() == 2.0


class TestSketchBackend:
    def test_runs_all_query_kinds(self):
        engine = QueryEngine(
            table1_relation().schema, backend="sketch", num_bitmaps=16, seed=1
        )
        engine.register(DistinctCountQuery(["source"], name="distinct"))
        engine.register(
            ImplicationQuery.one_to_one(
                ["destination"], ["source"], name="one-to-one"
            )
        )
        engine.register(
            WindowedImplicationQuery(
                ImplicationQuery.one_to_one(["service"], ["source"]),
                window=100,
                name="windowed",
            )
        )
        for _ in range(20):
            engine.process_rows(table1_relation())
        results = engine.results()
        assert set(results) == {"distinct", "one-to-one", "windowed"}
        assert all(value >= 0 for value in results.values())

    def test_windowed_requires_sketch(self, engine):
        with pytest.raises(ValueError, match="sketch backend"):
            engine.register(
                WindowedImplicationQuery(
                    ImplicationQuery.one_to_one(["service"], ["source"]),
                    window=12,
                )
            )

    @pytest.mark.parametrize("complement", [False, True])
    def test_windowed_query_equals_direct_windowed_estimator(self, complement):
        """The Complex Implication class runs on repro.windowed: its state
        is the one a directly built WindowedImplicationEstimator reaches on
        the same projected pairs, on and off the pane grid."""
        kwargs = {"num_bitmaps": 16, "seed": 1}
        relation = table1_relation()
        implication = ImplicationQuery.one_to_one(
            ["destination"], ["source"], complement=complement
        )
        engine = QueryEngine(relation.schema, backend="sketch", **kwargs)
        name = engine.register(
            WindowedImplicationQuery(implication, window=16, generations=4)
        )
        direct = WindowedImplicationEstimator(
            implication.conditions, window=16, generations=4, **kwargs
        )
        project_lhs = relation.schema.projector(["destination"])
        project_rhs = relation.schema.projector(["source"])
        rows = list(relation) * 6
        for cursor in (40, 43):  # step 4: on the pane grid, then off it
            for row in rows[engine.tuples_seen : cursor]:
                engine.process_row(row)
                direct.update(project_lhs(row), project_rhs(row))
            counter = engine.counter(name)
            assert windowed_state_digest(counter) == windowed_state_digest(direct)
            want = (
                direct.nonimplication_count()
                if complement
                else direct.implication_count()
            )
            assert engine.result(name) == want
        assert direct.tuples_in_window == 19  # 16 plus the partial pane

    def test_windowed_query_takes_generations_not_panes(self):
        query = ImplicationQuery.one_to_one(["service"], ["source"])
        with pytest.raises(TypeError):
            WindowedImplicationQuery(query, window=16, panes=4)

    def test_window_must_be_a_multiple_of_generations(self):
        engine = QueryEngine(table1_relation().schema, backend="sketch")
        with pytest.raises(ValueError, match="multiple of generations"):
            engine.register(
                WindowedImplicationQuery(
                    ImplicationQuery.one_to_one(["service"], ["source"]),
                    window=10,
                    generations=4,
                )
            )

    def test_sketch_tracks_exact_on_larger_stream(self):
        """On a bigger synthetic relation the sketch should land near the
        exact answer (single trial; generous bound)."""
        from repro.stream.schema import Relation, Schema

        schema = Schema(["x", "y"])
        rows = [(f"x{i}", f"y{i}") for i in range(2000)]
        relation = Relation(schema, rows)
        exact = QueryEngine(schema, backend="exact")
        sketch = QueryEngine(schema, backend="sketch", seed=3)
        for engine_ in (exact, sketch):
            engine_.register(ImplicationQuery.one_to_one(["x"], ["y"], name="q"))
            engine_.process_rows(relation)
        assert exact.result("q") == 2000.0
        assert abs(sketch.result("q") - 2000.0) / 2000.0 < 0.35
