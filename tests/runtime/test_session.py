"""QirSession: the content-hash-keyed plan cache over one runtime."""

import pytest

from repro.llvmir import parse_assembly
from repro.obs.observer import Observer
from repro.obs.snapshot import measure_arms
from repro.runtime import ExecutionPlan, QirRuntime, QirSession
from repro.tools.qir_bench import fastpath_arms
from repro.workloads.qir_programs import bell_qir, counted_loop_qir, ghz_qir


def parse_counters(observer):
    """Count-valued parse.* counters (timings vary run to run)."""
    counters = observer.snapshot().get("counters", {})
    return {
        k: v
        for k, v in counters.items()
        if k.startswith("parse.") and "seconds" not in k
    }


class TestConstruction:
    def test_kwargs_forward_to_a_fresh_runtime(self):
        session = QirSession(seed=7, backend="stabilizer")
        assert session.runtime.backend_name == "stabilizer"

    def test_runtime_and_kwargs_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            QirSession(runtime=QirRuntime(), seed=7)

    def test_cache_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            QirSession(plan_cache_size=0)


class TestPlanCache:
    def test_second_compile_returns_the_cached_plan(self):
        session = QirSession(seed=1)
        text = bell_qir("static")
        first = session.compile(text)
        second = session.compile(text)
        assert first is second
        assert session.cache_stats()["plan"] == {
            "hits": 1, "misses": 1, "size": 1, "capacity": 32,
        }

    def test_distinct_configurations_get_distinct_plans(self):
        session = QirSession(seed=1)
        text = counted_loop_qir(4)
        plain = session.compile(text)
        unrolled = session.compile(text, pipeline="unroll")
        assert plain is not unrolled
        assert session.cache_stats()["plan"]["misses"] == 2
        # Both stay cached under their own keys.
        assert session.compile(text) is plain
        assert session.compile(text, pipeline="unroll") is unrolled

    def test_callable_pipelines_bypass_the_cache(self):
        from repro.passes.pipeline import unroll_pipeline

        session = QirSession(seed=1)
        text = counted_loop_qir(4)
        first = session.compile(text, pipeline=unroll_pipeline)
        second = session.compile(text, pipeline=unroll_pipeline)
        assert first is not second
        stats = session.cache_stats()["plan"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_plans_pass_through(self):
        session = QirSession(seed=1)
        plan = session.compile(bell_qir("static"))
        assert session.compile(plan) is plan

    def test_clear_caches_empties_both(self):
        session = QirSession(seed=1)
        session.compile(bell_qir("static"))
        assert len(session) > 0
        session.clear_caches()
        assert len(session) == 0


class TestCachedExecution:
    def test_second_run_hits_the_plan_cache_without_reparsing(self):
        # The tentpole acceptance check: a second run_shots on the same
        # source records a plan-cache hit and leaves every parse counter
        # exactly where the first run put it.
        observer = Observer()
        session = QirSession(seed=7, observer=observer)
        text = bell_qir("static")

        first = session.run_shots(text, shots=50)
        after_first = parse_counters(observer)
        assert observer.metrics.value("cache.plan.hit", 0) == 0

        second = session.run_shots(text, shots=50)
        after_second = parse_counters(observer)

        assert first.shots == second.shots == 50
        assert observer.metrics.value("cache.plan.hit", 0) >= 1
        assert after_first, "the first run should have recorded parse metrics"
        assert after_second == after_first  # zero parse.* increments

    def test_execute_goes_through_the_same_cache(self):
        session = QirSession(seed=7)
        text = bell_qir("static")
        session.execute(text)
        session.execute(text)
        assert session.cache_stats()["plan"]["hits"] == 1

    def test_cached_plans_replay_identically_to_direct_plans(self):
        text = ghz_qir(3)
        via_session = QirSession(seed=11).run_shots(text, shots=100)
        direct = QirRuntime(seed=11).run_shots(text, shots=100)
        assert via_session.counts == direct.counts

    def test_session_spans_are_traced(self):
        observer = Observer()
        session = QirSession(seed=7, observer=observer)
        session.compile(bell_qir("static"))
        names = [e["name"] for e in observer.tracer.events]
        assert "session.cache_compile" in names


class TestFastpathMeasurementCaching:
    def test_repetitions_do_not_reparse(self):
        # qir-bench's ex5 arms compile once through a QirSession, so the
        # timed repetitions never touch the frontend: the parse counters
        # match exactly one observed parse of the same text.
        observer = Observer()
        rt = QirRuntime(seed=7, observer=observer)
        text = ghz_qir(3)
        measure_arms(*fastpath_arms(rt, text, shots=20), repeats=3, shots=20)

        baseline = Observer()
        parse_assembly(text, observer=baseline)
        assert parse_counters(observer) == parse_counters(baseline)
        assert observer.metrics.value("cache.plan.miss", 0) == 1
