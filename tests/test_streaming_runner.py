"""Tests for the runner's pooled path: chunk-level completion and failure.

Builders live at module level so the forked pool workers can resolve their
registered scenarios; the fixtures register/unregister them around each test.
Grids are sized so that the static plan (``resolve_chunk_size`` on two or
four workers) yields 2-point chunks.
"""

import io
import os
import time

import pytest

import repro.experiments.runner as runner_module
import repro.experiments.sweep as sweep_module
from repro.experiments.records import ExperimentRow
from repro.experiments.runner import (
    ExperimentRunner,
    PartialScenarioResult,
    ScenarioFailure,
    failed_scenarios,
    register_scenario,
    run_scenario,
)
from repro.experiments.streaming import ChunkEvent, ChunkFailure, PrintProgressListener
from repro.experiments.sweep import (
    ChunkResult,
    SweepSpec,
    effective_cpu_count,
    init_sweep_worker,
    merge_worker_stats,
    next_pool_generation,
    worker_token,
)
from repro.experiments.table1 import table1_rows


def _staggered_grid():
    return [8, 7, 6, 5, 4, 3, 2, 1]


def _staggered_sweep(delays=None):
    """Sleeps longest on the *first* grid points, so later chunks finish first."""
    values = list(delays) if delays is not None else _staggered_grid()
    rows = []
    for value in values:
        time.sleep(0.01 * value)
        rows.append(ExperimentRow("staggered", f"delay-{value}", {"value": value}))
    return rows


def _poison_grid():
    return ["a", "b", "poison", "c", "d", "e"]


def _poisoned_sweep(values=None):
    resolved = list(values) if values is not None else _poison_grid()
    rows = []
    for value in resolved:
        if value == "poison":
            raise RuntimeError(f"poisoned point {value!r}")
        rows.append(ExperimentRow("poisoned", value, {"value": value}))
    return rows


def _all_poison_grid():
    return ["poison"] * 4


def _unregister(*names):
    for name in names:
        runner_module._REGISTRY.pop(name, None)


@pytest.fixture()
def staggered_scenario():
    register_scenario(
        "streaming-staggered",
        _staggered_sweep,
        title="Staggered delays",
        sweep=SweepSpec("delays", _staggered_grid),
    )
    try:
        yield "streaming-staggered"
    finally:
        _unregister("streaming-staggered")


@pytest.fixture()
def poisoned_scenario():
    register_scenario(
        "streaming-poisoned",
        _poisoned_sweep,
        title="Poisoned sweep",
        sweep=SweepSpec("values", _poison_grid),
    )
    try:
        yield "streaming-poisoned"
    finally:
        _unregister("streaming-poisoned")


@pytest.fixture()
def all_poison_scenario():
    register_scenario(
        "streaming-all-poison",
        _poisoned_sweep,
        title="All chunks poisoned",
        sweep=SweepSpec("values", _all_poison_grid),
        values=None,
    )
    try:
        yield "streaming-all-poison"
    finally:
        _unregister("streaming-all-poison")


class TestCompletionOrderIndependence:
    """Rows must land in grid order no matter when their chunks finish."""

    def test_rows_reassemble_in_grid_order(self, staggered_scenario):
        events = []
        runner = ExperimentRunner(
            [staggered_scenario], parallel=True, max_workers=4, progress=events.append
        )
        results = runner.run()
        assert results[staggered_scenario] == run_scenario(staggered_scenario)
        assert [row.label for row in results[staggered_scenario]] == [
            f"delay-{value}" for value in _staggered_grid()
        ]
        # One event per chunk, with a monotone run-wide completion counter.
        assert len(events) == 4
        assert [event.completed for event in events] == [1, 2, 3, 4]
        assert all(event.total == 4 and event.ok for event in events)
        assert {event.chunk_index for event in events} == {0, 1, 2, 3}


class TestChunkFailureIsolation:
    def test_partial_failure_keeps_sibling_rows(self, poisoned_scenario):
        runner = ExperimentRunner(
            [poisoned_scenario, "table1"], parallel=True, max_workers=2
        )
        results = runner.run()
        partial = results[poisoned_scenario]
        assert isinstance(partial, PartialScenarioResult)
        assert [row.label for row in partial.rows] == ["a", "b", "d", "e"]
        assert len(partial.failures) == 1
        failure = partial.failures[0]
        assert isinstance(failure, ChunkFailure)
        assert failure.chunk_index == 1
        assert failure.num_chunks == 3
        assert failure.num_points == 2
        assert "RuntimeError: poisoned point" in failure.error
        # The healthy sibling scenario is untouched.
        assert results["table1"] == table1_rows()
        assert failed_scenarios(results) == [poisoned_scenario]
        # Cache stats merge the *surviving* chunks' work, not nothing.
        assert runner.cache_stats["workers"] >= 1

    def test_partial_failure_renders_rows_and_failed_marker(self, poisoned_scenario):
        runner = ExperimentRunner([poisoned_scenario], parallel=True, max_workers=2)
        text = runner.render()
        assert "FAILED: chunk 2/3: RuntimeError" in text
        assert "a" in text and "e" in text  # surviving rows still rendered

    def test_all_chunks_failed_degrades_to_scenario_failure(self, all_poison_scenario):
        runner = ExperimentRunner([all_poison_scenario], parallel=True, max_workers=2)
        results = runner.run()
        failure = results[all_poison_scenario]
        assert isinstance(failure, ScenarioFailure)
        assert "RuntimeError: poisoned point" in failure.error
        assert len(failure.chunk_failures) == 2
        assert failed_scenarios(results) == [all_poison_scenario]


class TestWorkerTokens:
    """Snapshots key by generation+pid so pid reuse cannot drop counters."""

    def test_merge_distinguishes_pid_reuse_across_pools(self):
        first = ChunkResult(
            rows=[],
            worker_id="g1-p100",
            cache_stats={"hits": 5, "misses": 5, "entries": 3, "evictions": 0},
        )
        # Same pid, later pool generation, *less* progress: bare-pid keying
        # would drop one of the two under the >= rule.
        second = ChunkResult(
            rows=[],
            worker_id="g2-p100",
            cache_stats={"hits": 2, "misses": 1, "entries": 1, "evictions": 0},
        )
        merged = merge_worker_stats([first, second])
        assert merged["workers"] == 2
        assert merged["hits"] == 7
        assert merged["misses"] == 6
        assert merged["entries"] == 4

    def test_init_sweep_worker_mints_generation_token(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_WORKER_TOKEN", None)
        init_sweep_worker(7)
        assert worker_token() == f"g7-p{os.getpid()}"

    def test_init_sweep_worker_without_generation_is_random(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_WORKER_TOKEN", None)
        init_sweep_worker()
        first = worker_token()
        init_sweep_worker()
        assert first.startswith("u") and first != worker_token()

    def test_worker_token_falls_back_outside_pools(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_WORKER_TOKEN", None)
        assert worker_token() == f"g0-p{os.getpid()}"

    def test_pool_generations_are_unique(self):
        assert next_pool_generation() != next_pool_generation()


class TestPoolSizePlanning:
    """Chunk planning must follow the pool's width, not os.cpu_count()."""

    @staticmethod
    def _spy_plan(monkeypatch):
        seen = {}
        original = ExperimentRunner._plan

        def spy(self, scenario, width):
            seen["width"] = width
            return original(self, scenario, width)

        monkeypatch.setattr(ExperimentRunner, "_plan", spy)
        return seen

    def test_chunk_planning_follows_actual_pool_width(self, monkeypatch):
        seen = self._spy_plan(monkeypatch)
        runner = ExperimentRunner(["table1"], parallel=True, max_workers=2)
        results = runner.run()
        assert results["table1"] == table1_rows()
        assert seen["width"] == 2

    def test_default_width_is_the_available_cpu_count(self, monkeypatch):
        seen = self._spy_plan(monkeypatch)
        monkeypatch.setattr(runner_module, "effective_cpu_count", lambda: 3)
        results = ExperimentRunner(["table1"], parallel=True).run()
        assert results["table1"] == table1_rows()
        assert seen["width"] == 3


class TestCpuDetection:
    """The pool width must not trust os.cpu_count() on cgroup-limited hosts."""

    def test_effective_count_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 5, raising=False)
        assert effective_cpu_count() == 5

    def test_effective_count_falls_back_to_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert effective_cpu_count() == 3

    def test_effective_count_last_resort_is_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert effective_cpu_count() == 7


class TestProgressListeners:
    def test_print_listener_formats_completed_and_failed_chunks(self):
        stream = io.StringIO()
        listener = PrintProgressListener(stream)
        listener.on_chunk(
            ChunkEvent(
                scenario="demo",
                chunk_index=0,
                num_chunks=2,
                num_rows=3,
                worker_id="g1-p9",
                cache_delta={"hits": 2, "misses": 1},
                completed=1,
                total=4,
            )
        )
        listener.on_chunk(
            ChunkEvent(
                scenario="demo",
                chunk_index=1,
                num_chunks=2,
                num_rows=0,
                worker_id="",
                failure=ChunkFailure(
                    scenario="demo",
                    chunk_index=1,
                    num_chunks=2,
                    num_points=1,
                    error="RuntimeError: boom",
                ),
                completed=2,
                total=4,
            )
        )
        text = stream.getvalue()
        assert "[1/4] demo chunk 1/2: 3 rows (worker g1-p9, +2 hits, +1 misses)" in text
        assert "[2/4] demo chunk 2/2: FAILED RuntimeError: boom" in text

    def test_bare_callable_receives_events_with_cache_deltas(self, staggered_scenario):
        events = []
        ExperimentRunner(
            [staggered_scenario], parallel=True, max_workers=2, progress=events.append
        ).run()
        assert len(events) == 4
        for event in events:
            assert event.scenario == staggered_scenario
            assert set(event.cache_delta) == {"hits", "misses", "entries"}
            assert event.seconds > 0.0
