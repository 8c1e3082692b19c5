"""Per-scenario checks of the runner's pooled dispatch path and its chunk plan.

The pooled path is planning (``resolve_chunk_size`` from the pool width,
``partition_points``), submission (sanitizer probe, ``pool.submit``),
consumption (``iter_chunk_events``) and grid-order reassembly.  These tests
drive all of it for every registered scenario and several pool widths with
an in-process executor swapped in for ``ProcessPoolExecutor``, so each
(scenario, width) pair is its own case without paying for a process pool
per case; ``test_experiment_runner.py`` runs the same registry through a
real pool.
"""

import pickle
from concurrent.futures import Executor, Future

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.records import ExperimentRow
from repro.experiments.runner import (
    ExperimentRunner,
    PartialScenarioResult,
    ScenarioFailure,
    available_scenarios,
    failed_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.experiments.streaming import ChunkCollector, ChunkTask, iter_chunk_events
from repro.experiments.sweep import (
    CHUNKS_PER_WORKER,
    MIN_POINTS_PER_CHUNK,
    ChunkResult,
    SweepSpec,
    init_sweep_worker,
    partition_points,
    resolve_chunk_size,
    run_scenario_task,
    run_sweep_chunk,
)

SCENARIOS = available_scenarios()
SWEPT_SCENARIOS = [name for name in SCENARIOS if get_scenario(name).sweep is not None]
POOL_WIDTHS = (1, 2, 4)


class InlineExecutor(Executor):
    """Runs each submitted call at once in this process; returns settled futures.

    Stands in for ``ProcessPoolExecutor`` (same constructor keywords).  The
    worker initializer is recorded, not run: there is no separate worker
    process whose engine it could reset.
    """

    instances: list = []

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.submitted: list = []
        InlineExecutor.instances.append(self)

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append((fn, args))
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        return None


@pytest.fixture()
def inline_pool(monkeypatch):
    InlineExecutor.instances = []
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", InlineExecutor)
    return InlineExecutor.instances


_SERIAL_ROWS: dict = {}


def serial_rows(name):
    """The scenario's serial rows, computed once per test session."""
    if name not in _SERIAL_ROWS:
        _SERIAL_ROWS[name] = run_scenario(name)
    return _SERIAL_ROWS[name]


def planned_tasks(name, width):
    """How many pool tasks the runner submits for ``name`` on ``width`` workers."""
    scenario = get_scenario(name)
    if scenario.sweep is None:
        return 1
    points = scenario.grid_points()
    return max(len(partition_points(points, resolve_chunk_size(len(points), width))), 1)


@pytest.mark.parametrize("width", POOL_WIDTHS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_pooled_rows_match_serial(inline_pool, name, width):
    events = []
    runner = ExperimentRunner([name], parallel=True, max_workers=width, progress=events.append)
    results = runner.run()
    expected = serial_rows(name)
    assert results[name] == expected
    assert pickle.dumps(results[name]) == pickle.dumps(expected)
    assert runner.render(results) == ExperimentRunner([name]).render({name: expected})

    # One pool of the requested width, seeded with a pool generation.
    (pool,) = inline_pool
    assert pool.max_workers == width
    assert pool.initializer is init_sweep_worker
    assert len(pool.initargs) == 1 and pool.initargs[0] >= 1

    # Multi-chunk sweeps go chunk by chunk; everything else is one task.
    tasks = planned_tasks(name, width)
    entries = {entry for entry, _ in pool.submitted}
    assert len(pool.submitted) == tasks
    assert entries == ({run_sweep_chunk} if tasks > 1 else {run_scenario_task})

    # One event per task, with a run-wide completion counter.
    assert [event.completed for event in events] == list(range(1, tasks + 1))
    assert all(event.ok and event.total == tasks for event in events)
    assert sorted(event.chunk_index for event in events) == list(range(tasks))
    assert sum(event.num_rows for event in events) == len(expected)
    assert runner.cache_stats["workers"] == 1


@pytest.mark.parametrize("name", SWEPT_SCENARIOS)
def test_every_grid_point_evaluates_on_its_own(name):
    """Single-point chunks concatenate to the serial rows, so any plan is safe."""
    rows = []
    for point in get_scenario(name).grid_points():
        result = run_sweep_chunk(name, [point])
        assert isinstance(result, ChunkResult)
        rows.extend(result.rows)
    assert rows == serial_rows(name)


@pytest.mark.parametrize("width", POOL_WIDTHS)
@pytest.mark.parametrize("num_points", [1, 2, 3, 7, 8, 9, 33, 256])
def test_static_plan_covers_the_grid_in_few_even_chunks(num_points, width):
    size = resolve_chunk_size(num_points, width)
    chunks = partition_points(range(num_points), size)
    # Contiguous, in grid order, nothing lost or repeated.
    assert [point for chunk in chunks for point in chunk] == list(range(num_points))
    # Every chunk but the last is exactly ``size`` points; the last is non-empty.
    assert all(len(chunk) == size for chunk in chunks[:-1])
    assert 1 <= len(chunks[-1]) <= size
    # At most CHUNKS_PER_WORKER chunks per worker, none below the floor...
    assert len(chunks) <= width * CHUNKS_PER_WORKER
    assert size >= min(MIN_POINTS_PER_CHUNK, num_points)
    # ...and the smallest size that satisfies both.
    if size > 1:
        smaller = size - 1
        assert (
            smaller < min(MIN_POINTS_PER_CHUNK, num_points)
            or len(partition_points(range(num_points), smaller)) > width * CHUNKS_PER_WORKER
        )


# -- planning failures and reassembly -------------------------------------------


def _broken_grid():
    raise RuntimeError("grid cannot be built")


def _echo_sweep(values=None):
    rows = []
    for value in values or ():
        if value == "poison":
            raise RuntimeError(f"poisoned value {value!r}")
        rows.append(ExperimentRow("echo", str(value), {"value": value}))
    return rows


@pytest.fixture()
def broken_grid_scenario():
    register_scenario(
        "dispatch-broken-grid",
        _echo_sweep,
        title="Broken grid",
        sweep=SweepSpec("values", _broken_grid),
    )
    try:
        yield "dispatch-broken-grid"
    finally:
        runner_module._REGISTRY.pop("dispatch-broken-grid", None)


def test_planning_failure_fails_only_its_scenario(inline_pool, broken_grid_scenario):
    names = [broken_grid_scenario, "table1"]
    results = ExperimentRunner(names, parallel=True, max_workers=2).run()
    assert list(results) == names
    failure = results[broken_grid_scenario]
    assert isinstance(failure, ScenarioFailure)
    assert "RuntimeError: grid cannot be built" in failure.error
    assert results["table1"] == serial_rows("table1")
    assert failed_scenarios(results) == [broken_grid_scenario]
    # Nothing of the broken scenario reached the pool.
    (pool,) = inline_pool
    assert all(args[0] == "table1" for _, args in pool.submitted)


def test_overrides_reach_planning_and_every_chunk(inline_pool):
    strengths = tuple(0.05 * i for i in range(9))
    overrides = {"noise-robustness-path": {"strengths": strengths}}
    runner = ExperimentRunner(
        ["noise-robustness-path"], parallel=True, max_workers=2, overrides=overrides
    )
    results = runner.run()
    assert results["noise-robustness-path"] == run_scenario(
        "noise-robustness-path", strengths=strengths
    )
    (pool,) = inline_pool
    # 9 points on 2 workers -> 2-point chunks, each carrying the overrides.
    assert [len(args[1]) for _, args in pool.submitted] == [2, 2, 2, 2, 1]
    assert all(args[2] == overrides["noise-robustness-path"] for _, args in pool.submitted)


def _settled(value=None, error=None):
    future: Future = Future()
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(value)
    return future


def _chunk(labels, worker="g1-p1", hits=0, misses=0, entries=0):
    return ChunkResult(
        rows=[ExperimentRow("demo", label, {}) for label in labels],
        worker_id=worker,
        cache_stats={"hits": hits, "misses": misses, "entries": entries, "evictions": 0},
    )


def test_collector_reassembles_in_chunk_order():
    tasks = [
        ChunkTask(_settled(_chunk(["c"])), "demo", 2, 3, 1),
        ChunkTask(_settled(_chunk(["a"])), "demo", 0, 3, 1),
        ChunkTask(_settled(_chunk(["b"])), "demo", 1, 3, 1),
    ]
    collector = ChunkCollector(3)
    for event in iter_chunk_events(tasks):
        collector.record(event)
    assert [row.label for row in collector.rows()] == ["a", "b", "c"]
    assert collector.failures == []


def test_cache_delta_is_relative_to_the_workers_previous_chunk():
    pending: Future = Future()
    tasks = [
        ChunkTask(_settled(_chunk(["a"], hits=1, misses=4, entries=4)), "demo", 0, 3, 1),
        ChunkTask(pending, "demo", 1, 3, 1),
        ChunkTask(_settled(_chunk(["c"], "g1-p2", hits=2, misses=3, entries=3)), "demo", 2, 3, 1),
    ]

    def settle_second(event):
        # Worker g1-p1 finishes its second chunk only after its first one.
        if event.chunk_index == 0:
            pending.set_result(_chunk(["b"], hits=6, misses=5, entries=5))

    events = {event.chunk_index: event for event in iter_chunk_events(tasks, settle_second)}
    assert events[1].completed == 3
    assert events[0].cache_delta == {"hits": 1, "misses": 4, "entries": 4}
    assert events[1].cache_delta == {"hits": 5, "misses": 1, "entries": 1}
    assert events[2].cache_delta == {"hits": 2, "misses": 3, "entries": 3}


def test_raising_chunk_becomes_a_failure_event():
    tasks = [
        ChunkTask(_settled(_chunk(["a"])), "demo", 0, 2, 1),
        ChunkTask(_settled(error=ValueError("bad point")), "demo", 1, 2, 4),
    ]
    seen = []
    events = list(iter_chunk_events(tasks, progress=seen.append))
    assert seen == events
    (failed,) = [event for event in events if not event.ok]
    assert failed.num_rows == 0 and failed.worker_id == ""
    assert failed.failure.chunk_index == 1
    assert failed.failure.num_points == 4
    assert failed.failure.error == "ValueError: bad point"
    assert "ValueError" in failed.failure.traceback


def test_failed_chunks_leave_a_partial_result(inline_pool, broken_grid_scenario):
    # An explicit grid replaces the broken default; its third value raises.
    overrides = {broken_grid_scenario: {"values": ["a", "b", "poison", "d"]}}
    results = ExperimentRunner(
        [broken_grid_scenario], parallel=True, max_workers=2, overrides=overrides
    ).run()
    partial = results[broken_grid_scenario]
    assert isinstance(partial, PartialScenarioResult)
    assert [row.label for row in partial.rows] == ["a", "b"]
    assert [failure.chunk_index for failure in partial.failures] == [1]
    assert "RuntimeError: poisoned value" in partial.failures[0].error
