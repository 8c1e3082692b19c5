"""Sweep sharding: scenario parameter grids compiled into worker-sized chunks.

The scenario registry (:mod:`repro.experiments.runner`) would otherwise treat
a whole scenario as the unit of parallel work, so one 256-point sweep would
pin a single core while the rest of the pool idled.  This module makes the
*sweep point* the unit instead:

* a :class:`SweepSpec` attached to a scenario declares which builder keyword
  carries the parameter grid (channel strengths, ``(n, r, t)`` tuples, path
  lengths, topology descriptors) and how the default grid is derived;
* :func:`resolve_chunk_size` + :func:`partition_points` compile the grid into
  static, contiguous, equal-count chunks sized to the pool width
  (:func:`effective_cpu_count` unless the caller fixes it);
* :func:`run_sweep_chunk` — the process-pool entry point — rebuilds the rows
  of one chunk through the scenario's ordinary builder, on a worker-local
  :class:`~repro.engine.core.Engine` that is reused (cache and all) across
  every chunk the worker receives;
* :func:`init_sweep_worker` resets each pool worker's engine and mints the
  per-worker token under which :func:`merge_worker_stats` merges the
  workers' operator-cache counters into one auditable stats block.

Because chunks are evaluated by the same builder that serial runs call, and
chunks are contiguous grid slices, a sharded sweep returns exactly the rows
of the serial sweep; that parity is what the regression tests pin down.
"""

from __future__ import annotations

import inspect
import itertools
import os
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.exceptions import ProtocolError
from repro.experiments.records import ExperimentRow

__all__ = [
    "CHUNKS_PER_WORKER",
    "MIN_POINTS_PER_CHUNK",
    "ChunkResult",
    "SweepSpec",
    "effective_cpu_count",
    "init_sweep_worker",
    "merge_worker_stats",
    "next_pool_generation",
    "partition_points",
    "resolve_chunk_size",
    "run_scenario_task",
    "run_sweep_chunk",
    "worker_token",
]

#: Chunks dispatched per worker; a few chunks per worker keeps the pool
#: load-balanced without drowning it in pickling overhead.
CHUNKS_PER_WORKER = 4

#: Minimum points per chunk: tiny sweeps split into 1-point chunks would pay
#: more in per-chunk pool overhead (pickling, dispatch, result transport)
#: than the points cost to evaluate.
MIN_POINTS_PER_CHUNK = 2


@dataclass(frozen=True)
class SweepSpec:
    """Declares a scenario's parameter grid for sharded execution.

    Attributes
    ----------
    grid_param:
        Name of the builder keyword that carries the grid (``"strengths"``,
        ``"parameter_grid"``, ``"networks"``, ...).  Dispatch works by calling
        the scenario's builder with this keyword bound to a chunk of points.
    grid:
        Module-level callable returning the default grid.  It receives the
        subset of the scenario's resolved keyword arguments its signature
        accepts, so defaults may depend on other parameters (e.g. the
        tree-soundness network zoo depends on ``num_terminals``).
    """

    grid_param: str
    grid: Callable[..., Sequence[Any]]

    def points(self, kwargs: Mapping[str, Any]) -> List[Any]:
        """The grid points this scenario will sweep under ``kwargs``.

        An explicit (non-``None``) grid in ``kwargs`` wins; otherwise the
        declared default-grid callable produces it.
        """
        explicit = kwargs.get(self.grid_param)
        if explicit is not None:
            return list(explicit)
        return list(self.grid(**_accepted_kwargs(self.grid, kwargs)))


def _accepted_kwargs(function: Callable, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """The subset of ``kwargs`` that ``function``'s signature accepts."""
    parameters = inspect.signature(function).parameters
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in parameters}


def partition_points(points: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Contiguous chunks of at most ``chunk_size`` points, in grid order."""
    if chunk_size < 1:
        raise ProtocolError("sweep chunk size must be at least 1")
    points = list(points)
    return [points[start : start + chunk_size] for start in range(0, len(points), chunk_size)]


def resolve_chunk_size(num_points: int, num_workers: int) -> int:
    """The chunk size of a sweep of ``num_points`` on ``num_workers`` workers.

    Aims at :data:`CHUNKS_PER_WORKER` chunks per worker so a slow chunk
    cannot serialize the tail of the sweep, but never drops below
    :data:`MIN_POINTS_PER_CHUNK` points (clamped to the grid size).
    """
    target_chunks = max(int(num_workers), 1) * CHUNKS_PER_WORKER
    floor = min(MIN_POINTS_PER_CHUNK, max(int(num_points), 1))
    return max(floor, -(-num_points // target_chunks))


def effective_cpu_count() -> int:
    """CPUs actually *available to this process*, not merely installed.

    Prefers ``os.process_cpu_count()`` (3.13+), then the scheduler-affinity
    mask (which reflects cgroup/cpuset limits on Linux CI runners), and only
    then ``os.cpu_count()`` — the machine-wide count that over-reports
    inside containers.  The runner sizes its pool (and so its chunk plan)
    from this count when no ``max_workers`` is given.
    """
    counter = getattr(os, "process_cpu_count", None)  # 3.13+
    if counter is not None:
        count = counter()
        if count:
            return int(count)
    affinity = getattr(os, "sched_getaffinity", None)  # cgroup/cpuset-aware
    if affinity is not None:
        try:
            count = len(affinity(0))
        except OSError:  # pragma: no cover - platform-dependent
            count = 0
        if count:
            return count
    return os.cpu_count() or 1


# -- worker tokens ------------------------------------------------------------

#: Monotonic pool-generation counter (parent process): each pool draws one,
#: so worker tokens stay unique across pools even when the OS reuses pids.
_POOL_GENERATIONS = itertools.count(1)

#: This process's worker token, set by :func:`init_sweep_worker`.
_WORKER_TOKEN: Optional[str] = None


def next_pool_generation() -> int:
    """Mint a fresh pool generation (pass via ``initargs`` to the pool)."""
    return next(_POOL_GENERATIONS)


def worker_token() -> str:
    """The evaluating worker's token (``g{generation}-p{pid}``).

    Falls back to a generation-0 token outside a pool (e.g. a chunk entry
    point called directly), which still separates the caller from any real
    pool worker.
    """
    if _WORKER_TOKEN is not None:
        return _WORKER_TOKEN
    return f"g0-p{os.getpid()}"


def init_sweep_worker(generation: Optional[int] = None) -> None:
    """Process-pool initializer: fresh default engine + a per-worker token.

    Forked workers inherit the parent's engine object (and its counters);
    resetting here guarantees "one engine + one cache per worker", counted
    from zero, so merged stats describe only work the pool actually did.
    The ``generation + pid`` token keys the worker's cache snapshots: keying
    by bare pid would let a second pool (or a respawned worker) that reuses
    a pid collide with another worker's counters under
    :func:`merge_worker_stats`'s most-advanced-snapshot rule.  Without a
    generation a random component stands in, so even then workers of
    different pools cannot alias.
    """
    global _WORKER_TOKEN
    marker = f"g{generation}" if generation is not None else f"u{uuid.uuid4().hex[:8]}"
    _WORKER_TOKEN = f"{marker}-p{os.getpid()}"
    from repro.engine.core import set_default_engine

    set_default_engine(None)


# -- pool entry points ----------------------------------------------------------


@dataclass(frozen=True)
class ChunkResult:
    """Rows of one evaluated chunk plus the evaluating worker's cache counters.

    ``cache_stats`` is a cumulative snapshot of the worker's default-engine
    :class:`~repro.engine.cache.OperatorCache` taken *after* the chunk ran;
    snapshots from the same ``worker_id`` supersede each other (the counters
    only grow), which is what :func:`merge_worker_stats` relies on.
    ``seconds`` is the in-worker wall time of the builder call (pool
    dispatch overhead excluded).
    """

    rows: List[ExperimentRow]
    worker_id: str
    cache_stats: Dict[str, Any]
    seconds: float = 0.0


def run_sweep_chunk(
    name: str, points: Sequence[Any], overrides: Optional[Mapping[str, Any]] = None
) -> ChunkResult:
    """Evaluate one chunk of a swept scenario (the process-pool entry point).

    The chunk rides the scenario's ordinary builder with the grid keyword
    restricted to ``points``, evaluating on the worker's process-wide engine
    so repeated chunks in one worker share the operator cache.
    """
    from repro.experiments.runner import get_scenario

    scenario = get_scenario(name)
    if scenario.sweep is None:
        raise ProtocolError(f"scenario {name!r} declares no sweep grid")
    kwargs = {**dict(scenario.kwargs), **dict(overrides or {})}
    kwargs[scenario.sweep.grid_param] = list(points)
    return _timed_rows(scenario.builder, kwargs)


def run_scenario_task(name: str, overrides: Optional[Mapping[str, Any]] = None) -> ChunkResult:
    """Evaluate a whole (unswept or single-chunk) scenario as one pool task."""
    from repro.experiments.runner import get_scenario

    return _timed_rows(get_scenario(name).run, dict(overrides or {}))


def _timed_rows(build: Callable[..., Any], kwargs: Dict[str, Any]) -> ChunkResult:
    from repro.engine.core import default_engine

    start = time.perf_counter()
    rows = list(build(**kwargs))
    seconds = time.perf_counter() - start
    return ChunkResult(
        rows=rows,
        worker_id=worker_token(),
        cache_stats=default_engine().cache.stats().as_dict(),
        seconds=seconds,
    )


def _progress(stats: Mapping[str, Any]) -> int:
    return int(stats.get("hits", 0)) + int(stats.get("misses", 0))


#: Counter keys summed across workers by :func:`merge_worker_stats`.
_MERGED_COUNTERS = ("hits", "misses", "entries", "evictions")


def merge_worker_stats(results: Sequence[ChunkResult]) -> Dict[str, Any]:
    """Merge per-chunk cache snapshots into one per-pool stats block.

    Snapshots are cumulative per worker (keyed by the generation+pid token,
    so pid reuse across pools cannot alias two workers), so only the most
    advanced snapshot of each worker counts; the merged block sums those
    finals across workers and therefore satisfies ``hits + misses >= entries``.
    """
    latest: Dict[str, Mapping[str, Any]] = {}
    for result in results:
        current = latest.get(result.worker_id)
        if current is None or _progress(result.cache_stats) >= _progress(current):
            latest[result.worker_id] = result.cache_stats
    merged: Dict[str, Any] = {key: 0 for key in _MERGED_COUNTERS}
    for stats in latest.values():
        for key in _MERGED_COUNTERS:
            merged[key] += int(stats.get(key, 0))
    total = merged["hits"] + merged["misses"]
    merged["hit_rate"] = merged["hits"] / total if total else 0.0
    merged["workers"] = len(latest)
    return merged
