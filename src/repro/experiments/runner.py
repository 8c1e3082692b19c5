"""Unified experiment runner: a scenario registry with sharded parallelism.

Every table and figure of the paper is registered here as a named *scenario*
(a module-level callable returning :class:`ExperimentRow` records plus a
display title).  Scenarios that are parameter sweeps additionally declare a
:class:`~repro.experiments.sweep.SweepSpec` naming their grid, which lets the
:class:`ExperimentRunner` parallelize at *sweep-point* granularity: grids are
split into static contiguous chunks, the chunks run on one
``ProcessPoolExecutor`` whose workers each keep one engine (and operator
cache) alive for their lifetime, and rows are reassembled in grid order — so
a single 256-point sweep spreads over the pool instead of pinning one core.

Failures are isolated per *chunk* on the pooled path: a crashing chunk is
recorded as a :class:`~repro.experiments.streaming.ChunkFailure` while its
siblings keep their rows (a :class:`PartialScenarioResult`); a scenario with
no surviving chunks — or a serial crash — yields a :class:`ScenarioFailure`
entry (rendered as a failed section) instead of aborting the whole report.
Chunk futures are consumed as they complete, with one progress event per
settled chunk.

Usage::

    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(["table1", "table2", "crossover"])
    results = runner.run()                 # OrderedDict name -> rows
    print(runner.render(results))          # formatted text tables

    ExperimentRunner(parallel=True).run()  # every scenario, sharded pool
"""

from __future__ import annotations

import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ProtocolError
from repro.experiments.streaming import (
    ChunkCollector,
    ChunkEvent,
    ChunkFailure,
    ChunkTask,
    Progress,
    iter_chunk_events,
)
from repro.experiments.crossover import (
    crossover_default_lengths,
    crossover_sweep,
    find_crossover,
    long_path_default_lengths,
    long_path_sweep,
)
from repro.experiments.noise_robustness import (
    channel_comparison,
    default_channel_names,
    default_noise_strengths,
    path_noise_sweep,
    relay_noise_sweep,
    tree_noise_sweep,
)
from repro.experiments.noisy_soundness import (
    channel_family_soundness_sweep,
    default_channel_strength_points,
    default_collapse_strengths,
    default_noisy_path_lengths,
    gap_collapse_sweep,
    path_length_soundness_sweep,
)
from repro.experiments.records import ExperimentRow, format_rows
from repro.experiments.soundness_scaling import (
    default_path_lengths,
    default_repetition_counts,
    repetition_curve,
    soundness_scaling_sweep,
)
from repro.lint.sanitize import maybe_probe
from repro.experiments.sweep import (
    ChunkResult,
    SweepSpec,
    effective_cpu_count,
    init_sweep_worker,
    merge_worker_stats,
    next_pool_generation,
    partition_points,
    resolve_chunk_size,
    run_scenario_task,
    run_sweep_chunk,
)
from repro.experiments.topologies import (
    default_noise_topologies,
    default_soundness_topologies,
    topology_noise_sweep,
    topology_soundness_sweep,
)
from repro.experiments.tree_soundness import (
    network_zoo,
    one_way_tree_soundness_sweep,
    tree_soundness_sweep,
)
from repro.experiments.table1 import (
    measured_fgnp21_costs,
    table1_default_grid,
    table1_rows,
)
from repro.experiments.table2 import (
    table2_default_grid,
    table2_rows,
    table2_verification_rows,
)
from repro.experiments.table3 import (
    consistency_default_grid,
    table3_default_grid,
    table3_rows,
    upper_vs_lower_consistency,
)


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: a callable producing rows, plus display metadata."""

    name: str
    builder: Callable[..., List[ExperimentRow]]
    title: str
    description: str = ""
    kwargs: Mapping = field(default_factory=dict)
    #: Optional sweep declaration enabling sharded (point-level) parallelism.
    sweep: Optional[SweepSpec] = None

    def run(self, **overrides) -> List[ExperimentRow]:
        """Regenerate this scenario's rows (keyword overrides reach the builder)."""
        kwargs = {**dict(self.kwargs), **overrides}
        return list(self.builder(**kwargs))

    def grid_points(self, **overrides) -> Optional[List]:
        """The sweep grid under the resolved kwargs (``None`` when unswept)."""
        if self.sweep is None:
            return None
        return self.sweep.points({**dict(self.kwargs), **overrides})


@dataclass(frozen=True)
class ScenarioFailure:
    """A captured per-scenario failure; sibling scenarios keep their rows.

    On the pooled path ``chunk_failures`` carries the underlying per-chunk
    failures (every chunk of the scenario failed — a scenario with surviving
    chunks becomes a :class:`PartialScenarioResult` instead).
    """

    name: str
    error: str
    traceback: str = ""
    chunk_failures: Tuple[ChunkFailure, ...] = ()


@dataclass(frozen=True)
class PartialScenarioResult:
    """A scenario whose chunks partially failed: surviving rows + failures.

    ``rows`` holds the completed chunks' rows in grid order (the failed
    chunks' spans are missing); ``failures`` records one
    :class:`~repro.experiments.streaming.ChunkFailure` per failed chunk.
    """

    name: str
    rows: List[ExperimentRow]
    failures: Tuple[ChunkFailure, ...] = ()


_REGISTRY: "OrderedDict[str, Scenario]" = OrderedDict()


def register_scenario(
    name: str,
    builder: Callable[..., List[ExperimentRow]],
    title: Optional[str] = None,
    description: str = "",
    sweep: Optional[SweepSpec] = None,
    **kwargs,
) -> Scenario:
    """Register (or replace) a scenario under ``name``.

    ``builder`` must be a module-level callable so scenarios stay picklable
    for the process-pool path; a ``sweep`` declaration opts the scenario into
    sharded execution (its ``grid`` callable must be module-level too).
    """
    scenario = Scenario(
        name=name,
        builder=builder,
        title=title if title is not None else name,
        description=description,
        kwargs=kwargs,
        sweep=sweep,
    )
    _REGISTRY[name] = scenario
    return scenario


def available_scenarios() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown experiment scenario {name!r}; available: {available_scenarios()}"
        ) from None


def run_scenario(name: str, **overrides) -> List[ExperimentRow]:
    """Regenerate one scenario's rows by name."""
    return get_scenario(name).run(**overrides)


ScenarioResult = Union[List[ExperimentRow], PartialScenarioResult, ScenarioFailure]


def failed_scenarios(results: Mapping[str, ScenarioResult]) -> List[str]:
    """Names of scenarios that failed fully or partially, in result order."""
    failed = []
    for name, value in results.items():
        if isinstance(value, ScenarioFailure):
            failed.append(name)
        elif isinstance(value, PartialScenarioResult) and value.failures:
            failed.append(name)
    return failed


class ExperimentRunner:
    """Run a set of registered scenarios, serially or sharded across a pool.

    With ``parallel=True`` every swept scenario is split into static
    contiguous grid chunks (:func:`~repro.experiments.sweep.resolve_chunk_size`
    from the pool width) and every unswept scenario becomes one task; all
    tasks share one ``ProcessPoolExecutor`` of ``max_workers`` workers
    (default: :func:`~repro.experiments.sweep.effective_cpu_count`),
    each keeping a single engine + operator cache alive across the chunks
    it executes.  After a parallel run, :attr:`cache_stats` holds the merged
    per-worker cache counters (pool-wide: workers carry their caches from
    one scenario's chunks into the next).

    ``overrides`` maps scenario names to builder keyword overrides; they
    reach serial runs, grid planning, and dispatched chunks alike, so an
    overridden grid is chunked exactly like a declared one.

    The pooled path consumes chunk futures as they complete, fires a
    :class:`~repro.experiments.streaming.ChunkEvent` at ``progress`` per
    settled chunk, and treats the chunk — not the scenario — as the unit of
    failure.  A scenario with some failed chunks keeps its surviving rows as
    a :class:`PartialScenarioResult`; only a scenario with *no* surviving
    chunks degrades to a :class:`ScenarioFailure`.  Rows are reassembled in
    grid order, byte-identical to serial runs, regardless of completion
    order.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[str]] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        progress: Progress = None,
        overrides: Optional[Mapping[str, Mapping]] = None,
    ):
        self.names = list(scenarios) if scenarios is not None else available_scenarios()
        for name in self.names:
            get_scenario(name)  # fail fast on unknown names
        self.parallel = bool(parallel)
        self.max_workers = max_workers
        #: Per-scenario builder keyword overrides (scenario name -> kwargs).
        self.overrides: Dict[str, Dict] = {
            name: dict(value) for name, value in dict(overrides or {}).items()
        }
        for name in self.overrides:
            get_scenario(name)  # fail fast on unknown override targets
        #: Chunk-event listener (or bare callable) for pooled runs.
        self.progress = progress
        #: Pool-wide merged per-worker operator-cache counters of the last
        #: parallel run (empty after serial runs).
        self.cache_stats: Dict = {}

    def run(self) -> "OrderedDict[str, ScenarioResult]":
        """Regenerate every selected scenario; results keep the selection order.

        A scenario that raises contributes a :class:`ScenarioFailure` value
        instead of aborting its siblings.
        """
        self.cache_stats = {}
        if self.parallel and self.names:
            return self._run_pooled()
        results: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        for name in self.names:
            try:
                results[name] = run_scenario(name, **self.overrides.get(name, {}))
            except Exception as exc:  # broad by design: isolation is the point
                results[name] = _failure(name, exc)
        return results

    def _run_pooled(self) -> "OrderedDict[str, ScenarioResult]":
        # The pool is built with an explicit width so chunk planning sees
        # exactly the worker count that runs the chunks.
        width = int(self.max_workers) if self.max_workers else effective_cpu_count()
        pool = ProcessPoolExecutor(
            max_workers=width,
            initializer=init_sweep_worker,
            initargs=(next_pool_generation(),),
        )
        try:
            tasks, prefailed = self._submit(pool, width)
            assembly = _PoolAssembly(tasks, prefailed)
            for event in iter_chunk_events(tasks, progress=self.progress):
                assembly.record(event)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        results, self.cache_stats = assembly.finish(self.names)
        return results

    def _submit(self, pool: Executor, width: int):
        """Submit every scenario's chunks; returns (tasks, planning failures).

        A swept scenario whose grid yields more than one chunk is dispatched
        chunk by chunk; everything else runs as one whole-scenario task.
        Every payload passes the sanitizer's pickle probe (a no-op unless
        ``REPRO_SANITIZE`` armed it) before it is submitted.
        """
        tasks: List[ChunkTask] = []
        prefailed: Dict[str, ScenarioFailure] = {}
        for name in self.names:
            overrides = self.overrides.get(name)
            try:
                chunks = self._plan(get_scenario(name), width)
            except Exception as exc:  # broad by design: grid planning failed
                prefailed[name] = _failure(name, exc)
                continue
            if len(chunks) > 1:
                calls = [(run_sweep_chunk, (name, chunk, overrides), len(chunk)) for chunk in chunks]
            else:
                calls = [(run_scenario_task, (name, overrides), sum(map(len, chunks)))]
            for index, (entry, args, num_points) in enumerate(calls):
                maybe_probe((entry, *args), context=f"scenario {name!r} chunk {index}")
                tasks.append(
                    ChunkTask(
                        future=pool.submit(entry, *args),
                        scenario=name,
                        chunk_index=index,
                        num_chunks=len(calls),
                        num_points=num_points,
                    )
                )
        return tasks, prefailed

    def _plan(self, scenario: Scenario, width: int) -> List[list]:
        """Static contiguous chunks of a swept scenario's grid (``[]`` if unswept)."""
        if scenario.sweep is None:
            return []
        points = scenario.sweep.points(
            {**dict(scenario.kwargs), **self.overrides.get(scenario.name, {})}
        )
        return partition_points(points, resolve_chunk_size(len(points), width))

    def render(self, results: Optional[Mapping[str, ScenarioResult]] = None) -> str:
        """Format results (running them first when not supplied) as text tables.

        Failed scenarios render as a ``FAILED`` section carrying the error.
        """
        if results is None:
            results = self.run()
        sections = []
        for name, rows in results.items():
            title = get_scenario(name).title
            if isinstance(rows, ScenarioFailure):
                body = f"FAILED: {rows.error}"
            elif isinstance(rows, PartialScenarioResult):
                notes = "\n".join(
                    f"FAILED: chunk {failure.chunk_index + 1}/{failure.num_chunks}: "
                    f"{failure.error}"
                    for failure in rows.failures
                )
                body = f"{format_rows(rows.rows)}\n{notes}"
            else:
                body = format_rows(rows)
            sections.append(f"{title}\n{'=' * len(title)}\n{body}\n")
        return "\n".join(sections)


def _failure(name: str, exc: Exception) -> ScenarioFailure:
    return ScenarioFailure(
        name=name,
        error=f"{type(exc).__name__}: {exc}",
        traceback=traceback_module.format_exc(),
    )


class _PoolAssembly:
    """Accumulates chunk events into per-scenario results, in grid order.

    Completion order is irrelevant: every completed chunk lands in its
    scenario's indexed slot, and :meth:`finish` concatenates the slots in
    chunk order — so reassembly is byte-identical to serial runs.  Cache
    snapshots are merged over *every* completed chunk, including survivors
    of partially-failed scenarios, so pool work is never undercounted.
    """

    def __init__(self, tasks: Sequence[ChunkTask], prefailed: Mapping[str, ScenarioFailure]):
        self._collectors: Dict[str, ChunkCollector] = {}
        self._prefailed = dict(prefailed)
        for task in tasks:
            self._collectors.setdefault(task.scenario, ChunkCollector(task.num_chunks))

    def record(self, event: ChunkEvent) -> None:
        self._collectors[event.scenario].record(event)

    def finish(self, names: Sequence[str]):
        """The (results, merged cache stats) of the run, in selection order."""
        results: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        parts: List[ChunkResult] = []
        for name in names:
            if name in self._prefailed:
                results[name] = self._prefailed[name]
                continue
            collector = self._collectors.get(name)
            if collector is None:
                continue
            completed = collector.completed
            parts.extend(completed)
            failures = tuple(collector.failures)
            if not failures:
                results[name] = collector.rows()
            elif completed:
                results[name] = PartialScenarioResult(
                    name=name, rows=collector.rows(), failures=failures
                )
            else:
                results[name] = ScenarioFailure(
                    name=name,
                    error=failures[0].error,
                    traceback=failures[0].traceback,
                    chunk_failures=failures,
                )
        cache_stats = merge_worker_stats(parts) if parts else {}
        return results, cache_stats


# -- built-in scenarios -------------------------------------------------------


def _measured_fgnp21_rows() -> List[ExperimentRow]:
    return [measured_fgnp21_costs()]


def _crossover_point_rows() -> List[ExperimentRow]:
    return [
        ExperimentRow(
            "crossover-points",
            "Algorithm 3 beats the classical Omega(rn) bound (r=6)",
            {"crossover_n": find_crossover(path_length=6, strategy="plain")},
        ),
        ExperimentRow(
            "crossover-points",
            "Relay protocol beats the classical bound (long-path regime)",
            {"crossover_n": find_crossover(strategy="relay")},
        ),
    ]


register_scenario(
    "table1",
    table1_rows,
    title="Table 1 — FGNP21 baselines",
    description="Formula rows of Table 1 over the default (n, r, t) grid.",
    sweep=SweepSpec("parameter_grid", table1_default_grid),
)
register_scenario(
    "table1-measured",
    _measured_fgnp21_rows,
    title="Table 1 — measured FGNP21 implementation",
    description="Measured register sizes of the implemented FGNP21 baseline.",
)
register_scenario(
    "table2",
    table2_rows,
    title="Table 2 — upper bounds (n=1024, r=4, t=4, d=2)",
    description="Every upper-bound formula of Table 2 at the default parameters.",
    sweep=SweepSpec("parameter_grid", table2_default_grid),
)
register_scenario(
    "table2-verify",
    table2_verification_rows,
    title="Table 2 — small-instance protocol verification",
    description="Exact completeness/soundness of every Table 2 protocol on a small instance.",
)
register_scenario(
    "table3",
    table3_rows,
    title="Table 3 — lower bounds (n=1024, r=4)",
    description="Every lower-bound formula of Table 3 at the default parameters.",
    sweep=SweepSpec("parameter_grid", table3_default_grid),
)
register_scenario(
    "table3-consistency",
    upper_vs_lower_consistency,
    title="Table 3 — upper vs lower consistency",
    description="Upper bounds dominate lower bounds; classical eventually loses.",
    sweep=SweepSpec("parameter_grid", consistency_default_grid),
)
register_scenario(
    "crossover",
    crossover_sweep,
    title="Theorem 2 — fixed-path crossover sweep (r=8)",
    description="Total proof sizes of the three strategies versus n at fixed r.",
    sweep=SweepSpec("input_lengths", crossover_default_lengths),
)
register_scenario(
    "crossover-long-path",
    long_path_sweep,
    title="Theorem 2 — long-path (relay) regime",
    description="The r ~ n^(1/3) regime where relay points restore the advantage.",
    sweep=SweepSpec("input_lengths", long_path_default_lengths),
)
register_scenario(
    "crossover-points",
    _crossover_point_rows,
    title="Theorem 2 — crossover points",
    description="Smallest n at which each quantum strategy beats the classical bound.",
)
register_scenario(
    "soundness-scaling",
    soundness_scaling_sweep,
    title="Lemma 17 — optimal cheating vs path length",
    description="Exact optimal entangled cheating probability against the Lemma 17 bound.",
    sweep=SweepSpec("path_lengths", default_path_lengths),
)
register_scenario(
    "soundness-repetition",
    repetition_curve,
    title="Algorithm 4 — repetition curve (r=3)",
    description="Repeated acceptance of the best single-shot cheat versus k.",
    sweep=SweepSpec("repetition_counts", default_repetition_counts),
)
register_scenario(
    "soundness-tree",
    tree_soundness_sweep,
    title="Algorithm 5 — tree-family soundness (batched strategy search)",
    description="Best structured cheat on EQ trees over star/binary/random networks.",
    sweep=SweepSpec("networks", network_zoo),
)
register_scenario(
    "soundness-one-way-tree",
    one_way_tree_soundness_sweep,
    title="Theorem 32 — one-way-tree soundness (batched strategy search)",
    description="Best structured cheat on the forall-pairs construction per network family.",
    sweep=SweepSpec("networks", network_zoo),
)
register_scenario(
    "topology-soundness",
    topology_soundness_sweep,
    title="Algorithm 5 — soundness across grid/ring/random-graph topologies",
    description="Best structured cheat per general-graph topology (verification-tree families).",
    sweep=SweepSpec("topologies", default_soundness_topologies),
)
register_scenario(
    "noisy-soundness-channels",
    channel_family_soundness_sweep,
    title="Noise — best structured cheat per channel family (batched search)",
    description="Batched strategy search under NoiseModel across Kraus channel families.",
    sweep=SweepSpec("points", default_channel_strength_points),
)
register_scenario(
    "noisy-soundness-path-length",
    path_length_soundness_sweep,
    title="Noise — best structured cheat vs path length (depolarizing 0.15)",
    description="Noisy strategy search across path lengths against each Lemma 17 bound.",
    sweep=SweepSpec("path_lengths", default_noisy_path_lengths),
)
register_scenario(
    "noisy-soundness-collapse",
    gap_collapse_sweep,
    title="Noise — honest-vs-cheat gap collapse against the Lemma 17 bound",
    description="Strength at which the best noisy cheat crosses the noiseless paper bound.",
    sweep=SweepSpec("strengths", default_collapse_strengths),
)
register_scenario(
    "noise-robustness-path",
    path_noise_sweep,
    title="Noise — Algorithm 3 equality path under depolarizing links",
    description="Completeness and decision gap of the path protocol versus noise strength.",
    sweep=SweepSpec("strengths", default_noise_strengths),
)
register_scenario(
    "noise-robustness-tree",
    tree_noise_sweep,
    title="Noise — Algorithm 5 equality tree under depolarizing links",
    description="Completeness and decision gap of the tree protocol versus noise strength.",
    sweep=SweepSpec("strengths", default_noise_strengths),
)
register_scenario(
    "noise-robustness-relay",
    relay_noise_sweep,
    title="Noise — Algorithm 6 relay protocol under depolarizing links",
    description="Completeness and decision gap of the relay protocol versus noise strength.",
    sweep=SweepSpec("strengths", default_noise_strengths),
)
register_scenario(
    "noise-channels",
    channel_comparison,
    title="Noise — channel families compared at fixed strength",
    description="Path-protocol degradation under each Kraus channel family at one strength.",
    sweep=SweepSpec("channels", default_channel_names),
)
register_scenario(
    "topology-noise",
    topology_noise_sweep,
    title="Noise — Algorithm 5 across grid/ring/random-graph topologies",
    description="Completeness and decision gap per noisy general-graph topology at fixed strength.",
    sweep=SweepSpec("topologies", default_noise_topologies),
)
