"""Streaming chunk consumption: progress events and failure isolation.

The runner (:mod:`repro.experiments.runner`) plans sweeps into chunks with
:mod:`repro.experiments.sweep` and submits them to a process pool; this
module is the *consumption* side.  Instead of blocking on every future in
submission order (and losing a scenario's completed chunks the moment one
chunk raises), futures are drained as they complete:

* every settled chunk becomes a :class:`ChunkEvent` — scenario, chunk index,
  row count, the evaluating worker's token and its operator-cache *delta*
  since that worker's previous chunk — delivered to a pluggable
  :class:`ProgressListener` (or bare callable) and yielded to the caller;
* a chunk that raises becomes a :class:`ChunkFailure` carried on its event,
  so sibling chunks keep their rows and the caller decides scenario-level
  semantics (partial result versus full failure).

Row *order* is not this module's concern: callers slot results by chunk index
(:class:`ChunkCollector`) and reassemble in grid order, so completion order
never shows in the output.
"""

from __future__ import annotations

import sys
import traceback as traceback_module
from concurrent.futures import Future, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, TextIO, Union


@dataclass(frozen=True)
class ChunkTask:
    """One submitted chunk: the pool future plus its place in the plan."""

    future: Future
    scenario: str
    chunk_index: int
    num_chunks: int
    num_points: int = 0


@dataclass(frozen=True)
class ChunkFailure:
    """A captured per-chunk failure; sibling chunks keep their rows."""

    scenario: str
    chunk_index: int
    num_chunks: int
    num_points: int
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class ChunkEvent:
    """One settled chunk, as surfaced to progress listeners.

    Exactly one of ``result`` (a completed
    :class:`~repro.experiments.sweep.ChunkResult`) and ``failure`` is set.
    ``cache_delta`` holds the evaluating worker's operator-cache counter
    growth since its previous chunk (first chunk: the full snapshot), and
    ``completed``/``total`` count settled chunks across the whole run.
    ``seconds`` is the chunk's measured in-worker wall time (builder call
    only, no pool overhead).
    """

    scenario: str
    chunk_index: int
    num_chunks: int
    num_rows: int
    worker_id: str
    cache_delta: Dict[str, int] = field(default_factory=dict)
    result: Optional[Any] = None
    failure: Optional[ChunkFailure] = None
    completed: int = 0
    total: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the chunk completed (``failure`` unset)."""
        return self.failure is None


class ProgressListener:
    """Receives one :class:`ChunkEvent` per settled chunk; subclass to plug in."""

    def on_chunk(self, event: ChunkEvent) -> None:  # pragma: no cover - no-op base
        """Handle one settled chunk (completed or failed)."""


class _CallbackListener(ProgressListener):
    """Adapter turning a bare ``callable(event)`` into a listener."""

    def __init__(self, callback: Callable[[ChunkEvent], None]):
        self._callback = callback

    def on_chunk(self, event: ChunkEvent) -> None:
        self._callback(event)


class PrintProgressListener(ProgressListener):
    """Prints one line per settled chunk (``repro-report --progress``)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self._stream = stream if stream is not None else sys.stderr

    def on_chunk(self, event: ChunkEvent) -> None:
        prefix = f"[{event.completed}/{event.total}] {event.scenario} chunk {event.chunk_index + 1}/{event.num_chunks}"
        if event.failure is not None:
            line = f"{prefix}: FAILED {event.failure.error}"
        else:
            delta = event.cache_delta
            line = (
                f"{prefix}: {event.num_rows} rows (worker {event.worker_id}, "
                f"+{delta.get('hits', 0)} hits, +{delta.get('misses', 0)} misses) "
                f"{event.seconds:.3f}s"
            )
        self._stream.write(line + "\n")
        self._stream.flush()


Progress = Union[ProgressListener, Callable[[ChunkEvent], None], None]


def as_listener(progress: Progress) -> ProgressListener:
    """Normalize a listener, a bare callable, or ``None`` into a listener."""
    if progress is None:
        return ProgressListener()
    if isinstance(progress, ProgressListener):
        return progress
    return _CallbackListener(progress)


class ChunkCollector:
    """Accumulates one scenario's chunk events: indexed slots plus failures.

    Completed chunks land in their chunk-index slot, so :meth:`rows`
    concatenates in grid order no matter when the chunks finished.
    """

    def __init__(self, num_chunks: int):
        self.slots: list = [None] * num_chunks
        self.failures: list = []

    def record(self, event: ChunkEvent) -> None:
        if event.failure is not None:
            self.failures.append(event.failure)
        else:
            self.slots[event.chunk_index] = event.result

    @property
    def completed(self) -> list:
        """The completed :class:`ChunkResult`-likes, in chunk order."""
        return [result for result in self.slots if result is not None]

    def rows(self) -> list:
        """Surviving rows in grid order (failed chunks' spans missing)."""
        return [row for result in self.completed for row in result.rows]


def _failure_event(task: ChunkTask, exc: BaseException, completed: int, total: int) -> ChunkEvent:
    failure = ChunkFailure(
        scenario=task.scenario,
        chunk_index=task.chunk_index,
        num_chunks=task.num_chunks,
        num_points=task.num_points,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )
    return ChunkEvent(
        scenario=task.scenario,
        chunk_index=task.chunk_index,
        num_chunks=task.num_chunks,
        num_rows=0,
        worker_id="",
        failure=failure,
        completed=completed,
        total=total,
    )


def iter_chunk_events(
    tasks: Iterable[ChunkTask], progress: Progress = None
) -> Iterator[ChunkEvent]:
    """Yield a :class:`ChunkEvent` per settled chunk, in completion order.

    Failures become events carrying a :class:`ChunkFailure`; every event is
    also delivered to ``progress`` before it is yielded.
    """
    by_future = {task.future: task for task in tasks}
    listener = as_listener(progress)
    snapshots: Dict[str, Dict[str, Any]] = {}
    total = len(by_future)
    for completed, future in enumerate(as_completed(by_future), start=1):
        task = by_future[future]
        try:
            result = future.result()
        except Exception as exc:  # broad by design: isolation is the point
            event = _failure_event(task, exc, completed, total)
        else:
            worker = str(result.worker_id)
            previous = snapshots.get(worker, {})
            snapshots[worker] = dict(result.cache_stats)
            event = ChunkEvent(
                scenario=task.scenario,
                chunk_index=task.chunk_index,
                num_chunks=task.num_chunks,
                num_rows=len(result.rows),
                worker_id=worker,
                cache_delta={
                    key: int(result.cache_stats.get(key, 0)) - int(previous.get(key, 0))
                    for key in ("hits", "misses", "entries")
                },
                result=result,
                completed=completed,
                total=total,
                seconds=float(result.seconds),
            )
        listener.on_chunk(event)
        yield event
