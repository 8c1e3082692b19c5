"""Span recorder and layer wrappers for the traced benchmark run.

The traced run measures each layer of the reproduction by wrapping the
public entry points of that layer *from outside the package*: nothing under
``src/`` is edited, the wrappers are installed on the imported modules and
classes of one benchmark process and disappear with it.

A span is ``[name, start_ns, end_ns, parent, op, counts]``: ``parent`` is the
index of the enclosing span (``-1`` at top level), ``op`` the benchmark op the
span belongs to and ``counts`` an optional dict of exact counters measured at
that boundary (jobs, programs, strategies, bytes).  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is the
duration of its spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Span-name prefix -> layer.  Self time is aggregated per layer; a span
#: belongs to the layer whose name is the longest matching prefix.
SELF_TIME_LAYERS = (
    "network.shortest_path",
    "protocols.build",
    "protocols.compile",
    "analysis.search",
    "engine.core",
    "engine.map_scalar",
    "engine.backends.chain",
    "engine.backends.tree",
    "engine.tree_contraction",
    "engine.kernels.noisy_chain",
    "engine.kernels.chain_adjacent",
    "engine.kernels.chain_gram",
    "engine.kernels.tree",
    "engine.kernels.transfer_recursion",
    "experiments.scenario",
    "experiments.render",
)

#: Layers whose calls are counted; a call nested in a span of the same
#: layer (``on_path`` -> ``__init__``, a ``super()`` chain) is not counted
#: again.
CALL_LAYERS = (
    "network.shortest_path",
    "protocols.build",
    "engine.backends.chain",
    "engine.backends.tree",
)

KERNEL_PREFIX = "engine.kernels."

#: Per-layer metrics of the traced run: name -> unit.  Every workload prints
#: all of them; a layer the workload never reaches reads 0.
PER_LAYER_METRICS = {
    "import.s": "s",
    "network.shortest_path.self_s": "s",
    "network.shortest_path.calls": "count",
    "protocols.build.self_s": "s",
    "protocols.build.calls": "count",
    "protocols.compile.self_s": "s",
    "protocols.compile.programs": "count",
    "analysis.search.self_s": "s",
    "analysis.search.strategies": "count",
    "engine.core.self_s": "s",
    "engine.core.jobs": "count",
    "engine.map_scalar.items": "count",
    "engine.backends.chain.self_s": "s",
    "engine.backends.chain.calls": "count",
    "engine.backends.tree.calls": "count",
    "engine.tree_contraction.self_s": "s",
    "engine.kernels.noisy_chain.self_s": "s",
    "engine.kernels.chain_adjacent.self_s": "s",
    "engine.kernels.chain_gram.self_s": "s",
    "engine.kernels.tree.self_s": "s",
    "engine.kernels.transfer_recursion.self_s": "s",
    "engine.kernels.calls": "count",
    "engine.kernels.bytes_in": "bytes",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.einsum_path.lookups": "count",
    "engine.einsum_path.hit_ratio": "ratio",
    "experiments.scenario.self_s": "s",
    "experiments.render.s": "s",
    "trace.overhead_s": "s",
}

#: The counters that must repeat exactly across two same-seed traced runs.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER_METRICS.items() if unit in ("count", "bytes")
)


class Recorder:
    """In-memory span list plus the wrapper factory that fills it.

    Wrappers pass straight through while the recorder is disarmed, so the
    same process can run untraced ops after the traced ones.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self.armed = False
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> Callable:
        """``function`` recording one span per call; ``count`` derives exact
        counters from the call's arguments and result."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.armed:
                return function(*args, **kwargs)
            stack = recorder._stack
            record = [name, 0, 0, stack[-1] if stack else -1, recorder.op, None]
            stack.append(len(recorder.spans))
            recorder.spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return traced


# --------------------------------------------------------------------------
# Counters measured at the boundaries
# --------------------------------------------------------------------------


def _second_argument(args: tuple, kwargs: dict, keyword: str) -> Any:
    return args[1] if len(args) > 1 else kwargs[keyword]


def _count_jobs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"jobs": len(_second_argument(args, kwargs, "jobs"))}


def _count_one_program(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"programs": 1}


def _count_batch_programs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"programs": len(_second_argument(args, kwargs, "inputs_batch"))}


def _count_strategies(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"strategies": result.num_assignments + 1}


def _count_items(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"items": len(result)}


def _count_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    """Bytes of the array arguments handed to a kernel (computed from
    ``nbytes``, not measured traffic)."""
    operands = list(args) + list(kwargs.values())
    return {"bytes_in": sum(int(getattr(value, "nbytes", 0)) for value in operands)}


# --------------------------------------------------------------------------
# Installing the wrappers
# --------------------------------------------------------------------------


def _wrap_method(recorder: Recorder, owner: type, attribute: str, name: str, count=None) -> None:
    """Wrap ``owner.attribute`` if ``owner`` defines it itself."""
    raw = owner.__dict__.get(attribute)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(recorder.wrap(name, raw.__func__, count)))
    else:
        setattr(owner, attribute, recorder.wrap(name, raw, count))


def _replace_function(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level reference to ``original`` (the defining
    module and each ``from ... import`` of it) to ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _subclasses(root: type) -> List[type]:
    found: List[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return [root] + found


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every traced layer (after ``import repro``)."""
    from repro.analysis import soundness
    from repro.engine import backends, kernels
    from repro.engine.core import Engine
    from repro.experiments.runner import ExperimentRunner, Scenario
    from repro.network.topology import Network
    from repro.protocols.base import DQMAProtocol

    for attribute in ("shortest_path", "distance"):
        _wrap_method(recorder, Network, attribute, "network.shortest_path." + attribute)

    for cls in _subclasses(DQMAProtocol):
        _wrap_method(recorder, cls, "__init__", "protocols.build.__init__")
        _wrap_method(recorder, cls, "on_path", "protocols.build.on_path")
        _wrap_method(
            recorder, cls, "acceptance_program", "protocols.compile.acceptance_program",
            _count_one_program,
        )
        _wrap_method(
            recorder, cls, "acceptance_probabilities",
            "protocols.compile.acceptance_probabilities", _count_batch_programs,
        )

    original = soundness.fingerprint_strategy_soundness
    _replace_function(
        original,
        recorder.wrap("analysis.search.fingerprint_strategy_soundness", original, _count_strategies),
    )

    _wrap_method(recorder, Engine, "evaluate_programs", "engine.core.evaluate_programs")
    _wrap_method(recorder, Engine, "evaluate_program", "engine.core.evaluate_program")
    _wrap_method(recorder, Engine, "job_probabilities", "engine.core.job_probabilities", _count_jobs)
    _wrap_method(recorder, Engine, "map_scalar", "engine.map_scalar", _count_items)

    backend = backends.TransferMatrixBackend
    _wrap_method(recorder, backend, "chain_probabilities", "engine.backends.chain")
    _wrap_method(recorder, backend, "tree_probabilities", "engine.backends.tree")
    # The batched tree contraction as the backend module calls it.
    backends.tree_probabilities_batched = recorder.wrap(
        "engine.tree_contraction", backends.tree_probabilities_batched
    )

    kernel_layers = {
        "noisy_chain_probabilities": "noisy_chain",
        "chain_adjacent_probabilities": "chain_adjacent",
        "chain_gram_probabilities": "chain_gram",
        "chain_terminal_probabilities": "chain_gram",
        "batched_overlap_grams": "tree",
        "batched_trace_gram": "tree",
        "batched_measure_dense": "tree",
        "transfer_recursion": "transfer_recursion",
    }
    # Kernels call each other through module globals, so rebinding the
    # module attribute also traces the nested calls (transfer_recursion).
    for function_name, layer in kernel_layers.items():
        setattr(
            kernels,
            function_name,
            recorder.wrap(
                f"{KERNEL_PREFIX}{layer}.{function_name}",
                getattr(kernels, function_name),
                _count_bytes,
            ),
        )

    _wrap_method(recorder, Scenario, "run", "experiments.scenario")
    _wrap_method(recorder, ExperimentRunner, "render", "experiments.render")


def cache_counters() -> Dict[str, int]:
    """Hit/miss counters of the default engine's operator cache and of the
    einsum-path cache (their deltas over the counted ops are reported)."""
    from repro.engine import default_engine
    from repro.engine.kernels import einsum_path_cache_info

    stats = default_engine().cache.stats()
    paths = einsum_path_cache_info()
    return {
        "engine.cache.hits": stats.hits,
        "engine.cache.misses": stats.misses,
        "engine.einsum_path.hits": paths["hits"],
        "engine.einsum_path.misses": paths["misses"],
    }


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in before}


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------


def _layer_of(name: str) -> str:
    best = ""
    for layer in SELF_TIME_LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best


def _parent_layer(spans: Sequence[list], parent: int) -> str:
    return _layer_of(spans[parent][0]) if parent >= 0 else ""


def per_op_self_seconds(spans: Sequence[list]) -> Dict[int, Dict[str, float]]:
    """op -> layer -> self seconds (span time minus direct child spans)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    table: Dict[int, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        layer = _layer_of(span[0])
        per_layer = table.setdefault(span[4], {})
        self_ns = span[2] - span[1] - child_ns[index]
        per_layer[layer] = per_layer.get(layer, 0.0) + self_ns * 1e-9
    return table


def exact_counts(spans: Sequence[list], ops: Sequence[int]) -> Dict[str, int]:
    """Counters summed over the spans of ``ops``."""
    counts = {name: 0 for name in EXACT_COUNTS}
    wanted = set(ops)
    for span in spans:
        name, parent, op, extra = span[0], span[3], span[4], span[5]
        if op not in wanted:
            continue
        layer = _layer_of(name)
        outermost = _parent_layer(spans, parent) != layer
        if layer in CALL_LAYERS and outermost:
            counts[layer + ".calls"] += 1
        if name.startswith(KERNEL_PREFIX):
            counts["engine.kernels.calls"] += 1
            if extra and not _parent_layer(spans, parent).startswith(KERNEL_PREFIX):
                counts["engine.kernels.bytes_in"] += extra["bytes_in"]
        if not extra:
            continue
        if layer == "protocols.compile" and outermost:
            counts["protocols.compile.programs"] += extra["programs"]
        elif layer == "engine.core":
            counts["engine.core.jobs"] += extra["jobs"]
        elif layer == "analysis.search":
            counts["analysis.search.strategies"] += extra["strategies"]
        elif layer == "engine.map_scalar":
            counts["engine.map_scalar.items"] += extra["items"]
    return counts


def layer_metrics(
    spans: Sequence[list],
    counted_ops: Sequence[int],
    cache_delta: Dict[str, int],
    import_seconds: float,
    overhead_seconds: float,
) -> Dict[str, float]:
    """Every per-layer metric, per op.

    Self times are medians over the counted ops; counts are totals over the
    counted ops divided by their number, so they repeat exactly for a seed.
    """
    ops = list(counted_ops)
    table = per_op_self_seconds(spans)
    metrics: Dict[str, float] = {}
    for name in PER_LAYER_METRICS:
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            metrics[name] = statistics.median(table.get(op, {}).get(layer, 0.0) for op in ops)
    metrics["experiments.render.s"] = statistics.median(
        table.get(op, {}).get("experiments.render", 0.0) for op in ops
    )
    for name, total in {**exact_counts(spans, ops), **cache_delta}.items():
        metrics[name] = total / len(ops)
    for cache in ("engine.cache", "engine.einsum_path"):
        hits, misses = cache_delta[cache + ".hits"], cache_delta[cache + ".misses"]
        metrics[cache + ".lookups"] = (hits + misses) / len(ops)
        metrics[cache + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["import.s"] = import_seconds
    metrics["trace.overhead_s"] = overhead_seconds
    return {name: metrics[name] for name in PER_LAYER_METRICS}
