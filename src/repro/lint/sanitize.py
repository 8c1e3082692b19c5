"""Runtime sanitizer: the dynamic counterpart of the static lint rules.

Enabled with ``REPRO_SANITIZE=1`` (checked on ``import repro``) or
programmatically via :func:`install`, the sanitizer arms three guards:

* **Frozen-cache guard** — every value :class:`~repro.engine.cache.OperatorCache`
  hands out (or stores) is verified to be a non-writeable array, so any code
  path that bypasses ``_freeze`` (a direct ``_entries`` poke, say) raises :class:`SanitizerError` at the cache boundary
  instead of corrupting shared operators silently.  Mutating a guarded value
  still raises numpy's own ``ValueError: assignment destination is read-only``.
* **Pickle probe** — :func:`maybe_probe` round-trips every payload the
  runner submits to its process pool through ``pickle`` *before* dispatch,
  so an unpicklable scenario override or channel object fails at submission
  (with the scenario named) rather than deep inside a pool worker.
* **Transfer budget** — :func:`transfer_budget` wraps a block and asserts
  the mock device module performed at most the declared number of
  host<->device transfers, turning the transfer-counting tests' invariant
  into a reusable assertion hook.

The guards are process-local and reversible (:func:`uninstall`); pool
workers inherit ``REPRO_SANITIZE`` through the environment, so they are
sanitized too.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from repro.engine.cache import OperatorCache
from repro.utils.env import env_bool

__all__ = [
    "SanitizerError",
    "install",
    "install_from_env",
    "is_enabled",
    "maybe_probe",
    "probe_payload",
    "transfer_budget",
    "uninstall",
]


class SanitizerError(RuntimeError):
    """A sanitizer guard detected an invariant violation."""


_installed = False
_saved_methods: Dict[str, Callable] = {}


def is_enabled() -> bool:
    """Whether the sanitizer guards are currently armed in this process."""
    return _installed


def _check_frozen(value: Any, where: str) -> Any:
    if isinstance(value, np.ndarray) and value.flags.writeable:
        raise SanitizerError(
            f"OperatorCache {where} a writeable array; cached operators must be "
            f"frozen copies (writeable=False) so hits can be shared without "
            f"defensive copies"
        )
    return value


def install() -> None:
    """Arm the guards (idempotent). ``uninstall`` restores the originals."""
    global _installed
    if _installed:
        return
    _saved_methods["get"] = OperatorCache.get
    _saved_methods["put"] = OperatorCache.put
    _saved_methods["get_or_build"] = OperatorCache.get_or_build

    original_get = OperatorCache.get
    original_put = OperatorCache.put
    original_get_or_build = OperatorCache.get_or_build

    def guarded_get(self: OperatorCache, key: Any) -> Any:
        return _check_frozen(original_get(self, key), "handed out")

    def guarded_put(self: OperatorCache, key: Any, value: Any) -> Any:
        return _check_frozen(original_put(self, key, value), "stored")

    def guarded_get_or_build(self: OperatorCache, key: Any, builder: Callable[[], Any]) -> Any:
        return _check_frozen(original_get_or_build(self, key, builder), "handed out")

    guarded_get.__wrapped__ = original_get  # type: ignore[attr-defined]
    guarded_put.__wrapped__ = original_put  # type: ignore[attr-defined]
    guarded_get_or_build.__wrapped__ = original_get_or_build  # type: ignore[attr-defined]
    OperatorCache.get = guarded_get  # type: ignore[method-assign]
    OperatorCache.put = guarded_put  # type: ignore[method-assign]
    OperatorCache.get_or_build = guarded_get_or_build  # type: ignore[method-assign]
    _installed = True


def uninstall() -> None:
    """Disarm the guards and restore the original cache methods."""
    global _installed
    if not _installed:
        return
    OperatorCache.get = _saved_methods.pop("get")  # type: ignore[method-assign]
    OperatorCache.put = _saved_methods.pop("put")  # type: ignore[method-assign]
    OperatorCache.get_or_build = _saved_methods.pop("get_or_build")  # type: ignore[method-assign]
    _installed = False


def install_from_env() -> bool:
    """Arm the guards when ``REPRO_SANITIZE`` is truthy; returns the state."""
    if env_bool("REPRO_SANITIZE"):
        install()
    return _installed


def probe_payload(payload: Any, context: str = "chunk payload") -> None:
    """Round-trip ``payload`` through pickle; raise :class:`SanitizerError` on failure.

    Catching this at submission time turns "worker died mid-sweep with a
    pickling traceback" into an immediate, attributable error naming the
    scenario whose payload cannot cross the process boundary.
    """
    try:
        data = pickle.dumps(payload)
    except Exception as error:
        raise SanitizerError(f"{context} cannot be pickled for dispatch: {error}") from error
    try:
        pickle.loads(data)
    except Exception as error:
        raise SanitizerError(
            f"{context} pickles but does not unpickle (missing module-level "
            f"definition?): {error}"
        ) from error


def maybe_probe(payload: Any, context: str = "chunk payload") -> None:
    """Run :func:`probe_payload` only when the sanitizer is armed (cheap no-op)."""
    if _installed:
        probe_payload(payload, context)


@contextmanager
def transfer_budget(
    xp: Any,
    max_to_device: Optional[int] = None,
    max_to_host: Optional[int] = None,
) -> Iterator[Any]:
    """Assert a block performs at most the declared host<->device transfers.

    ``xp`` must expose the mock device module's transfer counters
    (``reset_transfer_counts`` / ``to_device_transfers`` /
    ``to_host_transfers``); the counters are reset on entry and checked on a
    clean exit.  A budget of ``None`` leaves that direction unchecked.
    """
    required = ("reset_transfer_counts", "to_device_transfers", "to_host_transfers")
    if not all(hasattr(xp, name) for name in required):
        raise SanitizerError(
            f"array module {getattr(xp, 'name', xp)!r} does not expose transfer "
            f"counters; transfer_budget needs the mock device module"
        )
    xp.reset_transfer_counts()
    yield xp
    if max_to_device is not None and xp.to_device_transfers > max_to_device:
        raise SanitizerError(
            f"transfer budget exceeded: {xp.to_device_transfers} host->device "
            f"transfers (budget {max_to_device})"
        )
    if max_to_host is not None and xp.to_host_transfers > max_to_host:
        raise SanitizerError(
            f"transfer budget exceeded: {xp.to_host_transfers} device->host "
            f"transfers (budget {max_to_host})"
        )
