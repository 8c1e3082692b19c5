"""Simulation backends: how batches of jobs are evaluated.

A backend implements one method, :meth:`SimulationBackend.tree_probabilities`:
the acceptance probability of every :class:`~repro.engine.jobs.TreeJob` of a
batch.  Paths are tree jobs too (:func:`~repro.engine.jobs.path_job`), so
there is no second entry point.  Two evaluation strategies ship with the
library:

:class:`DenseBackend`
    The scalar reference: every job is contracted one at a time through the
    leaf-to-root recursion of :func:`repro.engine.tree_contraction.
    tree_acceptance_probability` (noisy jobs through plain Kraus sums).

:class:`TransferMatrixBackend`
    Groups jobs by structure signature and evaluates each group through
    :func:`repro.engine.tree_contraction.tree_probabilities_batched`: all
    overlaps of a group come from a couple of batched Gram products on the
    device-agnostic kernels of :mod:`repro.engine.kernels`, path-shaped
    groups run the chain kernels, and the recursion is vectorized over the
    batch.  This is the fast path behind
    ``DQMAProtocol.acceptance_probabilities``.

The transfer-matrix evaluation is parameterized by an
:class:`~repro.engine.array_ops.ArrayModule` and a contraction dtype, so the
same grouping/recursion code runs on any registered array namespace:

* ``"transfer-matrix"`` — numpy, the default.
* ``"transfer-matrix-torch"`` / ``"transfer-matrix-cupy"`` — the torch /
  cupy adapters, registered only when the library is importable; the device
  is selected by ``REPRO_DEVICE`` (e.g. ``cuda``).
* ``"transfer-matrix-mock"`` — the transfer-counting mock device, always
  registered (it is numpy underneath) so adapter plumbing is testable
  without a GPU.

The contraction dtype comes from ``REPRO_DTYPE`` (or the ``dtype=``
constructor argument): ``complex128`` is the parity reference, ``complex64``
the fast path — final probabilities always accumulate in host float64, and
the parity tests enforce the per-dtype tolerance schedule of
:func:`~repro.engine.array_ops.parity_tolerance`.

Jobs carrying a :class:`~repro.engine.jobs.TreeNoise` channel annotation
evaluate on a density-matrix variant of each path: registers become
densities pushed through their link/node channels, squared overlaps become
Hilbert-Schmidt traces and each test factor passes the readout-error flip.
The transfer-matrix backend contracts whole noisy groups — including sweeps
where every job carries a different noise strength — in one stacked
product.  Clean jobs are untouched: an absent or structurally empty
annotation keeps the pure-state fast path bit for bit.

Backends are registered by name so experiment configuration can select them
with a string (``"dense"`` / ``"transfer-matrix"`` / ``"transfer-matrix-
torch"``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Type, Union

import numpy as np

from repro.engine.array_ops import (
    ArrayModule,
    get_array_module,
    module_available,
    resolve_dtype,
)
from repro.engine.jobs import TreeJob
from repro.engine.tree_contraction import (
    tree_acceptance_probability,
    tree_probabilities_batched,
)
from repro.exceptions import ProtocolError


class SimulationBackend(ABC):
    """Interface every simulation backend implements."""

    #: Registry name of the backend; subclasses must override.
    name: str = ""

    @abstractmethod
    def tree_probabilities(self, jobs: Sequence[TreeJob]) -> np.ndarray:
        """Acceptance probability of every job, as a float array."""

    def tree_probability(self, job: TreeJob) -> float:
        """Acceptance probability of a single job."""
        return float(self.tree_probabilities([job])[0])

    def describe(self) -> Dict[str, str]:
        """Dispatch metadata: backend, array module, device and dtype names.

        Recorded in benchmark metadata so saved perf trajectories state
        which namespace/device/dtype produced each number.
        """
        return {
            "backend": self.name,
            "array_module": "numpy",
            "device": "cpu",
            "dtype": "complex128",
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class DenseBackend(SimulationBackend):
    """Reference backend: scalar, one-job-at-a-time tree recursion."""

    name = "dense"

    def tree_probabilities(self, jobs: Sequence[TreeJob]) -> np.ndarray:
        return np.array(
            [tree_acceptance_probability(job) for job in jobs], dtype=np.float64
        )


class TransferMatrixBackend(SimulationBackend):
    """Batched backend: stacked contraction per job signature.

    The grouping and recursion logic is array-namespace-agnostic: the heavy
    per-group contractions run through :mod:`repro.engine.kernels` on this
    backend's :class:`~repro.engine.array_ops.ArrayModule` (``array_module``
    constructor argument, or the class default) in the configured
    contraction dtype (``dtype=`` argument > ``REPRO_DTYPE`` > complex128).
    """

    name = "transfer-matrix"

    #: Array-module registry name instantiated by default; device subclasses
    #: (torch / cupy / mock) override this single attribute.
    array_module = "numpy"

    def __init__(
        self,
        array_module: Union[str, ArrayModule, None] = None,
        dtype: Union[str, np.dtype, type, None] = None,
        device: Optional[str] = None,
    ):
        if array_module is None:
            array_module = type(self).array_module
        self.xp = get_array_module(array_module, device=device)
        self.dtype = resolve_dtype(dtype)

    def describe(self) -> Dict[str, str]:
        return {
            "backend": self.name,
            "array_module": self.xp.name,
            "device": self.xp.device,
            "dtype": np.dtype(self.dtype).name,
        }

    def tree_probabilities(self, jobs: Sequence[TreeJob]) -> np.ndarray:
        return tree_probabilities_batched(jobs, xp=self.xp, dtype=self.dtype)


class MockDeviceTransferMatrixBackend(TransferMatrixBackend):
    """Transfer-matrix contraction on the transfer-counting mock device.

    Numerically identical to the numpy backend (same kernels, numpy math
    underneath) while its ``xp`` counts every host<->device transfer — the
    test double proving adapter plumbing without a GPU.
    """

    name = "transfer-matrix-mock"
    array_module = "mock"


class TorchTransferMatrixBackend(TransferMatrixBackend):
    """Transfer-matrix contraction through torch (``REPRO_DEVICE`` selects)."""

    name = "transfer-matrix-torch"
    array_module = "torch"


class CupyTransferMatrixBackend(TransferMatrixBackend):
    """Transfer-matrix contraction through cupy (CUDA)."""

    name = "transfer-matrix-cupy"
    array_module = "cupy"


BackendFactory = Callable[[], SimulationBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(
    backend: Union[Type[SimulationBackend], BackendFactory],
    name: Optional[str] = None,
) -> Union[Type[SimulationBackend], BackendFactory]:
    """Register a backend class or zero-argument factory (usable as decorator).

    Classes register under their ``name`` attribute; bare factories must
    pass ``name=`` explicitly.
    """
    name = name or getattr(backend, "name", "")
    if not name:
        raise ProtocolError("simulation backends must define a non-empty name")
    _BACKENDS[name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of every registered backend."""
    return sorted(_BACKENDS)


def get_backend(backend: Union[str, SimulationBackend, None]) -> SimulationBackend:
    """Resolve a backend instance from a name, an instance, or ``None`` (default)."""
    if backend is None:
        backend = TransferMatrixBackend.name
    if isinstance(backend, SimulationBackend):
        return backend
    try:
        factory = _BACKENDS[backend]
    except KeyError:
        raise ProtocolError(
            f"unknown simulation backend {backend!r}; available: {available_backends()}"
        ) from None
    return factory()


register_backend(DenseBackend)
register_backend(TransferMatrixBackend)
register_backend(MockDeviceTransferMatrixBackend)
# Device adapters register only when their library is importable, so the
# default environment stays dependency-free and ``available_backends()``
# reflects what can actually run here.
if module_available("torch"):
    register_backend(TorchTransferMatrixBackend)
if module_available("cupy"):
    register_backend(CupyTransferMatrixBackend)
