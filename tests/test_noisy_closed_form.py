"""The closed-form depolarizing route of the noisy chain kernel.

:func:`repro.engine.kernels.noisy_chain_probabilities` picks its route from
the channel types of a group: depolarizing-only grids (``None`` and identity
entries included) never build a density matrix, every other grid runs the
density pipeline.  The same noisy path jobs are evaluated three ways and must
agree at the contraction dtype's parity tolerance:

* with :func:`depolarizing_channel`, which takes the closed form;
* with a generic :class:`KrausChannel` carrying the same Kraus operators,
  which takes the density pipeline;
* on the dense scalar reference backend.
"""

import numpy as np
import pytest

from repro.engine import (
    RIGHT_DENSE,
    RIGHT_PROJECTOR,
    RIGHT_SWAP,
    Engine,
    TransferMatrixBackend,
    kernels,
    parity_tolerance,
    path_job,
    path_noise,
)
from repro.exceptions import DimensionMismatchError
from repro.quantum.channels import (
    KrausChannel,
    dephasing_channel,
    depolarizing_channel,
    depolarizing_survivals,
    identity_channel,
)
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import outer

RIGHT_KINDS = (RIGHT_DENSE, RIGHT_PROJECTOR, RIGHT_SWAP)
DIM = 3


def _generic_depolarizing(strength, dim):
    """The depolarizing channel as a plain Kraus list (density pipeline)."""
    return KrausChannel(
        "depolarizing", depolarizing_channel(strength, dim).kraus, (strength,)
    )


def _random_jobs(rng, num_intermediate, right_kind, make_channel, batch=4):
    """Noisy path jobs with node, edge, left, right and readout noise.

    Strengths are drawn from ``rng`` before any channel is built, so two calls
    with equally seeded generators give the same jobs whatever ``make_channel``
    is.  About a third of the strengths are exactly 0.
    """
    m = num_intermediate
    jobs = []
    for _ in range(batch):
        strengths = rng.uniform(0.0, 1.0, size=2 * m + 3)
        strengths[rng.uniform(size=strengths.size) < 0.3] = 0.0
        readout = float(rng.uniform(0.0, 0.1))
        left = haar_random_state(DIM, rng=rng)
        pairs = [
            (haar_random_state(DIM, rng=rng), haar_random_state(DIM, rng=rng))
            for _ in range(m)
        ]
        if right_kind == RIGHT_DENSE:
            right = 0.6 * outer(haar_random_state(DIM, rng=rng)) + 0.4 * np.eye(DIM) / DIM
        else:
            right = haar_random_state(DIM, rng=rng)
        channels = [make_channel(float(p), DIM) for p in strengths]
        noise = path_noise(
            edge_channels=channels[: m + 1],
            node_channels=channels[m + 1 : 2 * m + 1],
            left_channel=channels[2 * m + 1],
            right_channel=None if right_kind == RIGHT_DENSE else channels[2 * m + 2],
            readout_error=readout,
        )
        jobs.append(path_job(left, pairs, right, right_kind=right_kind, noise=noise))
    return jobs


@pytest.fixture
def routes(monkeypatch):
    """Counts closed-form groups and density-pipeline grid applications."""
    calls = {"closed_form": 0, "density": 0}
    closed_form = kernels._depolarizing_chain_probabilities
    density = kernels.apply_noise_grid

    def counted_closed_form(*args, **kwargs):
        calls["closed_form"] += 1
        return closed_form(*args, **kwargs)

    def counted_density(*args, **kwargs):
        calls["density"] += 1
        return density(*args, **kwargs)

    monkeypatch.setattr(kernels, "_depolarizing_chain_probabilities", counted_closed_form)
    monkeypatch.setattr(kernels, "apply_noise_grid", counted_density)
    return calls


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("right_kind", RIGHT_KINDS)
@pytest.mark.parametrize("num_intermediate", [0, 1, 2, 5, 17])
def test_closed_form_matches_density_pipeline_and_dense(
    num_intermediate, right_kind, dtype, routes
):
    seed = [7, num_intermediate, RIGHT_KINDS.index(right_kind)]
    closed_jobs = _random_jobs(
        np.random.default_rng(seed), num_intermediate, right_kind, depolarizing_channel
    )
    kraus_jobs = _random_jobs(
        np.random.default_rng(seed), num_intermediate, right_kind, _generic_depolarizing
    )
    backend = TransferMatrixBackend(dtype=dtype)

    closed = backend.tree_probabilities(closed_jobs)
    assert routes == {"closed_form": 1, "density": 0}
    density = backend.tree_probabilities(kraus_jobs)
    assert routes["closed_form"] == 1 and routes["density"] > 0
    dense = Engine(backend="dense").job_probabilities(closed_jobs)

    tolerance = parity_tolerance(dtype)
    np.testing.assert_allclose(closed, density, rtol=0, atol=tolerance)
    np.testing.assert_allclose(closed, dense, rtol=0, atol=tolerance)


@pytest.mark.parametrize("right_kind", RIGHT_KINDS)
def test_identity_channels_stay_on_the_closed_form(right_kind, routes):
    def identity_or_depolarizing(strength, dim):
        return identity_channel(dim) if strength > 0.6 else depolarizing_channel(strength, dim)

    jobs = _random_jobs(np.random.default_rng(11), 3, right_kind, identity_or_depolarizing)
    values = TransferMatrixBackend().tree_probabilities(jobs)
    assert routes == {"closed_form": 1, "density": 0}
    np.testing.assert_allclose(
        values, Engine(backend="dense").job_probabilities(jobs), rtol=0, atol=1e-9
    )


def test_one_dephasing_link_takes_the_density_pipeline(routes):
    rng = np.random.default_rng(5)
    m = 4
    jobs = []
    for index in range(6):
        edges = [depolarizing_channel(0.1 * (j + 1), DIM) for j in range(m + 1)]
        if index % 2:
            edges[2] = dephasing_channel(0.3, DIM)
        noise = path_noise(
            edge_channels=edges,
            node_channels=[depolarizing_channel(0.05, DIM)] * m,
            left_channel=depolarizing_channel(0.2, DIM),
            right_channel=depolarizing_channel(0.15, DIM),
            readout_error=0.03,
        )
        pairs = [
            (haar_random_state(DIM, rng=rng), haar_random_state(DIM, rng=rng))
            for _ in range(m)
        ]
        jobs.append(
            path_job(
                haar_random_state(DIM, rng=rng),
                pairs,
                haar_random_state(DIM, rng=rng),
                right_kind=RIGHT_SWAP,
                noise=noise,
            )
        )
    values = TransferMatrixBackend().tree_probabilities(jobs)
    assert routes["closed_form"] == 0 and routes["density"] > 0
    np.testing.assert_allclose(
        values, Engine(backend="dense").job_probabilities(jobs), rtol=0, atol=1e-9
    )


def test_depolarizing_survivals():
    grid = [
        [None, identity_channel(2), depolarizing_channel(0.25, 2)],
        [depolarizing_channel(0.0, 5), depolarizing_channel(1.0, 2), None],
    ]
    np.testing.assert_array_equal(
        depolarizing_survivals(grid, 2), [[1.0, 1.0, 0.75], [1.0, 0.0, 1.0]]
    )
    assert depolarizing_survivals([[None, dephasing_channel(0.1, 2)]], 2) is None
    assert depolarizing_survivals([[_generic_depolarizing(0.1, 2)]], 2) is None
    with pytest.raises(DimensionMismatchError):
        depolarizing_survivals([[depolarizing_channel(0.1, 3)]], 2)
