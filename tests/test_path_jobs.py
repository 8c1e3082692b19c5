"""Path jobs: the symmetrized SWAP-test chain as a :class:`TreeJob`.

Three guarantees of the one-job-type engine:

* the batched path evaluation agrees with the independent scalar chain
  oracle :func:`repro.protocols.chain.chain_acceptance_probability` on both
  sides of the Gram/adjacent row-count switch, in both contraction dtypes;
* path-shaped signature groups — whether built by :func:`path_job` or node
  by node — run on the chain kernels, and nothing else does;
* a noisy job cannot share a state row between two owners, since each row
  takes exactly one owner's channels.
"""

import numpy as np
import pytest

from repro.engine import (
    MEAS_DIAGONAL,
    MEAS_MATCH_ANY,
    MEAS_PROJECTOR,
    MEAS_THRESHOLD,
    NODE_FIXED,
    NODE_SYM,
    RIGHT_DENSE,
    RIGHT_PROJECTOR,
    RIGHT_SWAP,
    TEST_MEASURE,
    TEST_NONE,
    TEST_PERM,
    LeafMeasurement,
    MeasurementSpec,
    TransferMatrixBackend,
    TreeJob,
    TreeJobBuilder,
    TreeNoise,
    kernels,
    parity_tolerance,
    path_job,
    path_noise,
    tree_acceptance_probability,
)
from repro.exceptions import ProtocolError
from repro.protocols.chain import chain_acceptance_probability, right_end_swap_operator
from repro.quantum.channels import depolarizing_channel
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import outer

RIGHT_KINDS = (RIGHT_DENSE, RIGHT_PROJECTOR, RIGHT_SWAP)

PATH_KERNELS = (
    "chain_gram_probabilities",
    "chain_adjacent_probabilities",
    "chain_terminal_probabilities",
    "noisy_chain_probabilities",
)


def _random_chain(rng, num_intermediate, dim, right_kind):
    """``(left, pairs, right, dense accept operator)`` of a random chain."""
    left = haar_random_state(dim, rng=rng)
    pairs = [
        (haar_random_state(dim, rng=rng), haar_random_state(dim, rng=rng))
        for _ in range(num_intermediate)
    ]
    if right_kind == RIGHT_DENSE:
        right = 0.7 * outer(haar_random_state(dim, rng=rng)) + 0.3 * np.eye(dim) / dim
        return left, pairs, right, right
    phi = haar_random_state(dim, rng=rng)
    operator = outer(phi) if right_kind == RIGHT_PROJECTOR else right_end_swap_operator(phi)
    return left, pairs, phi, operator


def _node_by_node(left, pairs, right, right_kind, num_factors=1):
    """The same chain through TreeJobBuilder: rows in tree-node order."""
    builder = TreeJobBuilder(num_factors=num_factors)
    if right_kind == RIGHT_DENSE:
        measurement = MeasurementSpec(kind=RIGHT_DENSE, operator=right)
    else:
        targets = tuple(right) if num_factors > 1 else (right,)
        measurement = MeasurementSpec(kind=right_kind, targets=targets)
    parent = builder.add_node(-1, NODE_FIXED, test=TEST_MEASURE, measurement=measurement)
    for pair in reversed(pairs):
        parent = builder.add_node(parent, NODE_SYM, registers=pair, test=TEST_PERM)
    builder.add_node(parent, NODE_FIXED, registers=(left,))
    return builder.build()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of every chain kernel (tree_contraction calls them by name)."""
    calls = {name: 0 for name in PATH_KERNELS}
    for name in PATH_KERNELS:
        original = getattr(kernels, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return calls


class TestChainOracle:
    """Batched path jobs == the scalar chain transfer recursion."""

    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    @pytest.mark.parametrize("right_kind", RIGHT_KINDS)
    @pytest.mark.parametrize("num_intermediate", [0, 1, 2, 16, 17, 20])
    def test_random_clean_paths_match_the_chain_oracle(
        self, num_intermediate, right_kind, dtype
    ):
        # m = 16 is the last Gram-product shape (2m + 2 = 34 rows), m = 17
        # the first adjacent-contraction one.
        rng = np.random.default_rng(1000 + num_intermediate)
        jobs, expected = [], []
        for _ in range(4):
            left, pairs, right, operator = _random_chain(rng, num_intermediate, 3, right_kind)
            jobs.append(path_job(left, pairs, right, right_kind=right_kind))
            expected.append(chain_acceptance_probability(left, pairs, operator))
        values = TransferMatrixBackend(dtype=dtype).tree_probabilities(jobs)
        np.testing.assert_allclose(values, expected, atol=parity_tolerance(dtype))


class TestPathRouting:
    """Path-shaped groups reach the chain kernels; other shapes never do."""

    @pytest.mark.parametrize(
        "num_intermediate, kernel",
        [
            (0, "chain_terminal_probabilities"),
            (3, "chain_gram_probabilities"),
            (16, "chain_gram_probabilities"),
            (17, "chain_adjacent_probabilities"),
        ],
    )
    @pytest.mark.parametrize("right_kind", RIGHT_KINDS)
    def test_clean_paths_reach_the_row_count_kernel(
        self, kernel_calls, num_intermediate, kernel, right_kind
    ):
        rng = np.random.default_rng(7)
        left, pairs, right, _ = _random_chain(rng, num_intermediate, 3, right_kind)
        jobs = [
            path_job(left, pairs, right, right_kind=right_kind),
            _node_by_node(left, pairs, right, right_kind),
        ]
        values = TransferMatrixBackend().tree_probabilities(jobs)
        # One kernel call per signature: the row layouts differ unless the
        # path is a bare dense measurement of the left state.
        groups = len({job.signature for job in jobs})
        assert groups == (1 if (num_intermediate, right_kind) == (0, RIGHT_DENSE) else 2)
        assert kernel_calls == {name: groups * (name == kernel) for name in PATH_KERNELS}
        reference = tree_acceptance_probability(jobs[1])
        np.testing.assert_allclose(values, [reference, reference], atol=1e-12)

    def test_honest_broadcast_jobs_share_rows_and_structure(self, kernel_calls):
        rng = np.random.default_rng(8)
        state = haar_random_state(4, rng=rng)
        phi = haar_random_state(4, rng=rng)
        honest = [
            path_job(state, np.broadcast_to(state, (20, 2, 4)), phi, RIGHT_PROJECTOR)
            for _ in range(3)
        ]
        # Left, the one shared pair state and the target: three rows.
        assert honest[0].factors[0].shape == (3, 4)
        assert honest[0].signature is honest[2].signature
        expanded = path_job(state, [(state, state)] * 20, phi, RIGHT_PROJECTOR)
        values = TransferMatrixBackend().tree_probabilities(honest + [expanded])
        assert kernel_calls["chain_adjacent_probabilities"] == 2
        np.testing.assert_allclose(values, values[-1], atol=1e-12)
        assert values[-1] == pytest.approx(tree_acceptance_probability(expanded), abs=1e-12)

    @pytest.mark.parametrize("right_kind", RIGHT_KINDS)
    def test_noisy_paths_reach_the_noisy_chain_kernel(self, kernel_calls, right_kind):
        rng = np.random.default_rng(9)
        dim = 3
        left, pairs, right, _ = _random_chain(rng, 2, dim, right_kind)
        noise = path_noise(
            edge_channels=[depolarizing_channel(0.1 * (j + 1), dim) for j in range(3)],
            node_channels=[depolarizing_channel(0.05, dim)] * 2,
            left_channel=depolarizing_channel(0.02, dim),
            right_channel=(
                None if right_kind == RIGHT_DENSE else depolarizing_channel(0.03, dim)
            ),
            readout_error=0.01,
        )
        job = path_job(left, pairs, right, right_kind=right_kind, noise=noise)
        value = TransferMatrixBackend().tree_probability(job)
        assert kernel_calls == {
            name: int(name == "noisy_chain_probabilities") for name in PATH_KERNELS
        }
        assert value == pytest.approx(tree_acceptance_probability(job), abs=1e-9)

    def test_non_path_trees_use_the_generic_contraction(self, kernel_calls):
        rng = np.random.default_rng(10)
        builder = TreeJobBuilder()
        root = builder.add_node(
            -1,
            NODE_SYM,
            registers=(haar_random_state(3, rng=rng), haar_random_state(3, rng=rng)),
            test=TEST_PERM,
        )
        for _ in range(2):
            builder.add_node(root, NODE_FIXED, registers=(haar_random_state(3, rng=rng),))
        job = builder.build()
        value = TransferMatrixBackend().tree_probability(job)
        assert sum(kernel_calls.values()) == 0
        assert value == pytest.approx(tree_acceptance_probability(job), abs=1e-12)

    def test_multi_factor_paths_use_the_generic_contraction(self, kernel_calls):
        rng = np.random.default_rng(11)

        def register():
            return (haar_random_state(2, rng=rng), haar_random_state(3, rng=rng))

        job = _node_by_node(
            register(), [(register(), register())], register(), RIGHT_SWAP, num_factors=2
        )
        value = TransferMatrixBackend().tree_probability(job)
        assert sum(kernel_calls.values()) == 0
        assert value == pytest.approx(tree_acceptance_probability(job), abs=1e-12)

    @pytest.mark.parametrize("kind", [MEAS_DIAGONAL, MEAS_MATCH_ANY, MEAS_THRESHOLD])
    def test_other_root_measurements_use_the_generic_contraction(self, kernel_calls, kind):
        rng = np.random.default_rng(12)
        if kind == MEAS_DIAGONAL:
            measurement = MeasurementSpec(kind=kind, operator=np.array([0.9, 0.5, 0.1]))
        else:
            measurement = MeasurementSpec(
                kind=kind, targets=(haar_random_state(3, rng=rng),), threshold=1
            )
        builder = TreeJobBuilder()
        parent = builder.add_node(-1, NODE_FIXED, test=TEST_MEASURE, measurement=measurement)
        parent = builder.add_node(
            parent,
            NODE_SYM,
            registers=(haar_random_state(3, rng=rng), haar_random_state(3, rng=rng)),
            test=TEST_PERM,
        )
        builder.add_node(parent, NODE_FIXED, registers=(haar_random_state(3, rng=rng),))
        job = builder.build()
        value = TransferMatrixBackend().tree_probability(job)
        assert sum(kernel_calls.values()) == 0
        assert value == pytest.approx(tree_acceptance_probability(job), abs=1e-12)


def _two_node_job(slots, target_row, noise):
    """A measuring root over one symmetrized node over a fixed leaf."""
    states = np.stack([haar_random_state(2, rng=seed) for seed in range(4)])
    return TreeJob(
        parents=(-1, 0, 1),
        kinds=(NODE_FIXED, NODE_SYM, NODE_FIXED),
        tests=(TEST_MEASURE, TEST_PERM, TEST_NONE),
        slots=slots,
        factors=(states,),
        measurements=(
            LeafMeasurement(kind=MEAS_PROJECTOR, target_row=target_row),
            None,
            None,
        ),
        noise=noise,
    )


class TestNoisyRowOwnership:
    """A noisy job's rows each belong to one node (or one measurement target)."""

    NOISE = TreeNoise(
        up_channels=(None, depolarizing_channel(0.2, 2), depolarizing_channel(0.1, 2)),
        node_channels=(None, None, None),
    )

    def test_row_held_by_two_nodes_is_rejected(self):
        with pytest.raises(ProtocolError, match="share state row 1"):
            _two_node_job(((), (1, 2), (1,)), 3, self.NOISE)

    def test_row_held_by_a_node_and_a_target_is_rejected(self):
        with pytest.raises(ProtocolError, match="measurement target"):
            _two_node_job(((), (1, 2), (0,)), 2, self.NOISE)

    def test_clean_jobs_may_share_rows(self):
        shared = _two_node_job(((), (1, 1), (1,)), 3, None)
        assert 0.0 <= tree_acceptance_probability(shared) <= 1.0
        assert TransferMatrixBackend().tree_probability(shared) == pytest.approx(
            tree_acceptance_probability(shared), abs=1e-12
        )

    def test_distinct_rows_are_accepted(self):
        job = _two_node_job(((), (1, 2), (0,)), 3, self.NOISE)
        assert job.is_noisy


def test_path_noise_needs_one_more_edge_than_nodes():
    channel = depolarizing_channel(0.1, 2)
    with pytest.raises(ProtocolError):
        path_noise(edge_channels=(channel,), node_channels=(channel,))


def test_tree_noise_key_is_value_level():
    def noise(strength):
        return path_noise(
            edge_channels=(depolarizing_channel(strength, 2),) * 2,
            node_channels=(None,),
            readout_error=0.01,
        )

    assert noise(0.1).key == noise(0.1).key
    assert noise(0.1).key != noise(0.2).key
