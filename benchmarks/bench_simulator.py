"""Performance benchmarks of the simulation substrate and an ablation study.

These do not correspond to a table of the paper; they measure the building
blocks every experiment relies on (SWAP / permutation tests, the chain
contraction, fingerprint construction) and quantify the effect of the paper's
design choices:

* ablation 1 — symmetrization: Algorithm 3 versus the FGNP21 baseline on the
  same no-instance (the improvement motivating Section 3),
* ablation 2 — permutation test versus pairwise SWAP tests at a high-degree
  node of the verification tree (the improvement enabling t-independent local
  proofs).
"""

from __future__ import annotations

import numpy as np

from repro.engine import TransferMatrixBackend, path_job
from repro.protocols.chain import chain_acceptance_probability
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.fgnp21 import Fgnp21EqualityProtocol
from repro.network.topology import star_network
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.quantum.gates import _swap_unitary_cached, swap_unitary
from repro.quantum.permutation_test import permutation_test_accept_probability_product
from repro.quantum.random_states import haar_random_state
from repro.quantum.states import outer
from repro.quantum.swap_test import (
    _swap_test_projector_cached,
    swap_test_accept_probability_pure,
    swap_test_projector,
)

from conftest import best_of, emit_table, record_engine_metadata, timing_assertions_enabled
from repro.experiments.records import ExperimentRow

FINGERPRINTS = ExactCodeFingerprint(4, rng=13)


def test_swap_test_throughput(benchmark):
    """Single SWAP-test acceptance computation on 32-dimensional registers."""
    a = haar_random_state(32, rng=0)
    b = haar_random_state(32, rng=1)
    value = benchmark(swap_test_accept_probability_pure, a, b)
    assert 0.5 <= value <= 1.0


def test_permutation_test_throughput(benchmark):
    """Permutation-test acceptance for five 16-dimensional registers (permanent formula)."""
    states = [haar_random_state(16, rng=i) for i in range(5)]
    value = benchmark(permutation_test_accept_probability_product, states)
    assert 0.0 <= value <= 1.0


def test_chain_contraction_throughput(benchmark):
    """Transfer-matrix contraction of a 40-node chain with 32-dimensional fingerprints.

    Times the engine's path: ``path_job`` plus the batched backend's
    ``tree_probabilities``, checked against the scalar chain recursion.
    """
    left = haar_random_state(32, rng=2)
    pairs = [(haar_random_state(32, rng=10 + i), haar_random_state(32, rng=50 + i)) for i in range(39)]
    operator = outer(haar_random_state(32, rng=3))
    backend = TransferMatrixBackend()

    def contract():
        return backend.tree_probabilities([path_job(left, pairs, operator)])[0]

    value = benchmark(contract)
    assert abs(value - chain_acceptance_probability(left, pairs, operator)) <= 1e-9


def test_fingerprint_construction_throughput(benchmark):
    """Construction of a fingerprint state from the verified random linear code."""
    scheme = ExactCodeFingerprint(8, rng=21)

    def build():
        scheme._cache.clear()
        return scheme.state("10110100")

    state = benchmark(build)
    assert np.isclose(np.linalg.norm(state), 1.0)


def test_swap_operator_cache_hit(benchmark):
    """Cached retrieval of the SWAP unitary and test projector (dim 32)."""
    swap_unitary(32)  # populate both caches
    swap_test_projector(32)

    def cached():
        return swap_unitary(32), swap_test_projector(32)

    swap, projector = benchmark(cached)
    record_engine_metadata(benchmark)
    assert swap.shape == (1024, 1024) and projector.shape == (1024, 1024)

    if not timing_assertions_enabled(benchmark):
        return  # functional smoke pass: skip wall-clock comparisons

    # Quantify the win: time a cold construction against a cache hit.
    def cold():
        _swap_unitary_cached.cache_clear()
        _swap_test_projector_cached.cache_clear()
        return swap_unitary(32), swap_test_projector(32)

    cold_time = best_of(cold, repeats=5)
    warm_time = best_of(cached, repeats=5)
    emit_table(
        "SWAP operator construction — lru_cache win (dim 32)",
        [
            ExperimentRow("swap-cache", "cold construction", {"seconds": cold_time}),
            ExperimentRow("swap-cache", "cache hit", {"seconds": warm_time}),
            ExperimentRow("swap-cache", "speedup", {"ratio": cold_time / max(warm_time, 1e-12)}),
        ],
    )
    assert warm_time < cold_time


def test_ablation_symmetrization(benchmark):
    """Ablation: Algorithm 3 (symmetrized) versus the FGNP21 baseline on one no-instance."""
    improved = EqualityPathProtocol.on_path(4, 5, FINGERPRINTS)
    baseline = Fgnp21EqualityProtocol.on_path(4, 5, FINGERPRINTS)
    no_instance = ("1011", "1010")

    def run():
        return (
            improved.acceptance_probability(no_instance),
            baseline.acceptance_probability(no_instance),
        )

    improved_acceptance, baseline_acceptance = benchmark(run)
    emit_table(
        "Ablation — symmetrization step (no-instance acceptance, lower is better)",
        [
            ExperimentRow("ablation", "Algorithm 3 (with symmetrization)", {"acceptance": improved_acceptance}),
            ExperimentRow("ablation", "FGNP21 baseline (probabilistic forwarding)", {"acceptance": baseline_acceptance}),
        ],
    )
    assert improved_acceptance <= baseline_acceptance + 1e-9


def test_ablation_permutation_test_vs_pairwise(benchmark):
    """Ablation: one permutation test versus the FGNP21-style cost at a degree-t node."""
    network = star_network(4)
    tree_protocol = EqualityTreeProtocol(network, FINGERPRINTS)
    inputs_no = ("1011", "1011", "1011", "0100")

    def run():
        return tree_protocol.acceptance_probability(inputs_no)

    acceptance = benchmark(run)
    rows = [
        ExperimentRow(
            "ablation",
            "Permutation test at the centre (local proof qubits)",
            {
                "local_proof_qubits": tree_protocol.local_proof_qubits(),
                "no_instance_acceptance": acceptance,
            },
        ),
        ExperimentRow(
            "ablation",
            "FGNP21-style pairwise tests (local proof qubits, t-dependent)",
            {
                "local_proof_qubits": tree_protocol.local_proof_qubits() * (network.num_terminals - 1),
                "no_instance_acceptance": None,
            },
        ),
    ]
    emit_table("Ablation — permutation test versus pairwise SWAP tests", rows)
    assert acceptance < 1.0
