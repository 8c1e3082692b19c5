"""The strategy search's proofs: shared rows, parity with a scalar loop, counts.

``fingerprint_strategy_soundness`` builds every cheating proof from rows that
are normalized once (the honest proof's and the candidate fingerprints'), and
protocols validate proofs against a register layout built once per instance.
These tests pin that the shared rows are safe (no aliasing through
``state()``, ``replaced`` normalizes only its new state), that the batched
search agrees with a scalar reference loop on the dense backend, that the
search's normalizations and layout builds stay bounded, and that the soundness
report falls back to the honest proof only on the search's two documented
preconditions.
"""

from itertools import product as iter_product

import numpy as np
import pytest

import repro.protocols.base as proof_base
from repro.analysis import soundness
from repro.analysis.soundness import (
    STRATEGY_TIE_TOLERANCE,
    entangled_soundness_report,
    fingerprint_strategy_soundness,
)
from repro.engine import Engine, parity_tolerance
from repro.exceptions import ProofError, ProtocolError
from repro.experiments.tree_soundness import network_zoo
from repro.protocols.base import ProductProof
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.quantum.channels import NoiseModel
from repro.quantum.fingerprint import ExactCodeFingerprint

FINGERPRINTS2 = ExactCodeFingerprint(2, rng=11)
FINGERPRINTS3 = ExactCodeFingerprint(3, rng=5)
CANDIDATES = ["00", "01", "10", "11"]


def _rows_identical(left: ProductProof, right: ProductProof) -> bool:
    return left.register_names == right.register_names and all(
        left.state(name).tobytes() == right.state(name).tobytes()
        for name in left.register_names
    )


def _reference_search(protocol, inputs, candidates):
    """Scalar reference: a ``replaced`` chain per strategy, one dense evaluation each."""
    fingerprints = protocol.fingerprints
    registers = [reg for reg in protocol.proof_registers() if reg.dim == fingerprints.dim]
    nodes = sorted({reg.node for reg in registers}, key=str)
    honest = protocol.honest_proof(inputs)
    labels, proofs, scratch = ["honest"], [honest], [protocol.honest_proof(inputs)]
    for combo in iter_product(candidates, repeat=len(nodes)):
        node_string = dict(zip(nodes, combo))
        proof = honest
        for register in registers:
            proof = proof.replaced(register.name, fingerprints.state(node_string[register.node]))
        labels.append(",".join(f"{node}={string}" for node, string in zip(nodes, combo)))
        proofs.append(proof)
        scratch.append(
            ProductProof(
                {reg.name: fingerprints.state(node_string[reg.node]) for reg in registers}
            )
        )
    values = np.array([protocol.acceptance_probability(inputs, proof) for proof in proofs])
    best = int(np.argmax(values >= values.max() - STRATEGY_TIE_TOLERANCE))
    return labels[best], float(values[best]), proofs[best], scratch[best]


@pytest.fixture
def normalized(monkeypatch):
    """Names of the proof rows normalized while the test runs."""
    names = []
    row = proof_base._proof_row
    monkeypatch.setattr(
        proof_base, "_proof_row", lambda name, state: names.append(name) or row(name, state)
    )
    return names


@pytest.fixture
def builds(monkeypatch):
    """``EqualityPathProtocol.proof_registers`` calls while the test runs, per instance."""
    counts = {}
    registers = EqualityPathProtocol.proof_registers

    def counting_registers(self):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return registers(self)

    monkeypatch.setattr(EqualityPathProtocol, "proof_registers", counting_registers)
    return counts


def _path(length, noise=None):
    return lambda: EqualityPathProtocol.on_path(2, length, FINGERPRINTS2, noise=noise)


PARITY_CASES = [
    ("path-r4", _path(4), ("01", "10"), CANDIDATES, None),
    ("path-r5", _path(5), ("11", "00"), CANDIDATES, None),
    (
        "path-r4-depolarizing-readout",
        _path(4),
        ("10", "01"),
        CANDIDATES,
        NoiseModel.depolarizing(0.15, FINGERPRINTS2.dim, readout_error=0.03),
    ),
    (
        "path-r4-dephasing",
        _path(4),
        ("00", "11"),
        CANDIDATES,
        NoiseModel.dephasing(0.25, FINGERPRINTS2.dim),
    ),
] + [
    (
        f"tree-{name}",
        lambda network=network: EqualityTreeProtocol(network, FINGERPRINTS3),
        ("101", "101", "011", "101"),
        None,
        None,
    )
    for name, network in network_zoo(4)
]


class TestSearchParity:
    """The batched search against a scalar ``replaced``-chain loop on the dense backend."""

    @pytest.mark.parametrize(
        "factory, inputs, candidates, noise",
        [case[1:] for case in PARITY_CASES],
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_batched_search_matches_scalar_reference(self, factory, inputs, candidates, noise):
        search = fingerprint_strategy_soundness(
            factory(), inputs, candidate_strings=candidates, noise=noise
        )
        reference = factory().use_engine(Engine(backend="dense"))
        if noise is not None:
            reference = reference.with_noise(noise)
        label, value, chained, scratch = _reference_search(
            reference, inputs, candidates or list(dict.fromkeys(inputs))
        )
        assert search.best_strategy == label
        assert abs(search.best_acceptance - value) <= parity_tolerance()
        assert _rows_identical(search.best_proof, chained)
        assert _rows_identical(search.best_proof, scratch)

    def test_parity_cases_include_cheating_winners(self):
        # A case won by the honest proof would compare no shared candidate row.
        labels = [
            fingerprint_strategy_soundness(
                factory(), inputs, candidate_strings=candidates, noise=noise
            ).best_strategy
            for _, factory, inputs, candidates, noise in PARITY_CASES
        ]
        assert sum(label != "honest" for label in labels) >= 4


class TestSharedRows:
    def test_replaced_normalizes_only_the_new_state(self, normalized):
        proof = ProductProof({"a": [3.0, 4.0], "b": [1.0, 1.0j], "c": [0.0, 2.0]})
        assert normalized == ["a", "b", "c"]
        normalized.clear()
        replaced = proof.replaced("b", [2.0, 0.0])
        assert normalized == ["b"]
        np.testing.assert_array_equal(replaced.state("b"), [1.0, 0.0])
        for name in ("a", "c"):
            assert replaced.state(name).tobytes() == proof.state(name).tobytes()
        np.testing.assert_array_equal(proof.state("b"), np.array([1.0, 1.0j]) / np.sqrt(2))

    def test_replaced_rejects_the_zero_vector(self):
        proof = ProductProof({"a": [1.0, 0.0]})
        with pytest.raises(ProofError, match="zero vector"):
            proof.replaced("a", [0.0, 0.0])

    def test_with_rows_from_shares_rows_without_normalizing(self, monkeypatch):
        proof = ProductProof({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        source = ProductProof({"x": [1.0, 1.0]})
        monkeypatch.setattr(proof_base, "_proof_row", None)
        combined = proof.with_rows_from(source, {"b": "x"})
        assert combined.state("b").tobytes() == source.state("x").tobytes()
        assert combined.state("a").tobytes() == proof.state("a").tobytes()
        with pytest.raises(ProofError, match="no state"):
            proof.with_rows_from(source, {"b": "y"})

    def test_mutating_a_returned_state_changes_no_proof(self):
        proof = ProductProof({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        replaced = proof.replaced("b", [1.0, 1.0])
        state = replaced.state("a")
        state[:] = 7.0
        np.testing.assert_array_equal(proof.state("a"), [1.0, 0.0])
        np.testing.assert_array_equal(replaced.state("a"), [1.0, 0.0])

    def test_rows_shared_across_search_proofs_stay_intact(self):
        protocol = EqualityPathProtocol.on_path(2, 4, FINGERPRINTS2)
        inputs = ("01", "10")
        first = fingerprint_strategy_soundness(protocol, inputs, candidate_strings=CANDIDATES)
        for name in first.best_proof.register_names:
            first.best_proof.state(name)[:] = 0.0
        again = fingerprint_strategy_soundness(protocol, inputs, candidate_strings=CANDIDATES)
        assert again.best_strategy == first.best_strategy
        assert again.best_acceptance == first.best_acceptance
        assert _rows_identical(first.best_proof, again.best_proof)
        for name in first.best_proof.register_names:
            assert np.isclose(np.linalg.norm(first.best_proof.state(name)), 1.0)


class TestCachedLayoutChecks:
    @pytest.mark.parametrize(
        "states, message",
        [
            (lambda ok: {k: v for k, v in ok.items() if k != "R[1,0]"}, "missing register"),
            (lambda ok: {**ok, "extra": np.ones(2)}, "unknown registers"),
            (lambda ok: {**ok, "R[2,1]": np.ones(3)}, "has dimension 3"),
        ],
        ids=["missing", "extra", "wrong-dimension"],
    )
    def test_invalid_proofs_raise_before_and_after_caching(self, states, message):
        protocol = EqualityPathProtocol.on_path(2, 4, FINGERPRINTS2)
        honest = protocol.honest_proof(("01", "10"))
        ok = {name: honest.state(name) for name in honest.register_names}
        bad = ProductProof(states(ok))
        for _ in range(2):
            with pytest.raises(ProofError, match=message):
                protocol.validate_proof(bad)
            protocol.validate_proof(honest)


class TestSearchCounts:
    """Machine-independent counts of the host work of a 1,025-strategy search."""

    def test_normalizations_and_layout_builds_are_bounded(self, normalized, builds):
        fingerprints = ExactCodeFingerprint(4, rng=11)
        protocol = EqualityPathProtocol.on_path(4, 6, fingerprints)
        candidates = ["0001", "0110", "1011", "1100"]
        result = fingerprint_strategy_soundness(
            protocol, ("0001", "0110"), candidate_strings=candidates
        )
        assert result.num_assignments + 1 == 1025
        honest_registers = len(protocol.register_layout)
        assert honest_registers == 10
        assert 0 < len(normalized) <= len(candidates) + honest_registers
        assert builds and all(count <= 1 for count in builds.values())

    def test_noisy_search_builds_each_layout_once(self, builds):
        noise = NoiseModel.depolarizing(0.1, FINGERPRINTS2.dim, readout_error=0.02)
        fingerprint_strategy_soundness(
            EqualityPathProtocol.on_path(2, 5, FINGERPRINTS2),
            ("01", "10"),
            candidate_strings=CANDIDATES,
            noise=noise,
        )
        assert builds and all(count <= 1 for count in builds.values())


class TestReportFallback:
    def test_error_raised_mid_compile_propagates(self, monkeypatch):
        protocol = EqualityPathProtocol.on_path(2, 4, FINGERPRINTS2)
        compile_program = protocol._acceptance_program

        def failing(inputs, proof):
            if proof is not None:
                raise ProtocolError("compile failed")
            return compile_program(inputs, proof)

        monkeypatch.setattr(protocol, "_acceptance_program", failing)
        with pytest.raises(ProtocolError, match="compile failed"):
            entangled_soundness_report(protocol, ("01", "10"))

    def test_over_limit_search_falls_back_to_honest(self):
        # 13 intermediate nodes, two distinct inputs: 2**13 assignments.
        protocol = EqualityPathProtocol.on_path(1, 14)
        assert 2**13 > soundness.MAX_STRATEGY_ASSIGNMENTS
        report = entangled_soundness_report(protocol, ("0", "1"))
        assert report.best_strategy == "honest"
        assert report.best_found_acceptance == report.honest_acceptance
        assert report.optimal_entangled_acceptance is None
