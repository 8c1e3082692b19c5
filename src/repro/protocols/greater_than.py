"""dQMA protocol for the greater-than function (Section 5.1, Algorithm 7).

The key observation is that ``GT(x, y) = 1`` iff there is an index ``i`` with
``x_i = 1``, ``y_i = 0`` and ``x[i] = y[i]`` (equal prefixes).  The prover
therefore sends a classical index ``i`` (as a basis state of an *index
register*) to every node together with fingerprints of the common prefix, the
nodes compare the indices along the path, the extremities check their own bit
at position ``i``, and the fingerprint chain of Algorithm 3 verifies the
prefix equality.  The non-strict variants ``GT_>=`` and ``GT_<=``
(Corollary 28) extend the index domain with a sentinel value meaning
"the strings are equal", in which case the chain verifies full-string
equality and the bit checks are skipped.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.problems import GreaterThanProblem
from repro.exceptions import ProtocolError
from repro.network.topology import Network, NodeId, path_network
from repro.protocols.base import (
    DQMAProtocol,
    ProductProof,
    ProofRegister,
    RepeatedProtocol,
)
from repro.engine import RIGHT_SWAP, TreeJob, TreeProgram, path_job
from repro.protocols.equality import _ordered_path_nodes
from repro.quantum.fingerprint import ExactCodeFingerprint, FingerprintScheme
from repro.quantum.states import basis_state


class GreaterThanPathProtocol(DQMAProtocol):
    """Algorithm 7: the dQMA protocol for ``GT`` (and variants) on a path."""

    def __init__(
        self,
        network: Network,
        fingerprints: FingerprintScheme,
        variant: str = ">",
        problem: Optional[GreaterThanProblem] = None,
        index_dim: Optional[int] = None,
    ):
        if problem is None:
            problem = GreaterThanProblem(fingerprints.input_length, variant=variant)
        if problem.input_length != fingerprints.input_length:
            raise ProtocolError("fingerprint scheme and problem disagree on the input length")
        if problem.variant != variant:
            raise ProtocolError("problem variant does not match the protocol variant")
        super().__init__(problem, network)
        self.fingerprints = fingerprints
        self.variant = variant
        self.path_nodes = _ordered_path_nodes(network)
        self.path_length = len(self.path_nodes) - 1
        self.index_dim = self._index_dim() if index_dim is None else int(index_dim)
        if self.index_dim < self._index_dim():
            raise ProtocolError(
                "index register dimension is too small for the chosen variant"
            )

    @classmethod
    def on_path(
        cls,
        input_length: int,
        path_length: int,
        variant: str = ">",
        fingerprints: Optional[FingerprintScheme] = None,
    ) -> "GreaterThanPathProtocol":
        """Convenience constructor on the standard path ``v0 .. v_r``."""
        if fingerprints is None:
            fingerprints = ExactCodeFingerprint(input_length)
        return cls(path_network(path_length), fingerprints, variant=variant)

    # -- index handling --------------------------------------------------------

    def _index_dim(self) -> int:
        n = self.problem.input_length
        # Non-strict variants use an extra sentinel index meaning "x = y".
        return n + 1 if self.variant in (">=", "<=") else n

    @property
    def _equality_sentinel(self) -> Optional[int]:
        return self.problem.input_length if self.variant in (">=", "<=") else None

    def _padded_prefix(self, value: str, index: int) -> str:
        """The prefix ``value[:index]`` padded with zeros to the full input length."""
        n = self.problem.input_length
        if index >= n:
            return value
        prefix = value[:index]
        return prefix + "0" * (n - len(prefix))

    def _endpoint_checks(self, inputs: Sequence[str], index: int) -> bool:
        """The deterministic bit checks of ``v_0`` and ``v_r`` for a measured index."""
        x, y = inputs
        if index == self._equality_sentinel:
            return True
        if index >= self.problem.input_length:
            # Out-of-range index values (possible when the index register was
            # widened to align with another variant) are rejected outright.
            return False
        if self.variant in (">", ">="):
            return x[index] == "1" and y[index] == "0"
        return x[index] == "0" and y[index] == "1"

    def honest_index(self, inputs: Sequence[str]) -> int:
        """The index the honest prover sends for a yes-instance."""
        inputs = self.problem.validate_inputs(inputs)
        x, y = inputs
        if self.variant in (">=", "<=") and x == y:
            return self._equality_sentinel
        witness = self.problem.witness_index(x, y)
        if witness is None:
            # No witness exists on a no-instance; an honest-but-wrong prover
            # simply claims index 0.
            return 0
        return witness

    # -- layout -----------------------------------------------------------------

    def _index_register_name(self, node_index: int) -> str:
        return f"I[{node_index}]"

    def _fingerprint_register_name(self, node_index: int, slot: int) -> str:
        return f"R[{node_index},{slot}]"

    def proof_registers(self) -> List[ProofRegister]:
        registers = []
        for index in range(self.path_length + 1):
            registers.append(
                ProofRegister(self._index_register_name(index), self.path_nodes[index], self.index_dim)
            )
        for index in range(1, self.path_length):
            node = self.path_nodes[index]
            for slot in (0, 1):
                registers.append(
                    ProofRegister(
                        self._fingerprint_register_name(index, slot), node, self.fingerprints.dim
                    )
                )
        return registers

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        messages = {}
        index_qubits = float(np.ceil(np.log2(max(self.index_dim, 2))))
        for index in range(self.path_length):
            edge = (self.path_nodes[index], self.path_nodes[index + 1])
            messages[edge] = self.fingerprints.num_qubits + index_qubits
        return messages

    # -- proofs -------------------------------------------------------------------

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        inputs = self.problem.validate_inputs(inputs)
        index = self.honest_index(inputs)
        index_state = basis_state(self.index_dim, index)
        prefix_fingerprint = self.fingerprints.state(self._padded_prefix(inputs[0], index))
        states = {}
        for node_index in range(self.path_length + 1):
            states[self._index_register_name(node_index)] = index_state
        for node_index in range(1, self.path_length):
            states[self._fingerprint_register_name(node_index, 0)] = prefix_fingerprint
            states[self._fingerprint_register_name(node_index, 1)] = prefix_fingerprint
        return ProductProof(states)

    # -- acceptance -----------------------------------------------------------------

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> TreeProgram:
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            proof = self.honest_proof(inputs)
        else:
            self.validate_proof(proof)

        # Probability of measuring index value i at node j.
        index_probabilities = []
        for node_index in range(self.path_length + 1):
            amplitudes = proof.state(self._index_register_name(node_index))
            index_probabilities.append(np.abs(amplitudes) ** 2)

        pairs = []
        for node_index in range(1, self.path_length):
            pairs.append(
                (
                    proof.state(self._fingerprint_register_name(node_index, 0)),
                    proof.state(self._fingerprint_register_name(node_index, 1)),
                )
            )

        # One chain job per surviving index value, weighted by the joint
        # probability of every node measuring that index.
        jobs: List[TreeJob] = []
        terms = []
        for index in range(self.index_dim):
            joint = 1.0
            for probabilities in index_probabilities:
                joint *= float(probabilities[index])
                if joint == 0.0:
                    break
            if joint == 0.0:
                continue
            if not self._endpoint_checks(inputs, index):
                continue
            left_state = self.fingerprints.state(self._padded_prefix(inputs[0], index))
            # The right end SWAP-tests against its own fingerprint of the
            # padded prefix of y: a rank-one-structured (I + |h><h|)/2 end.
            right_state = self.fingerprints.state(self._padded_prefix(inputs[1], index))
            terms.append((joint, (len(jobs),)))
            jobs.append(
                path_job(left_state, pairs, right_state, right_kind=RIGHT_SWAP)
            )
        if not jobs:
            return TreeProgram.rejecting()
        return TreeProgram(jobs=tuple(jobs), terms=tuple(terms))

    # -- paper parameters --------------------------------------------------------------

    def single_shot_soundness_gap(self) -> float:
        """Single-shot gap inherited from the equality chain: ``4 / (81 r^2)``."""
        return 4.0 / (81.0 * self.path_length**2)

    def paper_repetitions(self) -> int:
        """Repetition count ``O(r^2)`` for soundness 1/3 (Theorem 26)."""
        return int(ceil(2.0 * 81.0 * self.path_length**2 / 4.0))

    def repeated(self, repetitions: Optional[int] = None) -> RepeatedProtocol:
        """Parallel repetition of the protocol."""
        if repetitions is None:
            repetitions = self.paper_repetitions()
        return RepeatedProtocol(self, repetitions)
