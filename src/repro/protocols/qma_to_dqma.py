"""From QMA one-way communication protocols to dQMA protocols (Section 7, Algorithm 10).

Theorem 42: any QMA one-way protocol (proof ``gamma`` qubits, message ``mu``
qubits) yields a dQMA protocol on a path in which the prover sends the QMA
proof to the left end ``v_0``, the left end applies Alice's unitary and feeds
the resulting pure state into the symmetrized SWAP-test chain of Algorithm 3,
and the right end applies Bob's measurement.

The flagship instantiation is the Linear Subspace Distance problem
(:class:`LSDPathProtocol`), which by Lemmas 44/45 is complete for QMA
communication protocols — this is the concrete protocol behind the
dQMA → dQMA_sep conversion of Theorem 46 and Proposition 47.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.lsd import LinearSubspaceDistanceInstance
from repro.comm.problems import TwoPartyProblem
from repro.comm.qma import LSDQMAOneWay, QMAOneWayProtocol
from repro.exceptions import ProtocolError
from repro.network.topology import Network, NodeId, path_network
from repro.protocols.base import (
    DQMAProtocol,
    ProductProof,
    ProofRegister,
    RepeatedProtocol,
)
from repro.engine import TreeProgram, path_job
from repro.protocols.equality import _ordered_path_nodes


class PromiseInstanceProblem(TwoPartyProblem):
    """A placeholder problem whose truth value is fixed by an external instance.

    Used to fit promise problems whose inputs are not bit strings (such as the
    LSD problem, whose inputs are subspaces) into the :class:`DQMAProtocol`
    interface: the terminals hold dummy one-bit inputs and the predicate value
    is the instance's promise label.
    """

    def __init__(self, label: bool):
        super().__init__(input_length=1)
        self.label = bool(label)

    @property
    def name(self) -> str:
        return f"PromiseInstance[label={self.label}]"

    def evaluate(self, inputs: Sequence[str]) -> bool:
        self.validate_inputs(inputs)
        return self.label


class QMAOneWayToPathProtocol(DQMAProtocol):
    """Algorithm 10: the dQMA protocol ``P_QMAcc`` built from a QMA one-way protocol."""

    def __init__(
        self,
        network: Network,
        qma_protocol: QMAOneWayProtocol,
        problem: TwoPartyProblem,
        alice_input: str = "0",
        bob_input: str = "0",
    ):
        super().__init__(problem, network)
        self.qma_protocol = qma_protocol
        self.alice_input = alice_input
        self.bob_input = bob_input
        self.path_nodes = _ordered_path_nodes(network)
        self.path_length = len(self.path_nodes) - 1

    # -- layout --------------------------------------------------------------

    def _proof_register_name(self) -> str:
        return "P[0]"

    def _pair_register_name(self, node_index: int, slot: int) -> str:
        return f"S[{node_index},{slot}]"

    def proof_registers(self) -> List[ProofRegister]:
        registers = [
            ProofRegister(self._proof_register_name(), self.path_nodes[0], self.qma_protocol.proof_dim)
        ]
        for index in range(1, self.path_length):
            node = self.path_nodes[index]
            for slot in (0, 1):
                registers.append(
                    ProofRegister(
                        self._pair_register_name(index, slot), node, self.qma_protocol.forwarded_dim
                    )
                )
        return registers

    def _messages(self) -> Dict[Tuple[NodeId, NodeId], float]:
        messages = {}
        for index in range(self.path_length):
            edge = (self.path_nodes[index], self.path_nodes[index + 1])
            messages[edge] = self.qma_protocol.forwarded_qubits
        return messages

    # -- proofs ---------------------------------------------------------------

    def honest_proof(self, inputs: Sequence[str]) -> ProductProof:
        inputs = self.problem.validate_inputs(inputs)
        proof_state = self.qma_protocol.honest_proof(self.alice_input, self.bob_input)
        forwarded = self.qma_protocol.alice_state(self.alice_input, proof_state)
        norm = np.linalg.norm(forwarded)
        if norm > 1e-12:
            forwarded = forwarded / norm
        states: Dict[str, np.ndarray] = {self._proof_register_name(): proof_state}
        for index in range(1, self.path_length):
            states[self._pair_register_name(index, 0)] = forwarded
            states[self._pair_register_name(index, 1)] = forwarded
        return ProductProof(states)

    # -- acceptance ------------------------------------------------------------

    def _acceptance_program(
        self, inputs: Sequence[str], proof: Optional[ProductProof]
    ) -> TreeProgram:
        inputs = self.problem.validate_inputs(inputs)
        if proof is None:
            proof = self.honest_proof(inputs)
        else:
            self.validate_proof(proof)

        raw_forwarded = self.qma_protocol.alice_state(
            self.alice_input, proof.state(self._proof_register_name())
        )
        alice_accept = float(np.real(np.vdot(raw_forwarded, raw_forwarded)))
        if alice_accept <= 1e-15:
            return TreeProgram.rejecting()
        left_state = raw_forwarded / np.sqrt(alice_accept)

        pairs = []
        for index in range(1, self.path_length):
            pairs.append(
                (
                    proof.state(self._pair_register_name(index, 0)),
                    proof.state(self._pair_register_name(index, 1)),
                )
            )
        right_operator = self.engine.cached_operator(
            ("qma-bob", self.qma_protocol.cache_token, self.bob_input),
            lambda: self.qma_protocol.bob_accept_operator(self.bob_input),
        )
        # Alice's success probability scales the chain term (Algorithm 10
        # conditions the forwarded state on her accepting).
        return TreeProgram.single(
            path_job(left_state, pairs, right_operator), weight=alice_accept
        )

    # -- paper parameters -------------------------------------------------------

    def single_shot_soundness_gap(self) -> float:
        """Single-shot soundness gap ``4 / (81 r^2)`` (Lemma 43)."""
        return 4.0 / (81.0 * self.path_length**2)

    def paper_repetitions(self) -> int:
        """The ``O(r^2)`` repetition count of Theorem 42."""
        return int(ceil(2.0 * 81.0 * self.path_length**2 / 4.0))

    def repeated(self, repetitions: Optional[int] = None) -> RepeatedProtocol:
        """Parallel repetition of the protocol."""
        if repetitions is None:
            repetitions = self.paper_repetitions()
        return RepeatedProtocol(self, repetitions)


class LSDPathProtocol(QMAOneWayToPathProtocol):
    """The dQMA_sep protocol for the LSD problem on a path (Theorem 42 + Lemma 45)."""

    def __init__(self, instance: LinearSubspaceDistanceInstance, path_length: int):
        if path_length < 1:
            raise ProtocolError("path length must be at least 1")
        self.instance = instance
        label = instance.label()
        problem = PromiseInstanceProblem(label if label is not None else False)
        super().__init__(
            path_network(path_length),
            LSDQMAOneWay(instance),
            problem,
            alice_input="0",
            bob_input="0",
        )

    def acceptance_on_promise(self) -> float:
        """Acceptance probability of the honest proof (dummy inputs are implicit)."""
        return self.acceptance_probability(("0", "0"))
