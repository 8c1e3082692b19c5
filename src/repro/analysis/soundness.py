"""Soundness evaluation of dQMA protocols on concrete instances.

The paper's soundness statements bound the acceptance probability of a
no-instance over *all* proofs.  For the path protocols the library can compute
that supremum exactly on small instances (via the acceptance operator); for
the remaining protocols it searches over the natural structured cheating
strategies (fingerprint-valued product proofs) and reports the best found.

The strategy search compiles its whole enumeration — up to
``max_assignments`` product proofs — into batched
``acceptance_probabilities`` calls, so a soundness table costs a handful of
stacked engine contractions instead of one scalar protocol evaluation per
cheating strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.adversary import seesaw_separable_acceptance
from repro.engine.array_ops import parity_tolerance
from repro.exceptions import ProtocolError
from repro.protocols.base import DQMAProtocol, ProductProof, ProofRegister
from repro.quantum.channels import NoiseModel
from repro.utils.rng import RngLike, ensure_rng

#: Number of cheating strategies evaluated per batched engine call.
STRATEGY_BATCH_SIZE = 256

#: Largest number of per-node string assignments a strategy search enumerates.
MAX_STRATEGY_ASSIGNMENTS = 4096

#: Strategies whose acceptances differ by at most this much tie; the earliest
#: in enumeration order (honest first) is reported as the best.
STRATEGY_TIE_TOLERANCE = 1e-9


def paper_bound_slack(dtype=None) -> float:
    """Numerical slack granted when checking acceptances against paper bounds.

    Derived from the contraction dtype's parity tolerance (``REPRO_DTYPE``
    when ``dtype`` is ``None``): a complex64 evaluation is only accurate to
    1e-5, so holding it to the old hard-coded ``1e-9`` slack flagged
    spurious bound violations.
    """
    return parity_tolerance(dtype)


def _protocol_dtype(protocol: DQMAProtocol):
    """The contraction dtype of the protocol's engine backend (or ``None``).

    ``None`` means the backend declares no dtype (the dense reference
    backend, which contracts in complex128) — callers fall back to the
    environment's active dtype via :func:`paper_bound_slack`.
    """
    engine = getattr(protocol, "engine", None)
    return getattr(getattr(engine, "backend", None), "dtype", None)


def _noisy_variant(protocol: DQMAProtocol, noise: Optional[NoiseModel]) -> DQMAProtocol:
    """The protocol itself, or its ``with_noise`` sibling for a non-trivial model."""
    if noise is None or noise.is_trivial:
        return protocol
    return protocol.with_noise(noise)


@dataclass(frozen=True)
class StrategySearchResult:
    """Outcome of a cheating-strategy search.

    Iterable as ``(best_acceptance, best_proof)`` for backwards
    compatibility with the original two-tuple return.
    """

    best_acceptance: float
    best_proof: Optional[ProductProof]
    best_strategy: str
    num_assignments: int

    def __iter__(self) -> Iterator:
        return iter((self.best_acceptance, self.best_proof))


@dataclass(frozen=True)
class SoundnessReport:
    """Summary of a soundness experiment on one no-instance."""

    inputs: Tuple[str, ...]
    honest_acceptance: float
    best_found_acceptance: float
    optimal_entangled_acceptance: Optional[float]
    paper_bound: Optional[float]
    #: Label of the strategy achieving ``best_found_acceptance`` (``"honest"``,
    #: a per-node string assignment, or ``"seesaw"``) — makes table output
    #: auditable.
    best_strategy: Optional[str] = None
    #: Numerical slack of :attr:`respects_paper_bound`.  ``None`` derives it
    #: from the active contraction dtype at check time (see
    #: :func:`paper_bound_slack`); report builders pin the evaluating
    #: backend's dtype tolerance here instead.
    bound_slack: Optional[float] = None

    @property
    def respects_paper_bound(self) -> bool:
        """True when every measured acceptance stays below the paper's bound.

        The comparison grants the contraction dtype's parity tolerance as
        slack (1e-9 in complex128, 1e-5 in complex64) — a reduced-precision
        evaluation must not flag a bound violation its own rounding caused.
        """
        if self.paper_bound is None:
            return True
        observed = self.best_found_acceptance
        if self.optimal_entangled_acceptance is not None:
            observed = max(observed, self.optimal_entangled_acceptance)
        slack = self.bound_slack if self.bound_slack is not None else paper_bound_slack()
        return observed <= self.paper_bound + slack


def _strategy_label(nodes: Sequence, combo: Sequence[str]) -> str:
    return ",".join(f"{node}={string}" for node, string in zip(nodes, combo))


def _strategy_layout(
    protocol: DQMAProtocol, fingerprints
) -> Tuple[List[ProofRegister], List]:
    """The fingerprint-sized registers of the protocol and their nodes (sorted)."""
    registers = [reg for reg in protocol.register_layout if reg.dim == fingerprints.dim]
    return registers, sorted({reg.node for reg in registers}, key=str)


def fingerprint_strategy_soundness(
    protocol: DQMAProtocol,
    inputs: Sequence[str],
    candidate_strings: Optional[Iterable[str]] = None,
    max_assignments: int = MAX_STRATEGY_ASSIGNMENTS,
    batch_size: int = STRATEGY_BATCH_SIZE,
    noise: Optional[NoiseModel] = None,
) -> StrategySearchResult:
    """Best acceptance over proofs built from fingerprints of candidate strings.

    This is the natural cheating family for the fingerprint-based protocols:
    the prover fills every fingerprint-sized register with the fingerprint of
    some string (defaulting to the instance's own inputs), and any classical
    index / direction / relay registers with their honest contents.  The
    search enumerates assignments where all registers of a node share one
    string (the strategies the paper's soundness analyses reason about) and
    evaluates them through the engine's batched API, ``batch_size``
    strategies per stacked contraction.  Strategies within
    :data:`STRATEGY_TIE_TOLERANCE` of the best acceptance tie; the earliest
    in enumeration order (honest first) is reported, with its own value.

    A non-trivial ``noise`` model re-targets the evaluation at the
    protocol's :meth:`~repro.protocols.base.DQMAProtocol.with_noise` sibling:
    every batched strategy assignment then runs on the engine's
    density-matrix path (``TreeNoise``-annotated jobs), so the
    search reports the best structured cheat *under* the channel model.  A
    protocol constructed with its own noise model already evaluates noisily
    without this argument.
    """
    fingerprints = getattr(protocol, "fingerprints", None)
    if fingerprints is None:
        raise ProtocolError("fingerprint strategy search needs a fingerprint-based protocol")
    protocol = _noisy_variant(protocol, noise)
    inputs = tuple(inputs)
    if candidate_strings is None:
        candidate_strings = inputs
    candidates = list(dict.fromkeys(candidate_strings))

    fingerprint_registers, nodes = _strategy_layout(protocol, fingerprints)
    assignments = len(candidates) ** len(nodes)
    if assignments > max_assignments:
        raise ProtocolError(
            f"{assignments} candidate assignments exceed the search limit {max_assignments}"
        )

    # Each row is normalized once: the honest proof's by honest_proof, each
    # candidate fingerprint here.  A strategy's proof shares those rows.
    honest = protocol.honest_proof(inputs)
    candidate_rows = ProductProof({string: fingerprints.state(string) for string in candidates})

    def build_proof(combo: Sequence[str]) -> ProductProof:
        node_string = dict(zip(nodes, combo))
        return honest.with_rows_from(
            candidate_rows,
            {register.name: node_string[register.node] for register in fingerprint_registers},
        )

    labels: List[str] = ["honest"]
    proofs: List[ProductProof] = [honest]
    for combo in iter_product(candidates, repeat=len(nodes)):
        labels.append(_strategy_label(nodes, combo))
        proofs.append(build_proof(combo))

    batch = max(int(batch_size), 1)
    chunks = [proofs[start : start + batch] for start in range(0, len(proofs), batch)]
    values = np.concatenate(
        [
            protocol.acceptance_probabilities([inputs] * len(chunk), proofs=chunk)
            for chunk in chunks
        ]
    )
    # Strategies that tie exactly would otherwise be decided by the last ulp
    # of the contraction: the earliest one (honest first) within the
    # tolerance of the maximum wins.
    best_index = int(np.argmax(values >= values.max() - STRATEGY_TIE_TOLERANCE))
    return StrategySearchResult(
        best_acceptance=float(values[best_index]),
        best_proof=proofs[best_index],
        best_strategy=labels[best_index],
        num_assignments=assignments,
    )


def entangled_soundness_report(
    protocol: DQMAProtocol,
    inputs: Sequence[str],
    paper_bound: Optional[float] = None,
    run_seesaw: bool = False,
    rng: RngLike = None,
    noise: Optional[NoiseModel] = None,
) -> SoundnessReport:
    """Full soundness report for a (small) path-protocol instance.

    Includes the honest-proof acceptance, the best structured product proof
    found (with the strategy label that achieved it), and — when the protocol
    exposes an acceptance operator — the exact optimum over entangled proofs
    (optionally cross-checked against the seesaw separable optimum).

    With a non-trivial ``noise`` model every quantity is computed on the
    protocol's noisy sibling: honest and strategy-search acceptances ride
    the engine's density-matrix path, and the entangled optimum (when the
    protocol exposes a noisy acceptance operator) diagonalises the
    channel-conjugated operator — the seesaw then bounds the noisy
    *separable* adversary from below.  The paper bound stays the noiseless
    protocol's bound: the report asks whether realistic hardware still
    respects the ideal soundness statement.

    The structured search falls back to the honest proof only for a protocol
    without fingerprints or a search over :data:`MAX_STRATEGY_ASSIGNMENTS`
    assignments; any other error of the search propagates.
    """
    inputs = tuple(inputs)
    evaluated = _noisy_variant(protocol, noise)
    noisy = evaluated is not protocol
    honest_acceptance = evaluated.acceptance_probability(inputs, None)
    best_found = honest_acceptance
    best_strategy: Optional[str] = "honest"
    fingerprints = getattr(evaluated, "fingerprints", None)
    if fingerprints is not None:
        _, nodes = _strategy_layout(evaluated, fingerprints)
        if len(set(inputs)) ** len(nodes) <= MAX_STRATEGY_ASSIGNMENTS:
            search = fingerprint_strategy_soundness(evaluated, inputs)
            best_found = search.best_acceptance
            best_strategy = search.best_strategy

    optimal = None
    operator = None
    # Instances beyond the operator builders' dimension guard degrade to the
    # structured search alone (the report's optimal_entangled stays None).
    try:
        if noisy:
            if hasattr(evaluated, "noisy_acceptance_operator"):
                operator = evaluated.noisy_acceptance_operator(inputs)
        elif hasattr(evaluated, "acceptance_operator"):
            operator = evaluated.acceptance_operator(inputs)
    except ProtocolError:
        operator = None
    if operator is not None:
        eigenvalues = np.linalg.eigvalsh((operator + operator.conj().T) / 2)
        optimal = float(min(max(eigenvalues[-1].real, 0.0), 1.0))
        if run_seesaw:
            dims = [register.dim for register in evaluated.proof_registers()]
            seesaw_value, _ = seesaw_separable_acceptance(operator, dims, rng=ensure_rng(rng))
            if seesaw_value > best_found:
                best_found = seesaw_value
                best_strategy = "seesaw"

    if paper_bound is None and hasattr(protocol, "single_shot_soundness_gap"):
        paper_bound = 1.0 - protocol.single_shot_soundness_gap()

    return SoundnessReport(
        inputs=inputs,
        honest_acceptance=honest_acceptance,
        best_found_acceptance=best_found,
        optimal_entangled_acceptance=optimal,
        paper_bound=paper_bound,
        best_strategy=best_strategy,
        bound_slack=paper_bound_slack(_protocol_dtype(evaluated)),
    )


def repetition_soundness(single_shot_acceptance: float, repetitions: int) -> float:
    """Acceptance of a no-instance after parallel repetition: ``p^k``.

    For product proofs the copies are independent, so the best cheating
    probability of the repeated protocol is the single-shot optimum raised to
    the number of repetitions — the quantity driving the Algorithm 4 analysis.
    """
    if repetitions <= 0:
        raise ProtocolError("repetition count must be positive")
    p = min(max(single_shot_acceptance, 0.0), 1.0)
    return float(p**repetitions)
