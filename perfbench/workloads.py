"""The three benchmark workloads.

Each workload turns ``(seed, index)`` into the inputs of one op (noise
strengths, input strings, candidate strings), runs the op from protocol
construction to acceptance values, and checks those values.  Input
generation is untimed; the op and its check are the timed region.  The
program under test only ever sees the generated inputs.

``RATIONALE.md`` in this directory says why each workload was chosen and
which layers it is expected to move.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

#: Index of the untimed warm-up op: its inputs come from their own stream,
#: so no timed op repeats them.
WARMUP_INDEX = 2**31 - 1


def op_rng(seed: int, index: int) -> np.random.Generator:
    """The generator that draws op ``index``'s inputs for ``seed``."""
    return np.random.default_rng([seed, index])


def _bits(value: int, width: int) -> str:
    return format(int(value), f"0{width}b")


def _distinct_strings(rng: np.random.Generator, width: int, count: int) -> List[str]:
    return [_bits(v, width) for v in rng.choice(2**width, size=count, replace=False)]


class NoisySweep:
    """256 depolarizing strengths on the d=16, r=6 Algorithm 3 path."""

    name = "noisy-sweep"
    points = 256
    values_per_op = 2 * points

    def __init__(self, root: Path):
        from repro.quantum.fingerprint import ExactCodeFingerprint

        self.fingerprints = ExactCodeFingerprint(2, rng=11)

    def inputs(self, seed: int, index: int) -> Dict[str, Any]:
        rng = op_rng(seed, index)
        strengths = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 0.5, self.points - 1)]))
        x, y = _distinct_strings(rng, 2, 2)
        return {"strengths": strengths, "yes": (x, x), "no": (x, y)}

    def run(self, inputs: Dict[str, Any]) -> Tuple[Any, bool]:
        from repro.engine import default_engine
        from repro.protocols.equality import EqualityPathProtocol
        from repro.quantum.channels import NoiseModel

        programs = []
        for strength in inputs["strengths"]:
            protocol = EqualityPathProtocol.on_path(
                2, 6, self.fingerprints,
                noise=NoiseModel.depolarizing(float(strength), self.fingerprints.dim),
            )
            programs.append(protocol.acceptance_program(inputs["yes"]))
            programs.append(protocol.acceptance_program(inputs["no"]))
        values = default_engine().evaluate_programs(programs)
        completeness = values[0::2]
        ok = bool(
            completeness[0] > 1.0 - 1e-9
            and np.all(np.diff(completeness) <= 1e-12)
            and np.all((values >= 0.0) & (values <= 1.0 + 1e-9))
        )
        return (programs, values), ok

    def parity(self, output: Any, rng: np.random.Generator, dense: Any) -> float:
        programs, values = output
        sample = rng.choice(len(programs), size=8, replace=False)
        return max(abs(dense.evaluate_program(programs[i]) - values[i]) for i in sample)


class StrategySearch:
    """The engine driven from the host side: three adversarial
    fingerprint-strategy searches, one runner scenario and the FGNP21
    baseline through the scalar fallback."""

    name = "strategy-search"
    #: Strategies (assignments + honest) of the tree searches, per network of
    #: ``network_zoo(4)``: two candidate strings over 1, 3 and 4 nodes.
    TREE_ASSIGNMENTS = {"star-4": 2, "binary-depth2": 8, "random-8": 16}
    #: The registered scenario run through ``ExperimentRunner`` with seeded
    #: strengths, and its number of strengths (strength 0 always included).
    SCENARIO = "noise-robustness-tree"
    scenario_points = 32
    #: Input pairs of the FGNP21 baseline, half of them yes-instances.
    baseline_pairs = 16
    values_per_op = (
        (4**5 + 1) + (4**4 + 1) + sum(n + 1 for n in TREE_ASSIGNMENTS.values())
        + 2 * scenario_points + baseline_pairs
    )

    def __init__(self, root: Path):
        from repro.quantum.fingerprint import ExactCodeFingerprint

        self.fingerprints4 = ExactCodeFingerprint(4, rng=11)  # d=32
        self.fingerprints2 = ExactCodeFingerprint(2, rng=11)  # d=16
        self.fingerprints3 = ExactCodeFingerprint(3, rng=5)  # d=24

    def inputs(self, seed: int, index: int) -> Dict[str, Any]:
        rng = op_rng(seed, index)
        pure = _distinct_strings(rng, 4, 4)
        x2, y2 = _distinct_strings(rng, 2, 2)
        x3, y3 = _distinct_strings(rng, 3, 2)
        tree_inputs = [x3] * 4
        tree_inputs[int(rng.integers(4))] = y3
        strengths = np.sort(
            np.concatenate([[0.0], rng.uniform(0.0, 0.5, self.scenario_points - 1)])
        )
        xs = rng.integers(0, 4, self.baseline_pairs)
        flips = rng.integers(1, 4, self.baseline_pairs)
        yes = rng.permutation(np.arange(self.baseline_pairs) % 2 == 0)
        return {
            "pure_inputs": (pure[0], pure[1]),
            "pure_candidates": pure,
            "noisy_inputs": (x2, y2),
            "noise": (float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.0, 0.05))),
            "tree_inputs": tuple(tree_inputs),
            "scenario_strengths": [float(strength) for strength in strengths],
            "baseline_pairs": [
                (_bits(x, 2), _bits(x if same else x ^ flip, 2))
                for x, flip, same in zip(xs, flips, yes)
            ],
        }

    def run(self, inputs: Dict[str, Any]) -> Tuple[Any, bool]:
        from repro.analysis import soundness
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.tree_soundness import network_zoo
        from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
        from repro.protocols.fgnp21 import Fgnp21EqualityProtocol
        from repro.quantum.channels import NoiseModel

        searches = []  # (protocol, inputs, result, expected assignments)
        protocol = EqualityPathProtocol.on_path(4, 6, self.fingerprints4)
        result = soundness.fingerprint_strategy_soundness(
            protocol, inputs["pure_inputs"], candidate_strings=inputs["pure_candidates"]
        )
        searches.append((protocol, inputs["pure_inputs"], result, 4**5))

        strength, readout = inputs["noise"]
        noise = NoiseModel.depolarizing(strength, self.fingerprints2.dim, readout_error=readout)
        protocol = EqualityPathProtocol.on_path(2, 5, self.fingerprints2)
        result = soundness.fingerprint_strategy_soundness(
            protocol, inputs["noisy_inputs"], candidate_strings=["00", "01", "10", "11"],
            noise=noise,
        )
        searches.append((protocol.with_noise(noise), inputs["noisy_inputs"], result, 4**4))

        for name, network in network_zoo(4):
            protocol = EqualityTreeProtocol(network, self.fingerprints3)
            result = soundness.fingerprint_strategy_soundness(protocol, inputs["tree_inputs"])
            searches.append(
                (protocol, inputs["tree_inputs"], result, self.TREE_ASSIGNMENTS[name])
            )

        ok = True
        for protocol, search_inputs, result, expected in searches:
            honest = protocol.acceptance_probability(search_inputs)
            ok = ok and result.num_assignments == expected
            ok = ok and result.best_acceptance >= honest - 1e-12

        runner = ExperimentRunner(
            [self.SCENARIO],
            overrides={self.SCENARIO: {"strengths": inputs["scenario_strengths"]}},
        )
        rows = runner.run()[self.SCENARIO]
        text = runner.render({self.SCENARIO: rows})
        completeness = np.array([row.values["completeness"] for row in rows])
        ok = ok and len(rows) == self.scenario_points
        ok = ok and bool(completeness[0] > 1.0 - 1e-9 and np.all(np.diff(completeness) <= 1e-12))
        ok = ok and text.count("\nstrength ") == self.scenario_points

        pairs = inputs["baseline_pairs"]
        baseline = Fgnp21EqualityProtocol.on_path(2, 4, self.fingerprints2)
        values = baseline.acceptance_probabilities(pairs)
        yes = np.array([x == y for x, y in pairs])
        ok = ok and bool(np.all(np.abs(values[yes] - 1.0) <= 1e-9))
        ok = ok and bool(np.all((values >= 0.0) & (values <= 1.0 + 1e-9)))
        return searches, bool(ok)

    def parity(self, output: Any, rng: np.random.Generator, dense: Any) -> float:
        deviations = []
        for protocol, search_inputs, result, _ in output:
            program = protocol.acceptance_program(search_inputs, result.best_proof)
            deviations.append(abs(dense.evaluate_program(program) - result.best_acceptance))
        return max(deviations)


class LongPath:
    """Algorithm 3 at d=64 on paths past the Gram-product row limit."""

    name = "long-path"
    lengths = (20, 32, 48)
    pairs_per_length = 256
    values_per_op = len(lengths) * pairs_per_length

    def __init__(self, root: Path):
        from repro.quantum.fingerprint import ExactCodeFingerprint

        self.fingerprints = ExactCodeFingerprint(8, rng=11)

    def inputs(self, seed: int, index: int) -> Dict[str, Any]:
        rng = op_rng(seed, index)
        batches = []
        for _ in self.lengths:
            xs = rng.integers(0, 256, self.pairs_per_length)
            flips = rng.integers(1, 256, self.pairs_per_length)
            yes = rng.permutation(np.arange(self.pairs_per_length) % 2 == 0)
            batches.append(
                [
                    (_bits(x, 8), _bits(x if same else x ^ flip, 8))
                    for x, flip, same in zip(xs, flips, yes)
                ]
            )
        return {"batches": batches}

    def run(self, inputs: Dict[str, Any]) -> Tuple[Any, bool]:
        from repro.protocols.equality import EqualityPathProtocol

        results = []
        ok = True
        for length, pairs in zip(self.lengths, inputs["batches"]):
            protocol = EqualityPathProtocol.on_path(8, length, self.fingerprints)
            values = protocol.acceptance_probabilities(pairs)
            yes = np.array([x == y for x, y in pairs])
            ok = ok and bool(np.all(np.abs(values[yes] - 1.0) <= 1e-9))
            ok = ok and bool(np.all((values >= 0.0) & (values <= 1.0 + 1e-9)))
            results.append((protocol, pairs, values))
        return results, ok

    def parity(self, output: Any, rng: np.random.Generator, dense: Any) -> float:
        deviations = []
        for protocol, pairs, values in output:
            for i in rng.choice(len(pairs), size=3, replace=False):
                program = protocol.acceptance_program(pairs[i])
                deviations.append(abs(dense.evaluate_program(program) - values[i]))
        return max(deviations)


WORKLOADS = {cls.name: cls for cls in (NoisySweep, StrategySearch, LongPath)}
