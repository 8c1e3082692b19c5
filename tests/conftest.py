"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.linear_code import repetition_code
from repro.quantum.fingerprint import ExactCodeFingerprint, HadamardCodeFingerprint


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A session-wide deterministic random generator."""
    return np.random.default_rng(20240321)


@pytest.fixture(scope="session")
def fingerprints3() -> ExactCodeFingerprint:
    """A fingerprint scheme for 3-bit inputs (verified random linear code)."""
    return ExactCodeFingerprint(3, rng=1)


@pytest.fixture(scope="session")
def fingerprints4() -> ExactCodeFingerprint:
    """A fingerprint scheme for 4-bit inputs."""
    return ExactCodeFingerprint(4, rng=2)


@pytest.fixture(scope="session")
def hadamard_fingerprints2() -> HadamardCodeFingerprint:
    """Hadamard-code fingerprints for 2-bit inputs (overlap exactly 1/2)."""
    return HadamardCodeFingerprint(2)


@pytest.fixture(scope="session")
def tiny_fingerprints() -> ExactCodeFingerprint:
    """A 4-dimensional fingerprint scheme for single-bit inputs.

    The two fingerprints are orthogonal; small enough for exact entangled
    adversary computations on paths of length up to 4.
    """
    return ExactCodeFingerprint(1, code=repetition_code(1, 2))
