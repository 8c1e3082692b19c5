"""The typed REPRO_* accessor: known-name validation, booleans, exports."""

import os

import pytest

from repro.exceptions import ProtocolError
from repro.utils.env import KNOWN_VARS, env_bool, env_set, env_str


def test_registry_covers_every_knob():
    assert set(KNOWN_VARS) == {
        "REPRO_BACKEND",
        "REPRO_DTYPE",
        "REPRO_DEVICE",
        "REPRO_SANITIZE",
    }
    for name, var in KNOWN_VARS.items():
        assert var.name == name
        assert var.description


def test_env_str_reads_and_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "transfer-matrix")
    assert env_str("REPRO_BACKEND") == "transfer-matrix"
    monkeypatch.delenv("REPRO_BACKEND")
    assert env_str("REPRO_BACKEND") is None
    assert env_str("REPRO_BACKEND", "default") == "default"


def test_env_str_treats_empty_as_unset(monkeypatch):
    monkeypatch.setenv("REPRO_DTYPE", "")
    assert env_str("REPRO_DTYPE", "complex128") == "complex128"


@pytest.mark.parametrize("accessor", [env_str, env_bool])
def test_unknown_names_raise(accessor):
    with pytest.raises(ProtocolError, match="unknown REPRO environment variable"):
        accessor("REPRO_BACKEN")


def test_env_set_rejects_unknown_names():
    with pytest.raises(ProtocolError, match="REPRO_TYPO"):
        env_set("REPRO_TYPO", "1")


@pytest.mark.parametrize("raw", ["1", "true", "YES", "On"])
def test_env_bool_truthy(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SANITIZE", raw)
    assert env_bool("REPRO_SANITIZE") is True


@pytest.mark.parametrize("raw", ["0", "false", "No", "OFF", ""])
def test_env_bool_falsy(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SANITIZE", raw)
    assert env_bool("REPRO_SANITIZE") is False


def test_env_bool_default_and_invalid(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert env_bool("REPRO_SANITIZE") is False
    assert env_bool("REPRO_SANITIZE", default=True) is True
    monkeypatch.setenv("REPRO_SANITIZE", "maybe")
    with pytest.raises(ProtocolError, match="boolean flag"):
        env_bool("REPRO_SANITIZE")


def test_env_set_exports_and_unsets(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "dense")  # monkeypatch restores after
    env_set("REPRO_BACKEND", "transfer-matrix")
    assert os.environ["REPRO_BACKEND"] == "transfer-matrix"
    assert env_str("REPRO_BACKEND") == "transfer-matrix"
    env_set("REPRO_BACKEND", None)
    assert "REPRO_BACKEND" not in os.environ
