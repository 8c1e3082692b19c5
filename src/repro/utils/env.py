"""Typed accessor for the repository's ``REPRO_*`` environment variables.

Every ``REPRO_*`` variable the codebase reacts to is declared once in
:data:`KNOWN_VARS`; all reads and writes go through :func:`env_str` /
:func:`env_bool` / :func:`env_set` so a typo'd name fails loudly instead of
silently falling back to a default.  The ``env-var-discipline`` lint rule
(:mod:`repro.lint.rules`) statically enforces the same contract: it flags
direct ``os.environ`` access outside this module and any ``REPRO_*`` string
literal that is not registered here.  Process-pool workers inherit the
selection through the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one recognised ``REPRO_*`` environment variable."""

    name: str
    description: str


#: Registry of every recognised ``REPRO_*`` variable.  New knobs must be
#: declared here before anything reads them — the env-var-discipline lint
#: rule treats unregistered ``REPRO_*`` literals as typos.
KNOWN_VARS: Dict[str, EnvVar] = {
    var.name: var
    for var in (
        EnvVar("REPRO_BACKEND", "default simulation backend (see repro.engine.backends)"),
        EnvVar("REPRO_DTYPE", "contraction dtype: complex64 or complex128"),
        EnvVar("REPRO_DEVICE", "device spec for accelerator array modules (cpu / cuda / cuda:N)"),
        EnvVar("REPRO_SANITIZE", "truthy value enables the runtime sanitizer (repro.lint.sanitize)"),
    )
}

#: Lower-cased spellings accepted as boolean values by :func:`env_bool`.
_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def _require_known(name: str) -> str:
    if name not in KNOWN_VARS:
        known = ", ".join(sorted(KNOWN_VARS))
        raise ProtocolError(
            f"unknown REPRO environment variable {name!r}; known variables: {known}"
        )
    return name


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """Read a registered ``REPRO_*`` variable as a string.

    Empty values count as unset (mirroring the ``or default`` idiom the
    call sites used before centralisation).  Unknown names raise
    :class:`~repro.exceptions.ProtocolError`.
    """
    value = os.environ.get(_require_known(name))
    if value is None or value == "":
        return default
    return value


def env_bool(name: str, default: bool = False) -> bool:
    """Read a registered ``REPRO_*`` variable as a boolean flag.

    Accepts ``1/true/yes/on`` and ``0/false/no/off`` (case-insensitive);
    anything else raises so a misspelt value cannot silently disable a
    safety net like ``REPRO_SANITIZE``.
    """
    raw = os.environ.get(_require_known(name))
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ProtocolError(
        f"{name} must be a boolean flag (1/0/true/false/yes/no/on/off), got {raw!r}"
    )


def env_set(name: str, value: Optional[str]) -> None:
    """Export (or, with ``None``, unset) a registered ``REPRO_*`` variable.

    Used by CLI flags that win over the environment by exporting their
    selection so pool workers inherit it.
    """
    _require_known(name)
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = str(value)


__all__ = [
    "EnvVar",
    "KNOWN_VARS",
    "env_bool",
    "env_set",
    "env_str",
]
