"""Core of the ``repro-lint`` rule engine: findings, rules, suppressions.

The engine is deliberately small: a rule is a class with a ``name``, a
``description``, a path-scoping predicate (:meth:`LintRule.applies_to`), and
a :meth:`LintRule.check` generator over a parsed :class:`SourceModule`.
Rules register themselves in a module-level registry through
:func:`register_rule`; the CLI and the test fixtures both resolve rules
from the same registry.

Suppressions are per-line comments::

    frozen = np.matmul(a, b)  # repro-lint: disable=device-purity
    # repro-lint: disable=device-purity,dtype-discipline   (next line)
    staged = np.einsum("ij,jk->ik", a, b.astype(np.complex128))

A comment suppresses the named rules (comma-separated; ``all`` suppresses
everything) on its own physical line, and — when the line holds nothing but
the comment — on the following line as well.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Type, Union

__all__ = [
    "Finding",
    "LintRule",
    "SourceModule",
    "available_rules",
    "get_rule",
    "instantiate_rules",
    "register_rule",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


#: ``# repro-lint: disable=a,b`` — the marker may sit anywhere inside a
#: comment, so a justification can ride along before or after the rule list.
_SUPPRESS_RE = re.compile(r"repro-lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map physical line numbers to the rule names suppressed there."""
    table: Dict[int, Set[str]] = {}
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        names = {part.strip() for part in match.group(1).split(",") if part.strip()}
        line = token.start[0]
        table.setdefault(line, set()).update(names)
        text = lines[line - 1] if line - 1 < len(lines) else ""
        if text.strip().startswith("#"):
            # Comment-only line: the suppression covers the next line too.
            table.setdefault(line + 1, set()).update(names)
    return table


class SourceModule:
    """A parsed Python module plus its suppression table and parent links."""

    def __init__(self, source: str, path: str = "<string>"):
        self.path = str(path).replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source, filename=self.path)
        self.suppressions = _parse_suppressions(source)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def is_suppressed(self, rule: str, line: int) -> bool:
        names = self.suppressions.get(line)
        return bool(names) and (rule in names or "all" in names)

    def numpy_aliases(self) -> Set[str]:
        """Names the module binds to the numpy top-level module."""
        aliases: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "numpy":
                        aliases.add(item.asname or "numpy")
        return aliases


class LintRule:
    """Base class for repo-invariant rules; subclasses register themselves."""

    #: Kebab-case rule name used in reports and suppression comments.
    name: str = ""
    #: One-line description shown by ``repro-lint --list-rules``.
    description: str = ""

    def applies_to(self, module: SourceModule) -> bool:
        """Whether this rule runs over ``module`` (path-scoped rules override)."""
        return True

    def check(self, module: SourceModule) -> Iterable[Finding]:
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    def finding(self, module: SourceModule, node: Union[ast.AST, int], message: str) -> Finding:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, node.col_offset
        return Finding(rule=self.name, path=module.path, line=line, col=col, message=message)

    @staticmethod
    def path_matches(module: SourceModule, suffixes: Iterable[str]) -> bool:
        return any(module.path.endswith(suffix) for suffix in suffixes)


_RULES: Dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the registry (name must be unique)."""
    if not cls.name:
        raise ValueError(f"lint rule {cls.__name__} has no name")
    if cls.name in _RULES:
        raise ValueError(f"duplicate lint rule name {cls.name!r}")
    _RULES[cls.name] = cls
    return cls


def available_rules() -> List[str]:
    """Registered rule names, in registration order."""
    return list(_RULES)


def get_rule(name: str) -> Type[LintRule]:
    try:
        return _RULES[name]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {name!r}; available: {', '.join(available_rules())}"
        ) from None


def instantiate_rules(names: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Rule instances for ``names`` (default: every registered rule)."""
    selected = available_rules() if names is None else list(names)
    return [get_rule(name)() for name in selected]
