"""The rule set: five invariants this repository has paid to learn.

Each rule encodes a bug class that actually bit a previous change (see
``docs/architecture.md`` Layer 9 for the history): device math escaping
the ``xp`` ArrayModule, identity-derived cache keys, unpicklable pool entry
points, ad-hoc ``REPRO_*`` environment access, and ``complex128``
construction inside the complex64 fast path.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, List, Set, Tuple

from repro.lint.base import Finding, LintRule, SourceModule, register_rule
from repro.utils.env import KNOWN_VARS

#: Modules on the complex64 fast path: all array math must flow through the
#: ``(xp, dtype)`` kernel parameters so one code path serves every backend.
FAST_PATH_MODULES = (
    "repro/engine/kernels.py",
    "repro/engine/tree_contraction.py",
)

#: numpy attributes that contract/transform array data and therefore belong
#: on the device (``xp.*``); anything outside this set is considered part of
#: the explicit host-side allowlist (dtype objects, ``asarray`` staging,
#: ``einsum_path`` planning, constants, allocation helpers).
CONTRACTION_OPS = frozenset(
    {"einsum", "matmul", "vdot", "dot", "tensordot", "trace", "outer", "kron", "inner"}
)

#: Method names whose first argument is a cache key.
_KEYED_METHODS = frozenset({"setdefault", "get", "put", "get_or_build", "cached_operator"})

#: Method names whose first argument is a callable shipped to a pool worker.
_SUBMIT_METHODS = frozenset({"submit"})

_REPRO_NAME_RE = re.compile(r"REPRO_[A-Z0-9_]+\Z")


def _first_positional(call: ast.Call) -> ast.AST:
    return call.args[0] if call.args else None  # type: ignore[return-value]


@register_rule
class DevicePurityRule(LintRule):
    """Array contractions in fast-path kernels must go through ``xp``."""

    name = "device-purity"
    description = (
        "engine/kernels.py and tree_contraction.py must route array math "
        "through the xp ArrayModule, not bare np.* contractions"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return self.path_matches(module, FAST_PATH_MODULES)

    def check(self, module: SourceModule) -> Iterable[Finding]:
        aliases = module.numpy_aliases()
        if not aliases:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in CONTRACTION_OPS:
                continue
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield self.finding(
                    module,
                    node,
                    f"{node.value.id}.{node.attr} contracts arrays on the host; route it "
                    f"through the xp ArrayModule, or suppress with a host-side "
                    f"justification",
                )


@register_rule
class ValueStableCacheKeysRule(LintRule):
    """Cache keys must be value-stable: no ``id()``, no raw-object fallbacks."""

    name = "value-stable-cache-keys"
    description = (
        "operator/program cache keys must be value-stable (cache_token/key), "
        "never id()-derived or raw-object fallbacks"
    )

    def _id_calls(self, tree: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield node

    def check(self, module: SourceModule) -> Iterable[Finding]:
        id_message = (
            "id() is identity-derived: equal values get different keys (and keys "
            "never match across processes); derive the key from content "
            "(cache_token/key) instead"
        )
        seen: Set[Tuple[int, int]] = set()

        def emit(call: ast.Call) -> Iterator[Finding]:
            marker = (call.lineno, call.col_offset)
            if marker not in seen:
                seen.add(marker)
                yield self.finding(module, call, id_message)

        for node in ast.walk(module.tree):
            # d[id(x)] / d[id(x)] = ... — id() inside a subscript index.
            if isinstance(node, ast.Subscript):
                for call in self._id_calls(node.slice):
                    yield from emit(call)
            # cache.setdefault(id(x), ...), cache.get_or_build(id(x), ...),
            # engine.cached_operator((..., id(x), ...), ...)
            elif isinstance(node, ast.Call):
                method = None
                if isinstance(node.func, ast.Attribute):
                    method = node.func.attr
                elif isinstance(node.func, ast.Name):
                    method = node.func.id
                if method in _KEYED_METHODS and node.args:
                    for call in self._id_calls(node.args[0]):
                        yield from emit(call)
                # getattr(x, "cache_token", x): the fallback silently degrades
                # to object identity exactly when the class forgot its token.
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in ("cache_token", "key")
                    and ast.dump(node.args[0]) == ast.dump(node.args[2])
                ):
                    yield self.finding(
                        module,
                        node,
                        f"getattr(..., {node.args[1].value!r}, <same object>) falls back to "
                        f"object identity when the attribute is missing; require the "
                        f"class to define a value-stable token instead",
                    )
            # key = id(x) — id() assigned to a *key*-named variable.
            elif isinstance(node, ast.Assign):
                names = [
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name) and "key" in target.id.lower()
                ]
                if names:
                    for call in self._id_calls(node.value):
                        yield from emit(call)
            # {id(x): ...} — id() as a literal dict key.
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is None:
                        continue
                    for call in self._id_calls(key):
                        yield from emit(call)


@register_rule
class PicklableEntryPointsRule(LintRule):
    """Callables handed to the process pool's ``submit`` must be module-level."""

    name = "picklable-entry-points"
    description = (
        "callables handed to the process pool's submit must be module-level "
        "functions (no lambdas, closures, or bound methods)"
    )

    @staticmethod
    def _nested_function_names(tree: ast.AST) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if child is node:
                        continue
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested.add(child.name)
        return nested

    def check(self, module: SourceModule) -> Iterable[Finding]:
        nested = self._nested_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _SUBMIT_METHODS:
                continue
            target = _first_positional(node)
            if target is None:
                continue
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    module,
                    target,
                    "lambda passed to submit cannot cross a pickle boundary; "
                    "hoist it to a module-level function",
                )
            elif isinstance(target, ast.Name) and target.id in nested:
                yield self.finding(
                    module,
                    target,
                    f"{target.id} is defined inside another function; closures do not "
                    f"pickle — hoist it to module level before submitting",
                )
            elif isinstance(target, ast.Attribute) and (
                isinstance(target.value, ast.Name) and target.value.id == "self"
            ):
                yield self.finding(
                    module,
                    target,
                    f"self.{target.attr} is a bound method: submitting it ships the whole "
                    f"instance through pickle (or fails outright); use a module-level "
                    f"entry point, or suppress if the pool never crosses a process "
                    f"boundary",
                )


@register_rule
class EnvVarDisciplineRule(LintRule):
    """All ``REPRO_*`` environment access goes through ``repro.utils.env``."""

    name = "env-var-discipline"
    description = (
        "REPRO_* environment variables are read/written only through "
        "repro.utils.env; unknown REPRO_* names are flagged as typos"
    )

    def applies_to(self, module: SourceModule) -> bool:
        # The accessor module itself is the one sanctioned os.environ user.
        return not module.path.endswith("repro/utils/env.py")

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "environb")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield self.finding(
                    module,
                    node,
                    "direct os.environ access; go through repro.utils.env "
                    "(env_str/env_bool/env_set) so REPRO_* names are "
                    "validated in one place",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("getenv", "putenv", "unsetenv")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                yield self.finding(
                    module,
                    node,
                    f"os.{node.func.attr} bypasses the typed accessor; use "
                    f"repro.utils.env instead",
                )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _REPRO_NAME_RE.match(node.value)
                and node.value not in KNOWN_VARS
            ):
                yield self.finding(
                    module,
                    node,
                    f"unknown REPRO environment variable {node.value!r} (typo?); "
                    f"known variables: {', '.join(sorted(KNOWN_VARS))} — register new "
                    f"ones in repro.utils.env.KNOWN_VARS first",
                )


@register_rule
class DtypeDisciplineRule(LintRule):
    """No literal ``complex128`` construction inside the fast-path kernels."""

    name = "dtype-discipline"
    description = (
        "no literal complex128 construction inside the complex64 fast-path "
        "kernels; dtype flows in through the kernel's dtype policy"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return self.path_matches(module, FAST_PATH_MODULES)

    def check(self, module: SourceModule) -> Iterable[Finding]:
        message = (
            "literal complex128 inside a complex64 fast-path kernel silently "
            "promotes the whole pipeline; take the dtype from the kernel's dtype "
            "parameter/accumulation policy, or suppress with the policy "
            "justification"
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "complex128":
                yield self.finding(module, node, message)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value == "complex128"
            ):
                yield self.finding(module, node, message)


def all_rule_classes() -> List[type]:
    """The registered rule classes (import side effect of this module)."""
    from repro.lint.base import available_rules, get_rule

    return [get_rule(name) for name in available_rules()]
