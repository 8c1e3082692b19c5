"""Fixture tests for every repro-lint rule: positive finding + suppression."""

import pytest

from repro.lint import available_rules, lint_source
from repro.lint.base import SourceModule
from repro.lint.runner import LintError


def rules_of(findings):
    return [finding.rule for finding in findings]


def test_registry_has_the_five_rules():
    assert set(available_rules()) == {
        "device-purity",
        "value-stable-cache-keys",
        "picklable-entry-points",
        "env-var-discipline",
        "dtype-discipline",
    }


# -- device-purity -----------------------------------------------------------


KERNELS_PATH = "repro/engine/kernels.py"


def test_device_purity_flags_np_contraction_in_fast_path():
    source = "import numpy as np\n\ndef f(a, b):\n    return np.matmul(a, b)\n"
    findings = lint_source(source, path=KERNELS_PATH)
    assert rules_of(findings) == ["device-purity"]
    assert findings[0].line == 4
    assert "xp ArrayModule" in findings[0].message


def test_device_purity_honours_numpy_import_alias():
    source = "import numpy\n\ndef f(a, b):\n    return numpy.einsum('ij,jk', a, b)\n"
    assert rules_of(lint_source(source, path=KERNELS_PATH)) == ["device-purity"]


def test_device_purity_allows_host_side_staging_helpers():
    # asarray / dtype objects / einsum_path are the host-side allowlist.
    source = (
        "import numpy as np\n"
        "def f(a):\n"
        "    path = np.einsum_path('ij,jk', a, a)\n"
        "    return np.asarray(a, dtype=np.float64)\n"
    )
    assert lint_source(source, path=KERNELS_PATH) == []


def test_device_purity_allows_xp_routed_math_and_other_modules():
    source = "import numpy as np\n\ndef f(xp, a, b):\n    return xp.matmul(a, b)\n"
    assert lint_source(source, path=KERNELS_PATH) == []
    # Outside the fast-path modules the rule does not apply at all.
    bare = "import numpy as np\n\ndef f(a, b):\n    return np.matmul(a, b)\n"
    assert lint_source(bare, path="repro/analysis/soundness.py") == []


def test_device_purity_suppression():
    source = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    return np.matmul(a, b)  # repro-lint: disable=device-purity\n"
    )
    assert lint_source(source, path=KERNELS_PATH) == []


# -- value-stable-cache-keys -------------------------------------------------


def test_cache_keys_flags_id_in_setdefault_and_subscript():
    source = (
        "def group(items, table):\n"
        "    for item in items:\n"
        "        table.setdefault(id(item), []).append(item)\n"
        "    table[id(items)] = items\n"
    )
    findings = lint_source(source, path="repro/quantum/channels.py")
    assert rules_of(findings) == ["value-stable-cache-keys"] * 2


def test_cache_keys_flags_id_key_assignment_and_cached_operator():
    source = (
        "def f(engine, obj, build):\n"
        "    cache_key = ('op', id(obj))\n"
        "    return engine.cached_operator(('op', id(obj)), build)\n"
    )
    findings = lint_source(source, path="repro/protocols/equality.py")
    assert len(findings) == 2
    assert set(rules_of(findings)) == {"value-stable-cache-keys"}


def test_cache_keys_flags_identity_fallback_getattr():
    source = (
        "def key_of(protocol, y):\n"
        "    return ('bob', getattr(protocol, 'cache_token', protocol), y)\n"
    )
    findings = lint_source(source, path="repro/protocols/qma_to_dqma.py")
    assert rules_of(findings) == ["value-stable-cache-keys"]
    assert "object identity" in findings[0].message


def test_cache_keys_allows_value_stable_tokens():
    source = (
        "def key_of(scheme, y):\n"
        "    return ('eq-right', scheme.cache_token, y)\n"
        "def default(getter, name):\n"
        "    return getattr(getter, name, None)\n"
    )
    assert lint_source(source, path="repro/protocols/equality.py") == []


def test_cache_keys_suppression():
    source = (
        "def group(items, table):\n"
        "    table.setdefault(id(items), [])  # repro-lint: disable=value-stable-cache-keys\n"
    )
    assert lint_source(source, path="repro/quantum/channels.py") == []


# -- picklable-entry-points --------------------------------------------------


def test_picklable_flags_lambda_submit():
    source = "def dispatch(pool):\n    return pool.submit(lambda: 1)\n"
    findings = lint_source(source, path="repro/experiments/runner.py")
    assert rules_of(findings) == ["picklable-entry-points"]
    assert "lambda" in findings[0].message


def test_picklable_flags_nested_function_submit():
    source = (
        "def dispatch(pool):\n"
        "    def work():\n"
        "        return 1\n"
        "    return pool.submit(work)\n"
    )
    findings = lint_source(source, path="repro/experiments/sweep.py")
    assert rules_of(findings) == ["picklable-entry-points"]
    assert "closures do not pickle" in findings[0].message


def test_picklable_flags_bound_method_submit():
    source = (
        "class Runner:\n"
        "    def go(self, pool, args):\n"
        "        return pool.submit(self.run, *args)\n"
    )
    findings = lint_source(source, path="repro/experiments/runner.py")
    assert rules_of(findings) == ["picklable-entry-points"]
    assert "bound method" in findings[0].message


def test_picklable_allows_module_level_entry_points():
    source = (
        "def run_chunk(points):\n"
        "    return points\n"
        "def dispatch(pool, chunk):\n"
        "    return pool.submit(run_chunk, chunk)\n"
    )
    assert lint_source(source, path="repro/experiments/runner.py") == []


def test_picklable_checks_only_the_pool_submit():
    # Only concurrent.futures' submit crosses a pickle boundary here.
    source = "def dispatch(loop):\n    return loop.call_soon(lambda: 1)\n"
    assert lint_source(source, path="repro/experiments/runner.py") == []


def test_picklable_suppression():
    source = (
        "def dispatch(pool):\n"
        "    # In-process thread pool only.  repro-lint: disable=picklable-entry-points\n"
        "    return pool.submit(lambda: 1)\n"
    )
    assert lint_source(source, path="repro/experiments/runner.py") == []


# -- env-var-discipline ------------------------------------------------------


def test_env_discipline_flags_direct_os_environ():
    source = "import os\n\ndef backend():\n    return os.environ.get('REPRO_BACKEND')\n"
    findings = lint_source(source, path="repro/engine/core.py")
    assert rules_of(findings) == ["env-var-discipline"]
    assert "repro.utils.env" in findings[0].message


def test_env_discipline_flags_os_getenv_and_unknown_names():
    source = (
        "import os\n"
        "from repro.utils.env import env_str\n"
        "def f():\n"
        "    os.getenv('HOME')\n"
        "    return env_str('REPRO_BACKEN')\n"
    )
    findings = lint_source(source, path="repro/experiments/report.py")
    assert rules_of(findings) == ["env-var-discipline"] * 2
    assert "typo" in findings[1].message


def test_env_discipline_allows_accessor_and_known_names():
    source = (
        "from repro.utils.env import env_bool, env_str\n"
        "def f():\n"
        "    return env_str('REPRO_BACKEND'), env_bool('REPRO_SANITIZE')\n"
    )
    assert lint_source(source, path="repro/engine/core.py") == []
    # The accessor module itself is the sanctioned os.environ user.
    accessor = "import os\n\ndef env_str(name):\n    return os.environ.get(name)\n"
    assert lint_source(accessor, path="src/repro/utils/env.py") == []


def test_env_discipline_suppression():
    source = (
        "import os\n"
        "def f():\n"
        "    return os.environ.get('REPRO_BACKEND')  # repro-lint: disable=env-var-discipline\n"
    )
    assert lint_source(source, path="repro/engine/core.py") == []


# -- dtype-discipline --------------------------------------------------------


def test_dtype_discipline_flags_complex128_literals():
    source = (
        "import numpy as np\n"
        "def f(xp, batch):\n"
        "    total = np.zeros(batch, dtype=np.complex128)\n"
        "    return xp.asarray(total, dtype='complex128')\n"
    )
    findings = lint_source(source, path="repro/engine/tree_contraction.py")
    assert rules_of(findings) == ["dtype-discipline"] * 2


def test_dtype_discipline_scoped_to_fast_path_modules():
    source = "import numpy as np\nop = np.zeros((2, 2), dtype=np.complex128)\n"
    assert lint_source(source, path="repro/quantum/channels.py") == []
    assert rules_of(lint_source(source, path=KERNELS_PATH)) == ["dtype-discipline"]


def test_dtype_discipline_suppression():
    source = (
        "import numpy as np\n"
        "def f(batch):\n"
        "    return np.zeros(batch, dtype=np.complex128)  # repro-lint: disable=dtype-discipline\n"
    )
    assert lint_source(source, path=KERNELS_PATH) == []


# -- engine mechanics --------------------------------------------------------


def test_own_line_suppression_covers_next_line():
    source = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    # host-side by design.  repro-lint: disable=device-purity\n"
        "    return np.matmul(a, b)\n"
    )
    assert lint_source(source, path=KERNELS_PATH) == []


def test_disable_all_and_multi_rule_suppressions():
    multi = (
        "import numpy as np\n"
        "def f(batch):\n"
        "    return np.trace(np.zeros(batch, dtype=np.complex128))"
        "  # repro-lint: disable=device-purity,dtype-discipline\n"
    )
    assert lint_source(multi, path=KERNELS_PATH) == []
    everything = (
        "import numpy as np\n"
        "def f(batch):\n"
        "    return np.trace(np.zeros(batch, dtype=np.complex128))  # repro-lint: disable=all\n"
    )
    assert lint_source(everything, path=KERNELS_PATH) == []


def test_suppression_of_other_rule_does_not_hide_finding():
    source = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    return np.matmul(a, b)  # repro-lint: disable=dtype-discipline\n"
    )
    assert rules_of(lint_source(source, path=KERNELS_PATH)) == ["device-purity"]


def test_rule_subset_selection():
    source = (
        "import numpy as np\n"
        "def f(a):\n"
        "    print('x')\n"
        "    return np.matmul(a, a)\n"
    )
    findings = lint_source(source, path=KERNELS_PATH, rules=["device-purity"])
    assert rules_of(findings) == ["device-purity"]


def test_unparsable_source_raises_lint_error():
    with pytest.raises(LintError):
        lint_source("def broken(:\n", path="repro/engine/core.py")


def test_source_module_parent_links():
    module = SourceModule("value = [1, 2]\n", path="repro/x.py")
    import ast

    list_node = next(node for node in ast.walk(module.tree) if isinstance(node, ast.List))
    assert isinstance(module.parent(list_node), ast.Assign)
    assert any(isinstance(node, ast.Module) for node in module.ancestors(list_node))
