"""The repro-lint CLI: formats, exit codes, and the repo-wide clean gate."""

import json
import os

import pytest

import repro
from repro.lint.cli import main

CLEAN = "import numpy as np\n\ndef f(xp, a, b):\n    return xp.matmul(a, b)\n"
DIRTY = "import numpy as np\n\ndef f(a, b):\n    return np.matmul(a, b)\n"


@pytest.fixture
def fast_path_file(tmp_path):
    """A file whose path pulls the fast-path scoped rules into play."""
    directory = tmp_path / "repro" / "engine"
    directory.mkdir(parents=True)

    def write(source):
        path = directory / "kernels.py"
        path.write_text(source, encoding="utf-8")
        return str(path)

    return write


def test_clean_file_exits_zero(fast_path_file, capsys):
    assert main([fast_path_file(CLEAN)]) == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_findings_exit_one_with_text_report(fast_path_file, capsys):
    assert main([fast_path_file(DIRTY)]) == 1
    out = capsys.readouterr().out
    assert "kernels.py:4:" in out
    assert "device-purity" in out
    assert "1 finding(s)" in out


def test_json_format_is_machine_readable(fast_path_file, capsys):
    assert main(["--format", "json", fast_path_file(DIRTY)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["summary"]["total"] == 1
    assert report["summary"]["by_rule"] == {"device-purity": 1}
    assert len(report["rules"]) == 5
    finding = report["findings"][0]
    assert finding["rule"] == "device-purity"
    assert finding["line"] == 4


def test_directory_walk_and_rule_subset(fast_path_file, tmp_path, capsys):
    fast_path_file(DIRTY)
    assert main(["--rules", "dtype-discipline", str(tmp_path)]) == 0
    assert main(["--rules", "device-purity", str(tmp_path)]) == 1


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "device-purity",
        "value-stable-cache-keys",
        "picklable-entry-points",
        "env-var-discipline",
        "dtype-discipline",
    ):
        assert name in out


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no paths
        ["--format"],  # missing value
        ["--format", "xml", "x.py"],  # unknown format
        ["--rules"],  # missing value
        ["--rules", "no-such-rule", "x.py"],  # unknown rule
        ["--frobnicate", "x.py"],  # unknown flag
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err


def test_unparsable_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert main([str(bad)]) == 2
    assert "repro-lint:" in capsys.readouterr().err


def test_repo_source_tree_is_clean(capsys):
    """The acceptance gate: repro-lint over the installed package exits 0."""
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert main([package_dir]) == 0
    assert "clean: no findings" in capsys.readouterr().out
