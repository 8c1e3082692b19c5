"""The ``repro-lint`` command-line entry point.

Usage::

    repro-lint src/repro                   # lint a tree, text report
    repro-lint --format json src/repro     # machine-readable report (CI artifact)
    repro-lint --rules device-purity,dtype-discipline src/repro/engine
    repro-lint --list-rules                # registered rules + descriptions

Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
parse errors — the same contract ``repro-report`` follows, so CI can gate
on the exit code and keep the rendered report as an artifact.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.lint.base import available_rules, get_rule
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import LintError, lint_paths

_USAGE = (
    "usage: repro-lint [--format text|json] [--rules a,b,...] [--list-rules] "
    "path [path ...]\n"
)


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns 0 clean / 1 findings / 2 usage or parse error."""
    argv = list(sys.argv[1:] if argv is None else argv)
    output_format = "text"
    if "--format" in argv:
        index = argv.index("--format")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--format needs 'text' or 'json'\n")
            return 2
        output_format = argv.pop(index)
        if output_format not in ("text", "json"):
            sys.stderr.write(f"--format needs 'text' or 'json', got {output_format!r}\n")
            return 2
    rules: Optional[List[str]] = None
    if "--rules" in argv:
        index = argv.index("--rules")
        argv.pop(index)
        if index >= len(argv):
            sys.stderr.write("--rules needs a comma-separated rule list\n")
            return 2
        rules = [name for name in argv.pop(index).split(",") if name]
        for name in rules:
            try:
                get_rule(name)
            except KeyError as error:
                sys.stderr.write(f"{error.args[0]}\n")
                return 2
    if "--list-rules" in argv:
        argv.remove("--list-rules")
        for name in available_rules():
            sys.stdout.write(f"{name}: {get_rule(name).description}\n")
        return 0
    unknown = [arg for arg in argv if arg.startswith("-")]
    if unknown:
        sys.stderr.write(f"unrecognized arguments: {unknown}\n{_USAGE}")
        return 2
    if not argv:
        sys.stderr.write(_USAGE)
        return 2
    try:
        findings = lint_paths(argv, rules=rules)
    except LintError as error:
        sys.stderr.write(f"repro-lint: {error}\n")
        return 2
    renderer = render_json if output_format == "json" else render_text
    sys.stdout.write(renderer(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
