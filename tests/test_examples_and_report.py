"""Smoke tests: every example script runs end to end, and the report generator works."""

import hashlib
import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))

#: md5 of the default report (numpy transfer-matrix backend, complex128).
REPORT_MD5 = "d1113af9df26e3b776e5d1fc73f07065"


def _load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_has_at_least_five_scenarios(self):
        assert len(EXAMPLE_FILES) >= 5

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_runs_to_completion(self, path, capsys):
        module = _load_module(path)
        assert hasattr(module, "main"), f"{path.name} must expose a main() function"
        module.main()
        captured = capsys.readouterr()
        assert captured.out.strip(), f"{path.name} should print its results"


class TestReport:
    def test_report_contains_every_section(self):
        from repro.experiments.report import generate_report

        report = generate_report(include_soundness=False)
        for marker in (
            "Table 1 — FGNP21 baselines",
            "Table 2 — upper bounds",
            "Table 2 — small-instance protocol verification",
            "Table 3 — lower bounds",
            "Theorem 2 — crossover points",
        ):
            assert marker in report

    def test_default_report_is_pinned_byte_for_byte(self, monkeypatch):
        """The default report's bytes are pinned by their md5.

        A change that alters the report on purpose updates ``REPORT_MD5``
        and names the rows it changes, and why, in CHANGES.md.
        """
        from repro.experiments.report import generate_report

        for name in ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_DEVICE"):
            monkeypatch.delenv(name, raising=False)
        report = generate_report()
        assert hashlib.md5(report.encode("utf-8")).hexdigest() == REPORT_MD5

    def test_report_cli_writes_file(self, tmp_path):
        from repro.experiments.report import main

        target = tmp_path / "report.txt"
        exit_code = main([str(target)])
        assert exit_code == 0
        assert "Table 3" in target.read_text(encoding="utf-8")

    def test_report_cli_scenario_subset(self, tmp_path):
        from repro.experiments.report import main

        target = tmp_path / "subset.txt"
        exit_code = main(["--scenarios", "table1,crossover", str(target)])
        assert exit_code == 0
        text = target.read_text(encoding="utf-8")
        assert "Table 1 — FGNP21 baselines" in text
        assert "Theorem 2 — fixed-path crossover sweep" in text
        assert "Table 3" not in text

    def test_report_cli_scenarios_flag_needs_a_value(self):
        from repro.experiments.report import main

        assert main(["--scenarios"]) == 2

    def test_report_cli_exits_nonzero_on_failed_section(self, tmp_path, capsys):
        from repro.experiments.report import main
        from repro.experiments.runner import register_scenario

        register_scenario(
            "report-failing-demo", _failing_report_builder, title="Failing report demo"
        )
        try:
            target = tmp_path / "failed.txt"
            exit_code = main(["--scenarios", "report-failing-demo,table1", str(target)])
        finally:
            from repro.experiments import runner as runner_module

            runner_module._REGISTRY.pop("report-failing-demo", None)
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "report-failing-demo" in err
        assert "FAILED" in err
        text = target.read_text(encoding="utf-8")
        # The report itself is still written in full, failed section included.
        assert "FAILED: RuntimeError: intentional report crash" in text
        assert "Table 1 — FGNP21 baselines" in text

    def test_report_cli_progress_streams_chunk_lines(self, tmp_path, capsys):
        from repro.experiments.report import main

        target = tmp_path / "progress.txt"
        exit_code = main(["--progress", "--scenarios", "table1", str(target)])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "table1 chunk" in err
        serial = tmp_path / "serial.txt"
        assert main(["--scenarios", "table1", str(serial)]) == 0
        assert target.read_bytes() == serial.read_bytes()

    def test_report_cli_rejects_unknown_flags(self, capsys):
        from repro.experiments.report import main

        assert main(["--bogus"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        # The dispatch-tuning flags are gone: one pool, static chunks.
        for flag in ("--launcher", "--chunk-size", "--no-adaptive"):
            assert main([flag]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_generate_report_status_reports_failed_names(self):
        from repro.experiments.report import generate_report_status
        from repro.experiments.runner import register_scenario

        register_scenario(
            "report-failing-demo", _failing_report_builder, title="Failing report demo"
        )
        try:
            report, failed = generate_report_status(
                scenarios=["table1", "report-failing-demo"]
            )
        finally:
            from repro.experiments import runner as runner_module

            runner_module._REGISTRY.pop("report-failing-demo", None)
        assert failed == ["report-failing-demo"]
        assert "FAILED:" in report


def _failing_report_builder():
    raise RuntimeError("intentional report crash")
