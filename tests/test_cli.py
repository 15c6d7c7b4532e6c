"""Integration tests for the ``python -m repro`` command line."""

import json
import re
import shlex
import socket
import threading
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro import obs
from repro.__main__ import COMMANDS, build_parser, main
from repro.exceptions import TransportError
from repro.experiments.benches import BENCHES

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Flags of the shared parent parser (plus argparse's own --help).
SHARED_FLAGS = {"--help", "--scale", "--jobs", "--trace"}

#: Every other flag, under the one subcommand (or few) that reads it.
ENGINE_FLAGS = {"--workers", "--result-ttl"}
OWN_FLAGS = {
    **{name: set() for name in (*COMMANDS, *BENCHES)},
    "trace-report": {"--strict"},
    "serve": ENGINE_FLAGS | {"--host", "--port", "--duration"},
    "load-bench": ENGINE_FLAGS
    | {"--requests", "--transport", "--arrivals", "--rate", "--deadline"},
    "segment-bench": {"--segments", "--rows"},
    "disjunction-bench": {"--rows"},
    "calibration-bench": {"--passes"},
}


@pytest.fixture
def clean_obs():
    """Disable tracing after tests that pass ``--trace``."""
    yield
    obs.configure(None)


class TestCLI:
    def test_tables_smoke(self, capsys):
        assert main(["tables", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Average reduction in running time" in output
        assert "Paper" in output

    def test_figures_smoke(self, capsys):
        assert main(["figures", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        for figure in ("Figure 3", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7"):
            assert figure in output

    def test_report_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--scale", "smoke"]) == 0
        assert (tmp_path / "EXPERIMENTS.md").exists()

    def test_jobs_flag(self, capsys):
        from repro.experiments.config import default_jobs, set_default_jobs

        try:
            assert main(["tables", "--scale", "smoke", "--jobs", "2"]) == 0
            assert default_jobs() == 2
        finally:
            set_default_jobs(None)
        output = capsys.readouterr().out
        assert "Average reduction in running time" in output

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["tables", "--scale", "galactic"])

    def test_run_smoke(self, capsys):
        assert main(["run", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "strategies agree" in output

    def test_sweep_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        assert main(["sweep", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "measurements across" in output


def _ci_command_lines() -> list[str]:
    """Every ``python -m repro`` argument string ci.yml runs."""
    found = []
    for line in (
        (REPO_ROOT / ".github/workflows/ci.yml").read_text().splitlines()
    ):
        line = line.strip()
        if line.startswith("bench: "):  # a row of the smoke matrix
            found.append(line[len("bench: ") :] + " --trace traces")
        elif "python -m repro " in line and "${{" not in line:
            found.append(line.split("python -m repro ", 1)[1])
    return found


class TestSubcommands:
    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_help_lists_only_that_commands_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
        assert flags == SHARED_FLAGS | OWN_FLAGS[command]
        # No flag needs a "load-bench:"-style prefix to say whose it is.
        for name in OWN_FLAGS:
            assert f"{name}:" not in text

    def test_flag_set_is_the_seventeen_left_of_the_flat_parser(self):
        # Its nineteen minus --batch-size and --processes, each of which
        # left with the one bench that read it.
        everything = set().union(SHARED_FLAGS, *OWN_FLAGS.values())
        assert len(everything - {"--help"}) == 17

    def test_every_command_is_in_the_docstring_and_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in OWN_FLAGS:
            assert re.search(rf"^    {name}\b", cli.__doc__, re.MULTILINE)
            assert f"python -m repro {name}" in readme

    @pytest.mark.parametrize(
        "argv",
        [
            "tables --segments 5",  # a flag of another subcommand
            "load-bench --workers 0",
            "load-bench --requests 0",
            "load-bench --rate 0",
            "load-bench --deadline 0",
            "calibration-bench --passes 1",
            "bench-vectorized --batch-size 0",  # a retired command is none
            "serve-bench",  # nor is this one (the only place it is named)
            "segment-bench --segments 0",
            "segment-bench --rows 0",
            "disjunction-bench --rows 0",
            "serve --duration 0",
            "serve --port 70000",  # before any fixture is built
            "serve --port -1",
            "tables --jobs -1",
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_every_ci_command_line_parses(self):
        lines = _ci_command_lines()
        # tier1's three (run, sweep, trace-report), the five matrix
        # rows, and the matrix job's own trace-report.
        assert len(lines) == 9
        assert {shlex.split(line)[0] for line in lines} >= set(BENCHES) - {
            "bench-parallel"
        }
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line))


class TestServe:
    def test_failed_bind_stops_the_engine(self):
        """A port already taken is reported typed, and the engine built
        before the bind does not outlive it."""
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            with pytest.raises(TransportError, match="could not bind"):
                main(
                    ["serve", "--scale", "smoke", "--port", str(port),
                     "--duration", "0.1"]
                )
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-serve-worker-")
        ]

    def test_serves_on_an_ephemeral_port_then_exits(self, capsys):
        assert main(["serve", "--scale", "smoke", "--duration", "0.1"]) == 0
        output = capsys.readouterr().out
        assert re.search(r"on 127\.0\.0\.1:\d+", output)
        assert "shut down cleanly" in output


class TestTraceCLI:
    def test_traced_run_round_trip(self, capsys, tmp_path, clean_obs):
        from repro.experiments import harness

        # A trained-model cache hit would skip (and so not trace) the
        # derivation phase this test asserts on.
        harness.clear_caches()
        trace_dir = tmp_path / "traces"
        assert main(
            ["run", "--scale", "smoke", "--trace", str(trace_dir)]
        ) == 0
        obs.configure(None)  # close the file before reading it back
        assert list(trace_dir.glob("*.jsonl"))

        assert main(
            ["trace-report", "--trace", str(trace_dir), "--strict"]
        ) == 0
        output = capsys.readouterr().out
        # Every lifecycle phase shows up as a span.
        for phase in (
            "derive.envelopes",
            "optimize",
            "plan.capture",
            "stats.build",
            "execute.optimized",
            "execute.sql",
            "execute.model",
        ):
            assert phase in output
        assert "Estimator accuracy" in output

    def test_estimator_records_carry_both_selectivities(
        self, tmp_path, clean_obs
    ):
        trace_dir = tmp_path / "traces"
        assert main(
            ["run", "--scale", "smoke", "--trace", str(trace_dir)]
        ) == 0
        obs.configure(None)
        records = [
            payload
            for path in trace_dir.glob("*.jsonl")
            for line in path.read_text().splitlines()
            for payload in [json.loads(line)]
            if payload["type"] == "estimator_accuracy"
        ]
        assert records
        for record in records:
            assert 0.0 <= record["estimated"] <= 1.0
            assert 0.0 <= record["actual"] <= 1.0

    def test_trace_report_fails_on_malformed_lines(
        self, capsys, tmp_path
    ):
        (tmp_path / "trace_bad.jsonl").write_text("{broken\n")
        assert main(["trace-report", "--trace", str(tmp_path)]) == 1
        assert main(
            ["trace-report", "--trace", str(tmp_path), "--strict"]
        ) == 1

    def test_trace_report_requires_directory(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_TRACE_DIR, raising=False)
        with pytest.raises(SystemExit):
            main(["trace-report"])

    def test_trace_report_reads_env_var(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "trace_a.jsonl").write_text(
            '{"type": "span", "name": "s", "seconds": 0.1}\n'
        )
        monkeypatch.setenv(obs.ENV_TRACE_DIR, str(tmp_path))
        assert main(["trace-report"]) == 0
        assert "trace files: 1" in capsys.readouterr().out
