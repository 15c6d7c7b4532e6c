"""Command-line entry point: ``python -m repro COMMAND [flags]``.

Every command takes ``--scale smoke|default|paper``, ``--jobs N`` (sweep
worker processes; ``REPRO_JOBS``, 0 = all cores) and ``--trace DIR``
(write JSON-lines traces); every other flag belongs to the one command
that reads it, and ``python -m repro COMMAND --help`` lists them::

    tables              Table 2 + the two §5.2.1 tables
    figures             Figures 3-7 series
    overhead            §5(iii) overheads
    ablations           A1-A3 ablations
    all                 the four above
    report              regenerate EXPERIMENTS.md from a sweep
    run                 one (dataset, family) query lifecycle
    sweep               the full measurement sweep, no reports
    trace-report        summarize a trace directory       [--strict]
    serve               TCP serving front-end
                        [--host H --port N --duration S --workers N
                         --result-ttl S]

The benches, each writing one ``BENCH_*.json`` stamped with the
environment it ran in (table: :data:`repro.experiments.benches.BENCHES`)::

    bench-parallel      serial-vs-parallel sweep          (uses --jobs)
    load-bench          open-loop load, admission under overload
                        [--workers N --requests N --transport K
                         --arrivals K --rate RPS --deadline S
                         --result-ttl S]
    segment-bench       shared-mask segment matching
                        [--segments N --rows N]
    disjunction-bench   cached vs naive OR evaluation     [--rows N]
    calibration-bench   estimator feedback convergence    [--passes N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable
from contextlib import closing
from typing import NamedTuple

from repro import obs
from repro.core.catalog import ModelCatalog
from repro.core.optimizer import MiningQuery
from repro.core.rewrite import PredictionEquals
from repro.experiments import (
    ablation,
    figures,
    harness,
    overhead,
    report_doc,
    tables,
)
from repro.experiments.benches import (
    BENCHES,
    at_least,
    positive_float,
    run_bench,
)
from repro.experiments.config import (
    DEFAULT_CONFIG,
    PAPER_SCALE,
    SMOKE_CONFIG,
    ExperimentConfig,
    set_default_jobs,
)
from repro.serve.fixture import ServingFixture, add_engine_arguments
from repro.serve.transport import TCPServer
from repro.sql.miningext import PredictionJoinExecutor
from repro.sql.plancache import PlanCache
from repro.workload.runner import load_dataset

_SCALES: dict[str, ExperimentConfig] = {
    "smoke": SMOKE_CONFIG,
    "default": DEFAULT_CONFIG,
    "paper": PAPER_SCALE,
}


def _tables(config: ExperimentConfig, args: argparse.Namespace) -> None:
    tables.print_table2(config)
    print()
    tables.print_summary_tables(config)
    print()


def _figures(config: ExperimentConfig, args: argparse.Namespace) -> None:
    for figure in (3, 4, 5):
        figures.print_figure_plan_change(figure, config)
        print()
    figures.print_figure6(config)
    print()
    figures.print_figure7(config)
    print()


def _overhead(config: ExperimentConfig, args: argparse.Namespace) -> None:
    overhead.print_overheads(config)
    print()


def _ablations(config: ExperimentConfig, args: argparse.Namespace) -> None:
    ablation.print_ablations()


def _all(config: ExperimentConfig, args: argparse.Namespace) -> None:
    for handler in (_tables, _figures, _overhead, _ablations):
        handler(config, args)


def _report(config: ExperimentConfig, args: argparse.Namespace) -> None:
    target = report_doc.write_experiments_md(config=config)
    print(f"wrote {target}")


def _sweep(config: ExperimentConfig, args: argparse.Namespace) -> None:
    measurements = harness.run_all(config)
    changed = sum(1 for m in measurements if m.plan_changed)
    print(
        f"{len(measurements)} measurements across "
        f"{len(config.datasets)} datasets x "
        f"{len(config.families)} families "
        f"({changed} plan changes)"
    )


def _run_lifecycle(
    config: ExperimentConfig, args: argparse.Namespace
) -> None:
    """One full query lifecycle: train, derive, load, optimize, execute.

    Runs every class of the first (dataset, family) cell through both
    execution strategies — the smallest demo that exercises each phase
    the tracer instruments (derivation, optimization, plan capture,
    statistics, SQL fetch, residual model application).
    """
    name, family = config.datasets[0], config.families[0]
    dataset = harness.dataset_for(config, name)
    trained = harness.train_family(dataset, family, config)
    loaded = load_dataset(dataset, config.rows_target)
    try:
        catalog = ModelCatalog()
        catalog.register(trained.model, envelopes=trained.envelopes)
        executor = PredictionJoinExecutor(
            loaded.db,
            catalog,
            selectivity_gate=config.selectivity_gate,
            plan_cache=PlanCache(),
        )
        for label in trained.model.class_labels:
            query = MiningQuery(
                loaded.table,
                mining_predicates=(
                    PredictionEquals(trained.model.name, label),
                ),
            )
            optimized = executor.execute_optimized(query)
            naive = executor.execute_naive(query)
            print(
                f"{name}/{family} class={label!r}: "
                f"{optimized.rows_returned}/{loaded.rows_total} rows, "
                f"path={optimized.plan.access_path.value}, "
                f"fetched {optimized.rows_fetched} "
                f"(naive {naive.rows_fetched}), optimized "
                f"{optimized.total_seconds:.4f}s vs naive "
                f"{naive.total_seconds:.4f}s"
            )
            if optimized.rows_returned != naive.rows_returned:
                raise SystemExit(
                    f"strategy mismatch for class {label!r}: "
                    f"{optimized.rows_returned} != {naive.rows_returned}"
                )
        print(
            f"{len(trained.model.class_labels)} queries executed; "
            "strategies agree"
        )
    finally:
        loaded.db.close()


def _port(text: str) -> int:
    """An argparse ``type=`` accepting a TCP port, 0 (ephemeral) to 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, got {value}")
    return value


_port.__name__ = "int"  # argparse names the type in its error text


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    add_engine_arguments(parser)
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=_port,
        default=0,
        metavar="N",
        help="TCP port to bind (default: 0 = ephemeral)",
    )
    parser.add_argument(
        "--duration",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="stop after this many seconds (default: run until interrupted)",
    )


def _serve(config: ExperimentConfig, args: argparse.Namespace) -> None:
    """Stand up the TCP serving front-end over the serving fixture.

    The first dataset's table with its decision-tree and naive-Bayes
    models deployed, serving framed-protocol requests on
    ``--host``/``--port`` until ``--duration`` elapses (or forever).
    """
    # The server is built inside the ``with``: a bind that fails (port
    # taken, bad host) raises its TransportError through both exits, so
    # the engine's workers still stop and the database still closes.
    with closing(ServingFixture(config)) as fixture:
        try:
            with (
                fixture.engine(
                    args.workers, result_ttl=args.result_ttl
                ) as engine,
                TCPServer(engine, host=args.host, port=args.port) as server,
            ):
                host, port = server.address
                print(
                    f"serving {fixture.loaded.dataset.name} "
                    f"({fixture.loaded.rows_total} rows, models: "
                    f"{', '.join(fixture.registry.deployed_names())}) "
                    f"on {host}:{port}"
                )
                if args.duration is not None:
                    time.sleep(args.duration)
                else:  # pragma: no cover - interactive mode
                    while True:
                        time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
    print("serve: shut down cleanly")


def _trace_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on malformed trace lines",
    )
    # A missing directory is a usage error of this subcommand.
    parser.set_defaults(usage_error=parser.error)


def _trace_report(config: ExperimentConfig, args: argparse.Namespace) -> int:
    """Summarize a trace directory; nonzero exit on malformed lines."""
    directory = args.trace or os.environ.get(obs.ENV_TRACE_DIR)
    if directory is None:
        args.usage_error("trace-report needs --trace DIR (or REPRO_TRACE_DIR)")
    try:
        summary = obs.summarize(directory, strict=args.strict)
    except obs.TraceError as error:
        print(f"trace-report: {error}", file=sys.stderr)
        return 1
    print(obs.format_report(summary))
    if summary.malformed:
        print(
            f"trace-report: {len(summary.malformed)} malformed line(s)",
            file=sys.stderr,
        )
        return 1
    return 0


class Command(NamedTuple):
    """One non-bench subcommand: its help line, handler and own flags."""

    help: str
    handler: Callable[[ExperimentConfig, argparse.Namespace], int | None]
    add_arguments: Callable[[argparse.ArgumentParser], None] | None = None


COMMANDS: dict[str, Command] = {
    "tables": Command("Table 2 + the two §5.2.1 tables", _tables),
    "figures": Command("Figures 3-7 series", _figures),
    "overhead": Command("§5(iii) overheads", _overhead),
    "ablations": Command("A1-A3 ablations", _ablations),
    "all": Command("tables, figures, overhead and ablations", _all),
    "report": Command("regenerate EXPERIMENTS.md from a sweep", _report),
    "run": Command("one (dataset, family) query lifecycle", _run_lifecycle),
    "sweep": Command("the full measurement sweep, no reports", _sweep),
    "trace-report": Command(
        "summarize a trace directory (--trace DIR or REPRO_TRACE_DIR)",
        _trace_report,
        _trace_report_arguments,
    ),
    "serve": Command(
        "TCP serving front-end over trained models", _serve, _serve_arguments
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Subcommands over one shared parent (``--scale/--jobs/--trace``)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="experiment scale (default: default)",
    )
    shared.add_argument(
        "--jobs",
        type=at_least(0),
        default=None,
        metavar="N",
        help="worker processes for the measurement sweep "
        "(default: REPRO_JOBS, else 1; 0 = all cores)",
    )
    shared.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="write JSON-lines traces to DIR; for trace-report, the "
        "directory to summarize (default: REPRO_TRACE_DIR)",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures, serve "
        "mining queries, and run the benches.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND"
    )
    for name, command in COMMANDS.items():
        subparser = commands.add_parser(
            name, parents=[shared], help=command.help
        )
        if command.add_arguments is not None:
            command.add_arguments(subparser)
    for name, bench in BENCHES.items():
        subparser = commands.add_parser(
            name, parents=[shared], help=f"writes {bench.output}"
        )
        bench.load().add_arguments(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the selected command."""
    args = build_parser().parse_args(argv)
    config = _SCALES[args.scale]
    # trace-report reads --trace as its input; everything else writes it.
    traced = args.trace is not None and args.command != "trace-report"
    if traced:
        obs.configure(args.trace)
    if args.jobs is not None:
        set_default_jobs(args.jobs or os.cpu_count() or 1)
    status = 0
    if args.command in BENCHES:
        run_bench(args.command, config, args)
    else:
        status = COMMANDS[args.command].handler(config, args) or 0
    if traced:
        obs.flush()
        print(f"traces written to {args.trace}")
    return status


if __name__ == "__main__":
    sys.exit(main())
