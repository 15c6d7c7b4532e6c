"""Command-line entry point: run the paper's experiments.

Usage::

    python -m repro tables              # Table 2 + the two §5.2.1 tables
    python -m repro figures             # Figures 3-7 series
    python -m repro overhead            # §5(iii) overheads
    python -m repro ablations           # A1-A3 ablations
    python -m repro all                 # everything above
    python -m repro tables --scale smoke|default|paper
    python -m repro tables --jobs 4     # parallel sweep (or REPRO_JOBS=4)
    python -m repro run                 # one (dataset, family) lifecycle
    python -m repro sweep               # the full measurement sweep
    python -m repro bench-parallel      # serial-vs-parallel sweep timings
    python -m repro bench-vectorized    # scalar-vs-vectorized scoring
    python -m repro serve-bench --workers 4   # concurrent serving bench
    python -m repro serve-bench --transport tcp --processes 2
    python -m repro serve --port 7653 --duration 5   # TCP serving front-end
    python -m repro load-bench --arrivals poisson --transport inproc
    python -m repro load-bench --arrivals burst --rate 200 --trace DIR
    python -m repro segment-bench --segments 1000  # shared-mask matching
    python -m repro disjunction-bench   # cached vs naive OR evaluation
    python -m repro calibration-bench   # estimator feedback convergence
    python -m repro run --trace DIR     # write JSON-lines traces to DIR
    python -m repro trace-report --trace DIR   # summarize a trace dir
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.config import (
    DEFAULT_CONFIG,
    PAPER_SCALE,
    SMOKE_CONFIG,
    ExperimentConfig,
)

_SCALES: dict[str, ExperimentConfig] = {
    "smoke": SMOKE_CONFIG,
    "default": DEFAULT_CONFIG,
    "paper": PAPER_SCALE,
}


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the selected experiment group."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=(
            "tables",
            "figures",
            "overhead",
            "ablations",
            "report",
            "run",
            "sweep",
            "trace-report",
            "bench-parallel",
            "bench-vectorized",
            "serve-bench",
            "serve",
            "load-bench",
            "segment-bench",
            "disjunction-bench",
            "calibration-bench",
            "all",
        ),
        help="which experiment group to run",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="experiment scale (default: default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the measurement sweep "
        "(default: REPRO_JOBS, else 1; 0 = all cores)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=2048,
        metavar="N",
        help="rows per columnar batch for bench-vectorized (default: 2048)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="serve-bench: maximum service worker count (default: 4)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=400,
        metavar="N",
        help="serve-bench: requests per run (default: 400)",
    )
    parser.add_argument(
        "--transport",
        choices=("inproc", "socketpair", "tcp", "router", "all"),
        default="all",
        help="serve-bench: which transport adapters to replay the "
        "schedule through (default: all); load-bench: the transport "
        "for the determinism section ('all' means inproc; 'router' is "
        "load-bench only)",
    )
    parser.add_argument(
        "--arrivals",
        choices=("constant", "poisson", "burst", "ramp"),
        default="poisson",
        help="load-bench: arrival process shape (default: poisson)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="RPS",
        help="load-bench: offered overload rate in requests/second "
        "(default: auto-calibrated to 3x measured capacity)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="load-bench: per-request deadline "
        "(default: auto-calibrated from the serial probe)",
    )
    parser.add_argument(
        "--result-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve/serve-bench/load-bench: cache identical results "
        "for this long (default: off)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="serve-bench: also run the multi-process router at "
        "1/2/N worker processes (default: 0 = skip the router)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="serve: interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="serve: TCP port to bind (default: 0 = ephemeral)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve: stop after this many seconds "
        "(default: run until interrupted)",
    )
    parser.add_argument(
        "--segments",
        type=int,
        default=1000,
        metavar="N",
        help="segment-bench: catalog size (default: 1000)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=8192,
        metavar="N",
        help="segment-bench/disjunction-bench: rows streamed through "
        "evaluation (default: 8192)",
    )
    parser.add_argument(
        "--passes",
        type=int,
        default=4,
        metavar="N",
        help="calibration-bench: workload passes through the calibrated "
        "executor (default: 4)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="write JSON-lines traces to DIR (for trace-report: the "
        "directory to summarize; default: REPRO_TRACE_DIR)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="trace-report: fail on malformed trace lines",
    )
    arguments = parser.parse_args(argv)
    config = _SCALES[arguments.scale]
    if arguments.artifact == "trace-report":
        return _trace_report(parser, arguments)
    if arguments.trace is not None:
        from repro import obs

        obs.configure(arguments.trace)
    if arguments.jobs is not None:
        from repro.experiments.config import set_default_jobs

        if arguments.jobs < 0:
            parser.error(f"--jobs must be >= 0, got {arguments.jobs}")
        jobs = arguments.jobs
        if jobs == 0:
            import os

            jobs = os.cpu_count() or 1
        set_default_jobs(jobs)

    if arguments.artifact in ("tables", "all"):
        from repro.experiments import tables

        tables.print_table2(config)
        print()
        tables.print_summary_tables(config)
        print()
    if arguments.artifact in ("figures", "all"):
        from repro.experiments import figures

        for figure in (3, 4, 5):
            figures.print_figure_plan_change(figure, config)
            print()
        figures.print_figure6(config)
        print()
        figures.print_figure7(config)
        print()
    if arguments.artifact in ("overhead", "all"):
        from repro.experiments import overhead

        overhead.print_overheads(config)
        print()
    if arguments.artifact in ("ablations", "all"):
        from repro.experiments import ablation

        ablation.print_ablations()
    if arguments.artifact == "report":
        from repro.experiments import report_doc

        target = report_doc.write_experiments_md(config=config)
        print(f"wrote {target}")
    if arguments.artifact == "run":
        _run_lifecycle(config)
    if arguments.artifact == "sweep":
        from repro.experiments import harness

        measurements = harness.run_all(config)
        changed = sum(1 for m in measurements if m.plan_changed)
        print(
            f"{len(measurements)} measurements across "
            f"{len(config.datasets)} datasets x "
            f"{len(config.families)} families "
            f"({changed} plan changes)"
        )
    if arguments.artifact == "bench-parallel":
        import os

        from repro.experiments.config import default_jobs
        from repro.experiments.parallel import benchmark_parallel_sweep

        parallel_jobs = default_jobs()
        if parallel_jobs <= 1:
            parallel_jobs = os.cpu_count() or 1
        report = benchmark_parallel_sweep(
            config,
            jobs=(1, parallel_jobs),
            scale=arguments.scale,
        )
        for run in report["runs"]:
            print(
                f"jobs={run['jobs']}: {run['seconds']:.2f}s "
                f"({run['measurements']} measurements, "
                f"speedup {run['speedup_vs_first']:.2f}x)"
            )
        print(
            "identical measurement sets: "
            f"{report['identical_measurements']}"
        )
        print("wrote BENCH_parallel_sweep.json")
    if arguments.artifact == "bench-vectorized":
        from repro.experiments.bench_vectorized import (
            benchmark_vectorized_scoring,
        )

        if arguments.batch_size < 1:
            parser.error(
                f"--batch-size must be >= 1, got {arguments.batch_size}"
            )
        report = benchmark_vectorized_scoring(
            config,
            scale=arguments.scale,
            batch_size=arguments.batch_size,
        )
        for entry in report["families"]:
            speedup = entry["speedup"]
            shown = f"{speedup:.2f}x" if speedup is not None else "n/a"
            print(
                f"{entry['family']}: scalar "
                f"{entry['scalar_model_seconds']:.3f}s, vectorized "
                f"{entry['vectorized_model_seconds']:.3f}s "
                f"(speedup {shown}, rows identical: "
                f"{entry['rows_identical']})"
            )
        overall = report["overall_speedup"]
        shown = f"{overall:.2f}x" if overall is not None else "n/a"
        print(
            f"overall speedup {shown}; all rows identical: "
            f"{report['all_rows_identical']}"
        )
        print("wrote BENCH_vectorized_scoring.json")
    if arguments.artifact == "serve-bench":
        import json

        from repro.serve.bench import run_serving_bench

        if arguments.workers < 1:
            parser.error(
                f"--workers must be >= 1, got {arguments.workers}"
            )
        if arguments.requests < 1:
            parser.error(
                f"--requests must be >= 1, got {arguments.requests}"
            )
        if arguments.processes < 0:
            parser.error(
                f"--processes must be >= 0, got {arguments.processes}"
            )
        if arguments.transport == "router":
            parser.error(
                "serve-bench: --transport router is load-bench only "
                "(use --processes N for the router matrix)"
            )
        worker_counts = tuple(
            sorted({1, 2, arguments.workers} - {0})
        )
        worker_counts = tuple(
            w for w in worker_counts if w <= arguments.workers
        )
        transports = (
            ("inproc", "socketpair", "tcp")
            if arguments.transport == "all"
            else (arguments.transport,)
        )
        report = run_serving_bench(
            config,
            workers=worker_counts,
            requests=arguments.requests,
            transports=transports,
            processes=arguments.processes,
            result_ttl=arguments.result_ttl,
        )
        serial = report["serial"]
        print(
            f"serial: {serial['seconds']:.2f}s "
            f"({serial['throughput_rps']:.1f} req/s, "
            f"p50 {serial['p50_ms']:.1f}ms)"
        )
        for run in report["runs"]:
            print(
                f"workers={run['workers']}: {run['seconds']:.2f}s "
                f"({run['throughput_rps']:.1f} req/s, "
                f"speedup {run['speedup_vs_serial']:.2f}x, "
                f"collapsed {run['collapsed']}, "
                f"coalesced {run['batch_coalesced']}, "
                f"identical: {run['identical_to_serial']})"
            )
        print(
            f"best speedup vs serial: "
            f"{report['best_speedup_vs_serial']:.2f}x"
        )
        for entry in report["transports"]:
            print(
                f"transport={entry['transport']}: "
                f"{entry['seconds']:.2f}s "
                f"({entry['throughput_rps']:.1f} req/s, "
                f"identical: {entry['identical_to_serial']})"
            )
        for entry in report["router"]:
            print(
                f"router processes={entry['processes']}: "
                f"{entry['seconds']:.2f}s "
                f"({entry['throughput_rps']:.1f} req/s, "
                f"identical: {entry['identical_to_serial']})"
            )
        if report["transport_matrix"]:
            identical = all(report["transport_matrix"].values())
            print(
                "transport matrix byte-identical: "
                f"{identical} ({', '.join(sorted(report['transport_matrix']))})"
            )
        with open("BENCH_serving.json", "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print("wrote BENCH_serving.json")
    if arguments.artifact == "serve":
        if arguments.duration is not None and arguments.duration <= 0:
            parser.error(
                f"--duration must be > 0, got {arguments.duration}"
            )
        _serve_tcp(config, arguments)
    if arguments.artifact == "load-bench":
        import json

        from repro.load.bench import run_load_bench

        if arguments.workers < 1:
            parser.error(
                f"--workers must be >= 1, got {arguments.workers}"
            )
        if arguments.requests < 1:
            parser.error(
                f"--requests must be >= 1, got {arguments.requests}"
            )
        if arguments.rate is not None and arguments.rate <= 0:
            parser.error(f"--rate must be > 0, got {arguments.rate}")
        if arguments.deadline is not None and arguments.deadline <= 0:
            parser.error(
                f"--deadline must be > 0, got {arguments.deadline}"
            )
        transport = (
            "inproc"
            if arguments.transport == "all"
            else arguments.transport
        )
        report = run_load_bench(
            config,
            arrivals=arguments.arrivals,
            rate=arguments.rate,
            requests=arguments.requests,
            workers=arguments.workers,
            deadline=arguments.deadline,
            transport=transport,
            result_ttl=arguments.result_ttl,
        )
        calibration = report["calibration"]
        print(
            f"calibration: service mean "
            f"{calibration['service_mean_ms']:.2f}ms, capacity "
            f"{calibration['capacity_rps']:.0f} req/s, deadline "
            f"{calibration['deadline_ms']:.1f}ms"
        )
        determinism = report["determinism"]
        print(
            f"determinism[{determinism['transport']}] at "
            f"{determinism['rate_rps']:.0f} req/s: offsets identical "
            f"{determinism['offsets_identical']}, rows identical "
            f"{determinism['rows_identical']}"
        )
        overload = report["overload"]
        for policy in ("static", "adaptive"):
            row = overload[policy]
            print(
                f"overload[{policy}] at {overload['rate_rps']:.0f} "
                f"req/s: goodput {row['goodput']:.1f} req/s, p99 "
                f"{row['latency_ms']['p99']:.1f}ms, shed "
                f"{row['shed']}, queued timeouts "
                f"{row['queued_timeout']}, late {row['late']}"
            )
        passed = sorted(
            name for name, ok in overload["gates"].items() if ok
        )
        missed = sorted(
            name for name, ok in overload["gates"].items() if not ok
        )
        print("gates passed: " + (", ".join(passed) or "none"))
        if missed:
            print(
                "gates informational (bursty arrivals, not enforced): "
                + ", ".join(missed)
            )
        with open("BENCH_load.json", "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print("wrote BENCH_load.json")
    if arguments.artifact == "segment-bench":
        import json

        from repro.segments.bench import run_segment_bench

        if arguments.segments < 1:
            parser.error(
                f"--segments must be >= 1, got {arguments.segments}"
            )
        if arguments.rows < 1:
            parser.error(f"--rows must be >= 1, got {arguments.rows}")
        report = run_segment_bench(
            config,
            segments=arguments.segments,
            rows=arguments.rows,
        )
        print(
            f"catalog: {report['segments']} segments "
            f"({report['model_segments']} model-backed, "
            f"{report['hand_written_segments']} hand-written), "
            f"{report['rows']} rows in {report['batches']} batches"
        )
        print(
            f"naive:  {report['naive']['seconds']:.2f}s "
            f"({report['naive']['rows_per_second']:.0f} rows/s)"
        )
        shared = report["shared"]
        print(
            f"shared: {shared['seconds']:.2f}s "
            f"({shared['rows_per_second']:.0f} rows/s, "
            f"{shared['masks_computed']} masks computed, "
            f"{shared['masks_shared']} shared, "
            f"share ratio {shared['share_ratio']:.2f})"
        )
        print(
            f"speedup {report['speedup']:.2f}x; memberships identical: "
            f"{report['memberships_identical']}"
        )
        target = "BENCH_segment_matching.json"
        with open(target, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {target}")
    if arguments.artifact == "disjunction-bench":
        import json

        from repro.experiments.bench_disjunction import (
            run_disjunction_bench,
        )

        if arguments.rows < 1:
            parser.error(f"--rows must be >= 1, got {arguments.rows}")
        report = run_disjunction_bench(config, rows=arguments.rows)
        for envelope in report["envelopes"]:
            print(
                f"{envelope['family']}/{envelope['label']}: "
                f"{envelope['disjuncts']} disjuncts, "
                f"naive {envelope['naive_seconds']:.3f}s, "
                f"cached {envelope['cached_seconds']:.3f}s "
                f"({envelope['speedup']:.2f}x, share ratio "
                f"{envelope['share_ratio']:.2f})"
            )
        union = report["union_lowering"]
        print(
            f"union lowering: flat {union['flat_access_path']} -> "
            f"{union['branches']} branches {union['union_access_path']} "
            f"(rows identical: {union['rows_identical']})"
        )
        print(f"overall speedup {report['overall']['speedup']:.2f}x")
        target = "BENCH_disjunction.json"
        with open(target, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {target}")
    if arguments.artifact == "calibration-bench":
        import json

        from repro.experiments.bench_calibration import (
            run_calibration_bench,
        )

        if arguments.passes < 2:
            parser.error(f"--passes must be >= 2, got {arguments.passes}")
        report = run_calibration_bench(config, passes=arguments.passes)
        for entry in report["pass_reports"]:
            error = entry["abs_error"]
            print(
                f"pass {entry['pass']}: |est-actual| "
                f"p50={error['p50']:.4f} p90={error['p90']:.4f} "
                f"max={error['max']:.4f} "
                f"(overlay hits {entry['overlay_hits']}/"
                f"{entry['overlay_lookups']}, "
                f"recalibrations {entry['recalibrations']})"
            )
        print(
            "error quantiles strictly shrunk: "
            f"{report['first_vs_last']['strictly_shrunk']}; rows identical "
            f"across passes: {report['rows_identical_across_passes']}, "
            f"vs uncalibrated: {report['rows_identical_to_uncalibrated']}"
        )
        target = "BENCH_calibration.json"
        with open(target, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {target}")
    if arguments.trace is not None:
        from repro import obs

        obs.flush()
        print(f"traces written to {arguments.trace}")
    return 0


def _serve_tcp(
    config: ExperimentConfig, arguments: argparse.Namespace
) -> None:
    """Stand up the TCP serving front-end over trained smoke models.

    Trains and deploys the first dataset's decision-tree and naive-Bayes
    models, loads the table, and serves framed-protocol requests on
    ``--host``/``--port`` until ``--duration`` elapses (or forever).
    """
    import time

    from repro.experiments import harness
    from repro.serve.engine import ServeEngine
    from repro.serve.registry import ModelRegistry
    from repro.serve.transport import TCPServer
    from repro.workload.measurement import (
        FAMILY_DECISION_TREE,
        FAMILY_NAIVE_BAYES,
    )
    from repro.workload.runner import load_dataset

    name = config.datasets[0]
    dataset = harness.dataset_for(config, name)
    loaded = load_dataset(dataset, config.rows_target)
    registry = ModelRegistry(max_nodes=config.max_nodes)
    for family in (FAMILY_DECISION_TREE, FAMILY_NAIVE_BAYES):
        trained = harness.train_family(dataset, family, config)
        registry.register(trained.model, deploy=True)
    engine = ServeEngine(
        loaded.db,
        registry,
        workers=arguments.workers,
        selectivity_gate=config.selectivity_gate,
        result_ttl=arguments.result_ttl,
    )
    server = TCPServer(engine, host=arguments.host, port=arguments.port)
    host, port = server.address
    print(
        f"serving {dataset.name} ({loaded.rows_total} rows, models: "
        f"{', '.join(registry.deployed_names())}) on {host}:{port}"
    )
    try:
        if arguments.duration is not None:
            time.sleep(arguments.duration)
        else:  # pragma: no cover - interactive mode
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    finally:
        server.close()
        engine.shutdown()
        loaded.db.close()
        print("serve: shut down cleanly")


def _run_lifecycle(config: ExperimentConfig) -> None:
    """One full query lifecycle: train, derive, load, optimize, execute.

    Runs every class of the first (dataset, family) cell through both
    execution strategies — the smallest demo that exercises each phase
    the tracer instruments (derivation, optimization, plan capture,
    statistics, SQL fetch, residual model application).
    """
    from repro.core.catalog import ModelCatalog
    from repro.core.optimizer import MiningQuery
    from repro.core.rewrite import PredictionEquals
    from repro.experiments import harness
    from repro.sql.miningext import PredictionJoinExecutor
    from repro.sql.plancache import PlanCache
    from repro.workload.runner import load_dataset

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


def _trace_report(
    parser: argparse.ArgumentParser, arguments: argparse.Namespace
) -> int:
    """Summarize a trace directory; nonzero exit on malformed lines."""
    from repro import obs

    directory = arguments.trace or os.environ.get(obs.ENV_TRACE_DIR)
    if directory is None:
        parser.error("trace-report needs --trace DIR (or REPRO_TRACE_DIR)")
    try:
        summary = obs.summarize(directory, strict=arguments.strict)
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


if __name__ == "__main__":
    sys.exit(main())
