"""Command-line interface: run SQL online over the bundled workloads.

Examples::

    python -m repro.cli --workload conviva --batches 20 \\
        "SELECT AVG(play_time) AS apt FROM sessions
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)"

    python -m repro.cli --workload tpch --query Q17 --engine hda
    python -m repro.cli --workload tpch --list-queries

Observability: ``--trace-out run.jsonl`` streams the full span/metric
event log of an iolap run to a JSONL file, ``--converge`` prints a live
per-group estimate ± CI after every batch, and two subcommands consume
saved traces::

    python -m repro.cli trace run.jsonl -o trace.json   # open in Perfetto
    python -m repro.cli report run.jsonl                # offline analysis
    python -m repro.cli report run.jsonl --json         # pinned-schema JSON

Live telemetry: ``--metrics-textfile out.prom`` rewrites a Prometheus
exposition of the metrics registry after every batch (the node-exporter
textfile collector idiom)::

    python -m repro.cli --workload tpch --query Q1 --metrics-textfile out.prom

The ``analyze`` subcommand runs the static analysis suite instead of
executing anything: the plan typechecker over named workload queries or
ad-hoc SQL, and (with ``--lint``) the engine-contract lint over the
installed ``repro`` sources::

    python -m repro.cli analyze                       # all bundled queries
    python -m repro.cli analyze --workload tpch --query Q17
    python -m repro.cli analyze --lint --json report.json
    python -m repro.cli analyze "SELECT COUNT(*) AS n FROM sessions"

Exit status is 1 if any analysis reported an error-severity violation;
warnings alone exit 0 unless ``--fail-on-warning`` promotes them (the CI
setting). ``--sanitize`` (run mode) is the runtime debug mode: it freezes
zero-copy batch views and re-checks each operator's declared state
entries on top of normal execution.

Output discipline: result rows (and the outputs of the ``trace`` /
``report`` / ``analyze`` subcommands) go to stdout; progress, warnings
and errors go through the ``iolap`` logger to stderr (``--log-level``,
``-q``).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import Sequence

from repro.baselines import HDAExecutor, run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.values import UncertainValue
from repro.errors import ReproError, UnsupportedQueryError
from repro.sql import plan_sql
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)

_WORKLOADS = {
    "tpch": (generate_tpch, TPCH_QUERIES, "lineorder"),
    "conviva": (generate_conviva, CONVIVA_QUERIES, "sessions"),
}

log = logging.getLogger("iolap")


class _LevelFormatter(logging.Formatter):
    """Bare messages at INFO and below; a level prefix above."""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        if record.levelno > logging.INFO:
            return f"{record.levelname.lower()}: {message}"
        return message


def _configure_logging(level: str) -> None:
    """(Re)wire the ``iolap`` logger to the *current* stderr.

    Handlers are rebuilt on every ``main`` call rather than installed
    once: test harnesses (pytest's capsys) swap ``sys.stderr`` between
    invocations, and a cached stream would write into a closed buffer.
    """
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelFormatter())
    log.addHandler(handler)
    log.setLevel(getattr(logging, level.upper()))
    log.propagate = False


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default="info", help="stderr log verbosity (default: info)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log warnings and errors (alias for --log-level warning)",
    )


def _log_level(args: argparse.Namespace) -> str:
    return "warning" if args.quiet else args.log_level


def _int_at_least(minimum: int):
    """An argparse ``type`` accepting integers >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _finite_float(minimum: float, inclusive: bool):
    """An argparse ``type`` accepting finite floats >= ``minimum``
    (> ``minimum`` unless ``inclusive``)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}"
            ) from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < minimum or (value == minimum and not inclusive):
            bound = "at least" if inclusive else "greater than"
            raise argparse.ArgumentTypeError(
                f"must be {bound} {minimum:g}, got {value:g}"
            )
        return value

    return parse


_non_negative_float = _finite_float(0.0, inclusive=True)
_positive_float = _finite_float(0.0, inclusive=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run OLAP queries incrementally (iOLAP) over the "
        "bundled synthetic workloads.",
    )
    parser.add_argument("sql", nargs="?", help="SQL text to run")
    parser.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="conviva",
        help="dataset to generate (default: conviva)",
    )
    parser.add_argument(
        "--query", help="run a named benchmark query (e.g. Q17, C8) instead of SQL"
    )
    parser.add_argument(
        "--list-queries", action="store_true", help="list the named queries and exit"
    )
    parser.add_argument(
        "--engine", choices=["iolap", "hda", "batch"], default="iolap",
        help="execution engine (default: iolap)",
    )
    parser.add_argument(
        "--scale", type=_positive_float, default=1.0, help="workload scale"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator/engine seed")
    parser.add_argument(
        "--batches", type=_positive_int, default=20, help="mini-batch count"
    )
    parser.add_argument(
        "--trials", type=_positive_int, default=100, help="bootstrap trials"
    )
    parser.add_argument(
        "--slack", type=_non_negative_float, default=2.0, help="range slack ε"
    )
    parser.add_argument(
        "--stream", help="table to stream (default: the workload's fact table)"
    )
    parser.add_argument(
        "--stop-rsd", type=_positive_float, default=None,
        help="stop once the worst relative stdev falls below this",
    )
    parser.add_argument(
        "--max-rows", type=_non_negative_int, default=10,
        help="result rows to print per update"
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write per-batch run metrics as JSON to PATH (iolap engine)",
    )
    parser.add_argument(
        "--metrics-textfile", metavar="PATH", default=None,
        help="atomically rewrite PATH with the Prometheus exposition of "
        "the metrics registry after every batch (iolap engine; the "
        "node-exporter textfile collector idiom)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="stream the observability event log (spans, counters, "
        "warnings) as JSONL to PATH (iolap engine); convert with the "
        "'trace' subcommand, analyze with 'report'",
    )
    parser.add_argument(
        "--converge", action="store_true",
        help="log per-group estimate ± confidence interval after every "
        "batch (iolap engine)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime debug mode (iolap engine): freeze "
        "zero-copy batch buffers during process calls and track "
        "aliased-view provenance, so an in-place write names its writer "
        "and the buffer's owner, and check every operator's state "
        "entries against its declared StateRule; results are unchanged",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject deterministic faults (iolap engine): comma-separated "
        "kind@batch[:target][*times] specs with kind in "
        "{sentinel,batch}, e.g. 'sentinel@16,batch@18'; "
        "recovery must still produce the fault-free answer",
    )
    _add_logging_flags(parser)
    return parser


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli analyze",
        description="Statically analyze queries (plan typechecker) and the "
        "engine sources (contract lint) without executing anything.",
    )
    parser.add_argument("sql", nargs="?", help="SQL text to typecheck")
    parser.add_argument(
        "--workload", choices=[*sorted(_WORKLOADS), "all"], default="all",
        help="workload whose named queries to check (default: all)",
    )
    parser.add_argument(
        "--query", help="check a single named benchmark query (e.g. Q17, C8)"
    )
    parser.add_argument("--scale", type=_positive_float, default=0.05,
                        help="workload scale for catalog schemas")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--stream", help="table to stream (default: the workload's fact table)"
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="also lint the installed repro sources for engine-contract "
        "violations (ENG0xx rules)",
    )
    parser.add_argument(
        "--fail-on-warning", action="store_true",
        help="exit 1 on warning-severity diagnostics too (the CI setting); "
        "by default only errors fail the run",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write all reports as a JSON array to PATH (the CI artifact)",
    )
    _add_logging_flags(parser)
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Validate a saved event log (from --trace-out) and "
        "convert it for viewers.",
    )
    parser.add_argument("trace", help="JSONL event log written by --trace-out")
    parser.add_argument(
        "--format", choices=["chrome", "jsonl"], default="chrome",
        help="output format: 'chrome' trace events (load in Perfetto / "
        "chrome://tracing) or validated 'jsonl' passthrough (default: chrome)",
    )
    parser.add_argument(
        "-o", "--out", metavar="PATH", default=None,
        help="output path (default: stdout)",
    )
    _add_logging_flags(parser)
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli report",
        description="Summarize a saved event log: slowest spans, state "
        "growth, recovery timeline, convergence.",
    )
    parser.add_argument("trace", help="JSONL event log written by --trace-out")
    parser.add_argument(
        "--top", type=_non_negative_int, default=10,
        help="individual spans to list (default: 10)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable summary (schema pinned by "
        "repro.obs.report.REPORT_FIELDS) instead of the text report",
    )
    _add_logging_flags(parser)
    return parser


def run_analyze(argv: Sequence[str]) -> int:
    """The ``analyze`` subcommand: typecheck queries, optionally lint."""
    from repro.analysis import analyze_query, check_plan, run_lint

    args = build_analyze_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    reports = []

    if args.sql is not None:
        workload = args.workload if args.workload != "all" else "conviva"
        generate, _, default_stream = _WORKLOADS[workload]
        catalog = generate(scale=args.scale, seed=args.seed).catalog()
        reports.append(
            analyze_query(args.sql, catalog, args.stream or default_stream)
        )
    else:
        workloads = sorted(_WORKLOADS) if args.workload == "all" else [args.workload]
        for workload in workloads:
            generate, queries, _ = _WORKLOADS[workload]
            if args.query is not None and args.query not in queries:
                continue
            catalog = generate(scale=args.scale, seed=args.seed).catalog()
            for name, spec in queries.items():
                if args.query is not None and name != args.query:
                    continue
                reports.append(
                    check_plan(
                        spec.plan,
                        catalog,
                        spec.streamed_table,
                        subject=f"{workload}:{name}",
                    )
                )
        if args.query is not None and not reports:
            log.error("unknown query %r; list them with "
                      "'repro.cli --workload W --list-queries'", args.query)
            return 2

    if args.lint:
        reports.append(run_lint())

    for report in reports:
        print(report.format())
    failed = [r for r in reports if not r.ok]
    errors = sum(
        1 for r in reports for d in r.diagnostics if d.severity == "error"
    )
    warnings = sum(
        1 for r in reports for d in r.diagnostics if d.severity != "error"
    )
    print(f"analyzed {len(reports)} subject(s): "
          f"{len(failed)} with violations, "
          f"{errors} error(s), {warnings} warning(s)")

    if args.json:
        import json as _json

        try:
            with open(args.json, "w") as fh:
                _json.dump([r.to_dict() for r in reports], fh, indent=2)
        except OSError as exc:
            log.error("cannot write report to %s: %s", args.json, exc)
            return 2
        log.info("report written to %s", args.json)
    if failed:
        return 1
    if warnings and args.fail_on_warning:
        return 1
    return 0


def run_trace(argv: Sequence[str]) -> int:
    """The ``trace`` subcommand: validate + convert a saved event log."""
    import json as _json

    from repro.obs import read_events, write_chrome

    args = build_trace_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    try:
        events = list(read_events(args.trace))
    except (OSError, ValueError) as exc:
        log.error("cannot read trace %s: %s", args.trace, exc)
        return 2
    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                if args.format == "chrome":
                    count = write_chrome(events, fh)
                else:
                    for event in events:
                        fh.write(_json.dumps(event) + "\n")
                    count = len(events)
        else:
            if args.format == "chrome":
                count = write_chrome(events, sys.stdout)
            else:
                for event in events:
                    print(_json.dumps(event))
                count = len(events)
    except OSError as exc:
        log.error("cannot write %s: %s", args.out, exc)
        return 2
    target = args.out if args.out is not None else "stdout"
    log.info("%d event(s) validated; %d %s record(s) written to %s",
             len(events), count, args.format, target)
    return 0


def run_report(argv: Sequence[str]) -> int:
    """The ``report`` subcommand: offline analysis of a saved event log."""
    import json as _json

    from repro.obs.report import TraceSummary, render_report, validate_report

    args = build_report_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    try:
        summary = TraceSummary.from_file(args.trace)
    except (OSError, ValueError) as exc:
        log.error("cannot read trace %s: %s", args.trace, exc)
        return 2
    if args.json:
        doc = summary.to_dict(top=args.top)
        validate_report(doc)  # never ship an artifact the schema rejects
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_report(summary, top=args.top))
    return 0


_SUBCOMMANDS = {
    "analyze": run_analyze,
    "trace": run_trace,
    "report": run_report,
}


def _unsupported(exc: UnsupportedQueryError) -> int:
    """Report a refused query on one line; the usage-error exit code."""
    if exc.rule_id is None:  # a runtime or baseline refusal has no rule id
        log.error("unsupported query: %s", exc)
    else:
        log.error("unsupported query [%s] at %s#%d: %s", exc.rule_id,
                  type(exc.node).__name__, exc.node.node_id, exc)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    generate, queries, default_stream = _WORKLOADS[args.workload]

    if args.list_queries:
        for name, spec in queries.items():
            kind = "nested" if spec.nested else "flat"
            print(f"{name:>4}  [{kind:>6}]  {spec.description}")
        return 0

    data = generate(scale=args.scale, seed=args.seed)
    catalog = data.catalog()

    if args.query:
        if args.query not in queries:
            log.error("unknown query %r; try --list-queries", args.query)
            return 2
        spec = queries[args.query]
        plan = spec.plan
        streamed = spec.streamed_table
    elif args.sql:
        try:
            plan = plan_sql(args.sql, catalog.schemas())
        except ReproError as exc:
            log.error("SQL error: %s", exc)
            return 2
        streamed = args.stream or default_stream
    else:
        log.error("nothing to run: pass SQL text or --query/--list-queries")
        return 2

    for flag, value in (("--metrics-out", args.metrics_out),
                        ("--metrics-textfile", args.metrics_textfile),
                        ("--trace-out", args.trace_out),
                        ("--converge", args.converge),
                        ("--faults", args.faults)):
        if value and args.engine != "iolap":
            log.error("%s requires --engine iolap", flag)
            return 2

    if args.faults is not None:
        from repro.faults import parse_faults

        try:
            parse_faults(args.faults)
        except ReproError as exc:
            log.error("bad --faults spec: %s", exc)
            return 2

    if args.engine == "batch":
        result = run_batch(plan, catalog)
        log.info("batch engine: %.1f ms, %d rows",
                 result.wall_seconds * 1000, len(result.relation))
        _print_relation_rows(result.relation, args.max_rows)
        return 0

    if args.engine == "hda":
        executor = HDAExecutor(catalog, streamed, seed=args.seed)
        try:
            for partial in executor.run(plan, args.batches):
                marker = "exact" if partial.is_final else "approx"
                log.info("[batch %3d/%d %7.1f ms  %s] %d rows",
                         partial.batch_no, partial.num_batches,
                         partial.metrics.wall_seconds * 1000, marker,
                         len(partial.relation))
        except UnsupportedQueryError as exc:
            return _unsupported(exc)
        _print_relation_rows(partial.relation, args.max_rows)
        return 0

    from repro.obs import NULL_OBS, ConvergenceReporter, Observability

    obs = NULL_OBS
    if args.trace_out:
        obs = Observability.to_jsonl(args.trace_out)
    elif args.metrics_textfile:
        obs = Observability()  # no sink: a live registry, no tracer
    exporter = None
    if args.metrics_textfile:
        from repro.obs.export import TextfileExporter

        exporter = TextfileExporter(args.metrics_textfile, obs.metrics)
    reporter = (
        ConvergenceReporter(obs=obs, emit_line=log.info)
        if args.converge
        else None
    )
    engine = OnlineQueryEngine(
        catalog,
        streamed,
        OnlineConfig(
            num_trials=args.trials,
            slack=args.slack,
            seed=args.seed,
            sanitize=args.sanitize,
            faults=args.faults,
        ),
        obs=obs,
    )
    partial = None
    try:
        for partial in engine.run(plan, args.batches):
            if exporter is not None:
                try:
                    exporter.write()
                except OSError as exc:
                    log.error("cannot write %s: %s", args.metrics_textfile, exc)
                    return 2
            rsd = partial.max_relative_stdev()
            rsd_text = "exact" if partial.is_final else (
                f"rel.stdev {rsd:.4f}" if rsd == rsd else "rel.stdev n/a"
            )
            log.info(
                "[batch %3d/%d %4.0f%% %7.1f ms  %s]",
                partial.batch_no, partial.num_batches,
                partial.fraction_processed * 100,
                partial.metrics.wall_seconds * 1000, rsd_text,
            )
            if reporter is not None:
                reporter.update(partial)
            if args.stop_rsd is not None and rsd == rsd and rsd < args.stop_rsd:
                log.info("stopping early: accuracy target %s reached",
                         args.stop_rsd)
                break
    except UnsupportedQueryError as exc:
        return _unsupported(exc)
    finally:
        obs.close()
    if partial is not None:
        _print_partial_rows(partial, args.max_rows)
        if engine.metrics.num_recoveries:
            log.info("(failure recoveries: %d)", engine.metrics.num_recoveries)
        # A ``pipeline:`` unit's time already holds its operators' self
        # times; ``small:`` units have no operator timings inside them.
        slowest = sorted(
            (kv for kv in engine.metrics.total_op_seconds().items()
             if not kv[0].startswith("pipeline:")),
            key=lambda kv: -kv[1],
        )[:3]
        if slowest:
            log.info("slowest operators: %s", ", ".join(
                f"{label} {seconds*1000:.1f} ms" for label, seconds in slowest
            ))
    if args.metrics_out:
        try:
            with open(args.metrics_out, "w") as fh:
                fh.write(engine.metrics.to_json(indent=2))
        except OSError as exc:
            log.error("cannot write metrics to %s: %s", args.metrics_out, exc)
            return 2
        log.info("metrics written to %s", args.metrics_out)
    if exporter is not None:
        log.info("exposition written to %s (%d write(s))",
                 args.metrics_textfile, exporter.writes)
    if args.trace_out:
        log.info("trace written to %s (convert: repro.cli trace %s; "
                 "summarize: repro.cli report %s)",
                 args.trace_out, args.trace_out, args.trace_out)
    return 0


def _print_partial_rows(partial, max_rows: int) -> None:
    for row in partial.sorted_plain_rows()[:max_rows]:
        print("  " + ", ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    hidden = len(partial.rows) - max_rows
    if hidden > 0:
        print(f"  ... {hidden} more rows")


def _print_relation_rows(relation, max_rows: int) -> None:
    for row in relation.sort_rows()[:max_rows]:
        print("  " + ", ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    hidden = len(relation) - max_rows
    if hidden > 0:
        print(f"  ... {hidden} more rows")


def _fmt(value) -> str:
    if isinstance(value, UncertainValue):
        value = value.value
    if isinstance(value, float):
        return f"{value:,.3f}"
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
