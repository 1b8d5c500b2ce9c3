"""The one command of the suite benchmark.

Driver form — one workload, one metric set, one JSON result line last::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no probe installed;
``--trace 1`` pairs an untraced with a traced pass per sub-seed and reports
the per-layer metrics. Without ``--trace`` the command is the suite: every
workload (or the one named) in a fresh child process each, both metric sets
(``--no-trace`` for the first only), every metric printed by name with its
unit, one results file under ``bench/out/``::

    PYTHONPATH=src python -m bench.run [--workload W] [--seed N] [--repeats R]
                                       [--no-trace] [--smoke] [--selfcheck]

Exit status is non-zero if any operation failed, a count drifted between
two runs of one seed, or ``BENCHMARK.json`` and the run disagree.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT_DIR = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / "bench" / "out"
# Runs as a plain script from any checkout: the engine is ../src, this
# package is ../bench, and nothing is installed.
sys.path[:0] = [str(ROOT_DIR), str(ROOT_DIR / "src")]

try:
    import numpy  # noqa: E402

    from bench import check_manifest, measure, metrics, oracle  # noqa: E402
    from bench.workloads import SCALE, SMOKE_SCALE, WORKLOADS  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench.run: the engine under {ROOT_DIR / 'src'} does not import: {exc}")

#: Interpreter start to engine imported: the start-up share of ``setup_s``.
IMPORT_S = time.perf_counter() - _STARTED

#: Passes of one ``--trace 0`` run, each on its own sub-seed. Fixed so the
#: same seed always means the same inputs; ``--seconds`` only cuts a run
#: short on a machine too slow to fit them.
MAX_PASSES = 5
#: (untraced, traced) pass pairs of one ``--trace 1`` run.
MAX_TRACE_PAIRS = 2
#: ``--selfcheck`` repeats the suite on the default seed, then checks this one.
OTHER_SEED = 7


def sub_seed(seed: int, pass_no: int) -> int:
    return seed * 1000 + pass_no


def results_path(args: argparse.Namespace, workload: str, seed: int, trace: int) -> pathlib.Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}{'-smoke' * args.smoke}.json"


def steps(args: argparse.Namespace, limit: int):
    """Step numbers ``0 .. limit-1``; ends early rather than start a step that,
    going by the longest one so far, would overrun ``--seconds``."""
    started = time.perf_counter()
    longest = 0.0
    for i in range(args.repeats or limit):
        began = time.perf_counter()
        yield i
        now = time.perf_counter()
        longest = max(longest, now - began)
        if not args.repeats and now - started + longest > args.seconds:
            return


def run_one(args: argparse.Namespace, manifest: dict) -> int:
    """One workload in this process; prints the driver's result line last."""
    workload = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else SCALE
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    untraced: list[measure.Pass] = []
    traced: list[measure.Pass] = []
    serial = None
    problems: list[str] = []

    if args.trace:
        for i in steps(args, MAX_TRACE_PAIRS):
            seed = sub_seed(args.seed, i)
            untraced.append(measure.run_pass(workload, scale, seed))
            traced.append(measure.run_pass(workload, scale, seed, traced=True))
            # Same seed, same code: tracing may cost time, never change a count.
            problems += oracle.count_drift(untraced[-1].counts(), traced[-1].counts())
            if workload.shards and serial is None:
                unsharded = dataclasses.replace(workload, shards=0)
                serial = measure.run_pass(unsharded, scale, seed)
        storage = measure.storage_probe(scale, args.seed, str(OUT_DIR))
        values = metrics.per_layer(workload, untraced, traced, serial, storage)
    else:
        for i in steps(args, MAX_PASSES):
            untraced.append(measure.run_pass(workload, scale, sub_seed(args.seed, i)))
        values = metrics.end_to_end(workload, untraced, IMPORT_S)

    passes = untraced + traced + ([serial] if serial else [])
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.failures]
    for r in failed:
        problems += [f"{r.query}: {f}" for f in r.failures]
    missing = sorted({t for p in traced for t in p.probes_missing})
    try:
        check_manifest.check_emitted(manifest, bool(args.trace), set(values))
    except check_manifest.ManifestError as exc:
        problems.append(str(exc))

    section = manifest["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section
            if m["name"] in values
        },
    }
    gaps = sum(len(r.gaps) for r in untraced[0].runs)
    print(
        f"# {workload.name}: seed {args.seed}, scale {scale:g}, "
        f"{len(workload.queries)} queries x {workload.num_batches} batches, "
        f"{sum(r.fact_rows for r in untraced[0].runs)} fact rows per pass, "
        f"{gaps} batch gaps per pass, {len(untraced)} untraced + {len(traced)} traced passes"
    )
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:16.6f} {m['unit']}")
    if missing:
        print(f"# probes_missing (their layers read 0): {missing}")
    for problem in problems:
        print(f"# PROBLEM: {problem}", file=sys.stderr)

    path = results_path(args, workload.name, args.seed, args.trace)
    record = {
        "workload": dataclasses.asdict(workload),
        "seed": args.seed,
        "scale": scale,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "problems": problems,
        "probes_missing": missing,
        "passes": [pass_record(p) for p in passes],
    }
    path.write_text(json.dumps(record, indent=1))
    if traced:
        # [layer, start, end, parent, query, batch] of the last traced pass.
        path.with_suffix(".spans.json").write_text(json.dumps(traced[-1].spans))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def pass_record(p: measure.Pass) -> dict:
    """The per-query and per-batch series of one pass, for the results file."""
    return {
        "seed": p.seed,
        "traced": p.traced,
        "setup_s": p.setup_s,
        "wall_s": p.wall_s,
        "layer_s": p.layer_s,
        "probe_counts": p.probe_counts,
        "counts": p.counts(),
        "queries": [
            {**dataclasses.asdict(r), "wall_s": r.wall_s} for r in p.runs
        ],
    }


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.platform(),
    }


def run_child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict:
    """One ``run_one`` in a fresh process (its own caches and peak RSS)."""
    command = [
        sys.executable, __file__, "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.repeats:
        command += ["--repeats", str(args.repeats)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
        record = json.loads(results_path(args, workload, seed, trace).read_text())
    except (IndexError, ValueError, OSError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "exit": 1}
    result["exit"] = done.returncode
    # Per pass and query, the counts a seed determines (oracle.count_drift).
    result["counts"] = {
        f"pass{i}/{query}": counts
        for i, p in enumerate(record["passes"])
        for query, counts in p["counts"].items()
    }
    return result


def run_suite(args: argparse.Namespace, seed: int) -> tuple[dict, bool]:
    """Every selected workload x metric set; ``(results, all correct)``."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = (0,) if args.no_trace else (0, 1)
    results = {
        name: {f"trace{t}": run_child(args, name, seed, t) for t in modes}
        for name in names
    }
    flat = [r for by_mode in results.values() for r in by_mode.values()]
    ok = all(r["correct"] and r["exit"] == 0 for r in flat)
    failed = sum(r["failed"] for r in flat)
    attempted = sum(r["attempted"] for r in flat)
    print(f"# seed {seed}: ops_attempted {attempted}, ops_failed {failed}, correct {ok}")
    return results, ok


def selfcheck(args: argparse.Namespace, manifest: dict) -> bool:
    """Two sets of runs of this code must agree: every end-to-end metric within
    the manifest's own bound, every count exactly. Then a second seed must pass
    every check."""
    first, ok_first = run_suite(args, args.seed)
    second, ok_second = run_suite(args, args.seed)
    ok = ok_first and ok_second
    print(
        f"{'workload':12s} {'metric':18s} {'first':>12s} {'second':>12s} "
        f"{'diff':>8s} {'bound':>6s}"
    )
    for name in first:
        for mode, result in first[name].items():
            drift = oracle.count_drift(
                result.get("counts", {}), second[name][mode].get("counts", {})
            )
            for problem in drift:
                print(f"# PROBLEM: {name} {mode}: count drift between two runs: {problem}")
            ok = ok and not drift
        a, b = first[name]["trace0"]["metrics"], second[name]["trace0"]["metrics"]
        for m in manifest["end_to_end"]:
            if m["name"] not in a or m["name"] not in b:
                continue
            va, vb = a[m["name"]]["value"], b[m["name"]]["value"]
            diff = abs(vb - va) / va
            within = diff <= m["bound"]
            ok = ok and within
            print(
                f"{name:12s} {m['name']:18s} {va:12.4f} {vb:12.4f} {diff:8.2%} "
                f"{m['bound']:6.0%}{'' if within else '  EXCEEDED'}"
            )
    _, ok_other = run_suite(args, OTHER_SEED)
    return ok and ok_other


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, help="exactly this many passes (or pairs)")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    try:
        manifest = check_manifest.load(set(WORKLOADS))
    except check_manifest.ManifestError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.smoke and not args.repeats:
        args.repeats = 1
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args, manifest)
    if args.selfcheck:
        return 0 if selfcheck(args, manifest) else 1
    results, ok = run_suite(args, args.seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    summary = {"seed": args.seed, "environment": environment(), "results": results}
    name = f"suite-seed{args.seed}{'-smoke' * args.smoke}.json"
    (OUT_DIR / name).write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
