#!/usr/bin/env python3
"""dcerad benchmark: one workload per run, as a study through the CLI.

    python3 bench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run generates the workload's
phantom corpus from --seed (the set-up), then runs one study: `dcerad
extract`, then rounds of `dcerad crossval` per feature set, one copy per
core at the same time, for at least two rounds and more while they fit in
--seconds.  It checks the outputs and prints one JSON object as its last
line of standard output.

--trace 1 instead runs `dcerad extract` alone, then replays the workload
in-process twice at once: untraced in a child process, and with spans
recorded around each module's public functions in this one.  It reports the
per-layer metrics.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

import study  # noqa: E402

# one BLAS thread per process, fixed before numpy loads anywhere
for _var in study.BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CROSSVAL_ROUNDS = 2     # crossval rounds a run makes at least


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Outcome:
    """Operations attempted and failed, and every check error seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def command(self, ok: bool, operations: int = 1):
        self.attempted += operations
        if not ok:
            self.failed += operations


def classification_errors(workload, auc: dict) -> list:
    """Criterion 9's floors on the study and dynamic >= 0.90 on large
    lesions.  auc: feature set -> pooled AUC."""
    if workload == "study":
        if not (auc["combined"] >= 0.95 and auc["dynamic"] >= 0.90
                and auc["combined"] >= auc["dynamic"]):
            return [f"study AUCs {auc} miss combined >= 0.95, dynamic >= 0.90, "
                    "combined >= dynamic"]
    elif auc["dynamic"] < 0.90:
        return [f"large_lesions dynamic AUC {auc['dynamic']} < 0.90"]
    return []


def check_reports(workload, corpus, prefixes: dict, outcome):
    """prefixes: feature set -> report prefix of each run of that crossval.
    Checks the first report and that every repeat wrote the same bytes."""
    import checks
    auc = {}
    for fs, runs in prefixes.items():
        first = Path(f"{runs[0]}.json")
        report = json.loads(first.read_text())
        outcome.errors += checks.check_report(report, corpus.n_lesions, str(first))
        outcome.errors += [f"{p}.json differs from {first}" for p in runs[1:]
                           if Path(f"{p}.json").read_bytes() != first.read_bytes()]
        auc[fs] = report["pooled"]["auc"]
    outcome.errors += classification_errors(workload, auc)


def measured_rounds(workload, corpus, work, seconds, outcome):
    """One study through the CLI, in rounds: `dcerad extract` in the first
    `corpus.extract_rounds` rounds, then the crossval commands.  There are
    at least CROSSVAL_ROUNDS rounds, and more while the next round should
    end within `seconds`.  Returns the study's end-to-end metrics."""
    import checks
    env = study.study_env(SRC)
    workers = study.worker_count()
    start = round_start = time.perf_counter()
    result = study.run_study(corpus, work / "study", env, workers)
    outcome.command(result.extract.returncode == 0, corpus.n_lesions)
    round_s = []
    while result.extracts[-1].returncode == 0:
        commands = study.crossval_round(result, env, workers)
        for cmd in commands:
            outcome.command(cmd.returncode == 0)
        if any(c.returncode != 0 for c in commands):
            break
        round_s.append(time.perf_counter() - round_start)
        if (len(round_s) >= max(CROSSVAL_ROUNDS, corpus.extract_rounds)
                and time.perf_counter() - start + statistics.mean(round_s) > seconds):
            break
        round_start = time.perf_counter()
        if len(round_s) < corpus.extract_rounds:
            extract = study.extract_round(result, corpus, env, workers)
            outcome.command(extract.returncode == 0, corpus.n_lesions)
    if (any(c.returncode != 0 for c in result.extracts)
            or not all(cv.ok for cv in result.crossvals)):
        outcome.errors.append(f"a command failed, see {work / 'study' / 'commands.log'}")
        return {}
    outcome.errors += [f"{t} differs from {result.table}" for t in result.tables[1:]
                       if t.read_bytes() != result.table.read_bytes()]
    outcome.errors += checks.check_table(result.table, corpus)
    check_reports(workload, corpus, {cv.feature_set: cv.prefixes for cv in result.crossvals},
                  outcome)
    return study.end_to_end_metrics(result, corpus.n_lesions)


def replay(corpus, out_dir: Path, tracer=None) -> tuple[float, float, dict]:
    """The study's commands in-process through cli.main, serially, each once.
    Returns (wall, extract wall, feature set -> [report prefix] of each
    crossval that succeeded)."""
    from dcerad import cli
    out_dir.mkdir()
    table = out_dir / "features.csv"
    done = {}
    sink = open(os.devnull, "w")
    with sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if cli.main(["extract", "--manifest", str(corpus.manifest), "--out", str(table),
                     "--workers", "1"]) != 0:
            return time.perf_counter() - start, float("nan"), done
        extract_wall = time.perf_counter() - start
        for fs in corpus.feature_sets:
            if tracer:
                tracer.context = fs
            prefix = out_dir / f"report_{fs}"
            if cli.main(["crossval", "--features", str(table), "--feature-set", fs,
                         "--out", str(prefix)]) == 0:
                done[fs] = [prefix]
        return time.perf_counter() - start, extract_wall, done


def traced_run(workload, corpus, work, outcome) -> dict:
    """Per-layer metrics from an in-process replay with spans recorded."""
    import checks
    import tracing
    from dcerad import dataio
    from dcerad.config import RunConfig

    workers = study.worker_count()
    result = study.run_study(corpus, work / "cli", study.study_env(SRC), workers)
    outcome.command(result.extract.returncode == 0, corpus.n_lesions)
    if result.extract.returncode != 0:
        outcome.errors.append("CLI extract failed")
        return {}
    outcome.errors += checks.check_table(result.table, corpus)

    # the untraced replay runs in a child process on the other core, at the
    # same time, so both replays see the same load
    pool = multiprocessing.get_context("spawn").Pool(1)
    try:
        untraced = pool.apply_async(replay, (corpus, work / "untraced"))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_s, _, done = replay(corpus, work / "traced", tracer)
        untraced_s, untraced_extract_s, _ = untraced.get()
    finally:
        pool.close()
        pool.join()
    for fs in corpus.feature_sets:
        outcome.command(fs in done)

    for name in ("untraced", "traced"):
        serial = work / name / "features.csv"
        if not serial.exists() or serial.read_bytes() != result.table.read_bytes():
            outcome.errors.append(f"{name} serial in-process table differs from the "
                                  f"CLI's {workers}-worker table")
    if len(done) == len(corpus.feature_sets):
        check_reports(workload, corpus, done, outcome)

    metrics = tracer.metrics()
    tracer.write_jsonl(work / "trace.jsonl")
    names, _, _, values = checks.read_table(result.table)
    largest = int(values[:, names.index("original_shape_VoxelVolume")].argmax())
    record = dataio.load_manifest(corpus.manifest)[largest]
    alloc_mb, shape_alloc_mb = tracing.allocation_peaks(record, RunConfig())
    metrics.update({
        "radiomics.alloc_peak_mb": alloc_mb,
        "radiomics.shape_alloc_peak_mb": shape_alloc_mb,
        "cli.extract_parallel_efficiency":
            untraced_extract_s / (result.extract.wall_s * workers),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.untraced_s": untraced_s,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcerad" / "__init__.py").is_file():
        print(f"error: no dcerad sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {workloads}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpora

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = corpora.BUILDERS[args.workload](args.seed, work / "corpus")
    setup_s = time.perf_counter() - _T0

    outcome = Outcome()
    if args.trace:
        values = traced_run(args.workload, corpus, work, outcome)
        wanted = spec["per_layer"]
    else:
        values = measured_rounds(args.workload, corpus, work, args.seconds, outcome)
        values["setup_s"] = setup_s
        wanted = spec["end_to_end"]
    shutil.rmtree(work / "corpus", ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        outcome.errors.append(f"metrics not measured: {missing}")
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
