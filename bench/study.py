"""Run one study through the command line in rounds: `dcerad extract` in
the first round (and, on some workloads, in more), then `dcerad crossval`
per feature set, each as identical copies at the same time, one per core.

Each command is a child process reaped with os.wait4, so its rusage covers
the command and every pool worker it waited for.
"""

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def study_env(src_dir: Path) -> dict:
    """Child environment: the checkout's sources first, one BLAS thread per
    process so that workers x threads <= cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Command:
    argv: list
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_commands(arg_lists, env, log_path: Path) -> list:
    """Run the commands at the same time; a Command for each, in order."""
    argvs = [[sys.executable, "-m", "dcerad", *map(str, args)] for args in arg_lists]
    ended = [None] * len(argvs)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        procs = [subprocess.Popen(argv, env=env, stdout=log, stderr=log) for argv in argvs]

        def reap(i):
            _, status, usage = os.wait4(procs[i].pid, 0)
            ended[i] = (time.perf_counter() - start, status, usage)

        reapers = [threading.Thread(target=reap, args=(i,)) for i in range(len(procs))]
        for t in reapers:
            t.start()
        for t in reapers:
            t.join()
    commands = []
    for argv, proc, (wall, status, usage) in zip(argvs, procs, ended):
        proc.returncode = os.waitstatus_to_exitcode(status)
        commands.append(Command(argv=argv, returncode=proc.returncode, wall_s=wall,
                                cpu_s=usage.ru_utime + usage.ru_stime,
                                maxrss_mb=usage.ru_maxrss / 1024.0))
    return commands


@dataclass
class Crossval:
    feature_set: str
    runs: list                      # Command per repeat, same table and flags
    prefixes: list                  # report prefix per repeat

    @property
    def ok(self) -> bool:
        return all(c.returncode == 0 for c in self.runs)


@dataclass
class StudyResult:
    work: Path
    extracts: list                  # Command per run of `dcerad extract`
    tables: list                    # the feature table each run wrote
    crossvals: list = field(default_factory=list)

    @property
    def extract(self) -> Command:
        return self.extracts[0]

    @property
    def table(self) -> Path:
        return self.tables[0]

    @property
    def commands(self) -> list:
        return self.extracts + [c for cv in self.crossvals for c in cv.runs]


def run_study(corpus, work: Path, env: dict, workers: int) -> StudyResult:
    """`dcerad extract`; `extract_round` runs it again, and `crossval_round`
    runs the crossval commands on the first table."""
    work.mkdir(parents=True, exist_ok=True)
    result = StudyResult(work=work, extracts=[], tables=[],
                         crossvals=[Crossval(fs, [], []) for fs in corpus.feature_sets])
    extract_round(result, corpus, env, workers)
    return result


def extract_round(result: StudyResult, corpus, env: dict, workers: int) -> Command:
    """`dcerad extract` of the corpus into a table of its own."""
    table = result.work / f"features_r{len(result.tables)}.csv"
    [extract] = run_commands([["extract", "--manifest", corpus.manifest, "--out", table,
                               "--workers", workers]], env, result.work / "commands.log")
    result.extracts.append(extract)
    result.tables.append(table)
    return extract


def crossval_round(result: StudyResult, env: dict, copies: int) -> list:
    """A round of `dcerad crossval` on the study's table: for each feature
    set, `copies` identical runs at the same time, one per core, each writing
    its own report.  Returns the commands."""
    commands = []
    for cv in result.crossvals:
        prefixes = [result.work / f"report_{cv.feature_set}_r{len(cv.runs) + k}"
                    for k in range(copies)]
        runs = run_commands([["crossval", "--features", result.table, "--feature-set",
                              cv.feature_set, "--out", prefix] for prefix in prefixes],
                            env, result.work / "commands.log")
        cv.runs += runs
        cv.prefixes += prefixes
        commands += runs
    return commands


def end_to_end_metrics(result: StudyResult, n_lesions: int) -> dict:
    """One study's metrics.  Each command counts with its fastest run: the
    machine's noise only ever adds time, and the two cores differ in speed
    from moment to moment."""
    extract_s = min(c.wall_s for c in result.extracts)
    crossval_s = sum(min(c.wall_s for c in cv.runs) for cv in result.crossvals)
    crossval_cpu = sum(min(c.cpu_s for c in cv.runs) for cv in result.crossvals)
    return {
        "study_s": extract_s + crossval_s,
        "extract_lesions_per_s": n_lesions / extract_s,
        "crossval_s": crossval_s,
        "cpu_s": min(c.cpu_s for c in result.extracts) + crossval_cpu,
        "peak_rss_mb": max(c.maxrss_mb for c in result.commands),
    }
