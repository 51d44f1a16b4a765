#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the root of a source checkout.  Builds a small phantom corpus,
runs `dcerad extract` and `dcerad crossval` on it, and shows that every
check passes the real outputs and rejects a copy with one value corrupted:
a dynamic ratio, a shape volume, a shape diameter, a first-order value, an
original-image GLCM value, a ROC point and a fold size.  Exits 1 if any
check fails to behave.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / "selftest"
CASES = 30


def corrupt_table(src: Path, dst: Path, row: int, column: str, change) -> Path:
    lines = src.read_text().splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = repr(change(float(fields[col])))
    lines[row + 1] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def main() -> int:
    if not (SRC / "dcerad" / "__init__.py").is_file():
        print(f"error: no dcerad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import corpora
    import study
    from dcerad import dataio, phantom

    shutil.rmtree(WORK, ignore_errors=True)
    spec = phantom.PhantomSpec(dims=(32, 32, 24), semi_axes_mm=(3.0, 2.5, 2.0))
    manifest = phantom.generate_corpus(spec, CASES, 0.5, WORK / "corpus")
    records = dataio.load_manifest(manifest)
    corpus = corpora.Corpus(manifest=manifest,
                            keys=[(r.patient_id, r.lesion_id) for r in records],
                            labels=[r.label for r in records],
                            semi_axes_mm=[spec.semi_axes_mm] * CASES,
                            feature_sets=("dynamic",))
    env = study.study_env(SRC)
    result = study.run_study(corpus, WORK / "run", env, study.worker_count())
    if result.extract.returncode == 0:
        study.crossval_round(result, env, 1)
    if result.extract.returncode != 0 or not result.crossvals[0].ok:
        print("error: the CLI failed, see " + str(WORK / "run" / "commands.log"),
              file=sys.stderr)
        return 1
    table = result.table
    report = json.loads(Path(f"{result.crossvals[0].prefixes[0]}.json").read_text())

    names, _, _, values = checks.read_table(table)
    smallest = int(values[:, names.index("original_shape_VoxelVolume")].argmin())

    def bumped(x):
        return x * (1.0 + 1e-6) + 1e-6

    table_cases = [
        ("dynamic ratio", 0, "medium_ratio", lambda x: x + 1e-3),
        ("shape volume", 1, "original_shape_VoxelVolume", bumped),
        ("shape diameter", 2, "original_shape_Maximum3DDiameter", lambda x: x + 2.0),
        ("first-order mean", 3, "original_firstorder_Mean", bumped),
        ("original GLCM value", smallest, "original_glcm_Contrast", bumped),
    ]

    def roc_point(r):
        # move the tpr of a point that starts a segment of nonzero width
        points = r["roc_points"]
        i = next(i for i in range(1, len(points) - 1) if points[i + 1][0] > points[i][0])
        points[i][1] += -0.05 if points[i][1] >= 0.05 else 0.05

    def fold_size(r):
        r["folds"][0]["n_test"] += 1

    report_cases = [("ROC point", roc_point), ("fold n_test", fold_size)]

    failures = 0

    def expect(label, errors, want_errors):
        nonlocal failures
        ok = bool(errors) == want_errors
        failures += not ok
        verdict = "rejected" if errors else "passed"
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {verdict}"
              + (f" ({errors[0]})" if errors else ""))

    expect("real feature table", checks.check_table(table, corpus), False)
    expect("real report", checks.check_report(report, CASES, "report"), False)
    for label, row, column, change in table_cases:
        copy = corrupt_table(table, WORK / "corrupt.csv", row, column, change)
        expect(f"corrupted {label}", checks.check_table(copy, corpus), True)
    for label, change in report_cases:
        copy = json.loads(json.dumps(report))
        change(copy)
        expect(f"corrupted {label}", checks.check_report(copy, CASES, "report"), True)

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{'all checks behave' if not failures else f'{failures} check(s) misbehave'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
