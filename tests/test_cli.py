import json

import numpy as np
import pytest

from dcerad import cli, dataio
from dcerad.cli import main
from dcerad.config import RunConfig, load_config
from dcerad.errors import ParseError
from dcerad.kinetics import DYNAMIC_FEATURE_NAMES
from dcerad.selection import FeatureMatrix

from test_dataio import build_nifti


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["phantom", "--cases", "6", "--seed", "3", "--out", str(out),
                 "--balance", "0.5"])
    assert code == 0
    return out / "manifest.txt"


def signal_table(tmp_path, n=60, seed=21):
    rng = np.random.default_rng(seed)
    names = DYNAMIC_FEATURE_NAMES + tuple(f"rad_{i}" for i in range(6))
    labels = rng.integers(0, 2, n)
    values = rng.normal(size=(n, len(names)))
    values[:, 5] += labels * 3.0
    m = FeatureMatrix(names, values, labels, tuple(f"P{i}" for i in range(n)),
                      tuple(f"L{i}" for i in range(n)))
    path = tmp_path / "features.csv"
    dataio.write_feature_table(path, m)
    return path


# --- phantom ----------------------------------------------------------------------


def test_phantom_writes_manifest(small_corpus):
    records = dataio.load_manifest(small_corpus)
    assert len(records) == 6
    labels = [r.label for r in records]
    assert labels.count("benign") == 3 and labels.count("malignant") == 3


def test_phantom_bad_balance_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["phantom", "--cases", "2", "--out", str(tmp_path), "--balance", "1.5"])
    assert exc.value.code == 2


# --- extract ----------------------------------------------------------------------


def test_extract_shape_and_determinism(small_corpus, tmp_path, capsys):
    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    assert main(["extract", "--manifest", str(small_corpus), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["extract", "--manifest", str(small_corpus), "--out", str(out2),
                 "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()     # worker count never matters
    m = dataio.read_feature_table(out1)
    assert m.n_rows == 6
    assert len(m.names) == 11 + 806
    err = capsys.readouterr().err
    assert "[extract]" in err


def test_extract_missing_manifest(tmp_path, capsys):
    code = main(["extract", "--manifest", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "f.csv")])
    assert code == 1


def test_extract_manifest_with_missing_volume(tmp_path, capsys):
    path = tmp_path / "manifest.txt"
    path.write_text("P1,L1,a.raw,b.raw,c.raw,d.raw,e.raw,f.raw,m.raw,benign\n")
    code = main(["extract", "--manifest", str(path), "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "a.raw" in capsys.readouterr().err


def test_extract_truncated_gzip_volume_exits_1(tmp_path, capsys):
    names = []
    for k in range(7):                                # six phases and the mask
        blob = build_nifti((2, 1, 1), (1, 1, 1), 16, [1.0, 2.0], gzipped=True)
        names.append(f"v{k}.nii.gz")
        (tmp_path / names[-1]).write_bytes(blob[:-12] if k == 2 else blob)
    path = tmp_path / "manifest.txt"
    dataio.write_manifest(path, [("P1", "L1", names[:6], names[6], "benign")])
    code = main(["extract", "--manifest", str(path), "--out", str(tmp_path / "f.csv"),
                 "--workers", "1"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1 and "v2.nii.gz" in errors[0]
    assert not any("Traceback" in line for line in err)


def test_extract_propagates_programming_errors(small_corpus, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("simulated programming error")

    monkeypatch.setattr(cli, "extract_radiomic_features", broken)
    with pytest.raises(TypeError, match="simulated"):
        main(["extract", "--manifest", str(small_corpus), "--out", str(tmp_path / "f.csv"),
              "--workers", "1"])


# --- crossval ----------------------------------------------------------------------


def test_crossval_dynamic(tmp_path, capsys):
    features = signal_table(tmp_path)
    out = tmp_path / "report"
    code = main(["crossval", "--features", str(features), "--seed", "1",
                 "--feature-set", "dynamic", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "auc=" in stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["feature_set"] == "dynamic"
    assert 0.5 <= report["pooled"]["auc"] <= 1.0
    assert report["config"]["seed"] == 1
    roc = (tmp_path / "report_roc.csv").read_text().splitlines()
    assert roc[0] == "fpr,tpr"


def test_crossval_deterministic_bytes(tmp_path):
    features = signal_table(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["crossval", "--features", str(features), "--seed", "9",
                     "--feature-set", "dynamic", "--out", str(out)]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a_roc.csv").read_bytes() == (tmp_path / "b_roc.csv").read_bytes()


def test_crossval_restricts_to_dynamic_columns(tmp_path):
    features = signal_table(tmp_path)
    out = tmp_path / "report"
    assert main(["crossval", "--features", str(features), "--feature-set", "dynamic",
                 "--out", str(out)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for fold in report["folds"]:
        assert set(fold["selected"]) == {"dynamic"}
        assert all(n in DYNAMIC_FEATURE_NAMES for n in fold["selected"]["dynamic"])


def test_crossval_bad_folds_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["crossval", "--features", "x.csv", "--folds", "0", "--out", "r"])
    assert exc.value.code == 2


def test_crossval_one_class_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(2)
    names = DYNAMIC_FEATURE_NAMES
    m = FeatureMatrix(names, rng.normal(size=(10, len(names))),
                      np.ones(10, dtype=int), tuple(f"P{i}" for i in range(10)),
                      tuple(f"L{i}" for i in range(10)))
    path = tmp_path / "features.csv"
    dataio.write_feature_table(path, m)
    code = main(["crossval", "--features", str(path), "--out", str(tmp_path / "r")])
    assert code == 1


# --- pipeline ----------------------------------------------------------------------


def test_pipeline_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# empty\n")
    code = main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 1


# --- config -----------------------------------------------------------------------


def test_config_defaults():
    config = RunConfig()
    assert config.bin_count == 32
    assert config.log_sigmas_mm == (1.0, 3.0)
    assert config.ftv_threshold_pct == 70.0
    assert config.cv_folds == 5
    assert config.feature_set == "combined"


def test_config_file_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bin_count = 16\nlog_sigmas_mm = 1.0, 2.0, 4.0  # three scales\n"
                    "seed = 7\n")
    config = load_config(path)
    assert config.bin_count == 16
    assert config.log_sigmas_mm == (1.0, 2.0, 4.0)
    assert config.seed == 7
    assert config.cv_folds == 5       # untouched default


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bins = 16\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_config_rejects_bad_values():
    with pytest.raises(ParseError):
        RunConfig(bin_count=1)
    with pytest.raises(ParseError):
        RunConfig(feature_set="everything")
    with pytest.raises(ParseError):
        RunConfig(log_sigmas_mm=(0.0,))


def test_config_cli_flag_precedence(tmp_path, small_corpus):
    # config file sets bin_count 8; the flag wins with 4
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bin_count = 8\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--manifest", str(small_corpus), "--out", str(out),
                 "--config", str(cfg), "--bin-count", "4", "--workers", "1"]) == 0
    assert out.exists()
