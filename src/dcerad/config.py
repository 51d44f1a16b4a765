"""Run configuration with defaults < config file < command-line precedence.

The config file is flat ``key = value`` text; '#' starts a comment.  Unknown
keys are rejected so typos fail loudly.  The effective configuration is echoed
into every report for provenance.
"""

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .evaluation import FEATURE_SETS


@dataclass(frozen=True)
class RunConfig:
    bin_count: int = 32
    log_sigmas_mm: tuple[float, ...] = (1.0, 3.0)
    ftv_threshold_pct: float = 70.0
    lasso_grid_size: int = 100
    lasso_cv_folds: int = 5
    lda_ridge: float = 1e-6
    cv_folds: int = 5
    seed: int = 0
    feature_set: str = "combined"

    def __post_init__(self):
        if self.bin_count < 2:
            raise ParseError(f"bin_count must be >= 2, got {self.bin_count}")
        if not self.log_sigmas_mm or any(s <= 0 for s in self.log_sigmas_mm):
            raise ParseError(f"log_sigmas_mm must be positive, got {self.log_sigmas_mm}")
        if not self.ftv_threshold_pct == self.ftv_threshold_pct:  # NaN guard
            raise ParseError("ftv_threshold_pct must be a number")
        if self.lasso_grid_size < 2:
            raise ParseError(f"lasso_grid_size must be >= 2, got {self.lasso_grid_size}")
        if self.lasso_cv_folds < 2:
            raise ParseError(f"lasso_cv_folds must be >= 2, got {self.lasso_cv_folds}")
        if self.lda_ridge < 0:
            raise ParseError(f"lda_ridge must be >= 0, got {self.lda_ridge}")
        if self.cv_folds < 2:
            raise ParseError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.feature_set not in FEATURE_SETS:
            raise ParseError(f"feature_set must be one of {tuple(FEATURE_SETS)}")
        object.__setattr__(self, "log_sigmas_mm",
                           tuple(float(s) for s in self.log_sigmas_mm))

    def replace(self, **overrides) -> "RunConfig":
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return {
            "bin_count": self.bin_count,
            "log_sigmas_mm": list(self.log_sigmas_mm),
            "ftv_threshold_pct": self.ftv_threshold_pct,
            "lasso_grid_size": self.lasso_grid_size,
            "lasso_cv_folds": self.lasso_cv_folds,
            "lda_ridge": self.lda_ridge,
            "cv_folds": self.cv_folds,
            "seed": self.seed,
            "feature_set": self.feature_set,
        }


_PARSERS = {
    "bin_count": int,
    "log_sigmas_mm": lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
    "ftv_threshold_pct": float,
    "lasso_grid_size": int,
    "lasso_cv_folds": int,
    "lda_ridge": float,
    "cv_folds": int,
    "seed": int,
    "feature_set": str,
}


def load_config(path) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)
