"""Statistical feature extraction from monitoring time series.

Following Tuncer et al. (the diagnosis framework the paper evaluates), each
metric's time-series window is summarised by order statistics and moments;
the concatenation over all metrics is the sample fed to the classifiers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: per-metric statistics, in emission order
STAT_NAMES = (
    "mean",
    "std",
    "min",
    "max",
    "skew",
    "kurtosis",
    "p5",
    "p25",
    "p50",
    "p75",
    "p95",
)


def _column_features(col: np.ndarray) -> list[float]:
    # scipy is imported here, not at module level: importing it costs
    # more than everything else ``import repro.api`` loads together.
    from scipy import stats

    if col.size == 0:
        raise ConfigError("cannot extract features from an empty window")
    constant = bool(np.all(col == col[0]))
    return [
        float(np.mean(col)),
        float(np.std(col)),
        float(np.min(col)),
        float(np.max(col)),
        0.0 if constant else float(stats.skew(col)),
        0.0 if constant else float(stats.kurtosis(col)),
        float(np.percentile(col, 5)),
        float(np.percentile(col, 25)),
        float(np.percentile(col, 50)),
        float(np.percentile(col, 75)),
        float(np.percentile(col, 95)),
    ]


def extract_features(window: np.ndarray) -> np.ndarray:
    """Features for one (T, M) window: 11 statistics per metric column."""
    arr = np.asarray(window, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("window must be a (T, M) array")
    feats: list[float] = []
    for m in range(arr.shape[1]):
        feats.extend(_column_features(arr[:, m]))
    return np.asarray(feats)


def feature_names(metrics: list[str]) -> list[str]:
    """Names aligned with :func:`extract_features` output order."""
    return [f"{metric}__{stat}" for metric in metrics for stat in STAT_NAMES]


def windows(
    series: np.ndarray, width: int, stride: int | None = None
) -> list[np.ndarray]:
    """Slice a (T, M) matrix into fixed-width windows along time.

    The paper's framework uses 45-sample windows; a trailing partial
    window is dropped (diagnosis needs full windows).
    """
    if width < 1:
        raise ConfigError("window width must be >= 1")
    stride = width if stride is None else stride
    if stride < 1:
        raise ConfigError("window stride must be >= 1")
    arr = np.asarray(series, dtype=float)
    out = []
    start = 0
    while start + width <= arr.shape[0]:
        out.append(arr[start : start + width])
        start += stride
    return out
