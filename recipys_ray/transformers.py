"""Native, sklearn-free implementations of the closed-form transformer family
exercised by the reference's StepSklearn tests (reference:
tests/test_steps.py:7-26, 228-441).

Each transformer splits sklearn's ``fit`` into (a) a declaration of which
distributed column statistics it needs (``stats_needed`` — computed in ONE
streaming partial-aggregate pass, aggregates.column_stats) and (b)
``fit_from_stats`` which turns the merged stats into small broadcastable
parameters. ``transform`` is vectorized numpy over a batch — the
partial-aggregate + broadcast pattern, no shuffle anywhere.

PowerTransformer (Yeo-Johnson) extends the pattern with a ``needs_dataset``
multi-pass fit: three deterministic λ-grid refinement passes (each one
streaming partial aggregate) plus a standardization pass; SplineTransformer
is one stats pass (min/max or quantile knots) + a vectorized de Boor basis.
Only the truly iterative KNNImputer / IterativeImputer remain
NotImplementedError escape hatches (SURVEY.md §2.2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from recipys_ray.aggregates import MINMAX, MOMENTS, QUANTILES, VOCAB, ColStats


def _ordered_pandas(ds, columns: list[str]) -> "pd.DataFrame":
    """Collect a skinny projection with block order pinned to DATASET
    order. The duckdb-parity fits fold values sequentially (scan order);
    Ray's streaming executor emits blocks in COMPLETION order by default,
    which races the fold (observed: run-to-run 1e-14 mean/std drift →
    hash-rounding crossings at sf0.1). ``preserve_order`` restores the
    parquet scan order the oracle engine aggregates in."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    old = opts.preserve_order
    opts.preserve_order = True
    try:
        return ds.select_columns(list(columns)).to_pandas()
    finally:
        opts.preserve_order = old


def _handle_zeros(scale: np.ndarray) -> np.ndarray:
    """sklearn's _handle_zeros_in_scale: 0 / nan scale → 1.0."""
    scale = np.asarray(scale, dtype=np.float64).copy()
    scale[~np.isfinite(scale)] = 1.0
    scale[scale == 0.0] = 1.0
    return scale


class NativeTransformer:
    stats_needed: frozenset = frozenset()
    accepts_non_numeric = False

    def __init__(self):
        self.columns_: list[str] = []

    def fit_from_stats(self, stats: dict[str, ColStats], columns: list[str]):
        self.columns_ = list(columns)
        self._fit(stats)
        return self

    def _fit(self, stats: dict[str, ColStats]):
        pass

    def transform(self, X: pd.DataFrame) -> np.ndarray:
        raise NotImplementedError

    def _matrix(self, X: pd.DataFrame) -> np.ndarray:
        return X[self.columns_].to_numpy(dtype=np.float64, na_value=np.nan)


# --------------------------------------------------------------------- #
# scalers
# --------------------------------------------------------------------- #
class StandardScaler(NativeTransformer):
    stats_needed = frozenset({MOMENTS})

    def __init__(self, with_mean: bool = True, with_std: bool = True,
                 duckdb_parity_stats: bool = False):
        super().__init__()
        self.with_mean = with_mean
        self.with_std = with_std
        # oracle-verification mode: mean/std accumulated EXACTLY as DuckDB's
        # avg()/stddev_pop() (plain sequential float64 sum + one Welford
        # pass in scan order — kernels/duckdb_parity.py). One ordered pass
        # over the skinny columns; the production default stays the
        # distributed aggregate: per-block float64 ``np.nansum`` partials
        # (aggregates._partial_for_column) summed on the driver.
        self.duckdb_parity_stats = duckdb_parity_stats

    @property
    def needs_dataset(self) -> bool:
        return self.duckdb_parity_stats

    def distributed_fit(self, ds, columns: list[str]):
        from recipys_ray.kernels.duckdb_parity import seq_sum, seq_var_pop

        self.columns_ = list(columns)
        pdf = _ordered_pandas(ds, columns)
        means, scales = [], []
        for c in columns:
            x = pdf[c].to_numpy(np.float64)
            x = x[~np.isnan(x)]
            if not len(x):
                means.append(0.0)
                scales.append(1.0)
                continue
            means.append(seq_sum(x) / len(x))
            v = seq_var_pop(x)
            scales.append(np.sqrt(v) if v > 0 else 1.0)
        self.mean_ = np.array(means)
        self.scale_ = _handle_zeros(np.array(scales))
        return self

    def _fit(self, stats):
        self.mean_ = np.array([stats[c].mean() for c in self.columns_])
        self.scale_ = _handle_zeros(
            np.array([stats[c].std(ddof=0) for c in self.columns_])
        )

    def transform(self, X):
        M = self._matrix(X)
        if self.with_mean:
            M = M - self.mean_
        if self.with_std:
            M = M / self.scale_
        return M


class MinMaxScaler(NativeTransformer):
    stats_needed = frozenset({MINMAX})

    def __init__(self, feature_range=(0.0, 1.0)):
        super().__init__()
        self.feature_range = feature_range

    def _fit(self, stats):
        dmin = np.array(
            [np.nan if stats[c].min is None else stats[c].min for c in self.columns_]
        )
        dmax = np.array(
            [np.nan if stats[c].max is None else stats[c].max for c in self.columns_]
        )
        lo, hi = self.feature_range
        self.scale_ = (hi - lo) / _handle_zeros(dmax - dmin)
        self.min_ = lo - dmin * self.scale_

    def transform(self, X):
        return self._matrix(X) * self.scale_ + self.min_


class MaxAbsScaler(NativeTransformer):
    stats_needed = frozenset({MINMAX})

    def _fit(self, stats):
        maxabs = np.array(
            [
                max(abs(stats[c].min or 0.0), abs(stats[c].max or 0.0))
                for c in self.columns_
            ]
        )
        self.scale_ = _handle_zeros(maxabs)

    def transform(self, X):
        return self._matrix(X) / self.scale_


class RobustScaler(NativeTransformer):
    stats_needed = frozenset({QUANTILES})

    def __init__(
        self,
        with_centering: bool = True,
        with_scaling: bool = True,
        quantile_range=(25.0, 75.0),
    ):
        super().__init__()
        self.with_centering = with_centering
        self.with_scaling = with_scaling
        self.quantile_range = quantile_range

    def _fit(self, stats):
        lo, hi = self.quantile_range
        self.center_ = np.array(
            [stats[c].quantile(0.5)[0] for c in self.columns_]
        )
        iqr = np.array(
            [
                stats[c].quantile(hi / 100.0)[0] - stats[c].quantile(lo / 100.0)[0]
                for c in self.columns_
            ]
        )
        self.scale_ = _handle_zeros(iqr)

    def transform(self, X):
        M = self._matrix(X)
        if self.with_centering:
            M = M - self.center_
        if self.with_scaling:
            M = M / self.scale_
        return M


# --------------------------------------------------------------------- #
# imputers / indicators
# --------------------------------------------------------------------- #
class SimpleImputer(NativeTransformer):
    def __init__(self, strategy: str = "mean", fill_value=None):
        super().__init__()
        if strategy not in ("mean", "median", "most_frequent", "constant"):
            raise ValueError(f"Unknown strategy {strategy}")
        self.strategy = strategy
        self.fill_value = fill_value

    @property
    def stats_needed(self):
        return frozenset(
            {
                "mean": {MOMENTS},
                "median": {QUANTILES},
                "most_frequent": {VOCAB},
                "constant": set(),
            }[self.strategy]
        )

    accepts_non_numeric = True  # constant / most_frequent work on strings

    def _fit(self, stats):
        vals = []
        for c in self.columns_:
            if self.strategy == "constant":
                vals.append(self.fill_value if self.fill_value is not None else 0)
                continue
            s = stats[c]
            if self.strategy == "mean":
                vals.append(s.mean())
            elif self.strategy == "median":
                vals.append(s.quantile(0.5)[0])
            elif self.strategy == "most_frequent":
                vc = s.value_counts or {}
                # sklearn: smallest value among maximally frequent
                vals.append(
                    min((v for v, n in vc.items() if n == max(vc.values())))
                    if vc
                    else np.nan
                )
        self.statistics_ = vals

    def transform(self, X):
        out = X[self.columns_].copy()
        for c, v in zip(self.columns_, self.statistics_):
            out[c] = out[c].fillna(v)
        return out.to_numpy()


class MissingIndicator(NativeTransformer):
    # null counts come free with any stats pass, but a pass is still needed
    stats_needed = frozenset({"nullcount"})
    accepts_non_numeric = True

    def __init__(self, features: str = "missing-only"):
        super().__init__()
        self.features = features

    def _fit(self, stats):
        if self.features == "all":
            self.features_ = list(self.columns_)
        else:
            self.features_ = [c for c in self.columns_ if stats[c].n_null > 0]

    def transform(self, X):
        return X[self.features_].isna().to_numpy()


# --------------------------------------------------------------------- #
# element-wise / row-wise stateless
# --------------------------------------------------------------------- #
class Binarizer(NativeTransformer):
    stats_needed = frozenset()

    def __init__(self, threshold: float = 0.0):
        super().__init__()
        self.threshold = threshold

    def transform(self, X):
        M = self._matrix(X)
        out = (M > self.threshold).astype(np.float64)
        out[np.isnan(M)] = np.nan  # propagate nulls (sklearn would reject NaN)
        return out


class Normalizer(NativeTransformer):
    stats_needed = frozenset()

    def __init__(self, norm: str = "l2"):
        super().__init__()
        if norm not in ("l1", "l2", "max"):
            raise ValueError(f"Unknown norm {norm}")
        self.norm = norm

    def transform(self, X):
        M = self._matrix(X)
        if self.norm == "l1":
            denom = np.abs(M).sum(axis=1)
        elif self.norm == "l2":
            denom = np.sqrt((M * M).sum(axis=1))
        else:
            denom = np.abs(M).max(axis=1)
        denom = _handle_zeros(denom)
        return M / denom[:, None]


class FunctionTransformer(NativeTransformer):
    stats_needed = frozenset()

    def __init__(self, func=None):
        super().__init__()
        self.func = func

    def transform(self, X):
        M = self._matrix(X)
        return M if self.func is None else self.func(M)


class PolynomialFeatures(NativeTransformer):
    stats_needed = frozenset()

    def __init__(
        self,
        degree: int = 2,
        interaction_only: bool = False,
        include_bias: bool = True,
    ):
        super().__init__()
        self.degree = degree
        self.interaction_only = interaction_only
        self.include_bias = include_bias

    def _combinations(self, k: int):
        from itertools import combinations, combinations_with_replacement

        comb = combinations if self.interaction_only else combinations_with_replacement
        start = 0 if self.include_bias else 1
        for d in range(start, self.degree + 1):
            yield from comb(range(k), d)

    def transform(self, X):
        M = self._matrix(X)
        cols = [
            np.prod(M[:, idx], axis=1) if idx else np.ones(len(M))
            for idx in self._combinations(M.shape[1])
        ]
        return np.column_stack(cols)


# --------------------------------------------------------------------- #
# discretizers / quantile maps
# --------------------------------------------------------------------- #
class KBinsDiscretizer(NativeTransformer):
    def __init__(
        self, n_bins: int = 5, encode: str = "ordinal", strategy: str = "quantile"
    ):
        super().__init__()
        if encode != "ordinal":
            raise NotImplementedError(
                "Only encode='ordinal' is supported natively; one-hot via "
                "OneHotEncoder after discretizing"
            )
        if strategy not in ("uniform", "quantile"):
            raise NotImplementedError(f"strategy={strategy}")
        self.n_bins = n_bins
        self.encode = encode
        self.strategy = strategy

    @property
    def stats_needed(self):
        return frozenset({MINMAX} if self.strategy == "uniform" else {QUANTILES})

    def _fit(self, stats):
        edges = []
        for c in self.columns_:
            s = stats[c]
            if self.strategy == "uniform":
                edges.append(np.linspace(s.min, s.max, self.n_bins + 1))
            else:
                qs = np.linspace(0, 1, self.n_bins + 1)
                edges.append(np.unique(s.quantile(qs)))
        self.bin_edges_ = edges

    def transform(self, X):
        M = self._matrix(X)
        out = np.empty_like(M)
        for j, e in enumerate(self.bin_edges_):
            x = M[:, j]
            idx = np.searchsorted(e[1:-1], x, side="right").astype(np.float64)
            idx[np.isnan(x)] = np.nan
            out[:, j] = idx
        return out


class QuantileTransformer(NativeTransformer):
    stats_needed = frozenset({QUANTILES})

    def __init__(
        self, n_quantiles: int = 1000, output_distribution: str = "uniform"
    ):
        super().__init__()
        if output_distribution not in ("uniform", "normal"):
            raise ValueError(output_distribution)
        self.n_quantiles = n_quantiles
        self.output_distribution = output_distribution

    def _fit(self, stats):
        self.references_ = np.linspace(0, 1, self.n_quantiles)
        self.quantiles_ = [
            stats[c].quantile(self.references_) for c in self.columns_
        ]

    @staticmethod
    def _probit(p: np.ndarray) -> np.ndarray:
        """Acklam's rational approximation of the normal PPF (no scipy)."""
        p = np.clip(p, 1e-7, 1 - 1e-7)
        a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
             1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
        b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
             6.680131188771972e01, -1.328068155288572e01]
        c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
             -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
        d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
             3.754408661907416e00]
        out = np.empty_like(p)
        plow, phigh = 0.02425, 1 - 0.02425
        lo = p < plow
        hi = p > phigh
        mid = ~(lo | hi)
        if lo.any():
            q = np.sqrt(-2 * np.log(p[lo]))
            out[lo] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
                (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
            )
        if hi.any():
            q = np.sqrt(-2 * np.log(1 - p[hi]))
            out[hi] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
                (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
            )
        if mid.any():
            q = p[mid] - 0.5
            r = q * q
            out[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
                ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
            )
        return out

    def transform(self, X):
        M = self._matrix(X)
        out = np.empty_like(M)
        for j, qv in enumerate(self.quantiles_):
            x = M[:, j]
            # forward/backward interpolation averaged (sklearn's tie handling)
            fwd = np.interp(x, qv, self.references_)
            bwd = -np.interp(-x, -qv[::-1], -self.references_[::-1])
            res = 0.5 * (fwd + bwd)
            res[np.isnan(x)] = np.nan
            if self.output_distribution == "normal":
                res = self._probit(res)
            out[:, j] = res
        return out


# --------------------------------------------------------------------- #
# encoders (distributed vocabulary = sorted distinct values)
# --------------------------------------------------------------------- #
class OrdinalEncoder(NativeTransformer):
    stats_needed = frozenset({VOCAB})
    accepts_non_numeric = True

    def __init__(self, handle_unknown: str = "error", unknown_value=None):
        super().__init__()
        self.handle_unknown = handle_unknown
        self.unknown_value = unknown_value

    def _fit(self, stats):
        self.categories_ = [
            np.array(stats[c].vocabulary()) for c in self.columns_
        ]

    def _encode_col(self, values: pd.Series, cats: np.ndarray) -> np.ndarray:
        codes = pd.Categorical(values, categories=list(cats)).codes.astype(
            np.float64
        )
        unknown = (codes == -1) & values.notna().to_numpy()
        if unknown.any():
            if self.handle_unknown == "use_encoded_value":
                codes[unknown] = self.unknown_value
            else:
                raise ValueError(
                    f"Found unknown categories during transform: "
                    f"{pd.unique(values[unknown])[:5]}"
                )
        codes[values.isna().to_numpy()] = np.nan
        return codes

    def transform(self, X):
        return np.column_stack(
            [
                self._encode_col(X[c].astype(object), cats)
                for c, cats in zip(self.columns_, self.categories_)
            ]
        )


class OneHotEncoder(NativeTransformer):
    stats_needed = frozenset({VOCAB})
    accepts_non_numeric = True

    def __init__(self, sparse_output: bool = False, handle_unknown: str = "error"):
        super().__init__()
        self.sparse_output = sparse_output
        self.handle_unknown = handle_unknown

    def _fit(self, stats):
        if self.sparse_output:
            raise TypeError(
                "The transformer returns a sparse matrix, but recipes expects "
                "a dense numpy representation. Set sparse_output=False."
            )
        self.categories_ = [
            np.array(stats[c].vocabulary()) for c in self.columns_
        ]

    def transform(self, X):
        blocks = []
        for c, cats in zip(self.columns_, self.categories_):
            codes = pd.Categorical(X[c].astype(object), categories=list(cats)).codes
            unknown = (codes == -1) & X[c].notna().to_numpy()
            if unknown.any() and self.handle_unknown == "error":
                raise ValueError(
                    f"Found unknown categories in column {c} during transform"
                )
            eye = np.eye(len(cats), dtype=np.float64)
            block = np.zeros((len(codes), len(cats)))
            known = codes >= 0
            block[known] = eye[codes[known]]
            blocks.append(block)
        return np.hstack(blocks) if blocks else np.empty((len(X), 0))

    def output_names(self, prefix_cols: list[str]) -> list[str]:
        names = []
        for c, cats in zip(prefix_cols, self.categories_):
            names.extend([f"{c}_{v}" for v in cats])
        return names


class LabelEncoder(NativeTransformer):
    """1-D encoder — columnwise only (sklearn raises on 2-D input)."""

    stats_needed = frozenset({VOCAB})
    accepts_non_numeric = True
    one_dimensional = True

    def _fit(self, stats):
        if len(self.columns_) != 1:
            raise ValueError("should be a 1d array")
        self.classes_ = np.array(stats[self.columns_[0]].vocabulary())

    def transform(self, X):
        c = self.columns_[0]
        codes = pd.Categorical(
            X[c].astype(object), categories=list(self.classes_)
        ).codes.astype(np.int64)
        if (codes == -1).any():
            raise ValueError("y contains previously unseen labels")
        return codes.reshape(-1, 1)


class LabelBinarizer(NativeTransformer):
    """1-D binarizer; sklearn quirk: 2 classes → a single 0/1 column."""

    stats_needed = frozenset({VOCAB})
    accepts_non_numeric = True
    one_dimensional = True

    def _fit(self, stats):
        if len(self.columns_) != 1:
            raise ValueError("should be a 1d array")
        self.classes_ = np.array(stats[self.columns_[0]].vocabulary())

    def transform(self, X):
        c = self.columns_[0]
        codes = pd.Categorical(
            X[c].astype(object), categories=list(self.classes_)
        ).codes
        k = len(self.classes_)
        if k == 2:
            return (codes == 1).astype(np.int64).reshape(-1, 1)
        out = np.zeros((len(codes), k), dtype=np.int64)
        known = codes >= 0
        out[np.nonzero(known)[0], codes[known]] = 1
        return out


# --------------------------------------------------------------------- #
# PowerTransformer (Yeo-Johnson) — distributed grid-refined λ fit
# --------------------------------------------------------------------- #
def _yeo_johnson(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """ψ(x, λ) for x (n,) and lam (G,) → (n, G); NaN propagates."""
    x = np.asarray(x, dtype=np.float64)[:, None]
    lam = np.asarray(lam, dtype=np.float64)[None, :]
    pos = x >= 0
    with np.errstate(invalid="ignore"):
        lam_nz = np.where(np.abs(lam) < 1e-12, 1.0, lam)
        p = (np.power(x + 1.0, lam_nz) - 1.0) / lam_nz
        p0 = np.log1p(x)
        two = 2.0 - lam
        two_nz = np.where(np.abs(two) < 1e-12, 1.0, two)
        m = -(np.power(1.0 - x, two_nz) - 1.0) / two_nz
        m2 = -np.log1p(-x)
        out = np.where(
            pos,
            np.where(np.abs(lam) < 1e-12, p0, p),
            np.where(np.abs(two) < 1e-12, m2, m),
        )
    return out


# deterministic 3-stage λ grid (mirrored exactly by the SQL oracle):
# stage 1: -5..5 step 0.25; stage 2: best ± 0.25 step 0.025;
# stage 3: best ± 0.025 step 0.0025 → final resolution 2.5e-3
_YJ_STAGES = [
    (5.0, 0.25),  # (half-span, step) around 0 for stage 1
    (0.25, 0.025),
    (0.025, 0.0025),
]


class PowerTransformer(NativeTransformer):
    """Yeo-Johnson power transform with a distributed maximum-likelihood λ
    fit: three deterministic grid-refinement passes (each ONE streaming
    partial-aggregate over the data, all columns × all grid λ vectorized),
    then one standardization pass at λ*. llf(λ) = -n/2·ln(var₀(ψ)) +
    (λ-1)·Σ sign(x)·ln(1+|x|). Resolution 2.5e-3 in λ — the same argmax
    cascade is re-derivable in SQL (see the power_yj oracle).
    Only method="yeo-johnson" (works for negative values; box-cox omitted).
    """

    needs_dataset = True

    def __init__(self, method: str = "yeo-johnson", standardize: bool = True,
                 duckdb_parity_stats: bool = False):
        super().__init__()
        if method != "yeo-johnson":
            raise NotImplementedError(
                "only method='yeo-johnson' is implemented (box-cox requires "
                "strictly positive data; use yeo-johnson instead)"
            )
        self.standardize = standardize
        # oracle-verification mode: the final standardization moments
        # (Σψ, Σψ² at λ*) use DuckDB's plain sequential scan-order float64
        # sums instead of block partials (the λ argmax cascade is robust to
        # partials; the last-ulp of μ/σ is what the driver hash sees).
        self.duckdb_parity_stats = duckdb_parity_stats
        self.lambdas_: np.ndarray | None = None

    # ---- distributed fit ------------------------------------------------
    def _grid_moments(self, ds, columns, grids: dict[str, np.ndarray]):
        """One pass: per column, per grid λ → (n, Σψ, Σψ²) + Σ sign·log1p."""
        import pickle

        import pyarrow as pa

        def partial(tbl: pa.Table) -> pa.Table:
            out = {}
            for c in columns:
                x = tbl.column(c).to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
                x = x[~np.isnan(x)]
                lam = grids[c]
                psi = _yeo_johnson(x, lam)
                out[c] = (
                    len(x),
                    psi.sum(axis=0),
                    (psi * psi).sum(axis=0),
                    float(np.sign(x) @ np.log1p(np.abs(x))),
                )
            return pa.table(
                {"payload": pa.array([pickle.dumps(out)], pa.binary())}
            )

        merged = {c: [0, 0.0, 0.0, 0.0] for c in columns}
        for row in ds.select_columns(list(columns)).map_batches(
            partial, batch_format="pyarrow"
        ).take_all():
            part = pickle.loads(row["payload"])
            for c, (n, s1, s2, cterm) in part.items():
                m = merged[c]
                m[0] += n
                m[1] = m[1] + s1
                m[2] = m[2] + s2
                m[3] += cterm
        return merged

    @staticmethod
    def _llf(n, s1, s2, cterm, lam):
        var = s2 / n - (s1 / n) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return -n / 2.0 * np.log(var) + (lam - 1.0) * cterm

    def distributed_fit(self, ds, columns: list[str]):
        self.columns_ = list(columns)
        best = {c: 0.0 for c in columns}
        for stage, (span, step) in enumerate(_YJ_STAGES):
            k = int(round(span / step))
            offsets = np.arange(-k, k + 1) * step
            grids = {c: best[c] + offsets for c in columns}
            mom = self._grid_moments(ds, columns, grids)
            for c in columns:
                n, s1, s2, cterm = mom[c]
                if n == 0:
                    best[c] = 1.0
                    continue
                llf = self._llf(n, np.asarray(s1), np.asarray(s2), cterm,
                                grids[c])
                best[c] = float(grids[c][int(np.argmax(llf))])
        self.lambdas_ = np.array([best[c] for c in columns])
        if self.standardize:
            if self.duckdb_parity_stats:
                from recipys_ray.kernels.duckdb_parity import seq_sum

                pdf = _ordered_pandas(ds, columns)
                mean, scale = [], []
                for c in columns:
                    x = pdf[c].to_numpy(np.float64)
                    x = x[~np.isnan(x)]
                    if not len(x):
                        mean.append(0.0)
                        scale.append(1.0)
                        continue
                    psi = _yeo_johnson(x, np.array([best[c]]))[:, 0]
                    n = len(psi)
                    mu = seq_sum(psi) / n
                    var = seq_sum(psi * psi) / n - mu * mu
                    mean.append(mu)
                    scale.append(np.sqrt(var) if var > 0 else 1.0)
                self.mean_ = np.array(mean)
                self.scale_ = _handle_zeros(np.array(scale))
                return self
            grids = {c: np.array([best[c]]) for c in columns}
            mom = self._grid_moments(ds, columns, grids)
            mean, scale = [], []
            for c in columns:
                n, s1, s2, _ = mom[c]
                if n == 0:
                    mean.append(0.0)
                    scale.append(1.0)
                    continue
                mu = float(s1[0]) / n
                var = float(s2[0]) / n - mu * mu
                mean.append(mu)
                scale.append(np.sqrt(var) if var > 0 else 1.0)
            self.mean_ = np.array(mean)
            self.scale_ = _handle_zeros(np.array(scale))
        return self

    def transform(self, X):
        M = self._matrix(X)
        out = np.empty_like(M)
        for j, lam in enumerate(self.lambdas_):
            out[:, j] = _yeo_johnson(M[:, j], np.array([lam]))[:, 0]
        if self.standardize:
            out = (out - self.mean_) / self.scale_
        return out


# --------------------------------------------------------------------- #
# SplineTransformer — B-spline basis expansion (vectorized de Boor)
# --------------------------------------------------------------------- #
def _bspline_basis(x: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """(n, len(t)-k-1) design matrix of degree-k B-splines over knot vector
    ``t``; evaluates only the k+1 non-zero basis functions per point via the
    standard de Boor triangular recurrence, vectorized across points.
    Points must lie within [t[k], t[-k-1]] (caller clips for constant
    extrapolation)."""
    n = len(x)
    n_basis = len(t) - k - 1
    out = np.zeros((n, n_basis))
    if n == 0:
        return out
    nan = np.isnan(x)
    xc = np.where(nan, t[k], x)
    mu = np.searchsorted(t, xc, side="right") - 1
    mu = np.clip(mu, k, n_basis - 1)
    # "basisfuns" triangular recurrence (Piegl & Tiller, The NURBS Book,
    # alg. A2.2): after round d, N[:, j] = B_{mu-d+j, d}(x)
    N = np.zeros((n, k + 1))
    N[:, 0] = 1.0
    left = np.zeros((n, k + 1))
    right = np.zeros((n, k + 1))
    for d in range(1, k + 1):
        left[:, d] = xc - t[mu + 1 - d]
        right[:, d] = t[mu + d] - xc
        saved = np.zeros(n)
        for r in range(d):
            den = right[:, r + 1] + left[:, d - r]
            temp = np.where(den != 0, N[:, r] / np.where(den == 0, 1.0, den), 0.0)
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, d - r] * temp
        N[:, d] = saved
    rows = np.arange(n)
    for j in range(k + 1):
        out[rows, mu - k + j] = N[:, j]
    out[nan] = np.nan
    return out


class SplineTransformer(NativeTransformer):
    """B-spline basis expansion (uniform or quantile knots, constant
    extrapolation). Fit = ONE stats pass (min/max or quantiles); transform
    is a stateless vectorized de Boor evaluation. Output: n_knots+degree-1
    basis columns per feature (minus one when include_bias=False), feature
    blocks consecutive."""

    def __init__(
        self,
        n_knots: int = 5,
        degree: int = 3,
        knots: str = "uniform",
        extrapolation: str = "constant",
        include_bias: bool = True,
    ):
        super().__init__()
        if knots not in ("uniform", "quantile"):
            raise ValueError("knots must be 'uniform' or 'quantile'")
        if extrapolation != "constant":
            raise NotImplementedError(
                "only extrapolation='constant' is implemented"
            )
        if n_knots < 2:
            raise ValueError("n_knots must be >= 2")
        self.n_knots = n_knots
        self.degree = degree
        self.knots = knots
        self.extrapolation = extrapolation
        self.include_bias = include_bias

    @property
    def stats_needed(self):
        return frozenset({QUANTILES if self.knots == "quantile" else MINMAX})

    def _fit(self, stats):
        self.knot_vectors_ = []
        for c in self.columns_:
            st = stats[c]
            if self.knots == "uniform":
                base = np.linspace(st.min, st.max, self.n_knots)
            else:
                qs = np.linspace(0.0, 1.0, self.n_knots)
                base = np.asarray(st.quantile(qs), dtype=np.float64)
                base = np.maximum.accumulate(base)  # monotone under sketch
            d0 = base[1] - base[0]
            d1 = base[-1] - base[-2]
            if d0 <= 0:
                d0 = 1.0  # constant column — degenerate but non-crashing
            if d1 <= 0:
                d1 = 1.0
            deg = self.degree
            pre = base[0] - d0 * np.arange(deg, 0, -1)
            post = base[-1] + d1 * np.arange(1, deg + 1)
            self.knot_vectors_.append(
                (np.r_[pre, base, post], base[0], base[-1])
            )

    def transform(self, X):
        M = self._matrix(X)
        blocks = []
        for j, (t, lo, hi) in enumerate(self.knot_vectors_):
            x = np.clip(M[:, j], lo, hi)  # constant extrapolation
            x[np.isnan(M[:, j])] = np.nan
            B = _bspline_basis(x, t, self.degree)
            if not self.include_bias:
                B = B[:, :-1]
            blocks.append(B)
        return np.hstack(blocks) if blocks else np.empty((len(M), 0))


class KNNImputer(NativeTransformer):
    """sklearn-semantics KNN imputation (reference tests/test_steps.py:249)
    re-expressed for Ray Data: the fitted state is a BOUNDED donor sample
    (deterministic content-hash thinning above ``fit_sample_rows``), and
    ``transform`` imputes each missing cell as the uniform mean of the
    ``n_neighbors`` nearest donors under the nan-euclidean distance
    ``sqrt(d / n_common * Σ_common (x_j - f_j)²)`` — vectorized mask
    algebra (three matmuls per batch slice), never a per-row Python scan.

    Distances against the donor sample are computed per bounded row slice
    (``slice_rows`` × donors), the same broadcast-small-side pattern as
    ops/similarity.knn_cosine; an IVF-bucketed donor index (ops/similarity
    ``_kmeans_fit``) is the growth path when the donor sample itself must
    scale. Cells with no usable donor fall back to the donor-sample column
    mean (sklearn behavior)."""

    needs_dataset = True

    def __init__(
        self,
        n_neighbors: int = 5,
        weights: str = "uniform",
        fit_sample_rows: int = 100_000,
        slice_rows: int = 256,
        ivf_clusters: int = 0,
        ivf_probes: int = 3,
    ):
        # slice_rows bounds the per-task distance matrix: 256 x 100k donors
        # x 8B = 205 MB + matmul temporaries, safe under many parallel tasks.
        # ivf_clusters > 0 switches donor search to an IVF index (euclidean
        # k-means over mean-filled donors): each row searches only its
        # ivf_probes nearest cells' donors — the scale path when the donor
        # sample is large. Approximate; rows whose probed cells hold no
        # usable donor for a column retry against the full donor set.
        super().__init__()
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.fit_sample_rows = fit_sample_rows
        self.slice_rows = slice_rows
        self.ivf_clusters = ivf_clusters
        self.ivf_probes = ivf_probes
        self.centroids_ = None

    def distributed_fit(self, ds, columns: list[str]):
        self.columns_ = list(columns)
        cap = self.fit_sample_rows

        def pick(tbl):
            import pyarrow as pa

            pdf = tbl.select(columns).to_pandas()
            keep = pdf.notna().any(axis=1)  # all-nan rows can't donate
            return pa.Table.from_pandas(
                pdf.loc[keep], preserve_index=False
            )

        # materialize once: count() and the collection below would otherwise
        # each re-execute the pick pass
        sample = ds.map_batches(pick, batch_format="pyarrow").materialize()
        n = sample.count()
        if n > cap:
            frac = cap / n

            def thin(tbl):
                import pyarrow as pa

                pdf = tbl.to_pandas()
                h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
                keep = (h / np.float64(2**64)) < frac
                return pa.Table.from_pandas(
                    pdf.loc[keep], preserve_index=False
                )

            sample = sample.map_batches(thin, batch_format="pyarrow")
        F = sample.to_pandas()[columns].to_numpy(
            dtype=np.float64, na_value=np.nan
        )
        # Canonical donor order: Ray's streaming executor does not guarantee
        # block output order (preserve_order=False), so the collected sample
        # is an arbitrary block permutation run-to-run. Everything downstream
        # that is donor-ORDER-sensitive — the seeded k-means init of the IVF
        # index, donor-index tie-breaks, and the fixed float summation order
        # of the imputed means — must key off a deterministic order, not the
        # collection order. Lexsort by the feature values themselves (ties =
        # identical rows = indistinguishable donors).
        F = F[np.lexsort(tuple(F[:, j] for j in range(F.shape[1] - 1, -1, -1)))]
        self.fit_data_ = F
        with np.errstate(invalid="ignore"):
            self.fallback_mean_ = np.nanmean(F, axis=0)
        self.fallback_mean_ = np.nan_to_num(self.fallback_mean_, nan=0.0)
        self.centroids_ = None
        if self.ivf_clusters and len(F) >= 8 * self.ivf_clusters:
            from recipys_ray.ops.similarity import _kmeans_fit

            Fz = np.where(np.isnan(F), self.fallback_mean_, F)
            self.centroids_ = _kmeans_fit(Fz, self.ivf_clusters, seed=3)
            d2 = ((Fz[:, None, :] - self.centroids_[None]) ** 2).sum(axis=2)
            self.donor_cell_ = d2.argmin(axis=1)
            self.cell_members_ = [
                np.flatnonzero(self.donor_cell_ == c)
                for c in range(len(self.centroids_))
            ]
        return self

    def _impute_block(self, M, out, rows, donor_idx=None):
        """Impute the missing cells of ``rows`` against a donor universe
        (``donor_idx`` restricts it; None = all donors). Returns row indices
        that found NO usable donor for some column (IVF retry path)."""
        F = self.fit_data_
        if donor_idx is not None:
            F = F[donor_idx]
        Fm = (~np.isnan(F)).astype(np.float64)
        F0 = np.nan_to_num(F, nan=0.0)
        d = M.shape[1]
        donors_by_col = [np.flatnonzero(Fm[:, j] > 0) for j in range(d)]
        retry: set = set()
        for lo in range(0, len(rows), self.slice_rows):
            srows = rows[lo:lo + self.slice_rows]
            Xs = M[srows]
            Xm = (~np.isnan(Xs)).astype(np.float64)
            X0 = np.nan_to_num(Xs, nan=0.0)
            sq = (
                (X0 * X0) @ Fm.T + Xm @ (F0 * F0).T - 2.0 * (X0 @ F0.T)
            )
            np.maximum(sq, 0.0, out=sq)
            common = Xm @ Fm.T
            with np.errstate(invalid="ignore", divide="ignore"):
                dist = np.sqrt(d * sq / common)
            dist[common == 0] = np.inf  # no shared coords → unusable donor
            for j in range(d):
                need = np.flatnonzero(np.isnan(Xs[:, j]))
                if len(need) == 0:
                    continue
                dj = donors_by_col[j]
                if len(dj) == 0:
                    if donor_idx is not None:
                        retry.update(srows[need].tolist())
                    else:
                        out[srows[need], j] = self.fallback_mean_[j]
                    continue
                Dsub = dist[np.ix_(need, dj)]
                k = min(self.n_neighbors, len(dj))
                if len(dj) > k:
                    part = np.argpartition(Dsub, k - 1, axis=1)[:, :k]
                    # canonical k-set under distance ties at the boundary:
                    # strictly-nearer donors, then smallest donor indices
                    # among the tied (rare path, per-row only where needed)
                    kth = np.take_along_axis(Dsub, part, axis=1).max(axis=1)
                    ambig = np.flatnonzero(
                        (Dsub == kth[:, None]).sum(axis=1)
                        + (Dsub < kth[:, None]).sum(axis=1) > k
                    )
                    for r in ambig:
                        row = Dsub[r]
                        strict = np.flatnonzero(row < kth[r])
                        eq = np.flatnonzero(row == kth[r])
                        part[r] = np.r_[strict, eq[: k - len(strict)]]
                else:
                    part = np.tile(np.arange(len(dj)), (len(need), 1))
                # donor-index order: canonical float summation order so the
                # imputed mean is bit-reproducible
                part = np.sort(part, axis=1)
                sel_d = np.take_along_axis(Dsub, part, axis=1)
                finite = np.isfinite(sel_d)
                vals = F[dj[part], j]
                if self.weights == "uniform":
                    w = finite.astype(np.float64)
                else:
                    with np.errstate(divide="ignore"):
                        w = np.where(finite, 1.0 / sel_d, 0.0)
                    zero = finite & (sel_d == 0.0)
                    has_zero = zero.any(axis=1)
                    w[has_zero] = zero[has_zero].astype(np.float64)
                wsum = w.sum(axis=1)
                with np.errstate(invalid="ignore", divide="ignore"):
                    imput = (vals * w).sum(axis=1) / wsum
                if donor_idx is not None:
                    bad = wsum <= 0
                    if bad.any():
                        retry.update(srows[need[bad]].tolist())
                    good = ~bad
                    out[srows[need[good]], j] = imput[good]
                else:
                    imput = np.where(
                        wsum > 0, imput, self.fallback_mean_[j]
                    )
                    out[srows[need], j] = imput
        return retry

    def transform(self, X):
        M = self._matrix(X)
        miss_rows = np.flatnonzero(np.isnan(M).any(axis=1))
        if len(miss_rows) == 0:
            return M
        out = M.copy()
        if self.centroids_ is None:
            self._impute_block(M, out, miss_rows, donor_idx=None)
            return out
        # IVF: probe the nearest cells per row (mean-filled representation),
        # group rows by probe signature, search only those cells' donors
        C = self.centroids_
        probes_n = min(self.ivf_probes, len(C))
        Q = M[miss_rows]
        Q = np.where(np.isnan(Q), self.fallback_mean_, Q)
        retries: set = set()
        for lo in range(0, len(miss_rows), self.slice_rows):
            rows = miss_rows[lo:lo + self.slice_rows]
            Qs = Q[lo:lo + self.slice_rows]
            d2 = ((Qs[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            pr = np.sort(
                np.argpartition(d2, probes_n - 1, axis=1)[:, :probes_n],
                axis=1,
            )
            sigs, inv = np.unique(pr, axis=0, return_inverse=True)
            for s in range(len(sigs)):
                sub = rows[inv == s]
                cand = np.unique(
                    np.concatenate(
                        [self.cell_members_[c] for c in sigs[s]]
                    )
                )
                if len(cand) == 0:
                    retries.update(sub.tolist())
                    continue
                retries |= self._impute_block(M, out, sub, donor_idx=cand)
        if retries:
            self._impute_block(
                M, out, np.array(sorted(retries), dtype=np.int64),
                donor_idx=None,
            )
        return out


def _bayesian_ridge_from_stats(
    n: float,
    sx: np.ndarray,
    sy: float,
    xtx: np.ndarray,
    xty: np.ndarray,
    yty: float,
    n_iter: int = 300,
    tol: float = 1e-3,
    a1: float = 1e-6,
    a2: float = 1e-6,
    l1: float = 1e-6,
    l2: float = 1e-6,
):
    """BayesianRidge (sklearn defaults, fit_intercept=True) solved entirely
    from sufficient statistics [n, Σx, Σy, X'X, X'y, y'y] — the evidence
    iterations run on the eigendecomposition of the centered Gram matrix,
    all driver-side d×d work. Returns (coef, intercept)."""
    d = len(sx)
    if n < 2:
        return np.zeros(d), (sy / n if n > 0 else 0.0)
    xbar = sx / n
    ybar = sy / n
    S = xtx - n * np.outer(xbar, xbar)
    Sy = xty - n * xbar * ybar
    yy = max(yty - n * ybar * ybar, 0.0)
    e, V = np.linalg.eigh((S + S.T) / 2.0)
    e = np.maximum(e, 0.0)
    q = V.T @ Sy
    var_y = yy / n
    alpha = 1.0 / var_y if var_y > 0 else 1.0
    lam = 1.0
    coef_old = None
    for _ in range(n_iter):
        cv = q * (alpha / (lam + alpha * e))
        coef = V @ cv
        if coef_old is not None and np.sum(np.abs(coef - coef_old)) < tol:
            break
        coef_old = coef
        gamma = float(np.sum(alpha * e / (lam + alpha * e)))
        lam = (gamma + 2.0 * l1) / (float(np.sum(cv * cv)) + 2.0 * l2)
        rss = float(yy - 2.0 * cv @ q + cv * cv @ e)
        alpha = (n - gamma + 2.0 * a1) / (max(rss, 0.0) + 2.0 * a2)
    cv = q * (alpha / (lam + alpha * e))
    coef = V @ cv
    intercept = ybar - float(xbar @ coef)
    return coef, intercept


class IterativeImputer(NativeTransformer):
    """sklearn-semantics round-robin model-based imputation (reference
    tests/test_steps.py:259), DISTRIBUTED: every per-(iteration, column)
    estimator fit is ONE streaming sufficient-statistics pass (longdouble
    partials — order/blocking-independent to ~1e-18, so the fitted sequence
    is reproducible bit-for-bit against a sequential reference), and the
    BayesianRidge evidence iterations run driver-side on the d×d Gram.
    ``transform`` replays the fitted (column, coef, intercept) sequence
    vectorized per batch — missing cells of each target column are
    re-predicted from the other columns' current values, exactly the
    sklearn round-robin.

    Scale note: fit cost is max_iter × d streaming passes over the pinned
    pipeline (Recipe's materialize_before_fit); each pass moves only d²
    floats to the driver."""

    needs_dataset = True

    def __init__(self, max_iter: int = 10, tol: float = 1e-3):
        super().__init__()
        self.max_iter = max_iter
        self.tol = tol

    # ------------------------- replay helpers -------------------------- #
    def _replay(self, M: np.ndarray, miss: np.ndarray, upto: int) -> np.ndarray:
        """Initial mean fill + the first ``upto`` fitted predictions."""
        X = M.copy()
        for j in range(X.shape[1]):
            X[miss[:, j], j] = self.initial_means_[j]
        for (j, coef, intercept) in self.seq_[:upto]:
            if not miss[:, j].any():
                continue
            others = [c for c in range(X.shape[1]) if c != j]
            pred = X[:, others] @ coef + intercept
            X[miss[:, j], j] = pred[miss[:, j]]
        return X

    def _suffstats(self, ds, j: int, upto: int):
        """One streaming pass: longdouble partials of the BayesianRidge
        sufficient stats for target column j, features = other columns with
        the imputation sequence so far replayed per batch."""
        import pickle

        import pyarrow as pa

        cols = self.columns_
        outer = self

        def partial(tbl: "pa.Table") -> "pa.Table":
            pdf = tbl.select(cols).to_pandas()
            M = pdf.to_numpy(dtype=np.float64, na_value=np.nan)
            miss = np.isnan(M)
            X = outer._replay(M, miss, upto)
            obs = ~miss[:, j]
            others = [c for c in range(len(cols)) if c != j]
            Xo = X[np.ix_(obs, others)].astype(np.longdouble)
            yo = X[obs, j].astype(np.longdouble)
            payload = (
                np.longdouble(len(yo)),
                Xo.sum(axis=0),
                yo.sum(),
                Xo.T @ Xo,
                Xo.T @ yo,
                yo @ yo,
            )
            return pa.table(
                {"payload": pa.array([pickle.dumps(payload)], pa.binary())}
            )

        parts = ds.map_batches(
            partial, batch_format="pyarrow"
        ).take_all()

        dd = len(cols) - 1
        n = np.longdouble(0.0)
        sx = np.zeros(dd, dtype=np.longdouble)
        sy = np.longdouble(0.0)
        xtx = np.zeros((dd, dd), dtype=np.longdouble)
        xty = np.zeros(dd, dtype=np.longdouble)
        yty = np.longdouble(0.0)
        for row in parts:
            pn, psx, psy, pxtx, pxty, pyty = pickle.loads(row["payload"])
            n += pn
            sx += psx
            sy += psy
            xtx += pxtx
            xty += pxty
            yty += pyty
        return (
            float(n), np.asarray(sx, dtype=np.float64), float(sy),
            np.asarray(xtx, dtype=np.float64),
            np.asarray(xty, dtype=np.float64), float(yty),
        )

    def distributed_fit(self, ds, columns: list[str]):
        import pyarrow as pa

        self.columns_ = list(columns)
        cols = self.columns_

        def base_stats(tbl: "pa.Table") -> "pa.Table":
            pdf = tbl.select(cols).to_pandas()
            M = pdf.to_numpy(dtype=np.float64, na_value=np.nan)
            obs = ~np.isnan(M)
            s = np.where(obs, M, 0.0).astype(np.longdouble).sum(axis=0)
            cnt = obs.sum(axis=0).astype(np.float64)
            miss = (~obs).sum(axis=0).astype(np.float64)
            mx = np.max(np.abs(np.where(obs, M, 0.0)), axis=0, initial=0.0)
            import pickle

            return pa.table({
                "payload": pa.array([pickle.dumps((s, cnt, miss, mx))],
                                    pa.binary())
            })

        import pickle

        d = len(cols)
        s = np.zeros(d, dtype=np.longdouble)
        cnt = np.zeros(d)
        missing = np.zeros(d)
        mx = np.zeros(d)
        for row in ds.map_batches(
            base_stats, batch_format="pyarrow"
        ).take_all():
            ps, pc, pm, px = pickle.loads(row["payload"])
            s += ps
            cnt += pc
            missing += pm
            mx = np.maximum(mx, px)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.asarray(s, dtype=np.float64) / cnt
        self.initial_means_ = np.nan_to_num(means, nan=0.0)
        self.max_abs_known_ = float(mx.max()) if d else 0.0
        # sklearn imputation_order="ascending": fewest missing first,
        # stable by column index; columns without missing are skipped
        has_missing = np.flatnonzero(missing > 0)
        order = has_missing[np.argsort(missing[has_missing],
                                       kind="stable")]
        self.order_ = [int(j) for j in order]
        self.seq_: list = []
        if not self.order_ or d < 2:
            self.n_rounds_ = 0
            return self
        prev_end = 0
        for _ in range(self.max_iter):
            for j in self.order_:
                stats = self._suffstats(ds, j, len(self.seq_))
                coef, intercept = _bayesian_ridge_from_stats(*stats)
                self.seq_.append((j, coef, intercept))
            if self.tol > 0 and prev_end > 0:
                delta = self._max_round_delta(ds, prev_end, len(self.seq_))
                if delta < self.tol * max(self.max_abs_known_, 1e-300):
                    break
            prev_end = len(self.seq_)
        self.n_rounds_ = len(self.seq_) // max(len(self.order_), 1)
        return self

    def _max_round_delta(self, ds, upto_a: int, upto_b: int) -> float:
        import pyarrow as pa

        cols = self.columns_
        outer = self

        def partial(tbl: "pa.Table") -> "pa.Table":
            pdf = tbl.select(cols).to_pandas()
            M = pdf.to_numpy(dtype=np.float64, na_value=np.nan)
            miss = np.isnan(M)
            A = outer._replay(M, miss, upto_a)
            B = outer._replay(M, miss, upto_b)
            return pa.table(
                {"d": pa.array([float(np.max(np.abs(A - B), initial=0.0))])}
            )

        rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
        return max((r["d"] for r in rows), default=0.0)

    def transform(self, X):
        M = self._matrix(X)
        miss = np.isnan(M)
        if not miss.any():
            return M
        return self._replay(M, miss, len(self.seq_))
