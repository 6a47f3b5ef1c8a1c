"""Distribution-drift measures between two datasets — PSI and KS.

The standard monitoring pair for training-data pipelines: did this week's
corpus / feature column drift from the reference distribution the model
was trained on?

- :func:`population_stability` — PSI over a fixed-range equal-width
  histogram: ``Σ (p_a − p_b)·ln(p_a / p_b)`` per bucket. Each side is one
  :func:`~recipys_ray.ops.quantiles.histogram` pass (per-block bincount
  combiner, ONE tiny bucket exchange); the ≤ nbins partial rows merge on
  the driver. Buckets empty on EITHER side are dropped (the
  industry-standard alternative is an epsilon floor; dropping keeps the
  SQL oracle exact — an inner join on bucket).
- :func:`ks_statistic` — exact two-sample Kolmogorov-Smirnov distance
  ``max_v |CDF_a(v) − CDF_b(v)|`` for moderate-cardinality columns: one
  value-count fold per side (the value_ranks shape — skinny, capped by
  ``driver_cap``, raising beyond), then an exact cumulative merge on the
  driver.

Float contract: every count is an exact int64, so the probability
divisions, subtractions and abs are IDENTICAL doubles in both engines;
PSI's per-bucket ``ln`` is the same libm call (1-ulp class vs DuckDB ln,
like grouped_entropy), and KS's max over an identical multiset of doubles
is bit-equal regardless of order.

Reference parity note: the reference engine (rvandewater/ReciPys) has no
cross-dataset statistics; this extends the profiling family
(ops/profile.py) for drift monitoring.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def population_stability(
    ds_a,
    ds_b,
    col: str,
    lo: float,
    hi: float,
    nbins: int,
) -> pd.DataFrame:
    """Per-bucket PSI terms between ``ds_a`` (reference) and ``ds_b``
    (current) over ``[lo, hi] × nbins`` (module docstring). Returns a
    DataFrame ``(bucket, p_a, p_b, psi_term)`` for buckets non-empty on
    both sides, ordered by bucket; ``psi_term.sum()`` is the PSI."""
    from recipys_ray.ops.quantiles import histogram

    ha = histogram(ds_a, col, lo, hi, nbins).to_pandas()
    hb = histogram(ds_b, col, lo, hi, nbins).to_pandas()
    tot_a = int(ha["cnt"].sum())
    tot_b = int(hb["cnt"].sum())
    m = ha.merge(hb, on="bucket", how="inner", suffixes=("_a", "_b"))
    m = m.sort_values("bucket", ignore_index=True)
    pa_ = m["cnt_a"].to_numpy(np.float64) / np.float64(tot_a)
    pb_ = m["cnt_b"].to_numpy(np.float64) / np.float64(tot_b)
    return pd.DataFrame({
        "bucket": m["bucket"].to_numpy(np.int64),
        "p_a": pa_,
        "p_b": pb_,
        "psi_term": (pa_ - pb_) * np.log(pa_ / pb_),
    })


def _value_counts(ds, col: str, driver_cap: int) -> pd.DataFrame:
    """Skinny exact value-count fold of non-null ``col`` (value, cnt)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def partial(tbl: pa.Table) -> pa.Table:
        vt = tbl.schema.field(col).type
        pdf = tbl.select([col]).to_pandas()
        pdf = pdf[pdf[col].notna()]
        agg = (
            pdf.groupby(col, sort=False, observed=True)
            .size()
            .rename("cnt")
            .reset_index()
        )
        return pa.table({
            col: pa.Array.from_pandas(agg[col], type=vt),
            "cnt": pa.array(agg["cnt"].to_numpy(np.int64), pa.int64()),
        })

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby(col, sort=False)["cnt"].sum().reset_index()
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    counts = partitioned_groupby_map(
        ds.select_columns([col]).map_batches(partial,
                                             batch_format="pyarrow"),
        [col], fold,
    ).to_pandas()
    if len(counts) > driver_cap:
        raise ValueError(
            f"{col} has {len(counts)} distinct values > driver_cap="
            f"{driver_cap}; KS needs a bounded distinct set — bucket the "
            f"column first (ops/quantiles.histogram)"
        )
    return counts


def ks_statistic(
    ds_a,
    ds_b,
    col: str,
    driver_cap: int = 1_000_000,
) -> pd.DataFrame:
    """Exact two-sample KS distance (module docstring). Returns a 1-row
    DataFrame ``(ks,)`` — ``max_v |CDF_a(v) − CDF_b(v)|`` evaluated at
    every distinct value of either side. Nulls are excluded; either side
    empty yields NaN."""
    ca = _value_counts(ds_a, col, driver_cap).rename(
        columns={"cnt": "cnt_a"}
    )
    cb = _value_counts(ds_b, col, driver_cap).rename(
        columns={"cnt": "cnt_b"}
    )
    tot_a = int(ca["cnt_a"].sum())
    tot_b = int(cb["cnt_b"].sum())
    if tot_a == 0 or tot_b == 0:
        return pd.DataFrame({"ks": [np.nan]})
    m = ca.merge(cb, on=col, how="outer").fillna(
        {"cnt_a": 0, "cnt_b": 0}
    )
    m = m.sort_values(col, ignore_index=True)
    cum_a = m["cnt_a"].to_numpy(np.int64).cumsum()
    cum_b = m["cnt_b"].to_numpy(np.int64).cumsum()
    d = np.abs(
        cum_a.astype(np.float64) / np.float64(tot_a)
        - cum_b.astype(np.float64) / np.float64(tot_b)
    )
    return pd.DataFrame({"ks": [float(d.max())]})


def segment_psi(
    ds,
    segment_col: str,
    value_col: str,
    lo: float,
    hi: float,
    nbins: int = 25,
    driver_cap: int = 1_000_000,
) -> pd.DataFrame:
    """Per-SEGMENT Population Stability Index terms against the GLOBAL
    distribution — "which source / shard / day drifted from the corpus
    baseline", the fan-out monitoring twin of
    :func:`population_stability`. For each segment s and histogram bucket
    b non-empty in BOTH the segment and the corpus:

        psi_term(s, b) = (p_s(b) − p(b)) · ln(p_s(b) / p(b))

    Per-(segment, bucket) TERMS are returned rather than per-segment sums
    — every term is a closed form over exact int64 counts (same 1-ulp
    libm ``ln`` class as the global PSI), while a per-segment Σ would
    hang bit-equality on summation order. ``Σ terms per segment`` is the
    segment's PSI; a segment identical to the corpus scores ~0.

    Motion: ONE streaming pass emits per-block (segment, bucket, cnt)
    bincount partials (vectorized across all segments via one composite
    groupby); the ≤ segments × nbins fold happens on the driver (capped
    by ``driver_cap``, raising beyond — at higher segment cardinality
    shard the fold with partitioned_groupby_map first). The global
    histogram is the segment fold re-summed — no second pass. Returns a
    pandas DataFrame (segment_col, bucket, p_seg, p_all, psi_term)."""
    lo = float(lo)
    hi = float(hi)
    if nbins < 1:
        raise ValueError(f"nbins must be >= 1, got {nbins}")
    w = (hi - lo) / nbins

    def partial(tbl: pa.Table) -> pa.Table:
        seg_t = tbl.schema.field(segment_col).type
        pdf = tbl.select([segment_col, value_col]).to_pandas()
        v = pdf[value_col].to_numpy(np.float64)
        keep = (v >= lo) & (v <= hi) & pdf[segment_col].notna().to_numpy()
        pdf = pdf[keep]
        b = np.floor((pdf[value_col].to_numpy(np.float64) - lo) / w).astype(
            np.int64
        )
        np.minimum(b, nbins - 1, out=b)
        agg = (
            pd.DataFrame({segment_col: pdf[segment_col], "bucket": b})
            .groupby([segment_col, "bucket"], sort=False, observed=True)
            .size()
            .rename("c")
            .reset_index()
        )
        return pa.table({
            segment_col: pa.Array.from_pandas(agg[segment_col], type=seg_t),
            "bucket": pa.array(agg["bucket"].to_numpy(np.int64), pa.int64()),
            "c": pa.array(agg["c"].to_numpy(np.int64), pa.int64()),
        })

    parts = (
        ds.select_columns([segment_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    if len(parts) > driver_cap:
        raise ValueError(
            f"segment_psi: {len(parts)} partial rows exceed "
            f"driver_cap={driver_cap}; reduce segment cardinality or nbins"
        )
    if not len(parts):
        return pd.DataFrame(
            columns=[segment_col, "bucket", "p_seg", "p_all", "psi_term"]
        )
    seg = (
        parts.groupby([segment_col, "bucket"], sort=True)["c"]
        .sum()
        .reset_index()
    )
    glob = seg.groupby("bucket", sort=True)["c"].sum()
    n_all = np.float64(int(glob.sum()))
    seg["__tot__"] = seg.groupby(segment_col, sort=False)["c"].transform(
        "sum"
    )
    p_seg = seg["c"].to_numpy(np.float64) / seg["__tot__"].to_numpy(
        np.float64
    )
    p_all = glob.loc[seg["bucket"]].to_numpy(np.float64) / n_all
    out = seg[[segment_col, "bucket"]].copy()
    out["p_seg"] = p_seg
    out["p_all"] = p_all
    out["psi_term"] = (p_seg - p_all) * np.log(p_seg / p_all)
    return out.reset_index(drop=True)


def chi_square(
    ds,
    col_a: str,
    col_b: str,
    obs_col: str = "observed",
    exp_col: str = "expected",
    contrib_col: str = "contribution",
    driver_cap: int = 1_000_000,
):
    """Chi-square test of independence between two categorical columns,
    reported PER CELL of the contingency table: observed count, expected
    count under independence ``row_total · col_total / n``, and the
    cell's chi-square contribution ``(obs − exp)² / exp``. Summing the
    contribution column gives the test statistic; emitting per-cell
    terms keeps the contract bit-exact (no cross-engine Σ) and gives the
    analyst the actual drivers of dependence.

    Rows where either column is null are excluded. Float contract: all
    counts are exact int64 (row·col products stay far below 2^53 for any
    realistic table), so ``CAST(rt·ct AS DOUBLE)/n`` and the stated
    contribution tree are IDENTICAL doubles in both engines.

    Motion: one per-block pair-count combiner (groupby-size C kernel) →
    ONE tiny exchange of (a, b, cnt) partials → the ≤ ``driver_cap``
    distinct cells fold on the driver where the margins are vectorized.
    Above the cap, bucket a column first — a contingency table that
    large is no longer a readable test."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def partial(tbl: pa.Table) -> pa.Table:
        ta = tbl.schema.field(col_a).type
        tb = tbl.schema.field(col_b).type
        pdf = tbl.select([col_a, col_b]).to_pandas()
        pdf = pdf[pdf[col_a].notna() & pdf[col_b].notna()]
        agg = (
            pdf.groupby([col_a, col_b], sort=False, observed=True)
            .size()
            .rename("cnt")
            .reset_index()
        )
        return pa.table({
            col_a: pa.Array.from_pandas(agg[col_a], type=ta),
            col_b: pa.Array.from_pandas(agg[col_b], type=tb),
            "cnt": pa.array(agg["cnt"].to_numpy(np.int64), pa.int64()),
        })

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby([col_a, col_b], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    cells = partitioned_groupby_map(
        ds.select_columns([col_a, col_b]).map_batches(
            partial, batch_format="pyarrow"
        ),
        [col_a, col_b], fold,
    ).to_pandas()
    if len(cells) > driver_cap:
        raise ValueError(
            f"{len(cells)} contingency cells > driver_cap={driver_cap}; "
            "bucket a column first"
        )
    obs = cells["cnt"].to_numpy(np.int64)
    ra = cells.groupby(col_a, sort=False)["cnt"].transform("sum")
    cb = cells.groupby(col_b, sort=False)["cnt"].transform("sum")
    n = obs.sum()
    # CAST(rt*ct AS DOUBLE) / n — integer product exact, ONE division
    expected = (
        (ra.to_numpy(np.int64) * cb.to_numpy(np.int64)).astype(np.float64)
        / np.float64(n)
    )
    obs_f = obs.astype(np.float64)
    contribution = ((obs_f - expected) * (obs_f - expected)) / expected
    out = cells[[col_a, col_b]].copy()
    out[obs_col] = obs
    out[exp_col] = expected
    out[contrib_col] = contribution
    return out
