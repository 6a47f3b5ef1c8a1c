"""Grouped categorical / bivariate statistics — combiner-first shapes.

All operators share one motion pattern: a per-block VECTORIZED partial
aggregate (pandas groupby C kernels across ALL groups in the block)
shrinks the payload to small partial rows, ONE hash exchange on the group
key co-locates partials, and a vectorized finish folds them — the corpus
itself never shuffles. At 100 TB the exchange moves #groups × #blocks
summary rows, not data.

- :func:`grouped_value_counts` — exact (group, value) counts.
- :func:`grouped_mode` — most frequent value per group; ties break to the
  smallest value, mirroring ``ROW_NUMBER() OVER (ORDER BY cnt DESC, v)``.
- :func:`grouped_entropy` — Shannon entropy (nats) of each group's value
  distribution, ``Σ p·ln(1/p)`` — useful for label/source-diversity
  filters in training-data curation (a zero-entropy shard is boilerplate).
- :func:`grouped_corr` — Pearson correlation + sample covariance via
  sufficient statistics (n, Σx, Σy, Σx², Σy², Σxy). The finish evaluates
  the SAME closed form the SQL oracle states, term for term, so the two
  engines differ only by float-summation order inside the Σ's.

Reference parity note: the reference engine (rvandewater/ReciPys) exposes
per-group aggregation through StepHistorical/accumulators (step.py:200-320)
but has no mode/entropy/correlation; these extend the same grouped-stats
surface for corpus-curation workloads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _counts_partial(ds, group_cols: list[str], value_col: str):
    """Per-block exact (group, value) partial counts — the shared combiner.

    Null VALUES are dropped (SQL aggregate semantics); null GROUP KEYS are
    kept as their own group (SQL ``GROUP BY`` semantics). Output schema:
    group_cols + [value_col, "cnt"(int64)], with the key/value Arrow types
    preserved so cross-block unification never widens dtypes.
    """
    keys = list(group_cols) + [value_col]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in keys}
        pdf = tbl.select(keys).to_pandas()
        pdf = pdf[pdf[value_col].notna()]
        agg = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)
            .size()
            .rename("cnt")
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in keys
        }
        arrs["cnt"] = pa.array(agg["cnt"].to_numpy(np.int64), pa.int64())
        return pa.table(arrs)

    return ds.select_columns(keys).map_batches(
        partial, batch_format="pyarrow"
    )


def grouped_value_counts(
    ds,
    group_cols: list[str],
    value_col: str,
    cnt_col: str = "cnt",
    num_partitions: int | None = None,
):
    """Exact count of every (group, value) pair (module docstring).

    One combiner pass + one exchange over partial rows; the finish sums
    partials per (group, value) vectorized across all groups."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    keys = list(group_cols) + [value_col]
    parts = _counts_partial(ds, group_cols, value_col)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        out["cnt"] = out["cnt"].astype(np.int64)
        if cnt_col != "cnt":
            out = out.rename(columns={"cnt": cnt_col})
        return out

    return partitioned_groupby_map(
        parts, list(group_cols), finish, num_partitions=num_partitions
    )


def top_share(
    ds,
    group_cols: list[str],
    weight_col: str,
    id_col: str,
    top_frac: float = 0.1,
    num_partitions: int | None = None,
):
    """Per-group weight concentration: the share of the group's total
    integer weight held by its top ``ceil(n·top_frac)`` rows (ordered by
    weight desc, id asc — the id tiebreak makes the top SET
    deterministic). The curation diagnostic for content concentration
    (is 10% of a source 90% of its characters?). Output per group:
    ``n_docs``, ``total_w``, ``top_w``, ``top_share``.

    The cutoff rank is the INTEGER ``(n + ceil_num) // denom`` identity
    — for the default 0.1, ``k = (n + 9) // 10`` ≡ SQL ``(n + 9) // 10``
    — so membership is integer-exact; sums are exact int64 and the share
    is ONE double division, bit-equal to the windowed SQL oracle. Null
    weights/ids are dropped. ONE hash exchange of the skinny
    projection; sort + cumcount + masked sums run vectorized across all
    groups in the partition."""
    from fractions import Fraction

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    frac = Fraction(top_frac).limit_denominator(1_000_000)
    num, den = frac.numerator, frac.denominator
    if not (0 < top_frac <= 1):
        raise ValueError(f"top_frac must be in (0, 1], got {top_frac}")

    gcols = list(group_cols)
    cols = gcols + [weight_col, id_col]

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[pdf[weight_col].notna() & pdf[id_col].notna()]
        if not len(pdf):
            out = pdf[gcols].copy()
            out["n_docs"] = pd.Series([], dtype=np.int64)
            out["total_w"] = pd.Series([], dtype=np.int64)
            out["top_w"] = pd.Series([], dtype=np.int64)
            out["top_share"] = pd.Series([], dtype=np.float64)
            return out
        pdf = pdf.sort_values(
            gcols + [weight_col, id_col],
            ascending=[True] * len(gcols) + [False, True],
            kind="stable", ignore_index=True,
        )
        ids = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)
            .ngroup()
            .to_numpy()
        )
        n_groups = int(ids[-1]) + 1
        sizes = np.bincount(ids, minlength=n_groups)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        local = np.arange(len(pdf)) - starts[ids]
        w = pdf[weight_col].to_numpy(np.int64)
        # k = ceil(n·num/den) = (n·num + den − 1) // den, exact ints
        k = (sizes * num + den - 1) // den
        in_top = local < k[ids]
        total = np.bincount(ids, weights=w.astype(np.float64),
                            minlength=n_groups).astype(np.int64)
        top = np.bincount(ids, weights=(w * in_top).astype(np.float64),
                          minlength=n_groups).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = top.astype(np.float64) / total.astype(np.float64)
        out = pdf.iloc[starts][gcols].reset_index(drop=True)
        out["n_docs"] = sizes.astype(np.int64)
        out["total_w"] = total
        out["top_w"] = top
        out["top_share"] = share
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, sweep,
        num_partitions=num_partitions,
    )


def simpson_diversity(
    ds,
    group_cols: list[str],
    value_col: str,
    d_col: str = "simpson",
    n_col: str = "n",
    num_partitions: int | None = None,
):
    """Per-group Simpson diversity index of a categorical column — the
    probability that two draws WITHOUT replacement share a category::

        D = Σ_i c_i·(c_i − 1)  /  (N·(N − 1))

    (ecology's λ; 1−D is the Gini–Simpson diversity). Unlike Shannon
    entropy this needs NO logarithm: both Σ's are exact int64 and the
    result is ONE double division — bit-equal to SQL, not merely
    allclose, so it can be a primary hash column. Groups with N < 2
    yield NaN (0/0) identically in both engines.

    Motion: the shared exact (group, value) count combiner
    (:func:`_counts_partial`), ONE exchange of partial rows, vectorized
    finish. Output: group_cols + [d_col, n_col]."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    parts = _counts_partial(ds, gcols, value_col)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = (
            pdf.groupby(gcols + [value_col], sort=False, dropna=False,
                        observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        c = tot["cnt"].to_numpy(np.int64)
        tot["__s__"] = c * (c - 1)
        agg = (
            tot.groupby(gcols, sort=False, dropna=False, observed=True)
            .agg(__s__=("__s__", "sum"), __n__=("cnt", "sum"))
            .reset_index()
        )
        s = agg["__s__"].to_numpy(np.int64)
        n = agg["__n__"].to_numpy(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = s.astype(np.float64) / (n * (n - 1)).astype(np.float64)
        out = agg[gcols].copy()
        out[d_col] = d
        out[n_col] = n
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_mode(
    ds,
    group_cols: list[str],
    value_col: str,
    out_col: str | None = None,
    cnt_col: str = "mode_cnt",
    num_partitions: int | None = None,
):
    """Most frequent value per group, exact, deterministic tie-break to
    the SMALLEST value — i.e. the row ``ROW_NUMBER() OVER (PARTITION BY g
    ORDER BY count(*) DESC, v ASC) = 1`` selects. Null values are ignored;
    a group whose values are all null emits no row (SQL inner-select
    drops it)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    out_col = out_col or value_col
    keys = list(group_cols) + [value_col]
    parts = _counts_partial(ds, group_cols, value_col)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        # one vectorized sort resolves argmax + tie-break for EVERY group
        # in the partition: (group asc, cnt desc, value asc), keep first
        tot = tot.sort_values(
            list(group_cols) + ["cnt", value_col],
            ascending=[True] * len(group_cols) + [False, True],
            kind="stable",
            ignore_index=True,
        )
        out = tot.drop_duplicates(subset=list(group_cols), keep="first")
        out = out.rename(columns={value_col: out_col, "cnt": cnt_col})
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        parts, list(group_cols), finish, num_partitions=num_partitions
    )


def grouped_entropy(
    ds,
    group_cols: list[str],
    value_col: str,
    out_col: str = "entropy",
    num_partitions: int | None = None,
):
    """Shannon entropy (nats) of each group's value distribution:
    ``Σ (cnt/tot)·ln(tot/cnt)``. Null values are ignored; all-null groups
    emit no row.

    Float contract: counts are exact int64 and ``tot`` ≤ 2^53, so ``cnt``,
    ``tot`` and the two divisions are IDENTICAL doubles in both engines;
    only the final per-group summation order can differ (ulp-level). The
    ``p·ln(1/p)`` form (not ``-p·ln(p)``) keeps single-value groups at
    +0.0 rather than -0.0 on both sides."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    keys = list(group_cols) + [value_col]
    parts = _counts_partial(ds, group_cols, value_col)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        cnt = tot["cnt"].to_numpy(np.float64)
        gtot = (
            tot.groupby(list(group_cols), sort=False, dropna=False,
                        observed=True)["cnt"]
            .transform("sum")
            .to_numpy(np.float64)
        )
        tot["__term__"] = (cnt / gtot) * np.log(gtot / cnt)
        out = (
            tot.groupby(list(group_cols), sort=False, dropna=False,
                        observed=True)["__term__"]
            .sum()
            .rename(out_col)
            .reset_index()
        )
        return out

    return partitioned_groupby_map(
        parts, list(group_cols), finish, num_partitions=num_partitions
    )


def grouped_corr(
    ds,
    group_cols: list[str],
    x: str,
    y: str,
    cov_col: str = "cov_xy",
    corr_col: str = "corr_xy",
    n_col: str = "n",
    num_partitions: int | None = None,
):
    """Pearson correlation + sample covariance per group via sufficient
    statistics. Rows where EITHER x or y is null are excluded (SQL
    ``corr``/``covar_samp`` pairwise-null semantics). Output per group:
    n (int64), cov_xy, corr_xy.

    The finish evaluates exactly::

        cov  = (Σxy − Σx·Σy/n) / (n−1)
        corr = cov / (sqrt((Σx²−Σx·Σx/n)/(n−1)) · sqrt((Σy²−Σy·Σy/n)/(n−1)))

    term-for-term identical to the SQL oracle form, so cross-engine drift
    is bounded by the Σ summation-order ulp. Groups with n < 2 or zero
    variance produce IEEE ±inf/nan consistently in both engines — callers
    wanting NULLs there should filter first."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    stat_cols = ["__n__", "__sx__", "__sy__", "__sxx__", "__syy__", "__sxy__"]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [x, y]).to_pandas()
        pdf = pdf[pdf[x].notna() & pdf[y].notna()]
        xv = pdf[x].to_numpy(np.float64)
        yv = pdf[y].to_numpy(np.float64)
        stats = pd.DataFrame({
            c: pdf[c].to_numpy() for c in gcols
        })
        stats["__n__"] = np.int64(1)
        stats["__sx__"] = xv
        stats["__sy__"] = yv
        stats["__sxx__"] = xv * xv
        stats["__syy__"] = yv * yv
        stats["__sxy__"] = xv * yv
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        arrs["__n__"] = pa.array(agg["__n__"].to_numpy(np.int64), pa.int64())
        for c in stat_cols[1:]:
            arrs[c] = pa.array(agg[c].to_numpy(np.float64), pa.float64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [x, y]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                stat_cols
            ]
            .sum()
            .reset_index()
        )
        n = agg["__n__"].to_numpy(np.int64)
        nf = n.astype(np.float64)
        sx = agg["__sx__"].to_numpy(np.float64)
        sy = agg["__sy__"].to_numpy(np.float64)
        sxx = agg["__sxx__"].to_numpy(np.float64)
        syy = agg["__syy__"].to_numpy(np.float64)
        sxy = agg["__sxy__"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            cov = (sxy - sx * sy / nf) / (nf - 1.0)
            varx = (sxx - sx * sx / nf) / (nf - 1.0)
            vary = (syy - sy * sy / nf) / (nf - 1.0)
            corr = cov / (np.sqrt(varx) * np.sqrt(vary))
        out = agg[gcols].copy()
        out[n_col] = n
        out[cov_col] = cov
        out[corr_col] = corr
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def last_value_percentile(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    num_partitions: int | None = None,
):
    """Where does each entity's MOST RECENT value sit against its own
    history? — the feature-store "current percentile" signal. Per group
    (ordered by ``order_cols``, which must make the order total):

        v_last = value of the last row
        r      = #{ v_i < v_last }  over ALL of the group's rows
        pct    = r / (n − 1)        (NULL when n == 1)

    r and n are exact ints; pct is ONE double division — bit-equal to
    the SQL ``last_value() OVER`` oracle. Null values are excluded from
    both the history and the last-row choice, mirroring the oracle's
    WHERE. ONE hash exchange of the skinny projection; last-row pick,
    comparison and fold run vectorized across all groups (offset
    indexing + bincount)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = list(dict.fromkeys(gcols + ocols + [value_col]))

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[pdf[value_col].notna()]
        if not len(pdf):
            out = pdf[gcols].copy()
            out["v_last"] = pd.Series([], dtype=np.int64)
            out["n"] = pd.Series([], dtype=np.int64)
            out["pct"] = pd.Series([], dtype=np.float64)
            return out
        pdf = pdf.sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        ids = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)
            .ngroup()
            .to_numpy()
        )
        n_groups = int(ids[-1]) + 1
        sizes = np.bincount(ids, minlength=n_groups)
        ends = np.cumsum(sizes)
        v = pdf[value_col].to_numpy(np.int64)
        v_last = v[ends - 1]
        below = (v < v_last[ids]).astype(np.float64)
        r = np.bincount(ids, weights=below, minlength=n_groups)
        n = sizes.astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(
                n > 1, r / (n - 1).astype(np.float64), np.nan
            )
        starts = ends - sizes
        out = pdf.iloc[starts][gcols].reset_index(drop=True)
        out["v_last"] = v_last
        out["n"] = n
        out["pct"] = pct
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, sweep,
        num_partitions=num_partitions,
    )


def grouped_spearman(
    ds,
    group_cols: list[str],
    x: str,
    y: str,
    out_col: str = "spearman",
    n_col: str = "n",
    num_partitions: int | None = None,
    max_group_rows: int = 100_000,
):
    """Per-group Spearman rank correlation — Pearson over DOUBLED
    average ranks, which are exact INTEGERS (avg rank is k or k+½; 2×
    either is an int), so the sufficient sums are exact and the closed
    form is bit-equal to the SQL oracle::

        rx2 = 2·rank() + count(*) OVER (PARTITION BY g, x) − 1
        rho = (Σrxry − Σrx·Σry/n) /
              (sqrt(Σrx² − Σrx·Σrx/n) · sqrt(Σry² − Σry·Σry/n))

    (doubling cancels in rho, so this IS Spearman's ρ with the standard
    average-rank tie treatment). Rows with a null in x or y are
    excluded pairwise BEFORE ranking, matching the oracle's WHERE.

    Unlike :func:`grouped_corr`, ranks need the whole group — so the
    motion is ONE hash exchange of the skinny (g, x, y) payload, then
    ranking + sums + finish all run vectorized across the partition's
    groups (pandas rank/groupby C kernels). Exactness bound: Σr² ≤ 4n³
    must stay under 2^53, i.e. n ≤ ~130k rows per group — the
    ``max_group_rows`` guard raises past 100k (pre-aggregate or sample
    the series first)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [x, y]

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[pdf[x].notna() & pdf[y].notna()]
        if not len(pdf):
            out = pdf[gcols].copy()
            out[out_col] = pd.Series([], dtype=np.float64)
            out[n_col] = pd.Series([], dtype=np.int64)
            return out
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        if grp.size().max() > max_group_rows:
            raise ValueError(
                f"grouped_spearman: a group exceeds "
                f"max_group_rows={max_group_rows}; rank sums would lose "
                "integer exactness (4n^3 > 2^53) — pre-aggregate first"
            )
        rx = grp[x].rank(method="average").to_numpy() * 2.0
        ry = grp[y].rank(method="average").to_numpy() * 2.0
        stats = pdf[gcols].copy()
        stats["__n__"] = np.int64(1)
        stats["__sx__"] = rx
        stats["__sy__"] = ry
        stats["__sxx__"] = rx * rx
        stats["__syy__"] = ry * ry
        stats["__sxy__"] = rx * ry
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        n = agg["__n__"].to_numpy(np.int64)
        nf = n.astype(np.float64)
        sx = agg["__sx__"].to_numpy(np.float64)
        sy = agg["__sy__"].to_numpy(np.float64)
        sxx = agg["__sxx__"].to_numpy(np.float64)
        syy = agg["__syy__"].to_numpy(np.float64)
        sxy = agg["__sxy__"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (sxy - sx * sy / nf) / (
                np.sqrt(sxx - sx * sx / nf) * np.sqrt(syy - sy * sy / nf)
            )
        out = agg[gcols].copy()
        out[out_col] = rho
        out[n_col] = n
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, sweep,
        num_partitions=num_partitions,
    )


def corr_matrix(
    ds,
    cols: list[str],
):
    """All-pairs Pearson correlation of k numeric columns in ONE
    combiner pass — the statistic behind the recipes ``step_corr``
    predictor filter. Returns the long-form upper triangle
    ``(col_a, col_b, corr, n)``, cols paired in the given order.

    Listwise-complete rows only (a row with a null in ANY of the cols is
    excluded — the convention a correlation-filter fit uses, and the
    oracle's WHERE). The per-block partial is one k×k Gram
    (``X.T @ X``) plus column sums; with INTEGER-valued inputs every Σ
    is exact and the closed form (same tree as :func:`grouped_corr`) is
    bit-equal to SQL."""
    cols = list(cols)
    k = len(cols)
    if k < 2:
        raise ValueError("corr_matrix needs at least two columns")
    sum_names = [f"__s_{i}__" for i in range(k)]

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf.dropna()
        X = pdf.to_numpy(np.float64)
        g = X.T @ X if len(X) else np.zeros((k, k))
        s = X.sum(axis=0) if len(X) else np.zeros(k)
        out = {"__n__": pa.array([len(X)], pa.int64())}
        for i in range(k):
            out[f"__s_{i}__"] = pa.array([s[i]], pa.float64())
            for j in range(i, k):
                out[f"__g_{i}_{j}__"] = pa.array([g[i, j]], pa.float64())
        return pa.table(out)

    # the fold state is ONE row of k(k+3)/2 doubles per block — a
    # bounded driver reduction, never data rows (same policy as the
    # transformer fits)
    pdf = (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    n = np.int64(pdf["__n__"].sum()) if len(pdf) else np.int64(0)
    nf = np.float64(n)
    s = np.array(
        [pdf[c].sum() if len(pdf) else 0.0 for c in sum_names],
        np.float64,
    )
    rows = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(k):
            for j in range(i + 1, k):
                sxy = np.float64(pdf[f"__g_{i}_{j}__"].sum()) \
                    if len(pdf) else 0.0
                sxx = np.float64(pdf[f"__g_{i}_{i}__"].sum()) \
                    if len(pdf) else 0.0
                syy = np.float64(pdf[f"__g_{j}_{j}__"].sum()) \
                    if len(pdf) else 0.0
                corr = (sxy - s[i] * s[j] / nf) / (
                    np.sqrt(sxx - s[i] * s[i] / nf)
                    * np.sqrt(syy - s[j] * s[j] / nf)
                )
                rows.append((cols[i], cols[j], corr, n))
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame(
        rows, columns=["col_a", "col_b", "corr", "n"]
    ).astype({"corr": np.float64, "n": np.int64}))


def nzv_report(
    ds,
    cols: list[str],
    freq_ratio_cut: int = 19,
    unique_cut_pct: int = 10,
    num_partitions: int | None = None,
):
    """Near-zero-variance predictor report — the recipes ``step_nzv``
    screening statistic, one row per column::

        top_cnt / second_cnt   the two largest value frequencies
        freq_ratio             top/second (NULL if a column is constant)
        pct_unique             100·n_distinct/n_rows
        nzv                    1 iff constant, OR freq_ratio >
                               freq_ratio_cut AND pct_unique <
                               unique_cut_pct

    The nzv flag is decided by INTEGER cross-multiplication
    (``top > cut·second``, ``100·distinct < pct·n``) — no float in any
    comparison, so flags are exact; the reported ratios are single
    divisions of exact ints (bit-equal to SQL). Values are compared as
    strings (int/string columns only — float repr is not portable).

    Motion: per-block (column, value, count) combiner partials, ONE
    skinny exchange on the column name co-locates each column's value
    counts, per-partition top-2/distinct/total fold — the exchange is
    bounded by value cardinality, never rows."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    cols = list(cols)

    def partial(tbl: pa.Table) -> pa.Table:
        names, vals, cnts = [], [], []
        pdf = tbl.select(cols).to_pandas()
        for c in cols:
            col = pdf[c].dropna()
            vc = col.astype(str).value_counts()
            names.extend([c] * len(vc))
            vals.extend(vc.index.tolist())
            cnts.extend(vc.to_numpy(np.int64).tolist())
        return pa.table({
            "col_name": pa.array(names, pa.string()),
            "val": pa.array(vals, pa.string()),
            "cnt": pa.array(np.asarray(cnts, np.int64), pa.int64()),
        })

    parts = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "col_name": pd.Series(dtype=object),
            "n_rows": pd.Series(dtype=np.int64),
            "n_distinct": pd.Series(dtype=np.int64),
            "top_cnt": pd.Series(dtype=np.int64),
            "second_cnt": pd.Series(dtype=np.int64),
            "freq_ratio": pd.Series(dtype=np.float64),
            "pct_unique": pd.Series(dtype=np.float64),
            "nzv": pd.Series(dtype=np.int64),
        })
        if not len(pdf):
            return empty
        tot = (
            pdf.groupby(["col_name", "val"], sort=False, observed=True)[
                "cnt"
            ]
            .sum()
            .reset_index()
        )
        rows = []
        for c, grp in tot.groupby("col_name", sort=False):
            cnts = np.sort(grp["cnt"].to_numpy(np.int64))[::-1]
            n = np.int64(cnts.sum())
            nd = np.int64(len(cnts))
            top = np.int64(cnts[0])
            second = np.int64(cnts[1]) if len(cnts) > 1 else np.int64(0)
            ratio = (
                np.float64(top) / np.float64(second)
                if second > 0 else np.nan
            )
            pct = np.float64(100 * nd) / np.float64(n)
            nzv = int(
                second == 0
                or (top > freq_ratio_cut * second
                    and 100 * nd < unique_cut_pct * n)
            )
            rows.append((c, n, nd, top, second, ratio, pct, nzv))
        out = pd.DataFrame(rows, columns=list(empty.columns))
        return out.astype({
            "n_rows": np.int64, "n_distinct": np.int64,
            "top_cnt": np.int64, "second_cnt": np.int64,
            "freq_ratio": np.float64, "pct_unique": np.float64,
            "nzv": np.int64,
        })

    return partitioned_groupby_map(
        parts, ["col_name"], fold, num_partitions=num_partitions
    )


def grouped_ols2(
    ds,
    group_cols: list[str],
    x1: str,
    x2: str,
    y: str,
    num_partitions: int | None = None,
):
    """Per-group TWO-regressor OLS ``y ~ b0 + b1·x1 + b2·x2`` — the
    multivariate step up from :func:`grouped_regression`, solved in
    closed form from the 3×3 normal equations. Same motion: one
    vectorized per-block sufficient-statistic partial
    (n, Σx1, Σx2, Σy, Σx1², Σx2², Σx1x2, Σx1y, Σx2y), ONE exchange of
    partial rows, vectorized finish. Rows with a null in any of the
    three columns are excluded (SQL ``regr_*`` pairwise semantics).

    The finish evaluates exactly (centered sums, Cramer's rule)::

        S11 = sx1x1 - sx1*sx1/n        S12 = sx1x2 - sx1*sx2/n
        S22 = sx2x2 - sx2*sx2/n
        S1y = sx1y  - sx1*sy/n         S2y = sx2y  - sx2*sy/n
        det = S11*S22 - S12*S12
        b1  = (S22*S1y - S12*S2y) / det
        b2  = (S11*S2y - S12*S1y) / det
        b0  = sy/n - b1*(sx1/n) - b2*(sx2/n)
        r2  = (b1*S1y + b2*S2y) / (syy - sy*sy/n)

    term-for-term the SQL oracle's form: with INTEGER-valued inputs the
    Σ's are exact (< 2^53) and every downstream double op is a single
    IEEE kernel in both engines, so outputs are bit-equal. Collinear /
    degenerate groups yield IEEE ±inf/nan consistently."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    stat_cols = ["__n__", "__s1__", "__s2__", "__sy__", "__s11__",
                 "__s22__", "__s12__", "__s1y__", "__s2y__", "__syy__"]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [x1, x2, y]).to_pandas()
        pdf = pdf[pdf[x1].notna() & pdf[x2].notna() & pdf[y].notna()]
        a = pdf[x1].to_numpy(np.float64)
        b = pdf[x2].to_numpy(np.float64)
        yv = pdf[y].to_numpy(np.float64)
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__n__"] = np.int64(1)
        stats["__s1__"] = a
        stats["__s2__"] = b
        stats["__sy__"] = yv
        stats["__s11__"] = a * a
        stats["__s22__"] = b * b
        stats["__s12__"] = a * b
        stats["__s1y__"] = a * yv
        stats["__s2y__"] = b * yv
        stats["__syy__"] = yv * yv
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        arrs["__n__"] = pa.array(agg["__n__"].to_numpy(np.int64), pa.int64())
        for c in stat_cols[1:]:
            arrs[c] = pa.array(agg[c].to_numpy(np.float64), pa.float64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [x1, x2, y]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                stat_cols
            ]
            .sum()
            .reset_index()
        )
        n = agg["__n__"].to_numpy(np.int64)
        nf = n.astype(np.float64)
        s1 = agg["__s1__"].to_numpy(np.float64)
        s2 = agg["__s2__"].to_numpy(np.float64)
        sy = agg["__sy__"].to_numpy(np.float64)
        s11 = agg["__s11__"].to_numpy(np.float64)
        s22 = agg["__s22__"].to_numpy(np.float64)
        s12 = agg["__s12__"].to_numpy(np.float64)
        s1y = agg["__s1y__"].to_numpy(np.float64)
        s2y = agg["__s2y__"].to_numpy(np.float64)
        syy = agg["__syy__"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            c11 = s11 - s1 * s1 / nf
            c22 = s22 - s2 * s2 / nf
            c12 = s12 - s1 * s2 / nf
            c1y = s1y - s1 * sy / nf
            c2y = s2y - s2 * sy / nf
            det = c11 * c22 - c12 * c12
            b1 = (c22 * c1y - c12 * c2y) / det
            b2 = (c11 * c2y - c12 * c1y) / det
            b0 = sy / nf - b1 * (s1 / nf) - b2 * (s2 / nf)
            r2 = (b1 * c1y + b2 * c2y) / (syy - sy * sy / nf)
        out = agg[gcols].copy()
        out["b0"] = b0
        out["b1"] = b1
        out["b2"] = b2
        out["r2"] = r2
        out["n"] = n
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_regression(
    ds,
    group_cols: list[str],
    x: str,
    y: str,
    slope_col: str = "slope",
    intercept_col: str = "intercept",
    r2_col: str = "r2",
    n_col: str = "n",
    num_partitions: int | None = None,
):
    """Per-group simple OLS regression of ``y`` on ``x`` (SQL
    ``regr_slope/regr_intercept/regr_r2`` semantics) via the same
    sufficient-statistic combiner as :func:`grouped_corr` — a per-block
    vectorized partial (n, Σx, Σy, Σx², Σy², Σxy), ONE exchange of
    partial rows, vectorized finish. Rows where either x or y is null
    are excluded (SQL ``regr_*`` pairwise semantics).

    The finish evaluates exactly::

        slope     = (sxy - sx*sy/n) / (sxx - sx*sx/n)
        intercept = sy/n - slope*(sx/n)
        r2        = ((sxy - sx*sy/n) * (sxy - sx*sy/n)) /
                    ((sxx - sx*sx/n) * (syy - sy*sy/n))

    term-for-term the form the SQL oracle should state, so with
    integer-valued inputs (exact Σ's) the outputs are bit-equal across
    engines; with raw floats drift is bounded by Σ summation-order ulps.
    Zero x-variance groups yield IEEE ±inf/nan consistently."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    stat_cols = ["__n__", "__sx__", "__sy__", "__sxx__", "__syy__", "__sxy__"]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [x, y]).to_pandas()
        pdf = pdf[pdf[x].notna() & pdf[y].notna()]
        xv = pdf[x].to_numpy(np.float64)
        yv = pdf[y].to_numpy(np.float64)
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__n__"] = np.int64(1)
        stats["__sx__"] = xv
        stats["__sy__"] = yv
        stats["__sxx__"] = xv * xv
        stats["__syy__"] = yv * yv
        stats["__sxy__"] = xv * yv
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        arrs["__n__"] = pa.array(agg["__n__"].to_numpy(np.int64), pa.int64())
        for c in stat_cols[1:]:
            arrs[c] = pa.array(agg[c].to_numpy(np.float64), pa.float64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [x, y]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                stat_cols
            ]
            .sum()
            .reset_index()
        )
        n = agg["__n__"].to_numpy(np.int64)
        nf = n.astype(np.float64)
        sx = agg["__sx__"].to_numpy(np.float64)
        sy = agg["__sy__"].to_numpy(np.float64)
        sxx = agg["__sxx__"].to_numpy(np.float64)
        syy = agg["__syy__"].to_numpy(np.float64)
        sxy = agg["__sxy__"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            cxy = sxy - sx * sy / nf
            vxx = sxx - sx * sx / nf
            vyy = syy - sy * sy / nf
            slope = cxy / vxx
            intercept = sy / nf - slope * (sx / nf)
            r2 = (cxy * cxy) / (vxx * vyy)
        out = agg[gcols].copy()
        out[n_col] = n
        out[slope_col] = slope
        out[intercept_col] = intercept
        out[r2_col] = r2
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_moments(
    ds,
    group_cols: list[str],
    x: str,
    skew_col: str = "skew",
    kurt_col: str = "kurt",
    n_col: str = "n",
    num_partitions: int | None = None,
):
    """Per-group skewness + excess kurtosis (SQL ``skewness``/``kurtosis``
    semantics) from raw power sums (n, Σx, Σx², Σx³, Σx⁴) — one per-block
    vectorized partial, ONE exchange of partial rows, vectorized finish.
    Null values are excluded (SQL aggregate semantics).

    The finish replicates DuckDB 1.0's operation trees exactly (probed
    bit-equal over 800 random integer groups each)::

        temp = 1/n;  m2 = temp*(Σx² − Σx·Σx·temp)
        skew = sqrt(n(n−1))/(n−2) · temp
               · (Σx³ − 3·Σx²·Σx·temp + 2·Σx·Σx·Σx·temp²) / sqrt(m2³)
        m4   = temp·(Σx⁴ − 4·Σx³·Σx·temp + 6·Σx²·Σx·Σx·temp²
               − 3·(Σx)⁴·temp³)
        kurt = (n−1)·((n+1)·m4/m2² − 3(n−1)) / ((n−2)(n−3))

    so with INTEGER-valued inputs whose 4th-power sums stay below 2^53
    every Σ is exact and the outputs are bit-equal across engines. Gates
    mirror SQL NULLs: skew needs n ≥ 3 and nonzero variance, kurt n ≥ 4
    (emitted as NaN → Arrow null). |x|⁴·n must stay < 2^53 for exactness —
    rescale (e.g. floor to coarser units) before calling at bigger
    magnitudes."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    stat_cols = ["__n__", "__s1__", "__s2__", "__s3__", "__s4__"]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [x]).to_pandas()
        pdf = pdf[pdf[x].notna()]
        xv = pdf[x].to_numpy(np.float64)
        x2 = xv * xv
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__n__"] = np.int64(1)
        stats["__s1__"] = xv
        stats["__s2__"] = x2
        stats["__s3__"] = x2 * xv
        stats["__s4__"] = x2 * x2
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        arrs["__n__"] = pa.array(agg["__n__"].to_numpy(np.int64), pa.int64())
        for c in stat_cols[1:]:
            arrs[c] = pa.array(agg[c].to_numpy(np.float64), pa.float64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [x]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                stat_cols
            ]
            .sum()
            .reset_index()
        )
        n = agg["__n__"].to_numpy(np.int64)
        # the closed form runs per OUTPUT row (#groups, already reduced) in
        # python-float libm ops — numpy contracts integer ** into chained
        # multiplies, which breaks the bit-parity with DuckDB's std::pow
        import math

        skew = np.full(len(agg), np.nan)
        kurt = np.full(len(agg), np.nan)
        s1a = agg["__s1__"].to_numpy(np.float64)
        s2a = agg["__s2__"].to_numpy(np.float64)
        s3a = agg["__s3__"].to_numpy(np.float64)
        s4a = agg["__s4__"].to_numpy(np.float64)
        for i in range(len(agg)):
            nf = float(n[i])
            s1, s2, s3, s4 = (float(s1a[i]), float(s2a[i]),
                              float(s3a[i]), float(s4a[i]))
            temp = 1.0 / nf
            p = (temp * (s2 - s1 * s1 * temp)) ** 3
            if p < 0.0:
                p = 0.0
            div = math.sqrt(p)
            if n[i] >= 3 and div > 0.0:
                temp1 = math.sqrt(nf * (nf - 1.0)) / (nf - 2.0)
                skew[i] = temp1 * temp * (
                    s3 - 3.0 * s2 * s1 * temp
                    + 2.0 * s1 * s1 * s1 * temp * temp
                ) / div
            m2 = temp * (s2 - s1 * s1 * temp)
            if n[i] >= 4 and m2 != 0.0:
                m4 = temp * (
                    s4 - 4.0 * s3 * s1 * temp
                    + 6.0 * s2 * s1 * s1 * temp * temp
                    - 3.0 * s1**4 * temp**3
                )
                kurt[i] = (nf - 1.0) * (
                    (nf + 1.0) * m4 / (m2 * m2) - 3.0 * (nf - 1.0)
                ) / ((nf - 2.0) * (nf - 3.0))
        out = agg[gcols].copy()
        out[n_col] = n
        out[skew_col] = skew
        out[kurt_col] = kurt
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def transition_counts(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    state_col: str,
    from_col: str = "from_state",
    to_col: str = "to_state",
    cnt_col: str = "cnt",
    num_partitions: int | None = None,
):
    """First-order Markov transition counts: for each group's sequence of
    states (ordered by ``order_cols``), count every consecutive
    (from → to) pair, summed across all groups. The SQL equivalent is
    ``lead(state) OVER (PARTITION BY g ORDER BY ...)`` followed by a
    GROUP BY (from, to) dropping end-of-sequence NULL leads.

    Motion: ONE hash exchange on the group key co-locates each sequence
    (the payload is only group + order + state — skinny), a vectorized
    sort + shift(-1) forms pairs for EVERY group in the partition at
    once, and per-partition pair counts fold through a second, tiny
    exchange (≤ #states² rows per partition). Null states are legal
    ``from`` values (SQL GROUP BY keeps them); pairs whose TO state is
    null are dropped along with end-of-sequence rows — SQL's lead()
    yields NULL for both, so they are indistinguishable in the oracle
    formulation.

    The behavioral-data workhorse for session modeling (next-event
    prediction priors, funnel leakage, bot-loop detection)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [state_col]

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        frm = pdf[state_col]
        to = frm.shift(-1)
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        last = grp.cumcount(ascending=False).to_numpy() == 0
        # drop null TO states as well as end-of-sequence rows: SQL's
        # lead() makes the two indistinguishable (both NULL), and the
        # oracle's WHERE to IS NOT NULL removes both
        keep = pd.DataFrame({from_col: frm, to_col: to})[
            ~last & to.notna().to_numpy()
        ]
        out = (
            keep.groupby([from_col, to_col], sort=False, dropna=False,
                         observed=True)
            .size()
            .rename(cnt_col)
            .reset_index()
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    local = partitioned_groupby_map(
        ds.select_columns(cols), gcols, pairs,
        num_partitions=num_partitions,
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby([from_col, to_col], sort=False, dropna=False,
                        observed=True)[cnt_col]
            .sum()
            .reset_index()
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    return partitioned_groupby_map(local, [from_col, to_col], fold)


def transition_latency(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    state_col: str,
    time_col: str,
    from_col: str = "from_state",
    to_col: str = "to_state",
    num_partitions: int | None = None,
):
    """Response-latency statistics per state transition: for every
    consecutive (from → to) pair across all groups' ordered sequences,
    the pair count plus the total / mean / max time gap — the
    role-pair response-time feature for conversation and session
    modeling (e.g. how long an `assistant` turn takes after a `user`
    turn, per transition type). Output: from/to state, ``n``,
    ``total_gap_us``, ``mean_gap_us``, ``max_gap_us``.

    Gaps are exact int64 microseconds (datetime64 or integer
    ``time_col``); ``mean_gap_us`` is ONE double division of exact
    integers — bit-equal to the SQL ``lag() OVER`` oracle. Within-group
    ordering must be made total by ``order_cols`` (include a tiebreak
    id), exactly as the oracle's window ORDER BY. A null ``time_col``
    makes its gaps NULL, as in SQL: the pair counts in ``n`` but not in
    the gap total / max (NULL when every gap of the pair is NULL), and
    the mean divides the valid-gap total by ``n``.

    Motion mirrors :func:`transition_counts`: ONE skinny hash exchange
    on the group key, a vectorized sort + shift forms pairs for every
    group in the partition, per-partition (from,to) partials
    (count/sum/max) fold through a second, tiny exchange."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    # time_col commonly doubles as an order col — project it once
    cols = list(dict.fromkeys(gcols + ocols + [state_col, time_col]))
    stat_cols = ["__n__", "__nv__", "__tot__", "__max__"]
    lowest = np.iinfo(np.int64).min

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        frm = pdf[state_col]
        to = frm.shift(-1)
        # a null time on either side makes the gap NULL (SQL epoch_us):
        # the pair still counts in n, but not in the gap sum / max
        tser = pdf[time_col]
        tvalid = tser.notna().to_numpy()
        if pd.api.types.is_datetime64_any_dtype(tser):
            t = tser.to_numpy().astype("datetime64[us]").astype(np.int64)
        else:
            t = tser.fillna(0).to_numpy().astype(np.int64)
        gap = np.zeros(len(t), dtype=np.int64)
        gap_ok = np.zeros(len(t), dtype=bool)
        if len(t):
            gap[:-1] = t[1:] - t[:-1]
            gap_ok[:-1] = tvalid[1:] & tvalid[:-1]
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        last = grp.cumcount(ascending=False).to_numpy() == 0
        keep_mask = ~last & to.notna().to_numpy()
        ok = gap_ok[keep_mask]
        g = gap[keep_mask]
        keep = pd.DataFrame({
            from_col: frm.to_numpy()[keep_mask],
            to_col: to.to_numpy()[keep_mask],
            "__ok__": ok.astype(np.int64),
            "__sum__": np.where(ok, g, 0),
            "__top__": np.where(ok, g, lowest),
        })
        out = (
            keep.groupby([from_col, to_col], sort=False, dropna=False,
                         observed=True)
            .agg(__n__=("__ok__", "size"), __nv__=("__ok__", "sum"),
                 __tot__=("__sum__", "sum"), __max__=("__top__", "max"))
            .reset_index()
        )
        for c in stat_cols:
            out[c] = out[c].astype(np.int64)
        return out

    local = partitioned_groupby_map(
        ds.select_columns(cols), gcols, pairs,
        num_partitions=num_partitions,
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby([from_col, to_col], sort=False, dropna=False,
                        observed=True)
            .agg(__n__=("__n__", "sum"), __nv__=("__nv__", "sum"),
                 __tot__=("__tot__", "sum"), __max__=("__max__", "max"))
            .reset_index()
        )
        n = agg["__n__"].to_numpy(np.int64)
        tot = agg["__tot__"].to_numpy(np.int64)
        null = agg["__nv__"].to_numpy(np.int64) == 0  # every gap NULL
        out = agg[[from_col, to_col]].copy()
        out["n"] = n
        out["total_gap_us"] = pd.array(tot, dtype="Int64")
        out["mean_gap_us"] = np.where(
            null, np.nan, tot.astype(np.float64) / n.astype(np.float64)
        )
        out["max_gap_us"] = pd.array(
            agg["__max__"].to_numpy(np.int64), dtype="Int64"
        )
        out.loc[null, ["total_gap_us", "max_gap_us"]] = pd.NA
        return out

    return partitioned_groupby_map(local, [from_col, to_col], fold)


def grouped_rate_ci(
    ds,
    group_cols: list[str],
    flag_col: str,
    z: float = 1.959963984540054,
    num_partitions: int | None = None,
):
    """Per-group Wilson score confidence interval for a binary rate —
    the interval that behaves at small n and p near 0/1 (Wilson 1927;
    the recommended default over the Wald interval, Brown-Cai-DasGupta
    2001). For successes k of n::

        p      = k / n
        d      = 1 + (z*z)/n
        center = (p + (z*z)/(2*n)) / d
        half   = z * sqrt(p*(1-p)/n + (z*z)/(4*n*n)) / d

    Output: group_cols + [k, n, rate, ci_lo, ci_hi]. k and n fold
    through one exact-int combiner exchange; every downstream double op
    (including the correctly-rounded IEEE sqrt) is mirrored
    term-for-term by the SQL oracle, so the interval is bit-equal —
    cast the z literal to DOUBLE in SQL (DuckDB parses bare decimal
    literals as DECIMAL, which would change the products).

    ``flag_col`` must be integer 0/1 (or boolean); null flags are
    excluded from both k and n."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [flag_col]).to_pandas()
        pdf = pdf[pdf[flag_col].notna()]
        f = pdf[flag_col].to_numpy()
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__k__"] = f.astype(np.int64)
        stats["__n__"] = np.int64(1)
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        arrs["__k__"] = pa.array(agg["__k__"].to_numpy(np.int64), pa.int64())
        arrs["__n__"] = pa.array(agg["__n__"].to_numpy(np.int64), pa.int64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [flag_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                ["__k__", "__n__"]
            ]
            .sum()
            .reset_index()
        )
        k = agg["__k__"].to_numpy(np.int64)
        n = agg["__n__"].to_numpy(np.int64)
        kf = k.astype(np.float64)
        nf = n.astype(np.float64)
        zf = np.float64(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = kf / nf
            d = 1.0 + (zf * zf) / nf
            center = (p + (zf * zf) / (2.0 * nf)) / d
            half = zf * np.sqrt(
                p * (1.0 - p) / nf + (zf * zf) / (4.0 * nf * nf)
            ) / d
            lo = center - half
            hi = center + half
        out = agg[gcols].copy()
        out["k"] = k
        out["n"] = n
        out["rate"] = p
        out["ci_lo"] = lo
        out["ci_hi"] = hi
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def state_ngram_counts(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    state_col: str,
    k: int = 3,
    state_cols: list[str] | None = None,
    cnt_col: str = "cnt",
    num_partitions: int | None = None,
):
    """k-step sequential-pattern counts: for each group's state sequence
    (ordered by ``order_cols``), count every window of k CONSECUTIVE
    states, summed across all groups — the order-k generalization of
    :func:`transition_counts` (k=2 is exactly that op). SQL equivalent is
    a chain of k-1 ``lead()`` windows followed by a GROUP BY over the k
    state columns, dropping rows where any LEAD is NULL (which removes
    both end-of-sequence windows and windows whose later states are null
    — SQL cannot tell the two apart, so neither do we; a null FIRST state
    is a legal window head, mirroring transition_counts).

    Motion identical to transition_counts: ONE skinny hash exchange
    (group + order + state) co-locates each sequence; inside a partition
    a single stable sort + k-1 vectorized ``shift(-i)`` calls form every
    window for ALL groups at once (a reverse-cumcount guard masks windows
    that would cross a group boundary); per-partition window counts fold
    through a second, tiny exchange (≤ #states^k rows per partition).

    The session-mining workhorse (frequent path / clickstream trigram
    extraction, bot-loop detection beyond first-order Markov)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    if k < 2:
        raise ValueError("state_ngram_counts requires k >= 2")
    gcols = list(group_cols)
    ocols = list(order_cols)
    scols = (
        list(state_cols) if state_cols is not None
        else [f"s{i + 1}" for i in range(k)]
    )
    if len(scols) != k:
        raise ValueError("state_cols must have exactly k names")
    cols = gcols + ocols + [state_col]

    def windows(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        # rows whose window of k would run past the end of their group
        tail = grp.cumcount(ascending=False).to_numpy() < (k - 1)
        parts = {scols[0]: pdf[state_col]}
        keep = ~tail
        for i in range(1, k):
            s = pdf[state_col].shift(-i)
            parts[scols[i]] = s
            # SQL's WHERE lead_i IS NOT NULL: drops null later states
            keep &= s.notna().to_numpy()
        out = (
            pd.DataFrame(parts)[keep]
            .groupby(scols, sort=False, dropna=False, observed=True)
            .size()
            .rename(cnt_col)
            .reset_index()
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    local = partitioned_groupby_map(
        ds.select_columns(cols), gcols, windows,
        num_partitions=num_partitions,
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(scols, sort=False, dropna=False, observed=True)[
                cnt_col
            ]
            .sum()
            .reset_index()
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    return partitioned_groupby_map(local, scols, fold)


def _presum_src(ds, gcols, order_col, value_col):
    """Shared per-block combiner for the pairwise-sweep family
    (:func:`mann_kendall`, :func:`theil_sen`): sum ``value_col`` per
    (group, order) INSIDE each block before the hash exchange, so only
    the coarse-grain partial rows move. Values become exact int64."""
    cols = gcols + [order_col, value_col]
    keys = gcols + [order_col]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in keys}
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf[pdf[value_col].notna()]
        agg = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)[
                value_col
            ]
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c])
            for c in keys
        }
        arrs[value_col] = pa.array(
            agg[value_col].to_numpy(np.int64), pa.int64()
        )
        return pa.table(arrs)

    return ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )


def _group_pairs(pdf, gcols, order_col, value_col, pre_sum,
                 max_group_rows, opname):
    """Prepare the all-(i<j)-pairs view of a co-located partition for the
    pairwise-sweep family: sort by (group, order), finish any cross-block
    partial sums at the order grain, then materialize every within-group
    index pair at once by offset arithmetic (repeat/cumsum — vectorized
    across ALL groups, no per-group Python). Returns
    ``(pdf, ids, n_groups, starts, left, right)`` or ``None`` when the
    partition holds no qualifying pair."""
    pdf = pdf[pdf[value_col].notna()]
    if not len(pdf):
        return None
    if pre_sum:
        pdf = (
            pdf.groupby(gcols + [order_col], sort=False, dropna=False,
                        observed=True)[value_col]
            .sum()
            .reset_index()
        )
    pdf = pdf.sort_values(
        gcols + [order_col], kind="stable", ignore_index=True
    )
    ids = (
        pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        .ngroup()
        .to_numpy()
    )
    n = len(pdf)
    n_groups = int(ids[-1]) + 1
    sizes = np.bincount(ids, minlength=n_groups)
    if sizes.max() > max_group_rows:
        raise ValueError(
            f"{opname}: a group has {int(sizes.max())} rows "
            f"(> max_group_rows={max_group_rows}); the pair sweep is "
            "O(n²) per group — aggregate to a coarser order grain "
            "(pre_sum=True over e.g. days) or raise max_group_rows"
        )
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    local = np.arange(n) - starts[ids]
    reps = sizes[ids] - local - 1
    total = int(reps.sum())
    if total == 0:
        return None
    left = np.repeat(np.arange(n), reps)
    cum = np.concatenate(([0], np.cumsum(reps)[:-1]))
    right = np.arange(total) - np.repeat(cum, reps) + left + 1
    return pdf, ids, n_groups, starts, left, right


def mann_kendall(
    ds,
    group_cols: list[str],
    order_col: str,
    value_col: str,
    s_col: str = "s",
    pairs_col: str = "n_pairs",
    pre_sum: bool = False,
    num_partitions: int | None = None,
    max_group_rows: int = 100_000,
):
    """Per-group Mann–Kendall trend statistic — the nonparametric
    monotone-trend test used for drift detection on entity time series.
    For each group, over its (order, value) points,

        S = Σ_{i<j, o_j > o_i} sign(v_j − v_i)

    plus ``n_pairs`` (the number of strictly-order-increasing pairs).
    With INTEGER values every comparison is exact, so S is bit-equal to
    the SQL self-join oracle::

        SELECT g, SUM(CASE WHEN b.v > a.v THEN 1
                           WHEN b.v < a.v THEN -1 ELSE 0 END) AS s,
               count(*) AS n_pairs
        FROM d a JOIN d b ON a.g = b.g AND b.o > a.o GROUP BY g

    (groups with no qualifying pair emit no row, mirroring the empty
    join). Same-order pairs contribute to neither S nor n_pairs.

    Motion: with ``pre_sum=True`` a per-block combiner first sums values
    per (group, order) — fusing the usual "aggregate to daily grain"
    step into the exchange so only partial rows move; then ONE hash
    exchange on the group key co-locates each series and the pair sweep
    runs VECTORIZED ACROSS ALL GROUPS in the partition: all i<j index
    pairs are materialized at once by offset arithmetic
    (repeat/cumsum — no per-group Python), sign sums fold per group via
    bincount. Pair count is O(Σ n_g²), so the order grain must be
    bounded (that is the point of ``pre_sum``); a group exceeding
    ``max_group_rows`` raises with guidance rather than silently
    quadrupling task memory at scale."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    src = (
        _presum_src(ds, gcols, order_col, value_col)
        if pre_sum
        else ds.select_columns(gcols + [order_col, value_col])
    )

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                **{c: pdf[c].iloc[:0] for c in gcols},
                s_col: pd.Series(dtype=np.int64),
                pairs_col: pd.Series(dtype=np.int64),
            }
        )
        got = _group_pairs(pdf, gcols, order_col, value_col, pre_sum,
                           max_group_rows, "mann_kendall")
        if got is None:
            return empty
        pdf, ids, n_groups, starts, left, right = got
        v = pdf[value_col].to_numpy()
        o = pdf[order_col].to_numpy()
        strict = (o[right] != o[left]).astype(np.int64)
        sgn = np.sign(v[right] - v[left]).astype(np.int64) * strict
        gp = ids[left]
        # |S| ≤ n² << 2^53 — float bincount accumulation is exact
        s = np.bincount(gp, weights=sgn, minlength=n_groups)
        np_pairs = np.bincount(gp, weights=strict, minlength=n_groups)
        keep = np_pairs > 0
        out = pdf.iloc[starts[keep]][gcols].reset_index(drop=True)
        out[s_col] = s[keep].astype(np.int64)
        out[pairs_col] = np_pairs[keep].astype(np.int64)
        return out

    return partitioned_groupby_map(
        src, gcols, sweep, num_partitions=num_partitions
    )


def theil_sen(
    ds,
    group_cols: list[str],
    order_col: str,
    value_col: str,
    slope_col: str = "theil_sen",
    pairs_col: str = "n_pairs",
    pre_sum: bool = False,
    num_partitions: int | None = None,
    max_group_rows: int = 100_000,
):
    """Per-group Theil–Sen slope — the robust (median-of-pairwise-slopes)
    trend estimator that pairs with :func:`mann_kendall`'s significance
    statistic. For each group, over its (order, value) points,

        theil_sen = lower median of { (v_j − v_i) / (o_j − o_i) : o_j > o_i }

    plus ``n_pairs``. The LOWER median is the ``quantile_disc(0.5)``
    order statistic ``sorted[ceil(n/2) − 1]`` — an actual slope element,
    never an interpolation, so with INTEGER orders/values the result is
    bit-equal to the SQL self-join oracle::

        WITH s AS (SELECT a.g,
                          CAST(b.v - a.v AS DOUBLE) /
                          CAST(b.o - a.o AS DOUBLE) AS slope
                   FROM d a JOIN d b ON a.g = b.g AND b.o > a.o)
        SELECT g, quantile_disc(slope, 0.5) AS theil_sen,
               count(*) AS n_pairs FROM s GROUP BY g

    (each slope is ONE division of exact int64 differences → the same
    double in both engines; selecting an order statistic from identical
    multisets is order-free, unlike ``median``'s interpolated midpoint
    which drifts at the ulp under DuckDB's FMA). Groups with no
    order-increasing pair emit no row, mirroring the empty join.

    Motion is identical to :func:`mann_kendall`: optional per-block
    (group, order) pre-sum combiner, ONE hash exchange on the group key,
    then a pair sweep vectorized across all groups in the partition
    (offset arithmetic + one lexsort; per-group medians picked by offset
    indexing, no per-group Python). Same O(Σ n_g²) bound and
    ``max_group_rows`` guard — coarsen the order grain via ``pre_sum``
    at scale."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    src = (
        _presum_src(ds, gcols, order_col, value_col)
        if pre_sum
        else ds.select_columns(gcols + [order_col, value_col])
    )

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                **{c: pdf[c].iloc[:0] for c in gcols},
                slope_col: pd.Series(dtype=np.float64),
                pairs_col: pd.Series(dtype=np.int64),
            }
        )
        got = _group_pairs(pdf, gcols, order_col, value_col, pre_sum,
                           max_group_rows, "theil_sen")
        if got is None:
            return empty
        pdf, ids, n_groups, starts, left, right = got
        v = pdf[value_col].to_numpy()
        o = pdf[order_col].to_numpy()
        # slope only exists for strictly order-increasing pairs (the sort
        # guarantees o[right] >= o[left]; equal-order pairs are dropped)
        mask = o[right] != o[left]
        lft, rgt = left[mask], right[mask]
        if not len(lft):
            return empty
        # int64 differences are exact; ONE float64 division per pair —
        # the identical double the SQL oracle computes
        slope = (v[rgt] - v[lft]).astype(np.float64) / (
            o[rgt] - o[lft]
        ).astype(np.float64)
        gp = ids[lft]
        order = np.lexsort((slope, gp))
        gp_s = gp[order]
        slope_s = slope[order]
        cnt = np.bincount(gp_s, minlength=n_groups)
        keep = cnt > 0
        gstart = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        # lower median = sorted[ceil(n/2) - 1] = sorted[(n-1)//2]
        med_idx = gstart[keep] + (cnt[keep] - 1) // 2
        out = pdf.iloc[starts[keep]][gcols].reset_index(drop=True)
        out[slope_col] = slope_s[med_idx]
        out[pairs_col] = cnt[keep].astype(np.int64)
        return out

    return partitioned_groupby_map(
        src, gcols, sweep, num_partitions=num_partitions
    )


def cumulative_distinct(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    out_col: str = "n_distinct",
    num_partitions: int | None = None,
):
    """Running COUNT(DISTINCT value) per group in event order — the
    "novelty rate" feature (how much of an entity's behavior is new at
    each point in time): feature stores use it for exploration scoring,
    curation for detecting bot loops (novelty flatlines). SQL equivalent:

        count(DISTINCT v) OVER (PARTITION BY g ORDER BY o...
                                ROWS UNBOUNDED PRECEDING)

    Null values never increment the count (SQL COUNT ignores NULL); rows
    with null values still emit, carrying the count to date. Output is
    group + order cols + ``out_col`` (int64) — exact integers, hash-safe.

    Motion: ONE skinny exchange (group, order, value) on the group key
    co-locates each entity's history; inside a partition a single stable
    sort + vectorized first-seen flag (`~duplicated` over group+value,
    a pandas C kernel across ALL groups at once) + grouped cumsum stamps
    every row. Zero temporal leakage by construction — row t counts only
    rows ordered ≤ t. The order tie-break must be unique per row (pass an
    id column last) for a deterministic stamp."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [value_col]

    def stamp(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        first = (
            ~pdf.duplicated(subset=gcols + [value_col], keep="first")
        ) & pdf[value_col].notna().to_numpy()
        pdf[out_col] = (
            pd.Series(first.astype(np.int64))
            .groupby(
                [pdf[c] for c in gcols], sort=False, dropna=False,
            )
            .cumsum()
        )
        return pdf.drop(columns=[value_col])

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, stamp,
        num_partitions=num_partitions,
    )


def grouped_auc(
    ds,
    group_cols: list[str],
    score_col: str,
    label_col: str,
    out_col: str = "auc",
    npos_col: str = "n_pos",
    nneg_col: str = "n_neg",
    num_partitions: int | None = None,
):
    """ROC-AUC per group, exact, via the Mann-Whitney pair count with the
    standard tie correction: AUC = [#(s⁺>s⁻) + ½·#(s⁺=s⁻)] / (n⁺·n⁻).
    The model-eval workhorse (per-segment AUC for monitoring, per-slice
    fairness audits) computed without materializing scores on the driver.

    Exactness contract: everything up to the last step is INTEGER — per
    (group, score) positive/negative counts, an exclusive running negative
    count, and the doubled numerator Σ pos·(2·cumneg + neg_ties); the
    single division (2·num)/(2·n⁺·n⁻) is then the same IEEE op in any
    engine, so results are bit-equal to a SQL oracle stating the same
    counts (counts stay exact while rows-per-group < 2⁵³ᐟ²).

    Null scores / null labels are excluded (SQL WHERE); groups lacking
    either class emit no row (AUC undefined). Output: group cols +
    [out_col float64, n_pos, n_neg int64].

    Motion: per-block vectorized (group, score)→(pos, neg) counts shrink
    the payload, ONE hash exchange on the group key, and a vectorized
    finish (one sort + grouped cumsums across ALL groups per partition).
    The corpus never shuffles; the exchange carries distinct-score summary
    rows only."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    keys = gcols + [score_col]
    cols = keys + [label_col]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in keys}
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf[pdf[score_col].notna() & pdf[label_col].notna()]
        lab = pdf[label_col].astype(bool)
        agg = (
            pdf.assign(__pos__=lab.astype(np.int64))
            .groupby(keys, sort=False, dropna=False, observed=True)
            .agg(pos=("__pos__", "sum"), cnt=("__pos__", "size"))
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in keys
        }
        arrs["pos"] = pa.array(agg["pos"].to_numpy(np.int64), pa.int64())
        arrs["neg"] = pa.array(
            (agg["cnt"] - agg["pos"]).to_numpy(np.int64), pa.int64()
        )
        return pa.table(arrs)

    parts = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)[
                ["pos", "neg"]
            ]
            .sum()
            .reset_index()
            .sort_values(keys, kind="stable", ignore_index=True)
        )
        g = agg.groupby(gcols, sort=False, dropna=False, observed=True)
        cumneg = g["neg"].cumsum() - agg["neg"]  # exclusive: strictly-below
        agg["__num2__"] = agg["pos"] * (2 * cumneg + agg["neg"])
        tot = g.agg(
            num2=("__num2__", "sum"), np_=("pos", "sum"), nn=("neg", "sum")
        ).reset_index()
        tot = tot[(tot["np_"] > 0) & (tot["nn"] > 0)]
        out = tot[gcols].copy()
        # integer doubled denominator FIRST (exact in int64), then ONE
        # int→float conversion + ONE division — the same two IEEE ops a
        # SQL engine performs on CAST(num2 AS DOUBLE)/CAST(2*np*nn AS
        # DOUBLE), so the quotient is bit-equal across engines
        den2 = (2 * tot["np_"] * tot["nn"]).to_numpy(np.int64)
        out[out_col] = tot["num2"].to_numpy(np.float64) / den2.astype(
            np.float64
        )
        out[npos_col] = tot["np_"].to_numpy(np.int64)
        out[nneg_col] = tot["nn"].to_numpy(np.int64)
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def decayed_sum(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    horizon: int = 4,
    decay: float = 0.5,
    out_col: str = "decayed",
    normalize: bool = True,
    num_partitions: int | None = None,
):
    """Horizon-capped exponentially-decayed feature — the third classic
    temporal weighting next to lag (StepLag) and rolling windows: at each
    row, ``Σ_{k=0..horizon-1} decay^k · value_{i-k}`` over the entity's
    own history (zero temporal leakage), optionally normalized by the sum
    of PRESENT weights (rows near a sequence start average over fewer
    terms instead of shrinking toward 0). Capping the horizon is what
    feature stores do in practice, and it makes the float contract exact:
    the result is the STATED left-associated expression

        ((v + c1·lag1) + c2·lag2) + ...        c_k = decay^k

    evaluated term-for-term — an engine computing the same tree on the
    same doubles is bit-equal (with ``decay=0.5`` the c_k are exact
    binary, so the SQL literals 0.5/0.25/... reproduce them exactly; for
    other decays state the oracle constants as the same repeated-product
    doubles). Missing lags (sequence starts) contribute 0 to the sum and
    drop their weight from the normalizer — SQL ``coalesce(lag_k, 0)``.
    Null VALUES inside the horizon also contribute 0 (and no weight).

    Motion: ONE skinny exchange (group + order + value) on the group
    key; per partition one stable sort, then ``horizon-1`` vectorized
    shifted adds across ALL groups (group boundaries masked by cumcount)
    — no per-group Python, no second exchange."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [value_col]
    h = int(horizon)
    if h < 1:
        raise ValueError(f"horizon must be ≥ 1, got {horizon}")
    a = float(decay)

    def stamp(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        x = pdf[value_col].to_numpy(np.float64)
        pos = (
            pdf.groupby(gcols, sort=False, dropna=False)
            .cumcount()
            .to_numpy()
        )
        present = ~np.isnan(x)
        x0 = np.where(present, x, 0.0)
        acc = x0.copy()
        den = present.astype(np.float64)
        c = 1.0
        for k in range(1, h):
            c = c * a  # repeated product — the oracle states the same
            xk = np.empty_like(x0)
            xk[:k] = 0.0
            xk[k:] = x0[:-k]
            pk = np.zeros_like(den)
            pk[k:] = present[:-k]
            valid = pos >= k  # stay inside the entity's own history
            acc = acc + np.where(valid, c * xk, 0.0)
            den = den + np.where(valid, c * pk, 0.0)
        if normalize:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = acc / den
            out = np.where(den == 0.0, np.nan, out)
        else:
            out = acc
        pdf = pdf.drop(columns=[value_col])
        pdf[out_col] = out
        return pdf

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, stamp,
        num_partitions=num_partitions,
    )

def grouped_first_last(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    first_col: str | None = None,
    last_col: str | None = None,
    num_partitions: int | None = None,
):
    """First and last value of ``value_col`` per group under the
    ``order_cols`` ordering — the entity-snapshot features (first touch /
    latest state) SQL states as ``first(v ORDER BY o...)`` /
    ``last(v ORDER BY o...)``. Exact row selection, no float arithmetic.

    Motion: combiner-first — each block sorts ONCE and emits per group
    only its head row's (order, value) and its tail row's (order, value)
    (groupby head/tail C kernels across all groups); ONE exchange moves
    those single summary rows and the finish repeats the same
    min-order/max-order fold — first/last are associative under the total
    order, so the result is partition- and layout-invariant and the
    corpus never shuffles. ``order_cols`` should be unique per group
    (pass an id column last) for a deterministic answer."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    first_col = first_col or f"first_{value_col}"
    last_col = last_col or f"last_{value_col}"
    cols = gcols + ocols + [value_col]
    fo = [f"__fo_{c}__" for c in ocols]
    lo = [f"__lo_{c}__" for c in ocols]

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas().sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        g = pdf.groupby(gcols, sort=False, dropna=False)
        head = g.head(1).rename(
            columns=dict(zip(ocols, fo)) | {value_col: first_col}
        )
        tail = g.tail(1).rename(
            columns=dict(zip(ocols, lo)) | {value_col: last_col}
        )
        out = head.merge(tail, on=gcols, sort=False)
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        f = (
            pdf.sort_values(gcols + fo, kind="stable", ignore_index=True)
            .groupby(gcols, sort=False, dropna=False)
            .head(1)[gcols + [first_col]]
        )
        l_ = (
            pdf.sort_values(gcols + lo, kind="stable", ignore_index=True)
            .groupby(gcols, sort=False, dropna=False)
            .tail(1)[gcols + [last_col]]
        )
        return f.merge(l_, on=gcols, sort=False)

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_weighted_stats(
    ds,
    group_cols: list[str],
    value_col: str,
    weight_col: str,
    wsum_col: str = "sum_w",
    wmean_col: str = "wmean",
    wvar_col: str = "wvar",
    num_partitions: int | None = None,
):
    """Weighted mean + (population) weighted variance per group —
    sample-weight aggregation for importance-weighted features (e.g.
    quantity-weighted price, duration-weighted score). SQL has no
    weighted-variance builtin, so the contract is the stated closed form::

        wmean = Σwx / Σw
        wvar  = (Σwx² − (Σwx)²/Σw) / Σw

    Rows where EITHER value or weight is null are excluded (pairwise
    semantics, mirroring ``corr``). Zero-total-weight groups emit NULL
    for both (SQL ``x/0.0``). Output: group cols + Σw (int64 — feed an
    integer weight), wmean, wvar.

    Exactness contract: feed INTEGER-valued value and weight columns
    (keep Σwx² under 2^53) so every Σ is exact in float64 and order-free;
    the finish then runs the stated tree on identical doubles in both
    engines — bit-exact.

    Motion: identical to :func:`grouped_corr` — per-block vectorized
    sufficient-stats partial (Σw, Σwx, Σwx² via one groupby-sum C
    kernel), ONE exchange of partial rows, vectorized finish."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    stat_cols = ["__sw__", "__swx__", "__swxx__"]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [value_col, weight_col]).to_pandas()
        pdf = pdf[pdf[value_col].notna() & pdf[weight_col].notna()]
        xv = pdf[value_col].to_numpy(np.float64)
        wv = pdf[weight_col].to_numpy(np.float64)
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__sw__"] = wv
        stats["__swx__"] = wv * xv
        stats["__swxx__"] = wv * xv * xv
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        for c in stat_cols:
            arrs[c] = pa.array(agg[c].to_numpy(np.float64), pa.float64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [value_col, weight_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                stat_cols
            ]
            .sum()
            .reset_index()
        )
        sw = agg["__sw__"].to_numpy(np.float64)
        swx = agg["__swx__"].to_numpy(np.float64)
        swxx = agg["__swxx__"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            wmean = swx / sw
            wvar = (swxx - swx * swx / sw) / sw
        wmean[sw == 0.0] = np.nan  # SQL x/0.0 → NULL
        wvar[sw == 0.0] = np.nan
        out = agg[gcols].copy()
        out[wsum_col] = sw.astype(np.int64)
        out[wmean_col] = wmean
        out[wvar_col] = wvar
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_zscore(
    ds,
    group_cols: list[str],
    value_col: str,
    out_col: str = "zscore",
    driver_cap: int = 5_000_000,
):
    """Per-group standardization: ``z = (x − mean_g) / stddev_pop_g``
    stamped on every row — the grouped twin of StepScale for entity-level
    normalization (per-user, per-source, …).

    Exactness contract (the grouped_corr lesson): callers should feed an
    INTEGER-valued column (e.g. cents) so the per-group Σx and Σx² are
    exact in float64 and summation order cannot matter; the finish then
    evaluates the stated tree ``(x − s/n) / sqrt((s2 − s·s/n)/n)`` on
    identical doubles in both engines — bit-exact. A zero-variance group
    yields NULL (SQL x/0.0 semantics), not ±inf.

    Distributed shape: one sufficient-stats combiner pass (one partial
    row per (group, block) moves), driver folds ≤ ``driver_cap`` groups,
    stats broadcast once via ``ray.put``, then a stateless vectorized
    stamp — ZERO payload shuffle. Above the cap, pre-partition by group
    and use a co-partitioned variant instead (raise is explicit)."""
    import ray

    gcols = list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(gcols + [value_col]).to_pandas()
        pdf = pdf[pdf[value_col].notna()]
        xv = pdf[value_col].to_numpy(np.float64)
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__n__"] = np.int64(1)
        stats["__s__"] = xv
        stats["__s2__"] = xv * xv
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = (
        ds.select_columns(gcols + [value_col])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    agg = (
        parts.groupby(gcols, sort=False, dropna=False, observed=True)[
            ["__n__", "__s__", "__s2__"]
        ]
        .sum()
        .reset_index()
    )
    if len(agg) > driver_cap:
        raise ValueError(
            f"{len(agg)} groups exceeds driver_cap={driver_cap}; "
            "co-partition by group instead of the broadcast stamp"
        )
    n = agg["__n__"].to_numpy(np.int64).astype(np.float64)
    s = agg["__s__"].to_numpy(np.float64)
    s2 = agg["__s2__"].to_numpy(np.float64)
    mean = s / n
    with np.errstate(invalid="ignore"):
        std = np.sqrt((s2 - s * s / n) / n)
    key = (
        agg[gcols[0]]
        if len(gcols) == 1
        else pd.MultiIndex.from_frame(agg[gcols])
    )
    stats_ref = ray.put(
        (pd.Series(mean, index=key), pd.Series(std, index=key))
    )

    def stamp(tbl: pa.Table) -> pa.Table:
        mean_s, std_s = ray.get(stats_ref)
        pdf = tbl.select(gcols).to_pandas()
        k = (
            pdf[gcols[0]]
            if len(gcols) == 1
            else pd.MultiIndex.from_frame(pdf[gcols])
        )
        m = k.map(mean_s).to_numpy(np.float64)
        sd = k.map(std_s).to_numpy(np.float64)
        x = tbl.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - m) / sd
        z[sd == 0.0] = np.nan  # SQL x/0.0 → NULL
        return tbl.append_column(out_col, pa.array(z, pa.float64()))

    return ds.map_batches(stamp, batch_format="pyarrow")


def cooccurrence_counts(
    ds,
    group_col: str,
    item_col: str,
    a_col: str = "item_a",
    b_col: str = "item_b",
    cnt_col: str = "cnt",
    max_items: int = 10_000,
    num_partitions: int | None = None,
):
    """Market-basket co-occurrence: for every unordered pair of DISTINCT
    items appearing in the same group, the number of groups containing
    both. SQL equivalent: distinct (group, item) self-joined on the
    group with ``a.item < b.item``, then GROUP BY pair. Null items are
    excluded. Output: item_a, item_b (item_a < item_b), cnt (int64) —
    exact integers, hash-safe.

    Motion: per-block distinct-(group,item) dedupe (drop_duplicates C
    kernel) → ONE skinny exchange on the group key → per-partition
    self-merge on the group forms every pair for all of its groups at
    once (vectorized; k items in a group emit k² candidates filtered to
    k·(k−1)/2) → a second, tiny pair-count exchange folds counts.
    Groups with more than ``max_items`` distinct items raise — a k²
    blow-up on a hot group should be an explicit modeling decision
    (bucket or cap the item vocabulary first), not a silent OOM."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def distinct_pairs(tbl: pa.Table) -> pa.Table:
        gt = tbl.schema.field(group_col).type
        it = tbl.schema.field(item_col).type
        pdf = tbl.select([group_col, item_col]).to_pandas()
        pdf = pdf[pdf[item_col].notna() & pdf[group_col].notna()]
        pdf = pdf.drop_duplicates([group_col, item_col])
        return pa.table({
            group_col: pa.Array.from_pandas(pdf[group_col], type=gt),
            item_col: pa.Array.from_pandas(pdf[item_col], type=it),
        })

    skinny = ds.select_columns([group_col, item_col]).map_batches(
        distinct_pairs, batch_format="pyarrow"
    )

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates([group_col, item_col])
        sizes = pdf.groupby(group_col, sort=False, observed=True)[
            item_col
        ].size()
        if (sizes > max_items).any():
            hot = sizes.idxmax()
            raise ValueError(
                f"group {hot!r} has {sizes.max()} distinct items > "
                f"max_items={max_items}; cap the item vocabulary first"
            )
        m = pdf.merge(pdf, on=group_col, suffixes=("_a", "_b"))
        m = m[m[f"{item_col}_a"] < m[f"{item_col}_b"]]
        out = (
            m.groupby([f"{item_col}_a", f"{item_col}_b"], sort=False,
                      observed=True)
            .size()
            .rename(cnt_col)
            .reset_index()
        )
        out.columns = [a_col, b_col, cnt_col]
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    local = partitioned_groupby_map(
        skinny, [group_col], pairs, num_partitions=num_partitions
    )

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby([a_col, b_col], sort=False, observed=True)[
                cnt_col
            ]
            .sum()
            .reset_index()
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    return partitioned_groupby_map(local, [a_col, b_col], fold)


def association_rules(
    ds,
    group_col: str,
    item_col: str,
    min_pair_count: int = 1,
    max_items: int = 10_000,
    driver_cap: int = 5_000_000,
    num_partitions: int | None = None,
):
    """Directed market-basket association rules over distinct
    (basket, item) pairs — for every ordered item pair (ante → cons)
    co-occurring in ≥ ``min_pair_count`` baskets:

        n_both      baskets containing both (exact)
        n_ante/cons baskets containing each item (exact)
        support     = n_both / N                 (N = distinct baskets)
        confidence  = n_both / n_ante
        lift        = (n_both · N) / (n_ante · n_cons)

    Every ratio is ONE double division of exactly-representable integer
    products (counts ≤ N, products ≪ 2^53), so values are bit-equal to
    the SQL self-join oracle under any partitioning.

    Motion: pair counts ride :func:`cooccurrence_counts` (distinct-pair
    dedupe, one skinny exchange, vectorized self-merge); per-item basket
    counts and the basket total fold through the same exchange to the
    driver (≤ ``driver_cap`` items of skinny int state — items are
    already bounded by the pair output's k² construction); the metric
    stamp is a broadcast map over the pair dataset, two directed rows
    per unordered pair."""
    import ray
    import ray.data as rd

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    pairs = cooccurrence_counts(
        ds, group_col, item_col, max_items=max_items,
        num_partitions=num_partitions,
    )

    def gi_partial(tbl: pa.Table) -> pa.Table:
        gt = tbl.schema.field(group_col).type
        it = tbl.schema.field(item_col).type
        pdf = tbl.select([group_col, item_col]).to_pandas()
        pdf = pdf[pdf[item_col].notna() & pdf[group_col].notna()]
        pdf = pdf.drop_duplicates([group_col, item_col])
        return pa.table({
            group_col: pa.Array.from_pandas(pdf[group_col], type=gt),
            item_col: pa.Array.from_pandas(pdf[item_col], type=it),
        })

    gi = ds.select_columns([group_col, item_col]).map_batches(
        gi_partial, batch_format="pyarrow"
    )

    # a basket lives in exactly ONE partition of the group-key exchange,
    # so per-partition distinct counts sum exactly. The partition's basket
    # count rides on its first item row (every basket here has an item),
    # so no sentinel row has to fit a null into the item column's type.
    def count_part(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates([group_col, item_col])
        per_item = (
            pdf.groupby(item_col, sort=False, observed=True)[group_col]
            .size()
            .reset_index(name="n_item")
        )
        per_item["n_item"] = per_item["n_item"].astype(np.int64)
        nb = np.zeros(len(per_item), dtype=np.int64)
        nb[:1] = pdf[group_col].nunique()
        per_item["nb"] = nb
        return per_item

    cdf = partitioned_groupby_map(
        gi, [group_col], count_part, num_partitions=num_partitions
    ).to_pandas()
    if not len(cdf) or item_col not in cdf.columns:
        return rd.from_pandas(pd.DataFrame({
            "ante": pd.Series(dtype=object),
            "cons": pd.Series(dtype=object),
            "n_both": pd.Series(dtype=np.int64),
            "n_ante": pd.Series(dtype=np.int64),
            "n_cons": pd.Series(dtype=np.int64),
            "support": pd.Series(dtype=np.float64),
            "confidence": pd.Series(dtype=np.float64),
            "lift": pd.Series(dtype=np.float64),
        }))
    n_baskets = int(cdf["nb"].sum())
    items = cdf.groupby(item_col, sort=False, observed=True)["n_item"].sum()
    if len(items) > driver_cap:
        raise ValueError(
            f"{len(items)} items exceeds driver_cap={driver_cap}; join "
            "the item counts co-partitioned instead of broadcasting"
        )
    ref = ray.put((items, n_baskets))

    def stamp(tbl: pa.Table) -> pa.Table:
        ic, nb = ray.get(ref)
        it = tbl.schema.field("item_a").type
        a = tbl.column("item_a").to_numpy(zero_copy_only=False)
        b = tbl.column("item_b").to_numpy(zero_copy_only=False)
        cnt = tbl.column("cnt").to_numpy(zero_copy_only=False)
        keep = cnt >= min_pair_count
        a, b, cnt = a[keep], b[keep], cnt[keep]
        ante = np.concatenate([a, b])
        cons = np.concatenate([b, a])
        n_both = np.concatenate([cnt, cnt]).astype(np.int64)
        n_ante = ic.loc[ante].to_numpy(np.int64)
        n_cons = ic.loc[cons].to_numpy(np.int64)
        support = n_both.astype(np.float64) / np.float64(nb)
        confidence = n_both.astype(np.float64) / n_ante.astype(np.float64)
        lift = (n_both * nb).astype(np.float64) / (
            n_ante * n_cons
        ).astype(np.float64)
        return pa.table({
            "ante": pa.array(ante, type=it),
            "cons": pa.array(cons, type=it),
            "n_both": pa.array(n_both, pa.int64()),
            "n_ante": pa.array(n_ante, pa.int64()),
            "n_cons": pa.array(n_cons, pa.int64()),
            "support": pa.array(support, pa.float64()),
            "confidence": pa.array(confidence, pa.float64()),
            "lift": pa.array(lift, pa.float64()),
        })

    return pairs.map_batches(stamp, batch_format="pyarrow")


def state_run_stats(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    state_col: str,
    num_partitions: int | None = None,
):
    """Gaps-and-islands run-length features: for each group's state
    sequence (ordered by ``order_cols``), the number of maximal runs of
    consecutive identical states, the longest run length, and the total
    event count. The behavioral-quality workhorse for transcripts and
    event logs — bot loops and stuck agents show up as one long run;
    healthy dialogues alternate (many short runs).

    SQL equivalent: ``lag(state)`` change flags → windowed prefix-sum run
    ids → COUNT per run → per-group COUNT/MAX/SUM (the classic
    gaps-and-islands reduction). Run identity follows ``IS DISTINCT
    FROM`` semantics — two NULL states are the SAME run (pd.factorize's
    shared -1 NaN code reproduces this exactly).

    Motion: ONE skinny hash exchange on the group key (payload = group +
    order + state only), then a single vectorized pass per partition:
    one stable sort, per-column factorized change flags, run starts via
    flatnonzero, and a pandas groupby over run-start rows (C kernels,
    never per-group Python). Output is final per partition — groups are
    co-located, so no second fold is needed. All outputs int64-exact.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols, ocols = list(group_cols), list(order_cols)
    cols = gcols + ocols + [state_col]

    def runs(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        n = len(pdf)
        if n == 0:
            out = pd.DataFrame({c: pdf[c] for c in gcols})
            for c in ("n_runs", "max_run_len", "n_events"):
                out[c] = pd.Series(dtype=np.int64)
            return out
        brk = np.zeros(n, dtype=bool)
        brk[0] = True
        # a run breaks when ANY group column changes or the state becomes
        # IS DISTINCT FROM the previous one (factorize: equal values share
        # a code, all NaNs share -1 — two NULLs are NOT distinct)
        for c in gcols + [state_col]:
            codes, _ = pd.factorize(pdf[c], use_na_sentinel=True)
            brk[1:] |= codes[1:] != codes[:-1]
        starts = np.flatnonzero(brk)
        run_len = np.diff(np.r_[starts, n]).astype(np.int64)
        rdf = pdf.iloc[starts][gcols].copy()
        rdf["__rl__"] = run_len
        agg = (
            rdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                "__rl__"
            ]
            .agg(n_runs="size", max_run_len="max", n_events="sum")
            .reset_index()
        )
        for c in ("n_runs", "max_run_len", "n_events"):
            agg[c] = agg[c].astype(np.int64)
        return agg

    skinny = ds.select_columns(cols)
    return partitioned_groupby_map(skinny, gcols, runs, num_partitions)


def grouped_minmax(
    ds,
    group_cols: list[str],
    value_col: str,
    out_col: str = "minmax",
    driver_cap: int = 5_000_000,
):
    """Per-group min-max normalization: ``(x − min_g) / (max_g − min_g)``
    stamped on every row — the grouped twin of MinMaxScaler for
    entity-level feature ranges (per-user, per-source, …).

    Exactness contract (the grouped_zscore lesson): feed an INTEGER
    column (e.g. cents) so min/max and both subtraction operands are
    exact in float64; the single IEEE division is then bit-equal to the
    SQL ``CAST(x − mn AS DOUBLE) / CAST(mx − mn AS DOUBLE)``. A
    constant group (max = min) yields NULL (SQL x/0.0 semantics).

    Distributed shape: one min/max combiner pass (one partial row per
    (group, block)), driver folds ≤ ``driver_cap`` groups, bounds
    broadcast once via ``ray.put``, then a stateless vectorized stamp —
    ZERO payload shuffle."""
    import ray

    gcols = list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(gcols + [value_col]).to_pandas()
        pdf = pdf[pdf[value_col].notna()]
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                value_col
            ]
            .agg(__mn__="min", __mx__="max")
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = (
        ds.select_columns(gcols + [value_col])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    agg = (
        parts.groupby(gcols, sort=False, dropna=False, observed=True)
        .agg(__mn__=("__mn__", "min"), __mx__=("__mx__", "max"))
        .reset_index()
    )
    if len(agg) > driver_cap:
        raise ValueError(
            f"{len(agg)} groups exceeds driver_cap={driver_cap}; "
            "co-partition by group instead of the broadcast stamp"
        )
    key = (
        agg[gcols[0]]
        if len(gcols) == 1
        else pd.MultiIndex.from_frame(agg[gcols])
    )
    mn = agg["__mn__"].to_numpy(np.float64)
    mx = agg["__mx__"].to_numpy(np.float64)
    stats_ref = ray.put((pd.Series(mn, index=key), pd.Series(mx, index=key)))

    def stamp(tbl: pa.Table) -> pa.Table:
        mn_s, mx_s = ray.get(stats_ref)
        pdf = tbl.select(gcols).to_pandas()
        k = (
            pdf[gcols[0]]
            if len(gcols) == 1
            else pd.MultiIndex.from_frame(pdf[gcols])
        )
        lo = k.map(mn_s).to_numpy(np.float64)
        hi = k.map(mx_s).to_numpy(np.float64)
        x = tbl.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        den = hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - lo) / den
        z[den == 0.0] = np.nan  # SQL x/0.0 → NULL
        return tbl.append_column(out_col, pa.array(z, pa.float64()))

    return ds.map_batches(stamp, batch_format="pyarrow")


def grouped_gini(
    ds,
    group_cols: list[str],
    value_col: str,
    out_col: str = "gini",
    num_partitions: int | None = None,
):
    """Per-group Gini inequality coefficient over a NON-NEGATIVE
    integer-valued column (e.g. spend cents):

        G = 2·Σᵢ i·x₍ᵢ₎ / (n·Σx) − (n+1)/n      (x sorted asc, i = 1..n)

    Exactness contract: with integer inputs every Σ is exact, so both
    engines evaluate the identical closed form on identical doubles —
    ``(2.0·ixi) / double(n·sx) − double(n+1)/double(n)`` term for term,
    bit-equal to the SQL ``row_number`` restatement. The rank sum is
    computed WITHOUT any payload sort: ties make Σ i·x₍ᵢ₎ reducible to
    value counts — for each distinct value v with count c and preceding
    cumulative count F, the tie block contributes v·(c·F + c(c+1)/2).

    Distributed shape: the shared (group, value) counts combiner shrinks
    blocks to partial rows, ONE skinny exchange on the group key, then a
    vectorized finish (grouped cumsum + segment sums — pandas C kernels).
    Null values are dropped; an all-null group emits no row; ``n·Σx = 0``
    yields NULL (SQL x/0.0). Overflow bound: n·Σx and Σ i·x must stay
    < 2⁶³ (int64 accumulation) — at larger per-group mass, rescale units.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    parts = _counts_partial(ds, gcols, value_col)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = (
            pdf.groupby(gcols + [value_col], sort=False, dropna=False,
                        observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        tot = tot.sort_values(
            gcols + [value_col], kind="stable", ignore_index=True
        )
        c = tot["cnt"].to_numpy(np.int64)
        v = tot[value_col].to_numpy(np.int64)
        # preceding cumulative count within group (ranks below the tie)
        prev = (
            tot.groupby(gcols, sort=False, dropna=False, observed=True)[
                "cnt"
            ]
            .cumsum()
            .to_numpy(np.int64)
            - c
        )
        tot["__ixi__"] = v * (c * prev + c * (c + 1) // 2)
        tot["__sx__"] = v * c
        agg = (
            tot.groupby(gcols, sort=False, dropna=False, observed=True)[
                ["__ixi__", "__sx__", "cnt"]
            ]
            .sum()
            .reset_index()
        )
        ixi = agg["__ixi__"].to_numpy(np.int64)
        sx = agg["__sx__"].to_numpy(np.int64)
        n = agg["cnt"].to_numpy(np.int64)
        den = (n * sx).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            gini = (2.0 * ixi.astype(np.float64)) / den - (
                (n + 1).astype(np.float64) / n.astype(np.float64)
            )
        gini[den == 0.0] = np.nan  # SQL x/0.0 → NULL
        out = agg[gcols].copy()
        out[out_col] = gini
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_bitops(
    ds,
    group_cols: list[str],
    value_col: str,
    num_partitions: int | None = None,
):
    """Per-group bitwise AND / OR / XOR of an int64 column (SQL
    ``bit_and`` / ``bit_or`` / ``bit_xor``) — feature-mask folding for
    bitset-encoded attributes (capability flags, bloom fragments).

    All three folds are associative AND commutative, so the per-block
    partial (pandas ``groupby.agg`` with numpy's C ufunc reductions via
    ``np.bitwise_*.reduce``) composes exactly under any block layout —
    integer ops, no float anywhere. One skinny exchange of partial rows.
    The grouped folds run as ONE ``np.bitwise_*.reduceat`` C call per
    partition over group-sorted values — never a per-group Python call.
    Null values are ignored (SQL aggregate semantics); an all-null group
    emits no row (the combiner drops nulls before folding)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)

    def fold(pdf: pd.DataFrame, bcols) -> pd.DataFrame:
        # group-sort once, then each fold is a single segmented C kernel
        pdf = pdf.sort_values(gcols, kind="stable", ignore_index=True)
        keys = pdf[gcols]
        if len(gcols) == 1:
            kv = keys[gcols[0]].to_numpy()
            change = kv[1:] != kv[:-1]
        else:
            change = (
                keys.iloc[1:].to_numpy() != keys.iloc[:-1].to_numpy()
            ).any(axis=1)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        out = keys.iloc[starts].reset_index(drop=True)
        for src, dst, ufunc in bcols:
            v = pdf[src].to_numpy(np.int64)
            out[dst] = ufunc.reduceat(v, starts).astype(np.int64)
        return out

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(gcols + [value_col]).to_pandas()
        pdf = pdf[pdf[value_col].notna()]
        if len(pdf) == 0:
            empty = {c: pdf[c] for c in gcols}
            for c in ("band", "bor", "bxor"):
                empty[c] = pd.Series([], dtype=np.int64)
            return pa.Table.from_pandas(
                pd.DataFrame(empty), preserve_index=False
            )
        agg = fold(
            pdf,
            [
                (value_col, "band", np.bitwise_and),
                (value_col, "bor", np.bitwise_or),
                (value_col, "bxor", np.bitwise_xor),
            ],
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = ds.select_columns(gcols + [value_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pdf
        return fold(
            pdf,
            [
                ("band", "band", np.bitwise_and),
                ("bor", "bor", np.bitwise_or),
                ("bxor", "bxor", np.bitwise_xor),
            ],
        )

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def two_proportion_ztest(
    ds,
    group_cols: list[str],
    variant_col: str,
    success_col: str,
    num_partitions: int | None = None,
):
    """Pooled two-proportion z-test per group — the conversion-rate A/B
    companion to :func:`grouped_welch_ttest` (means) and grouped_auc
    (ranks). ``variant_col`` must be 0/1 (control/treatment),
    ``success_col`` 0/1.

        p̂ᵥ = xᵥ/nᵥ,  p̂ = (x₀+x₁)/(n₀+n₁)
        z = (p̂₁ − p̂₀) / sqrt(p̂·(1−p̂)·(1/n₁ + 1/n₀))

    Everything upstream of the closed form is exact integer counting
    (x's and n's), so both engines evaluate the identical expression tree
    on identical doubles — bit-equal to the SQL restatement. Groups
    missing a variant, or with a degenerate pooled rate (p̂ ∈ {0, 1} ⇒
    zero denominator), emit NULL z (SQL x/0.0). Output per group:
    (n0, x0, n1, x1 : int64, z : float64).

    Distributed shape: one 4-counter combiner pass, ONE skinny exchange
    on the group key, vectorized finish."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [variant_col, success_col]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf[pdf[variant_col].notna() & pdf[success_col].notna()]
        v = pdf[variant_col].to_numpy(np.int64)
        s = pdf[success_col].to_numpy(np.int64)
        if not ((v == 0) | (v == 1)).all():
            raise ValueError(f"{variant_col} must be 0/1")
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["n0"] = 1 - v
        stats["x0"] = (1 - v) * s
        stats["n1"] = v
        stats["x1"] = v * s
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c])
            for c in gcols
        }
        for c in ("n0", "x0", "n1", "x1"):
            arrs[c] = pa.array(agg[c].to_numpy(np.int64), pa.int64())
        return pa.table(arrs)

    parts = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pdf.copy()
            out["z"] = pd.Series([], dtype=np.float64)
            return out
        agg = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                ["n0", "x0", "n1", "x1"]
            ]
            .sum()
            .reset_index()
        )
        n0 = agg["n0"].to_numpy(np.int64)
        x0 = agg["x0"].to_numpy(np.int64)
        n1 = agg["n1"].to_numpy(np.int64)
        x1 = agg["x1"].to_numpy(np.int64)
        n0f = n0.astype(np.float64)
        n1f = n1.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            p1 = x1.astype(np.float64) / n1f
            p0 = x0.astype(np.float64) / n0f
            pool = (x0 + x1).astype(np.float64) / (n0 + n1).astype(
                np.float64
            )
            den = np.sqrt(pool * (1.0 - pool) * (1.0 / n1f + 1.0 / n0f))
            z = (p1 - p0) / den
        z[~np.isfinite(z)] = np.nan  # missing variant / degenerate p̂
        out = agg.copy()
        for c in ("n0", "x0", "n1", "x1"):
            out[c] = out[c].astype(np.int64)
        out["z"] = z
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_weighted_median(
    ds,
    group_cols: list[str],
    value_col: str,
    weight_col: str,
    out_col: str = "wmedian",
    num_partitions: int | None = None,
):
    """Per-group weighted median — the smallest value v whose cumulative
    weight (ascending by value) satisfies ``2·cumw(v) ≥ totw``. A pure
    SELECTION: no float arithmetic anywhere, so results are exact for any
    engine (SQL restatement: windowed cumsum + ``min(v) FILTER``).

    Distributed shape: a per-block (group, value) weight-sum combiner
    shrinks blocks to partial rows, ONE skinny exchange on the group key,
    then a vectorized finish (grouped cumsum + keep-first — pandas C
    kernels). Weights must be non-negative integers; null values or
    weights are dropped. Overflow bound: per-group Σw < 2⁶³."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    keys = gcols + [value_col]

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in keys}
        pdf = tbl.select(keys + [weight_col]).to_pandas()
        pdf = pdf[pdf[value_col].notna() & pdf[weight_col].notna()]
        pdf["__w__"] = pdf[weight_col].astype(np.int64)
        agg = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)[
                "__w__"
            ]
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c])
            for c in keys
        }
        arrs["__w__"] = pa.array(agg["__w__"].to_numpy(np.int64),
                                 pa.int64())
        return pa.table(arrs)

    parts = ds.select_columns(keys + [weight_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pdf[gcols].copy()
            out[out_col] = pdf[value_col]
            return out
        tot = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)[
                "__w__"
            ]
            .sum()
            .reset_index()
        )
        tot = tot.sort_values(keys, kind="stable", ignore_index=True)
        g = tot.groupby(gcols, sort=False, dropna=False, observed=True)
        cum = g["__w__"].cumsum().to_numpy(np.int64)
        total = g["__w__"].transform("sum").to_numpy(np.int64)
        hit = 2 * cum >= total
        out = tot.loc[hit].drop_duplicates(subset=gcols, keep="first")
        out = out[gcols + [value_col]].rename(
            columns={value_col: out_col}
        )
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_welch_ttest(
    ds,
    group_cols: list[str],
    value_col: str,
    side_col: str,
    side_a,
    side_b,
    num_partitions: int | None = None,
):
    """Per-group Welch two-sample t statistic between the ``side_a`` and
    ``side_b`` populations of ``value_col`` — the unequal-variance A/B
    comparison (treatment-vs-control per segment, drift-vs-baseline per
    entity) that never assumes pooled variance.

    Combiner shape (the :func:`grouped_corr` plan): each block emits one
    exact integer sufficient-statistic row ``(n, Σx, Σx²)`` per
    (group, side) — values are cast to int64, so sums are EXACT and
    order-free — then ONE tiny partial-row exchange totals per group and
    the vectorized finish evaluates, term-for-term with the SQL oracle::

        mean  = Σx/n                    var = (Σx² − (Σx·Σx)/n)/(n−1)
        t     = (mean_a − mean_b) / sqrt(var_a/n_a + var_b/n_b)
        df    = (var_a/n_a + var_b/n_b)²
                / ((var_a/n_a)²/(n_a−1) + (var_b/n_b)²/(n_b−1))

    (squares written as products — no pow, matching SQL ``x*x``). The
    int64 products stay exact below 2⁶³ and convert to float64 with the
    same rounding as SQL's BIGINT→DOUBLE cast, so for Σx·Σx < 2⁶³ the
    statistic is bit-equal across engines. Groups missing either side or
    with n < 2 on a side are dropped (SQL HAVING). Null values are
    ignored; rows whose side is neither a nor b are ignored.

    Output per group: group_cols + [n_a, n_b, t_welch, df_welch].
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    sides = {side_a: "a", side_b: "b"}

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in gcols}
        pdf = tbl.select(gcols + [side_col, value_col]).to_pandas()
        pdf = pdf[pdf[side_col].isin(sides) & pdf[value_col].notna()]
        v = pdf[value_col].to_numpy(np.float64).astype(np.int64)
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__side__"] = pdf[side_col].map(sides).to_numpy(object)
        stats["__n__"] = np.int64(1)
        stats["__sx__"] = v
        stats["__sx2__"] = v * v
        agg = (
            stats.groupby(gcols + ["__side__"], sort=False, dropna=False,
                          observed=True)
            .sum()
            .reset_index()
        )
        arrs: dict = {
            c: pa.Array.from_pandas(agg[c], type=key_types[c]) for c in gcols
        }
        arrs["__side__"] = pa.array(
            agg["__side__"].to_numpy(object), pa.string()
        )
        for c in ("__n__", "__sx__", "__sx2__"):
            arrs[c] = pa.array(agg[c].to_numpy(np.int64), pa.int64())
        return pa.table(arrs)

    parts = ds.select_columns(gcols + [side_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(gcols + ["__side__"], sort=False, dropna=False,
                        observed=True)[["__n__", "__sx__", "__sx2__"]]
            .sum()
            .reset_index()
        )
        wide = agg.pivot_table(
            index=gcols, columns="__side__",
            values=["__n__", "__sx__", "__sx2__"], aggfunc="sum",
        )
        need = [("__n__", "a"), ("__n__", "b"), ("__sx__", "a"),
                ("__sx__", "b"), ("__sx2__", "a"), ("__sx2__", "b")]
        for c in need:
            if c not in wide.columns:
                wide[c] = np.nan
        wide = wide[need].dropna()
        if not len(wide):
            out = pd.DataFrame(columns=gcols + ["n_a", "n_b", "t_welch",
                                                "df_welch"])
            return out.astype({"n_a": np.int64, "n_b": np.int64,
                               "t_welch": np.float64,
                               "df_welch": np.float64})
        na = wide[("__n__", "a")].to_numpy(np.int64)
        nb = wide[("__n__", "b")].to_numpy(np.int64)
        ok = (na >= 2) & (nb >= 2)
        wide = wide[ok]
        na, nb = na[ok], nb[ok]
        sxa = wide[("__sx__", "a")].to_numpy(np.int64)
        sxb = wide[("__sx__", "b")].to_numpy(np.int64)
        s2a = wide[("__sx2__", "a")].to_numpy(np.int64)
        s2b = wide[("__sx2__", "b")].to_numpy(np.int64)
        naf, nbf = na.astype(np.float64), nb.astype(np.float64)
        mean_a = sxa.astype(np.float64) / naf
        mean_b = sxb.astype(np.float64) / nbf
        # (Σx·Σx) as an exact int64 product, THEN the BIGINT→DOUBLE cast
        var_a = (s2a.astype(np.float64)
                 - (sxa * sxa).astype(np.float64) / naf) / (naf - 1.0)
        var_b = (s2b.astype(np.float64)
                 - (sxb * sxb).astype(np.float64) / nbf) / (nbf - 1.0)
        sea = var_a / naf
        seb = var_b / nbf
        se2 = sea + seb
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (mean_a - mean_b) / np.sqrt(se2)
            df = (se2 * se2) / (
                sea * sea / (naf - 1.0) + seb * seb / (nbf - 1.0)
            )
        out = wide.index.to_frame(index=False)
        out.columns = gcols
        out["n_a"] = na
        out["n_b"] = nb
        out["t_welch"] = t
        out["df_welch"] = df
        return out

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def expanding_mean_exclusive(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    id_cols: list[str],
    out_col: str = "prior_mean",
    num_partitions: int | None = None,
):
    """Leakage-FREE expanding mean: for each row, the mean of the group's
    STRICTLY PRIOR values in sequence order (SQL ``ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING``) — the classic time-safe target-encoding /
    prior-CTR feature. The first row of a group (and rows whose every
    prior value is null) gets NULL, exactly like SQL ``avg`` over an
    empty frame. StepHistorical's windows are INCLUSIVE (features at turn
    t use turns ≤ t); this is the ≤ t−1 variant used when ``value_col``
    IS the label.

    Determinism contract: integer values (cents / token counts) make the
    prefix sums exact and order-free, so the single final division is
    bit-equal to DuckDB's windowed ``avg`` (its segment-tree accumulation
    of integers is exact too). Null values are skipped (SQL AVG).

    Motion: ONE skinny exchange (group + order + id + value) on the
    group key; per partition one stable sort + two grouped cumsums
    (value and not-null count), both shifted to exclusive by subtracting
    the current row — pandas C kernels across all groups at once.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    icols = list(id_cols)
    cols = list(dict.fromkeys(gcols + ocols + icols + [value_col]))

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf[icols].copy()
            out[out_col] = pd.array([], dtype="Float64")
            return out
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        notna = pdf[value_col].notna().to_numpy()
        tmp = pd.DataFrame({
            "__v__": pdf[value_col].fillna(0).to_numpy(),
            "__c__": notna.astype(np.int64),
        })
        tmp[gcols] = pdf[gcols]
        g2 = tmp.groupby(gcols, sort=False, dropna=False, observed=True)
        incl_sum = g2["__v__"].cumsum().to_numpy()
        incl_cnt = g2["__c__"].cumsum().to_numpy()
        prior_sum = incl_sum - tmp["__v__"].to_numpy()
        prior_cnt = incl_cnt - tmp["__c__"].to_numpy()
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = prior_sum.astype(np.float64) / prior_cnt.astype(
                np.float64
            )
        out = pdf[icols].copy()
        out[out_col] = pd.arrays.FloatingArray(mean, prior_cnt == 0)
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )


def grouped_argmax(
    ds,
    group_cols: list[str],
    value_col: str,
    tie_cols: list[str],
    keep_cols: list[str] | None = None,
    num_partitions: int | None = None,
):
    """The full row achieving the group's MAXIMUM ``value_col``, ties
    broken by ascending ``tie_cols`` (SQL ``row_number() OVER (PARTITION
    BY g ORDER BY v DESC, tie ASC) = 1``) — "keep the best duplicate"
    curation (longest doc per key, highest-score candidate per query).

    Arg-max is ASSOCIATIVE, so the plan is a combiner: every block keeps
    only ITS best row per group (one vectorized sort +
    ``drop_duplicates`` per batch), the ≤ #groups-per-block survivors
    take ONE tiny exchange, and the finish repeats the same reduction.
    No payload shuffle of the full table, ever. Null values lose to any
    non-null (SQL ``ORDER BY v DESC NULLS LAST``); all-null groups are
    dropped (no arg exists).
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    tcols = list(tie_cols)
    kcols = (keep_cols if keep_cols is not None
             else [value_col] + tcols)
    out_cols = gcols + [c for c in kcols if c not in gcols]
    need = list(dict.fromkeys(gcols + [value_col] + tcols + kcols))

    def best(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf[value_col].notna()]
        if not len(pdf):
            return pdf[need].copy()
        pdf = pdf.sort_values(
            gcols + [value_col] + tcols, kind="stable",
            ascending=[True] * len(gcols) + [False] + [True] * len(tcols),
        )
        return pdf.drop_duplicates(subset=gcols, keep="first")[need]

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        return best(pdf)

    parts = (
        ds.select_columns(need)
        .map_batches(partial, batch_format="pandas")
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return best(pdf)[out_cols].reset_index(drop=True)

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def group_share(
    ds,
    group_cols: list[str],
    value_col: str,
    id_cols: list[str],
    out_col: str = "share",
    num_partitions: int | None = None,
):
    """Share-of-group feature: each row's value divided by its group's
    total (SQL ``v / sum(v) OVER (PARTITION BY g)``) — share-of-wallet,
    share-of-session, token share-of-document.

    Integer values keep the group sums exact and order-free, so the
    single IEEE division is bit-equal across engines (use cents/counts,
    not raw floats). Null values yield NULL shares and don't contribute
    to the total (SQL SUM); an all-zero group divides by zero → NULL
    (DuckDB ``x/0.0``).

    Motion: ONE skinny exchange (group + id + value) on the group key,
    then one grouped ``transform('sum')`` C kernel + one vectorized
    division per partition.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    icols = list(id_cols)
    cols = list(dict.fromkeys(gcols + icols + [value_col]))

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf[icols].copy()
            out[out_col] = pd.array([], dtype="Float64")
            return out
        tot = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                value_col
            ]
            .transform("sum")
            .to_numpy(np.float64)
        )
        v = pdf[value_col].to_numpy(np.float64)
        isnull = np.isnan(v) | (tot == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = v / tot
        out = pdf[icols].copy()
        out[out_col] = pd.arrays.FloatingArray(share, isnull)
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )


def group_seq_index(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    id_cols: list[str],
    out_col: str = "seq_idx",
    start: int = 1,
):
    """Deterministic within-group sequence index (SQL ``row_number() OVER
    (PARTITION BY g ORDER BY o)``) — turn-index reconstruction for
    transcripts whose ordering key is (ts, id) but whose stored index is
    missing or unreliable. ONE skinny exchange + one stable sort + one
    grouped ``cumcount`` C kernel; exact int64.

    Order values must be unique per group for a deterministic result
    (they are event keys throughout this repo).
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    icols = list(id_cols)
    cols = list(dict.fromkeys(gcols + ocols + icols))

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf[icols].copy()
            out[out_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        idx = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)
            .cumcount()
            .to_numpy(np.int64)
            + np.int64(start)
        )
        out = pdf[icols].copy()
        out[out_col] = idx
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
    )


def windowed_distinct(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    window: int,
    id_cols: list[str],
    out_col: str = "w_distinct",
    num_partitions: int | None = None,
):
    """Rolling novelty: per row, the number of DISTINCT values among the
    group's last ``window`` rows inclusive (SQL ``count(DISTINCT v) OVER
    (PARTITION BY g ORDER BY o ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW)``) — the windowed twin of :func:`cumulative_distinct`
    (bot-loop detection: novelty collapsing to 1-2 flags a stuck agent).

    O(n) per partition, no per-window scan: a row at in-group position p
    with the value's next occurrence at position nxt is "the counted
    occurrence" of its value exactly for window-end positions
    ``[p, min(p + window - 1, nxt - 1, group_end)]`` — one +1/−1
    difference array over those intervals, then a cumsum, answers every
    window at once (all grouped shifts and cumsums are pandas/numpy C
    kernels). Null values are skipped (SQL DISTINCT) but still occupy
    window positions (ROWS frame counts all rows). Exact int64.

    Motion: ONE skinny exchange (group + order + id + value) on the
    group key; same partitioning contract as every grouped kernel here.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    icols = list(id_cols)
    cols = list(dict.fromkeys(gcols + ocols + icols + [value_col]))
    W = int(window)

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf[icols].copy()
            out[out_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        n = len(pdf)
        idx = np.arange(n, dtype=np.int64)
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        # last global index of each row's group (contiguous after sort)
        gsize = grp[value_col].transform("size").to_numpy(np.int64)
        first = idx - grp.cumcount().to_numpy(np.int64)
        gend = first + gsize - 1
        # next occurrence of the same (group, value) — null values never
        # contribute an interval; grouped shift(-1) of the global index
        # within (group, value)
        notna = pdf[value_col].notna().to_numpy()
        nv = pd.DataFrame({"__i__": idx})
        nv[gcols] = pdf[gcols]
        nv["__v__"] = pdf[value_col]
        nxt_col = (
            nv[nv["__v__"].notna()]
            .groupby(gcols + ["__v__"], sort=False, observed=True)["__i__"]
            .shift(-1)
        )
        nxt_full = pd.Series(np.float64(np.inf), index=nv.index)
        nxt_full.loc[nxt_col.index] = nxt_col.fillna(np.inf)
        hi = np.minimum(idx + W - 1, gend).astype(np.float64)
        hi = np.minimum(hi, nxt_full.to_numpy() - 1.0)
        lo = idx
        valid = notna & (hi >= lo)
        hii = hi[valid].astype(np.int64)
        loi = lo[valid]
        diff = np.zeros(n + 1, dtype=np.int64)
        np.add.at(diff, loi, 1)
        np.add.at(diff, hii + 1, -1)
        counts = np.cumsum(diff[:-1])
        out = pdf[icols].copy()
        out[out_col] = counts.astype(np.int64)
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )


def rolling_corr(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    x: str,
    y: str,
    window: int,
    id_cols: list[str],
    out_col: str = "r_corr",
    num_partitions: int | None = None,
):
    """Rolling Pearson correlation of ``x`` vs ``y`` over each group's
    last ``window`` rows (trend/co-movement detection per entity). The
    windowed sufficient statistics (n, Σx, Σy, Σx², Σy², Σxy over
    pairwise-non-null rows) come from grouped prefix sums minus their
    ``shift(window)`` — O(n), no per-window scan — and the finish is
    :func:`grouped_corr`'s closed form term-for-term. INTEGER-valued
    inputs keep every windowed Σ exact, so the result is bit-equal to a
    SQL oracle stating windowed ``sum(...)`` + the same expression.

    Null handling: a row where either x or y is null contributes nothing
    to the sums but still occupies a frame position (SQL ``sum(CASE WHEN
    both NOT NULL THEN ...) OVER frame``). Windows with n < 2 or zero
    variance yield NULL (SQL x/0.0). Output: id_cols + [out_col].

    Motion: ONE skinny exchange on the group key; grouped cumsum/shift C
    kernels across all groups at once.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    icols = list(id_cols)
    cols = list(dict.fromkeys(gcols + ocols + icols + [x, y]))
    W = int(window)

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf[icols].copy()
            out[out_col] = pd.array([], dtype="Float64")
            return out
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        ok = (pdf[x].notna() & pdf[y].notna()).to_numpy()
        xv = np.where(ok, pdf[x].to_numpy(np.float64), 0.0)
        yv = np.where(ok, pdf[y].to_numpy(np.float64), 0.0)
        stats = pd.DataFrame({
            "__n__": ok.astype(np.int64),
            "__sx__": xv, "__sy__": yv,
            "__sxx__": xv * xv, "__syy__": yv * yv, "__sxy__": xv * yv,
        })
        stats[gcols] = pdf[gcols]
        g = stats.groupby(gcols, sort=False, dropna=False, observed=True)
        scols = ["__n__", "__sx__", "__sy__", "__sxx__", "__syy__",
                 "__sxy__"]
        cum = g[scols].cumsum()
        cum[gcols] = pdf[gcols]
        prev = (
            cum.groupby(gcols, sort=False, dropna=False,
                        observed=True)[scols]
            .shift(W)
            .fillna(0.0)
        )
        wins = {c: cum[c].to_numpy(np.float64)
                - prev[c].to_numpy(np.float64) for c in scols}
        n = wins["__n__"]
        sx, sy = wins["__sx__"], wins["__sy__"]
        sxx, syy, sxy = wins["__sxx__"], wins["__syy__"], wins["__sxy__"]
        with np.errstate(divide="ignore", invalid="ignore"):
            cov = (sxy - sx * sy / n) / (n - 1.0)
            varx = (sxx - sx * sx / n) / (n - 1.0)
            vary = (syy - sy * sy / n) / (n - 1.0)
            denom = np.sqrt(varx) * np.sqrt(vary)
            r = cov / denom
        bad = (n < 2) | (denom == 0.0) | ~np.isfinite(r)
        out = pdf[icols].copy()
        out[out_col] = pd.arrays.FloatingArray(r, bad)
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )
