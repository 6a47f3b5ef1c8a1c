"""Global rank stamping — the range-partitioned sort pattern.

``add_global_rank`` assigns every row its EXACT 0-based position in the
total order (order_col asc/desc, then ``tie_cols`` asc) without any
single task ever seeing the whole dataset:

1. **Boundary sample** — one skinny pass samples ``order_col`` per block;
   the driver picks P-1 range boundaries from the pooled sample.
2. **Range stamp + shuffle** — rows route to the range their value falls
   in (boundaries are only a LOAD-BALANCE heuristic: correctness never
   depends on them because ties and skew stay within one range by
   construction of ``searchsorted`` on the full sort key prefix).
3. **Local sort + offset prefix** — each partition sorts its rows and
   ranks locally; a skinny per-partition count pass gives the driver the
   range sizes, whose prefix sums are broadcast back and added to the
   local ranks. Exact total order, one payload shuffle, O(P) driver state.

This is the building block for percentile/CDF columns and deterministic
global curricula ("train on the easiest N% first").
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_RANGE = "__range__"


def add_global_rank(
    ds,
    order_col: str,
    tie_cols: Optional[list[str]] = None,
    descending: bool = False,
    num_partitions: int | None = None,
    sample_per_block: int = 256,
    rank_col: str = "rank",
    seed: int = 5,
    ntile: int | None = None,
    ntile_col: str = "bucket",
    keep_rank: bool = True,
):
    """Stamp the exact global 0-based ``rank_col`` (module docstring).
    ``tie_cols`` must make rows unique for a deterministic total order.
    Null ``order_col`` values rank AFTER all non-nulls (ascending) —
    matching SQL ``ORDER BY ... NULLS LAST``.

    ``ntile``: additionally stamp the SQL ``NTILE(ntile)`` bucket (1-based;
    the first ``n % ntile`` buckets hold ``ceil(n/ntile)`` rows) derived
    from the rank and the exact total count the offsets pass already
    produced — no extra pass. ``keep_rank=False`` drops the rank column
    (bucket-only output)."""
    tie_cols = list(tie_cols or [])
    from recipys_ray.kernels.grouped import (
        _lazy_size_bytes,
        choose_partitions,
        exchange,
        plan_exchange,
    )

    # three passes over ds (boundary sample, range counts, stamp+shuffle):
    # pin DERIVED inputs once so the upstream pipeline doesn't re-execute
    # per pass (pure reads re-read pruned parquet, cheaper than a spill
    # copy) — same multi-pass policy as kernels/salted.run_salted_chain
    if _lazy_size_bytes(ds) is None:
        ds = ds.materialize()
    if num_partitions is None:
        # the range shuffle moves full payload rows — size from the input
        num_partitions = choose_partitions(ds, hi=65_536)

    # ---- pass 1: boundary sample (skinny) ---------------------------- #
    def sample(tbl: pa.Table) -> pa.Table:
        v = tbl.column(order_col).to_numpy(zero_copy_only=False)
        v = v[~pd.isna(v)]
        if len(v) > sample_per_block:
            rng = np.random.default_rng(seed + len(v))
            v = rng.choice(v, size=sample_per_block, replace=False)
        return pa.table({"v": pa.array(v)})

    pool = (
        ds.select_columns([order_col])
        .map_batches(sample, batch_format="pyarrow")
        .to_pandas()["v"]
        .to_numpy()
    )
    if len(pool) == 0:
        bounds = np.array([])
    else:
        qs = np.linspace(0, 1, num_partitions + 1)[1:-1]
        bounds = np.unique(np.quantile(pool, qs))
    if descending:
        bounds = bounds[::-1]

    # ---- pass 2: range stamp ----------------------------------------- #
    def stamp(tbl: pa.Table) -> pa.Table:
        v = tbl.column(order_col).to_numpy(zero_copy_only=False)
        if len(bounds):
            if descending:
                r = len(bounds) - np.searchsorted(
                    bounds[::-1], v, side="left"
                )
            else:
                r = np.searchsorted(bounds, v, side="right")
        else:
            r = np.zeros(len(v), dtype=np.int64)
        # nulls rank last: route them to the final range
        r = np.where(pd.isna(v), len(bounds), r).astype(np.int32)
        return tbl.append_column(_RANGE, pa.array(r))

    # ---- pass 3a: per-range counts → prefix offsets ------------------- #
    # SKINNY pass: project the order column at the read and re-derive the
    # range id, instead of executing the full-row `stamped` map a second
    # time (the projection cannot be pushed through the stamp UDF, so
    # counting off `stamped` would drag every payload column through an
    # extra full pass — dead weight at scale).
    def count_stamp(tbl: pa.Table) -> pa.Table:
        r = (
            stamp(tbl)
            .column(_RANGE)
            .to_numpy(zero_copy_only=False)
        )
        vals, cnts = np.unique(r, return_counts=True)
        return pa.table(
            {_RANGE: pa.array(vals), "n": pa.array(cnts.astype(np.int64))}
        )

    counts = (
        ds.select_columns([order_col])
        .map_batches(count_stamp, batch_format="pyarrow")
        .to_pandas()
        .groupby(_RANGE)["n"]
        .sum()
        .sort_index()
    )
    offsets = counts.cumsum().shift(1).fillna(0).astype(np.int64).to_dict()
    n_total = int(counts.sum())

    # ---- pass 3b: local sort + offset --------------------------------- #
    sort_keys = [(order_col, "descending" if descending else "ascending")]
    sort_keys += [(c, "ascending") for c in tie_cols]

    def rank_partition(tbl: pa.Table) -> pa.Table:
        rid = int(tbl.column(_RANGE)[0].as_py())
        idx = pc.sort_indices(
            tbl,
            sort_keys=sort_keys,
            null_placement="at_end",
        )
        tbl = tbl.take(idx)
        base = offsets.get(rid, 0)
        ranks = np.arange(len(tbl), dtype=np.int64) + base
        tbl = tbl.drop_columns([_RANGE])
        if keep_rank:
            tbl = tbl.append_column(rank_col, pa.array(ranks))
        if ntile:
            size, rem = divmod(n_total, ntile)
            if size == 0:
                bucket = ranks + 1
            else:
                cut = rem * (size + 1)
                bucket = np.where(
                    ranks < cut,
                    ranks // (size + 1),
                    rem + (ranks - cut) // size,
                ) + 1
            tbl = tbl.append_column(ntile_col, pa.array(bucket))
        return tbl

    n_ranges = len(bounds) + 1
    plan = plan_exchange(ds, n_ranges)
    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )
    return exchange(stamped, _RANGE, rank_partition, n_ranges, plan.blocks)


def add_ntile(
    ds,
    order_col: str,
    k: int,
    tie_cols: Optional[list[str]] = None,
    descending: bool = False,
    bucket_col: str = "bucket",
    **kwargs,
):
    """SQL ``NTILE(k) OVER (ORDER BY order_col [DESC], tie_cols)`` — the
    1-based equi-height bucket id, exact at any scale (rides the global-rank
    machinery: one payload shuffle, O(P) driver state)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return add_global_rank(
        ds, order_col, tie_cols=tie_cols, descending=descending,
        ntile=k, ntile_col=bucket_col, keep_rank=False, **kwargs,
    )


def value_ranks(
    ds,
    col: str,
    dense_col: str = "dense_rank",
    pct_col: str = "pct_rank",
    driver_cap: int = 1_000_000,
):
    """Tie-aware ``DENSE_RANK()`` + ``PERCENT_RANK() OVER (ORDER BY col)``
    for a MODERATE-cardinality column, with NO payload shuffle:

    1. one skinny per-block value-count pass (only ``col`` leaves storage)
       folds to ≤ ``driver_cap`` distinct (value, count) rows on the driver;
    2. ascending prefix sums give each distinct value its min tie rank;
    3. a broadcast (``ray.put``) sorted-values array + ``searchsorted``
       stamp adds the two columns in one streaming pass — rows never move.

    ``percent_rank = (min_rank − 1) / (n − 1)`` — integer inputs into one
    IEEE division, evaluated identically by SQL engines, so the float
    column is bit-safe. Nulls rank AFTER all values (``NULLS LAST``): they
    share dense rank k+1 and min rank n_nonnull+1. n == 1 degenerates to
    ``pct = 0.0`` (SQL convention: 0/0 window defines percent_rank 0).

    High-cardinality columns (> driver_cap distinct values) should use
    :func:`add_global_rank` (range shuffle) instead — this op raises
    rather than silently degrade the driver."""
    import ray

    def block_counts(tbl: pa.Table) -> pa.Table:
        vc = tbl.column(col).value_counts()
        return pa.table({"v": vc.field("values"), "c": vc.field("counts")})

    counts = (
        ds.select_columns([col])
        .map_batches(block_counts, batch_format="pyarrow")
        .to_pandas()
    )
    null_mask = counts["v"].isna()
    n_null = int(counts.loc[null_mask, "c"].sum())
    merged = (
        counts[~null_mask].groupby("v", sort=True)["c"].sum().reset_index()
    )
    k = len(merged)
    if k > driver_cap:
        raise ValueError(
            f"value_ranks: {k} distinct values of {col!r} exceeds "
            f"driver_cap={driver_cap}; use add_global_rank for "
            "high-cardinality columns"
        )
    vals = merged["v"].to_numpy()
    cnts = merged["c"].to_numpy(np.int64)
    n_total = int(cnts.sum()) + n_null
    # min tie rank of the i-th distinct value = 1 + #rows with smaller value
    min_rank = np.concatenate(([0], np.cumsum(cnts)[:-1])) + 1
    denom = np.float64(n_total - 1) if n_total > 1 else np.float64(1.0)
    state_ref = ray.put((vals, min_rank.astype(np.int64), k, n_total))

    def stamp(tbl: pa.Table) -> pa.Table:
        svals, smin, sk, sn = ray.get(state_ref)
        x = tbl.column(col).to_numpy(zero_copy_only=False)
        isna = pd.isna(x)
        idx = np.searchsorted(svals, np.where(isna, svals[0] if sk else 0, x))
        dr = np.where(isna, sk + 1, idx + 1).astype(np.int64)
        mr = np.where(isna, (sn - n_null) + 1, smin[np.minimum(idx, sk - 1)]
                      if sk else 1).astype(np.int64)
        pr = (mr - 1).astype(np.float64) / denom
        return tbl.append_column(dense_col, pa.array(dr)).append_column(
            pct_col, pa.array(pr)
        )

    return ds.map_batches(stamp, batch_format="pyarrow")
