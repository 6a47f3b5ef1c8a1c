"""Reshape operators — pivot (long→wide), melt (wide→long), ordered
group-concat. The ETL trio every feature store / analytics pipeline needs
around the recipe engine.

- ``pivot``: ONE hash exchange on the index key; the (small) pivot-key
  universe is discovered in a skinny combiner pass and broadcast so every
  partition emits the identical column set. Per-partition aggregation is a
  single pandas groupby+unstack C kernel across all groups.
- ``melt``: stateless flat transform (map_batches, no shuffle) — each
  batch emits id columns × value columns rows.
- ``group_concat``: SQL ``string_agg(x, sep ORDER BY ...)`` per group:
  hash-partition by group, one stable partition sort, then an Arrow
  ``ListArray`` + ``binary_join`` — concatenation stays vectorized across
  ALL groups (never a per-group Python join).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _distinct_small(ds, col: str) -> list:
    """Distinct values of a LOW-cardinality column: per-block unique
    combiner, driver-side final unique — no shuffle, bounded by the
    (small) true cardinality × block count."""

    def uniq(tbl: pa.Table) -> pa.Table:
        return pa.table({col: tbl.column(col).unique()})

    vals = (
        ds.select_columns([col])
        .map_batches(uniq, batch_format="pyarrow")
        .to_pandas()[col]
        .dropna()
        .unique()
    )
    return sorted(vals.tolist())


def pivot(
    ds,
    index_cols,
    key_col: str,
    value_col: str,
    agg: str = "sum",
    keys: Optional[Sequence] = None,
    num_partitions: int | None = None,
):
    """Long→wide: one output row per distinct ``index_cols``, one column per
    distinct ``key_col`` value holding ``agg`` over ``value_col`` (SQL
    conditional aggregation: ``SUM(CASE WHEN key='a' THEN v END) AS a``).

    ``agg``: "count" (rows where the key matched and value is non-null —
    SQL ``COUNT(v)``; 0 when the combo is absent, int64), "sum" or "mean"
    (NULL when absent, float64). ``keys=None`` discovers the key universe
    with a skinny distinct pass (sorted); pass it explicitly when known to
    skip that pass. Null pivot keys are dropped (no NULL-named column);
    an index row whose keys are ALL null therefore drops out entirely —
    unlike SQL GROUP BY, which would keep it with empty aggregates."""
    if agg not in ("count", "sum", "mean"):
        raise ValueError(f"unsupported agg {agg!r}")
    index_cols = (
        [index_cols] if isinstance(index_cols, str) else list(index_cols)
    )
    if keys is None:
        keys = _distinct_small(ds, key_col)
    keys = [str(k) for k in keys]
    if len(keys) != len(set(keys)):
        raise ValueError("pivot keys must be unique as strings")
    collide = set(keys) & set(index_cols)
    if collide:
        raise ValueError(f"pivot keys collide with index columns: {collide}")

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    proj = ds.select_columns(index_cols + [key_col, value_col])

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf[key_col].notna()]  # null keys: no NULL-named column
        if len(pdf) == 0:
            out = pd.DataFrame(
                {c: pd.Series(dtype=d) for c, d in zip(
                    index_cols + keys,
                    [object] * len(index_cols)
                    + [np.int64 if agg == "count" else np.float64] * len(keys),
                )}
            )
            return out
        kf = pdf[key_col].astype(str)
        g = pdf.groupby(index_cols + [kf], sort=False, dropna=False)[
            value_col
        ]
        wide = (g.count() if agg == "count" else getattr(g, agg)()).unstack(
            level=-1
        )
        wide = wide.reindex(columns=keys)
        if agg == "count":
            wide = wide.fillna(0).astype(np.int64)
        else:
            wide = wide.astype(np.float64)
        return wide.reset_index()

    return partitioned_groupby_map(
        proj, index_cols, per_partition, num_partitions=num_partitions
    )


def melt(
    ds,
    id_cols,
    value_cols,
    var_name: str = "variable",
    value_name: str = "value",
    value_type: pa.DataType = None,
):
    """Wide→long (SQL UNPIVOT / stacked UNION ALL): every input row emits
    one output row per entry of ``value_cols``. Stateless flat transform —
    no shuffle, streams block by block. Values are cast to a common type
    (``value_type``, default float64); nulls are KEPT (one row per cell,
    like pandas.melt — filter downstream for UNPIVOT's null-dropping)."""
    id_cols = [id_cols] if isinstance(id_cols, str) else list(id_cols)
    value_cols = (
        [value_cols] if isinstance(value_cols, str) else list(value_cols)
    )
    vt = value_type or pa.float64()

    def fn(tbl: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            part = tbl.select(id_cols)
            part = part.append_column(
                var_name, pa.array(np.full(len(tbl), c, object))
            )
            part = part.append_column(value_name, tbl.column(c).cast(vt))
            parts.append(part)
        return pa.concat_tables(parts)

    return ds.select_columns(id_cols + value_cols).map_batches(
        fn, batch_format="pyarrow"
    )


def group_concat(
    ds,
    group_cols,
    sort_cols,
    value_col: str,
    sep: str = ",",
    out_col: str = "concat",
    num_partitions: int | None = None,
):
    """SQL ``string_agg(value, sep ORDER BY sort_cols)`` per group. One hash
    exchange of the skinny projection; per partition: one stable sort, then
    Arrow ``ListArray`` offsets + ``binary_join`` — vectorized across all
    groups. Null VALUES are skipped (SQL string_agg); a group whose values
    are all null still emits a row with NULL ``concat`` (SQL GROUP BY).
    ``sort_cols`` must totally order rows within a group for a
    deterministic concatenation."""
    group_cols = (
        [group_cols] if isinstance(group_cols, str) else list(group_cols)
    )
    sort_cols = [sort_cols] if isinstance(sort_cols, str) else list(sort_cols)

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    proj = ds.select_columns(group_cols + sort_cols + [value_col])

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pd.DataFrame(columns=group_cols + [out_col])
            return out.astype({out_col: object})
        pdf = pdf.sort_values(
            group_cols + sort_cols, kind="stable", ignore_index=True
        )
        # after the sort, first-appearance order == sorted order, so codes
        # are non-decreasing and bincount offsets are list offsets
        codes = (
            pdf.groupby(group_cols, sort=False, dropna=False)
            .ngroup()
            .to_numpy()
        )
        ngroups = int(codes[-1]) + 1
        firsts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        vals = pdf[value_col]
        notnull = vals.notna().to_numpy()
        per_group = np.bincount(codes[notnull], minlength=ngroups)
        # large_list offsets allow >2^31 rows per partition; the flat
        # STRING payload itself is capped at 2 GB of characters per
        # partition (Arrow binary_join has no large_string kernel) — size
        # num_partitions so a partition's concatenated text fits
        offsets = np.concatenate([[0], np.cumsum(per_group)]).astype(np.int64)
        flat = pa.array(vals.to_numpy()[notnull].astype(str), pa.string())
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()), flat
            ),
            sep,
        )
        out = pdf.iloc[firsts][group_cols].reset_index(drop=True)
        concat = joined.to_pandas()
        out[out_col] = concat.mask(per_group == 0)  # all-null group → NULL
        return out

    return partitioned_groupby_map(
        proj, group_cols, per_partition, num_partitions=num_partitions
    )
