"""Multi-level aggregation — SQL ``GROUP BY ROLLUP`` / ``GROUPING SETS``.

One scan computes additive aggregates (count, sums; avg is derivable) at
every requested grouping level. Distributed shape is the OLAP-cube
classic: a per-batch COMBINER pre-aggregates every grouping set locally,
so the exchange moves one partial row per (grouping set × key combo ×
block) — never data rows — and a hash-partitioned finish folds partials
(:func:`recipys_ray.ops.dedup.partitioned_groupby_map`). At 100 TB the
exchange volume is bounded by grouping-key cardinality, not corpus size.

SQL-compatible output: rolled-up key columns are NULL and ``gid`` carries
the ``GROUPING()`` bitmask (bit i set = i-th key rolled up, keys in the
order given, first key = most-significant bit), so genuinely-NULL key
values stay distinguishable from rolled-up ones — exactly DuckDB's
``CAST(grouping(k1, k2, ...) AS BIGINT)``.

Dtype discipline: partials and finish both rebuild Arrow tables with the
INPUT key types (an all-null emitted key column must never degrade to a
pandas object / Arrow null column — the round-3 dtype-poisoning lesson,
ROUND4_NOTES.md). Integer sums stay int64 end-to-end; float sums are
computed in float64 and are subject to the usual addition-order caveat.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa


def rollup_aggregate(
    ds,
    keys: Sequence[str],
    sum_cols: Sequence[str] = (),
    grouping_sets: Optional[Sequence[Sequence[str]]] = None,
    num_partitions: int | None = None,
):
    """Counts + sums for every grouping set (module docstring).

    ``grouping_sets=None`` means ROLLUP: every prefix of ``keys`` down to
    the grand total. Each set must be a subset of ``keys``. Returns a
    Dataset with columns ``gid`` (int64 GROUPING bitmask), ``keys...``
    (input types, NULL where rolled up), ``cnt`` (int64) and one
    ``sum_<col>`` per ``sum_cols``.
    """
    keys = list(keys)
    sum_cols = list(sum_cols)
    if set(keys) & set(sum_cols):
        raise ValueError("keys and sum_cols must be disjoint")
    if grouping_sets is None:
        grouping_sets = [keys[:i] for i in range(len(keys), -1, -1)]

    sets: list[tuple[int, list[str]]] = []
    for gs in grouping_sets:
        gs = list(gs)
        if set(gs) - set(keys):
            raise ValueError(f"grouping set {gs} not a subset of keys")
        gid = 0
        for i, k in enumerate(keys):
            if k not in gs:
                gid |= 1 << (len(keys) - 1 - i)
        sets.append((gid, gs))

    sum_names = [f"sum_{c}" for c in sum_cols]

    def _sum_array(vals: pd.Series, is_int: bool) -> pa.Array:
        # SQL SUM over an all-null group is NULL (pandas min_count=1 gives
        # NaN there) — carry it as a real Arrow null, never a 0 and never
        # NaN→int64 (undefined cast)
        mask = vals.isna().to_numpy()
        if is_int:
            if not mask.any():
                # null-free int sums → exact int64 end-to-end
                return pa.array(vals.to_numpy(np.int64), pa.int64())
            # int sums WITH nulls ride float64 (also covers pandas
            # nullable Int64 round-tripped by Arrow metadata) — exact
            # to 2^53
            v = vals.astype(np.float64).to_numpy(np.float64)
            return pa.array(
                np.where(mask, 0, v).astype(np.int64), pa.int64(), mask=mask
            )
        v = vals.astype(np.float64).to_numpy(np.float64)
        return pa.array(v, pa.float64(), mask=mask)

    def _emit(agg: pd.DataFrame, gid: int, gcols: list[str],
              key_types: dict, sum_int: dict) -> pa.Table:
        arrs: dict = {
            "gid": pa.array(np.full(len(agg), gid, np.int64))
        }
        for k in keys:
            if k in gcols:
                arrs[k] = pa.Array.from_pandas(agg[k], type=key_types[k])
            else:
                arrs[k] = pa.nulls(len(agg), key_types[k])
        arrs["cnt"] = pa.array(
            agg["cnt"].to_numpy(np.int64), pa.int64()
        )
        for c, sn in zip(sum_cols, sum_names):
            arrs[sn] = _sum_array(agg[sn], sum_int[c])
        return pa.table(arrs)

    def partial(tbl: pa.Table) -> pa.Table:
        # types from the ARROW batch schema (ds.schema() on pandas-backed
        # datasets reports Python classes, not pa.DataTypes); integer sum
        # columns accumulate exactly in int64, everything else in float64
        key_types = {k: tbl.schema.field(k).type for k in keys}
        sum_int = {
            c: pa.types.is_integer(tbl.schema.field(c).type)
            for c in sum_cols
        }
        pdf = tbl.select(keys + sum_cols).to_pandas()
        parts = []
        for gid, gcols in sets:
            if gcols:
                g = pdf.groupby(gcols, dropna=False, sort=False,
                                observed=True)
                agg = g.size().rename("cnt").to_frame()
                for c, sn in zip(sum_cols, sum_names):
                    # min_count=1: SQL SUM of an all-null group is NULL
                    agg[sn] = g[c].sum(min_count=1)
                agg = agg.reset_index()
            else:
                agg = pd.DataFrame({"cnt": [len(pdf)]})
                for c, sn in zip(sum_cols, sum_names):
                    agg[sn] = [pdf[c].sum(min_count=1)]
            parts.append(_emit(agg, gid, gcols, key_types, sum_int))
        return pa.concat_tables(parts)

    def finish(tbl: pa.Table) -> pa.Table:
        # partials carry the planned schema — reuse it verbatim
        key_types = {k: tbl.schema.field(k).type for k in keys}
        sum_int = {
            c: pa.types.is_integer(tbl.schema.field(sn).type)
            for c, sn in zip(sum_cols, sum_names)
        }
        pdf = tbl.to_pandas()
        g = pdf.groupby(["gid"] + keys, dropna=False, sort=False,
                        observed=True)
        # min_count=1 folds NULL partials SQL-style: ignored when any
        # partial has a value, NULL when all are (cnt is never null, ≥ 1
        # row per group)
        out = g[["cnt"] + sum_names].sum(min_count=1).reset_index()
        arrs: dict = {
            "gid": pa.array(out["gid"].to_numpy(np.int64))
        }
        for k in keys:
            arrs[k] = pa.Array.from_pandas(out[k], type=key_types[k])
        arrs["cnt"] = pa.array(out["cnt"].to_numpy(np.int64), pa.int64())
        for c, sn in zip(sum_cols, sum_names):
            arrs[sn] = _sum_array(out[sn], sum_int[c])
        return pa.table(arrs)

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=262_144
    )
    return partitioned_groupby_map(
        partials, ["gid"] + keys, finish, num_partitions,
        batch_format="pyarrow",
    )
