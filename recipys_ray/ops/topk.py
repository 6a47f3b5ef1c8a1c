"""Exact top-K rows per group — distributed selection with a combiner.

The workhorse for "keep the N best documents per domain / per language /
per source" curation passes. Exact by construction and shuffle-light:

1. **Combiner** — every read block keeps at most K rows per group it sees
   (vectorized ``groupby.cumcount`` after one sort), so the shuffle moves
   ≤ K rows per (group, block) instead of the full corpus. For selective
   K this collapses the exchange volume by orders of magnitude.
2. **Partition finish** — survivors hash-partition by group key
   (:func:`recipys_ray.ops.dedup.partitioned_groupby_map`); each partition
   holds every candidate of its groups and re-runs the identical
   sort + cumcount to pick the final top-K and stamp a 0-based ``rank``.

Determinism: ordering is (order_col desc|asc, then ``tie_cols`` asc) —
callers must pass tie columns that make rows unique (e.g. the id column),
otherwise ties at the K boundary are resolved arbitrarily.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa


def _pick(
    pdf: pd.DataFrame,
    group_cols: Sequence[str],
    order_col: str,
    k: int,
    descending: bool,
    tie_cols: Sequence[str],
    with_rank: bool = False,
) -> pd.DataFrame:
    by = [order_col] + list(tie_cols)
    asc = [not descending] + [True] * len(tie_cols)
    pdf = pdf.sort_values(by, ascending=asc, kind="stable",
                          ignore_index=True)
    pos = pdf.groupby(list(group_cols), sort=False, observed=True).cumcount()
    out = pdf.loc[pos < k]
    if with_rank:
        out = out.assign(rank=pos[pos < k].to_numpy(dtype=np.int64))
    return out


def top_k_per_group(
    ds,
    group_cols: list[str],
    order_col: str,
    k: int,
    descending: bool = True,
    tie_cols: Optional[list[str]] = None,
    num_partitions: int | None = None,
):
    """Exact per-group top-K (module docstring). Returns a Dataset with the
    surviving rows plus a 0-based int64 ``rank`` column per group."""
    tie_cols = list(tie_cols or [])

    def combine(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        out = _pick(pdf, group_cols, order_col, k, descending, tie_cols)
        return pa.Table.from_pandas(out, preserve_index=False)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return _pick(
            pdf, group_cols, order_col, k, descending, tie_cols,
            with_rank=True,
        )

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    partials = ds.map_batches(
        combine, batch_format="pyarrow", batch_size=262_144
    )
    return partitioned_groupby_map(
        partials, list(group_cols), finish, num_partitions
    )
