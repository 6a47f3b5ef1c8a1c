"""Distributed set operations between datasets: EXCEPT / INTERSECT
(SQL set semantics) and key-based table diffing (added/removed/changed
row detection) — the ETL regression-check primitives.

All three share one physical plan: tag each side Arrow-side (no null
padding — the round-3 dtype-poisoning lesson), union, and run ONE hash
exchange on the key columns so every occurrence of a key lands in the
same partition; the per-partition resolution is a vectorized pandas
merge across all keys at once. Nothing materializes on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_SIDE = "__side__"


def _tagged_union(left, right, cols: list[str]):
    """Project both sides to ``cols``, stamp an int8 side tag per batch
    (left=0, right=1), and union. The tag is appended while still Arrow
    so the union never pads columns with nulls (dtype-exact)."""

    def tag(side: int):
        def f(tbl: pa.Table) -> pa.Table:
            t = tbl.select(cols)
            return t.append_column(
                _SIDE, pa.array(np.full(len(t), side, np.int8))
            )

        return f

    l_ = left.map_batches(tag(0), batch_format="pyarrow")
    r_ = right.map_batches(tag(1), batch_format="pyarrow")
    return l_.union(r_)


def except_distinct(left, right, cols: list[str],
                    num_partitions: int | None = None):
    """SQL ``EXCEPT``: the DISTINCT rows of ``left[cols]`` that do not
    appear in ``right[cols]``. Set semantics throughout — duplicates
    collapse, and NULL keys compare EQUAL to NULL (SQL set operations
    group NULLs together, unlike join predicates; the pandas merge's
    NaN-matches-NaN behavior is exactly right here).

    Motion: one tagged union + ONE hash exchange on the full row; each
    partition resolves membership for all of its rows with two
    drop_duplicates and one indicator merge (C kernels)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    cols = list(cols)

    def resolve(pdf: pd.DataFrame) -> pd.DataFrame:
        l_ = pdf[pdf[_SIDE] == 0][cols].drop_duplicates()
        rk = pdf[pdf[_SIDE] == 1][cols].drop_duplicates()
        m = l_.merge(rk, on=cols, how="left", indicator=True)
        return m[m["_merge"] == "left_only"][cols]

    return partitioned_groupby_map(
        _tagged_union(left, right, cols), cols, resolve,
        num_partitions=num_partitions,
    )


def intersect_distinct(left, right, cols: list[str],
                       num_partitions: int | None = None):
    """SQL ``INTERSECT``: the DISTINCT rows present in BOTH
    ``left[cols]`` and ``right[cols]``. Same plan and NULL semantics as
    :func:`except_distinct`."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    cols = list(cols)

    def resolve(pdf: pd.DataFrame) -> pd.DataFrame:
        l_ = pdf[pdf[_SIDE] == 0][cols].drop_duplicates()
        rk = pdf[pdf[_SIDE] == 1][cols].drop_duplicates()
        return l_.merge(rk, on=cols, how="inner")

    return partitioned_groupby_map(
        _tagged_union(left, right, cols), cols, resolve,
        num_partitions=num_partitions,
    )


def table_diff(left, right, key_cols: list[str],
               compare_cols: list[str],
               status_col: str = "status",
               keep_same: bool = False,
               num_partitions: int | None = None):
    """Key-based diff of two snapshots: for every key, classify it as
    ``'removed'`` (key only in ``left``), ``'added'`` (key only in
    ``right``), ``'changed'`` (present in both but ANY compare column
    differs — NULL vs NULL counts as equal, SQL ``IS DISTINCT FROM``),
    or ``'same'`` (dropped unless ``keep_same``). The ETL regression
    check: diff yesterday's output against today's.

    Keys must be unique per side (a snapshot primary key); duplicate
    keys raise per partition rather than silently cross-joining. Output:
    key columns + ``status_col``.

    Motion: tagged union of the projected sides, ONE hash exchange on
    the key, one vectorized outer merge per partition."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    kcols = list(key_cols)
    ccols = list(compare_cols)
    cols = kcols + ccols

    def resolve(pdf: pd.DataFrame) -> pd.DataFrame:
        l_ = pdf[pdf[_SIDE] == 0][cols]
        r_ = pdf[pdf[_SIDE] == 1][cols]
        if l_.duplicated(kcols).any() or r_.duplicated(kcols).any():
            raise ValueError(
                "table_diff requires unique keys per side; "
                f"duplicate {kcols} found"
            )
        m = l_.merge(r_, on=kcols, how="outer", suffixes=("_l", "_r"),
                     indicator=True)
        changed = np.zeros(len(m), dtype=bool)
        for c in ccols:
            lv, rv = m[f"{c}_l"], m[f"{c}_r"]
            neq = (lv != rv).to_numpy()
            both_null = (lv.isna() & rv.isna()).to_numpy()
            changed |= neq & ~both_null
        status = np.where(
            m["_merge"] == "left_only", "removed",
            np.where(m["_merge"] == "right_only", "added",
                     np.where(changed, "changed", "same")),
        )
        out = m[kcols].copy()
        out[status_col] = status
        if not keep_same:
            out = out[out[status_col] != "same"]
        return out

    return partitioned_groupby_map(
        _tagged_union(left, right, cols), kcols, resolve,
        num_partitions=num_partitions,
    )
