"""One-pass dataset profiling — the ``describe()`` a user reaches for
before building a pipeline over new data.

``profile(ds)`` returns one row per column with row/null counts, moments,
min/max and (approximate above the exact-cardinality threshold) quantiles,
all from ONE streaming partial-aggregate pass (aggregates.column_stats: a
tiny partial per input block, merged on the driver — no shuffle, no
materialization). Non-numeric columns report dtype only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

from recipys_ray.aggregates import MINMAX, MOMENTS, QUANTILES, column_stats


def profile(
    ds,
    columns: Optional[list] = None,
    quantiles=(0.25, 0.5, 0.75),
) -> pd.DataFrame:
    """Per-column summary statistics in one streaming pass."""
    import pyarrow as pa

    schema = ds.schema()
    names = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    if columns is not None:
        names = [c for c in names if c in set(columns)]

    def _is_num(t) -> bool:
        try:
            return pa.types.is_integer(t) or pa.types.is_floating(t)
        except AttributeError:
            # pandas-block datasets expose numpy dtypes
            return np.issubdtype(t, np.number)

    numeric = [c for c in names if _is_num(types[c])]
    stats = column_stats(ds, numeric, {MOMENTS, MINMAX, QUANTILES})
    rows = []
    for c in names:
        rec = {"column": c, "dtype": str(types[c])}
        if c in stats:
            s = stats[c]
            rec.update(
                rows_total=s.total,
                nulls=s.n_null,
                mean=s.mean(),
                std=s.std(ddof=0),
                min=s.min,
                max=s.max,
            )
            for q in quantiles:
                rec[f"q{q}"] = (
                    float(np.asarray(s.quantile(q))[0]) if s.count else None
                )
        rows.append(rec)
    return pd.DataFrame(rows)


def benford_counts(
    ds,
    col: str,
    digit_col: str = "digit",
    cnt_col: str = "cnt",
):
    """Leading-decimal-digit distribution of a positive integer column —
    the Benford's-law data-quality probe (fabricated or unit-mangled
    numeric feeds skew the 1-9 digit histogram away from log10(1+1/d)).
    Nulls and non-positive values are dropped; output is
    ``(digit int64 ∈ 1..9, cnt int64)`` — exact integers, hash-safe.

    The leading digit is extracted arithmetically (≤ 19 vectorized
    integer halvings by 10), never via float log10 (off-by-one at exact
    powers of ten) or string formatting (locale-dependent). Motion: each
    block shrinks to ≤ 9 partial rows; ONE tiny exchange folds them —
    the column itself never shuffles (the histogram() pattern)."""
    import pyarrow as pa

    def partial(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.drop_null(tbl.column(col)).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        v = v[v > 0]
        while len(v) and v.max() >= 10:
            big = v >= 10
            v[big] //= 10
        cnt = np.bincount(v, minlength=10)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                digit_col: pa.array(nz.astype(np.int64)),
                cnt_col: pa.array(cnt[nz].astype(np.int64)),
            }
        )

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby(digit_col, sort=False)[cnt_col].sum().reset_index()
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    return partitioned_groupby_map(parts, [digit_col], finish)


def null_patterns(
    ds,
    cols: list[str],
    cnt_col: str = "n",
    num_partitions: int | None = None,
):
    """Missingness-pattern profile: one row per distinct null/not-null
    combination over ``cols`` with its row count — the fingerprint that
    tells an imputation plan whether nulls co-occur (sensor outage: whole
    rows) or scatter (independent drops). Output: one boolean column
    ``{col}_null`` per input column + ``cnt_col`` (int64), SQL ``GROUP BY
    (c1 IS NULL), (c2 IS NULL), ...`` shape.

    Motion: each block shrinks to ≤ 2^len(cols) partial rows via one
    vectorized groupby-size over the is-null mask frame; ONE tiny
    exchange on the pattern folds them. Exact integer counts.
    """
    if not cols:
        raise ValueError("cols must be non-empty")
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    flags = [f"{c}_null" for c in cols]

    def partial(tbl):
        import pyarrow as pa
        import pyarrow.compute as pc

        data = {
            f: pc.is_null(tbl.column(c)).to_numpy(zero_copy_only=False)
            for c, f in zip(cols, flags)
        }
        pdf = pd.DataFrame(data)
        out = (
            pdf.groupby(flags, sort=False, observed=True)
            .size()
            .reset_index(name=cnt_col)
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.select_columns(list(cols)).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(flags, sort=False, observed=True)[cnt_col]
            .sum()
            .reset_index()
        )
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out
    return partitioned_groupby_map(
        parts, flags, finish, num_partitions=num_partitions
    )
