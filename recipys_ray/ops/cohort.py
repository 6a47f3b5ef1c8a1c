"""Cohort retention analysis: bucket every entity into the period of its
first activity (the cohort) and count, for each later period offset, how
many of the cohort's entities were active — the classic retention matrix.

Period ids are pure integer epoch arithmetic (``epoch_us // period_us``),
NOT calendar truncation — identical on every engine, no week-start or
timezone convention to disagree on.

Plan: ONE hash exchange on the entity key; each partition reduces its
entities completely to (cohort, offset, n_entities) partials (an entity
lives in exactly one partition, so partials are disjoint and add); the
final merge is bounded by #periods², not data size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def cohort_retention(
    ds,
    group_col: str = "user_id",
    ts_col: str = "ts",
    period_s: int = 7 * 86400,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Return (cohort_period, period_offset, n_users) — int64 throughout.
    ``cohort_period`` = entity's first active period (epoch // period_s);
    one row per (cohort, offset) with at least one active entity."""
    period_us = int(period_s) * 1_000_000
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        # the exchange moves deduped 16 B (entity, period) pairs — sizing
        # from the full-width input read is a safe overestimate
        num_partitions = choose_partitions(ds)

    def to_periods(tbl: pa.Table) -> pa.Table:
        ts = tbl.column(ts_col).cast(pa.int64()).to_numpy()
        wk = ts // period_us
        uid = tbl.column(group_col).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame({group_col: uid, "wk": wk}).drop_duplicates()
        return pa.Table.from_pandas(pdf, preserve_index=False)

    periods = ds.select_columns([group_col, ts_col]).map_batches(
        to_periods, batch_format="pyarrow"
    )

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates()  # blocks may re-introduce dup pairs
        cw = pdf.groupby(group_col, sort=False)["wk"].transform("min")
        pairs = pd.DataFrame({
            "cohort_period": cw.to_numpy(),
            "period_offset": (pdf["wk"] - cw).to_numpy(),
        })
        out = (
            pairs.groupby(["cohort_period", "period_offset"], sort=False)
            .size().rename("n_users").reset_index()
        )
        return out.astype(np.int64)

    partials = partitioned_groupby_map(
        periods, [group_col], partial, num_partitions
    ).to_pandas()
    # disjoint entity partitions ⇒ partial counts simply add; the merged
    # frame is bounded by #periods², independent of data size
    return (
        partials.groupby(["cohort_period", "period_offset"], sort=True)
        ["n_users"].sum().reset_index().astype(np.int64)
    )
