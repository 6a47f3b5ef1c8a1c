"""Interval coalescing — merge overlapping/touching spans per group.

``merge_intervals`` collapses each group's set of [start, end] intervals
into maximal disjoint "islands" (SQL gaps-and-islands): ONE hash exchange
on the group key co-locates a group's intervals, then one vectorized
sort + grouped prefix-max detects island breaks for EVERY group in the
partition simultaneously (pandas C kernels, no per-group Python).

Semantics match the standard SQL formulation::

    pm  = max(end) OVER (PARTITION BY g ORDER BY start, end
                          ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)
    brk = (pm IS NULL) OR (start > pm)       -- touching intervals MERGE

Island assignment is deterministic even under (start, end) ties: a tied
row's break flag only depends on values, not tie order.

Training-data uses: merging duplicate/overlapping text spans before
excision (complements ops/spans.py), coalescing session windows, and
de-overlapping time ranges before windowed labeling (leakage control).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def merge_intervals(
    ds,
    group_cols: list[str],
    start_col: str,
    end_col: str,
    start_out: str = "span_start",
    end_out: str = "span_end",
    n_col: str = "n_merged",
    num_partitions: int | None = None,
):
    """One row per merged island: group_cols + [start_out, end_out, n_col]
    (module docstring). Start/end may be numeric or datetime64 — ordering
    and prefix-max are dtype-generic. Rows with a null start or end are
    dropped (SQL window ordering over NULL bounds is undefined)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [start_col, end_col]

    def coalesce(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[pdf[start_col].notna() & pdf[end_col].notna()]
        if not len(pdf):
            out = pdf[gcols].copy()
            out[start_out] = pdf[start_col]
            out[end_out] = pdf[end_col]
            out[n_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(
            gcols + [start_col, end_col], kind="stable", ignore_index=True
        )
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        # prefix max of end EXCLUDING the current row, per group
        pm = grp[end_col].cummax().shift(1)
        first = grp.cumcount().to_numpy() == 0
        brk = first | (pdf[start_col].to_numpy() > pm.to_numpy())
        pdf["__isl__"] = np.cumsum(brk)
        agg = pdf.groupby(gcols + ["__isl__"], sort=False, dropna=False,
                          observed=True)
        out = agg.agg(**{
            start_out: (start_col, "min"),
            end_out: (end_col, "max"),
            n_col: (start_col, "size"),
        }).reset_index().drop(columns=["__isl__"])
        out[n_col] = out[n_col].astype(np.int64)
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, coalesce,
        num_partitions=num_partitions,
    )


def peak_concurrency(
    ds,
    group_cols: list[str],
    start_col: str,
    end_col: str,
    out_col: str = "peak",
    num_partitions: int | None = None,
):
    """Per-group maximum number of simultaneously-open half-open
    ``[start, end)`` intervals — the classic sweep-line: every interval
    contributes a +1 event at its start and a −1 at its end, events sort
    by ``(t, delta)`` so an end at t closes BEFORE a start at t opens
    (half-open boundary semantics), and the peak is the max prefix sum.
    Mirrors the SQL window form exactly::

        SUM(d) OVER (PARTITION BY g ORDER BY t, d
                     ROWS UNBOUNDED PRECEDING)   →   MAX(...) per group

    (the (t, d) ordering makes the running sum well-defined under ties —
    every −1 at a tied instant folds first — so the result is exact-int
    deterministic under any partitioning). Degenerate intervals with
    ``end <= start`` and null bounds are dropped, mirroring the oracle's
    WHERE. ONE hash exchange of the skinny (group, start, end)
    projection; the sweep runs vectorized across ALL groups in a
    partition (one sort + grouped cumsum/max C kernels)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [start_col, end_col]

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[
            pdf[start_col].notna() & pdf[end_col].notna()
            & (pdf[end_col] > pdf[start_col])
        ]
        if not len(pdf):
            out = pdf[gcols].copy()
            out[out_col] = pd.Series([], dtype=np.int64)
            return out
        ev = pd.concat(
            [
                pdf[gcols].assign(
                    __t__=pdf[start_col].to_numpy(),
                    __d__=np.int64(1),
                ),
                pdf[gcols].assign(
                    __t__=pdf[end_col].to_numpy(),
                    __d__=np.int64(-1),
                ),
            ],
            ignore_index=True,
        )
        ev = ev.sort_values(
            gcols + ["__t__", "__d__"], kind="stable", ignore_index=True
        )
        grp = ev.groupby(gcols, sort=False, dropna=False, observed=True)
        conc = grp["__d__"].cumsum()
        ev["__c__"] = conc
        out = (
            ev.groupby(gcols, sort=False, dropna=False, observed=True)[
                "__c__"
            ]
            .max()
            .reset_index()
            .rename(columns={"__c__": out_col})
        )
        out[out_col] = out[out_col].astype(np.int64)
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, sweep,
        num_partitions=num_partitions,
    )


def scd2_intervals(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    state_col: str,
    from_col: str = "valid_from",
    to_col: str = "valid_to",
    num_partitions: int | None = None,
):
    """Slowly-changing-dimension (SCD type 2) validity intervals: collapse
    each entity's ordered state sequence into one row per maximal run of an
    unchanged state, stamped ``[from_col, to_col)`` — ``from_col`` is the
    run's first order value, ``to_col`` the NEXT run's first order value
    (NULL for the current/open run). The classic point-in-time dimension
    build that feeds the as-of join (ops/asof.py): ``dim AS OF ts`` becomes
    ``valid_from <= ts < valid_to``.

    Semantics match the SQL formulation (change points via ``lag``, close
    via ``lead`` over change points only)::

        marks = rows where lag(state) OVER w IS DISTINCT FROM state
        out   = SELECT g, state, ord AS valid_from,
                       lead(ord) OVER (PARTITION BY g ORDER BY ord)
                       AS valid_to
                FROM marks

    States should be non-null: a null state compares unequal to everything
    (pandas ``ne``), so null-state rows each open their own run — whereas
    SQL ``lag(x) <> x`` is NULL-ambiguous there. Order values must be
    unique per group (they are event keys).

    Motion: ONE skinny exchange (group + order + state) on the group key,
    then per partition one stable sort + grouped shift compare + grouped
    shift(-1), all pandas C kernels across every group at once. Same
    partitioning contract as every grouped kernel here: one group's rows
    fit one partition task.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [state_col]
    ord0 = ocols[0]

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        if not len(pdf):
            out = pdf[gcols + [state_col]].copy()
            out[from_col] = pdf[ord0]
            out[to_col] = pdf[ord0]
            return out
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        first = grp.cumcount().to_numpy() == 0
        prev = grp[state_col].shift(1)
        # ne: NaN != NaN -> True, so null states always break (docstring)
        change = first | pdf[state_col].ne(prev).to_numpy()
        m = pdf.loc[change, gcols + [state_col, ord0]].copy()
        g2 = m.groupby(gcols, sort=False, dropna=False, observed=True)
        m[to_col] = g2[ord0].shift(-1)
        m = m.rename(columns={ord0: from_col})
        return m[gcols + [state_col, from_col, to_col]].reset_index(
            drop=True
        )

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )
