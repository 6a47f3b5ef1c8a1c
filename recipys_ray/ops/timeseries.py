"""Time-series feature ops: OHLC bucket bars and per-entity lag-k
autocorrelation.

Both are transcript/event-stream feature extractors the reference's
StepHistorical family doesn't express (reference step.py:200-320 covers
only expanding windows): bars summarize an entity's value trajectory per
time bucket (open/high/low/close — the canonical downsampled state
snapshot), and autocorrelation measures per-entity temporal persistence
(burstiness / momentum features for behavioral models).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def ohlc_bars(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    open_col: str = "open",
    high_col: str = "high",
    low_col: str = "low",
    close_col: str = "close",
    n_col: str = "n_events",
    num_partitions: int | None = None,
):
    """Open/high/low/close + event count of ``value_col`` per group (the
    caller typically includes a precomputed time-bucket column in
    ``group_cols``) under the ``order_cols`` total order. SQL equivalent:
    ``first(v ORDER BY o...) / max(v) / min(v) / last(v ORDER BY o...) /
    count(v)`` grouped by the bucket keys.

    Exactness: every output is a SELECTION (first/last/min/max are exact
    row picks, count is an integer) — no float arithmetic, so results are
    hash-identical across engines for any input dtype.

    Motion: combiner-first, like :func:`grouped_first_last` — each block
    sorts ONCE and emits per group a single summary row (head row's
    (order, value), tail row's (order, value), block min/max/count, all
    pandas C kernels across every group at once); ONE exchange moves the
    summary rows; the finish repeats the associative min-order /
    max-order / min / max / sum fold. The corpus never shuffles and the
    result is partition- and layout-invariant. ``order_cols`` should be
    unique per group (pass an id column last) for deterministic
    open/close. Null values: rows with a null ``value_col`` are excluded
    entirely (SQL min/max/count(v) ignore NULL; pair with a not-null
    filter if first/last NULL positional semantics are wanted)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [value_col]
    fo = [f"__fo_{c}__" for c in ocols]
    lo = [f"__lo_{c}__" for c in ocols]

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf[pdf[value_col].notna()]
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        g = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        head = g.head(1).rename(
            columns=dict(zip(ocols, fo)) | {value_col: open_col}
        )[gcols + fo + [open_col]]
        tail = g.tail(1).rename(
            columns=dict(zip(ocols, lo)) | {value_col: close_col}
        )[gcols + lo + [close_col]]
        mm = g[value_col].agg(["min", "max", "size"]).reset_index()
        mm = mm.rename(
            columns={"min": low_col, "max": high_col, "size": n_col}
        )
        mm[n_col] = mm[n_col].astype(np.int64)
        out = head.merge(tail, on=gcols, sort=False).merge(
            mm, on=gcols, sort=False
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        f = (
            pdf.sort_values(gcols + fo, kind="stable", ignore_index=True)
            .groupby(gcols, sort=False, dropna=False)
            .head(1)[gcols + [open_col]]
        )
        l_ = (
            pdf.sort_values(gcols + lo, kind="stable", ignore_index=True)
            .groupby(gcols, sort=False, dropna=False)
            .tail(1)[gcols + [close_col]]
        )
        mm = (
            pdf.groupby(gcols, sort=False, dropna=False)
            .agg({low_col: "min", high_col: "max", n_col: "sum"})
            .reset_index()
        )
        mm[n_col] = mm[n_col].astype(np.int64)
        out = f.merge(l_, on=gcols, sort=False).merge(mm, on=gcols,
                                                      sort=False)
        return out[gcols + [open_col, high_col, low_col, close_col, n_col]]

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def grouped_autocorr(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    lag: int = 1,
    corr_col: str = "autocorr",
    n_col: str = "n_pairs",
    num_partitions: int | None = None,
):
    """Per-group lag-``k`` sample autocorrelation: Pearson correlation of
    (v_t, v_{t+lag}) over each group's ``order_cols``-ordered sequence.
    SQL equivalent: ``lead(v, lag) OVER (PARTITION BY g ORDER BY o...)``
    forming pairs, then the corr closed form over pairs where both sides
    are non-null. Groups with fewer than 2 pairs emit no row; groups with
    zero variance on either side emit NULL (SQL ``x/0.0`` is NULL — the
    IEEE inf/nan path would diverge from the oracle).

    Exactness contract (the grouped_corr lesson): feed an INTEGER-valued
    column so every Σ is exact in float64 and summation order cannot
    matter; the finish then evaluates the stated tree
    ``((sxy−sx·sy/n)/(n−1)) / (sqrt((sxx−sx²/n)/(n−1))·sqrt(...))``
    on identical doubles — bit-equal across engines.

    Motion: ONE skinny exchange ((group, order, value) only) co-locates
    each entity's history; inside a partition a single stable sort +
    grouped ``shift(-lag)`` (pandas C kernel across ALL groups at once)
    forms the pairs, and the sufficient-stats fold + closed form finish
    per group locally — no second exchange, the partition already holds
    every row of its groups."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [value_col]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        x = pdf[value_col]
        y = grp[value_col].shift(-lag)
        keep = (x.notna() & y.notna()).to_numpy()
        xv = x.to_numpy(np.float64)[keep]
        yv = y.to_numpy(np.float64)[keep]
        stats = pd.DataFrame({c: pdf[c].to_numpy()[keep] for c in gcols})
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
        agg = agg[agg["__n__"] >= 2]
        n = agg["__n__"].to_numpy(np.int64)
        nf = n.astype(np.float64)
        sx = agg["__sx__"].to_numpy(np.float64)
        sy = agg["__sy__"].to_numpy(np.float64)
        sxx = agg["__sxx__"].to_numpy(np.float64)
        syy = agg["__syy__"].to_numpy(np.float64)
        sxy = agg["__sxy__"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = ((sxy - sx * sy / nf) / (nf - 1.0)) / (
                np.sqrt((sxx - sx * sx / nf) / (nf - 1.0))
                * np.sqrt((syy - sy * sy / nf) / (nf - 1.0))
            )
        # SQL x/0.0 → NULL: zero variance on either side (exact comparison
        # with integer-valued inputs — both engines see identical doubles)
        zero = ((sxx - sx * sx / nf) == 0.0) | ((syy - sy * sy / nf) == 0.0)
        corr[zero] = np.nan
        out = agg[gcols].reset_index(drop=True)
        out[n_col] = n
        out[corr_col] = corr
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, finish,
        num_partitions=num_partitions,
    )


def grouped_cusum(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    n_col: str = "n",
    cusum_col: str = "cusum",
    num_partitions: int | None = None,
):
    """Per-group CUSUM changepoint statistic over an INTEGER-valued
    column: ``max_t |n·S_t − t·S_n|`` where ``S_t`` is the prefix sum at
    position ``t`` under the ``order_cols`` ordering. This is the
    classic mean-shift CUSUM ``max_t |S_t − t·μ|`` cross-multiplied by
    ``n`` (the Gopher-rules trick) so every intermediate is an exact
    int64 — no float drift anywhere, hash-identical across engines. A
    large value flags a mid-sequence level shift (bot takeover, sensor
    step, behavior change); ~0 means the mean is stable.

    Callers must feed an integer column scaled so ``n·S_t`` stays below
    2^63 (e.g. value×100 with per-group rows ≤ ~10⁶ at moderate value
    magnitudes — the op raises if a product would overflow). Null values
    are excluded before ordering (SQL window over the non-null subset).

    Motion: ONE skinny exchange ((group, order, value)) co-locates each
    sequence; a single stable sort + grouped cumsum/cumcount/transform
    (pandas C kernels across ALL groups) + one grouped max finishes per
    partition — no second exchange."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [value_col]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols][pdf[value_col].notna()].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        x = pdf[value_col].to_numpy(np.int64)
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        ps = grp[value_col].cumsum().to_numpy(np.int64)
        t = (grp.cumcount().to_numpy() + 1).astype(np.int64)
        n = grp[value_col].transform("size").to_numpy(np.int64)
        tot = grp[value_col].transform("sum").to_numpy(np.int64)
        # overflow guard: |n·S_t| and |t·S_n| must fit int64
        with np.errstate(over="ignore"):
            lim = (1 << 62) // np.maximum(n, 1)
        if len(ps) and (np.abs(ps).max() > lim.min()
                        or np.abs(tot).max() > lim.min()):
            raise ValueError(
                "grouped_cusum int64 overflow risk: rescale value_col "
                "(divide before ×100) or split groups"
            )
        dev = np.abs(n * ps - t * tot)
        out = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        out["__dev__"] = dev
        out["__n__"] = n
        agg = (
            out.groupby(gcols, sort=False, dropna=False, observed=True)
            .agg(**{n_col: ("__n__", "max"),
                    cusum_col: ("__dev__", "max")})
            .reset_index()
        )
        agg[n_col] = agg[n_col].astype(np.int64)
        agg[cusum_col] = agg[cusum_col].astype(np.int64)
        return agg

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, finish,
        num_partitions=num_partitions,
    )


def churn_labels(
    ds,
    group_cols: list[str],
    day_col: str,
    horizon: int = 7,
    label_col: str = "churned",
    num_partitions: int | None = None,
):
    """Per (entity, active-day) churn label — 1 iff the entity has NO
    activity in the next ``horizon`` periods (the look-ahead label a
    retention model trains on; the mirror of the backward-looking
    features, generated once so the model never recomputes the future).
    Over each group's DISTINCT sorted days::

        churned(day) = next_day IS NULL OR next_day − day > horizon

    Exact integers, bit-equal to the SQL ``lead()`` oracle; the final
    active day always labels 1 (right-censoring is the caller's
    modeling decision to mask). Block-local distinct collapse, ONE
    skinny exchange on the group key, vectorized shift across all
    groups."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [day_col]

    def dedup_block(tbl: pa.Table) -> pa.Table:
        types = {c: tbl.schema.field(c).type for c in cols}
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf[pdf[day_col].notna()].drop_duplicates(cols)
        return pa.table({
            c: pa.Array.from_pandas(pdf[c], type=types[c]) for c in cols
        })

    skinny = ds.select_columns(cols).map_batches(
        dedup_block, batch_format="pyarrow"
    )

    def label(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates(cols)
        if not len(pdf):
            out = pdf[cols].copy()
            out[label_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(
            gcols + [day_col], kind="stable", ignore_index=True
        )
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        nxt = grp[day_col].shift(-1)
        day = pdf[day_col].to_numpy(np.int64)
        gap_over = (nxt.to_numpy(np.float64) - day) > horizon
        churned = (nxt.isna().to_numpy() | gap_over).astype(np.int64)
        out = pdf[cols].copy()
        out[label_col] = churned
        return out

    return partitioned_groupby_map(
        skinny, gcols, label, num_partitions=num_partitions
    )


def burst_counts(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    value_col: str,
    window: int = 5,
    k: int = 3,
    out_col: str = "n_bursts",
    num_partitions: int | None = None,
):
    """Per-group count of BURST rows — rows whose integer value exceeds
    ``k``× the mean of the strictly-prior ``window`` values. The test is
    integer CROSS-MULTIPLIED (``v·cnt > k·sum`` — no division, no float
    anywhere), so flags and counts are exact under any partitioning and
    bit-equal to the SQL windowed oracle::

        sum = SUM(v) OVER (... ROWS BETWEEN window PRECEDING
                                        AND 1 PRECEDING)
        cnt = COUNT(v) OVER (same frame)
        burst ⇔ cnt > 0 AND v*cnt > k*sum

    (rows with no prior history never flag — leakage-free by
    construction, same contract as the expanding-exclusive prior_mean).
    ``order_cols`` must make the within-group order total. ONE hash
    exchange of the skinny projection; the windowed sums come from
    grouped prefix-sum differences — vectorized across all groups."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = list(dict.fromkeys(gcols + ocols + [value_col]))

    def sweep(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[pdf[value_col].notna()]
        if not len(pdf):
            out = pdf[gcols].copy()
            out[out_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        ids = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)
            .ngroup()
            .to_numpy()
        )
        n = len(pdf)
        n_groups = int(ids[-1]) + 1
        sizes = np.bincount(ids, minlength=n_groups)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        local = np.arange(n) - starts[ids]
        v = pdf[value_col].to_numpy(np.int64)
        # grouped prefix sums: P[i] = Σ of the group's first `local`
        # values (exclusive); windowed trailing sum via P[i] − P[lo]
        csum = np.cumsum(v)
        pref = csum - v  # exclusive prefix including earlier groups
        base = np.concatenate(([0], csum))[starts][ids]  # group offset
        P = pref - base  # exclusive within-group prefix
        lo = np.maximum(local - window, 0)
        # within-group prefix at index lo: P_at_lo = P[row where local=lo]
        P_lo = P[starts[ids] + lo]
        wsum = P - P_lo
        cnt = local - lo
        burst = (cnt > 0) & (v * cnt > k * wsum)
        counts = np.bincount(
            ids, weights=burst.astype(np.float64), minlength=n_groups
        )
        out = pdf.iloc[starts][gcols].reset_index(drop=True)
        out[out_col] = counts.astype(np.int64)
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, sweep,
        num_partitions=num_partitions,
    )


def longest_streak(
    ds,
    group_cols: list[str],
    day_col: str,
    out_col: str = "streak",
    num_partitions: int | None = None,
):
    """Per-group longest run of CONSECUTIVE integer periods (e.g. active
    days) — the engagement-streak feature, solved with the classic SQL
    gaps-and-islands identity: over each group's DISTINCT sorted days,
    ``day − row_number()`` is constant exactly within a consecutive run,
    so the longest streak is the max island size. Exact integers,
    bit-equal to the windowed oracle, order/partition invariant.

    ONE hash exchange of the distinct-collapsed skinny (group, day)
    projection (per-block dedupe first, so the exchange moves at most
    one row per (group, day) per block); sort + cumcount + groupby-size
    run vectorized across all groups in the partition."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [day_col]

    def dedup_block(tbl: pa.Table) -> pa.Table:
        types = {c: tbl.schema.field(c).type for c in cols}
        pdf = tbl.select(cols).to_pandas()
        pdf = pdf[pdf[day_col].notna()].drop_duplicates(cols)
        return pa.table({
            c: pa.Array.from_pandas(pdf[c], type=types[c]) for c in cols
        })

    skinny = ds.select_columns(cols).map_batches(
        dedup_block, batch_format="pyarrow"
    )

    def islands(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates(cols)
        if not len(pdf):
            out = pdf[gcols].copy()
            out[out_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(
            gcols + [day_col], kind="stable", ignore_index=True
        )
        rn = pdf.groupby(gcols, sort=False, dropna=False,
                         observed=True).cumcount()
        pdf["__isl__"] = pdf[day_col].to_numpy(np.int64) - rn.to_numpy()
        sizes = (
            pdf.groupby(gcols + ["__isl__"], sort=False, dropna=False,
                        observed=True)
            .size()
            .reset_index(name="__len__")
        )
        out = (
            sizes.groupby(gcols, sort=False, dropna=False, observed=True)[
                "__len__"
            ]
            .max()
            .reset_index()
            .rename(columns={"__len__": out_col})
        )
        out[out_col] = out[out_col].astype(np.int64)
        return out

    return partitioned_groupby_map(
        skinny, gcols, islands, num_partitions=num_partitions
    )


def max_drawdown(
    ds,
    group_cols: list[str],
    order_col: str,
    value_col: str,
    out_col: str = "max_dd",
    num_partitions: int | None = None,
):
    """Per-group maximum drawdown — the largest drop from a running peak
    over the ordered value series::

        max_dd = max_t ( max_{s ≤ t} v_s  −  v_t )

    the classic risk / burst-decay feature. With INTEGER values the
    result is an exact int64, bit-equal to the SQL windowed oracle. The
    running peak uses RANGE (peer-inclusive) semantics — ``max(v) OVER
    (PARTITION BY g ORDER BY o RANGE UNBOUNDED PRECEDING)`` — so rows
    tied on ``order_col`` see each other's values and the result does
    not depend on tie order (ROWS framing would). Groups emit one row
    each; null values/orders are dropped.

    ONE hash exchange of the skinny projection; the peak scan is a
    grouped transform('max') + cummax + max — vectorized across all
    groups in the partition."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    cols = gcols + [order_col, value_col]

    def scan(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols]
        pdf = pdf[pdf[value_col].notna() & pdf[order_col].notna()]
        if not len(pdf):
            out = pdf[gcols].copy()
            out[out_col] = pd.Series([], dtype=np.int64)
            return out
        pdf = pdf.sort_values(
            gcols + [order_col], kind="stable", ignore_index=True
        )
        # RANGE framing: peers at the same order key share one max
        peer_max = pdf.groupby(gcols + [order_col], sort=False,
                               dropna=False, observed=True)[
            value_col
        ].transform("max")
        pdf["__pk__"] = peer_max
        run_peak = pdf.groupby(gcols, sort=False, dropna=False,
                               observed=True)["__pk__"].cummax()
        dd = run_peak.to_numpy() - pdf[value_col].to_numpy()
        pdf["__dd__"] = dd
        out = (
            pdf.groupby(gcols, sort=False, dropna=False, observed=True)[
                "__dd__"
            ]
            .max()
            .reset_index()
            .rename(columns={"__dd__": out_col})
        )
        out[out_col] = out[out_col].astype(np.int64)
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, scan,
        num_partitions=num_partitions,
    )


def sequence_integrity(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    state_col: str,
    n_col: str = "n_events",
    repeats_col: str = "n_repeats",
    changes_col: str = "n_changes",
    num_partitions: int | None = None,
):
    """Per-group sequence-hygiene counters over an ordered state column —
    the transcript-validation primitive (conv_id × turn role): total
    events, adjacent REPEATS (state equals the previous state — a
    role-alternation violation in a user/assistant transcript), and
    adjacent CHANGES (state differs from the previous). SQL equivalent:
    ``lag(state) OVER (PARTITION BY g ORDER BY o...)`` + conditional
    counts. NULL never equals NULL (SQL equality): pairs where either
    side is null count toward neither bucket, so
    ``repeats + changes ≤ n − 1`` per group. All outputs exact int64.

    Motion: ONE skinny exchange ((group, order, state)) co-locates each
    sequence; one stable sort + grouped ``shift`` + two vectorized
    comparisons + one groupby-sum finish per partition."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [state_col]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        s = pdf[state_col]
        prev = grp[state_col].shift(1)
        both = (s.notna() & prev.notna()).to_numpy()
        eq = (s == prev).to_numpy() & both
        neq = (s != prev).to_numpy() & both
        out = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        out["__one__"] = np.int64(1)
        out["__eq__"] = eq.astype(np.int64)
        out["__neq__"] = neq.astype(np.int64)
        agg = (
            out.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        agg = agg.rename(columns={"__one__": n_col, "__eq__": repeats_col,
                                  "__neq__": changes_col})
        for c in (n_col, repeats_col, changes_col):
            agg[c] = agg[c].astype(np.int64)
        return agg

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, finish,
        num_partitions=num_partitions,
    )


def budget_prefix(
    ds,
    group_cols: list[str],
    order_cols: list[str],
    weight_col: str,
    budget: int,
    cum_col: str = "cum_weight",
    num_partitions: int | None = None,
):
    """Token-budget prefix truncation: per group, keep the rows whose
    INCLUSIVE running sum of ``weight_col`` (in ``order_cols`` order) stays
    ≤ ``budget``, stamping that running sum as ``cum_col``. With
    non-negative weights the running sum is monotone, so the kept set is
    exactly the group's maximal ordered PREFIX under the budget — the
    standard context-window truncation that keeps whole turns and never
    looks ahead (zero temporal leakage). Identical to the SQL filter
    ``sum(w) OVER (PARTITION BY g ORDER BY o ROWS UNBOUNDED PRECEDING)
    <= budget`` for ANY weights (negative weights make both a sieve, not a
    prefix). Integer weights keep the cumsum exact — prefer token/char
    counts or fixed-point cents over raw floats.

    Motion: ONE payload exchange on the group key (rows must co-locate to
    order within the group), then per partition one stable sort + grouped
    cumsum + boolean take — pandas C kernels across all groups at once.
    Null weights propagate through the cumsum (SQL SUM skips them; pass
    pre-filled weights if the distinction matters). Same partitioning
    contract as every grouped kernel here: one group's rows fit one
    partition task.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf.copy()
            out[cum_col] = pdf[weight_col]
            return out
        pdf = pdf.sort_values(gcols + ocols, kind="stable",
                              ignore_index=True)
        cw = pdf.groupby(gcols, sort=False, dropna=False,
                         observed=True)[weight_col].cumsum()
        pdf[cum_col] = cw
        return pdf[cw.to_numpy() <= budget].reset_index(drop=True)

    return partitioned_groupby_map(
        ds, gcols, per_partition, num_partitions=num_partitions
    )


def debounce_events(
    ds,
    group_cols: list[str],
    ts_col: str,
    order_cols: list[str],
    period_us: int,
    bucket_col: str = "bucket",
    num_partitions: int | None = None,
):
    """Fixed-bucket debounce / throttle: keep only the FIRST event (by
    ``order_cols``) of each ``(group, floor(epoch_us(ts) / period_us))``
    bucket — collapsing retry storms, duplicate webhooks and bot bursts
    to one representative before feature extraction. Identical to SQL
    ``row_number() OVER (PARTITION BY g, epoch_us(ts) // period
    ORDER BY o) = 1`` (DuckDB ``//`` floor division; pure int64 — exact).
    Rows with a null timestamp are dropped (their bucket is undefined).

    Motion: ONE payload exchange on the group key, then per partition a
    vectorized bucket stamp + stable sort + ``drop_duplicates`` across
    all groups at once. The kept row keeps every input column plus the
    int64 ``bucket_col``.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    period = int(period_us)
    if period <= 0:
        raise ValueError(f"period_us must be positive, got {period_us}")

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[pdf[ts_col].notna()]
        epoch = pdf[ts_col].astype("datetime64[us]").astype(np.int64)
        # floor division (SQL //) — correct for pre-epoch timestamps too
        bucket = np.floor_divide(epoch, period)
        pdf = pdf.assign(**{bucket_col: bucket})
        pdf = pdf.sort_values(gcols + [bucket_col] + ocols, kind="stable",
                              ignore_index=True)
        return pdf.drop_duplicates(
            subset=gcols + [bucket_col], keep="first"
        ).reset_index(drop=True)

    return partitioned_groupby_map(
        ds, gcols, per_partition, num_partitions=num_partitions
    )


def time_weighted_avg(
    ds,
    group_cols: list[str],
    ts_col: str,
    order_cols: list[str],
    value_col: str,
    out_col: str = "twap",
    num_partitions: int | None = None,
):
    """Per-group step-function time-weighted average (TWAP): each value
    holds from its own timestamp until the NEXT observation, so

        twap = Σ vᵢ·(tᵢ₊₁ − tᵢ) / (t_n − t_0)

    — the standard position/price/state time-integral feature. The last
    observation has no holding interval and contributes nothing (SQL:
    the ``lead``-formed duration is NULL and drops from both sums).

    Exactness contract: feed an INTEGER value column (cents) — durations
    are exact epoch-µs int64, each Σ is an exact int64 sum, and the
    single closed-form division is bit-equal to the SQL
    ``CAST(sum(v·dur) AS DOUBLE)/CAST(sum(dur) AS DOUBLE)``. A group with
    zero total duration (single event, or all events simultaneous)
    yields NULL (SQL x/0.0). Overflow bound: per-group Σ v·Δµs < 2⁶³.

    Motion: ONE skinny exchange ((group, ts, order, value)) co-locates
    each entity's history; per partition one stable sort + grouped
    ``shift(-1)`` + segment sums — pandas C kernels across all groups."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = list(group_cols)
    ocols = list(order_cols)
    cols = gcols + ocols + [value_col]
    if ts_col not in cols:
        cols = gcols + [ts_col] + ocols + [value_col]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pdf[gcols].copy()
            out[out_col] = pd.Series([], dtype=np.float64)
            return out
        pdf = pdf[cols].sort_values(
            gcols + ocols, kind="stable", ignore_index=True
        )
        grp = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        us = (
            pdf[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        nxt = grp[ts_col].shift(-1)
        nxt_us = nxt.to_numpy().astype("datetime64[us]").astype(np.int64)
        has_next = nxt.notna().to_numpy()
        dur = np.where(has_next, nxt_us - us, 0).astype(np.int64)
        v = pdf[value_col].to_numpy(np.int64)
        stats = pd.DataFrame({c: pdf[c].to_numpy() for c in gcols})
        stats["__vd__"] = v * dur
        stats["__d__"] = dur
        agg = (
            stats.groupby(gcols, sort=False, dropna=False, observed=True)
            .sum()
            .reset_index()
        )
        num = agg["__vd__"].to_numpy(np.int64).astype(np.float64)
        den = agg["__d__"].to_numpy(np.int64).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            tw = num / den
        tw[den == 0.0] = np.nan  # SQL x/0.0 → NULL
        out = agg[gcols].copy()
        out[out_col] = tw
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, finish,
        num_partitions=num_partitions,
    )
