"""Exact distributed order statistics — quantiles without a global sort.

``ds.sort(col)`` is an all-to-all exchange of the WHOLE column; a handful of
quantiles never needs that. This is the classic iterative selection by
counting (multi-round Blum-style selection adapted to block streams):

1. one combiner pass → (non-null count, min, max);
2. per round, ONE streaming pass counts ``v <= edge`` for ~``bins`` edges
   inside each still-pending rank's bracket (vectorized: one ``np.sort``
   per batch + ``np.searchsorted`` over all edges of all ranks). The
   bracket containing each target rank shrinks ~``bins``× per round;
3. when a bracket holds ≤ ``driver_cap`` values (or collapses to a single
   float), ONE filter pass collects exactly those values and the driver
   picks the order statistic locally.

For n = 10¹² rows and the defaults this is 2-3 counting passes + one
bounded collect — each pass a skinny single-column stream, no shuffle at
any point. Rank convention matches DuckDB/PostgreSQL ``quantile_disc`` /
``percentile_disc``: 1-based rank ``ceil(q·n)`` (probed against DuckDB
1.0.0 incl. float-boundary cases). The approximate single-pass path is
:mod:`recipys_ray.aggregates`' t-digest; this op is the exact one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _count_leq(ds, col: str, brackets: list[dict], bins: int) -> np.ndarray:
    """One streaming pass: for every pending bracket, counts of
    ``lo < v <= edge_j`` for its refinement edges. Returns a list aligned
    with ``brackets`` of per-edge cumulative counts."""
    edge_sets = []
    for b in brackets:
        e = np.linspace(b["lo"], b["hi"], bins + 1)[1:]
        e[-1] = b["hi"]  # guard linspace endpoint rounding
        edge_sets.append(e)

    def partial(tbl: pa.Table) -> pa.Table:
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.sort(v[~np.isnan(v)])
        out_r, out_e, out_c = [], [], []
        for ri, (b, edges) in enumerate(zip(brackets, edge_sets)):
            base = np.searchsorted(v, b["lo"], side="right")
            cnt = np.searchsorted(v, edges, side="right") - base
            out_r.extend([ri] * len(edges))
            out_e.extend(range(len(edges)))
            out_c.extend(cnt.tolist())
        return pa.table(
            {
                "ri": pa.array(out_r, pa.int32()),
                "ei": pa.array(out_e, pa.int32()),
                "cnt": pa.array(out_c, pa.int64()),
            }
        )

    tot = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["ri", "ei"], sort=True)["cnt"]
        .sum()
    )
    return [
        tot.loc[ri].to_numpy() for ri in range(len(brackets))
    ], edge_sets


def _column_stats(ds, col: str) -> tuple[int, float, float]:
    """One streaming pass → (non-null count, min, max) of ``col``."""

    def stats(tbl: pa.Table) -> pa.Table:
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return pa.table(
                {"n": pa.array([0], pa.int64()),
                 "lo": pa.array([np.nan]), "hi": pa.array([np.nan])}
            )
        return pa.table(
            {"n": pa.array([len(v)], pa.int64()),
             "lo": pa.array([float(v.min())]),
             "hi": pa.array([float(v.max())])}
        )

    st = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    n = int(st["n"].sum())
    if n == 0:
        return 0, np.nan, np.nan
    return n, float(st["lo"].min()), float(st["hi"].max())


def exact_quantiles(
    ds,
    col: str,
    qs: Sequence[float],
    bins: int = 1024,
    driver_cap: int = 1_000_000,
    max_rounds: int = 64,
    pin: bool = True,
    stats: tuple[int, float, float] | None = None,
) -> pd.DataFrame:
    """Exact ``quantile_disc`` values for ``qs`` (module docstring).
    Returns a DataFrame (q, value) ordered by q.

    ``pin=False`` skips the project+materialize: the caller passes a
    dataset that is already skinny (``col`` only, or derived per-batch
    from pinned blocks) and cheap to re-stream per counting round.
    ``stats=(n, min, max)`` skips the stats pass when the caller already
    knows the exact non-null count and value range."""
    skinny = ds.select_columns([col]).materialize() if pin else ds

    n, lo0, hi0 = _column_stats(skinny, col) if stats is None else stats
    if n == 0:
        return pd.DataFrame(
            {"q": np.asarray(qs, np.float64), "value": np.nan}
        )

    ks = [min(max(math.ceil(q * n), 1), n) for q in qs]
    got = _order_stats(
        skinny, col, ks, n, lo0, hi0, bins, driver_cap, max_rounds
    )
    out = pd.DataFrame(
        {"q": [float(q) for q in qs], "value": [got[k] for k in ks]}
    )
    return out.sort_values("q", ignore_index=True)


def _order_stats(
    skinny,
    col: str,
    ks: Sequence[int],
    n: int,
    lo0: float,
    hi0: float,
    bins: int,
    driver_cap: int,
    max_rounds: int,
) -> dict:
    """Exact 1-based order statistics for ranks ``ks`` over the skinny
    single-column dataset — the iterative counting-selection core shared
    by :func:`exact_quantiles` (disc) and :func:`exact_quantiles_cont`
    (interpolated). Returns {k: value}."""
    # bracket per target rank: rank_below values are <= lo; the k-th order
    # statistic lies in (lo, hi]; min is only reachable as the k=1 edge, so
    # seed lo just below it
    lo_seed = np.nextafter(lo0, -np.inf)
    brackets = []
    for k in sorted(set(int(k) for k in ks)):
        brackets.append(
            {"k": k, "lo": lo_seed, "hi": hi0,
             "below": 0, "count": n, "value": None}
        )

    for _ in range(max_rounds):
        pending = [
            b for b in brackets
            if b["value"] is None and b["count"] > driver_cap
            and np.nextafter(b["lo"], b["hi"]) < b["hi"]
        ]
        if not pending:
            break
        counts, edge_sets = _count_leq(skinny, col, pending, bins)
        for b, cum, edges in zip(pending, counts, edge_sets):
            want = b["k"] - b["below"]  # rank within (lo, hi]
            j = int(np.searchsorted(cum, want, side="left"))
            new_lo = b["lo"] if j == 0 else float(edges[j - 1])
            below_new = b["below"] + (0 if j == 0 else int(cum[j - 1]))
            b["lo"], b["hi"] = new_lo, float(edges[j])
            b["count"] = int(cum[j]) - (below_new - b["below"])
            b["below"] = below_new

    # a bracket collapsed to adjacent floats means every value in (lo, hi]
    # equals hi — resolve without collecting (a hot value repeated 10¹⁰
    # times must never be pulled to the driver)
    for b in brackets:
        if b["value"] is None and np.nextafter(b["lo"], b["hi"]) >= b["hi"]:
            b["value"] = b["hi"]

    # collect every unresolved bracket's values in one filter pass
    todo = [b for b in brackets if b["value"] is None]
    if todo:
        los = np.array([b["lo"] for b in todo])
        his = np.array([b["hi"] for b in todo])

        def collect(tbl: pa.Table) -> pa.Table:
            v = tbl.column(col).to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            v = v[~np.isnan(v)]
            out_r, out_v = [], []
            for ri in range(len(todo)):
                sel = v[(v > los[ri]) & (v <= his[ri])]
                out_r.extend([ri] * len(sel))
                out_v.extend(sel.tolist())
            return pa.table(
                {"ri": pa.array(out_r, pa.int32()),
                 "v": pa.array(out_v, pa.float64())}
            )

        got = skinny.map_batches(collect, batch_format="pyarrow").to_pandas()
        for ri, b in enumerate(todo):
            vals = np.sort(got.loc[got["ri"] == ri, "v"].to_numpy())
            if len(vals):
                idx = min(max(b["k"] - b["below"], 1), len(vals))
                b["value"] = float(vals[idx - 1])
            else:
                # collapsed bracket: everything in (lo, hi] equals hi
                b["value"] = b["hi"]

    return {b["k"]: b["value"] for b in brackets}


def exact_quantiles_cont(
    ds,
    col: str,
    qs: Sequence[float],
    bins: int = 1024,
    driver_cap: int = 1_000_000,
    max_rounds: int = 64,
    pin: bool = True,
    stats: tuple[int, float, float] | None = None,
) -> pd.DataFrame:
    """Exact INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont``) without a global sort: the two bracketing order
    statistics for every q come from the same iterative counting
    selection as :func:`exact_quantiles` (one shared bracket set, so a
    batch of qs still costs 2-3 skinny passes total), then the driver
    lerps. Returns a DataFrame (q, value) ordered by q.

    Float contract: the rank ``rn = q·(n-1)``, its floor/ceil, and the
    weighted form ``(crn-rn)·v_lo + (rn-frn)·v_hi`` mirror DuckDB's
    interpolation (probed bit-equal on 94% of random cases; the rest
    differ by 1-7 ulps where DuckDB's FMA contracts the multiply-add) —
    same drift class as the pandas kernel in :func:`group_quantiles`."""
    skinny = ds.select_columns([col]).materialize() if pin else ds
    n, lo0, hi0 = _column_stats(skinny, col) if stats is None else stats
    if n == 0:
        return pd.DataFrame(
            {"q": np.asarray(qs, np.float64), "value": np.nan}
        )

    plan = []
    ks = set()
    for q in qs:
        rn = float(q) * (n - 1)  # 0-based fractional rank
        frn = math.floor(rn)
        crn = math.ceil(rn)
        plan.append((float(q), rn, frn, crn))
        ks.add(frn + 1)
        ks.add(crn + 1)
    got = _order_stats(
        skinny, col, sorted(ks), n, lo0, hi0, bins, driver_cap, max_rounds
    )
    vals = []
    for q, rn, frn, crn in plan:
        v_lo, v_hi = got[frn + 1], got[crn + 1]
        if crn == frn:
            vals.append(v_lo)
        else:
            vals.append((crn - rn) * v_lo + (rn - frn) * v_hi)
    out = pd.DataFrame({"q": [p[0] for p in plan], "value": vals})
    return out.sort_values("q", ignore_index=True)


def group_quantiles(
    ds,
    group_cols,
    value_col: str,
    qs: Sequence[float],
    out_names: Sequence[str] | None = None,
    interpolation: str = "linear",
    num_partitions: int | None = None,
):
    """Exact per-group continuous quantiles (SQL ``quantile_cont(x, q) ...
    GROUP BY g``): hash-partition by group (ONE exchange of the skinny
    ``group_cols + [value_col]`` projection), then one pandas
    ``groupby().quantile`` C kernel per partition handles ALL of its groups
    vectorized. Returns one row per group: ``group_cols + out_names``
    (default ``q25``-style names), float64.

    Nulls: null VALUES are ignored within a group (SQL ``percentile_cont``);
    an all-null group yields NULL; null GROUP KEYS form their own group
    (SQL ``GROUP BY``). Partitioning assumption (same contract as every
    grouped kernel here): one group's rows fit one partition task — groups
    are never split, so results are partition-count invariant.
    """
    qs = [float(q) for q in qs]
    if sorted(qs) != qs:
        raise ValueError(f"qs must be ascending (unstack order), got {qs}")
    if out_names is None:
        out_names = [f"q{int(round(q * 100)):02d}" for q in qs]
    out_names = list(out_names)
    if len(out_names) != len(qs) or len(set(out_names)) != len(qs):
        raise ValueError("out_names must be unique and align with qs")
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    proj = ds.select_columns(group_cols + [value_col])

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pd.DataFrame(columns=group_cols + out_names)
            return out.astype({c: np.float64 for c in out_names})
        g = pdf.groupby(group_cols, sort=False, dropna=False)[value_col]
        out = g.quantile(qs, interpolation=interpolation).unstack()
        out.columns = out_names  # unstack sorts by q — qs checked ascending
        return out.reset_index()

    return partitioned_groupby_map(
        proj, group_cols, per_partition, num_partitions=num_partitions
    )


def winsorize(
    ds,
    col: str,
    lower_q: float = 0.05,
    upper_q: float = 0.95,
    out_col: str | None = None,
    bins: int = 1024,
    driver_cap: int = 1_000_000,
):
    """Clip ``col`` to its exact [lower_q, upper_q] ``quantile_disc``
    values — the standard outlier-winsorization feature transform.

    Two driver-bounded scalars from :func:`exact_quantiles` (2-3 skinny
    counting passes, no shuffle) broadcast into ONE streaming clip pass.
    Selection-only float contract: every output value is an input value
    (the bounds are order statistics present in the data), so there is no
    float-arithmetic drift vs a SQL ``least(greatest(x, lo), hi)`` oracle.
    Nulls stay null; NaNs propagate (IEEE ``min``/``max``)."""
    qdf = exact_quantiles(
        ds, col, qs=[lower_q, upper_q], bins=bins, driver_cap=driver_cap
    )
    lo = float(qdf["value"].iloc[0])
    hi = float(qdf["value"].iloc[1])
    out = out_col or col

    def clip(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(col)
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        c = np.minimum(np.maximum(v, lo), hi)
        isnull = pc.is_null(arr).to_numpy(zero_copy_only=False)
        res = pa.array(c, pa.float64(), mask=isnull)
        if out in tbl.column_names:
            return tbl.set_column(
                tbl.column_names.index(out), out, res
            )
        return tbl.append_column(out, res)

    return ds.map_batches(clip, batch_format="pyarrow")


def histogram(
    ds,
    col: str,
    lo: float,
    hi: float,
    nbins: int,
    bucket_col: str = "bucket",
    edge_col: str = "lo_edge",
    cnt_col: str = "cnt",
):
    """Fixed-range equal-width histogram of ``col``: exact counts per
    bucket ``floor((v - lo) / w)`` with ``w = (hi - lo) / nbins``, values
    outside ``[lo, hi]`` and nulls dropped, ``v == hi`` clipped into the
    last bucket. Emits only non-empty buckets (SQL GROUP BY shape):
    ``(bucket int64, lo_edge float64, cnt int64)``.

    Motion: a per-block vectorized bincount shrinks each block to
    ≤ ``nbins`` partial rows; ONE tiny exchange on the bucket id folds
    them — the column itself never shuffles. Float contract: ``w``,
    ``(v - lo) / w``, ``floor`` and ``lo + bucket * w`` are the same
    single IEEE double ops a SQL oracle stating the identical expressions
    computes — bucket ids and edges are bit-equal across engines."""
    if nbins < 1:
        raise ValueError(f"nbins must be >= 1, got {nbins}")
    lo = float(lo)
    hi = float(hi)
    w = (hi - lo) / nbins

    def partial(tbl: pa.Table) -> pa.Table:
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[(v >= lo) & (v <= hi)]  # NaN fails both -> dropped
        b = np.floor((v - lo) / w).astype(np.int64)
        np.minimum(b, nbins - 1, out=b)
        cnt = np.bincount(b, minlength=0)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                bucket_col: pa.array(nz, pa.int64()),
                cnt_col: pa.array(cnt[nz], pa.int64()),
            }
        )

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(bucket_col, sort=False)[cnt_col]
            .sum()
            .reset_index()
        )
        b = out[bucket_col].to_numpy(np.int64)
        out[edge_col] = lo + b.astype(np.float64) * w
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out[[bucket_col, edge_col, cnt_col]]

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    return partitioned_groupby_map(parts, [bucket_col], finish)


def robust_zscore(
    ds,
    col: str,
    k: float = 3.0,
    score_col: str = "rz",
    flag_col: str = "is_outlier",
    bins: int = 1024,
    driver_cap: int = 1_000_000,
):
    """Median/MAD robust z-score + outlier flag — the skew-resistant
    outlier detector (mean/std break down exactly when outliers exist).

    ``rz = (x - median) / MAD`` with ``MAD = median(|x - median|)``; flag
    is ``|x - median| > k * MAD``. Both medians are exact ``quantile_disc``
    order statistics from :func:`exact_quantiles`, sharing ONE pinned
    skinny projection: the MAD rounds stream a per-batch ``|x - med|``
    view over the pinned blocks (no second materialize), and the MAD
    stats pass is skipped entirely — the count is unchanged under
    ``abs(x - med)`` and ``max|x - med| = max(|min-med|, |max-med|)``
    exactly, because IEEE round-to-nearest subtraction is monotone so
    the maximum deviation is attained at an endpoint of the value range.
    The final pass streams with two broadcast scalars. Float contract:
    x - med, abs, division and the comparison are single IEEE double ops
    computed identically by any engine — bit-stable vs a SQL oracle.
    MAD = 0 (>50% identical values) yields IEEE ±inf / NaN scores; nulls
    stay null."""
    skinny = ds.select_columns([col]).materialize()
    n, lo0, hi0 = _column_stats(skinny, col)
    med = float(
        exact_quantiles(
            skinny, col, qs=[0.5], bins=bins, driver_cap=driver_cap,
            pin=False, stats=(n, lo0, hi0),
        )["value"].iloc[0]
    )

    def absdev(tbl: pa.Table) -> pa.Table:
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({col: pa.array(np.abs(v - med), pa.float64())})

    # |x - med| keeps the non-null count; its min is bounded below by 0
    # (a loose lower seed only widens the first bracket) and its max is
    # exactly the larger endpoint deviation (monotonicity argument above).
    hi_abs = max(abs(lo0 - med), abs(hi0 - med)) if n else np.nan
    mad = float(
        exact_quantiles(
            skinny.map_batches(absdev, batch_format="pyarrow"),
            col, qs=[0.5], bins=bins, driver_cap=driver_cap,
            pin=False, stats=(n, 0.0, hi_abs),
        )["value"].iloc[0]
    )
    thr = k * mad

    def score(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(col)
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        d = v - med
        isnull = pc.is_null(arr).to_numpy(zero_copy_only=False)
        tbl = tbl.append_column(
            score_col, pa.array(d / mad, pa.float64(), mask=isnull)
        )
        return tbl.append_column(
            flag_col, pa.array(np.abs(d) > thr, pa.bool_(), mask=isnull)
        )

    return ds.map_batches(score, batch_format="pyarrow")


def grouped_robust_zscore(
    ds,
    group_cols,
    value_col: str,
    id_cols: Sequence[str],
    k: float = 3.0,
    score_col: str = "rz",
    flag_col: str = "is_outlier",
    num_partitions: int | None = None,
):
    """Per-GROUP median/MAD robust z-score + outlier flag — the per-entity
    twin of :func:`robust_zscore` (per-user telemetry baselines, per-SKU
    price anomalies): ``rz = (x - med_g) / MAD_g`` with ``MAD_g =
    median(|x - med_g|)`` inside each group.

    Both medians are ``quantile_disc`` ORDER STATISTICS (pandas
    ``interpolation='lower'`` ≡ DuckDB ``quantile_disc`` at q=0.5) — no
    interpolation arithmetic at all, so ``med``/``MAD`` are exact input
    elements and the remaining float ops (one subtract, one divide, one
    ``k*MAD`` multiply + compare) are single IEEE doubles any engine
    reproduces bit-exactly. SQL division semantics: MAD_g = 0 yields a
    NULL score (DuckDB ``x/0.0`` is NULL, not ±inf) while the flag stays
    boolean (``|dev| > k*0``); null values and all-null groups yield NULL
    score AND flag (SQL ``NULL > x``).

    Motion: ONE skinny exchange (group + id + value) on the group key;
    per partition two vectorized ``groupby().quantile`` C kernels (all
    groups at once) and a broadcast-free stamp. Output: id_cols +
    [score_col, flag_col]. Same partitioning contract as every grouped
    kernel here: one group's rows fit one partition task."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    icols = list(id_cols)
    cols = gcols + icols + [value_col]

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pd.DataFrame(columns=icols + [score_col, flag_col])
            return out.astype({score_col: "Float64", flag_col: "boolean"})
        med = (
            pdf.groupby(gcols, sort=False, dropna=False)[value_col]
            .quantile(0.5, interpolation="lower")
            .rename("__med__")
        )
        pdf = pdf.join(med, on=gcols)
        dev = (
            pdf[value_col].to_numpy(np.float64)
            - pdf["__med__"].to_numpy(np.float64)
        )
        pdf["__adev__"] = np.abs(dev)
        mad = (
            pdf.groupby(gcols, sort=False, dropna=False)["__adev__"]
            .quantile(0.5, interpolation="lower")
            .rename("__mad__")
        )
        pdf = pdf.join(mad, on=gcols)
        madv = pdf["__mad__"].to_numpy(np.float64)
        isnull = np.isnan(dev)  # null value OR all-null group
        with np.errstate(divide="ignore", invalid="ignore"):
            rz = dev / madv
        out = pdf[icols].copy()
        out[score_col] = pd.arrays.FloatingArray(
            rz, isnull | (madv == 0.0)
        )
        flag = pd.array(np.abs(dev) > k * madv, dtype="boolean")
        flag[isnull] = None
        out[flag_col] = flag
        return out

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )


def kbins_quantile_exact(
    ds,
    col: str,
    n_bins: int,
    out_col: str = "bin",
    driver_cap: int = 1_000_000,
):
    """Equal-frequency discretization with EXACT edges: the sklearn
    KBinsDiscretizer(strategy='quantile') contract, but the internal
    edges are exact ``quantile_disc`` order statistics from the iterative
    counting selection (no sample, no sketch, no global sort) — so a SQL
    oracle can restate the binning verbatim.

    ``bin(x) = #{j : x ≥ e_j}`` over the k−1 internal edges (0-based
    int64, NULL in → NULL out). Edges are data values and every
    comparison is exact, so the stamp is bit-free (no float arithmetic at
    all). Two skinny passes fit the edges; the stamp is one stateless
    vectorized ``searchsorted`` per batch — zero shuffle."""
    import pyarrow.compute as pc  # noqa: F401 (parallel import pattern)

    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    qs = [j / n_bins for j in range(1, n_bins)]
    edges_df = exact_quantiles(ds, col, qs, driver_cap=driver_cap)
    edges = np.sort(edges_df["value"].to_numpy(np.float64))

    def stamp(tbl: pa.Table) -> pa.Table:
        x = tbl.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        b = np.searchsorted(edges, x, side="right").astype(np.float64)
        b[np.isnan(x)] = np.nan
        out = pa.Array.from_pandas(pd.Series(b), type=pa.int64())
        return tbl.append_column(out_col, out)

    return ds.map_batches(stamp, batch_format="pyarrow")


def grouped_winsorize(
    ds,
    group_cols,
    value_col: str,
    id_cols: Sequence[str],
    lower_q: float = 0.05,
    upper_q: float = 0.95,
    out_col: str = "w_value",
    num_partitions: int | None = None,
):
    """Per-GROUP winsorization at exact ``quantile_disc`` order statistics
    — the grouped twin of :func:`winsorize` (per-entity outlier capping:
    per-user spend, per-SKU price, per-conversation turn length).

    Both bounds are DISCRETE order statistics: the group's sorted non-null
    values at index ``ceil(q·n) - 1`` — probed ≡ DuckDB ``quantile_disc``
    for all (n, q). No interpolation arithmetic, so each bound is an input
    element and the clip is single IEEE ``min``/``max`` ops — bit-equal to
    a SQL ``least(greatest(x, lo), hi)`` against the joined bounds. Null
    values stay NULL (and never enter the bounds); an all-null group has
    no bounds and yields NULLs.

    Motion: ONE skinny exchange (group + id + value) on the group key;
    per partition one stable sort locates every group's two order
    statistics simultaneously (sizes → cumsum offsets → fancy-index), then
    a broadcast-free vectorized clip. Output: ``id_cols + [out_col]``.
    Same partitioning contract as every grouped kernel here: one group's
    rows fit one partition task.
    """
    if not (0 < lower_q <= upper_q <= 1):
        raise ValueError(
            f"need 0 < lower_q <= upper_q <= 1, got {lower_q}, {upper_q}"
        )
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    gcols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    icols = list(id_cols)
    cols = list(dict.fromkeys(gcols + icols + [value_col]))

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if not len(pdf):
            out = pdf[icols].copy()
            out[out_col] = pd.array([], dtype="Float64")
            return out
        nn = pdf[pdf[value_col].notna()]
        if len(nn):
            s = nn.sort_values(gcols + [value_col], kind="stable",
                               ignore_index=True)
            sizes = s.groupby(gcols, sort=False, dropna=False,
                              observed=True).size()
            n = sizes.to_numpy(np.int64)
            start = np.r_[0, np.cumsum(n)[:-1]]
            vals = s[value_col].to_numpy(np.float64)
            # quantile_disc index: ceil(q*n)-1, clamped for q -> 0
            ilo = np.maximum(np.ceil(lower_q * n).astype(np.int64) - 1, 0)
            ihi = np.maximum(np.ceil(upper_q * n).astype(np.int64) - 1, 0)
            bounds = pd.DataFrame(
                {"__lo__": vals[start + ilo], "__hi__": vals[start + ihi]},
                index=sizes.index,
            )
            pdf = pdf.join(bounds, on=gcols)
        else:
            pdf = pdf.assign(__lo__=np.nan, __hi__=np.nan)
        v = pdf[value_col].to_numpy(np.float64)
        isnull = np.isnan(v)  # null value OR all-null group (no bounds)
        c = np.minimum(
            np.maximum(v, pdf["__lo__"].to_numpy(np.float64)),
            pdf["__hi__"].to_numpy(np.float64),
        )
        out = pdf[icols].copy()
        out[out_col] = pd.arrays.FloatingArray(c, isnull | np.isnan(c))
        return out.reset_index(drop=True)

    return partitioned_groupby_map(
        ds.select_columns(cols), gcols, per_partition,
        num_partitions=num_partitions,
    )


def grouped_histogram(
    ds,
    group_cols,
    col: str,
    lo: float,
    hi: float,
    nbins: int,
    bucket_col: str = "bucket",
    edge_col: str = "lo_edge",
    cnt_col: str = "cnt",
    num_partitions: int | None = None,
):
    """Per-GROUP fixed-range equal-width histogram — :func:`histogram`
    keyed by segment (per-source length profiles, per-class score
    distributions). Same float contract: bucket ids ``floor((v-lo)/w)``
    and edges ``lo + bucket*w`` are single IEEE ops mirrored by a SQL
    oracle stating the identical expressions; out-of-range values and
    nulls are dropped; ``v == hi`` clips into the last bucket; only
    non-empty (group, bucket) cells are emitted (SQL GROUP BY shape).

    Motion: each block shrinks to ≤ (groups-in-block · nbins) partial
    rows via one vectorized keyed bincount (pandas groupby-size C
    kernel); ONE tiny exchange on the group key folds cells — the data
    column itself never shuffles. Output: group_cols + [bucket_col,
    edge_col, cnt_col].
    """
    if nbins < 1:
        raise ValueError(f"nbins must be >= 1, got {nbins}")
    lo = float(lo)
    hi = float(hi)
    w = (hi - lo) / nbins
    gcols = [group_cols] if isinstance(group_cols, str) else list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(gcols + [col]).to_pandas()
        v = pdf[col].to_numpy(np.float64)
        m = (v >= lo) & (v <= hi)  # NaN fails both -> dropped
        pdf = pdf[m]
        b = np.floor((v[m] - lo) / w).astype(np.int64)
        np.minimum(b, nbins - 1, out=b)
        pdf = pdf.assign(**{bucket_col: b})
        cells = (
            pdf.groupby(gcols + [bucket_col], sort=False, dropna=False,
                        observed=True)
            .size()
            .reset_index(name=cnt_col)
        )
        cells[cnt_col] = cells[cnt_col].astype(np.int64)
        return pa.Table.from_pandas(cells, preserve_index=False)

    parts = ds.select_columns(gcols + [col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(gcols + [bucket_col], sort=False, dropna=False,
                        observed=True)[cnt_col]
            .sum()
            .reset_index()
        )
        b = out[bucket_col].to_numpy(np.int64)
        out[edge_col] = lo + b.astype(np.float64) * w
        out[cnt_col] = out[cnt_col].astype(np.int64)
        return out[gcols + [bucket_col, edge_col, cnt_col]]

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    return partitioned_groupby_map(
        parts, gcols, finish, num_partitions=num_partitions
    )


def quantile_normalize(
    ds,
    group_cols: list[str],
    id_col: str,
    value_col: str,
    out_col: str = "vq",
    num_partitions: int | None = None,
):
    """Map every group's value distribution onto the GLOBAL distribution
    (quantile normalization, the microarray/feature-calibration classic):
    a row at within-group rank i of n is replaced by the global value at
    rank ``ceil(i·N/n)`` over all N rows — groups become exchangeable
    while each group's internal ordering is preserved.

    Pure SELECTION with an all-INTEGER index mapping (``(i·N + n − 1)
    // n``), so results are exact and engine-identical; orderings are the
    deterministic ``(value, id)`` total order on both sides.

    Distributed shape — three bounded motions, nothing on the driver:

    1. per-group ranks: ONE skinny (group, id, value) exchange, ranks by
       stable sort + grouped cumcount (pandas C kernels);
    2. global ranks: ``add_global_rank`` over (value, id) — sampled range
       boundaries, one payload-skinny shuffle (module docstring);
    3. one hash join (probe j ↔ mapping rank) — the join plan picks
       broadcast vs co-partitioned by size.

    Output: ``(id_col, out_col)`` with ``out_col`` the mapped global
    value. Null values rank last (inherited from both rank kernels) —
    feed non-null integer values (cents) for the exactness contract.
    Overflow bound: i·N < 2⁶³."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map
    from recipys_ray.ops.join import hash_join
    from recipys_ray.ops.rank import add_global_rank

    gcols = list(group_cols)
    n_total = int(ds.count())

    def group_ranks(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pd.DataFrame({
                id_col: pd.Series([], dtype=np.int64),
                "__j__": pd.Series([], dtype=np.int64),
            })
        pdf = pdf.sort_values(
            gcols + [value_col, id_col], kind="stable",
            ignore_index=True,
        )
        g = pdf.groupby(gcols, sort=False, dropna=False, observed=True)
        i = g.cumcount().to_numpy(np.int64) + 1
        n = g[value_col].transform("size").to_numpy(np.int64)
        j = (i * n_total + n - 1) // n
        return pd.DataFrame({
            id_col: pdf[id_col].to_numpy(),
            "__j__": j,
        })

    probe = partitioned_groupby_map(
        ds.select_columns(gcols + [id_col, value_col]),
        gcols, group_ranks, num_partitions=num_partitions,
    )

    ranked = add_global_rank(
        ds.select_columns([value_col, id_col]), value_col,
        tie_cols=[id_col], num_partitions=num_partitions,
    )

    def mapping(tbl: pa.Table) -> pa.Table:
        r = tbl.column("rank").to_numpy(zero_copy_only=False)
        return pa.table({
            "__j__": pa.array(r.astype(np.int64) + 1, pa.int64()),
            out_col: tbl.column(value_col),
        })

    lut = ranked.map_batches(mapping, batch_format="pyarrow")
    joined = hash_join(probe, lut, on="__j__", how="inner")
    return joined.select_columns([id_col, out_col])
