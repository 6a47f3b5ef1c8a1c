"""Distributed range (interval) join + windowed aggregation over the window.

``range_join(left, right, on, by, lower, upper)``: inner-join every left row
to the right rows whose ``on`` value falls in ``[left.on + lower,
left.on + upper]`` (both ends inclusive — SQL ``BETWEEN``), matching within
``by`` groups. The classic "attach every click within the preceding 24 h of
a purchase" shape that equi/as-of joins can't express (as-of returns ONE
match; range returns them all).

``range_agg(...)``: same window, but per-left-row aggregates (count / sum /
mean over right columns) computed from prefix sums over the sorted right
side — O(n log n) and NO pair materialization. At scale this is the windowed
aggregate: a pair join on a hot window is O(output) which can be quadratic;
the prefix-sum sweep stays linear in the inputs regardless of window hits.

Physical plan (the asof/shuffle-join plan, ops/asof.py): both sides are
stamped with the same deterministic ``hash(by) % P``, padded to a common
schema with a source tag, unioned, and co-shuffled ONCE; inside each
partition a composite-key binary-search sweep answers every left row's
window against the sorted right side vectorized — one ``np.lexsort`` + two
``np.searchsorted`` calls per partition, never per-group Python. Groups are
never split across partitions, so results are partition-count invariant.

Overflow note: the composite key is ``group_code * span + (t - t_min)`` in
int64. When ``n_groups * span`` would overflow (astronomically wide time
axes × many groups in ONE partition), the sweep processes group ranges in
chunks sized so each chunk's composite fits — still vectorized per chunk.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from recipys_ray.kernels.grouped import SRC
from recipys_ray.ops.join import _pa_type

_I64_MAX = np.iinfo(np.int64).max


def _offset_ticks(off, np_dtype) -> int:
    """Convert a window offset to integer ticks of the ``on`` axis: a
    pd.Timedelta/str for datetime axes (in the column's own unit), a plain
    number for numeric axes."""
    if np_dtype.kind == "M":
        unit = np.datetime_data(np_dtype)[0]
        td = pd.Timedelta(off).to_timedelta64()
        return int(td.astype(f"timedelta64[{unit}]").view("i8"))
    if isinstance(off, str):
        raise TypeError(
            f"string offset {off!r} needs a datetime 'on' column; "
            f"got numeric axis {np_dtype}"
        )
    return int(off)


def _axis_i8(s: pd.Series) -> np.ndarray:
    v = s.to_numpy()
    if v.dtype.kind == "M":
        return v.view("i8")
    return v.astype(np.int64, copy=False)


def _window_bounds(lf, rf, by, on, lower, upper):
    """Per-left-row [start, end) index ranges into the (group, on)-sorted
    right frame. Returns (start, end, order) with order the right sort
    permutation; start==end where the window is empty or the key is null."""
    nl = len(lf)
    axis_dtype = lf[on].to_numpy().dtype
    lo_ticks = _offset_ticks(lower, axis_dtype)
    hi_ticks = _offset_ticks(upper, axis_dtype)
    if lo_ticks > hi_ticks:
        raise ValueError(f"lower > upper ({lower!r} > {upper!r})")

    # group codes consistent across both sides; null keys → -1 (never match:
    # SQL join semantics)
    keys = pd.concat([lf[by], rf[by]], ignore_index=True)
    codes = (
        keys.groupby(by, sort=False, dropna=True)
        .ngroup()  # float + NaN when null-keyed rows were dropped
        .fillna(-1)
        .to_numpy(np.int64)
    )
    lg, rg = codes[:nl], codes[nl:]

    lt = _axis_i8(lf[on])
    rt = _axis_i8(rf[on])
    rkeep = rg >= 0
    if not rkeep.all():
        rg, rt = rg[rkeep], rt[rkeep]
    kept_idx = np.flatnonzero(rkeep)

    order = np.lexsort((rt, rg))
    rs_g, rs_t = rg[order], rt[order]

    start = np.zeros(nl, np.int64)
    end = np.zeros(nl, np.int64)
    if len(rs_t) == 0 or nl == 0:
        return start, end, kept_idx[order]

    tmin = int(rs_t.min())
    span = int(rs_t.max()) - tmin + 1
    ng = int(codes.max()) + 1

    lo_t = lt + np.int64(lo_ticks) - tmin
    hi_t = lt + np.int64(hi_ticks) - tmin
    ok = (lg >= 0) & (hi_t >= 0) & (lo_t <= span - 1)
    qlo = np.clip(lo_t, 0, span - 1)
    qhi = np.clip(hi_t, 0, span - 1)

    # composite sweep, chunked over group ranges if ng*span would overflow
    g_per_chunk = max(1, min(ng, (_I64_MAX // 2) // span))
    for g0 in range(0, ng, g_per_chunk):
        g1 = g0 + g_per_chunk
        rmask_lo = np.searchsorted(rs_g, g0, "left")
        rmask_hi = np.searchsorted(rs_g, g1 - 1, "right")
        comp = (rs_g[rmask_lo:rmask_hi] - g0) * np.int64(span) + (
            rs_t[rmask_lo:rmask_hi] - tmin
        )
        sel = ok & (lg >= g0) & (lg < g1)
        if not sel.any():
            continue
        base = (lg[sel] - g0) * np.int64(span)
        start[sel] = rmask_lo + np.searchsorted(comp, base + qlo[sel], "left")
        end[sel] = rmask_lo + np.searchsorted(comp, base + qhi[sel], "right")
    return start, end, kept_idx[order]


def _plan(left, right, on, right_on, by, right_suffix):
    by = [by] if isinstance(by, str) else list(by)
    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    ltypes = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
    r_value_cols = [c for c in rschema.names if c not in by and c != right_on]
    out_names = {
        c: (c + right_suffix if c in lcols else c) for c in r_value_cols
    }
    return by, lcols, ltypes, rtypes, r_value_cols, out_names


def _co_shuffle(left, right, by, on, right_on, all_cols, all_types,
                out_names, num_partitions, partition_fn):
    """Stamp hash(by)%P on both sides, pad to the common schema, union and
    run ``partition_fn`` per co-partition — the single all-to-all exchange
    both range ops ride."""
    from recipys_ray.kernels.grouped import PART, exchange, stamp_union

    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(left)

    r_rename = {right_on: on, **out_names}
    if right_on == on:
        r_rename.pop(right_on)
    combined, blocks = stamp_union(
        [(left, by, {}), (right, by, r_rename)], all_cols, all_types,
        num_partitions,
    )
    return exchange(combined, PART, partition_fn, num_partitions, blocks)


def range_join(
    left,
    right,
    on: str,
    by,
    lower,
    upper,
    right_on: str | None = None,
    right_suffix: str = "_r",
    num_partitions: int | None = None,
):
    """Interval inner join. Returns a Dataset with all left columns plus the
    matched right value columns (collisions suffixed; the right ``on``/``by``
    key columns are not duplicated). One output row per (left, right) pair
    with ``right.on BETWEEN left.on + lower AND left.on + upper`` and equal
    ``by`` keys; null keys never match (SQL semantics)."""
    right_on = on if right_on is None else right_on
    by, lcols, ltypes, rtypes, r_value_cols, out_names = _plan(
        left, right, on, right_on, by, right_suffix
    )
    out_value_cols = [out_names[c] for c in r_value_cols]
    all_cols = lcols + out_value_cols
    all_types = {**{c: ltypes[c] for c in lcols},
                 **{out_names[c]: rtypes[c] for c in r_value_cols}}
    out_schema = pa.schema([(c, all_types[c]) for c in all_cols])

    def join_partition(tbl: pa.Table) -> pa.Table:
        # split sides while still Arrow — converting the unioned partition
        # to pandas would float64-poison null-padded int columns (the
        # shuffle-join dtype lesson, ops/join.py join_partition)
        src = tbl.column(SRC)
        lf = tbl.filter(pc.equal(src, 0)).select(lcols).to_pandas()
        if len(lf) == 0:
            return out_schema.empty_table()
        rf = (
            tbl.filter(pc.equal(src, 1))
            .select(by + [on] + out_value_cols)
            .to_pandas()
        )
        start, end, order = _window_bounds(lf, rf, by, on, lower, upper)
        counts = end - start
        total = int(counts.sum())
        if total == 0:
            return out_schema.empty_table()
        l_take = np.repeat(np.arange(len(lf)), counts)
        offs = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        r_take = order[np.repeat(start, counts) + offs]
        out = lf.iloc[l_take].reset_index(drop=True)
        rv = rf[out_value_cols].iloc[r_take].reset_index(drop=True)
        for c in out_value_cols:
            out[c] = rv[c]
        return pa.Table.from_pandas(
            out[all_cols], schema=out_schema, preserve_index=False
        )

    return _co_shuffle(
        left, right, by, on, right_on, all_cols, all_types, out_names,
        num_partitions, join_partition,
    )


def range_agg(
    left,
    right,
    on: str,
    by,
    lower,
    upper,
    aggs: dict[str, tuple[str | None, str]],
    right_on: str | None = None,
    num_partitions: int | None = None,
):
    """Windowed aggregate: for every left row, aggregates over the right rows
    in ``[on + lower, on + upper]`` within equal ``by`` keys — WITHOUT
    materializing pairs (prefix-sum sweep; left-join semantics: every left
    row survives, empty windows aggregate to count 0 / sum,mean NULL).

    ``aggs``: ``{out_name: (right_col, fn)}`` with fn in
    {"count", "sum", "mean"}; ``(None, "count")`` counts window rows
    (COUNT(*) over matches). count never counts right-side nulls
    (SQL ``COUNT(col)``)."""
    right_on = on if right_on is None else right_on
    for out_name, (col, fn) in aggs.items():
        if fn not in ("count", "sum", "mean"):
            raise ValueError(f"unsupported agg fn {fn!r} for {out_name!r}")
        if col is None and fn != "count":
            raise ValueError(f"{out_name!r}: col=None only valid for count")

    by, lcols, ltypes, rtypes, r_value_cols, out_names = _plan(
        left, right, on, right_on, by, "_r"
    )
    need_cols = sorted(
        {c for c, _ in aggs.values() if c is not None}
    )
    for c in need_cols:
        if c not in r_value_cols:
            raise KeyError(
                f"agg column {c!r} must be a right value column "
                f"(not the on/by key); got value columns {r_value_cols}"
            )
    # ship ONLY the aggregated right columns through the exchange
    ship = [out_names.get(c, c) for c in need_cols]
    all_cols = lcols + ship
    all_types = {**{c: ltypes[c] for c in lcols},
                 **{out_names.get(c, c): rtypes[c] for c in need_cols}}

    def _agg_type(col, fn):
        if fn == "count":
            return pa.int64()
        src_t = rtypes[col]
        if fn == "sum" and pa.types.is_integer(src_t):
            return pa.int64()
        return pa.float64()

    out_schema = pa.schema(
        [(c, ltypes[c]) for c in lcols]
        + [(n, _agg_type(c, f)) for n, (c, f) in aggs.items()]
    )
    out_cols = list(out_schema.names)

    right = right.select_columns(by + [right_on] + need_cols)
    def agg_partition(tbl: pa.Table) -> pa.Table:
        src = tbl.column(SRC)
        lf = tbl.filter(pc.equal(src, 0)).select(lcols).to_pandas()
        if len(lf) == 0:
            return out_schema.empty_table()
        rf = (
            tbl.filter(pc.equal(src, 1))
            .select(by + [on] + ship)
            .to_pandas()
        )
        start, end, order = _window_bounds(lf, rf, by, on, lower, upper)
        out = {c: lf[c] for c in lcols}
        n_hits = end - start  # rows in window (incl. null agg values)
        prefix_cache: dict[str, tuple] = {}
        for out_name, (col, fn) in aggs.items():
            if col is None:
                out[out_name] = pd.Series(n_hits, dtype="int64")
                continue
            key = out_names.get(col, col)
            if key not in prefix_cache:
                vn = rf[key].iloc[order].to_numpy()
                notnull = ~pd.isna(vn)
                cnt = np.concatenate(
                    [[0], np.cumsum(notnull.astype(np.int64))]
                )
                filled = np.where(notnull, vn, 0)
                if filled.dtype.kind in "iu":
                    csum = np.concatenate(
                        [[0], np.cumsum(filled.astype(np.int64))]
                    )
                else:
                    csum = np.concatenate(
                        [[0.0], np.cumsum(filled.astype(np.float64))]
                    )
                prefix_cache[key] = (cnt, csum)
            cnt, csum = prefix_cache[key]
            c_win = cnt[end] - cnt[start]
            if fn == "count":
                out[out_name] = pd.Series(c_win, dtype="int64")
                continue
            s_win = csum[end] - csum[start]
            if fn == "mean":
                with np.errstate(invalid="ignore", divide="ignore"):
                    vals = s_win / c_win
                out[out_name] = pd.Series(
                    np.where(c_win > 0, vals, np.nan), dtype="float64"
                )
            else:  # sum — NULL over an all-null/empty window (SQL SUM)
                s = pd.Series(s_win)
                out[out_name] = s.mask(c_win == 0)
        pdf = pd.DataFrame(out)
        return pa.Table.from_pandas(
            pdf[out_cols], schema=out_schema, preserve_index=False
        )

    return _co_shuffle(
        left, right, by, on, right_on, all_cols, all_types,
        {c: out_names.get(c, c) for c in need_cols}, num_partitions,
        agg_partition,
    )
