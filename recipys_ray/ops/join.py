"""Distributed equi-join over Ray Datasets — broadcast and co-partitioned
shuffle strategies.

The engine's recipes mostly avoid joins (features are computed inside one
grouped shuffle), but a real pipeline joins dimension tables (metadata,
licences, source manifests) onto the fact stream constantly. Two physical
plans, chosen by ``strategy`` (default ``auto`` by right-side size):

- **broadcast** — the right side is collected ONCE on the driver (guarded
  by ``broadcast_max_bytes``), ``ray.put`` into the object store, and every
  map task joins its batch against the shared copy (zero-copy plasma read,
  one pandas C hash-merge per batch). No shuffle at all: the right plan at
  100 TB facts × 10 MB dims.
- **shuffle** — both sides are stamped with the same deterministic
  ``hash(key) % P`` partitioner, padded to a common schema with a source
  tag, unioned, and co-shuffled ONCE (the asof-join plan, ops/asof.py);
  each partition then runs one pandas merge over its rows. Both sides may
  be arbitrarily large; only the one all-to-all exchange moves data.

Supported: ``how`` in {"inner", "left", "outer", "semi", "anti"} (outer is
shuffle-plan-only — a broadcast would emit unmatched right rows once per
left batch); differing key names via ``right_on``; duplicate right keys
multiply rows (standard SQL semantics).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

# a dim table above this is a mistake to broadcast — force the shuffle plan
DEFAULT_BROADCAST_MAX_BYTES = 256 << 20


def _pa_type(t) -> pa.DataType:
    """Dataset.schema() yields Arrow types for Arrow-backed blocks but
    numpy dtypes for pandas-backed ones — normalize to Arrow (object → string,
    the pandas convention)."""
    if isinstance(t, pa.DataType):
        return t
    dt = np.dtype(t) if not isinstance(t, np.dtype) else t
    if dt.kind == "O":
        return pa.string()
    if dt.kind == "M":
        return pa.timestamp("ns")
    return pa.from_numpy_dtype(dt)


def _plan_columns(left, right, left_on, right_on, right_suffix):
    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    r_value_cols = [c for c in rschema.names if c not in right_on]
    out_names = {
        c: (c + right_suffix if c in lcols else c) for c in r_value_cols
    }
    return lschema, rschema, lcols, r_value_cols, out_names


# Per-worker cache of resolved broadcast frames. Broadcast join runs as
# PLAIN TASKS (no actor pool — a (2,8) actor pool paid ~2 s warm-up per
# query at sf0.1, 3× the join itself); Ray reuses worker processes across
# tasks, so caching the deserialized frame by ObjectRef gives actor-style
# amortization of the ray.get without the pool.
_BCAST_CACHE: dict = {}


def _resolve_broadcast(ref) -> pd.DataFrame:
    rf = _BCAST_CACHE.get(ref)
    if rf is None:
        rf = ray.get(ref)
        _BCAST_CACHE.clear()  # hold at most one dim table per worker
        _BCAST_CACHE[ref] = rf
    return rf


def _join_batch(pdf: pd.DataFrame, right_ref, left_on, right_on,
                how) -> pd.DataFrame:
    """One pandas hash-merge of a left batch against the broadcast right
    side (already renamed / deduped / null-key-dropped on the driver)."""
    rf = _resolve_broadcast(right_ref)
    if how in ("semi", "anti"):
        probe = pdf[left_on].merge(
            rf,
            how="left",
            left_on=left_on,
            right_on=right_on,
            sort=False,
            indicator="__in_right__",
        )["__in_right__"].to_numpy()
        mask = probe == "both"
        return pdf[mask if how == "semi" else ~mask]
    out = pdf.merge(
        rf, how=how, left_on=left_on, right_on=right_on, sort=False
    )
    drop = [c for c in right_on if c not in pdf.columns]
    if drop:
        out = out.drop(columns=drop)
    return out


def hash_join(
    left,
    right,
    on,
    right_on=None,
    how: str = "inner",
    right_suffix: str = "_r",
    strategy: str = "auto",
    num_partitions: int | None = None,
    broadcast_max_bytes: int = DEFAULT_BROADCAST_MAX_BYTES,
    concurrency=None,
):
    """Equi-join two Datasets on ``on`` (left) = ``right_on`` (right,
    defaults to ``on``). Returns a Dataset with all left columns plus the
    right value columns (collisions suffixed, right key columns dropped).

    ``strategy``: "broadcast" | "shuffle" | "auto" (broadcast iff the
    right side's reported ``size_bytes`` fits ``broadcast_max_bytes``)."""
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(
            f"how must be 'inner', 'left', 'outer', 'semi' or 'anti', "
            f"got {how!r}"
        )
    if how == "outer" and strategy == "broadcast":
        raise ValueError(
            "full outer join requires the co-partitioned shuffle plan: a "
            "broadcast join would emit unmatched right rows once per left "
            "batch; use strategy='shuffle' (or 'auto')"
        )
    if how == "outer":
        strategy = "shuffle"
    left_on = [on] if isinstance(on, str) else list(on)
    right_on = (
        left_on if right_on is None
        else ([right_on] if isinstance(right_on, str) else list(right_on))
    )
    if len(left_on) != len(right_on):
        raise ValueError("on and right_on must have the same length")

    if strategy == "auto":
        sz = right.size_bytes()
        strategy = (
            "broadcast"
            if sz is not None and sz <= broadcast_max_bytes
            else "shuffle"
        )
    if strategy == "broadcast":
        return _broadcast_join(
            left, right, left_on, right_on, how, right_suffix,
            broadcast_max_bytes, concurrency,
        )
    if strategy == "shuffle":
        return _shuffle_join(
            left, right, left_on, right_on, how, right_suffix,
            num_partitions,
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def skew_join(
    left,
    right,
    on,
    right_on=None,
    how: str = "inner",
    right_suffix: str = "_r",
    num_partitions: int | None = None,
    hot_key_factor: float = 4.0,
    max_hot_keys: int = 10_000,
    broadcast_max_bytes: int = DEFAULT_BROADCAST_MAX_BYTES,
    pin: bool = False,
):
    """Skew-aware hybrid equi-join: hot keys take the broadcast plan, the
    cold remainder takes the co-partitioned shuffle plan.

    A plain shuffle join sends every row of a hot key to ONE partition
    task — the classic straggler/OOM at web scale (a handful of key values
    owning 1-10% of a 100-TB fact stream each). Here:

    1. a skinny pass exactly counts left keys per block (per-block
       top-``4·max_hot_keys`` partial, driver merge) — keys whose merged
       count ≥ ``hot_key_factor × rows/num_partitions`` are *hot*.
       Detection may UNDER-count a key spread thin across blocks, which
       only routes it cold — routing never changes the join result, so
       the detector is free to be approximate while the output stays
       bit-identical to a single-plan join;
    2. hot-key right rows (small: few keys × dim fan-out, guarded by
       ``broadcast_max_bytes``) broadcast once; hot left rows join
       map-side and NEVER move;
    3. cold rows of both sides run the ordinary co-partitioned shuffle
       join — now skew-free by construction;
    4. both branches are cast to one planned Arrow schema and unioned.

    ``how`` ∈ {inner, left, semi, anti} (outer needs unmatched-right
    bookkeeping across branches — use ``hash_join(strategy='shuffle')``).
    ``pin=True`` materializes the inputs once before the multi-pass scan —
    set it when ``left``/``right`` are derived pipelines rather than
    parquet reads (the run_salted_chain policy; re-reading pruned parquet
    beats writing a spill copy, so reads default to streaming re-reads).
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"skew_join supports inner/left/semi/anti, got {how!r}"
        )
    left_on = [on] if isinstance(on, str) else list(on)
    right_on_l = (
        left_on if right_on is None
        else ([right_on] if isinstance(right_on, str) else list(right_on))
    )
    if len(left_on) != len(right_on_l):
        raise ValueError("on and right_on must have the same length")
    if pin:
        left = left.materialize()
        right = right.materialize()
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(left)

    # ---- hot-key detection (approximate-safe, see docstring) ------------ #
    keep = 4 * max_hot_keys

    def count_partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(left_on).to_pandas()
        out = pdf.value_counts(dropna=True).reset_index(name="__c__")
        if len(out) > keep:
            out = out.nlargest(keep, "__c__")
        out["__c__"] = out["__c__"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = left.map_batches(
        count_partial, batch_format="pyarrow"
    ).to_pandas()
    total = int(counts["__c__"].sum()) if len(counts) else 0
    merged = (
        counts.groupby(left_on, sort=False)["__c__"].sum()
        if len(counts)
        else pd.Series(dtype=np.int64)
    )
    thresh = max(2.0, hot_key_factor * total / max(num_partitions, 1))
    hot = merged[merged >= thresh]
    if len(hot) > max_hot_keys:
        hot = hot.nlargest(max_hot_keys)
    hot_keys = hot.reset_index()[left_on].reset_index(drop=True)

    if hot_keys.empty:
        return _shuffle_join(
            left, right, left_on, right_on_l, how, right_suffix,
            num_partitions,
        )

    # ---- split both sides by hot-key membership ------------------------- #
    hot_ref = ray.put(hot_keys.assign(__hot__=np.int8(1)))

    def member_filter(key_cols, positive: bool):
        def fn(pdf: pd.DataFrame) -> pd.DataFrame:
            hk = _resolve_broadcast(hot_ref)
            probe = pdf[key_cols].copy()
            probe.columns = left_on
            mask = (
                probe.merge(hk, how="left", on=left_on, sort=False)
                ["__hot__"].notna().to_numpy()
            )
            return pdf[mask if positive else ~mask]

        return fn

    left_hot = left.map_batches(
        member_filter(left_on, True), batch_format="pandas"
    )
    left_cold = left.map_batches(
        member_filter(left_on, False), batch_format="pandas"
    )
    right_hot = right.map_batches(
        member_filter(right_on_l, True), batch_format="pandas"
    )
    right_cold = right.map_batches(
        member_filter(right_on_l, False), batch_format="pandas"
    )

    # ---- planned output schema shared by both branches ------------------ #
    r_for_plan = (
        right.select_columns(list(right_on_l))
        if how in ("semi", "anti")
        else right
    )
    lschema, rschema, lcols, r_value_cols, out_names = _plan_columns(
        left, r_for_plan, left_on, right_on_l, right_suffix
    )
    ltypes = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
    out_cols = lcols + [out_names[c] for c in r_value_cols]
    out_types = {**{c: ltypes[c] for c in lcols},
                 **{out_names[c]: rtypes[c] for c in r_value_cols}}
    out_schema = pa.schema([(c, out_types[c]) for c in out_cols])

    def cast_branch(pdf: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(
            pdf.reindex(columns=out_cols), schema=out_schema,
            preserve_index=False,
        )

    # pin the (small) hot dim slice: _broadcast_join reads its size AND
    # collects it — one execution, not two
    hot_out = _broadcast_join(
        left_hot, right_hot.materialize(), left_on, right_on_l, how,
        right_suffix, broadcast_max_bytes, None,
    ).map_batches(cast_branch, batch_format="pandas")
    cold_out = _shuffle_join(
        left_cold, right_cold, left_on, right_on_l, how, right_suffix,
        num_partitions,
    ).map_batches(cast_branch, batch_format="pandas")
    return hot_out.union(cold_out)


def _broadcast_join(left, right, left_on, right_on, how, right_suffix,
                    broadcast_max_bytes, concurrency):
    _, _, lcols, r_value_cols, out_names = _plan_columns(
        left, right, left_on, right_on, right_suffix
    )
    sz = right.size_bytes()
    if sz is not None and sz > broadcast_max_bytes:
        raise ValueError(
            f"broadcast join: right side is {sz} bytes > "
            f"broadcast_max_bytes={broadcast_max_bytes}; use "
            f"strategy='shuffle' (co-partitioned, both sides unbounded)."
        )
    # all right-side prep happens ONCE on the driver, before the broadcast
    rf = right.to_pandas().rename(columns=out_names)
    if how in ("semi", "anti"):
        # existence joins need only the DISTINCT right keys — no value
        # columns ride the broadcast, no row multiplication possible
        rf = rf[right_on].drop_duplicates()
    # SQL equi-join: NULL keys never match. pandas merge matches NaN/None
    # against each other, so drop null-keyed right rows up front — a null
    # left key then finds nothing (semi drops it, anti keeps it, inner
    # drops it, left pads it: all the SQL answers).
    rf = rf.dropna(subset=right_on)
    right_ref = ray.put(rf)
    kwargs = dict(
        fn_kwargs=dict(
            right_ref=right_ref,
            left_on=left_on,
            right_on=right_on,
            how=how,
        ),
        batch_format="pandas",
    )
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return left.map_batches(_join_batch, **kwargs)


def _shuffle_join(left, right, left_on, right_on, how, right_suffix,
                  num_partitions):
    if how in ("semi", "anti"):
        # existence joins ship only the right KEY columns through the
        # exchange — project before stamping
        right = right.select_columns(list(right_on))
    lschema, rschema, lcols, r_value_cols, out_names = _plan_columns(
        left, right, left_on, right_on, right_suffix
    )
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(left)

    ltypes = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
    out_value_cols = [out_names[c] for c in r_value_cols]
    all_cols = lcols + out_value_cols
    all_types = {**{c: ltypes[c] for c in lcols},
                 **{out_names[c]: rtypes[c] for c in r_value_cols}}

    from recipys_ray.kernels.grouped import PART, SRC, exchange, stamp_union

    # the right key columns ride along under the LEFT key names so the
    # in-partition merge is a plain same-name merge
    r_rename = {**dict(zip(right_on, left_on)), **out_names}
    combined, blocks = stamp_union(
        [(left, left_on, {}), (right, right_on, r_rename)], all_cols,
        all_types, num_partitions,
    )

    out_schema = pa.schema([(c, all_types[c]) for c in all_cols])

    def join_partition(tbl: pa.Table) -> pa.Table:
        # Split the two sides while still Arrow: converting the UNIONED
        # partition to pandas would poison the left side's int columns with
        # the right side's null padding (int32 → float64), changing the
        # output dtype — the driver's value hash is dtype-sensitive.
        import pyarrow.compute as pc

        src = tbl.column(SRC)
        lf = tbl.filter(pc.equal(src, 0)).select(lcols).to_pandas()
        if len(lf) == 0 and how != "outer":
            return out_schema.empty_table()
        rf = (
            tbl.filter(pc.equal(src, 1))
            .select(left_on + out_value_cols)
            .to_pandas()
        )
        # NULL join keys never match (SQL); pandas merge would NaN-match
        r_null = rf[rf[left_on].isna().any(axis=1)] if how == "outer" else None
        rf = rf.dropna(subset=left_on)
        if how == "outer":
            out = lf.merge(rf, how="outer", on=left_on, sort=False)
            if len(r_null):
                # SQL FULL OUTER: null-keyed right rows appear unmatched
                # (they match nothing; dropping them would lose rows)
                out = pd.concat(
                    [out, r_null.reindex(columns=out.columns)],
                    ignore_index=True,
                )
            return pa.Table.from_pandas(
                out[all_cols], schema=out_schema, preserve_index=False
            )
        if how in ("semi", "anti"):
            probe = lf[left_on].merge(
                rf.drop_duplicates(), how="left", on=left_on,
                sort=False, indicator="__in_right__",
            )["__in_right__"].to_numpy()
            mask = probe == "both"
            out = lf[mask if how == "semi" else ~mask]
        else:
            out = lf.merge(rf, how=how, on=left_on, sort=False)
        # from_pandas honours the planned schema: NaN introduced by a left
        # join on integer right-value columns becomes a proper Arrow null.
        return pa.Table.from_pandas(
            out[all_cols], schema=out_schema, preserve_index=False
        )

    return exchange(
        combined, PART, join_partition, num_partitions, blocks
    )
