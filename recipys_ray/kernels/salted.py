"""Skew handling: salted sub-partitioning for mega-groups.

A hash-partitioned grouped scan (kernels/grouped.py) is skew-bounded by the
largest single group: one 10⁸-turn conversation would blow the memory budget
of whichever partition its hash lands in. This module bounds that:

1. **Detect** — :func:`find_hot_groups`: EXACT hot-group detection for any
   row layout (per-block combiner counts; driver merge under a cap, hash-
   partitioned distributed sum+filter above it).
2. **Salt** — the stamp stage routes hot-group rows to
   ``hash((group, salt)) % P`` where ``salt = first_sort_col // chunk_span``:
   contiguous chunks of the conversation scatter across partitions, so every
   partition stays bounded by ``chunk_span``, not by group size. A
   ``__salt__`` column keeps chunk identity (two chunks of one group that
   collide into the same partition must not be treated as contiguous).
3. **Execute** — when every step supports the chunk-merge protocol, the
   chunk-local path runs (kernels/chunked.py: per-chunk carry states →
   driver fold → in-place prefix correction; ONE payload shuffle, every
   task bounded by the chunk span). Otherwise this module's LEGACY path
   runs: exact features for each hot group in one task over a SKINNY
   projection (group/sort/kernel columns only), merged back into the
   salted main pass by a ``groupby((group, salt))`` sort alignment —
   correct but bounded by the largest group, kept as the fallback for
   MEDIAN / time-windowed rolling / fill limits on the legacy protocol.

Salted ≡ unsalted is property-tested for BOTH paths (tests/test_salted.py)
and driver-verified (historical_salted query).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import (
    PART,
    SRC,
    GroupedStage,
    _PartitionRunner,
    exchange,
    hash_part,
    key_frame,
    partitioned_groupby_map,
    plan_exchange,
    stamp_union,
)

SALT = "__salt__"


class SaltConfig:
    """``threshold``: groups with more rows than this get salted.
    ``chunk_span``: salt window in units of the FIRST sort column (for a
    dense ``turn_idx`` this approximates rows per chunk; for a timestamp it
    is microseconds).
    ``max_carry_rows``: hard bound on the legacy whole-group carry path
    (non-chunk-mergeable chains: expanding MEDIAN, whole-frame functions).
    That path materializes each hot group's skinny projection in ONE task;
    a group larger than this errors cleanly at planning time instead of
    OOMing a worker mid-shuffle."""

    def __init__(
        self,
        threshold: int = 2_000_000,
        chunk_span: int = 250_000,
        max_carry_rows: int = 50_000_000,
    ):
        self.threshold = threshold
        self.chunk_span = chunk_span
        self.max_carry_rows = max_carry_rows


# --------------------------------------------------------------------- #
# 1. hot-group detection (cheap partial-count pass, heavy-hitters only)
# --------------------------------------------------------------------- #
def find_hot_groups(
    ds, group_cols: list[str], threshold: int,
    block_floor: Optional[int] = None,
    driver_merge_cap: int = 20_000_000,
    return_all_counts: bool = False,
) -> dict:
    """{group_key_tuple_or_scalar: total_count} for groups over threshold.

    EXACT detection regardless of row layout: per-block partial counts (the
    combiner — one row per distinct group per 256k-row batch) feed a small
    distributed ``groupby(group).sum()``; only groups over the threshold
    ever reach the driver. An earlier per-block floor heuristic missed
    mega-groups whose rows are scattered across blocks (each block's share
    under the floor) — a real failure mode on shuffled 100-TB layouts.
    ``block_floor`` is retained for API compatibility and ignored.
    """
    _ = block_floor
    cols = list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas()
        vc = (
            pdf.groupby(cols, sort=False, observed=True)
            .size()
            .reset_index(name="__cnt__")
        )
        return pa.Table.from_pandas(vc, preserve_index=False)

    counts = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow", batch_size=262_144
    ).materialize()

    cap = driver_merge_cap  # partial rows the driver merges directly
    if counts.count() <= cap:
        pdf = counts.to_pandas()
        tot = pdf.groupby(cols, sort=False, observed=True)["__cnt__"].sum()
        if return_all_counts:
            # duckdb-parity pre-pass reuses this pass's exact counts (the
            # offsets map needs EVERY group, hot and cold)
            hot = tot[tot > threshold]
            return (
                {k: int(v) for k, v in hot.items()},
                {k: int(v) for k, v in tot.items()},
            )
        tot = tot[tot > threshold]
        return {k: int(v) for k, v in tot.items()}
    if return_all_counts:
        raise ValueError(
            "duckdb-parity mode needs the full per-group count map on the "
            "driver; the corpus exceeds driver_merge_cap partial rows — "
            "parity is a verification mode, run it at oracle scale"
        )

    # corpus with more distinct (group, block) partials than the driver
    # should hold: hash-partition the skinny count rows, sum + filter
    # inside each partition — only hot survivors reach the driver
    def reduce_part(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = (
            pdf.groupby(cols, sort=False, observed=True)["__cnt__"]
            .sum()
            .reset_index()
        )
        return tot[tot["__cnt__"] > threshold]

    hot_rows = partitioned_groupby_map(
        counts, cols, reduce_part, 256
    ).to_pandas()
    if hot_rows.empty:
        return {}
    if len(cols) == 1:
        keys = hot_rows[cols[0]].tolist()
    else:
        keys = list(hot_rows[cols].itertuples(index=False, name=None))
    return dict(zip(keys, hot_rows["__cnt__"].astype(int).tolist()))


# --------------------------------------------------------------------- #
# 2. salted stamp
# --------------------------------------------------------------------- #
class SaltedStamp:
    def __init__(
        self,
        group_cols: list[str],
        sort_cols: list[str],
        p: int,
        hot_keys: set,
        chunk_span: int,
    ):
        self.group_cols = group_cols
        self.salt_col = sort_cols[0]
        self.p = p
        self.hot_keys = hot_keys
        self.chunk_span = chunk_span

    def _salt_values(self, tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(is_hot bool mask, salt int64 per row)."""
        pdf = key_frame(tbl, self.group_cols)
        hot = _hot_mask_pdf(pdf, self.group_cols, self.hot_keys)
        sv = tbl.column(self.salt_col)
        if pa.types.is_timestamp(sv.type) or pa.types.is_duration(sv.type):
            sv = sv.cast(pa.int64())
        salt_all = sv.to_numpy(zero_copy_only=False).astype(np.int64)
        salt = np.where(hot, salt_all // self.chunk_span, 0)
        return hot, salt

    def __call__(self, tbl: pa.Table) -> pa.Table:
        pdf = key_frame(tbl, self.group_cols)
        part = hash_part(pdf, self.group_cols, self.p)
        hot, salt = self._salt_values(tbl)
        if hot.any():
            pdf2 = pdf.loc[hot].copy()
            pdf2[SALT] = salt[hot]
            part[hot] = hash_part(pdf2, self.group_cols + [SALT], self.p)
        tbl = tbl.append_column(PART, pa.array(part, pa.int32()))
        tbl = tbl.append_column(SALT, pa.array(salt, pa.int64()))
        return tbl


# --------------------------------------------------------------------- #
# 3+4. carry pass and merge
# --------------------------------------------------------------------- #
def _hot_mask_pdf(
    pdf: pd.DataFrame, group_cols: list[str], hot_keys: set
) -> np.ndarray:
    """Vectorized hot-group membership (pandas C isin, never a row loop)."""
    if len(group_cols) == 1:
        return pdf[group_cols[0]].isin(hot_keys).to_numpy()
    return (
        pd.MultiIndex.from_frame(pdf[group_cols]).isin(hot_keys)
    )


def _hot_mask(tbl: pa.Table, group_cols: list[str], hot_keys: set) -> np.ndarray:
    return _hot_mask_pdf(tbl.select(group_cols).to_pandas(), group_cols, hot_keys)


def run_salted_chain(
    ds,
    group_cols: list[str],
    sort_cols: list[str],
    steps: Sequence,
    num_partitions: int,
    salt: SaltConfig,
):
    """Grouped chain with mega-group salting (see module docstring).

    When EVERY step supports the chunk-merge protocol, execution routes to
    the chunk-local path (kernels/chunked.py): per-chunk states + driver
    fold + in-place prefix correction — every task bounded by the chunk
    span, one payload shuffle total. Otherwise this legacy whole-group
    carry path runs (exact, but each mega-group whole in one task on the
    skinny projection)."""
    from recipys_ray.kernels.grouped import _lazy_size_bytes

    # The salted machinery is MULTI-PASS by construction (hot-group
    # detection, chunk counts, state passes, the payload exchange). Pin the
    # input once so those passes don't re-execute the upstream pipeline
    # per pass — same policy as the recipe's fit flush; the object store
    # spills rather than holding it in heap. Pure reads (size knowable
    # from plan metadata) skip the pin: re-reading pruned parquet per pass
    # is cheaper than writing a spill copy first. (Round-4 perf silently
    # relied on choose_partitions' eager size_bytes() materializing
    # derived inputs; this makes the pin explicit — measured 8.3 s → 3.6 s
    # on the sf0.1 salted query after size_bytes went metadata-only.)
    if _lazy_size_bytes(ds) is None:
        ds = ds.materialize()

    if getattr(steps[0], "salt_grid_capable", False):
        from recipys_ray.kernels.chunked import (
            run_salted_resample_chain,
            run_salted_resample_grid,
        )

        if len(steps) == 1:
            return run_salted_resample_grid(
                ds, group_cols, sort_cols, steps[0],
                num_partitions=num_partitions, salt=salt,
            )
        tail_mergeable = all(
            getattr(s, "chunk_mergeable", False)
            and not getattr(s, "_parity_chunked", False)
            for s in steps[1:]
        )
        if tail_mergeable:
            # fused single-payload-shuffle path: the chunk runner rebuilds
            # each chunk's resampled rows (grid head) before measuring /
            # correcting the downstream chunk states
            return run_salted_resample_chain(
                ds, group_cols, sort_cols, steps,
                num_partitions=num_partitions, salt=salt,
            )
        # non-mergeable (or duckdb-parity) tail: bounded grid resample
        # first, then re-salt the tail over the RESAMPLED rows (hot-group
        # detection re-runs — resampling changes row counts). Two bounded
        # payload shuffles.
        mid = run_salted_resample_grid(
            ds, group_cols, sort_cols, steps[0],
            num_partitions=num_partitions, salt=salt,
        )
        return run_salted_chain(
            mid, group_cols, sort_cols, list(steps[1:]),
            num_partitions=num_partitions, salt=salt,
        )
    stages = [GroupedStage(s) for s in steps]
    if any(st.needs_all for st in stages):
        raise ValueError(
            "Salted execution supports projected kernels only (row-count "
            "changing or whole-frame steps can't chunk-merge); run without "
            "salting."
        )
    if all(getattr(s, "chunk_mergeable", False) for s in steps):
        from recipys_ray.kernels.chunked import run_salted_chunked

        return run_salted_chunked(
            ds, group_cols, sort_cols, steps,
            num_partitions=num_partitions, salt=salt,
        )
    hot = find_hot_groups(ds, group_cols, salt.threshold)
    if not hot:
        from recipys_ray.kernels.grouped import run_grouped_chain

        return run_grouped_chain(
            ds, group_cols, sort_cols, steps,
            num_partitions=num_partitions,
        )

    cap = getattr(salt, "max_carry_rows", None)
    if cap is not None:
        biggest_key, biggest = max(hot.items(), key=lambda kv: kv[1])
        if biggest > cap:
            nonmerge = [
                type(s).__name__ for s in steps
                if not getattr(s, "chunk_mergeable", False)
            ]
            raise ValueError(
                f"salted whole-group carry: hot group {biggest_key!r} has "
                f"{biggest} rows > SaltConfig.max_carry_rows={cap}. The "
                f"chain contains non-chunk-mergeable step(s) {nonmerge} "
                f"(e.g. expanding MEDIAN), which require materializing each "
                f"hot group in one task. Raise max_carry_rows if a single "
                f"worker can hold the skinny group, drop the non-mergeable "
                f"steps so the bounded chunk-local path runs, or — for "
                f"expanding MEDIAN — opt into the bounded approximate carry "
                f"with StepHistorical(approx_median_chunked=True)."
            )

    hot_keys = set(hot)
    stamp = SaltedStamp(
        group_cols, sort_cols, num_partitions, hot_keys, salt.chunk_span
    )
    plan = plan_exchange(ds, num_partitions)
    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )

    # main pass: group identity includes the salt, so a chunk never sees
    # another chunk's rows; hot-chunk feature values are placeholders
    runner = _PartitionRunner(group_cols + [SALT], sort_cols, stages)

    def run_partition(tbl: pa.Table) -> pa.Table:
        return runner(tbl)

    # materialize: the main output is consumed twice (cold + hot split) and
    # its schema is needed for the union — one pinned copy beats re-running
    # the whole shuffle per consumer
    main_out = exchange(
        stamped, PART, run_partition, num_partitions, plan.blocks
    ).materialize()

    # carry pass: exact features for hot groups on the skinny projection
    feature_cols: list[str] = []
    for st in stages:
        for c in st.outputs:
            if c not in feature_cols:
                feature_cols.append(c)
    needed = list(
        dict.fromkeys(
            [c for st in stages for c in st.inputs] + group_cols + sort_cols
        )
    )

    def pick_hot(tbl: pa.Table) -> pa.Table:
        mask = _hot_mask(tbl, group_cols, hot_keys)
        return tbl.select(needed).filter(pa.array(mask))

    conv_runner = _PartitionRunner(group_cols, sort_cols, stages)

    def carry_partition(tbl: pa.Table) -> pa.Table:
        out = conv_runner(tbl)
        keep = list(dict.fromkeys(group_cols + sort_cols + feature_cols))
        out = out.select([c for c in keep if c in out.column_names])
        return out.append_column(SALT, pa.array(stamp._salt_values(out)[1]))

    carry = partitioned_groupby_map(
        ds.map_batches(pick_hot, batch_format="pyarrow"), group_cols,
        carry_partition, num_partitions, batch_format="pyarrow",
    )

    # merge: swap exact features into the salted main-pass hot rows
    def split_hot(tbl: pa.Table) -> pa.Table:
        mask = _hot_mask(tbl, group_cols, hot_keys)
        return tbl.filter(pa.array(mask))

    def split_cold(tbl: pa.Table) -> pa.Table:
        mask = _hot_mask(tbl, group_cols, hot_keys)
        return tbl.filter(pa.array(~mask))

    cold = main_out.map_batches(split_cold, batch_format="pyarrow")
    hot_main = main_out.map_batches(split_hot, batch_format="pyarrow")
    kcols = group_cols + [SALT]

    def merge_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        # alignment is by stable sorts on (group, salt, sort key): requires
        # one carry row per main row in every chunk; (group, sort) ties
        # within a chunk would allow order-dependent features to swap
        # payload rows, so this path documents/requires effectively-unique
        # sort keys per chunk (the chunk-merge path in kernels/chunked.py
        # has no such constraint)
        src = pdf[SRC].to_numpy()
        main_rows, carry_rows = (
            pdf[src == tag].sort_values(
                kcols + sort_cols, kind="stable", ignore_index=True
            )
            for tag in (0, 1)
        )
        sizes = pd.concat(
            [rows.groupby(kcols).size() for rows in (main_rows, carry_rows)],
            axis=1,
        ).fillna(0)
        bad = sizes[sizes[0] != sizes[1]]
        if len(bad):
            n_main, n_carry = bad.iloc[0].astype(int)
            raise ValueError(
                f"salted carry merge misalignment: {n_main} main vs "
                f"{n_carry} carry rows for one (group, salt) chunk"
            )
        main_rows[feature_cols] = carry_rows[feature_cols].to_numpy()
        return main_rows.drop(columns=[SRC, PART])

    main_schema = hot_main.schema()
    union, blocks = stamp_union(
        [(hot_main, kcols, {}), (carry, kcols, {})],
        main_schema.names, dict(zip(main_schema.names, main_schema.types)),
        num_partitions,
    )
    merged = exchange(
        union, PART, merge_partition, num_partitions, blocks,
        batch_format="pandas",
    )

    def drop_salt(tbl: pa.Table) -> pa.Table:
        return tbl.drop_columns([c for c in (SALT,) if c in tbl.column_names])

    return cold.map_batches(drop_salt, batch_format="pyarrow").union(
        merged.map_batches(drop_salt, batch_format="pyarrow")
    )
