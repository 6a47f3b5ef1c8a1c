"""Skew handling: salted sub-partitioning for mega-groups, and the one
route policy of every fused grouped chain.

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
3. **Route** — :func:`route_chain` is the one route policy of a fused
   grouped chain, read from the steps' declared flags. ``Recipe._walk``
   asks it once per grouped stage, for ``_stage`` and ``explain()``;
   :func:`run_salted_chain` and ``run_grouped_chain``'s no-group branch
   dispatch on it. PS counts the payload shuffles, the exchanges that move
   every row (``explain()``'s total). A salted route needs a ``SaltConfig``,
   group and sort columns, and projected steps (no whole-frame or
   row-count-changing step but a grid-resample head):

   ==================  ==  =================================================
   route               PS  when → entry point
   ==================  ==  =================================================
   grouped              1  group columns → grouped.run_grouped_chain
   combined             1  agg-mode resample head → ``pre_aggregate_batch``
                           per block, then run_grouped_chain
   serial               1  no group columns, a step not chunk-mergeable or
                           P = 1 → run_grouped_chain in one partition
   global_chunked       1  no group columns, sort columns, every step
                           chunk-mergeable → chunked.run_global_chunked
   salted_chunked       1  every step chunk-mergeable →
                           chunked.run_salted_chunked
   salted_carry         1  any other projected chain → run_salted_carry
   salted_grid          1  a lone grid resample →
                           chunked.run_salted_resample_grid
   salted_grid_chain    1  grid head, tail chunk-mergeable and not duckdb
                           parity → chunked.run_salted_resample_chain
   salted_grid_split    2  grid head, any other projected tail →
                           salted_grid, then the tail re-routed
   ==================  ==  =================================================

4. **Execute** — the salted routes share one prologue (hot groups, then
   :class:`SaltedStamp`; with no hot group the chain runs unsalted). The
   chunk-local routes (kernels/chunked.py) bound every task by the chunk
   span. :func:`run_salted_carry` computes each hot group exactly in one
   task over a SKINNY projection and merges it back into the salted main
   pass by a ``groupby((group, salt))`` sort alignment — bounded by the
   largest group, capped by ``SaltConfig.max_carry_rows``.

Salted ≡ unsalted is property-tested for every salted route
(tests/test_salted.py) and driver-verified (historical_salted query);
tests/test_exchange_plan.py checks that each route ``explain()`` names is
the entry point ``prep()`` runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import (
    PART,
    SRC,
    ExchangePlan,
    GroupedStage,
    _lazy_size_bytes,
    _PartitionRunner,
    exchange,
    hash_part,
    key_frame,
    partitioned_groupby_map,
    plan_exchange,
    run_grouped_chain,
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
    """
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

    def _salt_values(
        self, tbl: pa.Table, keys: pd.DataFrame
    ) -> tuple[np.ndarray, np.ndarray]:
        """(is_hot bool mask, salt int64 per row); ``keys`` is the table's
        :func:`key_frame`."""
        hot = _hot_mask_pdf(keys, self.group_cols, self.hot_keys)
        sv = tbl.column(self.salt_col)
        if pa.types.is_timestamp(sv.type) or pa.types.is_duration(sv.type):
            sv = sv.cast(pa.int64())
        salt_all = sv.to_numpy(zero_copy_only=False).astype(np.int64)
        salt = np.where(hot, salt_all // self.chunk_span, 0)
        return hot, salt

    def __call__(self, tbl: pa.Table) -> pa.Table:
        pdf = key_frame(tbl, self.group_cols)
        part = hash_part(pdf, self.group_cols, self.p)
        hot, salt = self._salt_values(tbl, pdf)
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


class Route(NamedTuple):
    """How a fused grouped chain runs (:func:`route_chain`, the module
    docstring's table)."""

    name: str
    # the exchanges that move every row of the chain's input
    payload_shuffles: int = 1

    @property
    def salted(self) -> bool:
        return self.name.startswith("salted")


def route_chain(
    steps: Sequence,
    group_cols: Sequence[str],
    sort_cols: Sequence[str],
    salt: Optional[SaltConfig],
    partitions: Optional[int] = None,
) -> Route:
    """The route of a fused chain of grouped ``steps`` over ``group_cols``
    and ``sort_cols`` with an optional ``salt``, from the steps' declared
    flags only: nothing runs. ``partitions`` is the exchange's partition
    count; None means sized from the data (:func:`choose_partitions`, at
    least 2 × CPUs)."""
    head, tail = steps[0], list(steps[1:])
    projected = [not (s.frame_needs_all or s.changes_rowcount) for s in steps]
    mergeable = [getattr(s, "chunk_mergeable", False) for s in steps]
    if salt is not None and group_cols and sort_cols:
        if getattr(head, "salt_grid_capable", False) and all(projected[1:]):
            if not tail:
                return Route("salted_grid")
            if all(mergeable[1:]) and not any(
                getattr(s, "_parity_chunked", False) for s in tail
            ):
                return Route("salted_grid_chain")
            return Route("salted_grid_split", 2)
        if all(projected) and all(mergeable):
            return Route("salted_chunked")
        if all(projected):
            return Route("salted_carry")
    if getattr(head, "combinable", False):
        return Route("combined")
    if group_cols:
        return Route("grouped")
    if sort_cols and (partitions is None or partitions > 1) and all(mergeable):
        return Route("global_chunked")
    return Route("serial")


class SaltedInput(NamedTuple):
    """A salted route's input after the shared prologue of
    :func:`run_salted_chain`."""

    ds: object  # the chain's input, pinned unless a pure read
    salt: SaltConfig
    plan: ExchangePlan  # the main exchange's sizing
    hot: dict  # hot group key → rows
    stamp: SaltedStamp
    stamped: object  # ``ds`` with the stamp's PART and SALT columns
    counts: Optional[dict]  # every group's rows, for a duckdb-parity chain


def run_salted_chain(
    ds,
    group_cols: list[str],
    sort_cols: list[str],
    steps: Sequence,
    num_partitions: int,
    salt: SaltConfig,
):
    """Grouped chain with mega-group salting: the salted routes of
    :func:`route_chain` behind one prologue (module docstring). A chain
    that routes unsalted raises."""
    route = route_chain(steps, group_cols, sort_cols, salt, num_partitions)
    if not route.salted:
        raise ValueError(
            f"Salted execution needs group and sort columns and projected "
            f"kernels (row-count changing or whole-frame steps can't "
            f"chunk-merge; only a grid resample may head the chain); this "
            f"chain routes to {route.name!r}: run without salting."
        )

    # Every salted route is MULTI-PASS (hot-group detection, state passes,
    # the payload exchange): pin a derived input once so the passes don't
    # re-execute its upstream — the fit flush's policy; the object store
    # spills rather than holding it in heap. A pure read (size known from
    # plan metadata) is re-read per pass instead, which is cheaper than
    # writing a spill copy first (the explicit pin measured 8.3 s → 3.6 s
    # on the sf0.1 salted query).
    if _lazy_size_bytes(ds) is None:
        ds = ds.materialize()

    if route.name == "salted_grid_split":
        # bounded grid resample first, then the tail re-routed over the
        # RESAMPLED rows (hot-group detection re-runs — resampling changes
        # row counts). Two bounded payload shuffles.
        mid = run_salted_chain(
            ds, group_cols, sort_cols, list(steps[:1]),
            num_partitions=num_partitions, salt=salt,
        )
        return run_salted_chain(
            mid, group_cols, sort_cols, list(steps[1:]),
            num_partitions=num_partitions, salt=salt,
        )
    from recipys_ray.kernels import chunked

    body = {
        "salted_chunked": chunked.run_salted_chunked,
        "salted_carry": run_salted_carry,
        "salted_grid": chunked.run_salted_resample_grid,
        "salted_grid_chain": chunked.run_salted_resample_chain,
    }[route.name]

    # the prologue: hot groups, then the salted stamp of the main exchange;
    # the duckdb-parity pre-pass reuses the detection's count of every group
    parity = route.name == "salted_chunked" and any(
        getattr(s, "_parity_chunked", False) for s in steps)
    found = find_hot_groups(ds, group_cols, salt.threshold,
                            return_all_counts=parity)
    hot, counts = found if parity else (found, None)
    if not hot:
        return run_grouped_chain(
            ds, group_cols, sort_cols, steps, num_partitions=num_partitions
        )
    stamp = SaltedStamp(
        group_cols, sort_cols, num_partitions, set(hot), salt.chunk_span
    )
    plan = plan_exchange(ds, num_partitions)
    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )
    return body(SaltedInput(ds, salt, plan, hot, stamp, stamped, counts),
                group_cols, sort_cols, steps)


def run_salted_carry(
    inp: SaltedInput,
    group_cols: list[str],
    sort_cols: list[str],
    steps: Sequence,
):
    """The legacy whole-group carry (route ``salted_carry``): a salted main
    pass, exact features for each hot group in one task over the skinny
    projection, and a sort-aligned merge of the two. Raises when a hot
    group has more rows than ``SaltConfig.max_carry_rows``."""
    cap = getattr(inp.salt, "max_carry_rows", None)
    if cap is not None:
        biggest_key, biggest = max(inp.hot.items(), key=lambda kv: kv[1])
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

    stages = [GroupedStage(s) for s in steps]
    hot_keys = inp.stamp.hot_keys
    num_partitions = inp.plan.partitions

    # main pass: group identity includes the salt, so a chunk never sees
    # another chunk's rows; hot-chunk feature values are placeholders
    runner = _PartitionRunner(group_cols + [SALT], sort_cols, stages)

    def run_partition(tbl: pa.Table) -> pa.Table:
        return runner(tbl)

    # materialize: the main output is consumed twice (cold + hot split) and
    # its schema is needed for the union — one pinned copy beats re-running
    # the whole shuffle per consumer
    main_out = exchange(
        inp.stamped, PART, run_partition, num_partitions, inp.plan.blocks
    ).materialize()

    # carry pass: exact features for hot groups on the skinny projection
    feature_cols = list(dict.fromkeys(c for st in stages for c in st.outputs))
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
        salt_values = inp.stamp._salt_values(out, key_frame(out, group_cols))
        return out.append_column(SALT, pa.array(salt_values[1]))

    carry = partitioned_groupby_map(
        inp.ds.map_batches(pick_hot, batch_format="pyarrow"), group_cols,
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
