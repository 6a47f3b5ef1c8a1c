"""The engine's shuffle core: the one module that stamps, co-locates and
slices hash partitions. Every all-to-all exchange of the library goes
through these entry points (``tests/test_exchange_plan.py`` fails on a
``map_groups`` call or a copied ``hash_pandas_object`` stamp elsewhere):

- :func:`hash_part` — the partition stamp, ``hash(key) % P`` with pandas'
  stable hash of the keys as :func:`key_frame` reads them. Used by the
  grouped chain's stamp, :class:`SaltedStamp` (kernels/salted.py), the
  co-partitioned join unions and the resumable output buckets of
  ``io.py``.
- :func:`plan_exchange` — partition count, stamp batch rows and planned
  stamp blocks from plan metadata. Used by every exchange below and by
  ``Recipe.explain()``.
- :func:`plan_pin` / :func:`size_pin` — the block count of a recipe's fit
  pin, from the same cluster CPU count as the partition count: the batch
  stage that feeds a pin emits at most that many blocks, and ``size_pin``
  guards the pins whose row count was unknown (``Recipe.prep()``).
- :func:`stamp_union` — the padded, tagged, stamped union of the sides of
  a co-partitioned exchange: ``hash_join`` (ops/join.py), ``asof_join``
  (ops/asof.py), ``range_join``/``range_agg`` (ops/rangejoin.py) and the
  legacy salted carry merge.
- :func:`exchange` — co-locate a stamped partition column and run a kernel
  once per partition. Used by the grouped chain, the salted and chunked
  paths (kernels/salted.py, kernels/chunked.py: main passes and the chunk
  state passes), the joins above, and the range-stamped ops
  ``add_global_rank``/``add_ntile`` (ops/rank.py),
  ``sorted_neighborhood_dedup`` (ops/editdist.py) and ``semantic_dedup``
  (ops/semdedup.py).
- :func:`partitioned_groupby_map` — stamp by key, then one vectorized call
  per partition: the dedup, text, group-statistics, time-series, set,
  graph, quantile and profile ops (~25 modules under ``ops/``), the
  hot-group spill route and the legacy salted carry pass
  (kernels/salted.py), and the sharded writer of ``io.py``.

Order/group-dependent steps (grouped ffill, expanding/historical aggregates,
lag/lead, sessionization, as-of resampling — reference step.py:138-139,
319-355, 537-563) all share ONE physical plan:

1. ``map_batches`` stamps ``__part__ = hash(group_key) % P`` (vectorized,
   deterministic across processes via pandas' stable hash). The stamp stage
   doubles as the block coalescer: Ray's sort exchange pays a fixed cost
   per source block (measured 3× slowdown with ~200 tiny blocks vs ~32
   large ones), and a separate ``repartition`` pass would move the data an
   extra time. Sizing rule (:func:`stamp_block_rows`): at least 16 stamped
   blocks, and never more than P. Ray's sort makes one map task per
   stamped block, and every block beyond P used to become a reducer with
   no rows that still cost a reduce task, a partition-kernel task, a write
   task and a "different schema" warning. Measured with
   ``perfbench/run.py --workload flagship_bake`` (306k rows) on a 1-vCPU,
   15 GB VM with Ray 2.49.2, where P = 2: 16 stamped blocks became 2, the
   grouped chain's tasks 34 → 6, ``rows_per_s`` 84k/78k/92k →
   146k/153k/160k (seeds 1–3), ``cpu_s_per_mrow`` 15.5 → 8.0, peak RSS
   +2–3%, output digest unchanged. With P ≥ 64 (32 CPUs) and n ≤ 4.2M rows
   the rule still gives 16 blocks.
2. :func:`exchange` — a range sort on ``__part__`` whose boundaries are
   fixed from the planned block count R ≤ P (reducer j holds partition ids
   [jP/R, (j+1)P/R)), then the partition kernel once per partition. Every
   conversation lands entirely in one partition. (Ray's
   ``groupby().map_groups`` samples the boundaries instead; with two
   blocks and P = 2 it gives one reducer every row more often than not.)
3. Inside the partition: an ARROW-first runner — stable multi-key
   ``pyarrow.compute.sort_indices`` + ``take`` (wide payload columns like
   ``text`` are never boxed into Python objects), then ONLY the columns the
   step kernels actually read are converted to pandas, the fused chain of
   vectorized frame kernels runs (``groupby(gid).cummax()`` etc. — never a
   Python loop over groups), and new/modified columns are appended back to
   the Arrow table. Row-count-changing kernels (resampling) and
   whole-frame user functions fall back to a full pandas path.

This plans the shuffle ONCE for a whole chain of order-dependent steps: the
flagship pipeline (ffill → historical × k → lag → sessionize) costs a single
all-to-all exchange.

A zero-row result has no columns after ``Dataset.to_pandas()``: Ray builds
that frame from ``iter_batches``, which yields nothing for zero-row blocks
(``ray.data.from_pandas(df.iloc[:0]).to_pandas()`` is (0, 0) as well), and
on all-filtered input no stamp or kernel runs at all. Callers that read the
columns of a possibly empty result check ``len`` first.

Scale notes (100 TB / 256 nodes): P is chosen from the data size
(~256 MiB per partition) with a floor of 2× cluster CPUs; skew is bounded by
the largest single conversation, not key frequency, because partitioning is
by conv hash and kernels are vectorized across all groups in a partition. A
single conversation larger than a partition would need salted
sub-partitioning with boundary-carry merge (SURVEY.md §4) — not required at
transcript-shaped group sizes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

GID = "__gid__"
PART = "__part__"
# the side tag of a co-partitioned union (:func:`stamp_union`)
SRC = "__src__"
# stamp batch rows: the ≥16-block rule's cap, and the batch when the input
# row count is unknown (:func:`stamp_block_rows`)
STAMP_ROWS = 262_144


def _cluster_cpus() -> int:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        pass
    return 8


def actor_pool_args(concurrency) -> dict:
    """``map_batches`` arguments for an actor-pool stage of ``concurrency``
    (``n`` actors or ``(min, max)``) that can always make progress.

    Actors hold their CPU for the whole stage, and a pool takes no batch
    until its minimum is up, so a minimum that fills the cluster starves
    the upstream tasks (reads, maps) feeding it and waits forever. The
    minimum is capped to leave one CPU free; on a one-CPU session the pool
    is a single actor that reserves no CPU."""
    if concurrency is None:
        return {}
    cpus = _cluster_cpus()
    if cpus < 2:
        return {"concurrency": 1, "num_cpus": 0}
    if isinstance(concurrency, tuple):
        lo, hi = concurrency
        return {"concurrency": (min(lo, cpus - 1), hi)}
    return {"concurrency": min(concurrency, cpus - 1)}


def _lazy_size_bytes(ds):
    """Dataset size from plan metadata ONLY — never executes the plan.
    ``Dataset.size_bytes()`` materializes derived datasets to answer, which
    would silently break streaming when sizing an exchange mid-pipeline.
    Known for reads / from_pandas / repartition / materialized datasets;
    None after a map/select (callers should size from the pre-map input)."""
    try:
        return ds._logical_plan.dag.infer_metadata().size_bytes
    except Exception:
        return None


def choose_partitions(
    ds,
    target_partition_bytes: int = 256 * 1024 * 1024,
    hi: int = 4096,
) -> int:
    """Partition count: ≥ 2× cluster CPUs, scaled up by data size."""
    lo = 2 * _cluster_cpus()
    nbytes = _lazy_size_bytes(ds)
    if not nbytes:
        return lo
    return int(np.clip(-(-nbytes // target_partition_bytes), lo, max(lo, hi)))


def pin_blocks(size_bytes: int) -> int:
    """Most blocks a recipe's fit pin keeps: max(2 × cluster CPUs,
    ⌈size_bytes / Ray's ``target_max_block_size``⌉)."""
    from ray.data import DataContext

    block_bytes = DataContext.get_current().target_max_block_size
    by_size = -(-size_bytes // block_bytes) if block_bytes else 1
    return max(2 * _cluster_cpus(), by_size)


def plan_pin(ds) -> Optional[tuple[int, int]]:
    """(batch rows, blocks) of a row-preserving map stage over ``ds`` whose
    output a recipe pins: batches of ⌈rows / :func:`pin_blocks`⌉ rows, so
    the stage emits at most ``pin_blocks`` blocks and the pin needs no
    second execution to coalesce them. The blocks are pinned in the order
    the map's tasks finish (Ray's default ``preserve_order=False``), as an
    unsized stage's are. From plan metadata only (:func:`_meta_rows`,
    :func:`_lazy_size_bytes`); None when the plan cannot say, and
    :func:`size_pin` bounds the pin instead."""
    n, nbytes = _meta_rows(ds), _lazy_size_bytes(ds)
    if not n or not nbytes:
        return None
    rows = -(-n // pin_blocks(nbytes))
    return rows, -(-n // rows)


def size_pin(pinned):
    """The guard on a materialized fit pin: coalesce it to at most
    :func:`pin_blocks` blocks; a pin within the bound is returned as is.

    A batch stage that feeds a pin sizes its own output
    (:func:`plan_pin`), so this does nothing there. It acts where the row
    count was unknown when the stage was built (a derived input: the pin
    keeps its upstream's block layout) or where a fit reads the input
    itself (8 parquet files read as 24 blocks). Every pass over a pin —
    each fit's stats pass and the transform after it — pays a per-block
    task floor (BASELINE.md "Fit flush"). ``repartition(n)`` without a
    shuffle splits and joins blocks in order, so the pin's row order is
    kept. The unsized pin is dropped once the sized one is built."""
    target = pin_blocks(pinned.size_bytes())
    if pinned.num_blocks() <= target:
        return pinned
    return pinned.repartition(target).materialize()


def _meta_rows(ds) -> Optional[int]:
    """Row count from plan metadata only (None when the plan can't say)."""
    try:
        n = ds._meta_count()
    except Exception:
        n = None
    return int(n) if n else None


def stamp_block_rows(n: Optional[int], num_partitions: int) -> int:
    """The sort-exchange sizing rule: stamp batch rows for ``n`` input rows
    (None: unknown) hash-split into ``num_partitions`` partitions.

    The stamp stage's output blocks are the exchange's map tasks and, in
    Ray's sort exchange, its reducers. Two bounds set the batch:
    - at least 16 blocks (batch ≤ :data:`STAMP_ROWS`), the measured
      kernel-stage sweet spot on a large box (BASELINE.md "Adaptive stamp");
    - at most P blocks (batch ≥ ⌈n / P⌉): a reducer beyond the P-th holds
      no partition, yet costs a reduce task, a partition-kernel task, a
      write task and a schema-change warning.
    The cap wins where the two disagree. Unknown ``n`` keeps
    :data:`STAMP_ROWS`.
    """
    if not n:
        return STAMP_ROWS
    return max(
        int(np.clip(n // 16, 16_384, STAMP_ROWS)),
        -(-n // max(num_partitions, 1)),
    )


class ExchangePlan(NamedTuple):
    partitions: int
    stamp_rows: int
    # stamped blocks = the exchange's reducers; None: unknown before the run
    blocks: Optional[int]


def plan_exchange(ds, num_partitions: Optional[int] = None) -> ExchangePlan:
    """Size a hash exchange over ``ds`` from its plan metadata only (pure
    reads, from_pandas, materialized datasets); a derived dataset keeps the
    default partition count and :data:`STAMP_ROWS` stamp rows."""
    p = num_partitions or choose_partitions(ds)
    n = _meta_rows(ds)
    rows = stamp_block_rows(n, p)
    return ExchangePlan(p, rows, -(-n // rows) if n else None)


def union_stamp_rows(
    counts: Sequence[Optional[int]], num_partitions: int
) -> list:
    """Stamp batch rows per side of a unioned exchange (co-partitioned
    joins), from each side's row count (None: unknown). The cap applies to
    the union's total block count: every side gets one block and shares
    the rest of the P-block budget by row count. A side with an unknown
    row count keeps :data:`STAMP_ROWS`."""
    spare = max(num_partitions - len(counts), 0)
    total = sum(n for n in counts if n)
    return [
        stamp_block_rows(n, 1 + spare * n // total) if n else STAMP_ROWS
        for n in counts
    ]


# arrow integer and bool key types → pandas nullable dtypes (:func:`key_frame`)
_NULLABLE = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    pa.bool_(): pd.BooleanDtype(),
}


def key_frame(tbl: pa.Table, key_cols: Sequence[str]) -> pd.DataFrame:
    """The key columns of an arrow table as the pandas frame a stamp hashes.
    Integer and bool columns become pandas' nullable dtypes, so a key's
    pandas dtype, and with it its hash, does not depend on whether its
    batch holds a null (plain ``to_pandas`` gives float64 or object there
    and int64 or bool elsewhere, and one key value got two partition ids).
    pandas hashes a non-null nullable value like the plain one."""
    return tbl.select(list(key_cols)).to_pandas(types_mapper=_NULLABLE.get)


def hash_part(
    data, key_cols: Sequence[str], num_partitions: int
) -> np.ndarray:
    """The engine's one partition stamp: ``hash(key_cols) % P`` as int32,
    per row of a pyarrow Table (its keys read by :func:`key_frame`) or a
    pandas DataFrame. pandas' stable hash of the key values (not their
    column names), so ids agree across processes, across sides of a join,
    across batches and across runs (resumable output buckets rely on
    that). No key columns: every row in partition 0."""
    if not key_cols:
        return np.zeros(len(data), dtype=np.int32)
    if isinstance(data, pa.Table):
        pdf = key_frame(data, key_cols)
    else:
        pdf = data[list(key_cols)]
    h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
    return (h % np.uint64(num_partitions)).astype(np.int32)


class _StampPartition:
    def __init__(self, key_cols: Sequence[str], p: int):
        self.key_cols = list(key_cols)
        self.p = p

    def __call__(self, tbl: pa.Table) -> pa.Table:
        part = hash_part(tbl, self.key_cols, self.p)
        return tbl.append_column(PART, pa.array(part, pa.int32()))


def stamp_union(sides: Sequence, all_cols: Sequence[str], all_types: dict,
                num_partitions: int):
    """The input of a co-partitioned exchange (joins): each side of
    ``[(dataset, key_cols, rename), ...]`` is stamped with
    ``PART = hash_part(key_cols)``, has its columns renamed by ``rename``,
    is padded to ``all_cols`` (a missing column is all null of its
    ``all_types`` type) and is tagged with its index in :data:`SRC`.
    ``key_cols`` name the side's own columns: the stamp hashes them before
    the rename, while the table's pandas metadata still matches them (a
    renamed nullable ``Int64`` key would otherwise come back as float64
    and hash differently from the other side). Returns (union, planned
    blocks or None when a side's size is unknown)."""

    def pad(tag: int, key_cols, rename: dict):
        def fn(tbl: pa.Table) -> pa.Table:
            part = hash_part(tbl, key_cols, num_partitions)
            if rename:
                tbl = tbl.rename_columns(
                    [rename.get(c, c) for c in tbl.column_names]
                )
            for c in all_cols:
                if c not in tbl.column_names:
                    tbl = tbl.append_column(
                        c, pa.nulls(len(tbl), all_types[c])
                    )
            tbl = tbl.select(list(all_cols))
            tbl = tbl.append_column(
                SRC, pa.array(np.full(len(tbl), tag, np.int8))
            )
            return tbl.append_column(PART, pa.array(part))

        return fn

    counts = [_meta_rows(d) for d, _, _ in sides]
    rows = union_stamp_rows(counts, num_partitions)
    stamped = [
        d.map_batches(pad(i, k, rn), batch_format="pyarrow", batch_size=r)
        for i, ((d, k, rn), r) in enumerate(zip(sides, rows))
    ]
    blocks = (
        sum(-(-n // r) for n, r in zip(counts, rows))
        if all(counts) else None
    )
    return stamped[0].union(*stamped[1:]), blocks


def exchange(
    stamped, part_col: str, fn, num_partitions: int,
    reducers: Optional[int], batch_format: str = "pyarrow",
):
    """Co-locate every stamped partition id (``part_col`` in [0, P)), then
    call ``fn`` once per non-empty partition with all of its rows.

    With ``reducers`` known (the planned stamp block count, ≤ P) the range
    sort's boundaries are fixed: reducer j holds partition ids
    [jP/R, (j+1)P/R), an equal share of the hash space. Ray's
    ``groupby().map_groups`` samples the boundaries from a few rows per
    block instead: with two blocks and P = 2, more often than not one
    reducer receives every row and the other none. Unknown (or a single)
    ``reducers`` keeps sampled boundaries, one reducer per stamped block.
    """
    r = min(reducers or 0, num_partitions)
    boundaries = [j * num_partitions // r for j in range(1, r)] if r else []
    shuffled = stamped.sort(part_col, boundaries=boundaries or None)
    pandas = batch_format == "pandas"

    # a reducer's block is sorted by part_col: one slice per partition id
    def per_partition(batch):
        part = np.asarray(batch[part_col])
        if not len(part):
            return
        cuts = np.flatnonzero(part[1:] != part[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(part)]):
            if pandas:
                yield fn(batch.iloc[lo:hi].reset_index(drop=True))
            else:
                yield fn(batch.slice(lo, hi - lo))

    per_partition.__name__ = fn.__name__  # Ray names the operator after it
    return shuffled.map_batches(
        per_partition, batch_size=None, batch_format=batch_format
    )


def partitioned_groupby_map(ds, key_cols: list[str], fn,
                            num_partitions: int | None = None,
                            batch_format: str = "pandas"):
    """Hash-partition by key, then apply ``fn`` once per PARTITION (a pandas
    frame or Arrow table containing every row of its keys, without the
    stamp column) — ``fn`` handles all groups in one vectorized pass, not
    one Python call per group.

    ``num_partitions=None`` sizes the exchange from the data
    (:func:`choose_partitions`: ≥ 2× cluster CPUs, ~256 MiB per partition)
    — a fixed count would make partition size grow linearly with the
    corpus. When ``ds`` is a derived dataset whose size the plan can't
    infer, callers that know the pre-map input should pass
    ``choose_partitions(input_ds)`` explicitly."""
    if num_partitions is None:
        num_partitions = choose_partitions(ds)

    def run(batch):
        if batch_format == "pyarrow":
            return fn(batch.drop_columns([PART]))
        return fn(batch.drop(columns=[PART]))

    run.__name__ = getattr(fn, "__name__", "run")
    # the stamp doubles as a block coalescer when the row count is knowable
    # (Ray's sort pays a fixed cost per input block; many tiny blocks
    # dominate small corpora) — unknown counts keep per-block batches
    plan = plan_exchange(ds, num_partitions)
    stamped = ds.map_batches(
        _StampPartition(key_cols, num_partitions), batch_format="pyarrow",
        batch_size=plan.stamp_rows if plan.blocks else None,
    )
    return exchange(stamped, PART, run, num_partitions, plan.blocks,
                    batch_format=batch_format)


def cheap_count(ds) -> int:
    """Row count from plan metadata when knowable (pure reads, from_pandas,
    materialized datasets) — falls back to one full count pass otherwise.
    Saves the extra pass that ``ds.count()`` costs before sampling stages."""
    n = _meta_rows(ds)
    return n if n else ds.count()


def assign_gid(pdf: pd.DataFrame, group_cols: list[str]) -> pd.DataFrame:
    """Contiguous int64 group ids for a frame already sorted by group_cols."""
    if not group_cols:
        pdf[GID] = np.zeros(len(pdf), dtype=np.int64)
    else:
        pdf[GID] = pdf.groupby(group_cols, sort=False, observed=True).ngroup()
    return pdf


class GroupedStage:
    """One fused chain entry: the step plus its declared column footprint."""

    def __init__(self, step):
        self.step = step
        self.inputs = list(step.frame_inputs())
        self.outputs = list(step.frame_outputs())
        self.needs_all = step.frame_needs_all or step.changes_rowcount


class _PartitionRunner:
    def __init__(
        self,
        group_cols: list[str],
        sort_cols: list[str],
        stages: Sequence[GroupedStage],
    ):
        self.group_cols = group_cols
        self.sort_cols = sort_cols
        self.stages = list(stages)
        self.full_path = any(s.needs_all for s in self.stages)
        # columns the pandas frame must start with: every stage input that an
        # earlier stage in the chain doesn't produce, plus group columns
        produced: set[str] = set()
        needed: list[str] = []
        for s in self.stages:
            for c in s.inputs:
                if c not in produced and c not in needed:
                    needed.append(c)
            produced.update(s.outputs)
        for c in group_cols + sort_cols:
            if c not in needed:
                needed.append(c)
        self.needed = needed

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if PART in tbl.column_names:
            tbl = tbl.drop_columns([PART])
        by = self.group_cols + self.sort_cols
        if by:
            idx = pc.sort_indices(
                tbl, sort_keys=[(c, "ascending") for c in by]
            )
            tbl = tbl.take(idx)
        if self.full_path:
            return self._run_full(tbl)
        return self._run_projected(tbl)

    # -------------------- full pandas fallback -------------------- #
    def _run_full(self, tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        pdf = assign_gid(pdf, self.group_cols)
        for s in self.stages:
            pdf = s.step.transform_frame(pdf, self.group_cols)
        pdf = pdf.drop(columns=[c for c in (PART, GID) if c in pdf.columns])
        return pa.Table.from_pandas(pdf, preserve_index=False)

    # -------------------- arrow-first projected path -------------------- #
    def _run_projected(self, tbl: pa.Table) -> pa.Table:
        cols = [c for c in self.needed if c in tbl.column_names]
        pdf = tbl.select(cols).to_pandas()
        pdf = assign_gid(pdf, self.group_cols)
        for s in self.stages:
            pdf = s.step.transform_frame(pdf, self.group_cols)
        for s in self.stages:
            for name in s.outputs:
                if name not in pdf.columns:
                    continue
                arr = pa.array(pdf[name], from_pandas=True)
                if name in tbl.column_names:
                    tbl = tbl.set_column(
                        tbl.column_names.index(name), name, arr
                    )
                else:
                    tbl = tbl.append_column(name, arr)
        return tbl


def run_grouped_chain(
    ds,
    group_cols: list[str],
    sort_cols: list[str],
    steps: Sequence,
    num_partitions: Optional[int] = None,
):
    """Apply a fused chain of order-dependent steps (see module docstring).

    ``steps`` are Step objects exposing ``transform_frame(pdf, group_cols)``
    plus the column-footprint protocol (frame_inputs/frame_outputs/
    frame_needs_all, changes_rowcount).

    The exchange (:func:`exchange`) range-sorts the stamped blocks on the
    partition id; the stamp batch follows :func:`stamp_block_rows`, so it
    has at most P reducers, each holding an equal share of the partitions.
    """
    p = num_partitions or choose_partitions(ds)
    if not group_cols:
        if (
            sort_cols
            and p > 1
            and all(getattr(s, "chunk_mergeable", False) for s in steps)
        ):
            # global order-dependent chain, parallelized: range-chunk on the
            # first sort column + driver-folded carry states — the whole
            # dataset is one mega-group (kernels/chunked.py)
            from recipys_ray.kernels.chunked import run_global_chunked

            return run_global_chunked(ds, sort_cols, steps, num_partitions=p)
        # non-mergeable global chain: single partition (a global sequential
        # scan of e.g. an expanding MEDIAN is inherently serial)
        p = 1
    plan = plan_exchange(ds, p)
    stamped = ds.map_batches(
        _StampPartition(group_cols, p),
        batch_format="pyarrow",
        batch_size=plan.stamp_rows,
    )
    runner = _PartitionRunner(
        group_cols, sort_cols, [GroupedStage(s) for s in steps]
    )

    # a named function: Ray labels the operator with fn.__name__
    def run_partition(tbl: pa.Table) -> pa.Table:
        return runner(tbl)

    return exchange(stamped, PART, run_partition, p, plan.blocks)
