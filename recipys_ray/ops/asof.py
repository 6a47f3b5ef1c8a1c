"""Distributed as-of (point-in-time) join — the north-rule core primitive.

``asof_join(left, right, on, by)``: for every left row, attach the right row
with the greatest ``on`` value ≤ the left's (direction="backward"; "forward"
and tolerance supported), matching within ``by`` groups. Classic uses:
point-in-time feature/label alignment, "most recent prior purchase",
joining slowly-changing dimensions without leakage.

Physical plan: both sides are stamped with the same deterministic
``hash(by) % P`` (the engine's standard group partitioner), padded to a
common schema with a source tag, unioned, and co-shuffled ONCE; inside each
partition a sorted ``pandas.merge_asof`` (a C two-pointer merge) joins all
groups of that partition vectorized. Only one all-to-all exchange total —
the small side is NOT broadcast, so both sides may be arbitrarily large.
"""

from __future__ import annotations

import pandas as pd


def asof_join(
    left,
    right,
    on: str,
    by,
    direction: str = "backward",
    tolerance=None,
    right_suffix: str = "_r",
    num_partitions: int | None = None,
    right_dedup_cols=None,
):
    """As-of join two Datasets. Returns a Dataset with all left columns plus
    the matched right value columns (names colliding with left columns get
    ``right_suffix``; the ``on``/``by`` key columns are not duplicated).

    ``right_dedup_cols``: optional list of right columns; when given, right
    rows are deduplicated on (by, on) INSIDE the co-partitioned join (sorted
    by these columns, keep first — deterministic), and these columns are
    dropped from the output. Saves the separate dedup shuffle a caller
    would otherwise need for tie-breaking duplicate right timestamps."""
    by = [by] if isinstance(by, str) else list(by)
    right_dedup_cols = list(right_dedup_cols or [])
    if num_partitions is None:
        # size to the LEFT side (the big one); right co-partitions with it
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(left)

    lschema = left.schema()
    rschema = right.schema()
    lcols = list(lschema.names)
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))

    r_value_cols = [c for c in rschema.names if c not in by and c != on]
    out_names = {
        c: (c + right_suffix if c in lcols else c) for c in r_value_cols
    }
    dedup_out = [out_names[c] for c in right_dedup_cols]
    out_value_cols = [out_names[c] for c in r_value_cols]

    all_cols = lcols + out_value_cols
    all_types = {**{c: ltypes[c] for c in lcols},
                 **{out_names[c]: rtypes[c] for c in r_value_cols}}

    # coalesce while stamping: Ray's sort pays a fixed cost per input block
    # (128 ~800-row blocks measured 3.7s of a 4.3s join at sf0.1) — the pad
    # stage doubles as the block coalescer, same as the grouped-chain stamp
    from recipys_ray.kernels.grouped import PART, SRC, exchange, stamp_union

    combined, blocks = stamp_union(
        [(left, by, {}), (right, by, out_names)], all_cols, all_types,
        num_partitions,
    )

    def join_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        src = pdf[SRC].to_numpy()
        lf = pdf[src == 0][lcols].sort_values(
            [on], kind="stable", ignore_index=True
        )
        rf = pdf[src == 1][by + [on] + out_value_cols]
        if dedup_out:
            rf = rf.sort_values(
                by + [on] + dedup_out, kind="stable", ignore_index=True
            )
            rf = rf[~rf.duplicated(by + [on], keep="first")]
            rf = rf.drop(columns=dedup_out)
        rf = rf.sort_values([on], kind="stable", ignore_index=True)
        if len(lf) == 0:
            return pd.DataFrame(
                columns=[c for c in all_cols if c not in dedup_out]
            )
        return pd.merge_asof(
            lf, rf, on=on, by=by, direction=direction, tolerance=tolerance
        )

    return exchange(
        combined, PART, join_partition, num_partitions, blocks,
        batch_format="pandas",
    )
