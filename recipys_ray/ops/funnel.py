"""Funnel analysis: per entity, the first completion time of each ordered
step (each strictly after the previous step's completion) and the number
of steps completed — the classic product-analytics kernel, and on
transcripts the "did the conversation reach tool-use → resolution" shape.

Plan: ONE hash partition by entity, then a vectorized per-partition pass —
one masked groupby-min per funnel step across ALL entities in the
partition (k steps ⇒ k vectorized passes, never a per-entity Python loop).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def funnel(
    ds,
    steps: list[str],
    group_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int | None = None,
):
    """Return one row per entity: ``group_col``, ``stage`` (int64 — how
    many consecutive steps completed), and ``ts_<step>`` (timestamp of the
    first qualifying occurrence, null if the funnel broke earlier).

    A step qualifies only STRICTLY after the previous step's qualifying
    timestamp (ties do not advance the funnel)."""
    if not steps:
        raise ValueError("steps must be non-empty")

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def part(pdf: pd.DataFrame) -> pd.DataFrame:
        users = pd.Index(pdf[group_col].unique(), name=group_col)
        prev = pd.Series(pd.Timestamp.min, index=users)
        reached = pd.Series(True, index=users)
        out = pd.DataFrame(index=users)
        stage = pd.Series(0, index=users, dtype=np.int64)
        for step in steps:
            prev_aligned = pdf[group_col].map(prev).to_numpy()
            ok = (
                (pdf[type_col] == step).to_numpy()
                & (pdf[ts_col].to_numpy() > prev_aligned)
                & pdf[group_col].map(reached).to_numpy()
            )
            # the empty branch must carry the INPUT's timestamp resolution:
            # hardcoding us would mix datetime64[us]/[ns] block schemas when
            # some partitions have no qualifying events
            hit = (
                pdf[ok].groupby(group_col, sort=False)[ts_col].min()
                if ok.any()
                else pd.Series(dtype=pdf[ts_col].dtype)
            )
            t = hit.reindex(users)
            out[f"ts_{step}"] = t
            got = t.notna()
            stage += got.astype(np.int64)
            reached = reached & got
            prev = t.where(got, pd.Timestamp.max)  # broken funnel: no next
        out["stage"] = stage
        return out.reset_index()

    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        # size from the pre-projection input (the skinny plan can't infer
        # its own size); the full-width read is a safe overestimate
        num_partitions = choose_partitions(ds)
    skinny = ds.select_columns([group_col, ts_col, type_col])
    return partitioned_groupby_map(
        skinny, [group_col], part, num_partitions
    )
