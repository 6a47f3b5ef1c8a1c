"""Chunk-local salted execution — the SURVEY.md §4 carry design.

The legacy salted path (kernels/salted.py) computes exact features for a hot
group by materializing the whole (skinny) group in ONE task — unbounded
under extreme skew. This module bounds every task by the salt chunk size:

1. **Stamp** — rows of hot groups route to ``hash((group, salt)) % P``
   (kernels/salted.py SaltedStamp); each partition holds whole CHUNKS.
2. **State passes** — for each dependency level of the step chain, a skinny
   pass over the hot rows computes ONE small state row per (group, salt)
   chunk per step (``Step.chunk_state``: last non-null for ffill, anchored
   moments for mean/var, tail values for lag, boundary timestamps for
   sessionize). Steps whose inputs were written by earlier steps run in a
   later level, with the earlier prefixes applied first, so states are
   measured on globally-correct inputs.
3. **Driver fold** — per group, chunk states fold in salt order into
   per-chunk PREFIX states (``Step.fold_chunk_states``) — O(#chunks) tiny
   rows, never row data.
4. **Main pass** — ONE full-payload shuffle: each partition runs the fused
   chain chunk-locally and immediately corrects each step's outputs with
   the broadcast prefix states (``Step.apply_chunk_prefix``). No second
   payload shuffle, no sort-alignment merge, no whole-group task.

Falls back to the legacy whole-group carry path when any step is not
``chunk_mergeable`` (MEDIAN, backward fill, lead, fill limits, …).
"""

from __future__ import annotations

import pickle
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from recipys_ray.kernels.grouped import (
    GID,
    PART,
    GroupedStage,
    assign_gid,
    exchange,
    plan_exchange,
    run_grouped_chain,
)
from recipys_ray.kernels.salted import (
    SALT,
    SaltedStamp,
    _hot_mask,
    find_hot_groups,
)

GLOBAL_GROUP = "__global_g__"


def boundary_chunk_state(
    pdf: pd.DataFrame, gid: pd.Series, cols: list[str], K: int,
    from_end: bool = True,
) -> pd.DataFrame:
    """Per-chunk boundary rows: chunk row count + the K raw values closest
    to the chunk's end (``from_end=True``, for lag/rolling carries) or start
    (for lead carries). Positional — nulls included."""
    g = pdf.groupby(gid, sort=False, observed=True)
    out = g.size().to_frame("rows").astype(np.float64)
    pos = g.cumcount(ascending=not from_end)
    for j in range(1, K + 1):
        sel = pos == (j - 1)
        vals = pdf.loc[sel, cols].set_axis(gid[sel], axis=0)
        for c in cols:
            out[f"t{j}_{c}"] = vals[c].astype(np.float64)
    return out


def fold_boundary_states(states: pd.DataFrame, K: int) -> pd.DataFrame:
    """Sequential boundary merge: for each chunk (in the order given —
    salt-ascending for prefix carries, descending for suffix carries), the
    K values immediately across its leading boundary, plus how many
    history rows exist (``avail``)."""
    cols = sorted({c.split("_", 1)[1] for c in states.columns
                   if c.startswith("t1_")})
    out = pd.DataFrame(index=states.index, dtype=np.float64)
    tails = {c: [np.nan] * K for c in cols}
    hist = 0
    rows_list = states["rows"].to_numpy()
    rec = []
    for i, idx in enumerate(states.index):
        rec.append((hist, {c: list(tails[c]) for c in cols}))
        r = int(rows_list[i])
        for c in cols:
            tails[c] = [
                states.at[idx, f"t{j}_{c}"] if j <= r else tails[c][j - r - 1]
                for j in range(1, K + 1)
            ]
        hist += r
    out["avail"] = [min(h, K) for h, _ in rec]
    for c in cols:
        for j in range(1, K + 1):
            out[f"t{j}_{c}"] = [t[c][j - 1] for _, t in rec]
    return out


def fold_boundary_states_grouped(
    states: pd.DataFrame, gkey: pd.Series, K: int
) -> pd.DataFrame:
    """Vectorized across ALL groups when every chunk has ≥ K rows (the
    overwhelmingly common case — chunk spans ≫ shift/window sizes): the
    carried boundary values are simply the previous chunk's state row.
    Groups containing a short chunk fall back to the sequential merge."""
    g = states.groupby(gkey.to_numpy(), sort=False)
    short = states["rows"] < K
    short_groups = set(gkey[short]) if short.any() else set()
    out = states.drop(columns=["rows"]).pipe(
        lambda df: g[df.columns].shift(1)
    )
    cum = g["rows"].cumsum() - states["rows"]
    out["avail"] = cum.clip(upper=K)
    if short_groups:
        mask = gkey.isin(short_groups).to_numpy()
        sub = states[mask]
        fixed = []
        for _, grp in sub.groupby(gkey[mask].to_numpy(), sort=False):
            fixed.append(fold_boundary_states(grp, K))
        patch = pd.concat(fixed)
        out.loc[patch.index, patch.columns] = patch
    return out


def step_levels(steps: Sequence) -> list[int]:
    """Dependency levels: a step that READS a column an earlier step WROTE
    must measure its chunk state after that step's prefixes are known."""
    writer_level: dict[str, int] = {}
    levels = []
    for s in steps:
        deps = [
            writer_level[c] for c in s.frame_inputs() if c in writer_level
        ]
        lv = (max(deps) + 1) if deps else 0
        levels.append(lv)
        for c in s.frame_outputs():
            writer_level[c] = lv
    return levels


class _ChunkedRunner:
    """Shared partition kernel for the state passes and the main pass.

    mode="state": runs steps of level < ``state_level`` (transform + apply),
    then returns one pickled row of per-chunk states for the level's steps.
    mode="run": runs the whole chain with per-step prefix application and
    returns the corrected Arrow table (payload untouched).

    ``head``: optional frame→frame callable applied to the sorted partition
    frame BEFORE gid assignment and the stage loop — the fused salted
    resample→chain runner passes a :class:`_GridHead` here so every state
    and main pass measures the downstream steps on the exactly-global
    RESAMPLED rows. A head may change the row count, so with a head the run
    output is rebuilt from pandas instead of patched into the Arrow input.
    """

    def __init__(
        self,
        group_cols: list[str],
        sort_cols: list[str],
        stages: Sequence[GroupedStage],
        levels: list[int],
        prefixes: dict[int, pd.DataFrame],
        mode: str = "run",
        state_level: Optional[int] = None,
        head=None,
    ):
        self.group_cols = group_cols
        self.sort_cols = sort_cols
        self.stages = list(stages)
        self.levels = list(levels)
        # dict OR ray.ObjectRef of one: callers ray.put the folded prefixes
        # so the task-submission payload stays flat as chunk counts grow
        # (a closure-captured dict is re-pickled into EVERY partition task)
        self.prefixes = prefixes
        self.mode = mode
        self.state_level = state_level
        self.head = head
        self.kcols = group_cols + [SALT]
        needed: list[str] = []
        produced: set = set()
        for s in self.stages:
            for c in s.inputs:
                if c not in produced and c not in needed:
                    needed.append(c)
            produced.update(s.outputs)
        for c in self.kcols + sort_cols:
            if c not in needed:
                needed.append(c)
        self.needed = needed

    def _resolved_prefixes(self) -> dict:
        if not isinstance(self.prefixes, dict):
            self.prefixes = ray.get(self.prefixes)
        return self.prefixes

    def _local_prefix(self, pdf: pd.DataFrame, k: int):
        """Reindex step k's global prefix table to this partition's gids."""
        glob = self._resolved_prefixes().get(k)
        if glob is None or glob.empty:
            return None
        first = ~pdf[GID].duplicated()
        keys = pdf.loc[first, self.kcols + [GID]]
        if len(self.kcols) == 1:
            idx = pd.Index(keys[self.kcols[0]])
        else:
            idx = pd.MultiIndex.from_frame(keys[self.kcols])
        local = glob.reindex(idx)
        local.index = keys[GID].to_numpy()
        local = local.dropna(how="all")
        return local if len(local) else None

    def __call__(self, tbl: pa.Table):
        if PART in tbl.column_names:
            tbl = tbl.drop_columns([PART])
        by = self.kcols + self.sort_cols
        idx = pc.sort_indices(tbl, sort_keys=[(c, "ascending") for c in by])
        tbl = tbl.take(idx)
        if self.head is not None:
            # row-count-changing head: the whole frame (caller curates the
            # projection — hot skinny for state passes, full payload for the
            # main pass) goes through pandas; output rebuilt, not patched
            pdf = self.head(tbl.to_pandas())
            pdf = pdf.sort_values(by, kind="stable", ignore_index=True)
            pdf = assign_gid(pdf, self.kcols)
            pdf, states = self._stage_loop(pdf)
            if self.mode == "state":
                return pa.table(
                    {"payload": pa.array([pickle.dumps(states)], pa.binary())}
                )
            pdf = pdf.drop(columns=[c for c in (GID,) if c in pdf.columns])
            return pa.Table.from_pandas(pdf, preserve_index=False)
        cols = [c for c in self.needed if c in tbl.column_names]
        pdf = tbl.select(cols).to_pandas()
        pdf = assign_gid(pdf, self.kcols)

        pdf, states = self._stage_loop(pdf)

        if self.mode == "state":
            return pa.table(
                {"payload": pa.array([pickle.dumps(states)], pa.binary())}
            )

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

    def _stage_loop(self, pdf: pd.DataFrame):
        """Run the fused chain over a sorted, gid-stamped frame. mode="state":
        steps of level < state_level transform+apply, the level's mergeable
        steps emit per-chunk states. mode="run": every step transforms and
        prefix-corrects. Returns (frame, states)."""
        gid = pdf[GID]
        upto = (
            self.state_level if self.mode == "state" else len(self.stages)
        )
        states: dict[int, pd.DataFrame] = {}
        for k, stage in enumerate(self.stages):
            if self.mode == "state" and self.levels[k] >= upto:
                if self.levels[k] == self.state_level and getattr(
                    stage.step, "chunk_mergeable", False
                ):
                    st = stage.step.chunk_state(pdf, gid)
                    keys = pdf.loc[
                        ~gid.duplicated(), self.kcols + [GID]
                    ].set_index(GID)
                    states[k] = keys.join(st)
                continue
            local = self._local_prefix(pdf, k)
            if getattr(stage.step, "chunk_transform_defer", False):
                # whole-group-stat steps (e.g. per-group mean fill): running
                # the chunk-local transform would bake CHUNK stats into the
                # data. Hot chunks instead fill from the folded group TOTALS
                # (apply_chunk_prefix); cold groups — fully present in this
                # partition — get the ordinary transform.
                hot = (
                    pdf[GID].isin(local.index)
                    if local is not None
                    else pd.Series(False, index=pdf.index)
                )
                if (~hot).any():
                    cold_part = stage.step.transform_frame(
                        pdf.loc[~hot].copy(), self.group_cols
                    )
                    pdf.loc[~hot, cold_part.columns] = cold_part
                if local is not None and hot.any():
                    pdf = stage.step.apply_chunk_prefix(pdf, pdf[GID], local)
                continue
            pdf = stage.step.transform_frame(pdf, self.group_cols)
            if local is not None:
                pdf = stage.step.apply_chunk_prefix(pdf, pdf[GID], local)
        return pdf, states


def _fold_global(step, states_df: pd.DataFrame, group_cols: list[str],
                 kcols: list[str]) -> pd.DataFrame:
    """Per-group salt-ordered fold → prefix table indexed by (group…, salt).

    Steps providing ``fold_chunk_states_grouped`` fold ALL groups in one
    vectorized call (grouped prefix scans) — per-group Python folding
    measured 50+ s on 10k (group × step) folds at sf0.1."""
    state_cols = [c for c in states_df.columns if c not in kcols]
    # suffix-carry steps (lead, backward fill) fold over LATER chunks:
    # feed the fold in salt-descending order
    reverse = getattr(step, "chunk_fold_reverse", False)
    grouped_fold = getattr(step, "fold_chunk_states_grouped", None)
    if grouped_fold is not None:
        df = states_df.sort_values(
            group_cols + [SALT],
            ascending=[True] * len(group_cols) + [not reverse],
            kind="stable",
            ignore_index=True,
        )
        gkey = (
            df[group_cols[0]]
            if len(group_cols) == 1
            else pd.Series(list(df[group_cols].itertuples(index=False,
                                                          name=None)))
        )
        pref = grouped_fold(df[state_cols], gkey)
        pref.index = (
            pd.Index(df[kcols[0]])
            if len(kcols) == 1
            else pd.MultiIndex.from_frame(df[kcols])
        )
        return pref
    out = []
    for _, grp in states_df.groupby(group_cols, sort=False):
        grp = grp.sort_values(SALT, ascending=not reverse)
        pref = step.fold_chunk_states(grp[state_cols])
        pref.index = (
            pd.Index(grp[kcols[0]])
            if len(kcols) == 1
            else pd.MultiIndex.from_frame(grp[kcols])
        )
        out.append(pref)
    return pd.concat(out) if out else pd.DataFrame()


def _grid_prefix_pass(hot_skinny, step, group_cols, sort_cols, chunk_span,
                      plan):
    """Passes A+B of the salted grid resample (see
    :func:`run_salted_resample_grid`): per-chunk slot ownership plus the
    per-chunk ffill carry of every LAST-mapped column.

    A. skinny pass → per (group, salt) chunk min/max ts; driver fold → the
       grid anchor ``gmin`` and each chunk's OWNED slot range
       ``[k_lo, k_end)`` — chunk i owns every slot from its salt window
       start up to the NEXT chunk's window start, so event-less gap windows
       are covered by the preceding chunk.
    B. skinny pass (needs gmin) → per chunk per LAST column the last
       non-null value among its ON-GRID rows (post keep-first dedup);
       driver grouped ffill+shift → the ffill seed carried into each chunk.

    Both passes are exchanges of the hot skinny rows on their stamped
    ``PART`` (sized by the main exchange's ``plan``). Returns
    ``(prefix indexed by (group…, salt), res_i, unit)``.
    """
    seq = step._seq_col
    last_cols = [
        c for c, acc in step._col_acc.items() if acc.value == "last"
    ]
    kcols = group_cols + [SALT]

    # ---- pass A: per-chunk ts bounds -------------------------------- #
    def bounds_state(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(kcols + [seq]).to_pandas()
        g = pdf.groupby(kcols, sort=False, observed=True)
        out = g[seq].agg(["min", "max"]).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    bounds = exchange(
        hot_skinny, PART, bounds_state, plan.partitions, plan.blocks
    ).to_pandas()

    res64 = np.timedelta64(pd.Timedelta(step.new_resolution).to_timedelta64())
    unit = np.datetime_data(bounds["min"].dtype)[0]
    res_i = res64.astype(f"timedelta64[{unit}]").astype(np.int64)
    span = chunk_span

    bounds = bounds.sort_values(group_cols + [SALT], ignore_index=True)
    key = (
        bounds[group_cols[0]]
        if len(group_cols) == 1
        else pd.Series(list(bounds[group_cols].itertuples(index=False,
                                                          name=None)))
    )
    karr = key.to_numpy()
    tmin = bounds["min"].astype(np.int64).to_numpy()
    gfirst = np.r_[True, karr[1:] != karr[:-1]]
    glast = np.r_[karr[1:] != karr[:-1], True]
    gmin = pd.Series(tmin).groupby(karr, sort=False).transform(
        "min"
    ).to_numpy()
    gmax = bounds["max"].astype(np.int64).groupby(karr).transform("max"
                                                                  ).to_numpy()
    k_total = (gmax - gmin) // res_i  # max slot index (inclusive)
    # chunk i's window start (first chunk: gmin); next chunk's start bounds it
    wstart = np.where(gfirst, gmin, bounds[SALT].to_numpy() * span)
    nxt = np.roll(wstart, -1)
    k_lo = np.where(gfirst, 0, -(-(wstart - gmin) // res_i))
    k_end = np.where(glast, k_total + 1, -(-(nxt - gmin) // res_i))
    k_end = np.maximum(k_end, k_lo)
    prefixA = pd.DataFrame(
        {
            "k_lo": k_lo, "k_end": k_end, "gmin": gmin, "res": res_i,
        },
        index=pd.MultiIndex.from_frame(bounds[kcols])
        if len(kcols) > 1
        else pd.Index(bounds[kcols[0]]),
    )
    gmin_map = {
        k: int(v) for k, v in zip(
            (karr if len(group_cols) == 1
             else key), gmin,
        )
    }

    # ---- pass B: last non-null on-grid value per chunk per LAST col -- #
    gmin_ref = ray.put(gmin_map)

    def carry_state(tbl: pa.Table) -> pa.Table:
        gm = ray.get(gmin_ref)
        pdf = tbl.to_pandas().sort_values(
            kcols + sort_cols, kind="stable", ignore_index=True
        )
        pdf = pdf.drop_duplicates(subset=group_cols + [seq], keep="first")
        if len(group_cols) == 1:
            gkey = pdf[group_cols[0]]
        else:
            gkey = pd.Series(
                list(pdf[group_cols].itertuples(index=False, name=None))
            )
        anchor = gkey.map(gm).to_numpy()
        ts = pdf[seq].astype(np.int64).to_numpy()
        ongrid = (ts - anchor) % res_i == 0
        # EVERY chunk must emit a state row (chunks with no on-grid rows
        # still need the carry chain to flow through them): mask off-grid
        # values to null, then per-chunk last-non-null
        sub = pdf.copy()
        for c in last_cols:
            sub.loc[~ongrid, c] = (
                np.nan
                if pd.api.types.is_numeric_dtype(sub[c])
                else None
            )
        g = sub.groupby(kcols, sort=False, observed=True)
        out = (
            g[last_cols].last().reset_index()
            if last_cols
            else g.size().to_frame("n").reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    carries = exchange(
        hot_skinny, PART, carry_state, plan.partitions, plan.blocks
    ).to_pandas()
    carries = carries.sort_values(group_cols + [SALT], ignore_index=True)
    ck = (
        carries[group_cols[0]]
        if len(group_cols) == 1
        else pd.Series(list(carries[group_cols].itertuples(index=False,
                                                           name=None)))
    ).to_numpy()
    prefixB = pd.DataFrame(index=(
        pd.MultiIndex.from_frame(carries[kcols])
        if len(kcols) > 1
        else pd.Index(carries[kcols[0]])
    ))
    for c in last_cols:
        v = carries[c] if c in carries.columns else pd.Series(
            np.nan, index=carries.index
        )
        prefixB[f"carry_{c}"] = (
            v.groupby(ck, sort=False).ffill().groupby(ck, sort=False)
            .shift(1).to_numpy()
        )
    return prefixA.join(prefixB, how="left"), res_i, unit


def _resample_partition_frame(
    pdf: pd.DataFrame,
    pref: pd.DataFrame,
    step,
    group_cols: list[str],
    res_i: int,
    unit: str,
    keep_keys: bool = False,
):
    """One partition's grid resample, exactly global. ``pdf`` must be sorted
    by (group…, salt, sort_cols). Cold groups (key not in ``pref``) run the
    ordinary whole-group grid kernel; hot chunks emit their OWNED slot range
    (broadcast ``pref``: k_lo/k_end/gmin + ffill carries) and join their own
    on-grid rows. ``keep_keys=True`` retains the SALT column so the fused
    resample→chain runner can keep grouping downstream steps by
    (group, salt) chunk."""
    seq = step._seq_col
    kcols = group_cols + [SALT]
    last_cols = [
        c for c, acc in step._col_acc.items()
        if acc.value == "last" and c in pdf.columns
    ]
    kidx = (
        pd.MultiIndex.from_frame(pdf[kcols])
        if len(kcols) > 1
        else pd.Index(pdf[kcols[0]])
    )
    hot_rows = kidx.isin(pref.index)
    outs = []
    if (~hot_rows).any():
        cold = pdf.loc[~hot_rows].copy()
        cold = assign_gid(cold, group_cols)
        cold_out = step._grid_frame(cold, group_cols)
        if keep_keys:
            cold_out[SALT] = np.int64(0)
        outs.append(cold_out)
    if hot_rows.any():
        hotp = pdf.loc[hot_rows].copy()
        hotp = assign_gid(hotp, kcols)
        gid = hotp[GID]
        first = ~gid.duplicated()
        keys = hotp.loc[first, kcols + [GID]]
        lidx = (
            pd.Index(keys[kcols[0]])
            if len(kcols) == 1
            else pd.MultiIndex.from_frame(keys[kcols])
        )
        local = pref.reindex(lidx)
        local.index = keys[GID].to_numpy()
        counts = (
            (local["k_end"] - local["k_lo"]).astype(np.int64).to_numpy()
        )
        gmin_l = local["gmin"].to_numpy()
        klo_l = local["k_lo"].to_numpy()
        total = int(counts.sum())
        offs = np.arange(total) - np.repeat(
            np.r_[0, np.cumsum(counts)[:-1]], counts
        )
        slot_ts_int = (
            np.repeat(gmin_l, counts)
            + (np.repeat(klo_l, counts) + offs) * res_i
        )
        grid = pd.DataFrame({GID: np.repeat(keys[GID].to_numpy(), counts)})
        grid[seq] = pd.Series(slot_ts_int).astype(f"datetime64[{unit}]")
        for c in kcols:
            grid[c] = np.repeat(keys[c].to_numpy(), counts)
        right = hotp.drop_duplicates(
            subset=group_cols + [seq], keep="first"
        )
        right = right.drop(columns=kcols)
        merged = grid.merge(right, on=[GID, seq], how="left")
        if last_cols:
            merged[last_cols] = merged.groupby(GID, sort=False)[
                last_cols
            ].ffill()
            for c in last_cols:
                carry = merged[GID].map(local[f"carry_{c}"])
                merged[c] = merged[c].fillna(carry)
        outs.append(merged)
    helpers = {GID} if keep_keys else {GID, SALT}
    cols = [c for c in pdf.columns if c not in helpers]
    if not outs:
        return pdf.loc[[], cols]
    out = pd.concat(outs, ignore_index=True)
    return out[[c for c in cols if c in out.columns]]


class _GridHead:
    """Chunk-local grid resample used as a :class:`_ChunkedRunner` head: the
    fused salted resample→chain runner applies it to every sorted partition
    frame (state passes AND main pass) so the downstream chunk-mergeable
    steps are measured and corrected over the exactly-global RESAMPLED rows.
    The slot-ownership/carry prefix is ``ray.put`` once and resolved lazily
    per actor/task."""

    def __init__(self, prefix_ref, step, group_cols, res_i, unit):
        self.prefix_ref = prefix_ref  # pd.DataFrame or ray.ObjectRef of one
        self.step = step
        self.group_cols = list(group_cols)
        self.res_i = res_i
        self.unit = unit

    def _pref(self) -> pd.DataFrame:
        if not isinstance(self.prefix_ref, pd.DataFrame):
            self.prefix_ref = ray.get(self.prefix_ref)
        return self.prefix_ref

    def __call__(self, pdf: pd.DataFrame) -> pd.DataFrame:
        return _resample_partition_frame(
            pdf, self._pref(), self.step, self.group_cols,
            self.res_i, self.unit, keep_keys=True,
        )


def _pick_hot_skinny(stamped, cols, group_cols, hot_keys):
    """The hot groups' rows of ``stamped``, projected to ``cols`` and
    pinned: every state pass reads them again."""

    def pick_hot(tbl: pa.Table) -> pa.Table:
        mask = _hot_mask(tbl, group_cols, hot_keys)
        return tbl.select(
            [c for c in cols if c in tbl.column_names]
        ).filter(pa.array(mask))

    return stamped.map_batches(pick_hot, batch_format="pyarrow").materialize()


def _chunk_state_prefixes(hot_skinny, group_cols, sort_cols, stages, levels,
                          plan, head=None) -> dict:
    """The state passes (module docstring, step 2) and their driver fold
    (step 3): for each dependency level, one exchange of the hot skinny
    rows measures every chunk's state with the earlier levels' prefixes
    applied, and the driver folds them into per-chunk prefix tables — the
    intermediate reduce over partial states of FP-Hadoop (VLDB 2015).
    Returns {step index: prefix table indexed by (group…, salt)}."""
    kcols = group_cols + [SALT]
    prefixes: dict[int, pd.DataFrame] = {}
    for lv in sorted(set(levels)):
        if not any(
            levels[k] == lv and getattr(st.step, "chunk_mergeable", False)
            for k, st in enumerate(stages)
        ):
            continue
        runner = _ChunkedRunner(
            group_cols, sort_cols, stages, levels, ray.put(dict(prefixes)),
            mode="state", state_level=lv, head=head,
        )

        def run_state(tbl: pa.Table, _r=runner) -> pa.Table:
            return _r(tbl)

        merged: dict[int, list] = {}
        for row in exchange(
            hot_skinny, PART, run_state, plan.partitions, plan.blocks
        ).take_all():
            for k, df in pickle.loads(row["payload"]).items():
                merged.setdefault(k, []).append(df)
        for k, dfs in merged.items():
            states_df = pd.concat(dfs, ignore_index=True)
            prefixes[k] = _fold_global(
                stages[k].step, states_df, group_cols, kcols
            )
    return prefixes


def _chunk_main_pass(stamped, group_cols, sort_cols, stages, levels,
                     prefixes, plan, head=None):
    """The one payload exchange (module docstring, step 4): every partition
    runs the chain chunk-locally and corrects it with the broadcast
    prefixes; the helper columns are dropped."""
    runner = _ChunkedRunner(
        group_cols, sort_cols, stages, levels, ray.put(prefixes),
        mode="run", head=head,
    )

    def run_partition(tbl: pa.Table) -> pa.Table:
        return runner(tbl)

    def drop_helpers(tbl: pa.Table) -> pa.Table:
        return tbl.drop_columns(
            [c for c in (SALT, PART, GLOBAL_GROUP) if c in tbl.column_names]
        )

    return exchange(
        stamped, PART, run_partition, plan.partitions, plan.blocks
    ).map_batches(drop_helpers, batch_format="pyarrow")


def run_salted_resample_grid(
    ds,
    group_cols: list[str],
    sort_cols: list[str],
    step,
    num_partitions: int,
    salt,
):
    """Grid-mode resampling over salted mega-groups — bounded tasks.

    Grid semantics (steps/resample.py): per group, slots at
    ``gmin + k·res``; keep the first original row landing exactly on a
    slot; forward-fill LAST-mapped columns. Chunked execution: the
    skinny prefix passes of :func:`_grid_prefix_pass` (per-chunk slot
    ownership + ffill carries), then ONE payload shuffle where each
    partition emits its chunks' slots, joins its own rows, and
    forward-fills seeded with the carry (:func:`_resample_partition_frame`);
    cold groups run the ordinary whole-group kernel. Every task bounded by
    chunk span (+ its share of the slot grid)."""
    plan = plan_exchange(ds, num_partitions)
    hot = find_hot_groups(ds, group_cols, salt.threshold)
    if not hot:
        return run_grouped_chain(
            ds, group_cols, sort_cols, [step], num_partitions=num_partitions
        )
    hot_keys = set(hot)
    stamp = SaltedStamp(
        group_cols, sort_cols, num_partitions, hot_keys, salt.chunk_span
    )
    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )
    seq = step._seq_col
    last_cols = [
        c for c, acc in step._col_acc.items() if acc.value == "last"
    ]
    kcols = group_cols + [SALT]
    hot_skinny = _pick_hot_skinny(
        stamped, list(dict.fromkeys(kcols + sort_cols + [seq] + last_cols
                                    + [PART])),
        group_cols, hot_keys,
    )

    prefix, res_i, unit = _grid_prefix_pass(
        hot_skinny, step, group_cols, sort_cols, salt.chunk_span, plan
    )
    prefix_ref = ray.put(prefix)
    runner_group_cols = list(group_cols)
    runner_sort = list(sort_cols)

    # ---- main pass --------------------------------------------------- #
    def run_partition(tbl: pa.Table) -> pa.Table:
        pref = ray.get(prefix_ref)
        if PART in tbl.column_names:
            tbl = tbl.drop_columns([PART])
        by = kcols + runner_sort
        idx = pc.sort_indices(tbl, sort_keys=[(c, "ascending") for c in by])
        pdf = tbl.take(idx).to_pandas()
        out = _resample_partition_frame(
            pdf, pref, step, runner_group_cols, res_i, unit
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return exchange(
        stamped, PART, run_partition, num_partitions, plan.blocks
    )


def run_salted_resample_chain(
    ds,
    group_cols: list[str],
    sort_cols: list[str],
    steps: Sequence,
    num_partitions: int,
    salt,
):
    """Fused salted resample→chain execution: ONE payload shuffle total.

    ``steps[0]`` is a grid-mode resample (row-count changing), ``steps[1:]``
    are chunk-mergeable grouped steps. The two-shuffle split (grid resample,
    then re-salt over the resampled rows) is avoided by giving the shared
    chunk runner a :class:`_GridHead`: every pass first REBUILDS its chunks'
    exactly-global resampled rows from the broadcast slot-ownership/carry
    prefix, so the downstream state passes measure chunk states on
    RESAMPLED rows and the main pass transforms + prefix-corrects them in
    place — the "resampled-row state passes" design.

    Scale shape: per-chunk resampled size is bounded by the chunk's slot
    ownership (≈ chunk_span / resolution, plus any event-less gap the chunk
    precedes), the fold stays O(#hot chunks), and raw payload moves exactly
    once."""
    head_step, tail = steps[0], list(steps[1:])
    plan = plan_exchange(ds, num_partitions)
    hot = find_hot_groups(ds, group_cols, salt.threshold)
    if not hot:
        return run_grouped_chain(
            ds, group_cols, sort_cols, list(steps),
            num_partitions=num_partitions,
        )
    hot_keys = set(hot)
    stamp = SaltedStamp(
        group_cols, sort_cols, num_partitions, hot_keys, salt.chunk_span
    )
    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )

    seq = head_step._seq_col
    last_cols = [
        c for c, acc in head_step._col_acc.items() if acc.value == "last"
    ]
    stages = [GroupedStage(s) for s in tail]
    levels = step_levels(tail)

    # ONE materialized hot skinny feeds the grid prefix passes AND every
    # downstream state pass: union of both column footprints
    probe = _ChunkedRunner(group_cols, sort_cols, stages, levels, {})
    hot_skinny = _pick_hot_skinny(
        stamped, list(dict.fromkeys(
            [c for c in probe.needed if c != GID]
            + [seq] + last_cols + [PART]
        )),
        group_cols, hot_keys,
    )

    prefix, res_i, unit = _grid_prefix_pass(
        hot_skinny, head_step, group_cols, sort_cols, salt.chunk_span, plan
    )
    head = _GridHead(ray.put(prefix), head_step, group_cols, res_i, unit)
    prefixes = _chunk_state_prefixes(
        hot_skinny, group_cols, sort_cols, stages, levels, plan, head
    )
    return _chunk_main_pass(
        stamped, group_cols, sort_cols, stages, levels, prefixes, plan, head
    )


def run_global_chunked(
    ds,
    sort_cols: list[str],
    steps: Sequence,
    num_partitions: int,
):
    """Parallel execution of a GLOBAL (ungrouped) order-dependent chain.

    A global sequential scan was previously a single-partition task. With
    the chunk-merge protocol the whole dataset is ONE mega-group: rows are
    range-chunked on the first sort column, chunk states fold on the driver
    (O(#chunks)), and every partition computes exact global features — the
    same machinery as salted mega-groups with a constant group key.
    """
    import ray.data.aggregate as agg_mod

    plan = plan_exchange(ds, num_partitions)
    s0 = sort_cols[0]
    mm = ds.aggregate(agg_mod.Min(s0), agg_mod.Max(s0))
    lo, hi = mm[f"min({s0})"], mm[f"max({s0})"]

    def to_i64(v):
        if hasattr(v, "value"):  # pandas Timestamp
            return int(v.value)
        return int(v)

    lo_i, hi_i = to_i64(lo), to_i64(hi)
    n_chunks = max(1, 4 * num_partitions)
    span = max((hi_i - lo_i) // n_chunks + 1, 1)

    def stamp(tbl: pa.Table) -> pa.Table:
        sv = tbl.column(s0)
        if pa.types.is_timestamp(sv.type) or pa.types.is_duration(sv.type):
            sv = sv.cast(pa.int64())
        v = sv.to_numpy(zero_copy_only=False).astype(np.int64)
        salt = (v - lo_i) // span
        part = (salt % num_partitions).astype(np.int32)
        tbl = tbl.append_column(
            GLOBAL_GROUP, pa.array(np.zeros(len(tbl), np.int64))
        )
        tbl = tbl.append_column(SALT, pa.array(salt, pa.int64()))
        return tbl.append_column(PART, pa.array(part))

    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )

    group_cols = [GLOBAL_GROUP]
    stages = [GroupedStage(s) for s in steps]
    levels = step_levels(steps)

    probe = _ChunkedRunner(group_cols, sort_cols, stages, levels, {})
    skinny = [c for c in dict.fromkeys(probe.needed + [PART]) if c != GID]

    def pick_skinny(tbl: pa.Table) -> pa.Table:
        return tbl.select([c for c in skinny if c in tbl.column_names])

    hot_skinny = stamped.map_batches(
        pick_skinny, batch_format="pyarrow"
    ).materialize()
    prefixes = _chunk_state_prefixes(
        hot_skinny, group_cols, sort_cols, stages, levels, plan
    )
    return _chunk_main_pass(
        stamped, group_cols, sort_cols, stages, levels, prefixes, plan
    )


def _parity_prepass(hot_skinny, all_counts, group_cols, parity_steps):
    """duckdb-parity salted mode: per-group duckdb hash-group offsets (from
    the exact counts find_hot_groups already computed — no extra full-data
    pass) + per-chunk row offsets from the materialized hot skinny subset.
    Driver state is O(#groups + #hot chunks) — parity is the
    oracle-verification mode, not the 100-TB default path."""
    import numpy as np

    from recipys_ray.kernels.duckdb_parity import offsets_from_counts

    if len(group_cols) != 1:
        raise ValueError(
            "duckdb_parity salted mode needs a single integer group column"
        )
    gcol = group_cols[0]
    keys = np.array(list(all_counts.keys()))
    cnts = np.array(list(all_counts.values()), dtype=np.int64)
    offsets = offsets_from_counts(keys, cnts)

    def counts(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select([gcol, SALT]).to_pandas()
        vc = (
            pdf.groupby([gcol, SALT], sort=False, observed=True)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(vc, preserve_index=False)

    pdf = (
        hot_skinny.map_batches(counts, batch_format="pyarrow").to_pandas()
    )
    pdf = pdf.groupby([gcol, SALT], sort=False)["n"].sum().reset_index()
    pdf = pdf.sort_values([gcol, SALT], kind="stable", ignore_index=True)
    r0 = pdf.groupby(gcol, sort=False)["n"].cumsum() - pdf["n"]
    cmap = {
        (int(k), int(s)): (int(offsets[int(k)]), int(r))
        for k, s, r in zip(pdf[gcol], pdf[SALT], r0)
    }
    for st in parity_steps:
        st.set_parity_offsets({int(k): int(v) for k, v in offsets.items()})
        st.set_parity_chunk_offsets(gcol, cmap)


def run_salted_chunked(
    ds,
    group_cols: list[str],
    sort_cols: list[str],
    steps: Sequence,
    num_partitions: int,
    salt,
):
    """Salted grouped chain with chunk-local execution (module docstring).
    Caller guarantees every step is grouped + chunk_mergeable."""
    plan = plan_exchange(ds, num_partitions)
    parity_steps = [
        s for s in steps if getattr(s, "_parity_chunked", False)
    ]
    if parity_steps:
        hot, all_counts = find_hot_groups(
            ds, group_cols, salt.threshold, return_all_counts=True
        )
    else:
        hot = find_hot_groups(ds, group_cols, salt.threshold)
        all_counts = None
    if not hot:
        return run_grouped_chain(
            ds, group_cols, sort_cols, steps, num_partitions=num_partitions
        )
    hot_keys = set(hot)
    stamp = SaltedStamp(
        group_cols, sort_cols, num_partitions, hot_keys, salt.chunk_span
    )
    stamped = ds.map_batches(
        stamp, batch_format="pyarrow", batch_size=plan.stamp_rows
    )

    stages = [GroupedStage(s) for s in steps]
    levels = step_levels(steps)

    # skinny hot subset, reused by every state pass
    probe = _ChunkedRunner(group_cols, sort_cols, stages, levels, {})
    hot_skinny = _pick_hot_skinny(
        stamped, [c for c in dict.fromkeys(probe.needed + [PART]) if c != GID],
        group_cols, hot_keys,
    )

    if parity_steps:
        _parity_prepass(hot_skinny, all_counts, group_cols, parity_steps)

    prefixes = _chunk_state_prefixes(
        hot_skinny, group_cols, sort_cols, stages, levels, plan
    )
    return _chunk_main_pass(
        stamped, group_cols, sort_cols, stages, levels, prefixes, plan
    )
