"""Step protocol for the Ray-native recipe engine.

The reference's ``Step`` (reference: recipys/step.py:28-118) fits on and
transforms one in-memory DataFrame. Here a step declares *how* it executes so
the planner can fuse work into few physical stages:

- ``kind == "batch"``   → a stateless, vectorized Arrow ``map_batches`` body
  (``transform_batch``). Consecutive batch steps are fused into one stage.
- ``kind == "grouped"`` → an order-dependent frame kernel
  (``transform_frame``) run inside the shared hash-partition + sorted-scan
  shuffle (kernels/grouped.py). Consecutive grouped steps are fused into one
  shuffle.
- ``requires_fit``      → the step needs a driver-side fit pass (global
  aggregates via aggregates.column_stats) before transforming. Fitted state
  must be a small picklable object; it is captured in the stage closure and
  therefore broadcast once per worker by Ray.
"""

from __future__ import annotations

from typing import Optional

import pandas as pd
import pyarrow as pa

from recipys_ray.ingredients import Ingredients
from recipys_ray.selector import (
    Selector,
    all_predictors,
    select_groups,
    select_sequence,
)


class Step:
    _group = True  # whether the step respects the group role

    def __init__(self, sel: Selector = None):
        self.sel = sel if sel is not None else all_predictors()
        self.columns: list[str] = []
        self.group_cols: list[str] = []
        self.seq_cols: list[str] = []
        self._trained = False

    # ------------------------------------------------------------------ #
    @property
    def trained(self) -> bool:
        return self._trained

    @property
    def requires_fit(self) -> bool:
        return False

    @property
    def kind(self) -> str:
        """"batch" | "grouped" — may depend on resolution (roles)."""
        return "batch"

    @property
    def changes_rowcount(self) -> bool:
        return False

    # ---------------- column footprint (grouped-kernel projection) -------- #
    # The partition runner converts ONLY these columns to pandas; wide
    # payload columns (text, binaries) stay zero-copy Arrow.
    frame_needs_all = False  # True → kernel needs the whole frame
    # a batch body returns every input row, in order, and writes only
    # frame_outputs(): a later fit that reads none of those columns fits
    # from the data pinned before this step (recipe.shares_pin)
    keeps_rows = True

    def frame_inputs(self) -> list[str]:
        """Columns the grouped kernel reads (group/sort cols are implicit)."""
        return list(self.columns)

    def frame_outputs(self) -> list[str]:
        """Columns the grouped kernel creates or modifies."""
        return list(self.columns)

    # ------------------------------------------------------------------ #
    def resolve(self, ing: Ingredients) -> None:
        """Resolve selector + roles against the current (symbolic) schema.

        Equivalent of reference ``Step.fit``'s selector resolution
        (reference step.py:56-64) — driver-side, no data motion.
        """
        self.columns = self.sel(ing)
        self.group_cols = select_groups(ing) if self._group else []
        self.seq_cols = select_sequence(ing)

    def fit(self, ing: Ingredients) -> None:
        """Driver-side fit: run distributed aggregates, store small state."""
        self._trained = True

    def expand(self, ing: Ingredients) -> list["Step"]:
        """Planner hook: a step may decompose into several plan nodes
        (called after resolve; e.g. resampling adds a global-fill node)."""
        return [self]

    # ---------------- chunk-merge protocol (salted mega-groups) ---------- #
    # A chunk-mergeable grouped step can run on salt-chunked mega-groups
    # without ever materializing the whole group in one task: a cheap skinny
    # pass collects one small state row per chunk, the driver folds them in
    # salt order into per-chunk PREFIX states (kernels/chunked.py), and the
    # main pass corrects its chunk-local outputs in place. SURVEY.md §4.
    @property
    def chunk_mergeable(self) -> bool:
        return False

    def chunk_state(self, pdf: pd.DataFrame, gid: pd.Series) -> pd.DataFrame:
        """One state row per chunk (gid) in this partition, computed on the
        columns this step READS, in sorted row order."""
        raise NotImplementedError

    def fold_chunk_states(self, states: pd.DataFrame) -> pd.DataFrame:
        """``states``: this group's chunk states in salt order. Returns the
        PREFIX state visible to each chunk (aligned to states.index) — i.e.
        the fold of all strictly-earlier chunks."""
        raise NotImplementedError

    def apply_chunk_prefix(
        self, pdf: pd.DataFrame, gid: pd.Series, prefix: pd.DataFrame
    ) -> pd.DataFrame:
        """Correct this step's chunk-local outputs using per-chunk prefix
        states (``prefix`` indexed by gid values; absent gids are cold
        groups and must stay untouched). Runs AFTER transform_frame."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def transform_batch(self, tbl: pa.Table) -> pa.Table:  # batch kind
        raise NotImplementedError

    def transform_frame(
        self, pdf: pd.DataFrame, group_cols: list[str]
    ) -> pd.DataFrame:  # grouped kind
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def schema_delta(self, ing: Ingredients) -> dict[str, pa.DataType]:
        """New/retyped columns this step will produce (symbolic)."""
        return {}

    def role_delta(self) -> dict[str, str]:
        """Roles for new columns (reference step.py:360-362, 470-472)."""
        return {}

    def __repr__(self):
        desc = getattr(self, "desc", self.__class__.__name__)
        r = f"{desc} for "
        if not self.trained:
            r += str(self.sel)
        else:
            cols = self.columns
            r += str(cols) if len(cols) < 3 else str(cols[:2] + ["..."])
            r += " [trained]"
        return r


def float64_delta(cols: list[str]) -> dict[str, pa.DataType]:
    return {c: pa.float64() for c in cols}


def sequence_or_error(ing: Ingredients, what: str) -> list[str]:
    seq = select_sequence(ing)
    if not seq:
        raise AssertionError(
            f"Sequence role has not been assigned, {what} not possible"
        )
    return seq
