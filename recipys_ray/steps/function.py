"""StepFunction — the stateless user-function hook (reference:
recipys/step.py:608-619).

The reference passes the whole in-memory Ingredients to the function; in a
distributed engine the function sees one batch (Arrow table or pandas frame)
at a time — it must be a pure batch→batch map. For order/group-dependent
logic set ``grouped=True``: the function then receives one hash partition as
a pandas frame sorted by (group, sequence) plus the group columns, inside the
shared shuffle.

**Salted mega-groups**: an arbitrary whole-frame function has no
chunk-mergeable formulation, so a grouped StepFunction refuses salted
execution by default (the planner falls back / errors per SaltConfig).
Users whose function IS prefix-decomposable can declare the chunk-merge
protocol (SURVEY.md §4) explicitly via the ``chunk_protocol`` hooks — the
step then rides the bounded chunk-local path like the built-in steps:

    StepFunction(
        function=fn, grouped=True,
        inputs=["x"], outputs=["x_cum"],       # column footprint
        chunk_protocol=ChunkProtocol(
            state=lambda pdf, gid: ...,        # one state row per chunk
            fold=lambda states: ...,           # salt-ordered fold → prefixes
            apply=lambda pdf, gid, pref: ...,  # in-place prefix correction
        ),
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import pandas as pd
import pyarrow as pa

from recipys_ray.selector import Selector, all_predictors
from recipys_ray.steps.base import Step


@dataclass
class ChunkProtocol:
    """User-declared chunk-merge hooks (see Step base docstrings for the
    exact contracts): ``state(pdf, gid) → DataFrame`` (one row per chunk,
    indexed by gid), ``fold(states) → DataFrame`` (salt-ordered states →
    per-chunk PREFIX rows, same index), ``apply(pdf, gid, prefix) → pdf``
    (correct chunk-local outputs; absent gids are cold groups). Optional
    ``fold_grouped(states, gkey)`` folds ALL groups in one vectorized call
    (recommended — the per-group fold loops Python at #hot-groups scale)."""

    state: Callable[[pd.DataFrame, pd.Series], pd.DataFrame]
    fold: Callable[[pd.DataFrame], pd.DataFrame]
    apply: Callable[[pd.DataFrame, pd.Series, pd.DataFrame], pd.DataFrame]
    fold_grouped: Optional[Callable] = None


class StepFunction(Step):
    def __init__(
        self,
        sel: Selector = None,
        function=None,
        batch_format: str = "pandas",
        grouped: bool = False,
        inputs: Optional[Sequence[str]] = None,
        outputs: Optional[Sequence[str]] = None,
        chunk_protocol: Optional[ChunkProtocol] = None,
    ):
        super().__init__(sel if sel is not None else all_predictors())
        if function is None:
            raise ValueError("function is required")
        if batch_format not in ("pandas", "pyarrow"):
            raise ValueError(batch_format)
        if chunk_protocol is not None and (inputs is None or outputs is None):
            raise ValueError(
                "chunk_protocol requires the column footprint: pass "
                "inputs=[...] and outputs=[...] so the salted state passes "
                "can project the skinny columns"
            )
        self.function = function
        self.batch_format = batch_format
        self.grouped = grouped
        self._inputs = list(inputs) if inputs is not None else None
        self._outputs = list(outputs) if outputs is not None else None
        self._proto = chunk_protocol
        self.desc = f"Apply function {getattr(function, '__name__', function)}"
        self._trained = True
        if self._proto is not None and self._proto.fold_grouped is not None:
            # the chunk runner duck-types on attribute presence
            self.fold_chunk_states_grouped = self._proto.fold_grouped

    # a user function may drop or reorder rows
    keeps_rows = False

    @property
    def kind(self) -> str:
        return "grouped" if self.grouped else "batch"

    # a user function may read/write anything → full-frame path, UNLESS the
    # caller declared an explicit footprint
    @property
    def frame_needs_all(self) -> bool:
        return self._inputs is None

    def frame_inputs(self) -> list[str]:
        return list(self._inputs) if self._inputs is not None else list(
            self.columns
        )

    def frame_outputs(self) -> list[str]:
        return list(self._outputs) if self._outputs is not None else list(
            self.columns
        )

    # ---------------- declared chunk-merge protocol ---------------------- #
    @property
    def chunk_mergeable(self) -> bool:
        return self._proto is not None

    def chunk_state(self, pdf: pd.DataFrame, gid: pd.Series) -> pd.DataFrame:
        return self._proto.state(pdf, gid)

    def fold_chunk_states(self, states: pd.DataFrame) -> pd.DataFrame:
        return self._proto.fold(states)

    def apply_chunk_prefix(
        self, pdf: pd.DataFrame, gid: pd.Series, prefix: pd.DataFrame
    ) -> pd.DataFrame:
        return self._proto.apply(pdf, gid, prefix)

    # ------------------------------------------------------------------ #
    def transform_batch(self, tbl: pa.Table) -> pa.Table:
        if self.batch_format == "pyarrow":
            out = self.function(tbl)
            if not isinstance(out, pa.Table):
                raise TypeError("pyarrow StepFunction must return a pa.Table")
            return out
        pdf = self.function(tbl.to_pandas())
        if not isinstance(pdf, pd.DataFrame):
            raise TypeError("pandas StepFunction must return a DataFrame")
        return pa.Table.from_pandas(pdf, preserve_index=False)

    def transform_frame(
        self, pdf: pd.DataFrame, group_cols: list[str]
    ) -> pd.DataFrame:
        return self.function(pdf, group_cols)
