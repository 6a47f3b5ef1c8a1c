"""StepSklearn — wrap a transformer as a recipe step.

Re-expression of the reference's sklearn bridge (reference:
recipys/step.py:366-474). Two families:

1. :class:`recipys_ray.transformers.NativeTransformer` (the default): fit =
   ONE distributed partial-aggregate pass (aggregates.column_stats) feeding
   ``fit_from_stats``; transform = a stateless vectorized ``map_batches``
   body with the small fitted parameters broadcast in the stage closure.
2. Any duck-typed object with ``fit``/``transform`` (e.g. real sklearn when
   installed): fit collects the selected columns to the driver, guarded by a
   row cap — an explicit, documented escape hatch for small data only.

Column-naming rules match the reference exactly (step.py:430-466):
columnwise+new → ``<Cls>_<col>_<i+1>``; table+new → ``<Cls>_<col>`` when the
output width equals the input width, else ``<Cls>_<i+1>``.

Fit is whole-table, never grouped (reference ``_group = False``,
step.py:391).
"""

from __future__ import annotations

from copy import deepcopy

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.aggregates import column_stats
from recipys_ray.ingredients import Ingredients
from recipys_ray.selector import Selector, all_predictors
from recipys_ray.steps.base import Step
from recipys_ray.transformers import NativeTransformer

_COLLECT_CAP = 5_000_000  # rows; external (non-native) transformers only


class StepSklearn(Step):
    _group = False

    def __init__(
        self,
        sklearn_transformer: object,
        sel: Selector = None,
        columnwise: bool = False,
        in_place: bool = True,
        role: str = "predictor",
        fit_sample_rows: int = None,
    ):
        super().__init__(sel if sel is not None else all_predictors())
        self.desc = (
            f"Use sklearn transformer {sklearn_transformer.__class__.__name__}"
        )
        self.transformer = sklearn_transformer
        self.columnwise = columnwise
        self.in_place = in_place
        self.role = role
        # external (non-native) transformers only: fit on a seeded random
        # sample of at most this many rows instead of erroring above the
        # driver collect cap — an explicit opt-in, since sample-fitting
        # changes semantics for non-IID layouts
        self.fit_sample_rows = fit_sample_rows
        self._transformers: dict = {}
        self._out_cols: list[str] = []
        self._may_write: list[str] = []

    # ------------------------------------------------------------------ #
    @property
    def requires_fit(self) -> bool:
        return True

    @property
    def kind(self) -> str:
        return "batch"

    def _cls_name(self) -> str:
        return self.transformer.__class__.__name__

    def resolve(self, ing: Ingredients) -> None:
        super().resolve(ing)
        # before the fit the output names are unknown; the columns they
        # could overwrite are the existing ones named after the transformer
        prefix = self._cls_name() + "_"
        self._may_write = [c for c in ing.columns if c.startswith(prefix)]

    def frame_outputs(self) -> list[str]:
        """The columns :meth:`transform_batch` writes: ``_out_cols`` once
        fitted; before (``explain()``), the inputs of an in-place step and
        the columns a new-column step could overwrite."""
        if self.trained:
            return list(self._out_cols)
        return list(self.columns) if self.in_place else list(self._may_write)

    # ------------------------------------------------------------------ #
    def fit(self, ing: Ingredients) -> None:
        if isinstance(self.transformer, NativeTransformer):
            self._fit_native(ing)
        else:
            self._fit_external(ing)
        self._trained = True

    def _fit_native(self, ing: Ingredients) -> None:
        if getattr(self.transformer, "needs_dataset", False):
            # multi-pass distributed fit (e.g. PowerTransformer λ search)
            if self.columnwise:
                self._transformers = {
                    col: deepcopy(self.transformer).distributed_fit(
                        ing.dataset, [col]
                    )
                    for col in self.columns
                }
            else:
                self.transformer.distributed_fit(ing.dataset, self.columns)
            self._compute_out_cols(ing)
            return
        want = set(self.transformer.stats_needed)
        stats = (
            column_stats(ing.dataset, self.columns, want) if want else {}
        )
        if self.columnwise:
            self._transformers = {
                col: deepcopy(self.transformer).fit_from_stats(stats, [col])
                for col in self.columns
            }
        else:
            if getattr(self.transformer, "one_dimensional", False) and len(
                self.columns
            ) > 1:
                raise ValueError(
                    "The sklearn transformer expects a 1d array as input. "
                    "Try running the step with columnwise=True."
                )
            self.transformer.fit_from_stats(stats, self.columns)
        self._compute_out_cols(ing)

    def _fit_external(self, ing: Ingredients) -> None:
        """Escape hatch for real sklearn-like objects: driver-side fit,
        optionally on a seeded random sample (``fit_sample_rows``)."""
        n = ing.dataset.count()
        cap = self.fit_sample_rows or _COLLECT_CAP
        if n > cap and self.fit_sample_rows is None:
            raise ValueError(
                f"External transformer fit would collect {n} rows to the "
                f"driver (cap {_COLLECT_CAP}). Use a NativeTransformer, or "
                f"pass fit_sample_rows=N to sample-fit."
            )
        src = ing.dataset.select_columns(self.columns)
        if self.fit_sample_rows is not None and n > self.fit_sample_rows:
            frac = min(1.0, 1.5 * self.fit_sample_rows / n)
            src = src.random_sample(frac, seed=17).limit(self.fit_sample_rows)
        pdf = src.to_pandas()
        if self.columnwise:
            self._transformers = {
                col: deepcopy(self.transformer.fit(pdf[col]))
                for col in self.columns
            }
        else:
            try:
                self.transformer.fit(pdf[self.columns])
            except ValueError as e:
                if "should be a 1d array" in str(e) or (
                    "Multioutput target data is not supported" in str(e)
                ):
                    raise ValueError(
                        "The sklearn transformer expects a 1d array as input. "
                        "Try running the step with columnwise=True."
                    )
                raise
        self._compute_out_cols(ing)

    # ------------------------------------------------------------------ #
    def _n_out(self, obj, col_count: int) -> int:
        """Output width of a fitted transformer, without touching data."""
        probe = pd.DataFrame(
            {c: pd.array([None], dtype="object") for c in (
                obj.columns_ if isinstance(obj, NativeTransformer) else []
            )}
        )
        try:
            if isinstance(obj, NativeTransformer):
                return np.asarray(obj.transform(probe)).shape[1]
        except Exception:
            pass
        return col_count

    def _compute_out_cols(self, ing: Ingredients) -> None:
        cls = self._cls_name()
        if self.columnwise:
            out = []
            for col in self.columns:
                t = self._transformers[col]
                k = self._n_out(t, 1)
                if self.in_place:
                    if k > 1:
                        raise ValueError(
                            "The sklearn transformer returned more than one "
                            "column. Try running the step with in_place=False."
                        )
                    out.append(col)
                else:
                    out.extend(f"{cls}_{col}_{i + 1}" for i in range(k))
            self._out_cols = out
        else:
            k = self._n_out(self.transformer, len(self.columns))
            if self.in_place:
                if k != len(self.columns):
                    raise ValueError(
                        "The sklearn transformer returned a different amount "
                        "of columns. Try running the step with in_place=False."
                    )
                self._out_cols = list(self.columns)
            else:
                self._out_cols = (
                    [f"{cls}_{c}" for c in self.columns]
                    if k == len(self.columns)
                    else [f"{cls}_{i + 1}" for i in range(k)]
                )

    # ------------------------------------------------------------------ #
    def transform_batch(self, tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(
            [c for c in self.columns if c in tbl.column_names]
        ).to_pandas()
        if self.columnwise:
            blocks = []
            for col in self.columns:
                res = np.asarray(self._transformers[col].transform(pdf[[col]]))
                if res.ndim == 1:
                    res = res.reshape(-1, 1)
                blocks.append(res)
            result = np.hstack(blocks) if blocks else np.empty((len(pdf), 0))
        else:
            result = np.asarray(self.transformer.transform(pdf))
            if result.ndim == 1:
                result = result.reshape(-1, 1)
        if result.shape[1] != len(self._out_cols):
            raise ValueError(
                "The sklearn transformer returned a different amount of "
                "columns. Try running the step with in_place=False."
            )
        for i, name in enumerate(self._out_cols):
            col = result[:, i]
            # from_pandas=True: NaN → null (arrow-idiomatic; the reference's
            # polars backend keeps NaN for most steps but StepScale reverts
            # to null, step.py:601-602 — we normalize to null everywhere)
            arr = pa.array(col, from_pandas=True)
            if name in tbl.column_names:
                tbl = tbl.set_column(tbl.column_names.index(name), name, arr)
            else:
                tbl = tbl.append_column(name, arr)
        return tbl

    # ------------------------------------------------------------------ #
    def schema_delta(self, ing: Ingredients) -> dict[str, pa.DataType]:
        delta = {}
        for name in self._out_cols:
            cur = ing.dtypes.get(name)
            if cur is None or not pa.types.is_floating(cur):
                delta[name] = pa.float64()
        return delta

    def role_delta(self) -> dict[str, str]:
        if self.in_place:
            return {}
        return {c: self.role for c in self._out_cols}
