"""Recipe — declarative prep/bake pipeline over a ``ray.data.Dataset``.

Re-expression of the reference Recipe (reference: recipys/recipe.py:16-202)
with a physical planner designed for Ray Data's streaming executor:

- Consecutive **batch** steps fuse into ONE ``map_batches`` stage
  (zero-copy Arrow in/out).
- Consecutive **grouped** (order-dependent) steps sharing the same
  (group, sequence) key fuse into ONE hash-partition + sorted-scan shuffle
  (kernels/grouped.py) — the flagship pipeline (ffill → historical × k →
  lag → sessionize) costs a single all-to-all exchange.
- A step that **requires fit** forces a flush; the current dataset is
  materialized once (so the fit aggregate and downstream transforms don't
  recompute the upstream pipeline), the small fitted state is computed via a
  streaming partial-aggregate pass, and execution continues lazily.

``prep()`` fits-and-transforms; ``bake()`` transforms with previously fitted
state (fitting silently on first call, matching reference recipe.py:174-177).
Both accept new data with the same column set as the original (reference
recipe.py:121-126). ``cache()`` drops the data reference while keeping
fitted steps — the serialized FittedRecipe artifact for fit-once /
bake-elsewhere (reference recipe.py:198-202).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain as _chain
from typing import Optional, Union

import pyarrow as pa

from recipys_ray.ingredients import Ingredients
from recipys_ray.kernels.grouped import run_grouped_chain
from recipys_ray.steps.base import Step


class _BatchChain:
    """Fused chain of stateless batch transforms (one map_batches stage)."""

    def __init__(self, steps: list[Step]):
        self.steps = steps

    def __call__(self, tbl: pa.Table) -> pa.Table:
        for s in self.steps:
            tbl = s.transform_batch(tbl)
        return tbl


class Recipe:
    _roles_snapshot: Optional[dict] = None  # set by cache()

    def __init__(
        self,
        data,
        outcomes: Union[str, list[str], None] = None,
        predictors: Union[str, list[str], None] = None,
        groups: Union[str, list[str], None] = None,
        sequences: Union[str, list[str], None] = None,
        roles: Optional[dict[str, list[str]]] = None,
        partitions: Optional[int] = None,
        materialize_before_fit: Union[bool, str] = True,
        salt=None,
    ):
        """``materialize_before_fit`` controls how the pipeline-so-far is
        pinned before a fitted step's aggregate pass(es):

        - True / "memory": ``ds.materialize()`` — fastest single-node, but
          pins the WHOLE dataset in the object store once per fit flush
          (at 100 TB that spills everything through the object store).
        - "disk": checkpoint to parquet under ``$RECIPYS_CKPT_DIR`` (default
          /tmp/recipys_ckpt) and re-read — one streaming execution, bounded
          memory, each fit pass re-reads the compressed artifact; the right
          mode at cluster scale and for multi-pass fits (quantile/power).
        - False: no pinning — the lazy pipeline re-executes for every fit
          pass AND the downstream transform (only sensible when the
          upstream is a trivial read).
        """
        if not isinstance(data, Ingredients):
            from recipys_ray.ingredients import as_dataset

            data = Ingredients(as_dataset(data), roles=roles or {})
        self.ingredients = data
        self.steps: list[Step] = []
        self.original_columns = list(data.columns)
        self.partitions = partitions
        self.materialize_before_fit = materialize_before_fit
        self.salt = salt  # SaltConfig → mega-group salted sub-partitioning

        for vars_, role in (
            (outcomes, "outcome"),
            (predictors, "predictor"),
            (groups, "group"),
            (sequences, "sequence"),
        ):
            if vars_:
                self.update_roles(vars_, role)

    # ------------------------------------------------------------------ #
    # role management (reference recipe.py:62-100)
    # ------------------------------------------------------------------ #
    def add_roles(self, vars, new_role: str = "predictor") -> "Recipe":
        for v in [vars] if isinstance(vars, str) else vars:
            self.ingredients.add_role(v, new_role)
        return self

    def update_roles(
        self, vars, new_role: str = "predictor", old_role: Optional[str] = None
    ) -> "Recipe":
        for v in [vars] if isinstance(vars, str) else vars:
            self.ingredients.update_role(v, new_role, old_role)
        return self

    def add_step(self, step: Step) -> "Recipe":
        self.steps.append(step)
        return self

    # ------------------------------------------------------------------ #
    def _check_data(self, data) -> Ingredients:
        if data is None:
            if self.ingredients is None:
                raise ValueError(
                    "Recipe was cache()d (data reference dropped); "
                    "prep/bake now require a data argument."
                )
            return self.ingredients.copy_meta()
        roles = (
            self.ingredients.roles
            if self.ingredients is not None
            else self._roles_snapshot
        )
        if not isinstance(data, Ingredients):
            from recipys_ray.ingredients import as_dataset

            data = Ingredients(
                as_dataset(data),
                roles=roles,
                check_roles=False,
            )
        if set(data.columns) != set(self.original_columns):
            raise ValueError(
                f"Columns of data argument differs from recipe data: "
                f"{[x for x in data.columns if x not in self.original_columns]}."
            )
        return data.copy_meta()

    def prep(self, data=None, refit: bool = False):
        """Fit + transform. Returns the resulting (lazy) ``ray.data.Dataset``."""
        ing = self._check_data(data)
        return self._run(ing, refit=refit)

    def bake(self, data=None):
        """Transform with fitted state (fits silently on first call)."""
        ing = self._check_data(data)
        return self._run(ing, refit=False)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _disk_checkpoint(ds):
        """Write the pipeline-so-far to parquet and stream it back — pins
        nothing in the object store; fit passes re-read the artifact."""
        import os
        import uuid

        import ray.data as rd

        root = os.environ.get("RECIPYS_CKPT_DIR", "/tmp/recipys_ckpt")
        path = os.path.join(root, uuid.uuid4().hex)
        os.makedirs(path, exist_ok=True)
        ds.write_parquet(path)
        return rd.read_parquet(path)

    def _run(self, ing: Ingredients, refit: bool):
        ds = ing.dataset
        pending: list[Step] = []
        mode: Optional[str] = None
        chain_key = None
        pinned = False  # ds already materialized/checkpointed, no ops since

        def flush():
            nonlocal ds, pending, mode, chain_key, pinned
            if not pending:
                return
            pinned = False
            if mode == "batch":
                ds = ds.map_batches(
                    _BatchChain(list(pending)), batch_format="pyarrow"
                )
            else:
                group_cols, sort_cols = chain_key
                clean_tail = not any(
                    s.frame_needs_all or s.changes_rowcount
                    for s in pending[1:]
                )
                grid_head = (
                    getattr(pending[0], "salt_grid_capable", False)
                    and clean_tail
                )
                saltable = (
                    self.salt is not None
                    and group_cols
                    and sort_cols
                    and (
                        not any(
                            s.frame_needs_all or s.changes_rowcount
                            for s in pending
                        )
                        or grid_head
                    )
                )
                if saltable:
                    from recipys_ray.kernels.grouped import choose_partitions
                    from recipys_ray.kernels.salted import run_salted_chain

                    # run_salted_chain owns the grid-head policy: a
                    # resample head with an all-chunk-mergeable tail runs
                    # the FUSED single-payload-shuffle path (resampled-row
                    # state passes, kernels/chunked.py); a non-mergeable
                    # tail splits into grid resample + re-salted tail.
                    ds = run_salted_chain(
                        ds,
                        list(group_cols),
                        list(sort_cols),
                        list(pending),
                        num_partitions=self.partitions
                        or choose_partitions(ds),
                        salt=self.salt,
                    )
                else:
                    first = pending[0]
                    if getattr(first, "combinable", False):
                        # shuffle combiner (e.g. agg-mode resampling): one
                        # partial row per (group, bucket) leaves each read
                        # block; the in-partition kernel merges partials —
                        # partition memory bounds at #buckets, not #rows
                        ds = ds.map_batches(
                            first.pre_aggregate_batch,
                            batch_format="pyarrow",
                        )
                    ds = run_grouped_chain(
                        ds,
                        list(group_cols),
                        list(sort_cols),
                        list(pending),
                        num_partitions=self.partitions,
                    )
            pending = []
            mode = None
            chain_key = None

        worklist = list(self.steps)
        i = 0
        while i < len(worklist):
            step = worklist[i]
            step.resolve(ing)
            expanded = step.expand(ing)
            if len(expanded) > 1 or expanded[0] is not step:
                worklist[i : i + 1] = expanded
                step = worklist[i]
                if expanded[0] is step:
                    pass  # already resolved
                else:
                    step.resolve(ing)

            if step.requires_fit and (
                refit or not step.trained or getattr(step, "always_refit", False)
            ):
                flush()
                mbf = self.materialize_before_fit
                if not pinned:
                    if mbf in (True, "memory"):
                        ds = ds.materialize()
                        pinned = True
                    elif mbf == "disk":
                        ds = self._disk_checkpoint(ds)
                        pinned = True
                ing.dataset = ds
                step.fit(ing)
            elif not step.trained:
                step._trained = True  # resolution is the only fit needed

            k = step.kind
            if k == "actor":
                # stateful actor-pool stage: its own operator, never fused
                flush()
                ds = step.apply(ds)
                pinned = False
            else:
                key = (
                    (tuple(step.group_cols), tuple(step.seq_cols))
                    if k == "grouped"
                    else None
                )
                if mode is not None and (
                    k != mode or (k == "grouped" and key != chain_key)
                ):
                    flush()
                mode = k
                chain_key = key if k == "grouped" else chain_key
                pending.append(step)

            ing.apply_schema_delta(step.schema_delta(ing))
            ing.apply_role_delta(step.role_delta())
            i += 1

        flush()
        ing.dataset = ds
        self._last_ingredients = ing
        return ds

    # ------------------------------------------------------------------ #
    def explain(self, data=None) -> str:
        """Physical-plan preview WITHOUT executing anything: how steps fuse
        into map_batches chains and grouped shuffles, where fit flushes pin
        the pipeline, and how salting routes. Mirrors ``_run``'s chaining
        rules (same resolution pass); one line per physical stage."""
        from recipys_ray.kernels.grouped import plan_exchange

        ing = self._check_data(data)
        lines: list[str] = []
        pending: list[str] = []
        pending_steps: list = []
        mode: Optional[str] = None
        chain_key = None
        n_shuffles = 0
        # what the next exchange sizes itself from: the recipe's input
        # (exact), a derived dataset (no size metadata: the default
        # partition count, unknown rows) or the data a fit flush pinned
        # (sized only once pinned, at run time)
        source = ing.dataset
        pinned = object()

        def sizing(src, group, sort, p=None) -> tuple:
            """(partition count or None, text) of one exchange over src."""
            p = p or self.partitions
            if src is pinned:
                return p, (
                    (f"partitions={p}" if p else
                     "partitions sized from the pinned data")
                    + ", stamp blocks sized from the pinned data"
                )
            plan = plan_exchange(src, p)
            if not group and not (
                sort and plan.partitions > 1
                and all(getattr(st, "chunk_mergeable", False)
                        for st in pending_steps)
            ):
                plan = plan_exchange(src, 1)  # one serial partition
            return plan.partitions, (
                f"partitions={plan.partitions}, stamp blocks="
                f"{plan.blocks or '? (rows unknown)'}"
            )

        def flush():
            nonlocal pending, mode, chain_key, n_shuffles, source
            if not pending:
                return
            head_grid = (
                getattr(pending_steps[0], "salt_grid_capable", False)
                and not any(
                    st.frame_needs_all or st.changes_rowcount
                    for st in pending_steps[1:]
                )
            )
            if mode == "batch":
                lines.append(
                    f"map_batches (fused x{len(pending)}): "
                    + " -> ".join(pending)
                )
            else:
                g, s = chain_key
                salted = self.salt is not None and g and s
                tag = " [salted]" if salted else ""
                tail_mergeable = all(
                    getattr(st, "chunk_mergeable", False)
                    and not getattr(st, "_parity_chunked", False)
                    for st in pending_steps[1:]
                )
                if not salted and getattr(
                    pending_steps[0], "combinable", False
                ):
                    source = None  # the partial-aggregate stage's output
                head = f"(group={list(g)}, sort={list(s)}; "
                p, size = sizing(source, g, s)
                if (
                    salted and len(pending) > 1 and head_grid
                    and tail_mergeable
                ):
                    # fused grid-head path: one payload shuffle, downstream
                    # chunk states measured on the resampled rows
                    n_shuffles += 1
                    lines.append(
                        f"grouped shuffle #{n_shuffles}{tag} {head}grid "
                        f"head + resampled-row chunk states; fused "
                        f"x{len(pending)}; {size}): " + " -> ".join(pending)
                    )
                elif salted and len(pending) > 1 and head_grid:
                    # grid-head split (two bounded salted shuffles) — the
                    # tail has a non-chunk-mergeable step
                    n_shuffles += 2
                    lines.append(
                        f"grouped shuffle #{n_shuffles - 1}{tag} {head}"
                        f"{size}): {pending[0]} (grid slot-ownership chunks)"
                    )
                    lines.append(
                        f"grouped shuffle #{n_shuffles}{tag} (re-salted "
                        f"over resampled rows; fused x{len(pending) - 1}; "
                        f"{sizing(pinned, g, s, p)[1]}): "
                        + " -> ".join(pending[1:])
                    )
                else:
                    n_shuffles += 1
                    lines.append(
                        f"grouped shuffle #{n_shuffles}{tag} {head}fused "
                        f"x{len(pending)}; {size}): " + " -> ".join(pending)
                    )
            source = None  # every stage's output is a derived dataset
            pending.clear()
            pending_steps.clear()
            mode = None
            chain_key = None

        worklist = list(self.steps)
        i = 0
        while i < len(worklist):
            step = worklist[i]
            step.resolve(ing)
            expanded = step.expand(ing)
            if len(expanded) > 1 or expanded[0] is not step:
                worklist[i:i + 1] = expanded
                step = worklist[i]
                if expanded[0] is not step:
                    step.resolve(ing)
            name = type(step).__name__
            if step.requires_fit and not step.trained:
                flush()
                mbf = self.materialize_before_fit
                pin = {True: "materialize", "memory": "materialize",
                       "disk": "parquet checkpoint"}.get(mbf, "no pin")
                if pin != "no pin":
                    source = pinned
                lines.append(f"fit flush ({pin}): fit {name}")
            k = step.kind
            if k == "actor":
                flush()
                lines.append(f"actor-pool stage: {name}")
                source = None
            else:
                key = (
                    (tuple(step.group_cols), tuple(step.seq_cols))
                    if k == "grouped" else None
                )
                if mode is not None and (
                    k != mode or (k == "grouped" and key != chain_key)
                ):
                    flush()
                mode = k
                chain_key = key if k == "grouped" else chain_key
                pending.append(name)
                pending_steps.append(step)
            ing.apply_schema_delta(step.schema_delta(ing))
            ing.apply_role_delta(step.role_delta())
            i += 1
        flush()
        lines.append(f"total grouped shuffles: {n_shuffles}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def cache(self) -> "Recipe":
        """Drop the data reference, keep fitted steps (reference
        recipe.py:198-202) — the picklable FittedRecipe artifact. Roles are
        snapshotted so ``bake(new_data)`` still works after caching."""
        if self.ingredients is not None:
            self._roles_snapshot = {
                k: list(v) for k, v in self.ingredients.roles.items()
            }
        self.ingredients = None
        # the last prep/bake output also pins data (its Dataset lineage can
        # reference fit-pass closures and pinned blocks) — a cached recipe
        # must hold fitted state only
        self._last_ingredients = None
        return self

    def __repr__(self):
        r = "Recipe\n\nInputs:\n\n"
        if self.ingredients is not None:
            num_roles = Counter(
                _chain.from_iterable(self.ingredients.roles.values())
            )
            r += "\n".join(f"  {k}: {v}" for k, v in num_roles.items())
        r += "\n\nOperations:\n\n"
        for step in self.steps:
            r += str(step) + "\n"
        return r
