"""Recipe — declarative prep/bake pipeline over a ``ray.data.Dataset``.

Re-expression of the reference Recipe (reference: recipys/recipe.py:16-202)
with a physical planner designed for Ray Data's streaming executor:

- Consecutive **batch** steps fuse into ONE ``map_batches`` stage
  (zero-copy Arrow in/out).
- Consecutive **grouped** (order-dependent) steps sharing the same
  (group, sequence) key fuse into ONE hash-partition + sorted-scan shuffle
  (kernels/grouped.py) — the flagship pipeline (ffill → historical × k →
  lag → sessionize) costs a single all-to-all exchange.
- Fitted steps fit in **groups that share one pin**. The first fit of a
  group flushes the pipeline and materializes it once (so the fit
  aggregates and the downstream transform don't recompute the upstream),
  in at most max(2 × CPUs, bytes / Ray block size) blocks. The fused batch
  chain that feeds the pin emits that many blocks itself when its input's
  row count is known from plan metadata (kernels/grouped.py ``plan_pin``),
  so the pin is one Dataset execution; otherwise ``size_pin`` coalesces the
  pin after it is taken. A later fit reads the same pin while
  every step queued since is a row- and order-preserving batch step that
  writes none of the columns it fits on (:func:`shares_pin`); its
  transform joins the pending fused chain. Each fit is a streaming
  partial-aggregate pass over the pin, and execution continues lazily.

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
from recipys_ray.kernels.grouped import plan_pin, run_grouped_chain, size_pin
from recipys_ray.steps.base import Step


class _BatchChain:
    """Fused chain of stateless batch transforms (one map_batches stage)."""

    def __init__(self, steps: list[Step]):
        self.steps = steps

    def __call__(self, tbl: pa.Table) -> pa.Table:
        for s in self.steps:
            tbl = s.transform_batch(tbl)
        return tbl


def shares_pin(queued: list[Step], fitted: Step) -> bool:
    """Whether ``fitted`` can fit from the current pin although ``queued``
    (the steps since the pin, not yet applied) have run: every queued step
    is a row- and order-preserving batch step, and none writes a column the
    fit reads. The fit then sees exactly the rows, in the order, and the
    values of its inputs that it would see after a fresh flush. The one
    rule of both ``Recipe._run`` and ``Recipe.explain()``."""
    reads = set(fitted.columns)
    return all(
        s.kind == "batch"
        and s.keeps_rows
        and not s.changes_rowcount
        and not s.frame_needs_all
        and reads.isdisjoint(s.frame_outputs())
        for s in queued
    )


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

        - True / "memory": ``ds.materialize()`` in at most
          max(2 × CPUs, bytes / Ray block size) blocks — fastest
          single-node, but pins the WHOLE dataset in the object store once
          per fit group (at 100 TB that spills everything through the
          object store).
        - "disk": checkpoint to parquet under ``$RECIPYS_CKPT_DIR`` (default
          /tmp/recipys_ckpt) and re-read — one streaming execution, bounded
          memory, each fit pass re-reads the compressed artifact; the right
          mode at cluster scale and for multi-pass fits (quantile/power).
        - False: no pinning — the lazy pipeline re-executes for every fit
          pass AND the downstream transform (only sensible when the
          upstream is a trivial read).

        Both pins are sized where their blocks are made: a row-preserving
        batch chain that feeds the pin runs in batches of ⌈rows / that
        bound⌉ when its input's row count is known, so a memory pin holds
        at most that many blocks and a checkpoint writes at most that many
        files (one per block). The checkpoint's files are sized, not the
        blocks its fits read: ``read_parquet`` splits the files again on
        the way back. A memory pin whose row count was unknown (a derived
        input, or a fit on the input itself) is coalesced after it is
        taken.
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

    def _pin(self, ds):
        """Pin the pipeline so far for a fit group (``materialize_before_fit``)."""
        mbf = self.materialize_before_fit
        if mbf in (True, "memory"):
            return size_pin(ds.materialize())
        if mbf == "disk":
            return self._disk_checkpoint(ds)
        return ds

    def _walk(self, ing: Ingredients, refit: bool, dry: bool = False):
        """The planner walk behind both ``_run`` and ``explain()``, so the
        run and the plan cannot drift. Resolves and expands the steps in
        order and yields the physical events:

        - ``("stage", steps, mode, chain_key, sizes)``: one fused
          ``map_batches`` chain (mode "batch") or one grouped shuffle over
          ``steps``. ``sizes`` is n when the stage is a row-preserving
          batch chain whose output becomes pin #n (memory or disk): it
          emits at most the pin's block bound (:func:`plan_pin`), else
          None;
        - ``("pin", step, n)``: pin the pipeline so far as pin #n, then fit
          ``step`` on it;
        - ``("shared", step, n)``: fit ``step`` on pin #n as it stands — the
          steps queued since are applied later, in the same chain
          (:func:`shares_pin`);
        - ``("actor", step)``: an actor-pool stage.

        The consumer fits a step when its event arrives; the walk resolves
        the next step only afterwards, against the schema that fit set.
        ``dry`` (explain) leaves resolution-only steps untrained.
        """
        pending: list[Step] = []
        mode: Optional[str] = None
        chain_key = None
        pins = 0
        # pin #pins is the current data: no stage has run on it since, only
        # `pending` is queued
        pinned = False

        def flush(pin: Optional[int] = None) -> list:
            nonlocal pending, mode, chain_key, pinned
            if not pending:
                return []
            sizes = pin if mode == "batch" and all(
                s.keeps_rows and not s.changes_rowcount for s in pending
            ) else None
            stage = ("stage", pending, mode, chain_key, sizes)
            pending, mode, chain_key, pinned = [], None, None, False
            return [stage]

        worklist = list(self.steps)
        i = 0
        while i < len(worklist):
            step = worklist[i]
            step.resolve(ing)
            # a step may decompose into plan nodes headed by itself
            worklist[i:i + 1] = step.expand(ing)

            if step.requires_fit and (
                refit or not step.trained or getattr(step, "always_refit", False)
            ):
                if pinned and shares_pin(pending, step):
                    yield "shared", step, pins
                else:
                    pins += 1
                    takes_pin = self.materialize_before_fit in (
                        True, "memory", "disk")
                    yield from flush(pins if takes_pin else None)
                    pinned = takes_pin
                    yield "pin", step, pins
            elif not step.trained and not dry:
                step._trained = True  # resolution is the only fit needed

            k = step.kind
            if k == "actor":
                # stateful actor-pool stage: its own operator, never fused
                yield from flush()
                pinned = False
                yield "actor", step
            else:
                key = (
                    (tuple(step.group_cols), tuple(step.seq_cols))
                    if k == "grouped"
                    else None
                )
                if mode is not None and (
                    k != mode or (k == "grouped" and key != chain_key)
                ):
                    yield from flush()
                mode = k
                chain_key = key if k == "grouped" else chain_key
                pending.append(step)

            ing.apply_schema_delta(step.schema_delta(ing))
            ing.apply_role_delta(step.role_delta())
            i += 1
        yield from flush()

    def _stage(self, ds, steps: list[Step], mode: str, chain_key,
               sizes: Optional[int]):
        """Emit one physical stage: a fused batch chain or a grouped
        shuffle (salted when the recipe has a SaltConfig). A batch chain
        that ``sizes`` a pin runs in batches that give the pin's block
        count when the plan knows its input rows (:func:`plan_pin`)."""
        if mode == "batch":
            plan = plan_pin(ds) if sizes else None
            return ds.map_batches(_BatchChain(steps), batch_format="pyarrow",
                                  batch_size=plan[0] if plan else None)
        group_cols, sort_cols = chain_key
        clean_tail = not any(
            s.frame_needs_all or s.changes_rowcount for s in steps[1:]
        )
        grid_head = getattr(steps[0], "salt_grid_capable", False) and clean_tail
        saltable = (
            self.salt is not None
            and group_cols
            and sort_cols
            and (
                not any(s.frame_needs_all or s.changes_rowcount for s in steps)
                or grid_head
            )
        )
        if saltable:
            from recipys_ray.kernels.grouped import choose_partitions
            from recipys_ray.kernels.salted import run_salted_chain

            # run_salted_chain owns the grid-head policy: a resample head
            # with an all-chunk-mergeable tail runs the FUSED
            # single-payload-shuffle path (resampled-row state passes,
            # kernels/chunked.py); a non-mergeable tail splits into grid
            # resample + re-salted tail.
            return run_salted_chain(
                ds,
                list(group_cols),
                list(sort_cols),
                steps,
                num_partitions=self.partitions or choose_partitions(ds),
                salt=self.salt,
            )
        if getattr(steps[0], "combinable", False):
            # shuffle combiner (e.g. agg-mode resampling): one partial row
            # per (group, bucket) leaves each read block; the in-partition
            # kernel merges partials — partition memory bounds at #buckets,
            # not #rows
            ds = ds.map_batches(
                steps[0].pre_aggregate_batch, batch_format="pyarrow"
            )
        return run_grouped_chain(
            ds,
            list(group_cols),
            list(sort_cols),
            steps,
            num_partitions=self.partitions,
        )

    def _run(self, ing: Ingredients, refit: bool):
        ds = ing.dataset
        for event, *args in self._walk(ing, refit):
            if event == "stage":
                ds = self._stage(ds, *args)
            elif event == "actor":
                ds = args[0].apply(ds)
            else:  # "pin" / "shared": fit on the current pin
                if event == "pin":
                    ds = self._pin(ds)
                ing.dataset = ds
                args[0].fit(ing)
        ing.dataset = ds
        self._last_ingredients = ing
        return ds

    # ------------------------------------------------------------------ #
    def explain(self, data=None) -> str:
        """Physical-plan preview WITHOUT executing anything: how steps fuse
        into map_batches chains and grouped shuffles, where fit flushes pin
        the pipeline, how the batch chain feeding a pin sizes it, which fits
        share a pin, and how salting routes. Walks the steps with
        ``_run``'s own planner (:meth:`_walk`); one line per physical stage
        or fit."""
        from recipys_ray.kernels.grouped import plan_exchange

        ing = self._check_data(data)
        lines: list[str] = []
        n_shuffles = 0
        # what the next exchange or pin sizes itself from: the recipe's input
        # (exact), a derived dataset (no size metadata: the default
        # partition count, unknown rows) or the data a fit flush pinned
        # (sized only once pinned, at run time)
        source = ing.dataset
        pinned = object()
        pin = {True: "materialize", "memory": "materialize",
               "disk": "parquet checkpoint"}.get(
                   self.materialize_before_fit, "no pin")

        def sizing(src, group, sort, steps, p=None) -> tuple:
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
                        for st in steps)
            ):
                plan = plan_exchange(src, 1)  # one serial partition
            return plan.partitions, (
                f"partitions={plan.partitions}, stamp blocks="
                f"{plan.blocks or '? (rows unknown)'}"
            )

        def stage(steps, mode, chain_key, sizes):
            nonlocal n_shuffles, source
            names = [type(st).__name__ for st in steps]
            head_grid = (
                getattr(steps[0], "salt_grid_capable", False)
                and not any(
                    st.frame_needs_all or st.changes_rowcount
                    for st in steps[1:]
                )
            )
            if mode == "batch":
                fused = f"fused x{len(steps)}"
                if sizes:
                    plan = (plan_pin(source) if source is not None
                            and source is not pinned else None)
                    fused += (f"; sizes pin #{sizes}: {plan[1]} blocks"
                              if plan else f"; pin #{sizes} sized at run time")
                lines.append(f"map_batches ({fused}): " + " -> ".join(names))
            else:
                g, s = chain_key
                salted = self.salt is not None and g and s
                tag = " [salted]" if salted else ""
                tail_mergeable = all(
                    getattr(st, "chunk_mergeable", False)
                    and not getattr(st, "_parity_chunked", False)
                    for st in steps[1:]
                )
                if not salted and getattr(steps[0], "combinable", False):
                    source = None  # the partial-aggregate stage's output
                head = f"(group={list(g)}, sort={list(s)}; "
                p, size = sizing(source, g, s, steps)
                if salted and len(steps) > 1 and head_grid and tail_mergeable:
                    # fused grid-head path: one payload shuffle, downstream
                    # chunk states measured on the resampled rows
                    n_shuffles += 1
                    lines.append(
                        f"grouped shuffle #{n_shuffles}{tag} {head}grid "
                        f"head + resampled-row chunk states; fused "
                        f"x{len(steps)}; {size}): " + " -> ".join(names)
                    )
                elif salted and len(steps) > 1 and head_grid:
                    # grid-head split (two bounded salted shuffles) — the
                    # tail has a non-chunk-mergeable step
                    n_shuffles += 2
                    lines.append(
                        f"grouped shuffle #{n_shuffles - 1}{tag} {head}"
                        f"{size}): {names[0]} (grid slot-ownership chunks)"
                    )
                    lines.append(
                        f"grouped shuffle #{n_shuffles}{tag} (re-salted "
                        f"over resampled rows; fused x{len(steps) - 1}; "
                        f"{sizing(pinned, g, s, steps, p)[1]}): "
                        + " -> ".join(names[1:])
                    )
                else:
                    n_shuffles += 1
                    lines.append(
                        f"grouped shuffle #{n_shuffles}{tag} {head}fused "
                        f"x{len(steps)}; {size}): " + " -> ".join(names)
                    )
            source = None  # every stage's output is a derived dataset

        for event, *args in self._walk(ing, refit=False, dry=True):
            if event == "stage":
                stage(*args)
                continue
            name = type(args[0]).__name__
            if event == "actor":
                lines.append(f"actor-pool stage: {name}")
                source = None
            elif event == "pin":
                if pin != "no pin":
                    source = pinned
                lines.append(f"fit flush #{args[1]} ({pin}): fit {name}")
            else:
                lines.append(f"fit on pin #{args[1]}: fit {name}")
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
