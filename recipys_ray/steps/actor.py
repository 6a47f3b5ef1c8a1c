"""StepActorPool — a stateful stage as a first-class recipe step.

The reference's stateful hook is a model callable carried by value
(StepImputeModel, reference step.py:244-260). At scale, heavy state (a model
checkpoint, a tokenizer, a compiled index) must be loaded ONCE PER ACTOR,
not shipped per batch — Ray Data's actor-pool ``map_batches``. This step
surfaces that: the planner emits it as its own
``map_batches(cls, concurrency=N, batch_size=B, num_cpus=c)`` stage instead
of fusing it into a stateless batch chain.

``transformer_cls`` is constructed once per actor with
``fn_constructor_kwargs``; its ``__call__(batch)`` maps an Arrow table (or
pandas frame) per batch.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from recipys_ray.ingredients import Ingredients
from recipys_ray.selector import Selector
from recipys_ray.steps.base import Step


class StepActorPool(Step):
    _group = False

    def __init__(
        self,
        transformer_cls: type,
        fn_constructor_kwargs: Optional[dict] = None,
        concurrency=2,
        batch_size: Optional[int] = 4096,
        num_cpus: float = 1,
        batch_format: str = "pyarrow",
        sel: Selector = None,
        new_columns: Optional[dict] = None,
        role: str = "predictor",
    ):
        super().__init__(sel if sel is not None else Selector("actor", names=[]))
        self.transformer_cls = transformer_cls
        self.fn_constructor_kwargs = fn_constructor_kwargs or {}
        self.concurrency = concurrency
        self.batch_size = batch_size
        self.num_cpus = num_cpus
        self.batch_format = batch_format
        self.new_columns = new_columns or {}  # name -> pa.DataType
        self.role = role
        self.desc = f"Actor-pool stage {transformer_cls.__name__}"
        self._trained = True

    @property
    def kind(self) -> str:
        return "actor"

    def apply(self, ds):
        """Planner hook: emit this step as its own actor-pool stage, sized by
        :func:`~recipys_ray.kernels.grouped.actor_pool_args` so the pool
        can start on the session's CPUs."""
        from recipys_ray.kernels.grouped import actor_pool_args

        return ds.map_batches(
            self.transformer_cls,
            fn_constructor_kwargs=self.fn_constructor_kwargs,
            batch_format=self.batch_format,
            batch_size=self.batch_size,
            **{"num_cpus": self.num_cpus, **actor_pool_args(self.concurrency)},
        )

    def schema_delta(self, ing: Ingredients) -> dict[str, pa.DataType]:
        return dict(self.new_columns)

    def role_delta(self) -> dict[str, str]:
        return {c: self.role for c in self.new_columns}
