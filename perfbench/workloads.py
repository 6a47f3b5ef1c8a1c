"""The three workloads. Each makes its inputs from the seed, runs one job at
a time, and checks a job's outputs in full (oracle) or against a digest.

- flagship_bake: the repo's headline recipe, one grouped exchange and one
  fit, where the exchange and the partition kernel do most of the work.
- fit_bake: a recipe with no ordered step (so no exchange) that fits three
  transformers in prep() and applies them alone in bake().
- query_mix: twenty registered driver-contract queries, where per-execution
  engine overhead dominates; the only workload that runs kernels.salted,
  ops.join and steps.resample. BENCHMARK.json leaves it out to fit the
  benchmark's total time budget; every traced run still times its queries
  (query.<name>_s) and the salted chain, and it runs on its own with
  ``--workload query_mix``.
"""

from __future__ import annotations

import os
import shutil

import pyarrow.parquet as pq

import gen
import oracles
from spans import Tracer

# Run by query_mix, in this order: the single-CPU-safe queries of the
# registry families the engine's layers serve.
MIX = [
    "impute_ffill", "historical", "historical_salted", "hist_lineitem",
    "rolling", "lag_lead", "sessionize", "resample_grid_1h",
    "resample_agg_1h", "asof_purchase", "feature_bake", "scale_standard",
    "encode_onehot", "exact_quantiles", "group_quantiles",
    "join_lineitem_orders", "semi_join_orders", "left_join_customer_orders",
    "dedup_exact", "funnel",
]

# Registry queries left out of the mix: each pins a Ray actor pool whose
# minimum size exceeds one CPU, and on a one-CPU session it waits forever
# for actors that can never be scheduled.
EXCLUDED = {
    "text_stats": "actor pool concurrency=(2, 8) (ops/text.py via driver_queries)",
    "langid_quality": "actor pool concurrency=(2, 8)",
    "decontaminate": "actor pool concurrency=(2, 8) (ops/decontaminate.py)",
    "knn_ivf": "actor pool concurrency=4 (ops/similarity.py)",
}


KEYS = ["conv_id", "turn_idx"]  # a transcript row


def files_mb(path: str) -> float:
    if os.path.isfile(path):
        return os.path.getsize(path) / 1e6
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, fs in os.walk(path) for f in fs
    ) / 1e6


def flagship_recipe(ds):
    from recipys_ray.pipelines.transcripts import flagship_recipe as build

    return build(ds)


def events_recipe(ds):
    """The flagship composition over the events table (group user_id): the
    recipe the layer probes run on query_mix's inputs."""
    import recipys_ray as rr
    from recipys_ray.selector import all_of

    rec = rr.Recipe(
        ds, predictors=["value"], groups=["user_id"],
        sequences=["ts", "event_id"],
    )
    rec.add_step(rr.StepImputeFill(sel=all_of(["value"]), strategy="forward"))
    for fun in ("MIN", "MAX", "MEAN", "COUNT"):
        rec.add_step(rr.StepHistorical(
            sel=all_of(["value"]), fun=getattr(rr.Accumulator, fun)))
    rec.add_step(rr.StepLag(sel=all_of(["value"]), shifts=[1]))
    rec.add_step(rr.StepSessionize(gap="30m"))
    rec.add_step(rr.StepScale(sel=all_of(["value"])))
    return rec


def fit_recipe(ds):
    """Constant fill → z-score → one-hot(role) → quantile(n_chars): three
    fitted steps and no ordered one."""
    import recipys_ray as rr
    from recipys_ray.selector import all_of
    from recipys_ray.transformers import OneHotEncoder, QuantileTransformer

    rec = rr.Recipe(ds, predictors=["n_chars", "latency_s", "score", "role"])
    rec.add_step(rr.StepImputeFill(sel=all_of(["latency_s", "score"]), value=0.0))
    rec.add_step(rr.StepScale(sel=all_of(["latency_s", "score"])))
    rec.add_step(rr.StepSklearn(
        OneHotEncoder(), sel=all_of(["role"]), in_place=False))
    rec.add_step(rr.StepSklearn(QuantileTransformer(), sel=all_of(["n_chars"])))
    return rec


class Workload:
    name = ""
    deadline_s = 60.0  # a job running longer counts as failed
    rows = 0  # input rows of one job

    def __init__(self, work: str, root: str):
        self.work = work  # scratch directory inside the checkout
        self.root = root  # checkout root (scripts/ lives here)
        self._outputs = 0

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def job(self, tr: Tracer) -> dict:
        """One timed job; returns each output as a parquet directory or a
        DataFrame."""
        raise NotImplementedError

    def check_full(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def discard(self, outputs: dict) -> None:
        pass

    # layer probes (layers.py) use these
    def layer_recipe(self, ds):
        """The recipe whose plan and fit the recipe/aggregates probes time."""
        raise NotImplementedError

    def grouped_recipe(self, ds):
        """The recipe whose grouped steps the kernel probes run."""
        raise NotImplementedError

    def salt(self):
        raise NotImplementedError

    def input_path(self) -> str:
        raise NotImplementedError

    def bake_input(self) -> str:
        """What the recipe.bake probe applies the fitted recipe to."""
        return self.input_path()

    def memory_table(self):
        """The in-memory table the Ray-free kernel and transformer probes use."""
        raise NotImplementedError


class _Transcripts(Workload):
    transformer_cols = ("role", "n_chars")  # one-hot, quantile

    def prepare(self, seed: int) -> None:
        self.table = gen.transcripts(seed)
        self.rows = len(self.table)

    def memory_table(self):
        return self.table

    def grouped_recipe(self, ds):
        return flagship_recipe(ds)

    def salt(self):
        from recipys_ray.kernels.salted import SaltConfig

        # regular conversations are clipped at 400 turns, so only the two
        # mega-conversations are hot; chunks of 500 turns split each of them
        return SaltConfig(threshold=1_000, chunk_span=500)

    def _out_dir(self) -> str:
        self._outputs += 1
        return os.path.join(self.work, f"out-{self._outputs}")

    def discard(self, outputs: dict) -> None:
        for path in outputs.values():
            shutil.rmtree(path, ignore_errors=True)


class FlagshipBake(_Transcripts):
    name = "flagship_bake"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.path = gen.write_shards(self.table, os.path.join(self.work, "in"))

    def input_path(self) -> str:
        return self.path

    def layer_recipe(self, ds):
        return flagship_recipe(ds)

    def job(self, tr: Tracer):
        import ray.data as rd

        out = self._out_dir()
        with tr.span("io.read"):
            ds = rd.read_parquet(self.path)
        with tr.span("recipe.build"):
            rec = flagship_recipe(ds)
        with tr.span("recipe.prep"):
            res = rec.prep()
        with tr.span("io.write"):
            res.write_parquet(out)
        return {"out": out}

    def check_full(self, outputs):
        return oracles.check(outputs["out"], oracles.flagship_sql(f"{self.path}/*.parquet"),
                             KEYS)


class FitBake(_Transcripts):
    name = "fit_bake"

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        held = gen.heldout_mask(self.table)
        self.train = gen.write_shards(
            self.table.filter(~held), os.path.join(self.work, "train"))
        self.heldout = gen.write_shards(
            self.table.filter(held), os.path.join(self.work, "heldout"))

    def input_path(self) -> str:
        return self.train

    def bake_input(self) -> str:
        return self.heldout

    def layer_recipe(self, ds):
        return fit_recipe(ds)

    def job(self, tr: Tracer):
        import ray.data as rd

        out_train, out_held = self._out_dir(), self._out_dir()
        with tr.span("io.read"):
            train = rd.read_parquet(self.train)
            held = rd.read_parquet(self.heldout)
        with tr.span("recipe.build"):
            rec = fit_recipe(train)
        with tr.span("recipe.prep"):
            res = rec.prep()
        with tr.span("io.write"):
            res.write_parquet(out_train)
        with tr.span("recipe.bake"):
            baked = rec.bake(held)
        with tr.span("io.write"):
            baked.write_parquet(out_held)
        return {"train": out_train, "heldout": out_held}

    def check_full(self, outputs):
        roles = sorted(pq.read_table(self.train, columns=["role"])
                       .column("role").unique().to_pylist())
        problems = []
        for part, path in (("train", self.train), ("heldout", self.heldout)):
            ref = oracles.fit_bake_sql(
                f"{self.train}/*.parquet", f"{path}/*.parquet", roles)
            problems += [
                f"{part}: {p}" for p in oracles.check(
                    outputs[part], ref, KEYS,
                    tolerances={"n_chars": oracles.QUANTILE_TOL})
            ]
        return problems


class QueryMix(Workload):
    name = "query_mix"
    deadline_s = 120.0
    transformer_cols = ("event_type", "value")  # one-hot, quantile

    def prepare(self, seed: int) -> None:
        self.sf_dir = os.path.join(self.work, "tables")
        self.rows = gen.write_query_tables(seed, self.sf_dir)
        self.cc = oracles.load_check_contract(self.root)

    def input_path(self) -> str:
        return os.path.join(self.sf_dir, "events.parquet")

    def memory_table(self):
        return pq.read_table(self.input_path())

    def layer_recipe(self, ds):
        return events_recipe(ds)

    def grouped_recipe(self, ds):
        return events_recipe(ds)

    def salt(self):
        from recipys_ray.kernels.salted import SaltConfig

        # the historical_salted settings: most users hot, ~6 chunks each
        return SaltConfig(threshold=30, chunk_span=5 * 86_400_000_000)

    def job(self, tr: Tracer):
        from recipys_ray.pipelines.driver_queries import QUERIES

        outputs = {}
        for name in MIX:
            with tr.span(f"query.{name}"):
                outputs[name] = self.cc.to_pandas(QUERIES[name](self.sf_dir))
        return outputs

    def check_full(self, outputs):
        from recipys_ray.pipelines.driver_queries import ORACLES

        con = oracles.connect()
        try:
            for t in gen.ROWS:
                con.execute(
                    f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{self.sf_dir}/{t}.parquet')"
                )
            problems = []
            for name in MIX:
                ref = con.execute(ORACLES[name]).df()
                problems += [
                    f"{name}: {p}" for p in
                    oracles.contract_compare(self.cc, name, outputs[name], ref)
                ]
            return problems
        finally:
            con.close()


WORKLOADS = {w.name: w for w in (FlagshipBake, FitBake, QueryMix)}
