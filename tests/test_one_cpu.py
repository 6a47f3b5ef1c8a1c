"""Plan-shape and liveness checks on a one-CPU Ray session.

The suite's shared session has four CPUs, so each check here runs in a
child process that starts its own one-CPU session, under a timeout: a
stage that waits for resources the session can never grant fails the test
instead of hanging the suite.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from .conftest import SF0001 as SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_one_cpu(body: str, timeout: float) -> subprocess.CompletedProcess:
    script = textwrap.dedent("""
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="WARNING")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
    """) + textwrap.dedent(body) + "\nray.shutdown()\n"
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    try:
        return subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        pytest.fail(f"one-CPU run did not finish in {timeout:.0f} s:\n"
                    f"{(e.stderr or b'')[-2000:]!r}")


def test_flagship_chain_has_no_empty_reducer():
    """P = 2 on one CPU: the stamp makes ≤ 2 blocks, each reducer holds one
    partition, no output block is empty and Ray logs no schema change."""
    r = run_one_cpu("""
        import json
        import ray.data as rd
        from recipys_ray.kernels.grouped import plan_exchange, run_grouped_chain
        from recipys_ray.pipelines.transcripts import (
            flagship_recipe, make_transcripts)

        tbl = make_transcripts(n_turns=40_000, seed=3, mega_conv_turns=400)
        ds = rd.from_arrow(tbl)
        rec = flagship_recipe(ds)
        plan = rec.explain()
        steps = [s for s in rec.steps if s.kind == "grouped"]
        out = run_grouped_chain(
            ds, steps[0].group_cols, steps[0].seq_cols, steps
        ).materialize()
        rows = [b.num_rows() for b in out.iter_internal_ref_bundles()]
        print(json.dumps({"plan": list(plan_exchange(ds)), "rows": rows,
                          "n": len(tbl), "explain": plan}))
    """, timeout=240)
    assert r.returncode == 0, r.stderr[-3000:]
    got = json.loads(r.stdout.strip().splitlines()[-1])
    partitions, _, blocks = got["plan"]
    assert partitions == 2 and blocks <= 2
    assert 0 < len(got["rows"]) <= 2 and min(got["rows"]) > 0, got["rows"]
    assert sum(got["rows"]) == got["n"]
    assert f"partitions=2, stamp blocks={blocks}" in got["explain"]
    assert "different schema" not in r.stderr + r.stdout


@pytest.mark.skipif(not os.path.isdir(SF), reason=f"testdata {SF} missing")
def test_actor_pool_queries_finish_on_one_cpu():
    """Queries whose actor pools asked for a minimum of 2 or 4 actors: on
    one CPU they must run (pool minimum capped at the CPUs), not wait."""
    r = run_one_cpu(f"""
        import ray.data as rd
        from recipys_ray.pipelines.driver_queries import QUERIES
        for name in ["text_stats", "langid_quality", "decontaminate",
                     "knn_ivf"]:
            out = QUERIES[name]({SF!r})
            n = out.count() if isinstance(out, rd.Dataset) else len(out)
            print("DONE", name, n)
    """, timeout=300)
    assert r.returncode == 0, r.stderr[-3000:]
    done = [l.split()[1] for l in r.stdout.splitlines() if l.startswith("DONE")]
    assert done == ["text_stats", "langid_quality", "decontaminate", "knn_ivf"]


def test_actor_pool_step_finishes_on_one_cpu():
    """A recipe's StepActorPool asks for two one-CPU actors by default. On
    one CPU, with read tasks upstream that need the CPU too, the pool is
    sized down and the recipe runs instead of waiting forever."""
    r = run_one_cpu("""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd
        from recipys_ray import Recipe, StepActorPool

        class Double:
            def __call__(self, tbl):
                return tbl.append_column(
                    "x2", pc.multiply(tbl.column("x").cast("double"), 2.0))

        def columns(tbl):
            ids = tbl.column("id")
            return pa.table({"g": pc.divide(ids, 10), "x": ids})

        ds = rd.range(1000, override_num_blocks=4).map_batches(
            columns, batch_format="pyarrow")
        rec = Recipe(ds, predictors=["x"], groups=["g"])
        rec.add_step(StepActorPool(Double, new_columns={"x2": pa.float64()}))
        print("X2", rec.prep().to_pandas()["x2"].sum())
    """, timeout=120)
    assert r.returncode == 0, r.stderr[-3000:]
    assert "X2 999000.0" in r.stdout
