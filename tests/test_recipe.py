"""Recipe-level behavior (port of reference tests/test_recipe.py)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from recipys_ray import (
    Accumulator,
    Recipe,
    StepFunction,
    StepHistorical,
    StepImputeFill,
    StepScale,
    StepSklearn,
    all_numeric_predictors,
    all_of,
)
from recipys_ray.transformers import MinMaxScaler, OneHotEncoder

from .conftest import (
    f1_pandas,
    make_recipe,
    plan_counts,
    prep_counting_pins,
    sorted_pdf,
)


def test_prep_bake_same_result():
    """Reference test_recipe.py:17-21."""
    rec = make_recipe(f1_pandas(nan_x1=True))
    rec.add_step(StepImputeFill(sel=all_of(["x1"]), strategy="forward"))
    rec.add_step(StepScale(sel=all_of(["x1"])))
    prepped = sorted_pdf(rec.prep())
    baked = sorted_pdf(rec.bake())
    pd.testing.assert_frame_equal(prepped, baked)


def test_bake_uses_fitted_state():
    """Scale fitted on train data must be reused on bake data."""
    train = f1_pandas()
    rec = make_recipe(train)
    rec.add_step(StepScale(sel=all_of(["x1"])))
    rec.prep()
    test = f1_pandas()
    test["x1"] = test["x1"] + 100.0  # shifted distribution
    out = sorted_pdf(rec.bake(rd.from_pandas(test)))
    # baked with train mean/std → mean is shifted by 100/std, not ~0
    assert abs(out["x1"].mean()) > 1


def test_roles_init():
    rec = make_recipe(f1_pandas())
    assert rec.ingredients.roles["y"] == ["outcome"]
    assert rec.ingredients.roles["x1"] == ["predictor"]
    assert rec.ingredients.roles["id"] == ["group"]
    assert rec.ingredients.roles["time"] == ["sequence"]


def test_column_mismatch_raises():
    rec = make_recipe(f1_pandas())
    rec.add_step(StepImputeFill(value=0))
    bad = f1_pandas().rename(columns={"x1": "z1"})
    with pytest.raises(ValueError, match="differs from recipe data"):
        rec.bake(rd.from_pandas(bad))


def test_cache_keeps_fitted_steps():
    rec = make_recipe(f1_pandas())
    rec.add_step(StepScale(sel=all_of(["x1"])))
    rec.prep()
    rec.cache()
    assert rec.ingredients is None
    assert rec.steps[0].trained


def test_cache_then_bake_new_data():
    """cache() is the fit-once / bake-elsewhere artifact: baking NEW data
    after cache() must reuse the fitted state, not crash."""
    import pickle

    train = f1_pandas()
    rec = make_recipe(train)
    rec.add_step(StepScale(sel=all_of(["x1"])))
    rec.prep()
    rec.cache()
    rec = pickle.loads(pickle.dumps(rec))  # round-trip the artifact
    test = f1_pandas()
    test["x1"] = test["x1"] + 100.0
    out = sorted_pdf(rec.bake(rd.from_pandas(test)))
    # baked with the TRAIN mean/std → mean is shifted, not ~0
    assert abs(out["x1"].mean()) > 1
    with pytest.raises(ValueError, match="cache"):
        rec.bake()  # no data after cache() is a clean error


def test_no_group_for_group_step():
    """Reference test_steps.py:55-58 — grouped step without group role runs."""
    pdf = f1_pandas()
    ds = rd.from_pandas(pdf)
    rec = Recipe(ds, outcomes=["y"], predictors=["x1", "x2"])
    rec.add_step(StepImputeFill(value=0))
    rec.prep().to_pandas()


def test_accepts_pandas_polars_arrow_inputs():
    import polars as pl
    import pyarrow as pa

    pdf = f1_pandas()
    for data in (pdf, pa.Table.from_pandas(pdf[["id", "y", "x1"]]),
                 pl.from_pandas(pdf[["id", "y", "x1"]])):
        rec = Recipe(data, outcomes=["y"], predictors=["x1"], groups=["id"])
        rec.add_step(StepImputeFill(value=0))
        out = rec.prep().to_pandas()
        assert len(out) == 10


def test_chained_new_columns_get_roles():
    """Historical output columns become predictors and feed later steps
    (matches reference role assignment, step.py:360-362)."""
    rec = make_recipe(f1_pandas())
    rec.add_step(StepHistorical(sel=all_of(["x1"]), fun=Accumulator.MAX))
    rec.add_step(StepHistorical(fun=Accumulator.MEAN))  # picks up x1_max too
    out = sorted_pdf(rec.prep())
    assert "x1_max_mean" in out.columns


def test_fit_pin_modes_identical(ray_session):
    """materialize_before_fit memory/disk/False must produce identical
    output (disk = parquet checkpoint + re-read; False = re-execution)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    import recipys_ray as rr
    from recipys_ray.selector import all_of

    rng = np.random.default_rng(3)
    pdf = pd.DataFrame({
        "g": np.repeat(np.arange(8), 50),
        "t": np.tile(np.arange(50), 8),
        "v": rng.normal(size=400),
    })
    pdf.loc[::5, "v"] = np.nan
    outs = {}
    for mode in ["memory", "disk", False]:
        rec = rr.Recipe(
            rd.from_pandas(pdf), predictors=["v"], groups=["g"],
            sequences=["t"], materialize_before_fit=mode,
        )
        rec.add_step(rr.StepImputeFill(sel=all_of(["v"]), strategy="forward"))
        rec.add_step(rr.StepScale(sel=all_of(["v"])))
        out = rec.prep().to_pandas().sort_values(
            ["g", "t"], ignore_index=True
        )
        outs[mode] = out
    for mode in ["disk", False]:
        pd.testing.assert_frame_equal(outs["memory"], outs[mode])


def test_explain_physical_plan(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    import recipys_ray as rr
    from recipys_ray.pipelines.transcripts import flagship_recipe

    pdf = pd.DataFrame({
        "conv_id": np.repeat([1, 2], 30),
        "turn_idx": np.tile(np.arange(30), 2),
        "ts": pd.date_range("2024-01-01", periods=60, freq="min"),
        "n_chars": np.arange(60), "latency_s": np.arange(60.0),
        "score": np.arange(60.0),
    })
    rec = flagship_recipe(rd.from_pandas(pdf))
    plan = rec.explain()
    assert "total grouped shuffles: 1" in plan  # the single-shuffle claim
    assert "fit flush" in plan and "StepScale" in plan
    # explain must not execute or break a subsequent prep
    out = rec.prep().to_pandas()
    assert len(out) == 60


def test_migration_example_runs(ray_session):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "migrate_example", "/root/repo/examples/migrate_from_recipys.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out = mod.main()
    assert len(out) == 10


def test_llm_data_pipeline_example_runs(ray_session, tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "llm_pipeline_example", "/root/repo/examples/llm_data_pipeline.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    n = mod.main("/root/testdata/sf0.001", str(tmp_path / "out"))
    assert n > 0
    import duckdb

    got = duckdb.execute(
        f"SELECT count(*) FROM read_parquet('{tmp_path}/out/train_features/*.parquet')"
    ).fetchone()[0]
    assert got == n
    # the token-accounting stage covers the surviving docs, and every
    # word is at least one BPE token
    toks = duckdb.execute(
        f"""SELECT count(*), min(n_tokens >= n_words)
            FROM read_parquet('{tmp_path}/out/train_token_counts/*.parquet')
            WHERE n_words > 0"""
    ).fetchone()
    assert toks[0] > 0 and bool(toks[1])


# ---- fits that share one pin ----------------------------------------------
def _fit_frame(n=600):
    rng = np.random.default_rng(11)
    pdf = pd.DataFrame({
        "x": rng.normal(5.0, 2.0, n), "y": rng.exponential(3.0, n),
        "z": rng.integers(0, 1000, n).astype("float64"),
        "c": rng.choice(["a", "b", "c"], n),
    })
    pdf.loc[::9, "x"] = np.nan
    return pdf


def _three_fits(ds, between=None):
    """Scale(x) → MinMax(y) → one-hot(c): three fits on disjoint columns,
    with an optional step between the first two."""
    rec = Recipe(ds, predictors=["x", "y", "z", "c"])
    rec.add_step(StepScale(sel=all_of(["x"])))
    if between is not None:
        rec.add_step(between)
    rec.add_step(StepSklearn(MinMaxScaler(), sel=all_of(["y"])))
    rec.add_step(StepSklearn(OneHotEncoder(), sel=all_of(["c"]),
                             in_place=False))
    return rec


def test_shared_pin_matches_separate_pins(ray_session, monkeypatch):
    ds = rd.from_pandas(_fit_frame(), override_num_blocks=4)
    shared, pins = prep_counting_pins(_three_fits(ds), monkeypatch)
    # a user function between the fits ends sharing, even one that
    # declares a footprint apart from the fitted columns
    ident = StepFunction(function=lambda pdf: pdf, inputs=["z"],
                         outputs=["z"])
    split_rec = _three_fits(ds, between=ident)
    assert plan_counts(split_rec.explain())[1] == 2
    split, split_pins = prep_counting_pins(split_rec, monkeypatch)
    assert (pins, split_pins) == (1, 2)
    pd.testing.assert_frame_equal(shared, split)  # bit-identical


def test_dependent_fit_sees_written_values(ray_session, monkeypatch):
    pdf = _fit_frame()
    rec = Recipe(rd.from_pandas(pdf), predictors=["x", "y"])
    rec.add_step(StepScale(sel=all_of(["x"])))
    rec.add_step(StepSklearn(MinMaxScaler(), sel=all_of(["x"])))
    out, pins = prep_counting_pins(rec, monkeypatch)
    assert pins == 2
    z = (pdf["x"] - pdf["x"].mean()) / pdf["x"].std(ddof=0)
    want = (z - z.min()) / (z.max() - z.min())
    np.testing.assert_allclose(out["x"], want, rtol=1e-12, atol=1e-12)


def test_new_column_over_an_existing_one_ends_sharing(ray_session, monkeypatch):
    pdf = _fit_frame()
    pdf["MinMaxScaler_y"] = 100.0 + pdf["y"]  # the name MinMax(y) writes
    rec = Recipe(rd.from_pandas(pdf), predictors=["x", "y"])
    rec.add_step(StepSklearn(MinMaxScaler(), sel=all_of(["y"]),
                             in_place=False))
    rec.add_step(StepScale(sel=all_of(["MinMaxScaler_y"])))
    assert plan_counts(rec.explain())[1] == 2
    out, pins = prep_counting_pins(rec, monkeypatch)
    assert pins == 2
    mm = (pdf["y"] - pdf["y"].min()) / (pdf["y"].max() - pdf["y"].min())
    want = (mm - mm.mean()) / mm.std(ddof=0)
    np.testing.assert_allclose(out["MinMaxScaler_y"], want, rtol=1e-12,
                               atol=1e-12)


def test_batch_function_between_fits_ends_sharing(ray_session, monkeypatch):
    def drop_half(pdf):
        return pdf[pdf["z"] < 500]

    pdf = _fit_frame()
    rec = _three_fits(rd.from_pandas(pdf), between=StepFunction(
        function=drop_half, inputs=["z"], outputs=["z"]))
    assert plan_counts(rec.explain())[1] == 2
    out, pins = prep_counting_pins(rec, monkeypatch)
    assert pins == 2
    y = drop_half(pdf)["y"]
    np.testing.assert_allclose(
        out["y"], (y - y.min()) / (y.max() - y.min()), rtol=1e-12)


def test_bake_after_shared_prep_equals_prep(ray_session):
    ds = rd.from_pandas(_fit_frame(), override_num_blocks=4)
    rec = _three_fits(ds)
    assert plan_counts(rec.explain())[1] == 1
    prepped = rec.prep().to_pandas()
    pd.testing.assert_frame_equal(rec.bake(ds).to_pandas(), prepped)
