"""Golden-file comparisons: run the ACTUAL reference code (polars backend,
imported read-only from /root/reference with sklearn/scipy stubbed —
SURVEY.md §5) on the same inputs and assert our Ray engine's output is
allclose per (group, time) with exact text/category equality."""

import numpy as np
import pandas as pd
import polars as pl
import pytest
import ray.data as rd

import recipys_ray as rr
from recipys_ray.pipelines.transcripts import make_transcripts

from .conftest import f1_datetime, f1_pandas, load_reference, sorted_pdf


@pytest.fixture(scope="module", autouse=True)
def reference_code():
    """Skip the module, with the reason, when the original ReciPys package
    can't be imported; tests/test_oracle_parity.py keeps the same query
    families checked against their DuckDB oracles."""
    try:
        load_reference()
    except ImportError as e:
        pytest.skip(f"original ReciPys code not importable ({e})")


def ref_f1_polars(nan_x1=False, nan_x2=False, datetime_time=False):
    pdf = f1_datetime(nan_x1=nan_x1) if datetime_time else f1_pandas(
        nan_x1=nan_x1, nan_x2=nan_x2
    )
    if nan_x2 and not datetime_time:
        pdf = f1_pandas(nan_x1=nan_x1, nan_x2=nan_x2)
    return pl.from_pandas(pdf), pdf


def compare(ours: pd.DataFrame, ref: pd.DataFrame, keys: list[str]):
    ours = ours.sort_values(keys, kind="stable").reset_index(drop=True)
    ref = ref.sort_values(keys, kind="stable").reset_index(drop=True)
    assert set(ours.columns) == set(ref.columns), (
        set(ours.columns) ^ set(ref.columns)
    )
    for c in ref.columns:
        r = ref[c]
        o = ours[c]
        if pd.api.types.is_numeric_dtype(r) and not pd.api.types.is_bool_dtype(r):
            np.testing.assert_allclose(
                o.to_numpy(dtype=float),
                r.to_numpy(dtype=float),
                equal_nan=True,
                err_msg=f"column {c}",
            )
        else:
            assert o.astype(str).tolist() == r.astype(str).tolist(), f"column {c}"


class TestGoldenF1:
    def test_impute_ffill(self):
        _, ref_step = load_reference()
        pl_df, pdf = ref_f1_polars(nan_x1=True)
        ref_recipe_mod, _ = load_reference()
        ref = ref_recipe_mod.Recipe(pl_df, ["y"], ["x1", "x2", "x3", "x4"],
                                    ["id"], ["time"])
        ref.add_step(ref_step.StepImputeFill(strategy="forward"))
        golden = ref.prep().to_pandas()

        rec = rr.Recipe(
            rd.from_pandas(pdf), outcomes=["y"],
            predictors=["x1", "x2", "x3", "x4"], groups=["id"],
            sequences=["time"], partitions=2,
        )
        rec.add_step(rr.StepImputeFill(strategy="forward"))
        ours = sorted_pdf(rec.prep())
        compare(ours, golden, ["id", "time"])

    @pytest.mark.parametrize("fun", ["MAX", "MIN", "MEAN", "MEDIAN", "COUNT", "VAR"])
    def test_historical(self, fun):
        ref_recipe_mod, ref_step = load_reference()
        pl_df, pdf = ref_f1_polars(nan_x1=True)
        ref = ref_recipe_mod.Recipe(pl_df, ["y"], ["x1", "x2", "x3", "x4"],
                                    ["id"], ["time"])
        ref.add_step(
            ref_step.StepHistorical(fun=ref_step.Accumulator[fun])
        )
        golden = ref.prep().to_pandas()

        rec = rr.Recipe(
            rd.from_pandas(pdf), outcomes=["y"],
            predictors=["x1", "x2", "x3", "x4"], groups=["id"],
            sequences=["time"], partitions=2,
        )
        rec.add_step(rr.StepHistorical(fun=rr.Accumulator[fun]))
        ours = sorted_pdf(rec.prep())
        compare(ours, golden, ["id", "time"])

    def test_resample_grid(self):
        ref_recipe_mod, ref_step = load_reference()
        pl_df, pdf = ref_f1_polars(datetime_time=True)
        ref = ref_recipe_mod.Recipe(pl_df, ["y"], ["x1", "x2", "x3", "x4"],
                                    ["id"], ["time"])
        ref.add_step(ref_step.StepResampling("2h"))
        golden = ref.prep().to_pandas()

        rec = rr.Recipe(
            rd.from_pandas(pdf), outcomes=["y"],
            predictors=["x1", "x2", "x3", "x4"], groups=["id"],
            sequences=["time"], partitions=2,
        )
        rec.add_step(rr.StepResampling("2h"))
        ours = sorted_pdf(rec.prep())
        compare(ours, golden, ["id", "time"])

    def test_scale(self):
        ref_recipe_mod, ref_step = load_reference()
        pl_df, pdf = ref_f1_polars(nan_x1=True)
        ref = ref_recipe_mod.Recipe(pl_df, ["y"], ["x1", "x2", "x3", "x4"],
                                    ["id"], ["time"])
        ref.add_step(ref_step.StepScale())
        golden = ref.prep().to_pandas()

        rec = rr.Recipe(
            rd.from_pandas(pdf), outcomes=["y"],
            predictors=["x1", "x2", "x3", "x4"], groups=["id"],
            sequences=["time"], partitions=2,
        )
        rec.add_step(rr.StepScale())
        ours = sorted_pdf(rec.prep())
        compare(ours, golden, ["id", "time"])


class TestGoldenTranscripts:
    """The reference engine itself on a small transcript table vs ours —
    feature vectors allclose at every (conv_id, turn_idx), text byte-equal."""

    def test_flagship_subset(self):
        ref_recipe_mod, ref_step = load_reference()
        tbl = make_transcripts(n_turns=4000, seed=7)
        pdf = tbl.to_pandas()

        pl_df = pl.from_pandas(pdf).sort(["conv_id", "turn_idx"])
        ref = ref_recipe_mod.Recipe(
            pl_df, predictors=["n_chars", "latency_s", "score"],
            groups=["conv_id"], sequences=["turn_idx"],
        )
        ref.add_step(ref_step.StepImputeFill(strategy="forward"))
        ref.add_step(ref_step.StepHistorical(fun=ref_step.Accumulator.MIN, suffix="min"))
        ref.add_step(ref_step.StepHistorical(fun=ref_step.Accumulator.MAX, suffix="max"))
        ref.add_step(ref_step.StepHistorical(fun=ref_step.Accumulator.MEAN, suffix="mean"))
        ref.add_step(ref_step.StepHistorical(fun=ref_step.Accumulator.COUNT, suffix="count"))
        ref.add_step(ref_step.StepScale())
        golden = ref.prep().to_pandas()

        rec = rr.Recipe(
            rd.from_arrow(tbl), predictors=["n_chars", "latency_s", "score"],
            groups=["conv_id"], sequences=["turn_idx"], partitions=4,
        )
        rec.add_step(rr.StepImputeFill(strategy="forward"))
        rec.add_step(rr.StepHistorical(fun=rr.Accumulator.MIN, suffix="min"))
        rec.add_step(rr.StepHistorical(fun=rr.Accumulator.MAX, suffix="max"))
        rec.add_step(rr.StepHistorical(fun=rr.Accumulator.MEAN, suffix="mean"))
        rec.add_step(rr.StepHistorical(fun=rr.Accumulator.COUNT, suffix="count"))
        rec.add_step(rr.StepScale())
        ours = sorted_pdf(rec.prep(), by=("conv_id", "turn_idx"))

        compare(ours, golden, ["conv_id", "turn_idx"])
        # per-turn text equality under stable turn ordering (north rule)
        golden_sorted = golden.sort_values(
            ["conv_id", "turn_idx"], kind="stable"
        ).reset_index(drop=True)
        assert (ours["text"] == golden_sorted["text"]).all()


class TestGoldenResampleQuirks:
    def test_resample_mean_fill_global_quirk(self):
        """The reference fills MEAN-mapped columns with the GLOBAL column
        mean after upsampling (fill_null without .over — step.py:550-553);
        verify we reproduce it, holes included."""
        ref_recipe_mod, ref_step = load_reference()
        # build a frame with holes so the grid inserts null rows
        pdf = f1_datetime()
        pdf = pdf[~pdf.index.isin([2, 8])].reset_index(drop=True)  # drop 2 rows
        pl_df = pl.from_pandas(pdf)
        ref = ref_recipe_mod.Recipe(pl_df, ["y"], ["x1", "x2", "x3", "x4"],
                                    ["id"], ["time"])
        ref.add_step(
            ref_step.StepResampling(
                "1h",
                accumulator_dict={
                    ref_sel_all_of(["x1"]): ref_step.Accumulator.MEAN
                },
            )
        )
        golden = ref.prep().to_pandas()

        rec = rr.Recipe(
            rd.from_pandas(pdf), outcomes=["y"],
            predictors=["x1", "x2", "x3", "x4"], groups=["id"],
            sequences=["time"], partitions=2,
        )
        rec.add_step(
            rr.StepResampling(
                "1h", accumulator_dict={rr.all_of(["x1"]): rr.Accumulator.MEAN}
            )
        )
        ours = sorted_pdf(rec.prep(), by=("id", "time"))
        compare(ours, golden, ["id", "time"])


def ref_sel_all_of(names):
    import recipys.selector as rs

    return rs.all_of(names)
