import numpy as np
import pandas as pd
import pytest
import ray

# the driver-contract tables at scale factor 0.001 (TESTDATA.md)
SF0001 = "/root/testdata/sf0.001"


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def f1_pandas(nan_x1: bool = False, nan_x2: bool = False) -> pd.DataFrame:
    """Canonical 10-row fixture (port of reference tests/conftest.py:17-51)."""
    rs = np.random.RandomState(42)
    df = pd.DataFrame(
        {
            "id": [1] * 6 + [2] * 4,
            "time": pd.to_timedelta(
                np.concatenate((np.arange(6), np.arange(4))), unit="h"
            ),
            "y": rs.normal(size=(10,)),
            "x1": rs.normal(loc=10, scale=5, size=(10,)),
            "x2": rs.binomial(n=1, p=0.3, size=(10,)).astype("float64")
            if nan_x2
            else rs.binomial(n=1, p=0.3, size=(10,)),
            "x3": pd.Series(
                ["a", "b", "c", "a", "c", "b", "c", "a", "b", "c"],
                dtype="category",
            ),
            "x4": pd.Series(
                ["x", "y", "y", "x", "y", "y", "x", "x", "y", "x"],
                dtype="category",
            ),
        }
    )
    if nan_x1:
        df.loc[[1, 2, 4, 7], "x1"] = np.nan
    if nan_x2:
        df.loc[[2, 4, 6], "x2"] = np.nan
    return df


def f1_datetime(nan_x1: bool = False) -> pd.DataFrame:
    """Datetime-sequence variant (reference test_steps.py:67-72)."""
    df = f1_pandas(nan_x1=nan_x1)
    base = pd.Timestamp("2020-01-01")
    df["time"] = base + df["time"]
    return df


@pytest.fixture
def example_pd_df():
    return f1_pandas()


def make_recipe(pdf: pd.DataFrame, partitions: int = 2, **kwargs):
    """Our Recipe over a Ray Dataset built from a pandas frame, with the
    canonical roles (y / x1..x4 / id / time)."""
    import ray.data as rd

    from recipys_ray import Recipe

    ds = rd.from_pandas(pdf)
    return Recipe(
        ds,
        outcomes=["y"],
        predictors=["x1", "x2", "x3", "x4"],
        groups=["id"],
        sequences=["time"],
        partitions=partitions,
        **kwargs,
    )


def sorted_pdf(ds, by=("id", "time")) -> pd.DataFrame:
    out = ds.to_pandas()
    return out.sort_values(list(by), kind="stable").reset_index(drop=True)


def plan_counts(plan: str) -> tuple:
    """(grouped shuffles, fit flushes, fits on an existing pin) of an
    ``explain()`` text."""
    lines = plan.splitlines()
    return (
        int(lines[-1].rsplit(" ", 1)[1]),
        sum(line.startswith("fit flush") for line in lines),
        sum(line.startswith("fit on pin") for line in lines),
    )


def prep_counting_pins(rec, monkeypatch) -> tuple:
    """``rec.prep()`` as pandas, and the pins it took: its
    ``Dataset.materialize`` calls."""
    from ray.data import Dataset

    materialize, calls = Dataset.materialize, []

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(Dataset, "materialize", counted)
    out = rec.prep().to_pandas()
    monkeypatch.undo()
    return out, len(calls)


# ------------------------------------------------------------------ #
# reference loader (golden tests) — stubs sklearn/scipy, imports the
# read-only reference package for oracle outputs. We never copy its code.
# ------------------------------------------------------------------ #
_REF_LOADED = False


def load_reference():
    global _REF_LOADED
    import sys
    import types

    if not _REF_LOADED:
        if "scipy" not in sys.modules:
            scipy = types.ModuleType("scipy")
            sparse = types.ModuleType("scipy.sparse")
            sparse.isspmatrix = lambda x: False
            scipy.sparse = sparse
            sys.modules["scipy"] = scipy
            sys.modules["scipy.sparse"] = sparse
        if "sklearn" not in sys.modules:
            sklearn = types.ModuleType("sklearn")
            pre = types.ModuleType("sklearn.preprocessing")

            class StandardScaler:
                def __init__(self, with_mean=True, with_std=True):
                    self.with_mean = with_mean
                    self.with_std = with_std

                def fit(self, X):
                    X = np.asarray(X, dtype=float)
                    self.mean_ = np.nanmean(X, axis=0)
                    s = np.nanstd(X, axis=0)
                    s = np.where((s == 0) | ~np.isfinite(s), 1.0, s)
                    self.scale_ = s
                    return self

                def transform(self, X):
                    X = np.asarray(X, dtype=float)
                    if self.with_mean:
                        X = X - self.mean_
                    if self.with_std:
                        X = X / self.scale_
                    return X

            pre.StandardScaler = StandardScaler
            sklearn.preprocessing = pre
            sys.modules["sklearn"] = sklearn
            sys.modules["sklearn.preprocessing"] = pre
        if "/root/reference" not in sys.path:
            sys.path.insert(0, "/root/reference")
        _REF_LOADED = True

    import recipys.recipe as ref_recipe
    import recipys.step as ref_step

    return ref_recipe, ref_step
