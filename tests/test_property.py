"""Property-based tests (hypothesis): the distributed grouped kernels must
equal direct single-process pandas semantics on arbitrary small frames."""

import numpy as np
import pandas as pd
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recipys_ray import (
    Accumulator,
    Recipe,
    StepHistorical,
    StepImputeFill,
    StepLag,
    all_of,
)


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    n_groups = draw(st.integers(min_value=1, max_value=5))
    gids = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_groups - 1),
            min_size=n, max_size=n,
        )
    )
    vals = draw(
        st.lists(
            st.one_of(
                st.none(),
                st.floats(
                    min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=n, max_size=n,
        )
    )
    pdf = pd.DataFrame(
        {
            "g": np.array(gids, dtype=np.int64),
            "x": pd.array(vals, dtype="float64"),
        }
    )
    # unique in-group order key
    pdf["t"] = pdf.groupby("g").cumcount()
    return pdf


def run_engine(pdf, steps):
    rec = Recipe(
        rd.from_pandas(pdf), predictors=["x"], groups=["g"],
        sequences=["t"], partitions=3,
    )
    for s in steps:
        rec.add_step(s)
    out = rec.prep().to_pandas()
    return out.sort_values(["g", "t"], kind="stable").reset_index(drop=True)


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(frames())
def test_grouped_kernels_match_pandas(pdf):
    ours = run_engine(
        pdf,
        [
            StepHistorical(sel=all_of(["x"]), fun=Accumulator.MAX),
            StepHistorical(sel=all_of(["x"]), fun=Accumulator.MEAN),
            StepHistorical(sel=all_of(["x"]), fun=Accumulator.VAR),
            StepHistorical(sel=all_of(["x"]), fun=Accumulator.COUNT),
            StepLag(sel=all_of(["x"]), shifts=[1]),
            StepImputeFill(sel=all_of(["x"]), strategy="forward"),
        ],
    )
    ref = pdf.sort_values(["g", "t"], kind="stable").reset_index(drop=True)
    g = ref.groupby("g")
    np.testing.assert_allclose(
        ours["x_max"], g["x"].cummax(), equal_nan=True)
    # atol is eps-scaled to the data magnitude: any summation order
    # (pandas' included) carries absolute error ~eps·max|x|, so a mean
    # whose true value is near zero from large-magnitude cancelling inputs
    # is only defined to that absolute precision — and for subnormal
    # inputs (~1e-309) relative error is meaningless entirely
    with np.errstate(all="ignore"):
        max_abs = np.nanmax(np.abs(np.r_[ref["x"].to_numpy(dtype=float), 0]))
    tol = max(1e-12, 1e-14 * float(max_abs))
    np.testing.assert_allclose(
        ours["x_mean"],
        g["x"].expanding().mean().reset_index(drop=True),
        equal_nan=True, atol=tol,
    )
    np.testing.assert_allclose(
        ours["x_var"],
        g["x"].expanding().var().reset_index(drop=True),
        equal_nan=True, atol=max(tol, 1e-14 * max_abs * max_abs),
    )
    np.testing.assert_allclose(
        ours["x_count"],
        g["x"].expanding().count().reset_index(drop=True),
    )
    np.testing.assert_allclose(
        ours["x_lag1"], g["x"].shift(1), equal_nan=True)
    np.testing.assert_allclose(
        ours["x"], g["x"].ffill(), equal_nan=True)


class TestTokenizationProperties:
    """The Arrow-RE2 tokenization kernels are the foundation of the whole
    text/dedup family — property-test them against the Python re reference
    on arbitrary ASCII text (non-ASCII intentionally excluded: the engine
    defines tokenization as RE2 semantics, which is ASCII-\\w, matching the
    DuckDB oracle engine)."""

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=60,
            )
            | st.none(),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_word_stream_matches_re(self, texts):
        import re

        import pyarrow as pa

        from recipys_ray.ops.text import word_stream

        words, counts = word_stream(pa.array(texts, pa.string()))
        ref = [re.findall(r"\w+", (t or "").lower()) for t in texts]
        assert counts.tolist() == [len(r) for r in ref]
        assert words.to_pylist() == [w for r in ref for w in r]

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=60,
            ),
            max_size=20,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_kgrams_matches_reference(self, texts, k):
        import re

        import pyarrow as pa

        from recipys_ray.ops.text import flat_kgrams, word_stream

        words, counts = word_stream(pa.array(texts, pa.string()))
        grams, gcounts = flat_kgrams(words, counts, k)
        expected = []
        for t in texts:
            ws = re.findall(r"\w+", t.lower())
            if len(ws) < k:
                expected.append([" ".join(ws)])
            else:
                expected.append(
                    [" ".join(ws[i:i + k]) for i in range(len(ws) - k + 1)]
                )
        assert gcounts.tolist() == [len(e) for e in expected]
        assert grams.to_pylist() == [g for e in expected for g in e]

    @given(
        st.lists(
            st.text(max_size=80),  # full unicode incl. empties
            max_size=25,
        ),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_poly_hash_paths_agree(self, strings, chunk):
        import pyarrow as pa

        from recipys_ray.ops import text as T

        ref = [0] * len(strings)
        # scalar reference: plain Horner mod 2^31-1
        for i, s in enumerate(strings):
            h = 0
            for ch in s:
                h = (h * 131 + ord(ch)) % 2147483647
            ref[i] = h
        assert T.poly_hash(strings, chunk=chunk).tolist() == ref
        assert T.poly_hash(pa.array(strings, pa.string()),
                           chunk=chunk).tolist() == ref


class TestFunnelProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_funnel_matches_scalar_simulation(self, seed):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from recipys_ray.ops.funnel import funnel

        rng = np.random.RandomState(seed)
        n = rng.randint(5, 120)
        pdf = pd.DataFrame({
            "user_id": rng.randint(0, 8, n).astype(np.int64),
            "ts": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(rng.randint(0, 3600, n), unit="s"),
            "event_type": rng.choice(
                ["view", "click", "purchase", "other"], n
            ),
        })
        pdf["ts"] = pdf["ts"].astype("datetime64[us]")
        steps = ["view", "click", "purchase"]
        out = (
            funnel(rd.from_pandas(pdf).repartition(3), steps=steps,
                   num_partitions=4)
            .to_pandas().set_index("user_id").sort_index()
        )
        for uid, grp in pdf.groupby("user_id"):
            prev = pd.Timestamp.min
            stage = 0
            times = {}
            for step in steps:
                cand = grp[(grp["event_type"] == step) & (grp["ts"] > prev)]
                if len(cand) == 0:
                    break
                t = cand["ts"].min()
                times[step] = t
                prev = t
                stage += 1
            assert out.loc[uid, "stage"] == stage
            for step in steps:
                got = out.loc[uid, f"ts_{step}"]
                if step in times:
                    assert got == times[step]
                else:
                    assert pd.isna(got)


class TestSeventhSessionOpsProperty:
    """Brute-force scalar references for the seventh-session kernels on
    arbitrary small random frames (seeded via hypothesis integers, the
    funnel-test pattern)."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.integers(min_value=0, max_value=10_000))
    def test_theil_sen_matches_scalar(self, seed):
        from recipys_ray.ops.groupstats import theil_sen

        rng = np.random.RandomState(seed)
        n = rng.randint(4, 100)
        pdf = pd.DataFrame({
            "g": rng.randint(0, 5, n).astype(np.int64),
            "o": rng.randint(0, 20, n).astype(np.int64),
            "v": rng.randint(-30, 30, n).astype(np.int64),
        })
        out = (
            theil_sen(rd.from_pandas(pdf).repartition(3), ["g"], "o", "v")
            .to_pandas().set_index("g").sort_index()
        )
        for gid, grp in pdf.groupby("g"):
            slopes = []
            rows = list(grp.itertuples())
            for i, a in enumerate(rows):
                for b in rows[i + 1:]:
                    lo, hi = (a, b) if a.o <= b.o else (b, a)
                    if hi.o > lo.o:
                        slopes.append((hi.v - lo.v) / float(hi.o - lo.o))
            if not slopes:
                assert gid not in out.index
                continue
            slopes.sort()
            expect = slopes[(len(slopes) - 1) // 2]  # lower median
            assert out.loc[gid, "theil_sen"] == expect
            assert out.loc[gid, "n_pairs"] == len(slopes)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.integers(min_value=0, max_value=10_000))
    def test_triangle_counts_match_bruteforce(self, seed):
        from itertools import combinations

        from recipys_ray.ops.graph import triangle_counts

        rng = np.random.RandomState(seed)
        n_nodes = rng.randint(3, 18)
        m = rng.randint(1, 60)
        pdf = pd.DataFrame({
            "src": rng.randint(0, n_nodes, m).astype(np.int64),
            "dst": rng.randint(0, n_nodes, m).astype(np.int64),
        })
        df = triangle_counts(
            rd.from_pandas(pdf).repartition(3), "src", "dst"
        ).to_pandas()
        # a zero-row result is column-less after to_pandas (Ray builds the
        # frame from iter_batches, which yields nothing for zero-row
        # blocks) — guard like fuzzy_link
        out = (
            df.set_index("node")["tri_count"].to_dict() if len(df) else {}
        )
        edges = {
            (min(a, b), max(a, b))
            for a, b in zip(pdf["src"], pdf["dst"]) if a != b
        }
        expect: dict = {}
        for a, b, c in combinations(sorted({v for e in edges for v in e}),
                                    3):
            if ((a, b) in edges and (b, c) in edges and (a, c) in edges):
                for v in (a, b, c):
                    expect[v] = expect.get(v, 0) + 1
        assert out == expect

    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.integers(min_value=0, max_value=10_000))
    def test_burst_counts_match_scalar(self, seed):
        from recipys_ray.ops.timeseries import burst_counts

        rng = np.random.RandomState(seed)
        n = rng.randint(2, 120)
        w = rng.randint(1, 6)
        k = rng.randint(1, 4)
        pdf = pd.DataFrame({
            "g": rng.randint(0, 4, n).astype(np.int64),
            "o": rng.permutation(n).astype(np.int64),
            "v": rng.randint(0, 50, n).astype(np.int64),
        })
        out = (
            burst_counts(rd.from_pandas(pdf).repartition(3),
                         ["g"], ["o"], "v", window=w, k=k)
            .to_pandas().set_index("g")["n_bursts"].to_dict()
        )
        for gid, grp in pdf.groupby("g"):
            vs = grp.sort_values("o")["v"].tolist()
            cnt = 0
            for i, v in enumerate(vs):
                prior = vs[max(0, i - w):i]
                if prior and v * len(prior) > k * sum(prior):
                    cnt += 1
            assert out[gid] == cnt
