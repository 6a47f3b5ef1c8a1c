"""Plan shape of the sort exchange: stamp sizing and reducer layout, and
the seam itself: every stamp and shuffle of the library goes through
kernels/grouped.py. Plan shape of the fit pins: which fits share a pin, and
how many blocks a pin keeps."""

import ast
import itertools
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from recipys_ray import (
    Recipe,
    StepImputeFill,
    StepScale,
    StepSklearn,
    all_of,
)
from recipys_ray.kernels.grouped import (
    PART,
    SRC,
    STAMP_ROWS,
    exchange,
    hash_part,
    partitioned_groupby_map,
    pin_blocks,
    plan_exchange,
    plan_pin,
    stamp_block_rows,
    stamp_union,
    union_stamp_rows,
)
from recipys_ray.transformers import (
    MinMaxScaler,
    OneHotEncoder,
    QuantileTransformer,
)

from .conftest import plan_counts, prep_counting_pins


def blocks(n: int, rows: int) -> int:
    return -(-n // rows)


def test_small_box_gets_one_block_per_partition():
    # the flagship on one CPU: 306k rows, P = 2 → 2 blocks, not 16
    assert blocks(306_000, stamp_block_rows(306_000, 2)) == 2


def test_large_box_keeps_sixteen_blocks():
    # 2M rows at P = 64 (32 CPUs): the measured 16-block sweet spot
    rows = stamp_block_rows(2_000_000, 64)
    assert rows == 125_000 and blocks(2_000_000, rows) == 16


def test_unknown_rows_keep_requested_batch():
    assert stamp_block_rows(None, 2) == STAMP_ROWS == 262_144


def test_blocks_never_exceed_partitions():
    for n, p in itertools.product(
        [1, 999, 16_384, 100_000, 306_018, 4_200_000, 50_000_000],
        [1, 2, 3, 8, 64, 4096],
    ):
        assert blocks(n, stamp_block_rows(n, p)) <= p, (n, p)


def test_union_blocks_stay_within_partitions():
    for nl, nr, p in itertools.product(
        [1, 500, 40_000, 306_018, 3_000_000], [1, 700, 90_000, 2_000_000],
        [2, 3, 8, 64],
    ):
        rl, rr_ = union_stamp_rows([nl, nr], p)
        assert blocks(nl, rl) + blocks(nr, rr_) <= p, (nl, nr, p)
    # a side of unknown size keeps the requested batch
    assert union_stamp_rows([None, 90_000], 8)[0] == 262_144


def _stamp(p):
    def fn(tbl: pa.Table) -> pa.Table:
        k = tbl.column("k").to_numpy()
        return tbl.append_column("part", pa.array((k % p).astype(np.int32)))

    return fn


def test_union_exchange_materializes_at_most_p_blocks(ray_session):
    p = 4
    left = rd.from_pandas(pd.DataFrame({"k": np.arange(70_000)}))
    right = rd.from_pandas(pd.DataFrame({"j": np.arange(30_000)}))
    combined, planned = stamp_union(
        [(left, ["k"], {}), (right, ["j"], {"j": "k"})], ["k", "v"],
        {"k": pa.int64(), "v": pa.float64()}, p,
    )
    assert planned <= p
    out = combined.materialize()
    assert out.num_blocks() <= p
    got = out.to_pandas()
    # padded to the common schema, tagged by side, stamped on the key
    assert list(got.columns) == ["k", "v", SRC, PART]
    assert got["v"].isna().all()
    assert (got[SRC] == 0).sum() == 70_000 and (got[SRC] == 1).sum() == 30_000
    want = hash_part(got[["k"]], ["k"], p)
    np.testing.assert_array_equal(got[PART].to_numpy(), want)


def test_hash_part_is_the_pandas_stable_hash():
    """Partition ids, resume buckets and join co-partitioning all depend on
    this exact function: hash_pandas_object of the key values mod P."""
    pdf = pd.DataFrame({
        "a": [1, 2, None, 4, 5], "b": ["x", None, "z", "x", "y"],
    })
    tbl = pa.Table.from_pandas(pdf, preserve_index=False)
    for cols, p in [(["a"], 7), (["b"], 3), (["a", "b"], 256)]:
        h = pd.util.hash_pandas_object(pdf[cols], index=False).to_numpy()
        want = (h % np.uint64(p)).astype(np.int32)
        np.testing.assert_array_equal(hash_part(tbl, cols, p), want)
        np.testing.assert_array_equal(hash_part(pdf, cols, p), want)
    # names don't enter the hash: a join's right key renamed to the left
    # name lands in the same partition as before the rename
    right = tbl.rename_columns(["l", "r"])
    np.testing.assert_array_equal(
        hash_part(right, ["l", "r"], 11), hash_part(tbl, ["a", "b"], 11)
    )
    assert hash_part(tbl, [], 4).tolist() == [0] * 5


def test_nullable_int_key_keeps_one_partition_id(ray_session):
    """An integer key reads back as float64 from a batch that holds a null
    and as int64 from one that does not; the stamp must hash it the same
    either way, or one key lands in two partitions."""
    blocks_ = [pa.table({"k": pa.array(v, pa.int64())})
               for v in ([2, None], [2, 3])]
    # a derived dataset: each block is stamped on its own
    ds = rd.from_arrow(blocks_).map_batches(lambda t: t,
                                            batch_format="pyarrow")

    def sizes(pdf):
        return pdf.groupby("k", dropna=False).size().rename("n").reset_index()

    got = partitioned_groupby_map(ds, ["k"], sizes, 8).to_pandas()
    assert got.loc[got["k"] == 2, "n"].tolist() == [2]
    assert sorted(got["n"]) == [1, 1, 2]
    # null-free integer (and bool) keys keep their ids: a nullable value
    # hashes like the plain one
    for arr, plain in [(pa.array([2, 3, 7], pa.int64()), [2, 3, 7]),
                       (pa.array([5, 0], pa.uint8()), [5, 0]),
                       (pa.array([True, False]), [True, False])]:
        h = pd.util.hash_pandas_object(pd.DataFrame({"k": plain}),
                                       index=False)
        want = (h.to_numpy() % np.uint64(8)).astype(np.int32)
        np.testing.assert_array_equal(
            hash_part(pa.table({"k": arr}), ["k"], 8), want)
        # and a batch with a null agrees on the non-null rows
        with_null = pa.concat_arrays([arr, pa.nulls(1, arr.type)])
        np.testing.assert_array_equal(
            hash_part(pa.table({"k": with_null}), ["k"], 8)[:-1], want)


SEAM = pathlib.Path("recipys_ray/kernels/grouped.py")
# hash_pandas_object uses that are not partition stamps
NOT_STAMPS = {(pathlib.Path("recipys_ray/transformers.py"), "thin")}


def _calls(path: pathlib.Path, attr: str):
    """(enclosing function name, line) of every ``….attr(`` call."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr):
            found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_every_stamp_and_shuffle_goes_through_the_seam():
    """Only kernels/grouped.py stamps hash partitions or co-locates them;
    a second shuffle path (``groupby().map_groups`` or a copied
    ``hash_pandas_object(...) % P`` stamp) fails here, not in a benchmark."""
    root = pathlib.Path(__file__).resolve().parent.parent
    strays = []
    for path in sorted((root / "recipys_ray").rglob("*.py")):
        rel = path.relative_to(root)
        if rel == SEAM:
            continue
        strays += [f"{rel}:{ln} map_groups in {fn}"
                   for fn, ln in _calls(path, "map_groups")]
        strays += [f"{rel}:{ln} hash_pandas_object in {fn}"
                   for fn, ln in _calls(path, "hash_pandas_object")
                   if (rel, fn) not in NOT_STAMPS]
    assert not strays, "\n".join(strays)
    assert _calls(root / SEAM, "hash_pandas_object")


def test_exchange_gives_each_reducer_whole_partitions(ray_session):
    import ray

    p = 8
    ds = rd.from_pandas(pd.DataFrame({"k": np.arange(65_536)}))
    plan = plan_exchange(ds, p)
    assert plan.blocks == 4  # 16_384-row stamp batches (the 16k floor)

    def summarize(tbl: pa.Table) -> pa.Table:
        parts = set(tbl.column("part").to_pylist())
        assert len(parts) == 1  # fn sees one whole partition per call
        return pa.table({"part": [parts.pop()], "n": [len(tbl)]})

    stamped = ds.map_batches(_stamp(p), batch_format="pyarrow",
                             batch_size=plan.stamp_rows)
    out = exchange(stamped, "part", summarize, p, plan.blocks).materialize()
    per_block = sorted(
        ray.get(ref).column("part").to_pylist()
        for bundle in out.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    )
    # four reducers, two partition ids each, every row once
    assert per_block == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert out.to_pandas()["n"].sum() == 65_536


def test_derived_dataset_has_unknown_blocks(ray_session):
    ds = rd.from_pandas(pd.DataFrame({"k": np.arange(1000)}))
    derived = ds.map_batches(lambda b: b, batch_format="pyarrow")
    plan = plan_exchange(derived, 4)
    assert plan.partitions == 4 and plan.blocks is None
    assert plan.stamp_rows == 262_144


def test_explain_reports_exchange_sizing(ray_session):
    from recipys_ray.pipelines.transcripts import flagship_recipe

    pdf = pd.DataFrame({
        "conv_id": np.repeat(np.arange(40), 500),
        "turn_idx": np.tile(np.arange(500), 40),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(np.tile(np.arange(500), 40), unit="min"),
        "n_chars": np.arange(20_000), "latency_s": np.arange(20_000.0),
        "score": np.arange(20_000.0),
    })
    plan = flagship_recipe(rd.from_pandas(pdf), partitions=4).explain()
    shuffle = plan.splitlines()[0]
    # 20k rows at P = 4: max(16_384, 5_000)-row stamp batches → 2 blocks
    assert "partitions=4, stamp blocks=2" in shuffle
    assert "total grouped shuffles: 1" in plan


# ---- fit groups: fits that share one pin ----------------------------------
def _transcript_pdf(n=2_000):
    rng = np.random.default_rng(5)
    pdf = pd.DataFrame({
        "conv_id": np.arange(n) // 50, "turn_idx": np.arange(n) % 50,
        "n_chars": rng.integers(1, 500, n),
        "latency_s": rng.exponential(2.0, n), "score": rng.normal(size=n),
        "role": rng.choice(["user", "assistant", "system"], n),
    })
    pdf.loc[::7, "latency_s"] = np.nan
    return pdf


def _fit_bake_shape(ds, **kw):
    """perfbench's fit_bake recipe: constant fill → z-score → one-hot(role)
    → quantile(n_chars)."""
    rec = Recipe(ds, predictors=["n_chars", "latency_s", "score", "role"],
                 **kw)
    rec.add_step(StepImputeFill(sel=all_of(["latency_s", "score"]), value=0.0))
    rec.add_step(StepScale(sel=all_of(["latency_s", "score"])))
    rec.add_step(StepSklearn(
        OneHotEncoder(), sel=all_of(["role"]), in_place=False))
    rec.add_step(StepSklearn(QuantileTransformer(), sel=all_of(["n_chars"])))
    return rec


def _dependent_fits(ds):
    """The second fit reads the column the first one writes."""
    rec = Recipe(ds, predictors=["latency_s", "score"])
    rec.add_step(StepScale(sel=all_of(["latency_s"])))
    rec.add_step(StepSklearn(MinMaxScaler(), sel=all_of(["latency_s"])))
    return rec


def test_fit_bake_shape_pins_once(ray_session):
    plan = _fit_bake_shape(rd.from_pandas(_transcript_pdf())).explain()
    assert plan_counts(plan) == (0, 1, 2)
    assert "fit flush #1 (materialize): fit StepScale" in plan
    assert plan.count("fit on pin #1: fit StepSklearn") == 2
    # every transform after the pin is one fused chain
    assert plan.splitlines()[-2] == (
        "map_batches (fused x3): StepScale -> StepSklearn -> StepSklearn")


def test_fit_reading_a_written_column_flushes(ray_session):
    plan = _dependent_fits(rd.from_pandas(_transcript_pdf())).explain()
    assert plan_counts(plan) == (0, 2, 0)


def test_flagship_keeps_one_shuffle_and_one_flush(ray_session):
    from recipys_ray.pipelines.transcripts import flagship_recipe

    pdf = _transcript_pdf().drop(columns="role")
    pdf["ts"] = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        pdf["turn_idx"], unit="min")
    plan = flagship_recipe(rd.from_pandas(pdf), partitions=4).explain()
    assert plan_counts(plan) == (1, 1, 0)


def test_prep_pins_as_often_as_explain_says(ray_session, monkeypatch):
    for build in (_fit_bake_shape, _dependent_fits):
        rec = build(rd.from_pandas(_transcript_pdf()))
        flushes = plan_counts(rec.explain())[1]
        assert prep_counting_pins(rec, monkeypatch)[1] == flushes, build


class _RecordedScale(StepScale):
    """StepScale that records the block count and the rows of the data its
    fit reads."""

    def fit(self, ing):
        self.fit_blocks = ing.dataset.num_blocks()
        self.fit_rows = ing.dataset.to_pandas()
        super().fit(ing)


def test_pin_is_coalesced_in_row_order(ray_session):
    """The guard path: the fit reads the input itself, no stage sizes it."""
    pdf = _transcript_pdf()
    ds = rd.from_pandas(pdf, override_num_blocks=24)
    target = pin_blocks(ds.materialize().size_bytes())
    assert target < 24  # 2 × 4 CPUs here
    rec = Recipe(ds, predictors=["latency_s", "score"])
    scale = _RecordedScale(sel=all_of(["latency_s"]))
    rec.add_step(scale)
    assert rec.explain().splitlines()[0] == (
        "fit flush #1 (materialize): fit _RecordedScale")
    out = rec.prep().materialize()
    assert scale.fit_blocks == target
    assert "Repartition" in out.stats()
    # repartition without a shuffle keeps the row order of the pin (the
    # map after the fit may finish its tasks in any order)
    np.testing.assert_array_equal(scale.fit_rows["score"], pdf["score"])
    got = out.to_pandas().sort_values(["conv_id", "turn_idx"])
    np.testing.assert_array_equal(got["score"], pdf["score"])


def _sized_fit_bake(ds):
    """fit_bake's shape with a recorded z-score fit."""
    rec = _fit_bake_shape(ds)
    rec.steps[1] = _RecordedScale(sel=all_of(["latency_s", "score"]))
    return rec


def test_batch_chain_sizes_the_pin(ray_session, monkeypatch):
    """The fill chain that feeds fit_bake's pin emits at most pin_blocks
    blocks from a 24-block input: one execution, no Repartition."""
    ds = rd.from_pandas(_transcript_pdf(), override_num_blocks=24)
    target = pin_blocks(ds.size_bytes())
    _, planned = plan_pin(ds)
    assert planned <= target < 24
    rec = _sized_fit_bake(ds)
    assert rec.explain().splitlines()[0] == (
        f"map_batches (fused x1; sizes pin #1: {planned} blocks): "
        "StepImputeFill")
    out = rec.prep().materialize()
    assert rec.steps[1].fit_blocks <= target
    assert "Repartition" not in out.stats()
    _, pins = prep_counting_pins(_sized_fit_bake(ds), monkeypatch)
    assert pins == 1  # one materialize per pin: no coalescing pass


def test_derived_input_is_sized_at_run_time(ray_session):
    """Rows unknown from the plan: the pin is sized by the guard."""
    ds = rd.from_pandas(_transcript_pdf(), override_num_blocks=24)
    derived = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert plan_pin(derived) is None
    rec = _sized_fit_bake(derived)
    plan = rec.explain()
    assert plan.splitlines()[0] == (
        "map_batches (fused x1; pin #1 sized at run time): StepImputeFill")
    assert plan_counts(plan) == (0, 1, 2)
    rec.prep().materialize()
    assert rec.steps[1].fit_blocks <= pin_blocks(ds.size_bytes())


def test_disk_checkpoint_is_sized(ray_session, tmp_path, monkeypatch):
    """The checkpoint writes at most pin_blocks files. Only the files: the
    read-back splits them into more blocks, which this does not check."""
    monkeypatch.setenv("RECIPYS_CKPT_DIR", str(tmp_path))
    ds = rd.from_pandas(_transcript_pdf(), override_num_blocks=24)
    rec = _fit_bake_shape(ds, materialize_before_fit="disk")
    assert "sizes pin #1" in rec.explain().splitlines()[0]
    rec.prep().materialize()
    files = list(tmp_path.rglob("*.parquet"))
    assert 0 < len(files) <= pin_blocks(ds.size_bytes())


def test_sized_pin_matches_pandas(ray_session):
    """fit_bake's shape over a sized pin against pandas: constant fill,
    z-score (population std), one-hot of role, and the quantile transform
    from the exact percentiles (n_chars has few distinct values, so the
    fitted quantiles are exact)."""
    pdf = _transcript_pdf()
    ds = rd.from_pandas(pdf, override_num_blocks=24)
    out = _fit_bake_shape(ds).prep().to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    for c in ["latency_s", "score"]:
        x = pdf[c].fillna(0.0)
        np.testing.assert_allclose(out[c], (x - x.mean()) / x.std(ddof=0),
                                   rtol=1e-12, atol=1e-12)
    for i, role in enumerate(sorted(pdf["role"].unique()), start=1):
        np.testing.assert_array_equal(out[f"OneHotEncoder_{i}"],
                                      (pdf["role"] == role).astype(float))
    refs = np.linspace(0, 1, 1000)
    x = pdf["n_chars"].to_numpy(float)
    qv = np.percentile(x, refs * 100)
    fwd = np.interp(x, qv, refs)
    bwd = -np.interp(-x, -qv[::-1], -refs[::-1])
    np.testing.assert_allclose(out["n_chars"], 0.5 * (fwd + bwd),
                               rtol=1e-12, atol=1e-12)


def test_pin_within_target_is_not_repartitioned(ray_session):
    from recipys_ray.pipelines.transcripts import flagship_recipe

    pdf = _transcript_pdf().drop(columns="role")
    pdf["ts"] = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        pdf["turn_idx"], unit="min")
    out = flagship_recipe(rd.from_pandas(pdf), partitions=4).prep()
    assert "Repartition" not in out.materialize().stats()
