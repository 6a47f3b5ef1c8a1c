"""Driver-contract queries: every operator from SURVEY.md §2 exercised over
the read-only testdata tables, each with a DuckDB-equivalent oracle SQL
(column names match exactly; non-SQL-expressible ops are rows-only).

The ``events`` table maps onto the engine as group=user_id,
sequence=(ts, event_id), predictor=value. Since the driver's ``value`` column
has no nulls, imputation queries derive a deterministic nulled column
``valn = CASE WHEN event_id % 7 = 0 THEN NULL ELSE value END`` identically on
both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

import recipys_ray as rr
from recipys_ray.selector import all_of
from recipys_ray.steps.historical import Accumulator
from recipys_ray.transformers import (
    Binarizer,
    KBinsDiscretizer,
    MinMaxScaler,
    OneHotEncoder,
    OrdinalEncoder,
    RobustScaler,
)

_VALN_SQL = "CASE WHEN event_id % 7 = 0 THEN NULL ELSE value END"
_WIN = "PARTITION BY user_id ORDER BY ts, event_id"
_EXP = f"{_WIN} ROWS UNBOUNDED PRECEDING"


_EVENTS_CORE = ["event_id", "ts", "user_id", "value"]


def _events(sf_dir: str, columns: list[str] | None = None):
    """Events read, pruned at the parquet reader. Default projection is the
    4 columns the grouped/windowed queries actually touch — `event_type` and
    `props` would otherwise ride every sort shuffle as dead payload (at
    100 TB the shuffle IS the cost; prune at the read, not downstream)."""
    return rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=_EVENTS_CORE if columns is None else columns,
    )


def _with_valn(ds):
    def add(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        mask = pa.array(eid % 7 == 0)
        valn = pc.if_else(mask, pa.scalar(None, pa.float64()), tbl.column("value"))
        return tbl.append_column("valn", valn)

    return ds.map_batches(add, batch_format="pyarrow")


def _recipe(ds, predictors=("valn",), grouped=True):
    return rr.Recipe(
        ds,
        predictors=list(predictors),
        groups=["user_id"] if grouped else None,
        sequences=["ts", "event_id"],
    )


def _select(ds, cols):
    return ds.select_columns(list(cols))


# --------------------------------------------------------------------- #
# imputation family (StepImputeFill, reference step.py:121-199)
# --------------------------------------------------------------------- #
def q_impute_zero(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), value=0))
    return _select(rec.prep(), ["event_id", "valn"])


def q_impute_ffill(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), strategy="forward"))
    return _select(rec.prep(), ["event_id", "valn"])


def q_impute_bfill(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), strategy="backward"))
    return _select(rec.prep(), ["event_id", "valn"])


def q_impute_group_mean(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepImputeFill(
        sel=all_of(["valn"]), strategy="mean", duckdb_parity_stats=True,
    ))
    return _select(rec.prep(), ["event_id", "valn"])


def q_impute_global_mean(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)), grouped=False)
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), strategy="mean"))
    return _select(rec.prep(), ["event_id", "valn"])


# --------------------------------------------------------------------- #
# historical expanding aggregates (StepHistorical, reference step.py:263-363)
# --------------------------------------------------------------------- #
def q_historical(sf_dir):
    from recipys_ray.kernels.duckdb_parity import compute_duckdb_offsets

    ds = _with_valn(_events(sf_dir))
    # MEAN/VAR/SUM run in duckdb-parity mode so the float64 rounding matches
    # the oracle engine bit-for-bit (kernels/duckdb_parity.py); the offsets
    # map is one skinny count pass
    offs = compute_duckdb_offsets(ds, "user_id")
    rec = _recipe(ds)
    parity_funs = (Accumulator.MEAN, Accumulator.VAR, Accumulator.SUM)
    for fun in (
        Accumulator.MIN,
        Accumulator.MAX,
        Accumulator.MEAN,
        Accumulator.COUNT,
        Accumulator.VAR,
        Accumulator.MEDIAN,
        Accumulator.SUM,
    ):
        st = rr.StepHistorical(
            sel=all_of(["valn"]), fun=fun,
            duckdb_parity=fun in parity_funs,
        )
        if fun in parity_funs:
            st.set_parity_offsets(offs)
        rec.add_step(st)
    out = rec.prep()

    def cast_count(tbl: pa.Table) -> pa.Table:
        i = tbl.column_names.index("valn_count")
        return tbl.set_column(
            i, "valn_count", tbl.column("valn_count").cast(pa.int64())
        )

    out = out.map_batches(cast_count, batch_format="pyarrow")
    return _select(
        out,
        ["event_id", "valn_min", "valn_max", "valn_mean", "valn_count",
         "valn_var", "valn_median", "valn_sum"],
    )


def q_hist_lineitem(sf_dir):
    """Volume variant on lineitem (group=l_orderkey, seq=l_linenumber)."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )
    # (l_orderkey, l_linenumber) is NOT unique in this synthetic lineitem —
    # include the aggregated columns in the sort key so any remaining ties
    # are value-identical and the expanding results are order-invariant
    rec = rr.Recipe(
        ds,
        predictors=["l_quantity", "l_extendedprice"],
        groups=["l_orderkey"],
        sequences=["l_linenumber", "l_quantity", "l_extendedprice"],
    )
    from recipys_ray.kernels.duckdb_parity import compute_duckdb_offsets

    st_mean = rr.StepHistorical(
        sel=all_of(["l_quantity"]), fun=Accumulator.MEAN, duckdb_parity=True
    )
    st_mean.set_parity_offsets(compute_duckdb_offsets(ds, "l_orderkey"))
    rec.add_step(st_mean)
    rec.add_step(
        rr.StepHistorical(sel=all_of(["l_quantity"]), fun=Accumulator.MAX)
    )
    rec.add_step(rr.StepLag(sel=all_of(["l_extendedprice"]), shifts=[1]))
    return _select(
        rec.prep(),
        ["l_orderkey", "l_linenumber", "l_quantity_mean", "l_quantity_max",
         "l_extendedprice_lag1"],
    )


# --------------------------------------------------------------------- #
# lag / lead / diff / sessionize (north-rule extensions)
# --------------------------------------------------------------------- #
def q_rolling(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(
        rr.StepRolling(sel=all_of(["valn"]), window=5,
                       fun=Accumulator.MEAN, suffix="r5mean")
    )
    rec.add_step(
        rr.StepRolling(sel=all_of(["valn"]), window=5,
                       fun=Accumulator.MAX, suffix="r5max")
    )
    rec.add_step(
        rr.StepRolling(sel=all_of(["valn"]), window=5,
                       fun=Accumulator.COUNT, suffix="r5cnt")
    )
    rec.add_step(
        rr.StepRolling(sel=all_of(["valn"]), window=5,
                       fun=Accumulator.SUM, suffix="r5sum")
    )
    return _select(
        rec.prep(),
        ["event_id", "valn_r5mean", "valn_r5max", "valn_r5cnt", "valn_r5sum"],
    )


def q_lag_lead(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepLag(sel=all_of(["valn"]), shifts=[1]))
    rec.add_step(rr.StepLead(sel=all_of(["valn"]), shifts=[1]))
    rec.add_step(rr.StepDiff(sel=all_of(["valn"]), shifts=[1]))
    return _select(
        rec.prep(), ["event_id", "valn_lag1", "valn_lead1", "valn_diff1"]
    )


def q_pack_sequences(sf_dir):
    """Offset-quantized sequence packing over the documents table: a
    global cumulative token offset (parallel chunk-carry cumsum) quantized
    to a 2000-token budget — one window sum in the SQL oracle."""
    from recipys_ray.ops.packing import pack_sequences

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    out = pack_sequences(ds, "n_chars", budget=2000, sort_cols=["doc_id"])
    return _select(out, ["doc_id", "bin_id", "bin_offset"])


def q_historical_salted(sf_dir):
    """The historical family executed THROUGH the salted chunk-local path:
    threshold 30 makes nearly every user a 'mega' group and a 5-day chunk
    span splits each into ~6 chunks, so the per-chunk state fold + prefix
    correction machinery computes every value; the oracle is the plain
    window SQL — salted must be indistinguishable."""
    from recipys_ray.kernels.salted import SaltConfig

    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.salt = SaltConfig(threshold=30, chunk_span=5 * 86_400_000_000)
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), strategy="forward"))
    rec.add_step(rr.StepHistorical(sel=all_of(["valn"]), fun=Accumulator.MIN))
    rec.add_step(rr.StepHistorical(sel=all_of(["valn"]), fun=Accumulator.MAX))
    # MEAN/VAR run in duckdb-parity mode THROUGH the chunked path: chunks
    # ship segment-tree boundary payloads, the driver fold assembles carried
    # contexts, and each chunk evaluates bit-exactly vs the plain window SQL
    # oracle (kernels/duckdb_parity.py chunked section)
    rec.add_step(rr.StepHistorical(
        sel=all_of(["valn"]), fun=Accumulator.MEAN, duckdb_parity=True))
    rec.add_step(rr.StepHistorical(
        sel=all_of(["valn"]), fun=Accumulator.VAR, duckdb_parity=True))
    rec.add_step(rr.StepLag(sel=all_of(["valn"]), shifts=[1]))
    rec.add_step(rr.StepSessionize(gap="30m"))
    return _select(
        rec.prep(),
        ["event_id", "valn", "valn_min", "valn_max", "valn_mean",
         "valn_var", "valn_lag1", "session_id"],
    )


def q_sessionize(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepSessionize(gap="30m"))
    return _select(rec.prep(), ["event_id", "session_id"])


def q_session_stats(sf_dir):
    """Composition: sessionize → per-user session statistics (session
    count, events, longest session) — the transcript-ops shape `how many
    sessions does each user have and how long is the longest`. Outputs are
    integers, so the hash check is exact end-to-end."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    rec = _recipe(_events(sf_dir), predictors=("value",))
    rec.add_step(rr.StepSessionize(gap="30m"))
    out = rec.prep()

    def agg(pdf):
        sess = (
            pdf.groupby(["user_id", "session_id"], sort=False)
            .size().rename("sl").reset_index()
        )
        per_user = sess.groupby("user_id", sort=False).agg(
            n_sessions=("session_id", "nunique"),
            max_session_events=("sl", "max"),
        )
        n_events = pdf.groupby("user_id", sort=False).size().rename(
            "n_events"
        )
        res = per_user.join(n_events).reset_index()
        return res.astype(
            {"user_id": np.int64, "n_sessions": np.int64,
             "max_session_events": np.int64, "n_events": np.int64}
        )

    return partitioned_groupby_map(
        out.select_columns(["user_id", "session_id"]), ["user_id"], agg, 32
    )


# --------------------------------------------------------------------- #
# scaling / encoding / discretizing (StepScale + StepSklearn family)
# --------------------------------------------------------------------- #
def q_scale_standard(sf_dir):
    """duckdb_parity_stats: fit mean/std accumulate exactly like DuckDB's
    avg()/stddev_pop() (sequential scan-order + Welford) so boundary-sitting
    values round identically at every sf — the production default keeps
    distributed per-block float64 partial sums."""
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepScale(sel=all_of(["valn"]), duckdb_parity_stats=True))
    return _select(rec.prep(), ["event_id", "valn"])


def q_scale_minmax(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepSklearn(MinMaxScaler(), sel=all_of(["valn"])))
    return _select(rec.prep(), ["event_id", "valn"])


def q_scale_robust(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepSklearn(RobustScaler(), sel=all_of(["valn"])))
    return _select(rec.prep(), ["event_id", "valn"])


def q_binarize(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepSklearn(Binarizer(threshold=5.0), sel=all_of(["valn"])))
    return _select(rec.prep(), ["event_id", "valn"])


def q_kbins_uniform(sf_dir):
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(
        rr.StepSklearn(
            KBinsDiscretizer(n_bins=4, strategy="uniform"), sel=all_of(["valn"])
        )
    )
    return _select(rec.prep(), ["event_id", "valn"])


def q_encode_ordinal(sf_dir):
    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"])
    rec = rr.Recipe(ds, predictors=["event_type"], sequences=["ts", "event_id"])
    rec.add_step(
        rr.StepSklearn(
            OrdinalEncoder(), sel=all_of(["event_type"]), in_place=False
        )
    )
    out = rec.prep()

    def finish(tbl: pa.Table) -> pa.Table:
        code = tbl.column("OrdinalEncoder_event_type").cast(pa.int64())
        return pa.table(
            {"event_id": tbl.column("event_id"), "event_type_code": code}
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_encode_onehot(sf_dir):
    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"])
    rec = rr.Recipe(ds, predictors=["event_type"], sequences=["ts", "event_id"])
    rec.add_step(
        rr.StepSklearn(OneHotEncoder(), sel=all_of(["event_type"]), in_place=False)
    )
    out = rec.prep()
    cats = ["click", "error", "purchase", "signup", "view"]

    def finish(tbl: pa.Table) -> pa.Table:
        data = {"event_id": tbl.column("event_id")}
        for i, c in enumerate(cats):
            data[f"et_{c}"] = tbl.column(f"OneHotEncoder_{i + 1}")
        return pa.table(data)

    return out.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# resampling (StepResampling, reference step.py:477-578)
# --------------------------------------------------------------------- #
def q_resample_agg_1h(sf_dir):
    ds = _events(sf_dir).select_columns(["user_id", "ts", "value"])

    def dup(tbl: pa.Table) -> pa.Table:
        v = tbl.column("value")
        tbl = tbl.append_column("value_mean", v)
        tbl = tbl.append_column("value_max", v)
        tbl = tbl.append_column("value_cnt", v)
        return tbl.drop_columns(["value"])

    ds = ds.map_batches(dup, batch_format="pyarrow")
    rec = rr.Recipe(
        ds,
        predictors=["value_mean", "value_max", "value_cnt"],
        groups=["user_id"],
        sequences=["ts"],
    )
    rec.add_step(
        rr.StepResampling(
            "1h",
            accumulator_dict={
                all_of(["value_mean"]): Accumulator.MEAN,
                all_of(["value_max"]): Accumulator.MAX,
                all_of(["value_cnt"]): Accumulator.COUNT,
            },
            mode="agg",
        )
    )
    out = rec.prep()

    def cast_cnt(tbl: pa.Table) -> pa.Table:
        i = tbl.column_names.index("value_cnt")
        return tbl.set_column(
            i, "value_cnt", tbl.column("value_cnt").cast(pa.int64())
        )

    return _select(
        out.map_batches(cast_cnt, batch_format="pyarrow"),
        ["user_id", "ts", "value_mean", "value_max", "value_cnt"],
    )


def q_resample_grid_1h(sf_dir):
    ds = _with_valn(_events(sf_dir)).select_columns(
        ["user_id", "ts", "event_id", "valn"]
    )
    rec = rr.Recipe(
        ds, predictors=["valn"], groups=["user_id"], sequences=["ts", "event_id"]
    )
    rec.add_step(rr.StepResampling("1h"))  # default LAST → per-group ffill
    return _select(rec.prep(), ["user_id", "ts", "valn"])


def q_asof_purchase(sf_dir):
    """Point-in-time join: each event gets the user's most recent prior (or
    simultaneous) purchase value — the engine's as-of join primitive."""
    from recipys_ray.ops.asof import asof_join

    left = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    ev = _events(
        sf_dir, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def purchases(tbl: pa.Table) -> pa.Table:
        mask = pc.equal(tbl.column("event_type"), "purchase")
        sub = tbl.filter(mask)
        return pa.table(
            {
                "user_id": sub.column("user_id"),
                "ts": sub.column("ts"),
                "event_id": sub.column("event_id"),
                "purch_value": sub.column("value"),
            }
        )

    right = ev.map_batches(purchases, batch_format="pyarrow")

    # ties on (user_id, ts) break by min event_id, resolved inside the
    # co-partitioned join (DuckDB QUALIFY row_number ... = 1 mirrors this)
    out = asof_join(
        left, right, on="ts", by="user_id",
        right_dedup_cols=["event_id"],
    )

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "purch_value": tbl.column("purch_value"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _purchase_click_sides(sf_dir):
    """Left = purchases (p_event, user_id, ts), right = clicks
    (user_id, ts, c_event, c_value) — shared by the range-join queries."""
    ev = _events(
        sf_dir, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def side(etype, names):
        def fn(tbl: pa.Table) -> pa.Table:
            sub = tbl.filter(pc.equal(tbl.column("event_type"), etype))
            return pa.table({n: sub.column(c) for c, n in names})

        return fn

    left = ev.map_batches(
        side(
            "purchase",
            [("event_id", "p_event"), ("user_id", "user_id"), ("ts", "ts")],
        ),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        side(
            "click",
            [("user_id", "user_id"), ("ts", "ts"),
             ("event_id", "c_event"), ("value", "c_value")],
        ),
        batch_format="pyarrow",
    )
    return left, right


def q_range_join_clicks(sf_dir):
    """Interval join: every click within the 24 h BEFORE each purchase by
    the same user — one row per (purchase, click) pair. The range-join
    primitive as-of can't express (as-of keeps ONE match, this keeps all)."""
    from recipys_ray.ops.rangejoin import range_join

    left, right = _purchase_click_sides(sf_dir)
    out = range_join(left, right, on="ts", by="user_id",
                     lower="-24h", upper="0s")
    return _select(out, ["p_event", "c_event", "c_value"])


def q_window_click_stats(sf_dir):
    """Windowed aggregate over the same 24 h window WITHOUT materializing
    pairs (prefix-sum sweep): per purchase, count of clicks and sum of
    click ids (integer-exact on both sides of the contract; float window
    sums are unit-tested — prefix-difference vs sequential SQL summation
    can differ in the last ulp, which the driver hash is sensitive to)."""
    from recipys_ray.ops.rangejoin import range_agg

    left, right = _purchase_click_sides(sf_dir)
    out = range_agg(
        left, right, on="ts", by="user_id", lower="-24h", upper="0s",
        aggs={"n_clicks": ("c_event", "count"),
              "click_id_sum": ("c_event", "sum")},
    )
    return _select(out, ["p_event", "n_clicks", "click_id_sum"])


# --------------------------------------------------------------------- #
# dedup / text / similarity (training-data ops)
# --------------------------------------------------------------------- #
def q_dedup_exact(sf_dir):
    from recipys_ray.ops.dedup import exact_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = exact_dedup(ds, text_col="text", id_col="doc_id")
    return _select(out, ["doc_id", "n_dups"])


def q_text_stats(sf_dir):
    from recipys_ray.ops.text import text_features

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = text_features(ds, concurrency=(2, 8), batch_size=1024)
    return _select(out, ["doc_id", "n_chars_calc", "n_words", "token_count"])


def q_profile(sf_dir):
    """One-pass dataset profiling (ops/profile.py): per-column counts,
    nulls, moments, min/max from a single streaming partial-aggregate pass."""
    from recipys_ray.ops.profile import profile

    pdf = profile(_with_valn(_events(sf_dir)), columns=["value", "valn"])
    out = pdf[["column", "rows_total", "nulls", "mean", "min", "max"]].copy()
    out = out.rename(columns={"column": "col_name"})
    out["rows_total"] = out["rows_total"].astype(np.int64)
    out["nulls"] = out["nulls"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_hash_split(sf_dir):
    """Deterministic train/val/test assignment by murmurhash64 ranges
    (ops/sampling.py) — bit-identical to DuckDB's hash(), so the oracle is
    the same predicate with the thresholds inlined as exact integers."""
    from recipys_ray.ops.sampling import hash_split

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    out = hash_split(
        docs, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1}
    )
    return _select(out, ["doc_id", "split"])


def q_mix_sources(sf_dir):
    """Per-source deterministic mixture sampling (ops/sampling.py): keep
    100% of src0, 50% of src1, 25% of src2, 10% of everything else."""
    from recipys_ray.ops.sampling import mix_sources

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = mix_sources(
        docs, "doc_id", "source",
        {"src0": 1.0, "src1": 0.5, "src2": 0.25}, default_rate=0.1,
    )
    return _select(out, ["doc_id", "source"])


def q_repetition_stats(sf_dir):
    """Gopher-style within-document repetition measures (ops/text.py
    RepetitionStats): duplicate-word fraction, top-{2,3}-gram char
    fraction, duplicate-5-gram char fraction."""
    from recipys_ray.ops.text import RepetitionStats

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = docs.map_batches(
        RepetitionStats("text", top_ns=(2, 3), dup_ns=(5,)),
        batch_format="pyarrow",
    )
    return _select(
        out,
        ["doc_id", "dup_word_frac", "top2gram_char_frac",
         "top3gram_char_frac", "dup5gram_char_frac"],
    )


def q_curate_corpus(sf_dir):
    """END-TO-END curation composition (pipelines/curation.py): normalize
    → length filter → exact dedup on normalized text → 5-gram benchmark
    decontamination → hash split. One SQL statement replays the whole
    chain, so stage INTERACTIONS are contract-checked, not just each op."""
    from recipys_ray.pipelines.curation import curate_corpus

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = curate_corpus(docs)
    return _select(out, ["doc_id", "split"])


def q_decontaminate(sf_dir):
    """Benchmark decontamination (GPT-3/PaLM n-gram-overlap protocol,
    ops/decontaminate.py): benchmark = documents with doc_id % 97 == 0;
    flag every document sharing any word 5-gram with it. Broadcast sorted
    hash array + vectorized searchsorted membership."""
    from recipys_ray.ops.decontaminate import decontaminate

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def pick_bench(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(ids % 97 == 0))

    bench = docs.map_batches(pick_bench, batch_format="pyarrow")
    out = decontaminate(docs, bench, text_col="text", n=5, mode="flag")

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "contaminated": tbl.column("contaminated").cast(pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def q_knn_impute(sf_dir):
    """Native KNNImputer (reference tests/test_steps.py:249): impute valn as
    the uniform mean of the 5 nearest donors under nan-euclidean distance
    over (value, valn, f3); golden oracle from an independent sequential
    implementation (scripts/gen_expected.py knn_impute_expected)."""
    from recipys_ray.transformers import KNNImputer

    def add(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        f3 = (
            (eid.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(1000003)
        ).astype(np.float64) / 1000003.0
        mask = pa.array(eid % 7 == 0)
        valn = pc.if_else(
            mask, pa.scalar(None, pa.float64()), tbl.column("value")
        )
        return tbl.append_column("valn", valn).append_column(
            "f3", pa.array(f3)
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    ).map_batches(add, batch_format="pyarrow")
    rec = rr.Recipe(ds, predictors=["value", "valn", "f3"])
    rec.add_step(
        rr.StepSklearn(KNNImputer(), sel=all_of(["value", "valn", "f3"]))
    )
    return _select(rec.prep(), ["event_id", "valn"])


def q_knn_impute_ivf(sf_dir):
    """KNNImputer with the IVF-bucketed donor search (the scale path:
    euclidean k-means cells over mean-filled donors, 3-probe candidate
    restriction, full-donor retry when a probed cell set has no usable
    donor); golden oracle from the independent sequential implementation
    (scripts/gen_expected.py knn_impute_ivf_expected)."""
    from recipys_ray.transformers import KNNImputer

    def add(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        f3 = (
            (eid.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(1000003)
        ).astype(np.float64) / 1000003.0
        mask = pa.array(eid % 7 == 0)
        valn = pc.if_else(
            mask, pa.scalar(None, pa.float64()), tbl.column("value")
        )
        return tbl.append_column("valn", valn).append_column(
            "f3", pa.array(f3)
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    ).map_batches(add, batch_format="pyarrow")
    rec = rr.Recipe(ds, predictors=["value", "valn", "f3"])
    rec.add_step(
        rr.StepSklearn(
            KNNImputer(ivf_clusters=64, ivf_probes=3),
            sel=all_of(["value", "valn", "f3"]),
        )
    )
    return _select(rec.prep(), ["event_id", "valn"])


def q_iterative_impute(sf_dir):
    """Native distributed IterativeImputer (reference tests/test_steps.py:259):
    3 fixed round-robin BayesianRidge rounds over (value, valn, f3); golden
    oracle from the sequential replay in scripts/gen_expected.py."""
    from recipys_ray.transformers import IterativeImputer

    def add(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        f3 = (
            (eid.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(1000003)
        ).astype(np.float64) / 1000003.0
        mask = pa.array(eid % 7 == 0)
        valn = pc.if_else(
            mask, pa.scalar(None, pa.float64()), tbl.column("value")
        )
        return tbl.append_column("valn", valn).append_column(
            "f3", pa.array(f3)
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    ).map_batches(add, batch_format="pyarrow")
    rec = rr.Recipe(ds, predictors=["value", "valn", "f3"])
    rec.add_step(
        rr.StepSklearn(
            IterativeImputer(max_iter=3, tol=0.0),
            sel=all_of(["value", "valn", "f3"]),
        )
    )
    return _select(rec.prep(), ["event_id", "valn"])


def q_knn_cosine(sf_dir):
    import pyarrow.compute as pc

    from recipys_ray.ops.similarity import knn_brute_force

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    queries_pdf = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t.column("vec_id"), 5)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    Q = np.stack(queries_pdf["embedding"].to_numpy())
    qids = queries_pdf["vec_id"].to_numpy()
    res = knn_brute_force(ds, Q, k=4, emb_col="embedding", id_col="vec_id")
    res["query_id"] = qids[res["query_idx"].to_numpy()]
    res = res[res["vec_id"] != res["query_id"]]
    out = []
    for q, grp in res.groupby("query_id"):
        grp = grp.sort_values(["sim", "vec_id"], ascending=[False, True]).head(3)
        grp = grp.assign(rank=np.arange(len(grp), dtype=np.int64))
        out.append(grp[["query_id", "vec_id", "rank"]])
    return pd.concat(out, ignore_index=True)


def q_knn_ivf(sf_dir):
    """IVF ANN with full-data centroid fit (sample_size ≥ table size keeps
    the fit deterministic regardless of block layout). Oracle: golden
    results from an independent sequential IVF implementation
    (scripts/gen_expected.py) — verifies the distributed cell-assignment +
    filtered search machinery."""
    from recipys_ray.ops.similarity import knn_ivf

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    queries_pdf = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t.column("vec_id"), 5)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    Q = np.stack(queries_pdf["embedding"].to_numpy())
    qids = queries_pdf["vec_id"].to_numpy()
    res = knn_ivf(ds, Q, k=4, emb_col="embedding", id_col="vec_id",
                  n_clusters=8, nprobe=3, sample_size=1_000_000)
    res["query_id"] = qids[res["query_idx"].to_numpy()]
    res = res[res["vec_id"] != res["query_id"]]
    out = []
    for q, grp in res.groupby("query_id"):
        grp = grp.sort_values(["sim", "vec_id"], ascending=[False, True]).head(3)
        grp = grp.assign(rank=np.arange(len(grp), dtype=np.int64))
        out.append(grp[["query_id", "vec_id", "rank"]])
    return pd.concat(out, ignore_index=True)


def q_dedup_minhash(sf_dir):
    """Oracle: golden survivors from an independent single-process
    reference implementation (scripts/gen_expected.py), keyed by corpus
    size — verifies the distributed banding/shuffle/components machinery
    against sequential ground truth."""
    from recipys_ray.ops.dedup import minhash_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = minhash_dedup(ds, text_col="text", id_col="doc_id")
    return _select(out, ["doc_id"])


def q_dup_clusters(sf_dir):
    """Near-dup cluster ASSIGNMENT (ops/dedup.cluster_labels over the
    minhash candidate pairs): every doc stamped with its component-min
    root and cluster size, singletons included — the cluster-aware view
    that powers keep-longest / per-cluster sampling policies. Oracle:
    golden (root, size) from the independent sequential union-find in
    scripts/gen_expected.py; the distributed join route is unit-tested
    equal to the broadcast route."""
    from recipys_ray.ops.dedup import cluster_labels, minhash_candidate_pairs

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    pairs = minhash_candidate_pairs(ds, text_col="text", id_col="doc_id")
    out = cluster_labels(
        ds.select_columns(["doc_id"]), pairs, id_col="doc_id"
    )
    return _select(out, ["doc_id", "root", "cluster_size"])


def q_dedup_simhash(sf_dir):
    """Oracle: golden survivors (see q_dedup_minhash)."""
    from recipys_ray.ops.dedup import simhash_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = simhash_dedup(ds, text_col="text", id_col="doc_id")
    return _select(out, ["doc_id"])


def q_dedup_embedding(sf_dir):
    """EXACT all-pairs variant — its survivor set is re-derivable in pure
    SQL (cosine cross-join + recursive-CTE components), so the oracle is a
    true independent check. The LSH variant (embedding_dedup) is the scale
    path, unit-tested against this exact op on planted duplicates."""
    from recipys_ray.ops.dedup import embedding_dedup_exact

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = embedding_dedup_exact(ds, threshold=0.99)
    return _select(out, ["vec_id"])


def q_dedup_semantic(sf_dir):
    """SemDeDup (cluster-then-within-cluster greedy cosine dedup,
    ops/semdedup.py). Oracle: golden survivors from the independent
    sequential reference (scripts/gen_expected.py semdedup_expected).
    threshold=0.3 so the synthetic corpus (max pairwise cosine ~0.5)
    actually drops rows."""
    from recipys_ray.ops.semdedup import semantic_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = semantic_dedup(
        ds, n_clusters=8, threshold=0.3, sample_size=1_000_000, seed=3
    )
    return _select(out, ["vec_id"])


def q_dedup_jaccard(sf_dir):
    """EXACT n-gram-Jaccard near-dup (prefix-filtered similarity self-join,
    ops/jaccard.py); the oracle recomputes true shingle-set Jaccard over
    all pairs in SQL plus recursive-CTE components."""
    from recipys_ray.ops.jaccard import jaccard_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = jaccard_dedup(ds, text_col="text", id_col="doc_id", threshold=0.6)
    return _select(out, ["doc_id"])


def q_dedup_containment(sf_dir):
    """Subsumed-document removal (EXACT shingle-set containment ≥ 0.7 in a
    strictly-larger doc, or an equal-size doc with smaller id;
    ops/jaccard.py containment_dedup). The oracle restates the per-doc
    NOT EXISTS over true string shingle sets — no components needed."""
    from recipys_ray.ops.jaccard import containment_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = containment_dedup(
        ds, text_col="text", id_col="doc_id", threshold=0.7
    )
    return _select(out, ["doc_id"])


def q_dedup_overlap(sf_dir):
    """Overlap-coefficient (Szymkiewicz–Simpson) near-dup removal
    (ops/jaccard.py overlap_dedup; shared asymmetric-prefix candidates,
    min-id component survivors). Oracle: SQL all-pairs overlap +
    recursive-CTE components."""
    from recipys_ray.ops.jaccard import overlap_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = overlap_dedup(ds, text_col="text", id_col="doc_id", threshold=0.8)
    return _select(out, ["doc_id"])


def q_fuzzy_decontaminate(sf_dir):
    """Fuzzy benchmark decontamination (ops/jaccard.py
    fuzzy_decontaminate): docs with source='src0' act as the benchmark;
    the remaining docs are the training corpus and are dropped when their
    shingle set is ≥ 0.5 contained in any single benchmark doc. Oracle:
    per-doc NOT EXISTS over true string shingle sets."""
    import pyarrow.compute as pc

    from recipys_ray.ops.jaccard import fuzzy_decontaminate

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def side(is_bench):
        def fn(tbl):
            m = pc.equal(tbl.column("source"), "src0")
            keep = m if is_bench else pc.invert(m)
            return tbl.filter(keep).select(["doc_id", "text"])

        return fn

    train = docs.map_batches(side(False), batch_format="pyarrow")
    bench = docs.map_batches(side(True), batch_format="pyarrow")
    out = fuzzy_decontaminate(train, bench, threshold=0.5)
    return _select(out, ["doc_id"])


def q_vocab_top100(sf_dir):
    """Exact top-100 vocabulary (term + document frequencies) via the
    combiner → hash-partition → local-top-K plan; oracle is one SQL
    unnest + group + window rank."""
    from recipys_ray.ops.text import build_vocab

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return build_vocab(ds, top_k=100)


def q_lm_score(sf_dir):
    """CCNet-style unigram LM scoring (ops/text.py unigram_lm_score):
    fit exact top-100 vocab + total count, broadcast, shuffle-free scoring.
    The contract checks the integer-exact backbone (n_words, oov_count,
    vocab_count_sum) + oov_rate (single int/int division — bit-exact);
    the float log scores are unit-tested against a sequential reference
    (numpy log differs from DuckDB ln by 1 ulp on ~20% of inputs)."""
    from recipys_ray.ops.text import unigram_lm_score

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = unigram_lm_score(ds, top_k=10)
    return _select(
        out, ["doc_id", "n_words", "oov_count", "vocab_count_sum", "oov_rate"]
    )


def q_funnel(sf_dir):
    """Funnel analysis (ops/funnel.py): per user, first view → first click
    strictly after it → first purchase strictly after that, plus the stage
    count. Timestamps + ints — hash-exact end-to-end."""
    from recipys_ray.ops.funnel import funnel

    ds = _events(sf_dir, columns=["user_id", "ts", "event_type"])
    out = funnel(ds, steps=["view", "click", "purchase"])
    return _select(
        out, ["user_id", "stage", "ts_view", "ts_click", "ts_purchase"]
    )


def q_funnel_latency(sf_dir):
    """Per-converted-user funnel transition delays (view→click,
    click→purchase in µs) — the conversion-velocity companion to
    q_funnel, composed over the same ops/funnel.py pass (stage-3 users
    only). Exact int64 differences of the funnel's first-qualifying
    timestamps."""
    from recipys_ray.ops.funnel import funnel

    ds = _events(sf_dir, columns=["user_id", "ts", "event_type"])
    out = funnel(ds, steps=["view", "click", "purchase"])

    def gaps(tbl: pa.Table) -> pa.Table:
        stage = tbl.column("stage")
        tbl = tbl.filter(pc.equal(stage, 3))
        tv = pc.cast(tbl.column("ts_view"), pa.int64())
        tc = pc.cast(tbl.column("ts_click"), pa.int64())
        tp = pc.cast(tbl.column("ts_purchase"), pa.int64())
        return pa.table({
            "user_id": tbl.column("user_id"),
            "v2c_us": pc.subtract(tc, tv),
            "c2p_us": pc.subtract(tp, tc),
        })

    out = out.map_batches(gaps, batch_format="pyarrow")
    return _select(out, ["user_id", "v2c_us", "c2p_us"])


def q_churn_labels(sf_dir):
    """Per (user, active-day) 7-day churn label
    (ops/timeseries.churn_labels) — the look-ahead retention label,
    generated once as data rather than recomputed by the model. Exact
    integers; bit-equal to the lead() oracle."""
    from recipys_ray.ops.timeseries import churn_labels

    ds = _events(sf_dir, columns=["user_id", "ts"])

    def days(tbl: pa.Table) -> pa.Table:
        ts = pc.cast(tbl.column("ts"), pa.int64())
        return pa.table({
            "user_id": tbl.column("user_id"),
            "day": pc.divide(ts, 86_400_000_000),
        })

    out = churn_labels(
        ds.map_batches(days, batch_format="pyarrow"),
        ["user_id"], "day", horizon=7,
    )
    return _select(out, ["user_id", "day", "churned"])


def q_longest_streak(sf_dir):
    """Per-user longest consecutive-active-day streak
    (ops/timeseries.longest_streak — the gaps-and-islands
    day − row_number() identity over distinct epoch days). Exact
    integers; the exchange moves at most one row per (user, day) per
    block."""
    from recipys_ray.ops.timeseries import longest_streak

    ds = _events(sf_dir, columns=["user_id", "ts"])

    def days(tbl: pa.Table) -> pa.Table:
        ts = pc.cast(tbl.column("ts"), pa.int64())
        return pa.table({
            "user_id": tbl.column("user_id"),
            "day": pc.divide(ts, 86_400_000_000),
        })

    out = longest_streak(
        ds.map_batches(days, batch_format="pyarrow"), ["user_id"], "day",
    )
    return _select(out, ["user_id", "streak"])


def q_active_users(sf_dir):
    """DAU + trailing-7-day active users: each event contributes its user
    to 7 window-end days (one vectorized expansion batch op), then ONE
    exact distinct-per-group pass (ops/distinct.py) counts both series —
    the sliding-distinct composition every analytics stack needs. Integer
    epoch days, integer counts — hash-exact."""
    from recipys_ray.ops.distinct import distinct_per_group

    ds = _events(sf_dir, columns=["user_id", "ts"])

    def expand(tbl: pa.Table) -> pa.Table:
        day = (
            tbl.column("ts").cast(pa.int64()).to_numpy() // 86_400_000_000
        )
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        n = len(day)
        offs = np.arange(7, dtype=np.int64)
        return pa.table({
            "end_day": pa.array(np.repeat(day, 7) + np.tile(offs, n)),
            "day": pa.array(np.repeat(day, 7)),
            "user_id": pa.array(np.repeat(uid, 7)),
        })

    expanded = ds.map_batches(expand, batch_format="pyarrow")
    wau = distinct_per_group(
        expanded.select_columns(["end_day", "user_id"]),
        ["end_day"], "user_id",
    ).to_pandas().rename(columns={"n_distinct": "wau"})

    def dau_rows(tbl: pa.Table) -> pa.Table:
        mask = pc.equal(tbl.column("end_day"), tbl.column("day"))
        sub = tbl.filter(mask)
        return pa.table({
            "end_day": sub.column("end_day"),
            "user_id": sub.column("user_id"),
        })

    dau = distinct_per_group(
        expanded.map_batches(dau_rows, batch_format="pyarrow"),
        ["end_day"], "user_id",
    ).to_pandas().rename(columns={"n_distinct": "dau"})

    out = wau.merge(dau, on="end_day", how="left")
    out["dau"] = out["dau"].fillna(0).astype(np.int64)
    out["wau"] = out["wau"].astype(np.int64)
    out["end_day"] = out["end_day"].astype(np.int64)
    return out[["end_day", "dau", "wau"]]


def q_cohort_retention(sf_dir):
    """Cohort retention matrix (ops/cohort.py): integer epoch-week cohorts
    — no calendar-truncation convention to disagree on — one entity-hash
    exchange, per-partition complete reduction, #periods²-bounded merge."""
    from recipys_ray.ops.cohort import cohort_retention

    ds = _events(sf_dir, columns=["user_id", "ts"])
    return cohort_retention(ds, period_s=86400)  # daily: non-trivial matrix


def q_props_extract(sf_dir):
    """Flat-JSON field extraction (ops/jsonfields.py): one RE2 kernel over
    the props column — no per-row json.loads."""
    from recipys_ray.ops.jsonfields import extract_json_int

    ds = _events(sf_dir, columns=["event_id", "props"])
    return _select(extract_json_int(ds, "props", "k"), ["event_id", "k_val"])


def q_props_sum_by_type(sf_dir):
    """JSON extraction composed with a grouped integer aggregate: total of
    props.k per event_type — per-block combiner partials, tiny driver
    merge (bounded by the distinct-type count)."""
    import pyarrow.compute as pc2

    from recipys_ray.ops.jsonfields import extract_json_int

    ds = extract_json_int(
        _events(sf_dir, columns=["event_id", "event_type", "props"]),
        "props", "k",
    )

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(["event_type", "k_val"]).to_pandas()
        g = pdf.groupby("event_type", sort=False)["k_val"].sum()
        return pa.table({
            "event_type": pa.array(g.index.to_numpy(dtype=object)),
            "k_sum": pa.array(g.to_numpy(dtype=np.int64)),
        })

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("event_type", sort=True)["k_sum"].sum()
        .reset_index()
    )
    merged["k_sum"] = merged["k_sum"].astype(np.int64)
    return merged


def q_redact_pii(sf_dir):
    """PII scrubbing (ops/text.py redact_pii): deterministic PII strings
    are appended identically on both sides (the corpus itself has none),
    then the email→phone→IPv4 count+replace chain runs — RE2 on both
    engines, byte-identical outputs."""
    from recipys_ray.ops.text import redact_pii

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def dirty(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id")
        txt = pc.fill_null(tbl.column("text"), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        dnp = did.to_numpy(zero_copy_only=False)
        n = len(dnp)
        t = pc.binary_join_element_wise(
            txt,
            pa.array(np.full(n, " u", dtype=object)),
            pa.array(dnp.astype("U"), pa.string()),
            pa.array(
                np.full(n, "@ex.org ph +44 7911 123456 ip 10.0.0.",
                        dtype=object)
            ),
            pa.array((dnp % 200).astype("U"), pa.string()),
            "",
        )
        return pa.table({"doc_id": did, "text": t})

    out = redact_pii(docs.map_batches(dirty, batch_format="pyarrow"))
    return _select(
        out, ["doc_id", "clean_text", "n_emails", "n_phones", "n_ips"]
    )


def q_chunk_documents(sf_dir):
    """Fixed-size training-window chunking (ops/chunking.py): 120-char
    chunks, 20-char overlap — rows multiply in one streaming flat-map
    pass; oracle is substr over a lateral generate_series."""
    from recipys_ray.ops.chunking import chunk_documents

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = chunk_documents(docs, chunk_chars=120, overlap=20)
    return _select(out, ["doc_id", "chunk_no", "chunk_text"])


def q_duplicate_spans(sf_dir):
    """ExactSubstr-style duplicate span detection (ops/spans.py): 40-char
    spans sampled every 10 chars, one hash-partitioned exchange, groups on
    the exact span string. Oracle: substr spans via lateral generate_series
    + HAVING count(DISTINCT doc_id) ≥ 2."""
    from recipys_ray.ops.spans import duplicate_spans

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = duplicate_spans(docs, span_chars=40, stride=10)
    return _select(out, ["doc_id", "span_start", "n_docs"])


def q_bigram_top50(sf_dir):
    """Exact top-50 BIGRAM vocabulary — the n-gram generalization of
    build_vocab (word stream → vectorized 2-gram join → same combiner /
    hash-partition finish). Oracle rebuilds bigrams via list indexing over
    a lateral series."""
    from recipys_ray.ops.text import build_vocab

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return build_vocab(ds, top_k=50, ngram=2)


def q_distinct_parts(sf_dir):
    """Exact distinct l_partkey per l_returnflag (ops/distinct.py combiner
    plan); the HLL variant is the scale path, error-tested in unit tests."""
    from recipys_ray.ops.distinct import distinct_per_group

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_partkey"],
    )
    out = distinct_per_group(ds, ["l_returnflag"], "l_partkey")
    return _select(out, ["l_returnflag", "n_distinct"])


def q_sample_per_source(sf_dir):
    """Deterministic 20-docs-per-source sample (smallest hash(doc_id) per
    group, ops/sampling.py sample_per_group); the oracle replays it with
    DuckDB's own hash() in a window rank."""
    from recipys_ray.ops.sampling import sample_per_group

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = sample_per_group(ds, ["source"], "doc_id", n=20)
    return _select(out, ["source", "doc_id", "rank"])


def q_global_rank(sf_dir):
    """Exact global rank of every lineitem by price (ops/rank.py: sampled
    range boundaries → one payload shuffle → local sort + broadcast prefix
    offsets); oracle is a single SQL window row_number."""
    from recipys_ray.ops.rank import add_global_rank

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    out = add_global_rank(
        ds, "l_extendedprice",
        tie_cols=["l_orderkey", "l_linenumber"],
        num_partitions=16,
    )
    return _select(out, ["l_orderkey", "l_linenumber", "rank"])


def q_ntile(sf_dir):
    """SQL NTILE(8) over orders by totalprice (ops/rank.py add_ntile —
    bucket derived from the exact global rank, no extra pass)."""
    from recipys_ray.ops.rank import add_ntile

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    out = add_ntile(
        ds, "o_totalprice", k=8, tie_cols=["o_orderkey"], num_partitions=16
    )
    return _select(out, ["o_orderkey", "bucket"])


def q_group_quantiles(sf_dir):
    """Exact per-group continuous quantiles of lineitem quantity per return
    flag (ops/quantiles.py group_quantiles — one skinny exchange, one
    vectorized groupby.quantile kernel per partition)."""
    from recipys_ray.ops.quantiles import group_quantiles

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )
    return _select(
        group_quantiles(ds, "l_returnflag", "l_quantity", [0.25, 0.5, 0.75]),
        ["l_returnflag", "q25", "q50", "q75"],
    )


def q_pivot_event_counts(sf_dir):
    """Long→wide pivot: per user, the count of each event type as its own
    column (ops/reshape.py pivot — skinny key-discovery pass + one hash
    exchange + vectorized groupby/unstack per partition)."""
    from recipys_ray.ops.reshape import pivot

    ds = _events(sf_dir, columns=["user_id", "event_type", "value"])
    out = pivot(ds, "user_id", "event_type", "value", agg="count")
    return _select(
        out, ["user_id", "click", "error", "purchase", "signup", "view"]
    )


def q_melt_lineitem(sf_dir):
    """Wide→long melt of three lineitem measures (ops/reshape.py melt —
    stateless flat transform, no shuffle)."""
    from recipys_ray.ops.reshape import melt

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    out = melt(
        ds, ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_discount"],
    )
    return _select(
        out, ["l_orderkey", "l_linenumber", "variable", "value"]
    )


def q_event_paths(sf_dir):
    """Ordered per-user event-type path (ops/reshape.py group_concat —
    Arrow ListArray + binary_join, concatenation vectorized across all
    groups of a partition)."""
    from recipys_ray.ops.reshape import group_concat

    ds = _events(sf_dir, columns=["user_id", "ts", "event_id", "event_type"])
    out = group_concat(
        ds, "user_id", ["ts", "event_id"], "event_type", sep=",",
        out_col="path",
    )
    return _select(out, ["user_id", "path"])


def q_weighted_sample(sf_dir):
    """Deterministic weighted sample (priority sampling, w/u priorities —
    ops/sampling.py weighted_sample). Engine-reproducible: hash parity
    with DuckDB plus mul/div-only priorities (no libm log/pow)."""
    from recipys_ray.ops.sampling import weighted_sample

    ds = _events(sf_dir, columns=["event_id", "user_id", "value"])
    out = weighted_sample(ds, "event_id", "value", k=50)
    return _select(out, ["event_id", "user_id", "value"])


def q_cume_dist(sf_dir):
    """Exact cumulative distribution (SQL cume_dist over a unique total
    order = row_number/n): global rank stamping + one broadcast scalar.
    Bit-safe float contract: both engines compute the same (rank+1)/n
    IEEE division — no libm."""
    from recipys_ray.ops.rank import add_global_rank

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    n = ds.count()  # parquet metadata fast path (pure read)
    ranked = add_global_rank(
        ds, "l_extendedprice",
        tie_cols=["l_orderkey", "l_linenumber"],
        num_partitions=16,
    )

    def finish(tbl: pa.Table) -> pa.Table:
        r = tbl.column("rank").to_numpy(zero_copy_only=False)
        cd = (r + 1).astype(np.float64) / np.float64(n)
        return pa.table({
            "l_orderkey": tbl.column("l_orderkey"),
            "l_linenumber": tbl.column("l_linenumber"),
            "cd": pa.array(cd),
        })

    return ranked.map_batches(finish, batch_format="pyarrow")


def q_distinct_users_hll(sf_dir):
    """HyperLogLog per-event-type distinct users — the driver-checked
    evidence for the approx COUNT(DISTINCT) scale path (exact path:
    distinct_parts). Deterministic by contract (ascending-register
    summation); golden oracle = scripts/gen_expected.hll_expected's
    independent dense-register sequential HLL."""
    from recipys_ray.ops.distinct import distinct_per_group_approx

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    out = distinct_per_group_approx(ds, ["event_type"], "user_id", p=12)
    return _select(out, ["event_type", "n_distinct_approx"])


def q_winsorize(sf_dir):
    """Outlier winsorization at exact [0.05, 0.95] quantile_disc bounds
    (ops/quantiles.winsorize). Selection-only float contract: outputs are
    existing input doubles, so the SQL least/greatest oracle is bit-equal.
    bins/cap forced small so the quantile refinement actually iterates."""
    from recipys_ray.ops.quantiles import winsorize

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    out = winsorize(
        ds, "l_extendedprice", 0.05, 0.95, out_col="clipped",
        bins=16, driver_cap=2000,
    )
    return _select(out, ["l_orderkey", "l_linenumber", "clipped"])


def q_robust_outliers(sf_dir):
    """Median/MAD robust z-score + flag (ops/quantiles.robust_zscore).
    Exact medians via counting selection; the score pass is single IEEE
    double ops (sub/abs/div/compare) both engines compute identically."""
    from recipys_ray.ops.quantiles import robust_zscore

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    out = robust_zscore(
        ds, "l_extendedprice", k=2.5, bins=16, driver_cap=2000,
    )
    return _select(out, ["l_orderkey", "l_linenumber", "rz", "is_outlier"])


def q_rollup_doc_stats(sf_dir):
    """GROUP BY ROLLUP(source, lang) counts + char sums in one combiner
    scan (ops/rollup.py). gid is the SQL GROUPING() bitmask; all
    aggregates integer-exact (count + int64 sum)."""
    from recipys_ray.ops.rollup import rollup_aggregate

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "lang", "n_chars"],
    )
    out = rollup_aggregate(ds, ["source", "lang"], sum_cols=["n_chars"])
    return _select(out, ["gid", "source", "lang", "cnt", "sum_n_chars"])


def q_cube_doc_stats(sf_dir):
    """GROUP BY CUBE(source, lang) — the full 2^k grouping-set lattice
    in the SAME single combiner scan as rollup_doc_stats
    (ops/rollup.rollup_aggregate with explicit grouping_sets): the
    exchange moves one partial row per (set × key combo × block), never
    data rows. gid is the SQL GROUPING() bitmask."""
    from recipys_ray.ops.rollup import rollup_aggregate

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "lang", "n_chars"],
    )
    out = rollup_aggregate(
        ds, ["source", "lang"], sum_cols=["n_chars"],
        grouping_sets=[["source", "lang"], ["source"], ["lang"], []],
    )
    return _select(out, ["gid", "source", "lang", "cnt", "sum_n_chars"])


def q_frequent_tokens(sf_dir):
    """Exact heavy-hitter tokens WITHOUT a groupby shuffle (ops/frequent.py:
    Misra-Gries combiner pass → broadcast candidates → exact verify pass);
    the long-tail token exchange the vocab query pays never happens."""
    from recipys_ray.ops.frequent import frequent_items
    from recipys_ray.ops.text import word_stream

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def toks(tbl: pa.Table) -> pa.Table:
        words, _ = word_stream(tbl.column("text"))
        return pa.table({"token": words})

    tok = ds.map_batches(toks, batch_format="pyarrow")
    out = frequent_items(tok, "token", min_fraction=0.02)
    return out.rename(columns={"item": "token"})


def q_exact_quantiles(sf_dir):
    """Exact distributed quantile_disc over lineitem prices WITHOUT a
    global sort (ops/quantiles.py iterative counting selection). bins/cap
    forced small so sf0.01+ actually exercises 2-3 refinement rounds."""
    from recipys_ray.ops.quantiles import exact_quantiles

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return exact_quantiles(
        ds, "l_extendedprice", qs=[0.25, 0.5, 0.9, 0.99],
        bins=16, driver_cap=2000,
    )


def q_top_docs_per_source(sf_dir):
    """Top-5 documents per source by n_chars (ops/topk.py combiner →
    hash-partition finish); oracle is a SQL window rank. doc_id tie-break
    makes the boundary deterministic."""
    from recipys_ray.ops.topk import top_k_per_group

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    out = top_k_per_group(
        ds, ["source"], "n_chars", k=5, descending=True,
        tie_cols=["doc_id"],
    )
    return _select(out, ["source", "doc_id", "n_chars", "rank"])


def q_tfidf_top3(sf_dir):
    """Per-doc top-3 TF-IDF terms over the exact top-1000 vocabulary
    (ops/text.py tfidf_top_terms); oracle re-derives vocabulary, smooth
    idf and the per-doc window rank in SQL."""
    from recipys_ray.ops.text import tfidf_top_terms

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tfidf_top_terms(ds, vocab_size=1000, top_n=3)
    return _select(out, ["doc_id", "term", "tf", "doc_freq", "tfidf", "rank"])


def q_langid_quality(sf_dir):
    """Language-ID + quality + rolling-hash fingerprint, all re-derived in
    the SQL oracle (regexp token parity, stopword-hit argmax, identical
    poly-hash recurrence in DuckDB list_reduce)."""
    from recipys_ray.ops.text import text_features

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = text_features(ds, concurrency=(2, 8), batch_size=1024)
    return _select(out, ["doc_id", "lang_pred", "quality_score", "fingerprint"])


def q_quantile_transform(sf_dir):
    """With n_quantiles = #non-null values, the quantile transform equals
    the tie-averaged percent rank — which is exactly SQL-expressible."""
    from recipys_ray.aggregates import column_stats
    from recipys_ray.transformers import QuantileTransformer

    ds = _with_valn(_events(sf_dir))
    n_nonnull = column_stats(ds, ["valn"], set())["valn"].count
    rec = _recipe(ds)
    rec.add_step(
        rr.StepSklearn(
            QuantileTransformer(n_quantiles=n_nonnull), sel=all_of(["valn"])
        )
    )
    return _select(rec.prep(), ["event_id", "valn"])


def q_power_yj(sf_dir):
    """Yeo-Johnson with the distributed 3-stage grid λ fit; the oracle
    re-derives the SAME argmax cascade in SQL (identical grids, identical
    llf formula), then applies ψ + standardization at λ*."""
    from recipys_ray.transformers import PowerTransformer

    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(
        rr.StepSklearn(PowerTransformer(duckdb_parity_stats=True),
                       sel=all_of(["valn"]), in_place=False)
    )
    return _select(rec.prep(), ["event_id", "PowerTransformer_valn"])


def q_spline_basis(sf_dir):
    """Degree-1 B-spline basis (hat functions) over uniform knots — exactly
    SQL-expressible; higher degrees share the same de Boor evaluator and are
    unit-tested against a naive Cox-de Boor reference."""
    from recipys_ray.transformers import SplineTransformer

    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(
        rr.StepSklearn(
            SplineTransformer(n_knots=5, degree=1),
            sel=all_of(["valn"]),
            in_place=False,
        )
    )
    return _select(
        rec.prep(),
        ["event_id"] + [f"SplineTransformer_{i}" for i in range(1, 6)],
    )


def q_normalize_text(sf_dir):
    """Vectorized text normalization (ops/text.py normalize_text): the
    testdata text is already clean, so both sides first synthesize an
    identical dirty prefix (mixed case, a URL and an email keyed by doc_id,
    whitespace runs) and the oracle replays the exact kernel chain
    (lower → mask URL → mask email → collapse \\s+ → trim) in DuckDB —
    same RE2 regex family on both engines."""
    from recipys_ray.ops.text import normalize_text

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def dirty(tbl: pa.Table) -> pa.Table:
        sid = pc.cast(tbl.column("doc_id"), pa.string())
        d = pc.binary_join_element_wise(
            pa.array(["Visit HTTPS://ex.com/"] * len(tbl)),
            sid,
            pa.array([" or  mail Bob."] * len(tbl)),
            sid,
            pa.array(["@Mail-Host.org  NOW.\t"] * len(tbl)),
            tbl.column("text"),
            "",
        )
        return tbl.append_column("dirty", d)

    out = normalize_text(
        docs.map_batches(dirty, batch_format="pyarrow"), text_col="dirty"
    )
    return _select(out, ["doc_id", "norm_text"])


def q_join_orders_customer(sf_dir):
    """Broadcast equi-join (ops/join.py): orders (fact) × customer (dim).
    The dim side is collected once, ``ray.put`` into the object store, and
    every map task hash-merges its batch against the shared copy — zero
    shuffle, the 100-TB-facts × small-dim plan."""
    from recipys_ray.ops.join import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    customer = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"],
    )
    out = hash_join(
        orders, customer, on="o_custkey", right_on="c_custkey",
        strategy="broadcast",
    )
    return _select(
        out, ["o_orderkey", "o_custkey", "o_totalprice", "c_name", "c_acctbal"]
    )


def q_skew_join_type_stats(sf_dir):
    """Skew-aware hybrid join (ops/join.py skew_join): events × a
    per-event_type distinct-user dim on the 5-value (so maximally hot)
    event_type key — hot keys join map-side against a broadcast dim slice
    and never shuffle, cold keys take the co-partitioned plan; the result
    is bit-identical to a single-plan join, which is exactly what the SQL
    oracle states. hot_key_factor=0.5 guarantees the hot branch actually
    exercises at every test scale."""
    from recipys_ray.ops.distinct import distinct_per_group
    from recipys_ray.ops.join import skew_join

    ev = _events(sf_dir, columns=["event_id", "user_id", "event_type"])
    dim = distinct_per_group(
        _events(sf_dir, columns=["user_id", "event_type"]),
        ["event_type"], "user_id",
    )
    out = skew_join(ev, dim, on="event_type", hot_key_factor=0.5)
    return _select(out, ["event_id", "event_type", "n_distinct"])


def q_join_lineitem_orders(sf_dir):
    """Co-partitioned shuffle equi-join (ops/join.py): lineitem × orders,
    both sides stamped with the same hash(key)%P, unioned, co-shuffled ONCE,
    then one pandas merge per partition — both sides unbounded."""
    from recipys_ray.ops.join import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderpriority"],
    )
    out = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        strategy="shuffle",
    )
    return _select(
        out,
        ["l_orderkey", "l_linenumber", "l_extendedprice", "o_totalprice",
         "o_orderpriority"],
    )


def q_semi_join_orders(sf_dir):
    """Semi join (existence filter) on the co-partitioned shuffle plan:
    orders that have at least one lineitem. Only the DISTINCT right keys
    ride the exchange — the curation primitive behind `keep docs whose id
    appears in the manifest`."""
    from recipys_ray.ops.join import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
    out = hash_join(
        orders, li, on="o_orderkey", right_on="l_orderkey",
        how="semi", strategy="shuffle",
    )
    return _select(out, ["o_orderkey", "o_totalprice"])


def q_anti_join_customer(sf_dir):
    """Anti join (negative existence) on the broadcast plan: customers with
    no order above 300k — the decontamination shape (drop rows whose key
    appears in a small blocklist) as a first-class join."""
    from recipys_ray.ops.join import hash_join

    customer = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(
            pc.greater(t.column("o_totalprice"), 300000.0)
        ).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    out = hash_join(
        customer, orders, on="c_custkey", right_on="o_custkey",
        how="anti", strategy="broadcast",
    )
    return _select(out, ["c_custkey", "c_name"])


def q_mode_event(sf_dir):
    """Exact per-user modal event type (ops/groupstats.grouped_mode):
    per-block vectorized count combiner → ONE exchange of (user, type,
    cnt) partial rows → vectorized argmax with deterministic smallest-
    value tie-break. The event payload never shuffles."""
    from recipys_ray.ops.groupstats import grouped_mode

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    out = grouped_mode(ds, ["user_id"], "event_type", out_col="mode_event")
    return _select(out, ["user_id", "mode_event", "mode_cnt"])


def q_event_entropy(sf_dir):
    """Per-user Shannon entropy (nats) of the event-type distribution
    (ops/groupstats.grouped_entropy) — the label-diversity signal a
    curation pipeline uses to drop boilerplate shards. Counts are exact
    int64 ≤ 2^53, so every division is an identical double in both
    engines; only the per-group term-summation order can differ."""
    from recipys_ray.ops.groupstats import grouped_entropy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    # column named to sort AFTER the unique user_id key in the driver's
    # canonical (alphabetical-column) row sort: entropy is allclose-equal
    # but not bit-equal across engines, so it must never be the primary
    # sort key of the hashed row order
    out = grouped_entropy(ds, ["user_id"], "event_type",
                          out_col="value_entropy")
    return _select(out, ["user_id", "value_entropy"])


def q_grouped_corr(sf_dir):
    """Pearson correlation + sample covariance of quantity vs discount
    per returnflag via sufficient statistics (ops/groupstats.grouped_corr).
    Driver-hash determinism by construction: both inputs are INTEGER-
    valued (quantity is integral; discount×100 rounds to an exact int),
    so every Σ is exact in float64 (far below 2^53) and order-free, and
    the closed form runs on identical doubles in both engines — bit-exact,
    not merely allclose. (Raw float columns work too, but their Σ's are
    summation-order-dependent at the ulp.)"""
    from recipys_ray.ops.groupstats import grouped_corr

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )

    def to_int(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d100 = pc.round(pc.multiply(tbl.column("l_discount"), 100.0))
        return pa.table({
            "l_returnflag": tbl.column("l_returnflag"),
            "qty": pc.cast(tbl.column("l_quantity"), pa.int64()),
            "disc100": pc.cast(d100, pa.int64()),
        })

    ints = ds.map_batches(to_int, batch_format="pyarrow")
    out = grouped_corr(ints, ["l_returnflag"], "qty", "disc100")
    return _select(out, ["l_returnflag", "n", "cov_xy", "corr_xy"])


def q_value_ranks(sf_dir):
    """Tie-aware DENSE_RANK + PERCENT_RANK over l_quantity (50 distinct
    values) with NO payload shuffle (ops/rank.value_ranks): skinny
    value-count fold → broadcast prefix ranks → searchsorted stamp.
    percent_rank = (min_rank-1)/(n-1) — one IEEE division, bit-safe."""
    from recipys_ray.ops.rank import value_ranks

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    out = value_ranks(ds, "l_quantity")
    return _select(
        out, ["l_orderkey", "l_linenumber", "dense_rank", "pct_rank"]
    )


def q_merge_intervals(sf_dir):
    """Gaps-and-islands interval coalescing per user (ops/intervals.py):
    each event spans [ts, ts + (event_id%100 + 1) minutes]; overlapping/
    touching spans merge into islands. All arithmetic in int64 epoch
    microseconds — every output column integer-exact, hash-safe."""
    from recipys_ray.ops.intervals import merge_intervals

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )

    def spans(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = pc.cast(tbl.column("ts"), pa.int64()).to_numpy()  # epoch micros
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        dur = (eid % 100 + 1) * 60_000_000
        return pa.table({
            "user_id": tbl.column("user_id"),
            "s_us": pa.array(s, pa.int64()),
            "e_us": pa.array(s + dur, pa.int64()),
        })

    iv = ds.map_batches(spans, batch_format="pyarrow")
    out = merge_intervals(iv, ["user_id"], "s_us", "e_us")
    return _select(out, ["user_id", "span_start", "span_end", "n_merged"])


def q_event_transitions(sf_dir):
    """First-order Markov transition counts over per-user event sequences
    (ops/groupstats.transition_counts): SQL lead() + GROUP BY (from, to).
    One skinny payload exchange + one tiny pair-count exchange."""
    from recipys_ray.ops.groupstats import transition_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = transition_counts(
        ds, ["user_id"], ["ts", "event_id"], "event_type",
        from_col="from_event", to_col="to_event",
    )
    return _select(out, ["from_event", "to_event", "cnt"])


def q_benford(sf_dir):
    """Benford's-law leading-digit profile of the cents-exact value
    column (ops/profile.benford_counts): per-block bincount combiner →
    one tiny exchange. Digit extracted by integer division, never float
    log10 or string formatting; counts exact int64."""
    from recipys_ray.ops.profile import benford_counts

    ds = _events(sf_dir, columns=["value"])

    def to_cents(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table({"cents": cents})

    return _select(
        benford_counts(
            ds.map_batches(to_cents, batch_format="pyarrow"), "cents"
        ),
        ["digit", "cnt"],
    )


def q_grouped_minmax(sf_dir):
    """Per-user min-max normalization of the cents-exact value column
    (ops/groupstats.grouped_minmax): min/max combiner → broadcast stamp,
    zero payload shuffle. Integer input ⇒ exact operands ⇒ the single
    IEEE division is bit-equal in both engines; constant groups → NULL."""
    from recipys_ray.ops.groupstats import grouped_minmax

    ds = _events(sf_dir)

    def to_cents(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "cents": cents,
            }
        )

    out = grouped_minmax(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        ["user_id"], "cents", out_col="val_mm",
    )
    return _select(out, ["event_id", "user_id", "cents", "val_mm"])


def q_state_runs(sf_dir):
    """Gaps-and-islands run-length features per user
    (ops/groupstats.state_run_stats): number of maximal runs of
    consecutive identical event types, longest run, total events — the
    bot-loop / stuck-agent detector. ONE skinny exchange; int64-exact."""
    from recipys_ray.ops.groupstats import state_run_stats

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = state_run_stats(ds, ["user_id"], ["ts", "event_id"], "event_type")
    return _select(out, ["user_id", "n_runs", "max_run_len", "n_events"])


def q_cumulative_distinct(sf_dir):
    """Running COUNT(DISTINCT event_type) per user in event order — the
    novelty-rate feature (ops/groupstats.cumulative_distinct): one skinny
    exchange on user_id, vectorized first-seen + grouped cumsum. Exact
    int64 output; zero temporal leakage by construction."""
    from recipys_ray.ops.groupstats import cumulative_distinct

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = cumulative_distinct(
        ds, ["user_id"], ["ts", "event_id"], "event_type",
        out_col="n_distinct_types",
    )
    return _select(out, ["user_id", "ts", "event_id", "n_distinct_types"])


def q_grouped_auc(sf_dir):
    """Per-user ROC-AUC of value against a deterministic derived label
    (event_id % 3 = 0) — ops/groupstats.grouped_auc. Exact integer
    Mann-Whitney pair counts; the single final division is the same IEEE
    op both engines perform, so the float column is bit-equal."""
    from recipys_ray.ops.groupstats import grouped_auc

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value"],
    )

    def lab(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        return tbl.append_column("is_pos", pa.array(eid % 3 == 0))

    out = grouped_auc(
        ds.map_batches(lab, batch_format="pyarrow"),
        ["user_id"], "value", "is_pos",
    )
    return _select(out, ["user_id", "auc", "n_pos", "n_neg"])


def q_feature_hash(sf_dir):
    """Hashing-trick featurizer over documents (ops/encode.feature_hash,
    D=256): sparse (doc, bucket, signed count) triplets, bucket/sign from
    DuckDB-parity MurmurHash64A (kernels/duckdb_parity.duckdb_hash_varchar)
    — exact int64, zero shuffle."""
    from recipys_ray.ops.encode import feature_hash

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return feature_hash(ds, "doc_id", "text", num_buckets=256)


def q_grouped_robust(sf_dir):
    """Per-supplier median/MAD robust z-score of quantity
    (ops/quantiles.grouped_robust_zscore): both medians are quantile_disc
    order statistics (no lerp), so every float op is a single IEEE double
    both engines compute identically; MAD=0 groups yield NULL scores (SQL
    x/0.0 semantics) with boolean flags."""
    from recipys_ray.ops.quantiles import grouped_robust_zscore

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_orderkey", "l_linenumber", "l_quantity"],
    )
    out = grouped_robust_zscore(
        ds, "l_suppkey", "l_quantity",
        ["l_orderkey", "l_linenumber"], k=2.5,
    )
    return _select(out, ["l_orderkey", "l_linenumber", "rz", "is_outlier"])


def q_interarrival(sf_dir):
    """Per-user inter-arrival gap features (n/avg/max/p50 of the µs gap
    between consecutive events) — the response-latency feature family for
    transcript/behavioral data. ONE skinny exchange on user_id; gaps are
    exact int64 µs so max/p50 (quantile_disc) are integers and avg is one
    IEEE division of exact ints."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id"],
    )

    def agg(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["user_id", "ts", "event_id"], kind="stable",
                              ignore_index=True)
        us = pdf["ts"].astype("datetime64[us]").astype(np.int64)
        prev = np.roll(us, 1)
        first = ~pdf["user_id"].duplicated().to_numpy()
        # rows are grouped after the sort, so the previous row is the
        # predecessor within the user except at each user's first row
        gap = us - prev
        g = pd.DataFrame({"user_id": pdf["user_id"], "gap": gap})[~first]
        grp = g.groupby("user_id", sort=False)["gap"]
        out = grp.agg(n_gaps="size", sum_gap="sum", max_gap_us="max")
        # one vectorized quantile C kernel across ALL groups, never a
        # per-group Python lambda
        out["p50_gap_us"] = grp.quantile(
            0.5, interpolation="lower"
        ).astype(np.int64)
        out = out.reset_index()
        out["avg_gap_us"] = out["sum_gap"].to_numpy(
            np.float64
        ) / out["n_gaps"].to_numpy(np.float64)
        return out[["user_id", "n_gaps", "avg_gap_us", "max_gap_us",
                    "p50_gap_us"]]

    return partitioned_groupby_map(ds, ["user_id"], agg)


def q_bigram_lm(sf_dir):
    """Bigram LM quality scoring (ops/text.bigram_lm_score, top-20 bigram
    + context tables): the contract checks the integer-exact backbone
    (n_bigrams, known_bigrams, bigram_count_sum, ctx_count_sum) +
    known_rate (one int/int division); the smoothed log score is
    unit-tested against a sequential reference (1-ulp log class)."""
    from recipys_ray.ops.text import bigram_lm_score

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = bigram_lm_score(ds, top_k=20)
    return _select(
        out,
        ["doc_id", "n_bigrams", "known_bigrams", "bigram_count_sum",
         "ctx_count_sum", "known_rate"],
    )


def q_first_last(sf_dir):
    """Per-user first and last event type in time order
    (ops/groupstats.grouped_first_last): per-block head/tail combiner,
    ONE summary-row exchange, associative min/max-order fold — exact row
    selection, hash-safe strings."""
    from recipys_ray.ops.groupstats import grouped_first_last

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = grouped_first_last(
        ds, ["user_id"], ["ts", "event_id"], "event_type",
    )
    return _select(out, ["user_id", "first_event_type", "last_event_type"])


def q_decayed_sum(sf_dir):
    """Horizon-4 exponentially-decayed mean of the nulled value column per
    user (ops/groupstats.decayed_sum, decay 0.5): the stated
    left-associated expression tree over exact binary weights — bit-equal
    to the SQL coalesce(lag...) chain; missing/null lags drop weight."""
    from recipys_ray.ops.groupstats import decayed_sum

    ds = _with_valn(_events(sf_dir))
    out = decayed_sum(
        ds, ["user_id"], ["ts", "event_id"], "valn",
        horizon=4, decay=0.5,
    )
    return _select(out, ["user_id", "ts", "event_id", "decayed"])


def q_cms_counts(sf_dir):
    """Count-min sketch per-user event-count estimates for users 0..49
    (ops/frequent.cms_counts, 4×512): mergeable int64 grid partials, hash
    rows via DuckDB-parity murmurhash64(v XOR j·stride) — integer-exact
    and layout-invariant, so the SQL oracle states the construction
    verbatim."""
    from recipys_ray.ops.frequent import cms_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    out = cms_counts(ds, "user_id", list(range(50)), width=512, depth=4)
    return out  # driver-bounded pandas DataFrame (user_id, est)


def q_time_split(sf_dir):
    """Leakage-free temporal train/test split at the exact
    quantile_disc(ts, 0.8) cutoff (ops/sampling.time_split): counting
    selection on the int64 epoch-us view, integer-exact comparison, one
    streaming stamp."""
    from recipys_ray.ops.sampling import time_split

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )
    return _select(time_split(ds, "ts", 0.8), ["event_id", "split"])


def q_target_encode(sf_dir):
    """Smoothed mean-target + frequency encoding of event_type against
    value (ops/encode.target_encode, m=20): one combiner pass fits the
    table, one broadcast stamp applies it. freq is bit-safe (exact-int
    division); te mirrors the SQL operation tree exactly."""
    from recipys_ray.ops.encode import target_encode

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    out = target_encode(ds, "event_type", "value", m=20.0)
    return _select(out, ["event_id", "te_event_type", "freq_event_type"])


def q_pca_embeddings(sf_dir):
    """Top-4 principal components of the embedding table (ops/pca.py):
    exact int64-quantized sufficient statistics (partitioning can't change
    a bit), driver eigh, fixed-order projection. Oracle: golden from the
    independent sequential implementation (scripts/gen_expected.py
    pca_expected) — bit-equal by the op's determinism contract."""
    from recipys_ray.ops.pca import pca_project

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = pca_project(ds, "embedding", k=4)
    return _select(out, ["vec_id", "pc0", "pc1", "pc2", "pc3"])


def q_pmi_bigrams(sf_dir):
    """Collocation extraction: PMI of the exact top-100 bigrams
    (ops/text.pmi_bigrams — vocab combiner + one broadcast-candidate
    unigram pass). All counts exact int64; PMI evaluated in the SQL
    oracle's operation order, one ln per row on identical doubles."""
    from recipys_ray.ops.text import pmi_bigrams

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return pmi_bigrams(ds, top_k=100)


def q_grouped_regr(sf_dir):
    """Per-event-type OLS regression of value (cents) on hour-of-day
    (ops/groupstats.grouped_regression — the grouped_corr sufficient-stat
    combiner, one partial-row exchange). Same determinism construction as
    grouped_corr: both inputs are INTEGER-valued (hour 0-23; value has two
    decimals so value*100 rounds to an exact int), every Σ is exact in
    float64, and the closed forms run on identical doubles in both
    engines — bit-exact."""
    from recipys_ray.ops.groupstats import grouped_regression

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def to_int(tbl: pa.Table) -> pa.Table:
        v100 = pc.round(pc.multiply(tbl.column("value"), 100.0))
        return pa.table({
            "event_type": tbl.column("event_type"),
            "hour": pc.cast(pc.hour(tbl.column("ts")), pa.int64()),
            "cents": pc.cast(v100, pa.int64()),
        })

    ints = ds.map_batches(to_int, batch_format="pyarrow")
    out = grouped_regression(ints, ["event_type"], "hour", "cents")
    return _select(out, ["event_type", "n", "slope", "intercept", "r2"])


def q_histogram_values(sf_dir):
    """Equal-width histogram of event values over [0, 500] × 50 buckets
    (ops/quantiles.histogram — per-block bincount combiner, one tiny
    exchange). Bucket ids and left edges are single IEEE double ops
    mirrored by the SQL oracle — bit-equal; counts exact int64."""
    from recipys_ray.ops.quantiles import histogram

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return _select(
        histogram(ds, "value", lo=0.0, hi=500.0, nbins=50),
        ["bucket", "lo_edge", "cnt"],
    )


def q_revenue_by_nation(sf_dir):
    """TPC-H-flavored multi-join rollup: lineitem ⨝ orders (co-partitioned
    shuffle — both sides unbounded) ⨝ customer ⨝ nation (broadcast — small
    sides ship once via ray.put), revenue pre-reduced per block before the
    exchange. Revenue is kept integer-exact: cents(price) × (100 − pct),
    summed as int64 (scaled ×10⁴) — no float summation anywhere, so the
    BIGINT SQL oracle matches bit-for-bit. int64 headroom: ≤1e9/row leaves
    ~9e6 rows per nation before overflow at this scale; larger runs shard
    the key first (same pattern as the salted kernels)."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map
    from recipys_ray.ops.join import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def rev(tbl: pa.Table) -> pa.Table:
        p100 = pc.cast(
            pc.round(pc.multiply(tbl.column("l_extendedprice"), 100.0)),
            pa.int64(),
        )
        d100 = pc.cast(
            pc.round(pc.multiply(tbl.column("l_discount"), 100.0)),
            pa.int64(),
        )
        return pa.table({
            "l_orderkey": tbl.column("l_orderkey"),
            "rev": pc.multiply(p100, pc.subtract(pa.scalar(100), d100)),
        })

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    j1 = hash_join(
        li.map_batches(rev, batch_format="pyarrow"),
        orders, on="l_orderkey", right_on="o_orderkey", strategy="shuffle",
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    j2 = hash_join(
        j1, cust, on="o_custkey", right_on="c_custkey",
        strategy="broadcast",
    )

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(["c_nationkey", "rev"]).to_pandas()
        agg = pdf.groupby("c_nationkey", sort=False)["rev"].sum()
        return pa.table({
            "c_nationkey": pa.array(agg.index.to_numpy(np.int64),
                                    pa.int64()),
            "revenue": pa.array(agg.to_numpy(np.int64), pa.int64()),
        })

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby("c_nationkey", sort=False)["revenue"].sum()
        out = out.reset_index()
        out["revenue"] = out["revenue"].astype(np.int64)
        return out

    agg = partitioned_groupby_map(
        j2.map_batches(partial, batch_format="pyarrow"),
        ["c_nationkey"], fold,
    )
    nation = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    out = hash_join(
        agg, nation, on="c_nationkey", right_on="n_nationkey",
        strategy="broadcast",
    )
    return _select(out, ["n_name", "revenue"])


def q_rfm_segments(sf_dir):
    """RFM user segmentation: per-user recency/frequency/monetary from one
    combiner pass + exchange, then three exact NTILE(4) stampings
    (ops/rank.add_ntile — each rides the global-rank machinery over the
    #users-row aggregate, pinned once). Monetary sums exact int cents
    (float64-exact, < 2^53); ntile order is (metric, user_id) in both
    engines, so every bucket boundary is deterministic."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map
    from recipys_ray.ops.rank import add_ntile

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def partial(tbl: pa.Table) -> pa.Table:
        v100 = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        pdf = pd.DataFrame({
            "user_id": tbl.column("user_id").to_numpy(zero_copy_only=False),
            "ts_us": pc.cast(
                tbl.column("ts"), pa.timestamp("us")
            ).cast(pa.int64()).to_numpy(zero_copy_only=False),
            "cents": v100.to_numpy(zero_copy_only=False),
        })
        agg = pdf.groupby("user_id", sort=False).agg(
            recency_us=("ts_us", "max"),
            frequency=("ts_us", "size"),
            monetary=("cents", "sum"),
        ).reset_index()
        return pa.table({
            "user_id": pa.array(agg["user_id"].to_numpy(np.int64)),
            "recency_us": pa.array(agg["recency_us"].to_numpy(np.int64)),
            "frequency": pa.array(agg["frequency"].to_numpy(np.int64)),
            "monetary": pa.array(
                agg["monetary"].to_numpy(np.float64), pa.float64()
            ),
        })

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby("user_id", sort=False).agg(
            recency_us=("recency_us", "max"),
            frequency=("frequency", "sum"),
            monetary=("monetary", "sum"),
        ).reset_index()
        out["frequency"] = out["frequency"].astype(np.int64)
        return out

    agg = partitioned_groupby_map(
        ds.map_batches(partial, batch_format="pyarrow"), ["user_id"], fold
    )
    out = add_ntile(agg, "recency_us", k=4, tie_cols=["user_id"],
                    bucket_col="r")
    out = add_ntile(out, "frequency", k=4, tie_cols=["user_id"],
                    bucket_col="f")
    out = add_ntile(out, "monetary", k=4, tie_cols=["user_id"],
                    bucket_col="m")
    return _select(
        out,
        ["user_id", "recency_us", "frequency", "monetary", "r", "f", "m"],
    )


def q_grouped_moments(sf_dir):
    """Per-event-type skewness + excess kurtosis from raw power sums
    (ops/groupstats.grouped_moments). Determinism: floor(value) is
    INTEGER-valued (floor is bit-exact in both engines, unlike round's
    half-case modes) with Σy⁴ < 2^53, so all sums are exact and the
    finish replicates DuckDB's skewness/kurtosis operation trees
    bit-for-bit."""
    from recipys_ray.ops.groupstats import grouped_moments

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def to_int(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": tbl.column("event_type"),
            "y": pc.cast(pc.floor(tbl.column("value")), pa.int64()),
        })

    ints = ds.map_batches(to_int, batch_format="pyarrow")
    out = grouped_moments(ints, ["event_type"], "y")
    return _select(out, ["event_type", "n", "skew", "kurt"])


def q_psi_value_drift(sf_dir):
    """Population Stability Index of event values between even and odd
    event ids (ops/drift.population_stability — two histogram combiner
    passes, ≤ nbins driver rows). Exact int counts make the probability
    divisions identical; ln is the 1-ulp libm class (grouped_entropy
    precedent)."""
    from recipys_ray.ops.drift import population_stability

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def even(tbl: pa.Table) -> pa.Table:
        return tbl.filter(
            pc.equal(pc.bit_wise_and(tbl.column("event_id"), 1), 0)
        )

    def odd(tbl: pa.Table) -> pa.Table:
        return tbl.filter(
            pc.equal(pc.bit_wise_and(tbl.column("event_id"), 1), 1)
        )

    return population_stability(
        ds.map_batches(even, batch_format="pyarrow"),
        ds.map_batches(odd, batch_format="pyarrow"),
        "value", lo=0.0, hi=500.0, nbins=25,
    )


def q_segment_psi(sf_dir):
    """Per-source PSI terms of document length vs the corpus baseline
    (ops/drift.segment_psi, 20 buckets over [0, 600]): one streaming
    bincount pass keyed by (source, bucket), driver fold. Exact int
    counts → identical divisions; ln is the 1-ulp libm class."""
    from recipys_ray.ops.drift import segment_psi

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return segment_psi(ds, "source", "n_chars", lo=0.0, hi=600.0,
                       nbins=20)


def q_ks_quantity_flag(sf_dir):
    """Exact two-sample KS distance between the quantity distributions of
    return flags A and R (ops/drift.ks_statistic — one skinny value-count
    fold per side, exact cumulative merge). All counts int64-exact, so
    the CDF-difference multiset is bit-identical and its max is
    order-free."""
    from recipys_ray.ops.drift import ks_statistic

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"]
    )

    def flag(v):
        def f(tbl: pa.Table) -> pa.Table:
            return tbl.filter(pc.equal(tbl.column("l_returnflag"), v))
        return f

    return ks_statistic(
        li.map_batches(flag("A"), batch_format="pyarrow"),
        li.map_batches(flag("R"), batch_format="pyarrow"),
        "l_quantity",
    )


def q_quantile_cont(sf_dir):
    """Global SQL percentile_cont WITHOUT a sort (ops/quantiles.py
    exact_quantiles_cont): both bracketing order statistics per q from
    one shared iterative counting selection, driver-side lerp mirroring
    DuckDB's weighted form. bins/cap forced small so the refinement
    actually iterates."""
    from recipys_ray.ops.quantiles import exact_quantiles_cont

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity"]
    )
    return exact_quantiles_cont(
        ds, "l_quantity", qs=[0.1, 0.25, 0.5, 0.9],
        bins=16, driver_cap=2000,
    )


def q_dedup_against(sf_dir):
    """Incremental exact dedup of the 'new' document shard (doc_id % 3
    ≠ 0) against the 'reference' shard (ops/dedup.dedup_against): Bloom
    over reference content hashes broadcast once, bloom-negative rows
    pass untouched, the suspect sliver resolves by exact TEXT match in a
    hash-co-partitioned Arrow-side anti-join."""
    from recipys_ray.ops.dedup import dedup_against

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def shard(rem: int):
        def fn(tbl: pa.Table) -> pa.Table:
            ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
            return tbl.filter(pa.array(ids % 3 == rem if rem == 0
                                       else ids % 3 != 0))

        return fn

    ref = ds.map_batches(shard(0), batch_format="pyarrow")
    new = ds.map_batches(shard(1), batch_format="pyarrow")
    return _select(dedup_against(new, ref), ["doc_id", "text"])


def q_dedup_jaro_winkler(sf_dir):
    """Prefix-blocked Jaro-Winkler dedup of part names (ops/editdist.py
    dedup_jaro_winkler): bit-parallel pair kernel with BIT-parity to
    DuckDB's jaro_winkler_similarity (fuzz-verified), distinct-string
    collapse, survivor = no smaller-id same-block row at ≥ 0.9 — the SQL
    NOT EXISTS stated verbatim by the oracle."""
    from recipys_ray.ops.editdist import dedup_jaro_winkler

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    out = dedup_jaro_winkler(
        ds, id_col="p_partkey", text_col="p_name",
        threshold=0.9, block_chars=4,
    )
    return _select(out, ["p_partkey", "p_name"])


def q_dedup_sorted_neighborhood(sf_dir):
    """Sorted-neighborhood dedup of part names (ops/editdist.py
    sorted_neighborhood_dedup, window 8, JW ≥ 0.9): one global (name, id)
    sort split into sampled ranges with driver-folded boundary carries —
    ONE payload shuffle, O(n·window) comparisons, no quadratic blocks.
    Oracle: row_number() + NOT EXISTS over the rank window, verbatim."""
    from recipys_ray.ops.editdist import sorted_neighborhood_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    out = sorted_neighborhood_dedup(
        ds, id_col="p_partkey", text_col="p_name",
        window=8, threshold=0.9,
    )
    return _select(out, ["p_partkey", "p_name"])


def q_dedup_levenshtein(sf_dir):
    """Prefix-blocked Levenshtein dedup of part names (ops/editdist.py):
    distinct-string collapse kills the O(rows²) hot-block blowup, banded
    DP (byte-parity with DuckDB levenshtein()) scores O(distinct²) pairs,
    survivor = no smaller-id row within distance 2 in the block — the SQL
    NOT EXISTS the oracle states verbatim."""
    from recipys_ray.ops.editdist import dedup_levenshtein

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    out = dedup_levenshtein(
        ds, id_col="p_partkey", text_col="p_name",
        max_dist=2, block_chars=4,
    )
    return _select(out, ["p_partkey", "p_name"])


def q_connected_components(sf_dir):
    """Distributed connected components (ops/dedup.py
    connected_components_distributed — the same min-label propagation
    that powers the near-dup families, exposed standalone for entity
    resolution / dedup-cluster assignment). Graph: the order↔part
    bipartite subgraph restricted to quantity-1 lines (a sparse,
    documented bound — ~2% of lineitem — so the recursive-CTE oracle
    stays cheap); part nodes are offset into a disjoint id space.
    Below the driver cap the edge set folds via union-find (edges only,
    never a corpus); above it each propagation round is two small
    shuffles over the EDGE set, rounds = component diameter (≤12-node
    components here; distributed path unit-tested equal in
    tests/test_ops.py). Duplicate edges are harmless to min-label, so
    dedup is per-block only — no global distinct exchange."""
    from recipys_ray.ops.dedup import connected_components

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_quantity"],
    )

    def edges(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(pc.equal(tbl.column("l_quantity"), 1.0))
        out = pa.table(
            {
                "a": t.column("l_orderkey"),
                "b": pc.add(t.column("l_partkey"), 2_000_000_000),
            }
        )
        return out.group_by(["a", "b"]).aggregate([])

    # multi-pass consumer → pin the derived edge set once (the
    # materialize-pin policy; each propagation round re-reads it)
    pairs = ds.map_batches(edges, batch_format="pyarrow").materialize()
    return connected_components(pairs)


def q_impute_linear(sf_dir):
    """Per-group time-weighted linear interpolation
    (StepImputeFill(strategy='linear'), an engine extension of the
    reference's fill family): nulls take
    pv + (nv-pv)·(Δt/span) between the surrounding non-null values in
    (ts, event_id) order; leading/trailing nulls stay null; a zero span
    is NULL (SQL x/0.0). Bit-equal to the windowed IGNORE NULLS SQL —
    exact int64 µs deltas, one stated float expression tree."""
    rec = _recipe(_with_valn(_events(sf_dir)))
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), strategy="linear"))
    return _select(rec.prep(), ["event_id", "valn"])


def q_asof_next_purchase(sf_dir):
    """Forward as-of join (ops/asof.py direction='forward'): each event
    gets the user's NEXT (or simultaneous) purchase value — the look-ahead
    twin of asof_purchase (label generation: 'next conversion after this
    turn'). Ties on (user_id, ts) break by min event_id on the right,
    mirrored by the oracle's QUALIFY row_number."""
    from recipys_ray.ops.asof import asof_join

    left = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    ev = _events(
        sf_dir, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def purchases(tbl: pa.Table) -> pa.Table:
        mask = pc.equal(tbl.column("event_type"), "purchase")
        sub = tbl.filter(mask)
        return pa.table(
            {
                "user_id": sub.column("user_id"),
                "ts": sub.column("ts"),
                "event_id": sub.column("event_id"),
                "next_purch_value": sub.column("value"),
            }
        )

    right = ev.map_batches(purchases, batch_format="pyarrow")
    out = asof_join(
        left, right, on="ts", by="user_id", direction="forward",
        right_dedup_cols=["event_id"],
    )

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "next_purch_value": tbl.column("next_purch_value"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_left_join_customer_orders(sf_dir):
    """LEFT OUTER equi-join (ops/join.py shuffle plan): customer × orders,
    keeping customers with no orders — the null-padded right columns must
    stay int64/float64 per the planned Arrow schema (never pandas'
    float64-promoted ints; the round-3 dtype-poisoning class, asserted
    here as a positive driver check)."""
    from recipys_ray.ops.join import hash_join

    customer = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    out = hash_join(
        customer, orders, on="c_custkey", right_on="o_custkey",
        how="left", strategy="shuffle",
    )
    return _select(
        out, ["c_custkey", "c_acctbal", "o_orderkey", "o_totalprice"]
    )


def q_outer_join_counts(sf_dir):
    """FULL OUTER join (ops/join.py, shuffle plan only — a broadcast
    would duplicate unmatched right rows per batch): per-custkey order
    counts × per-user event counts. Both sides are tiny pre-aggregates
    (combiner counts folded through the house hash exchange — Ray's
    native groupby().sum() is a full SORT shuffle and cost 4× the wall
    here), unmatched keys on EACH side survive with int64 nulls
    preserved by the planned Arrow schema."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map
    from recipys_ray.ops.join import hash_join

    def counts(path, key, ncol, rename_to):
        ds = rd.read_parquet(path, columns=[key])

        def partial(tbl: pa.Table) -> pa.Table:
            agg = tbl.group_by([key]).aggregate([([], "count_all")])
            return pa.table({
                rename_to: agg.column(key),
                ncol: agg.column("count_all").cast(pa.int64()),
            })

        def fold(pdf: pd.DataFrame) -> pd.DataFrame:
            out = (
                pdf.groupby(rename_to, sort=False)[ncol]
                .sum()
                .reset_index()
            )
            out[ncol] = out[ncol].astype(np.int64)
            return out

        return partitioned_groupby_map(
            ds.map_batches(partial, batch_format="pyarrow"),
            [rename_to], fold,
        )

    # pin the tiny aggregates: the outer join's schema probe would
    # otherwise re-execute each count pipeline (the materialize-pin
    # lesson, ROUND5_NOTES.md)
    oc = counts(f"{sf_dir}/orders.parquet", "o_custkey", "n_orders",
                "ckey").materialize()
    ec = counts(f"{sf_dir}/events.parquet", "user_id", "n_events",
                "ukey").materialize()
    out = hash_join(oc, ec, on="ckey", right_on="ukey", how="outer")
    return _select(out, ["ckey", "n_orders", "n_events"])


def q_k_anonymity(sf_dir):
    """k-anonymity suppression (ops/privacy.py, k=5) over the QI
    (event_type, floor(value/10)): one partial-count combiner pass (only
    distinct QI partials move), qualifying keys broadcast once, then a
    zero-shuffle per-batch hash-join filter. floor(value/10) is a single
    IEEE divide + floor in both engines — bit-equal bucketing."""
    from recipys_ray.ops.privacy import k_anonymize

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def bucket(tbl: pa.Table) -> pa.Table:
        vb = pc.cast(
            pc.floor(pc.divide(tbl.column("value"), 10.0)), pa.int64()
        )
        return tbl.append_column("vb", vb)

    out = k_anonymize(
        ds.map_batches(bucket, batch_format="pyarrow"),
        ["event_type", "vb"],
        k=5,
    )
    return _select(out, ["event_id", "event_type", "vb"])


def q_l_diversity(sf_dir):
    """Distinct l-diversity suppression (ops/privacy.py, l=4, sensitive =
    user_id) over the same QI as k_anonymity: the exact pair combiner from
    distinct_per_group feeds the qualifying set, then one broadcast
    zero-shuffle filter."""
    from recipys_ray.ops.privacy import l_diversify

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value"],
    )

    def bucket(tbl: pa.Table) -> pa.Table:
        vb = pc.cast(
            pc.floor(pc.divide(tbl.column("value"), 10.0)), pa.int64()
        )
        return tbl.append_column("vb", vb)

    out = l_diversify(
        ds.map_batches(bucket, batch_format="pyarrow"),
        ["event_type", "vb"],
        "user_id",
        l=4,
    )
    return _select(out, ["event_id", "event_type", "vb"])


def q_mix_temperature(sf_dir):
    """Temperature (alpha=0.5) source rebalancing of documents
    (ops/sampling.mix_temperature): per-source targets are pure integer
    arithmetic over floor(sqrt(n_i)) weights — restated verbatim in the
    SQL — and row selection is the coordinated smallest-hash rule
    (murmur ≡ DuckDB hash())."""
    from recipys_ray.ops.sampling import mix_temperature

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = mix_temperature(ds, "source", "doc_id", alpha=0.5)
    return _select(out, ["source", "doc_id", "rank"])


def q_feature_bake(sf_dir):
    """The flagship composition, driver-oracled end to end: scale (global
    fit, duckdb-parity stats) → forward-fill → expanding mean
    (duckdb-parity windowed avg) → lag(1) → sessionize, all over ONE
    grouped shuffle + one fit pass + one skinny offsets pass. Every stage
    interaction (fill feeding the window, scaled values feeding the lag)
    is stated in a single SQL CTE chain — the strongest evidence that the
    recipe DAG composes correctly, not just that each step passes alone."""
    from recipys_ray.kernels.duckdb_parity import compute_duckdb_offsets

    ds = _with_valn(_events(sf_dir))
    offs = compute_duckdb_offsets(ds, "user_id")
    rec = _recipe(ds)
    rec.add_step(
        rr.StepScale(sel=all_of(["valn"]), duckdb_parity_stats=True)
    )
    rec.add_step(rr.StepImputeFill(sel=all_of(["valn"]), strategy="forward"))
    st = rr.StepHistorical(
        sel=all_of(["valn"]), fun=Accumulator.MEAN, duckdb_parity=True
    )
    st.set_parity_offsets(offs)
    rec.add_step(st)
    rec.add_step(rr.StepLag(sel=all_of(["valn"]), shifts=[1]))
    rec.add_step(rr.StepSessionize(gap="30m"))
    return _select(
        rec.prep(),
        ["event_id", "valn", "valn_mean", "valn_lag1", "session_id"],
    )


def q_gopher_filter(sf_dir):
    """Gopher quality-rule document filter (ops/text.py
    gopher_quality_filter, Rae 2021 §A1.1 integer subset): word-count
    bounds, mean-word-length and alphabetic-fraction by integer
    cross-multiplication, stopword floor — rules restated verbatim in the
    SQL; tokenization is the shared RE2 word kernel."""
    from recipys_ray.ops.text import gopher_quality_filter

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = gopher_quality_filter(
        ds, min_words=25, max_words=100_000, min_mwl=4, max_mwl=10,
    )
    return _select(
        out,
        ["doc_id", "n_words", "word_chars", "alpha_words", "stop_words"],
    )


def q_grouped_zscore(sf_dir):
    """Per-user standardization of the cents-exact value column
    (ops/groupstats.grouped_zscore): sufficient-stats combiner →
    broadcast stamp, zero payload shuffle. Integer input ⇒ exact Σ/Σ² ⇒
    the stated tree (x−s/n)/sqrt((s2−s·s/n)/n) is bit-equal in both
    engines."""
    from recipys_ray.ops.groupstats import grouped_zscore

    ds = _events(sf_dir)

    def to_cents(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "cents": cents,
            }
        )

    out = grouped_zscore(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        ["user_id"], "cents", out_col="val_z",
    )
    return _select(out, ["event_id", "user_id", "val_z"])


def q_kbins_quantile(sf_dir):
    """Equal-frequency 4-bin discretization with EXACT quantile_disc
    edges (ops/quantiles.kbins_quantile_exact): two skinny counting
    passes fit the edges, one searchsorted stamp bins every row —
    bin = #{edges ≤ x}, no float arithmetic, NULL-preserving."""
    from recipys_ray.ops.quantiles import kbins_quantile_exact

    ds = _with_valn(_events(sf_dir)).select_columns(["event_id", "valn"])
    out = kbins_quantile_exact(ds, "valn", n_bins=4, out_col="bin")
    return _select(out, ["event_id", "bin"])


def q_chunk_sentences(sf_dir):
    """Sentence-boundary chunking (ops/chunking.chunk_sentences): one RE2
    split kernel per batch, flat-map, no shuffle; split semantics
    verified identical to SQL string_split_regex (incl. trailing-empty
    segments, filtered on both sides)."""
    from recipys_ray.ops.chunking import chunk_sentences

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = chunk_sentences(ds)
    return _select(out, ["doc_id", "sent_idx", "sentence", "n_chars"])


def q_grouped_percent_rank(sf_dir):
    """Per-user PERCENT_RANK of the cents-exact value (ONE skinny
    exchange on user_id; pandas C rank kernel across all groups):
    (rank−1)/(n−1) over exact ints — one IEEE division, bit-equal to
    the SQL window. Ties share the min rank (SQL rank())."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    ds = _events(sf_dir)

    def to_cents(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "cents": cents,
            }
        )

    ints = ds.map_batches(to_cents, batch_format="pyarrow")

    def rank_in_group(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby("user_id", sort=False)["cents"]
        r = g.rank(method="min").to_numpy(np.float64)
        n = g.transform("size").to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            pr = (r - 1.0) / (n - 1.0)
        pr[n == 1.0] = 0.0  # SQL percent_rank of a single row is 0
        out = pdf[["event_id", "user_id"]].copy()
        out["pct_rank"] = pr
        return out

    return partitioned_groupby_map(ints, ["user_id"], rank_in_group)


def q_top_spenders(sf_dir):
    """Exact top-10 users by total cents (per-block combiner partial sums
    → tiny groupby sum → driver top-k with user_id tie-break): integer
    totals, deterministic order columns only."""
    ds = _events(sf_dir)

    def partial(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        t = pa.table(
            {"user_id": tbl.column("user_id"), "cents": cents}
        )
        return t.group_by(["user_id"]).aggregate([("cents", "sum")])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .sum("cents_sum")
        .to_pandas()
    )
    agg = agg.rename(columns={"sum(cents_sum)": "total_cents"})
    agg["total_cents"] = agg["total_cents"].astype(np.int64)
    top = agg.sort_values(
        ["total_cents", "user_id"], ascending=[False, True]
    ).head(10)
    return pa.Table.from_pandas(
        top[["user_id", "total_cents"]], preserve_index=False
    )


def q_lexical_diversity(sf_dir):
    """Per-doc type-token ratio (distinct words / words — the classic
    lexical-diversity quality signal): integer counts from the shared RE2
    word kernel + one hash-dedup per batch, one IEEE division. NULL for
    word-less docs (SQL x/0 → NULL ≡ 0/0 NaN here is avoided by the
    explicit CASE)."""
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def score(tbl: pa.Table) -> pa.Table:
        from recipys_ray.ops.text import word_stream

        words, counts = word_stream(tbl.column("text"))
        n = counts.astype(np.int64)
        # distinct words per doc: one vectorized drop_duplicates over the
        # flat (doc_pos, word) stream
        doc_pos = np.repeat(np.arange(len(n), dtype=np.int64), n)
        pdf = pd.DataFrame(
            {"d": doc_pos, "w": words.to_numpy(zero_copy_only=False)}
        )
        dd = pdf.drop_duplicates()
        u = np.zeros(len(n), dtype=np.int64)
        vc = dd.groupby("d", sort=False).size()
        u[vc.index.to_numpy()] = vc.to_numpy()
        with np.errstate(invalid="ignore", divide="ignore"):
            ttr = u.astype(np.float64) / n.astype(np.float64)
        ttr[n == 0] = np.nan
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "n_words": pa.array(n, pa.int64()),
                "n_distinct_words": pa.array(u, pa.int64()),
                "ttr": pa.array(ttr, pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def q_hash_sample(sf_dir):
    """Deterministic 30% corpus sample by murmurhash64(doc_id)
    (ops/sampling.hash_sample ≡ the SQL hash() predicate with the integer
    threshold inlined) — stateless, order/partition invariant."""
    from recipys_ray.ops.sampling import hash_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return _select(hash_sample(ds, "doc_id", 0.3), ["doc_id", "source"])


def q_calendar_features(sf_dir):
    """Per-row calendar decomposition (ops/calendar.py): ONE stateless
    map_batches of Arrow temporal kernels, no shuffle, no fit — streams at
    read bandwidth at any scale. dow pinned to the SQL Sunday=0
    convention, week to ISO; all int64 (exact)."""
    from recipys_ray.ops.calendar import calendar_features

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )
    out = calendar_features(ds, "ts")
    return _select(
        out,
        ["event_id", "year", "month", "day", "week", "hour", "dow",
         "is_weekend"],
    )


# --------------------------------------------------------------------- #
# oracle SQL (DuckDB) — names match the Ray outputs 1:1
# --------------------------------------------------------------------- #
def q_ohlc_bars(sf_dir):
    """Hourly OHLC bars per user (ops/timeseries.ohlc_bars): open/high/
    low/close of value + event count per (user_id, hour bucket). Every
    output is a SELECTION (exact row picks) or an integer — no float
    arithmetic, hash-identical by construction. Bucket = int64 epoch-us
    floor-div 3.6e9, mirroring SQL `epoch_us(ts) // 3600000000`."""
    from recipys_ray.ops.timeseries import ohlc_bars

    ds = _events(sf_dir)

    def bucketize(tbl: pa.Table) -> pa.Table:
        s = pc.cast(tbl.column("ts"), pa.int64()).to_numpy()
        bucket = s // 3_600_000_000
        return tbl.append_column("bucket", pa.array(bucket, pa.int64()))

    out = ohlc_bars(
        ds.map_batches(bucketize, batch_format="pyarrow"),
        ["user_id", "bucket"],
        ["ts", "event_id"],
        "value",
    )
    return _select(
        out, ["user_id", "bucket", "open", "high", "low", "close",
              "n_events"]
    )


def q_autocorr(sf_dir):
    """Per-user lag-1 autocorrelation of value (ops/timeseries.
    grouped_autocorr). Bit-exact by the grouped_corr contract: the input
    is value×100 rounded to int64, so every Σ is exact in float64 and the
    stated closed form runs on identical doubles in both engines. Groups
    with <2 pairs drop; zero variance → NULL (SQL x/0.0)."""
    from recipys_ray.ops.timeseries import grouped_autocorr

    ds = _events(sf_dir)

    def to_int(tbl: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(pc.multiply(tbl.column("value"), 100.0)),
                    pa.int64())
        return pa.table({
            "user_id": tbl.column("user_id"),
            "ts": tbl.column("ts"),
            "event_id": tbl.column("event_id"),
            "x": x,
        })

    out = grouped_autocorr(
        ds.map_batches(to_int, batch_format="pyarrow"),
        ["user_id"], ["ts", "event_id"], "x", lag=1,
    )
    return _select(out, ["user_id", "n_pairs", "autocorr"])


def q_weighted_stats(sf_dir):
    """Quantity-weighted discount statistics per returnflag
    (ops/groupstats.grouped_weighted_stats): Σw exact int64, wmean/wvar
    from the stated closed form over exact integer sums (w ≤ 50,
    x = disc×100 ≤ 10 → Σwx² far below 2^53) — bit-equal both engines."""
    from recipys_ray.ops.groupstats import grouped_weighted_stats

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )

    def to_int(tbl: pa.Table) -> pa.Table:
        d100 = pc.cast(pc.round(pc.multiply(tbl.column("l_discount"),
                                            100.0)), pa.int64())
        return pa.table({
            "l_returnflag": tbl.column("l_returnflag"),
            "x": d100,
            "w": pc.cast(tbl.column("l_quantity"), pa.int64()),
        })

    out = grouped_weighted_stats(
        ds.map_batches(to_int, batch_format="pyarrow"),
        ["l_returnflag"], "x", "w",
    )
    return _select(out, ["l_returnflag", "sum_w", "wmean", "wvar"])


def q_except_events(sf_dir):
    """SQL EXCEPT via ops/setops.except_distinct: distinct
    (user_id, event_type) pairs seen on odd event_ids only. Set
    semantics (duplicates collapse, NULL=NULL); exact string/int rows —
    hash-safe by construction."""
    from recipys_ray.ops.setops import except_distinct

    cols = ["user_id", "event_type"]
    all_pairs = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=cols + ["event_id"]
    )

    def sampled(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(eid % 20 == 0)).select(cols)

    left = all_pairs.map_batches(
        lambda t: t.select(cols), batch_format="pyarrow"
    )
    right = all_pairs.map_batches(sampled, batch_format="pyarrow")
    return except_distinct(left, right, cols)


def q_intersect_segments(sf_dir):
    """SQL INTERSECT via ops/setops.intersect_distinct: (nation, market
    segment) pairs that have BOTH a high-balance and a low-balance
    customer."""
    from recipys_ray.ops.setops import intersect_distinct

    cols = ["c_nationkey", "c_mktsegment"]
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=cols + ["c_acctbal"]
    )

    def bal(lo, hi):
        def f(tbl: pa.Table) -> pa.Table:
            b = tbl.column("c_acctbal").to_numpy(zero_copy_only=False)
            return tbl.filter(pa.array((b > lo) & (b < hi))).select(cols)

        return f

    left = cust.map_batches(bal(5000.0, np.inf), batch_format="pyarrow")
    right = cust.map_batches(bal(-np.inf, 1000.0), batch_format="pyarrow")
    return intersect_distinct(left, right, cols)


def q_table_diff(sf_dir):
    """Snapshot diff via ops/setops.table_diff: 'old' = orders minus
    keys ≡3 (mod 7); 'new' = orders minus keys ≡5 (mod 11) with
    totalprice doubled on keys ≡0 (mod 10). Output: key + status
    (added/removed/changed), 'same' rows dropped. Doubling is exact
    (×2), so the changed-comparison is bit-identical both engines."""
    from recipys_ray.ops.setops import table_diff

    cols = ["o_orderkey", "o_totalprice", "o_orderstatus"]
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)

    def mk_old(tbl: pa.Table) -> pa.Table:
        k = tbl.column("o_orderkey").to_numpy()
        return tbl.filter(pa.array(k % 7 != 3))

    def mk_new(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(
            pa.array(tbl.column("o_orderkey").to_numpy() % 11 != 5)
        )
        k = t.column("o_orderkey").to_numpy()
        p = t.column("o_totalprice").to_numpy()
        p2 = np.where(k % 10 == 0, p * 2.0, p)
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "o_totalprice": pa.array(p2, pa.float64()),
            "o_orderstatus": t.column("o_orderstatus"),
        })

    old = orders.map_batches(mk_old, batch_format="pyarrow")
    new = orders.map_batches(mk_new, batch_format="pyarrow")
    out = table_diff(
        old, new, ["o_orderkey"], ["o_totalprice", "o_orderstatus"]
    )
    return _select(out, ["o_orderkey", "status"])


def q_chi_square(sf_dir):
    """Chi-square independence cells for event_type × (user_id mod 5)
    (ops/drift.chi_square): per-cell observed/expected/contribution.
    Bit-exact: all counts exact int64, expected = CAST(rt·ct AS
    DOUBLE)/n is one division on identical doubles, contribution is the
    stated ((obs−exp)·(obs−exp))/exp tree."""
    from recipys_ray.ops.drift import chi_square

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def bucketize(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": tbl.column("event_type"),
            "ub": pa.array(u % 5, pa.int64()),
        })

    out = chi_square(
        ds.map_batches(bucketize, batch_format="pyarrow"),
        "event_type", "ub",
    )
    return out[["event_type", "ub", "observed", "expected",
                "contribution"]]


def q_cooccurrence(sf_dir):
    """Market-basket co-occurrence of event types within a user
    (ops/groupstats.cooccurrence_counts): for each unordered type pair,
    how many users exhibit both. Exact integers end-to-end."""
    from recipys_ray.ops.groupstats import cooccurrence_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return cooccurrence_counts(ds, "user_id", "event_type")


def q_user_features(sf_dir):
    """Composed per-user behavioral feature vector — trend (theil_sen),
    burstiness (burst_counts), risk (max_drawdown) and engagement
    (longest_streak) — demonstrating op composability: ONE pinned
    read+prep feeds all four ops, the tiny per-user outputs are pinned
    and broadcast-joined. Every feature is the already-oracled exact
    kernel; the SQL oracle is the four CTEs inner-joined."""
    from recipys_ray.ops.groupstats import theil_sen
    from recipys_ray.ops.join import hash_join
    from recipys_ray.ops.timeseries import (
        burst_counts, longest_streak, max_drawdown,
    )

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])

    def prep(tbl: pa.Table) -> pa.Table:
        # the oracle's CTE i filters value IS NOT NULL once for ALL
        # four features — mirror that here, not per-op
        tbl = tbl.filter(pc.is_valid(tbl.column("value")))
        ts = pc.cast(tbl.column("ts"), pa.int64())
        return pa.table({
            "user_id": tbl.column("user_id"),
            "event_id": tbl.column("event_id"),
            "ts": tbl.column("ts"),
            "day": pc.divide(ts, 86_400_000_000),
            "cents": pc.cast(
                pc.round(pc.multiply(tbl.column("value"), 100.0)),
                pa.int64(),
            ),
        })

    # one read+prep pinned; four ops consume it (multi-pass policy)
    base = ds.map_batches(prep, batch_format="pyarrow").materialize()
    trend = theil_sen(base, ["user_id"], "day", "cents",
                      pre_sum=True).materialize()
    bursts = burst_counts(base, ["user_id"], ["ts", "event_id"],
                          "cents", window=5, k=3).materialize()
    dd = max_drawdown(base, ["user_id"], "ts", "cents").materialize()
    streak = longest_streak(base, ["user_id"], "day").materialize()
    out = hash_join(
        hash_join(hash_join(trend, bursts, on="user_id"), dd,
                  on="user_id"),
        streak, on="user_id",
    )
    return _select(out, ["user_id", "theil_sen", "n_pairs", "n_bursts",
                         "max_dd", "streak"])


def q_burst_counts(sf_dir):
    """Per-user count of spend bursts — rows whose cents exceed 3× the
    mean of the strictly-prior 5 values (ops/timeseries.burst_counts):
    the test is integer CROSS-MULTIPLIED (v·cnt > k·sum — no division,
    no float), so counts are exact and leakage-free by construction."""
    from recipys_ray.ops.timeseries import burst_counts

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])

    def cents(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": tbl.column("user_id"),
            "event_id": tbl.column("event_id"),
            "ts": tbl.column("ts"),
            "cents": pc.cast(
                pc.round(pc.multiply(tbl.column("value"), 100.0)),
                pa.int64(),
            ),
        })

    out = burst_counts(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["user_id"], ["ts", "event_id"], "cents", window=5, k=3,
    )
    return _select(out, ["user_id", "n_bursts"])


def q_oversample(sf_dir):
    """Exact minority oversampling to the largest event class
    (ops/sampling.oversample_minority — step_upsample analog): every
    class ends at exactly max(n_c) rows, extra copies going to the
    lowest (hash,id) rows; the remainder cutoff is the usual hash-domain
    counting selection, NO payload shuffle. copy_idx mirrors the
    oracle's generate_series."""
    from recipys_ray.ops.sampling import oversample_minority

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )
    out = oversample_minority(ds, "event_type", "event_id")
    return _select(out, ["event_id", "event_type", "copy_idx"])


def q_collapse_rare(sf_dir):
    """step_other analog (ops/encode.collapse_rare_categories) over the
    zipf-distributed leading word of each document: categories with
    corpus count < 5 collapse to __other__, nulls stay null. One
    combiner pass + broadcast keep-set + zero-shuffle Arrow is_in stamp;
    exact integers, RE2 extraction ≡ the oracle's regexp_extract."""
    from recipys_ray.ops.encode import collapse_rare_categories

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def first_word(tbl: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(tbl.column("text"), ""))
        m = pc.extract_regex(low, pattern=r"(?P<w>\w+)")
        return pa.table({
            "doc_id": tbl.column("doc_id"),
            "cat": pc.struct_field(m, "w"),
        })

    out = collapse_rare_categories(
        ds.map_batches(first_word, batch_format="pyarrow"),
        "cat", min_count=5,
    )
    return _select(out, ["doc_id", "cat", "cat_collapsed"])


def q_last_value_pct(sf_dir):
    """Percentile of each user's most recent spend against their own
    history (ops/groupstats.last_value_percentile) — the feature-store
    "current vs history" signal. Exact ints + one division, bit-equal
    to the last_value() window oracle."""
    from recipys_ray.ops.groupstats import last_value_percentile

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])

    def cents(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": tbl.column("user_id"),
            "event_id": tbl.column("event_id"),
            "ts": tbl.column("ts"),
            "cents": pc.cast(
                pc.round(pc.multiply(tbl.column("value"), 100.0)),
                pa.int64(),
            ),
        })

    out = last_value_percentile(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["user_id"], ["ts", "event_id"], "cents",
    )
    return _select(out, ["user_id", "v_last", "n", "pct"])


def q_spearman(sf_dir):
    """Per-user Spearman rank correlation of spend-cents vs time
    (ops/groupstats.grouped_spearman) — monotone-association strength,
    the robust counterpart to grouped_corr. Doubled average ranks are
    exact integers, so the closed form is bit-equal to the SQL
    rank-window oracle."""
    from recipys_ray.ops.groupstats import grouped_spearman

    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def ints(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": tbl.column("user_id"),
            "t": pc.cast(tbl.column("ts"), pa.int64()),
            "cents": pc.cast(
                pc.round(pc.multiply(tbl.column("value"), 100.0)),
                pa.int64(),
            ),
        })

    out = grouped_spearman(
        ds.map_batches(ints, batch_format="pyarrow"),
        ["user_id"], "t", "cents",
    )
    return _select(out, ["user_id", "spearman", "n"])


def q_transition_latency(sf_dir):
    """Response-latency stats per event-type transition
    (ops/groupstats.transition_latency — the role-pair response-time
    feature): one skinny exchange on user, vectorized lag, tiny pair
    fold. Gaps are exact int64 micros; mean is one double division —
    bit-equal to the SQL lead() oracle."""
    from recipys_ray.ops.groupstats import transition_latency

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts",
                                  "event_type"])
    out = transition_latency(
        ds, ["user_id"], ["ts", "event_id"], "event_type", "ts",
    )
    return _select(out, ["from_state", "to_state", "n", "total_gap_us",
                         "mean_gap_us", "max_gap_us"])


def q_max_drawdown(sf_dir):
    """Per-user maximum drawdown of the spend-cents series ordered by
    time (ops/timeseries.max_drawdown): RANGE-framed running peak so
    timestamp ties are order-free; exact integers end-to-end."""
    from recipys_ray.ops.timeseries import max_drawdown

    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def cents(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": tbl.column("user_id"),
            "ts": tbl.column("ts"),
            "cents": pc.cast(
                pc.round(pc.multiply(tbl.column("value"), 100.0)),
                pa.int64(),
            ),
        })

    out = max_drawdown(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["user_id"], "ts", "cents",
    )
    return _select(out, ["user_id", "max_dd"])


def q_rate_ci(sf_dir):
    """Wilson 95% confidence interval of the high-value rate
    (value > 100) per event type (ops/groupstats.grouped_rate_ci):
    exact-int (k, n) combiner; the interval formula — including the
    correctly-rounded IEEE sqrt — is mirrored term-for-term by the SQL
    oracle, so lo/hi are bit-equal. The z literal is CAST to DOUBLE in
    SQL because DuckDB parses bare decimal literals as DECIMAL."""
    from recipys_ray.ops.groupstats import grouped_rate_ci

    ds = _events(sf_dir, columns=["event_type", "value"])

    def flag(tbl: pa.Table) -> pa.Table:
        v = tbl.column("value")
        keep = pc.is_valid(v)
        f = pc.cast(pc.greater(v, 100.0), pa.int64())
        return pa.table({
            "event_type": tbl.column("event_type").filter(keep),
            "fl": f.filter(keep),
        })

    out = grouped_rate_ci(
        ds.map_batches(flag, batch_format="pyarrow"),
        ["event_type"], "fl",
    )
    return _select(out, ["event_type", "k", "n", "rate", "ci_lo",
                         "ci_hi"])


def q_peak_concurrency(sf_dir):
    """Per-user peak number of concurrently-open 1-hour event windows
    (ops/intervals.peak_concurrency — sweep-line over ±1 boundary
    events, ends-before-starts tie order ≡ the SQL ORDER BY t, d
    running sum): the max-concurrency feature for rate limiting /
    burstiness scoring. Exact integers end-to-end."""
    from recipys_ray.ops.intervals import peak_concurrency

    ds = _events(sf_dir, columns=["user_id", "ts"])

    def win(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts")
        end = pc.cast(
            pc.add(pc.cast(ts, pa.int64()), 3_600_000_000),
            pa.timestamp("us"),
        )
        return pa.table({
            "user_id": tbl.column("user_id"), "s": ts, "e": end,
        })

    out = peak_concurrency(
        ds.map_batches(win, batch_format="pyarrow"), ["user_id"],
        "s", "e",
    )
    return _select(out, ["user_id", "peak"])


def q_top_share(sf_dir):
    """Per-source content concentration: the share of each source's
    characters held by its top-decile documents
    (ops/groupstats.top_share) — integer-exact cutoff rank
    k = (n+9)//10, exact sums, one division. Bit-equal to the windowed
    SQL oracle."""
    from recipys_ray.ops.groupstats import top_share

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "n_chars", "doc_id"],
    )
    out = top_share(ds, ["source"], "n_chars", "doc_id", top_frac=0.1)
    return _select(out, ["source", "n_docs", "total_w", "top_w",
                         "top_share"])


def q_simpson_diversity(sf_dir):
    """Per-source Simpson diversity of document languages
    (ops/groupstats.simpson_diversity): log-free diversity index — both
    Σ's are exact int64 and the index is ONE double division, so unlike
    the entropy queries it is bit-equal and hash-primary-safe."""
    from recipys_ray.ops.groupstats import simpson_diversity

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang"]
    )
    out = simpson_diversity(ds, ["source"], "lang")
    return _select(out, ["source", "simpson", "n"])


def q_corr_matrix(sf_dir):
    """All-pairs Pearson matrix of (quantity, discount%, tax%) in ONE
    combiner pass (ops/groupstats.corr_matrix — per-block k×k Gram, a
    bounded driver fold of one row per block): the recipes step_corr
    screening statistic. Integer-valued inputs keep every Σ exact, so
    the mirrored closed form is bit-equal."""
    from recipys_ray.ops.groupstats import corr_matrix

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_discount", "l_tax"],
    )

    def ints(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "qty": pc.cast(tbl.column("l_quantity"), pa.int64()),
            "disc": pc.cast(
                pc.round(pc.multiply(tbl.column("l_discount"), 100.0)),
                pa.int64(),
            ),
            "tax": pc.cast(
                pc.round(pc.multiply(tbl.column("l_tax"), 100.0)),
                pa.int64(),
            ),
        })

    out = corr_matrix(
        ds.map_batches(ints, batch_format="pyarrow"),
        ["qty", "disc", "tax"],
    )
    return _select(out, ["col_a", "col_b", "corr", "n"])


def q_nzv_report(sf_dir):
    """Near-zero-variance screening report (ops/groupstats.nzv_report —
    the recipes step_nzv statistic) over five lineitem-derived columns
    including a planted constant: value counts fold through ONE skinny
    exchange on the column name; flags decided by integer
    cross-multiplication, ratios single exact divisions."""
    from recipys_ray.ops.groupstats import nzv_report

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_discount"],
    )

    def prep(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        return pa.table({
            "rflag": tbl.column("l_returnflag"),
            "lstat": tbl.column("l_linestatus"),
            "qty": pc.cast(tbl.column("l_quantity"), pa.int64()),
            "disc": pc.cast(
                pc.round(pc.multiply(tbl.column("l_discount"), 100.0)),
                pa.int64(),
            ),
            "const": pa.array(["1"] * n, pa.string()),
        })

    out = nzv_report(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["rflag", "lstat", "qty", "disc", "const"],
    )
    return _select(out, ["col_name", "n_rows", "n_distinct", "top_cnt",
                         "second_cnt", "freq_ratio", "pct_unique",
                         "nzv"])


def q_grouped_ols2(sf_dir):
    """Two-regressor OLS of tax% on (quantity, discount%) per
    (returnflag, linestatus) via exact int64 sufficient statistics
    (ops/groupstats.grouped_ols2): one combiner pass, one exchange of
    partial rows, Cramer's-rule finish mirrored term-for-term in the
    SQL oracle — bit-equal because every Σ is an exact integer and
    every downstream double op is a single IEEE kernel in both
    engines."""
    from recipys_ray.ops.groupstats import grouped_ols2

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_discount", "l_tax"],
    )

    def ints(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": tbl.column("l_returnflag"),
            "l_linestatus": tbl.column("l_linestatus"),
            "x1": pc.cast(tbl.column("l_quantity"), pa.int64()),
            "x2": pc.cast(
                pc.round(pc.multiply(tbl.column("l_discount"), 100.0)),
                pa.int64(),
            ),
            "y": pc.cast(
                pc.round(pc.multiply(tbl.column("l_tax"), 100.0)),
                pa.int64(),
            ),
        })

    out = grouped_ols2(
        ds.map_batches(ints, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"], "x1", "x2", "y",
    )
    return _select(out, ["l_returnflag", "l_linestatus", "b0", "b1",
                         "b2", "r2", "n"])


def q_association_rules(sf_dir):
    """Directed event-type association rules within user baskets
    (ops/groupstats.association_rules): exact co-occurrence counts ride
    the cooccurrence exchange; support/confidence/lift are single
    divisions of exactly-representable integer products — bit-equal to
    the SQL self-join oracle."""
    from recipys_ray.ops.groupstats import association_rules

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    out = association_rules(ds, "user_id", "event_type")
    return _select(out, ["ante", "cons", "n_both", "n_ante", "n_cons",
                         "support", "confidence", "lift"])


def q_cusum(sf_dir):
    """Per-user CUSUM mean-shift statistic (ops/timeseries.
    grouped_cusum): max_t |n·S_t − t·S_n| over the value×100 int64
    view — cross-multiplied so every intermediate is an exact int64
    (no float anywhere)."""
    from recipys_ray.ops.timeseries import grouped_cusum

    ds = _events(sf_dir)

    def to_int(tbl: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(pc.multiply(tbl.column("value"), 100.0)),
                    pa.int64())
        return pa.table({
            "user_id": tbl.column("user_id"),
            "ts": tbl.column("ts"),
            "event_id": tbl.column("event_id"),
            "x": x,
        })

    out = grouped_cusum(
        ds.map_batches(to_int, batch_format="pyarrow"),
        ["user_id"], ["ts", "event_id"], "x",
    )
    return _select(out, ["user_id", "n", "cusum"])


def q_decile_lift(sf_dir):
    """Decile lift table (ML-evaluation composition): NTILE(10) over
    order totalprice via the exact global rank (ops/rank.add_ntile),
    then per-decile count, exact integer revenue cents, and lift =
    (decile mean)/(global mean) — both means are single divisions of
    exact integer sums, so the float column is bit-equal."""
    from recipys_ray.ops.rank import add_ntile

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    tiled = add_ntile(
        ds, "o_totalprice", k=10, tie_cols=["o_orderkey"],
        num_partitions=16, bucket_col="decile",
    )

    def to_cents(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("o_totalprice"), 100.0)),
            pa.int64(),
        )
        return pa.table({
            "decile": tbl.column("decile"),
            "cents": cents,
        })

    parts = tiled.map_batches(to_cents, batch_format="pyarrow")

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        agg = (
            pdf.groupby("decile", sort=False)["cents"]
            .agg(["size", "sum"])
            .reset_index()
        )
        return pa.table({
            "decile": pa.Array.from_pandas(
                agg["decile"], type=tbl.schema.field("decile").type
            ),
            "n": pa.array(agg["size"].to_numpy(np.int64), pa.int64()),
            "revenue_cents": pa.array(
                agg["sum"].to_numpy(np.int64), pa.int64()
            ),
        })

    folded = parts.map_batches(partial, batch_format="pyarrow").to_pandas()
    s = (
        folded.groupby("decile", sort=False)[["n", "revenue_cents"]]
        .sum()
        .reset_index()
    )
    gn = np.int64(s["n"].sum())
    gt = np.int64(s["revenue_cents"].sum())
    rc = s["revenue_cents"].to_numpy(np.int64)
    n = s["n"].to_numpy(np.int64)
    lift = (rc.astype(np.float64) / n) / (np.float64(gt) / np.float64(gn))
    out = pd.DataFrame({
        "decile": s["decile"].to_numpy(np.int64),
        "n": n,
        "revenue_cents": rc,
        "lift": lift,
    })
    return out


def q_embed_centroids(sf_dir):
    """Per-label mean-pool centroids of the embedding table in long
    format (ops/vector.grouped_mean_pool): per-block int64-quantized
    partial sums (q = floor(x·2^20) — exact under any block layout), ONE
    partial-row exchange, a single IEEE division at the finish. The SQL
    oracle states the identical expression, so values are bit-equal."""
    from recipys_ray.ops.vector import grouped_mean_pool

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    out = grouped_mean_pool(ds, ["label"])
    return _select(out, ["label", "dim", "n", "centroid"])


def q_centroid_cosine(sf_dir):
    """Typicality scoring: each vector's cosine to its label's mean-pool
    centroid (ops/vector.centroid_cosine — driver-folded tiny partials,
    then a shuffle-free broadcast stamp). The centroid re-quantizes to
    int64, so the per-row dot/norms are EXACT ints and the only float
    ops are cast → sqrt (IEEE correctly-rounded) → multiply → divide,
    mirrored term-for-term by the oracle — bit-equal."""
    from recipys_ray.ops.vector import centroid_cosine

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label", "embedding"],
    )
    out = centroid_cosine(ds, ["label"])
    return _select(out, ["vec_id", "label", "cos_centroid"])


def q_sequence_integrity(sf_dir):
    """Transcript-hygiene counters per user (ops/timeseries.
    sequence_integrity): events, adjacent event-type repeats
    (role-alternation violations in transcript terms), adjacent
    changes. Exact int64 throughout; NULL never equals NULL."""
    from recipys_ray.ops.timeseries import sequence_integrity

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = sequence_integrity(
        ds, ["user_id"], ["ts", "event_id"], "event_type"
    )
    return _select(
        out, ["user_id", "n_events", "n_repeats", "n_changes"]
    )


def q_scd2_intervals(sf_dir):
    """SCD2 validity intervals over each user's event_type state sequence
    (ops/intervals.scd2_intervals): one row per maximal unchanged run,
    ``[valid_from, valid_to)`` with ``valid_to`` = the next run's first ts
    (NULL for the open run) — the point-in-time dimension build that feeds
    the as-of join. ONE skinny exchange; epoch-us timestamps exact."""
    from recipys_ray.ops.intervals import scd2_intervals

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = scd2_intervals(ds, ["user_id"], ["ts", "event_id"], "event_type")
    return _select(out, ["user_id", "event_type", "valid_from", "valid_to"])


def q_budget_prefix(sf_dir):
    """Token-budget prefix truncation per user (ops/timeseries.
    budget_prefix): keep each user's ordered event prefix while the
    running spend stays ≤ 100 000 cents — context-window truncation that
    keeps whole turns, zero leakage. Integer-cents weights (the
    q_grouped_corr trick: 2-decimal values ×100 never land on an exact
    binary .5, so round() agrees across engines) keep the cumsum exact."""
    from recipys_ray.ops.timeseries import budget_prefix

    ds = _events(sf_dir)

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return tbl.append_column("cents", c)

    ds = ds.map_batches(cents, batch_format="pyarrow")
    out = budget_prefix(
        ds, ["user_id"], ["ts", "event_id"], "cents",
        budget=100_000, cum_col="cum_cents",
    )
    return _select(out, ["event_id", "user_id", "cum_cents"])


def q_grouped_winsorize(sf_dir):
    """Per-user winsorization of valn at exact quantile_disc order
    statistics (ops/quantiles.grouped_winsorize). Bounds are input
    elements (selection only), the clip is single IEEE min/max — bit-equal
    to the SQL least/greatest form; nulls stay NULL."""
    from recipys_ray.ops.quantiles import grouped_winsorize

    ds = _with_valn(_events(sf_dir))
    out = grouped_winsorize(
        ds, "user_id", "valn", ["event_id"], lower_q=0.1, upper_q=0.9,
        out_col="w_value",
    )
    return _select(out, ["event_id", "w_value"])


def q_remove_boilerplate(sf_dir):
    """CCNet-style boilerplate removal at the token unit (ops/text.
    remove_boilerplate_tokens): Misra-Gries frequent-token discovery +
    exact verify (driver-bounded candidate set), broadcast stop set, ONE
    Arrow-kernel clean pass. min_fraction=0.034 strips the handful of
    highest-frequency tokens; exact integer counts make the threshold
    decision identical across engines."""
    from recipys_ray.ops.text import remove_boilerplate_tokens

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = remove_boilerplate_tokens(ds, min_fraction=0.034)
    return _select(out, ["doc_id", "text_clean", "n_removed"])


def q_doc_term_counts(sf_dir):
    """Bounded-vocabulary document-term matrix in long form (ops/text.
    doc_term_counts): exact top-20 vocabulary (count desc, token asc)
    broadcast once, ONE streaming counting pass, no exchange. Exact int64
    counts."""
    from recipys_ray.ops.text import doc_term_counts

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return doc_term_counts(ds, vocab_size=20)


def q_welch_ttest(sf_dir):
    """Per-returnflag Welch two-sample t between F and O linestatus
    quantities (ops/groupstats.grouped_welch_ttest): integer sufficient
    stats (exact, order-free), finish mirrored term-for-term by the SQL
    oracle — bit-equal."""
    from recipys_ray.ops.groupstats import grouped_welch_ttest

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    out = grouped_welch_ttest(
        ds, ["l_returnflag"], "l_quantity", "l_linestatus", "F", "O"
    )
    return _select(
        out, ["l_returnflag", "n_a", "n_b", "t_welch", "df_welch"]
    )


def q_prior_mean(sf_dir):
    """Leakage-free expanding mean of STRICTLY PRIOR spend per user
    (ops/groupstats.expanding_mean_exclusive) — the time-safe
    target-encoding feature (StepHistorical is inclusive; this is the
    ≤ t−1 variant for when the value IS the label). Integer-cents input
    → exact prefix sums → the single division is bit-equal to DuckDB's
    windowed avg."""
    from recipys_ray.ops.groupstats import expanding_mean_exclusive

    ds = _events(sf_dir)

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return tbl.append_column("cents", c)

    ds = ds.map_batches(cents, batch_format="pyarrow")
    out = expanding_mean_exclusive(
        ds, ["user_id"], ["ts", "event_id"], "cents", ["event_id"],
        out_col="prior_mean",
    )
    return _select(out, ["event_id", "prior_mean"])


def q_argmax_doc(sf_dir):
    """Best-duplicate selection: the longest document per (lang, source),
    ties to the smallest doc_id (ops/groupstats.grouped_argmax). Arg-max
    is associative — per-block combiner keeps each group's best row, ONE
    tiny candidate exchange, no payload shuffle."""
    from recipys_ray.ops.groupstats import grouped_argmax

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source", "n_chars"],
    )
    out = grouped_argmax(
        ds, ["lang", "source"], "n_chars", ["doc_id"],
        keep_cols=["doc_id", "n_chars"],
    )
    return _select(out, ["lang", "source", "doc_id", "n_chars"])


def q_pattern_counts(sf_dir):
    """Multi-regex count features per document (ops/text.pattern_counts):
    one Arrow RE2 count kernel per pattern per batch, stateless streaming,
    exact int64 — the URL/email/digit-density quality-filter family."""
    from recipys_ray.ops.text import pattern_counts

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = pattern_counts(ds, patterns={
        "n_vowel_runs": "[aeiou]+",
        "n_tbl": "table|row",
        "n_spaces": " ",
    })
    return _select(out, ["doc_id", "n_vowel_runs", "n_tbl", "n_spaces"])


def q_debounce(sf_dir):
    """Fixed-bucket debounce: first event per (user, hour bucket)
    (ops/timeseries.debounce_events) — retry-storm / duplicate-webhook
    collapse before feature extraction. Pure int64 epoch floor division,
    exact."""
    from recipys_ray.ops.timeseries import debounce_events

    ds = _events(sf_dir)
    out = debounce_events(
        ds, ["user_id"], "ts", ["ts", "event_id"],
        period_us=3_600_000_000,
    )
    return _select(out, ["event_id", "user_id", "bucket"])


def q_group_share(sf_dir):
    """Share-of-group spend per event (ops/groupstats.group_share):
    integer-cents totals are exact and order-free, so the single division
    is bit-equal to SQL v / sum(v) OVER (PARTITION BY g)."""
    from recipys_ray.ops.groupstats import group_share

    ds = _events(sf_dir)

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return tbl.append_column("cents", c)

    ds = ds.map_batches(cents, batch_format="pyarrow")
    out = group_share(ds, ["user_id"], "cents", ["event_id"])
    return _select(out, ["event_id", "share"])


def q_seq_index(sf_dir):
    """Within-user sequence index (ops/groupstats.group_seq_index) —
    turn-index reconstruction; SQL row_number parity, exact int64."""
    from recipys_ray.ops.groupstats import group_seq_index

    ds = _events(sf_dir)
    out = group_seq_index(
        ds, ["user_id"], ["ts", "event_id"], ["event_id"]
    )
    return _select(out, ["event_id", "seq_idx"])


def q_source_vocab_sim(sf_dir):
    """Pairwise vocabulary Jaccard between sources (ops/text.
    source_similarity): distinct (source, token) combiner → token-hash
    exchange → per-token pair counts; driver folds k² rows. Exact int
    counts, one division."""
    from recipys_ray.ops.text import source_similarity

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return source_similarity(ds, group_col="source")


def q_compress_ratio(sf_dir):
    """zlib compression-ratio quality proxy (ops/text.compression_ratio)
    — golden oracle (scripts/gen_expected.compression_expected, the
    independent sequential implementation; keyed by corpus so one SQL
    string serves every sf)."""
    from recipys_ray.ops.text import compression_ratio

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = compression_ratio(ds)
    return _select(out, ["doc_id", "n_bytes", "n_comp", "comp_ratio"])


def q_bpe_merges(sf_dir):
    """First 30 BPE merge rules learned from the document corpus
    (ops/text.bpe_merges — Sennrich-2016 learn_bpe): ONE corpus pass
    folds exact word counts via the build_vocab combiner; the merge loop
    runs on that bounded table with a deterministic (count desc, lhs,
    rhs) tie-break, so the rule sequence is unique. Golden oracle
    (scripts/gen_expected.bpe_expected — the independent pure-python
    sequential trainer)."""
    from recipys_ray.ops.text import bpe_merges

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    out = bpe_merges(ds, "text", k=30)
    return _select(out, ["rank", "lhs", "rhs", "pair_count"])


def q_bpe_encode(sf_dir):
    """Per-document token counts under the corpus's own learned BPE
    (ops/text.bpe_encode over ops/text.bpe_merges, k=30): the
    token-budget accounting pass. The rule table broadcasts via
    ray.put; the encode pool memoizes per distinct word. Golden oracle
    (scripts/gen_expected.bpe_encode_expected)."""
    from recipys_ray.ops.text import bpe_encode, bpe_merges

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    rules = bpe_merges(ds, "text", k=30)
    out = bpe_encode(ds, rules, "text", "doc_id")
    return _select(out, ["doc_id", "n_words", "n_tokens"])


def q_balanced_sample(sf_dir):
    """Exact class rebalancing to the smallest event_type's count
    (ops/sampling.balanced_sample): per-class counting selection over the
    murmur hash domain (≡ DuckDB hash()) — no payload shuffle at any
    class size; deterministic (hash, id) cutoff mirrors the SQL
    row_number ORDER BY hash(id), id."""
    from recipys_ray.ops.sampling import balanced_sample

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )
    out = balanced_sample(ds, "event_type", "event_id")
    return _select(out, ["event_id", "event_type"])


def q_grouped_histogram(sf_dir):
    """Per-event-type equal-width histogram of value
    (ops/quantiles.grouped_histogram): keyed bincount combiner, ONE tiny
    cell exchange; bucket ids/edges are single IEEE ops mirrored by the
    oracle."""
    from recipys_ray.ops.quantiles import grouped_histogram

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    out = grouped_histogram(
        ds, ["event_type"], "value", lo=0.0, hi=500.0, nbins=20
    )
    return _select(out, ["event_type", "bucket", "lo_edge", "cnt"])


def q_top_tokens_per_source(sf_dir):
    """Exact per-source top-5 tokens (ops/text.top_tokens_per_source):
    distinct (source, token, count) block combiner → group-hash exchange
    → one vectorized rank. Exact int64 counts; ties token-ascending."""
    from recipys_ray.ops.text import top_tokens_per_source

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    out = top_tokens_per_source(ds, k=5)
    return _select(out, ["source", "token", "cnt", "rnk"])


def q_quality_checks(sf_dir):
    """Declarative data-quality gate (ops/quality.quality_checks): one
    streaming pass for the stateless rules + the distinct-combiner pass
    for uniqueness; exact integer report, bit-equal to the SQL scalar
    UNION."""
    from recipys_ray.ops.quality import quality_checks

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value", "ts"],
    )
    return quality_checks(ds, [
        {"name": "value_range", "kind": "range", "col": "value",
         "lo": 0.0, "hi": 400.0},
        {"name": "ts_not_null", "kind": "not_null", "col": "ts"},
        {"name": "type_regex", "kind": "regex", "col": "event_type",
         "pattern": "[a-z_]+"},
        {"name": "type_accepted", "kind": "accepted_values",
         "col": "event_type",
         "values": ["view", "click", "purchase", "signup"]},
        {"name": "event_id_unique", "kind": "unique", "col": "event_id"},
    ])


def q_asof_nearest(sf_dir):
    """NEAREST-direction point-in-time join: each event gets the user's
    closest purchase in either direction, ties to the earlier one
    (pandas merge_asof 'nearest' semantics, probed; the oracle states
    the backward/forward pick with the same tie rule)."""
    from recipys_ray.ops.asof import asof_join

    left = _events(sf_dir, columns=["event_id", "user_id", "ts"])
    ev = _events(
        sf_dir, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def purchases(tbl: pa.Table) -> pa.Table:
        mask = pc.equal(tbl.column("event_type"), "purchase")
        sub = tbl.filter(mask)
        return pa.table({
            "user_id": sub.column("user_id"),
            "ts": sub.column("ts"),
            "event_id": sub.column("event_id"),
            "purch_value": sub.column("value"),
        })

    right = ev.map_batches(purchases, batch_format="pyarrow")
    out = asof_join(
        left, right, on="ts", by="user_id", direction="nearest",
        right_dedup_cols=["event_id"],
    )

    # the union pad nulls left-only columns on right rows, so the joined
    # event_id rides through pandas as float64 — restore the planned
    # int64 (exact: ids < 2^53), same as q_asof_purchase's finish
    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": tbl.column("event_id").cast(pa.int64()),
            "purch_value": tbl.column("purch_value"),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def q_negative_samples(sf_dir):
    """Deterministic negative sampling for ranking data
    (ops/sampling.negative_samples): 2 hash-derived picks per lineitem
    from the part-key universe — murmur ≡ DuckDB hash(), so the SQL
    oracle restates the exact pick."""
    from recipys_ray.ops.sampling import negative_samples

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber"],
    )

    def key(tbl: pa.Table) -> pa.Table:
        k = pc.add(
            pc.multiply(tbl.column("l_orderkey"), pa.scalar(8, pa.int64())),
            pc.cast(tbl.column("l_linenumber"), pa.int64()),
        )
        return tbl.append_column("key", pc.cast(k, pa.int64()))

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    )
    out = negative_samples(
        li.map_batches(key, batch_format="pyarrow"), "key", part, k=2
    )
    return _select(
        out, ["l_orderkey", "l_linenumber", "neg_j", "neg_item"]
    )


def q_windowed_distinct(sf_dir):
    """Rolling novelty: distinct event types among each user's last 7
    events (ops/groupstats.windowed_distinct) — O(n) difference-array
    kernel, exact int64; the bot-loop detector's windowed form."""
    from recipys_ray.ops.groupstats import windowed_distinct

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = windowed_distinct(
        ds, ["user_id"], ["ts", "event_id"], "event_type",
        window=7, id_cols=["event_id"],
    )
    return _select(out, ["event_id", "w_distinct"])


def q_rolling_corr(sf_dir):
    """Rolling 10-event Pearson correlation per user of (nullable) spend
    cents vs position-in-hour (ops/groupstats.rolling_corr): windowed
    exact-integer sufficient stats from grouped prefix-sum differences;
    closed form mirrored term-for-term — bit-equal."""
    from recipys_ray.ops.groupstats import rolling_corr

    ds = _with_valn(_events(sf_dir))

    # epoch // 1e6 % 3600 must be EXACT integer floor division — numpy
    # int64 // mirrors DuckDB's BIGINT // for the positive epochs here
    def derive_int(tbl: pa.Table) -> pa.Table:
        import numpy as np

        xc = pc.cast(
            pc.round(pc.multiply(tbl.column("valn"), 100.0)), pa.int64()
        )
        epoch = tbl.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        y = (epoch // 1_000_000) % 3600
        return tbl.append_column("x", xc).append_column(
            "y", pa.array(y, pa.int64())
        )

    ds = ds.map_batches(derive_int, batch_format="pyarrow")
    out = rolling_corr(
        ds, ["user_id"], ["ts", "event_id"], "x", "y",
        window=10, id_cols=["event_id"],
    )
    return _select(out, ["event_id", "r_corr"])


def q_null_patterns(sf_dir):
    """Missingness-pattern profile over two derived nullable columns
    (ops/profile.null_patterns): per-block mask groupby combiner, ONE
    tiny exchange; exact counts."""
    from recipys_ray.ops.profile import null_patterns

    ds = _events(sf_dir)

    def derive(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        v = tbl.column("value")
        valn = pc.if_else(pa.array(eid % 7 == 0),
                          pa.scalar(None, pa.float64()), v)
        valn2 = pc.if_else(pa.array(eid % 11 == 0),
                           pa.scalar(None, pa.float64()), v)
        return tbl.append_column("valn", valn).append_column(
            "valn2", valn2
        )

    ds = ds.map_batches(derive, batch_format="pyarrow")
    return null_patterns(ds, ["valn", "valn2"])


def q_user_trend(sf_dir):
    """Per-user spend trend: OLS slope of (nullable) cents on epoch day
    number — composition of the grouped_regression combiner over pure
    per-row derivations (no extra exchange); integer inputs → bit-exact
    like grouped_regr."""
    from recipys_ray.ops.groupstats import grouped_regression

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "user_id", "value"],
    )

    def to_int(tbl: pa.Table) -> pa.Table:
        import numpy as np

        v100 = pc.round(pc.multiply(tbl.column("value"), 100.0))
        epoch = tbl.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = epoch // 86_400_000_000
        return pa.table({
            "user_id": tbl.column("user_id"),
            "day": pa.array(day, pa.int64()),
            "cents": pc.cast(v100, pa.int64()),
        })

    ints = ds.map_batches(to_int, batch_format="pyarrow")
    out = grouped_regression(ints, ["user_id"], "day", "cents")
    return _select(out, ["user_id", "n", "slope", "intercept", "r2"])


def q_winsorized_mean(sf_dir):
    """Robust per-user mean: average of integer cents clipped at the
    user's exact [0.1, 0.9] quantile_disc bounds — grouped_winsorize
    (selection-only) feeding an exact-int combiner mean; the single
    final division is bit-equal to the SQL avg of the clipped ints."""
    from recipys_ray.ops.quantiles import grouped_winsorize

    ds = _events(sf_dir)

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return tbl.append_column("cents", c)

    ds = ds.map_batches(cents, batch_format="pyarrow")
    clipped = grouped_winsorize(
        ds, "user_id", "cents", ["event_id", "user_id"],
        lower_q=0.1, upper_q=0.9, out_col="wc",
    )

    # clipped values are exact integers in float64 (selection of ints),
    # so the per-user sum is order-free and avg = one division
    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(["user_id", "wc"]).to_pandas()
        agg = pdf.groupby("user_id", sort=False)["wc"].agg(
            ["sum", "count"]
        ).reset_index()
        return pa.table({
            "user_id": pa.array(agg["user_id"].to_numpy()),
            "s": pa.array(agg["sum"].to_numpy(np.float64), pa.float64()),
            "c": pa.array(agg["count"].to_numpy(np.int64), pa.int64()),
        })

    parts = clipped.map_batches(partial, batch_format="pyarrow")
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = pdf.groupby("user_id", sort=False)[["s", "c"]].sum()
        out = agg.reset_index()
        out["wmean"] = out["s"].to_numpy(np.float64) / out[
            "c"
        ].to_numpy(np.float64)
        return out[["user_id", "wmean"]]

    out = partitioned_groupby_map(parts, ["user_id"], finish)
    return _select(out, ["user_id", "wmean"])


def q_fk_orphans(sf_dir):
    """Referential-integrity audit: orphan counts in both directions of
    the lineitem→orders foreign key (ops/join anti plan with NULL-safe
    NOT EXISTS semantics). Two skinny anti-joins, exact int64 scalars."""
    from recipys_ray.ops.join import hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )
    od = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )
    n_li = hash_join(
        li, od, on="l_orderkey", right_on="o_orderkey", how="anti"
    ).count()
    n_od = hash_join(
        od, li, on="o_orderkey", right_on="l_orderkey", how="anti"
    ).count()
    return pd.DataFrame({
        "relation": ["lineitem_without_order", "order_without_lineitem"],
        "n_orphans": np.array([n_li, n_od], dtype=np.int64),
    })


def q_segment_dedup(sf_dir):
    """CCNet-style intra-corpus segment dedup (ops/segdedup.segment_dedup,
    cf. Wenzek 2020 paragraph dedup): 8-token windows, keep each distinct
    segment only at its globally-first (doc_id, seg_idx) occurrence,
    reassemble surviving docs. Two payload exchanges (segment hash, then
    doc_id); winner stamping + reassembly vectorized across all groups."""
    from recipys_ray.ops.segdedup import segment_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = segment_dedup(ds, window=8)
    return _select(out, ["doc_id", "text_dedup", "n_kept"])


def q_gini_spend(sf_dir):
    """Per-customer Gini inequality of order spend
    (ops/groupstats.grouped_gini): counts combiner → ONE skinny exchange;
    the rank sum Σ i·x₍ᵢ₎ is derived from value counts (no payload sort).
    Integer cents keep every Σ exact → the closed form is bit-equal to
    the SQL row_number restatement."""
    from recipys_ray.ops.groupstats import grouped_gini

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("o_totalprice"), 100.0)),
            pa.int64(),
        )
        return pa.table(
            {"o_custkey": tbl.column("o_custkey"), "cents": c}
        )

    out = grouped_gini(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["o_custkey"],
        "cents",
        out_col="spend_gini",
    )
    return _select(out, ["o_custkey", "spend_gini"])


def q_bitops_flags(sf_dir):
    """Per-user bitwise AND/OR/XOR folds of a bitset-encoded attribute
    (ops/groupstats.grouped_bitops): segmented np.bitwise_*.reduceat —
    one C call per partition — and a skinny partial-row exchange.
    Pure integer ops, bit-equal by construction."""
    from recipys_ray.ops.groupstats import grouped_bitops

    ds = _events(sf_dir, ["event_id", "user_id", "value"])

    def flags(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {"user_id": tbl.column("user_id"), "flags": c}
        )

    out = grouped_bitops(
        ds.map_batches(flags, batch_format="pyarrow"), ["user_id"], "flags"
    )
    return _select(out, ["user_id", "band", "bor", "bxor"])


def q_ab_ztest(sf_dir):
    """Pooled two-proportion z-test per event type
    (ops/groupstats.two_proportion_ztest): variant = user parity,
    success = value > 50. Exact integer counting everywhere; both
    engines evaluate the identical closed form — bit-equal. One
    4-counter combiner pass + ONE skinny exchange."""
    from recipys_ray.ops.groupstats import two_proportion_ztest

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"],
    )

    def prep(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": tbl.column("event_type"),
                "variant": pa.array(
                    (uid % 2).astype(np.int64), pa.int64()
                ),
                "success": pa.array(
                    (val > 50.0).astype(np.int64), pa.int64()
                ),
            }
        )

    out = two_proportion_ztest(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type"],
        "variant",
        "success",
    )
    return _select(out, ["event_type", "n0", "x0", "n1", "x1", "z"])


def q_readability(sf_dir):
    """Flesch–Kincaid readability grade per document
    (ops/text.readability_scores): RE2 count kernels (words, vowel-group
    syllables, sentence boundaries) + the stated formula tree over exact
    integer counts — bit-equal to the SQL expression. Stateless
    vectorized map, no shuffle."""
    from recipys_ray.ops.text import readability_scores

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return _select(
        readability_scores(ds),
        ["doc_id", "n_words", "n_syllables", "n_sentences", "fk_grade"],
    )


def q_stratified_split(sf_dir):
    """Deterministic stratified train/test split over documents by lang
    (ops/sampling.stratified_split): exactly floor(0.2·n) docs per lang
    labeled test via per-stratum counting selection on the
    murmur ≡ DuckDB-hash domain — NO payload shuffle; one streaming
    label stamp."""
    from recipys_ray.ops.sampling import stratified_split

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = stratified_split(ds, "lang", "doc_id", test_frac=0.2)
    return _select(out, ["doc_id", "lang", "split"])


def q_weighted_median(sf_dir):
    """Quantity-weighted median line price per return flag
    (ops/groupstats.grouped_weighted_median): selection-only — no float
    math — via a (group, value) weight-sum combiner + ONE skinny
    exchange + grouped-cumsum keep-first finish."""
    from recipys_ray.ops.groupstats import grouped_weighted_median

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )

    def prep(tbl: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("l_extendedprice"), 100.0)),
            pa.int64(),
        )
        return pa.table(
            {
                "l_returnflag": tbl.column("l_returnflag"),
                "cents": cents,
                "qty": pc.cast(tbl.column("l_quantity"), pa.int64()),
            }
        )

    out = grouped_weighted_median(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag"],
        "cents",
        "qty",
        out_col="wmedian_cents",
    )
    return _select(out, ["l_returnflag", "wmedian_cents"])


def q_pagerank(sf_dir):
    """Fixed-point integer PageRank (ops/graph.pagerank) over the
    supplier↔part co-purchase graph (both directions; namespaced node
    ids). 2 damped sweeps; every step is integer arithmetic, so the
    result is exact under any partitioning and bit-equal to the unrolled
    SQL CTE chain. Edges stay distributed (parallel-edge combiner, pinned
    once); only per-node state hits the driver."""
    from recipys_ray.ops.graph import pagerank

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )

    def both_dirs(tbl: pa.Table) -> pa.Table:
        supp = tbl.column("l_suppkey").to_numpy(zero_copy_only=False)
        part = tbl.column("l_partkey").to_numpy(zero_copy_only=False)
        s2 = supp * 2
        p2 = part * 2 + 1
        return pa.table(
            {
                "src": pa.array(np.concatenate([s2, p2]), pa.int64()),
                "dst": pa.array(np.concatenate([p2, s2]), pa.int64()),
            }
        )

    edges = ds.map_batches(both_dirs, batch_format="pyarrow")
    out = pagerank(edges, "src", "dst", iters=2)
    return _select(out, ["node", "rank"])


def q_triangle_parts(sf_dir):
    """Per-part triangle participation in the co-purchase graph
    (ops/graph.triangle_counts — degree-ordered forward algorithm, so
    wedge work is O(m^1.5) under any hub skew): parts are linked when
    they appear in the same order; triangles measure neighborhood
    density. Read-pruned to l_partkey % 5 == 0 to keep the cubic SQL
    oracle cheap; co-order pair edges come from ONE exchange on the
    order key with the shared vectorized pair expansion. Exact integer
    counts end-to-end."""
    from recipys_ray.kernels.grouped import partitioned_groupby_map
    from recipys_ray.ops.graph import triangle_counts
    from recipys_ray.ops.groupstats import _group_pairs

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    def pre(tbl: pa.Table) -> pa.Table:
        p = tbl.column("l_partkey").to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array((p % 5) == 0))

    def pairs_part(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "src": pd.Series(dtype=np.int64),
            "dst": pd.Series(dtype=np.int64),
        })
        pdf = pdf.drop_duplicates()
        got = _group_pairs(pdf, ["l_orderkey"], "l_partkey", "l_partkey",
                           False, 100_000, "co_order_pairs")
        if got is None:
            return empty
        pdf2, _ids, _ng, _starts, left, right = got
        p = pdf2["l_partkey"].to_numpy()
        return pd.DataFrame({"src": p[left], "dst": p[right]})

    edges = partitioned_groupby_map(
        ds.map_batches(pre, batch_format="pyarrow"),
        ["l_orderkey"], pairs_part,
    )
    out = triangle_counts(edges, "src", "dst")
    return _select(out, ["node", "tri_count"])


def q_budget_sample(sf_dir):
    """Per-source token-budget document selection
    (ops/sampling.budget_sample): keep docs from each source in
    deterministic (hash, id) order while the running n_chars total stays
    ≤ 4000 — the data-mixing 'spend each source's token budget'
    primitive. Weighted counting selection over the murmur ≡ DuckDB-hash
    domain; NO payload shuffle, one streaming filter."""
    from recipys_ray.ops.sampling import budget_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    out = budget_sample(ds, "source", "doc_id", "n_chars", budget=4_000)
    return _select(out, ["doc_id", "source", "n_chars"])


def q_pit_state(sf_dir):
    """Point-in-time dimension enrichment — the SCD2 build feeding the
    as-of join (the north-star composition): each event is stamped with
    the user's state AS OF one hour earlier. scd2_intervals (ONE skinny
    exchange) → asof backward join co-partitioned by user; same-ts marks
    dedup inside the join (QUALIFY mirror)."""
    from recipys_ray.ops.asof import asof_join
    from recipys_ray.ops.intervals import scd2_intervals

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    dim = scd2_intervals(
        ev, ["user_id"], ["ts", "event_id"], "event_type"
    )

    def dim_side(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "ts_lag": tbl.column("valid_from"),
                "prior_state": tbl.column("event_type"),
                "state_key": tbl.column("event_type"),
            }
        )

    # multi-pass consumer: asof_join probes right.schema() (full upstream
    # execution for a post-shuffle plan) before the join itself — pin the
    # derived dim ONCE (the materialize-pin policy, ROUND5_NOTES.md)
    right = dim.map_batches(dim_side, batch_format="pyarrow").materialize()

    def probe(tbl: pa.Table) -> pa.Table:
        lag = pc.cast(
            pc.subtract(
                pc.cast(tbl.column("ts"), pa.int64()),
                pa.scalar(3_600_000_000, pa.int64()),
            ),
            pa.timestamp("us"),
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts_lag": lag,
            }
        )

    left = ev.map_batches(probe, batch_format="pyarrow")
    out = asof_join(
        left, right, on="ts_lag", by="user_id",
        right_dedup_cols=["state_key"],
    )

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "prior_state": tbl.column("prior_state"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_twap(sf_dir):
    """Per-user step-function time-weighted average spend
    (ops/timeseries.time_weighted_avg): each value holds until the next
    event; exact int64 cents·µs sums → one bit-equal division. ONE
    skinny exchange on user_id."""
    from recipys_ray.ops.timeseries import time_weighted_avg

    ds = _events(sf_dir)

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "event_id": tbl.column("event_id"),
                "cents": c,
            }
        )

    out = time_weighted_avg(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["user_id"],
        "ts",
        ["ts", "event_id"],
        "cents",
    )
    return _select(out, ["user_id", "twap"])


def q_fuzzy_link(sf_dir):
    """Cross-table fuzzy record linkage (ops/editdist.fuzzy_link):
    customer↔supplier pairs sharing a 3-char name SUFFIX block with
    Jaro-Winkler ≥ 0.8 (bit-parity kernel). Both sides exchange once as
    skinny (id, text) rows on the block key; cross pairs built by offset
    arithmetic, one vectorized jw kernel call per partition."""
    from recipys_ray.ops.editdist import fuzzy_link

    c = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    s = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = fuzzy_link(
        c, s, "c_custkey", "c_name", "s_suppkey", "s_name",
        threshold=0.8, block_chars=3,
    )
    return _select(out, ["c_custkey", "s_suppkey", "sim"])


def q_quantile_normalize(sf_dir):
    """Quantile normalization of per-event-type spend onto the global
    distribution (ops/quantiles.quantile_normalize): all-integer index
    mapping ceil(i·N/n), deterministic (value, id) order — exact. Three
    bounded motions: grouped skinny exchange, global-rank shuffle, one
    hash join."""
    from recipys_ray.ops.quantiles import quantile_normalize

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def cents(tbl: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "event_type": tbl.column("event_type"),
                "cents": c,
            }
        )

    out = quantile_normalize(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["event_type"], "event_id", "cents", out_col="vq",
    )
    return _select(out, ["event_id", "vq"])


def q_quantize_embeddings(sf_dir):
    """Symmetric int8-style embedding quantization
    (ops/vector.quantize_embeddings): per-vector max-|x| scale, trunc
    quantization (trunc, not round — the only bit-stable mirror; see op
    docstring). Long-form output so the value hash covers every element.
    Stateless vectorized map, no shuffle."""
    from recipys_ray.ops.vector import quantize_embeddings

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return _select(quantize_embeddings(ds), ["vec_id", "j", "q", "s"])


def q_attribution(sf_dir):
    """Last-touch attribution with a window: each purchase is credited
    to the user's most recent prior-or-simultaneous click IF it happened
    within 30 minutes (ops/asof.asof_join ``tolerance`` path — the
    windowed point-in-time join). Same-ts click ties dedup to min
    event_id inside the join (QUALIFY mirror)."""
    from recipys_ray.ops.asof import asof_join

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def side(etype, id_name):
        def fn(tbl: pa.Table) -> pa.Table:
            sub = tbl.filter(pc.equal(tbl.column("event_type"), etype))
            return pa.table(
                {
                    id_name: sub.column("event_id"),
                    "user_id": sub.column("user_id"),
                    "ts": sub.column("ts"),
                }
            )

        return fn

    purchases = ev.map_batches(side("purchase", "event_id"),
                               batch_format="pyarrow")

    def clicks_side(tbl: pa.Table) -> pa.Table:
        sub = tbl.filter(pc.equal(tbl.column("event_type"), "click"))
        return pa.table(
            {
                "user_id": sub.column("user_id"),
                "ts": sub.column("ts"),
                "click_id": sub.column("event_id"),
                # dedup sort key copy — right_dedup_cols are dropped
                # from the output, the payload column survives
                "click_key": sub.column("event_id"),
            }
        )

    clicks = ev.map_batches(clicks_side, batch_format="pyarrow")
    out = asof_join(
        purchases, clicks, on="ts", by="user_id",
        tolerance=pd.Timedelta("30m"), right_dedup_cols=["click_key"],
    )

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "click_id": tbl.column("click_id").cast(pa.float64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_event_trigrams(sf_dir):
    """Third-order sequential-pattern counts over per-user event
    sequences (ops/groupstats.state_ngram_counts, k=3): SQL = two
    chained lead() windows + GROUP BY (s1, s2, s3). Same motion as
    event_transitions — one skinny exchange, vectorized shift windows
    across all groups, tiny pair-count fold."""
    from recipys_ray.ops.groupstats import state_ngram_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = state_ngram_counts(
        ds, ["user_id"], ["ts", "event_id"], "event_type", k=3,
        state_cols=["ev1", "ev2", "ev3"],
    )
    return _select(out, ["ev1", "ev2", "ev3", "cnt"])


def q_trend_test(sf_dir):
    """Per-user Mann–Kendall monotone-trend statistic over daily spend
    (ops/groupstats.mann_kendall): values are exact cents, the daily
    grain is fused into the exchange combiner (pre_sum=True), and the
    pair sweep is vectorized across all users via offset arithmetic.
    SQL oracle = the self-join definition of S."""
    from recipys_ray.ops.groupstats import mann_kendall

    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def day_cents(tbl: pa.Table) -> pa.Table:
        ts = pc.cast(tbl.column("ts"), pa.int64())  # epoch micros
        day = pc.divide(ts, 86_400_000_000)
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table({
            "user_id": tbl.column("user_id"),
            "day": day,
            "cents": cents,
        })

    out = mann_kendall(
        ds.map_batches(day_cents, batch_format="pyarrow"),
        ["user_id"], "day", "cents", pre_sum=True,
    )
    return _select(out, ["user_id", "s", "n_pairs"])


def q_theil_sen(sf_dir):
    """Per-user Theil–Sen robust slope of daily spend
    (ops/groupstats.theil_sen) — the magnitude companion to
    trend_test's Mann–Kendall S, same pre-summed exchange. Each pairwise
    slope is ONE division of exact int64 differences (identical double
    in both engines); the estimate is the LOWER median
    (quantile_disc(0.5) order statistic — a real element, no
    interpolation), so the result is bit-equal, not merely allclose."""
    from recipys_ray.ops.groupstats import theil_sen

    ds = _events(sf_dir, columns=["user_id", "ts", "value"])

    def day_cents(tbl: pa.Table) -> pa.Table:
        ts = pc.cast(tbl.column("ts"), pa.int64())  # epoch micros
        day = pc.divide(ts, 86_400_000_000)
        cents = pc.cast(
            pc.round(pc.multiply(tbl.column("value"), 100.0)), pa.int64()
        )
        return pa.table({
            "user_id": tbl.column("user_id"),
            "day": day,
            "cents": cents,
        })

    out = theil_sen(
        ds.map_batches(day_cents, batch_format="pyarrow"),
        ["user_id"], "day", "cents", pre_sum=True,
    )
    return _select(out, ["user_id", "theil_sen", "n_pairs"])


ORACLES: dict[str, str] = {
    "trend_test": """
        WITH d AS (
          SELECT user_id,
                 epoch_us(ts) // 86400000000 AS day,
                 SUM(CAST(round(value * 100) AS BIGINT)) AS cents
          FROM events WHERE value IS NOT NULL
          GROUP BY user_id, epoch_us(ts) // 86400000000
        )
        SELECT a.user_id,
               CAST(SUM(CASE WHEN b.cents > a.cents THEN 1
                             WHEN b.cents < a.cents THEN -1
                             ELSE 0 END) AS BIGINT) AS s,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM d a JOIN d b
          ON a.user_id = b.user_id AND b.day > a.day
        GROUP BY a.user_id
    """,
    "user_features": """
        WITH i AS (
          SELECT user_id, event_id, ts,
                 epoch_us(ts) // 86400000000 AS day,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL
        ), dgrain AS (
          SELECT user_id, day, SUM(cents) AS cents
          FROM i GROUP BY user_id, day
        ), slopes AS (
          SELECT a.user_id,
                 CAST(b.cents - a.cents AS DOUBLE)
                   / CAST(b.day - a.day AS DOUBLE) AS slope
          FROM dgrain a JOIN dgrain b
            ON a.user_id = b.user_id AND b.day > a.day
        ), trend AS (
          SELECT user_id, quantile_disc(slope, 0.5) AS theil_sen,
                 CAST(count(*) AS BIGINT) AS n_pairs
          FROM slopes GROUP BY user_id
        ), bw AS (
          SELECT user_id, cents,
                 SUM(cents) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS BETWEEN 5 PRECEDING
                                           AND 1 PRECEDING) AS s,
                 COUNT(cents) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id
                                    ROWS BETWEEN 5 PRECEDING
                                             AND 1 PRECEDING) AS c
          FROM i
        ), bursts AS (
          SELECT user_id,
                 CAST(SUM(CASE WHEN c > 0 AND cents * c > 3 * s
                               THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_bursts
          FROM bw GROUP BY user_id
        ), dw AS (
          SELECT user_id, cents,
                 max(cents) OVER (PARTITION BY user_id ORDER BY ts)
                   AS pk
          FROM i
        ), dd AS (
          SELECT user_id, CAST(max(pk - cents) AS BIGINT) AS max_dd
          FROM dw GROUP BY user_id
        ), sd AS (
          SELECT DISTINCT user_id, day FROM i
        ), si AS (
          SELECT user_id,
                 day - row_number() OVER (PARTITION BY user_id
                                          ORDER BY day) AS isl
          FROM sd
        ), sl AS (
          SELECT user_id, isl, count(*) AS len
          FROM si GROUP BY user_id, isl
        ), streaks AS (
          SELECT user_id, CAST(max(len) AS BIGINT) AS streak
          FROM sl GROUP BY user_id
        )
        SELECT t.user_id, t.theil_sen, t.n_pairs, b.n_bursts,
               d.max_dd, s.streak
        FROM trend t
        JOIN bursts b USING (user_id)
        JOIN dd d USING (user_id)
        JOIN streaks s USING (user_id)
    """,
    "burst_counts": """
        WITH i AS (
          SELECT user_id, event_id, ts,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL
        ), w AS (
          SELECT user_id, cents,
                 SUM(cents) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS BETWEEN 5 PRECEDING
                                           AND 1 PRECEDING) AS s,
                 COUNT(cents) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id
                                    ROWS BETWEEN 5 PRECEDING
                                             AND 1 PRECEDING) AS c
          FROM i
        )
        SELECT user_id,
               CAST(SUM(CASE WHEN c > 0 AND cents * c > 3 * s
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_bursts
        FROM w GROUP BY user_id
    """,
    "oversample": """
        WITH t AS (
          SELECT event_id, event_type FROM events
          WHERE event_type IS NOT NULL AND event_id IS NOT NULL
        ), c AS (
          SELECT event_type, CAST(count(*) AS BIGINT) AS n
          FROM t GROUP BY 1
        ), m AS (SELECT max(n) AS tgt FROM c),
        r AS (
          SELECT t.event_id, t.event_type,
                 row_number() OVER (
                   PARTITION BY t.event_type
                   ORDER BY hash(t.event_id), t.event_id) AS rn,
                 c.n, m.tgt
          FROM t JOIN c USING (event_type) CROSS JOIN m
        )
        SELECT event_id, event_type,
               unnest(generate_series(
                 1, tgt // n + CASE WHEN rn <= tgt % n
                                    THEN 1 ELSE 0 END)) AS copy_idx
        FROM r
    """,
    "collapse_rare": r"""
        WITH c AS (
          SELECT doc_id,
                 NULLIF(regexp_extract(lower(coalesce(text, '')),
                                       '\w+'), '') AS cat
          FROM documents
        ), k AS (
          SELECT cat, count(*) AS cnt FROM c
          WHERE cat IS NOT NULL GROUP BY cat
        )
        SELECT c.doc_id, c.cat,
               CASE WHEN c.cat IS NULL THEN NULL
                    WHEN k.cnt >= 5 THEN c.cat
                    ELSE '__other__' END AS cat_collapsed
        FROM c LEFT JOIN k ON k.cat = c.cat
    """,
    "last_value_pct": """
        WITH i AS (
          SELECT user_id, event_id, ts,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL
        ), s AS (
          SELECT user_id, cents,
                 last_value(cents) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING
                            AND UNBOUNDED FOLLOWING) AS vl
          FROM i
        )
        SELECT user_id, CAST(max(vl) AS BIGINT) AS v_last,
               CAST(count(*) AS BIGINT) AS n,
               CAST(SUM(CASE WHEN cents < vl THEN 1 ELSE 0 END)
                    AS DOUBLE)
                 / CAST(NULLIF(count(*) - 1, 0) AS DOUBLE) AS pct
        FROM s GROUP BY user_id
    """,
    "spearman": """
        WITH i AS (
          SELECT user_id, epoch_us(ts) AS t,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
        ), r AS (
          SELECT user_id,
                 2*rank() OVER (PARTITION BY user_id ORDER BY t)
                   + count(*) OVER (PARTITION BY user_id, t) - 1 AS rx,
                 2*rank() OVER (PARTITION BY user_id ORDER BY cents)
                   + count(*) OVER (PARTITION BY user_id, cents) - 1
                   AS ry
          FROM i
        ), s AS (
          SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                 CAST(count(*) AS DOUBLE) AS nf,
                 CAST(sum(rx) AS DOUBLE) AS sx,
                 CAST(sum(ry) AS DOUBLE) AS sy,
                 CAST(sum(rx*rx) AS DOUBLE) AS sxx,
                 CAST(sum(ry*ry) AS DOUBLE) AS syy,
                 CAST(sum(rx*ry) AS DOUBLE) AS sxy
          FROM r GROUP BY user_id
        )
        SELECT user_id,
               (sxy - sx*sy/nf) /
                 (sqrt(sxx - sx*sx/nf) * sqrt(syy - sy*sy/nf))
                 AS spearman,
               n
        FROM s
    """,
    "transition_latency": """
        WITH s AS (
          SELECT user_id, event_type, ts,
                 lead(event_type) OVER w AS to_state,
                 lead(ts) OVER w AS to_ts
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT event_type AS from_state, to_state,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(epoch_us(to_ts) - epoch_us(ts)) AS BIGINT)
                 AS total_gap_us,
               CAST(sum(epoch_us(to_ts) - epoch_us(ts)) AS DOUBLE)
                 / CAST(count(*) AS DOUBLE) AS mean_gap_us,
               CAST(max(epoch_us(to_ts) - epoch_us(ts)) AS BIGINT)
                 AS max_gap_us
        FROM s WHERE to_state IS NOT NULL
        GROUP BY 1, 2
    """,
    "max_drawdown": """
        WITH i AS (
          SELECT user_id, ts,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
        ), w AS (
          SELECT user_id, cents,
                 max(cents) OVER (PARTITION BY user_id ORDER BY ts)
                   AS pk
          FROM i
        )
        SELECT user_id, CAST(max(pk - cents) AS BIGINT) AS max_dd
        FROM w GROUP BY user_id
    """,
    "rate_ci": """
        WITH f AS (
          SELECT event_type,
                 CASE WHEN value > 100 THEN 1 ELSE 0 END AS fl
          FROM events WHERE value IS NOT NULL
        ), a AS (
          SELECT event_type, CAST(sum(fl) AS BIGINT) AS k,
                 CAST(count(*) AS BIGINT) AS n
          FROM f GROUP BY event_type
        ), b AS (
          SELECT event_type, k, n,
                 CAST(k AS DOUBLE) / CAST(n AS DOUBLE) AS p,
                 CAST(n AS DOUBLE) AS nf,
                 CAST(1.959963984540054 AS DOUBLE) AS z
          FROM a
        ), c AS (
          SELECT *, 1.0 + (z*z)/nf AS d FROM b
        ), e AS (
          SELECT *,
                 (p + (z*z)/(2.0*nf)) / d AS center,
                 z * sqrt(p*(1.0-p)/nf + (z*z)/(4.0*nf*nf)) / d AS half
          FROM c
        )
        SELECT event_type, k, n, p AS rate,
               center - half AS ci_lo, center + half AS ci_hi
        FROM e
    """,
    "peak_concurrency": """
        WITH iv AS (
          SELECT user_id, ts AS s, ts + INTERVAL 1 HOUR AS e
          FROM events WHERE ts IS NOT NULL
        ), ev AS (
          SELECT user_id, s AS t, 1 AS d FROM iv
          UNION ALL SELECT user_id, e, -1 FROM iv
        ), c AS (
          SELECT user_id,
                 SUM(d) OVER (PARTITION BY user_id ORDER BY t, d
                              ROWS UNBOUNDED PRECEDING) AS conc
          FROM ev
        )
        SELECT user_id, CAST(max(conc) AS BIGINT) AS peak
        FROM c GROUP BY user_id
    """,
    "top_share": """
        WITH r AS (
          SELECT source, n_chars,
                 row_number() OVER (PARTITION BY source
                                    ORDER BY n_chars DESC, doc_id)
                   AS rn,
                 count(*) OVER (PARTITION BY source) AS n
          FROM documents
          WHERE n_chars IS NOT NULL AND doc_id IS NOT NULL
        )
        SELECT source,
               CAST(max(n) AS BIGINT) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS total_w,
               CAST(sum(CASE WHEN rn <= (n + 9) // 10
                             THEN n_chars ELSE 0 END) AS BIGINT)
                 AS top_w,
               CAST(sum(CASE WHEN rn <= (n + 9) // 10
                             THEN n_chars ELSE 0 END) AS DOUBLE)
                 / CAST(sum(n_chars) AS DOUBLE) AS top_share
        FROM r GROUP BY source
    """,
    "simpson_diversity": """
        WITH c AS (
          SELECT source, lang, CAST(count(*) AS BIGINT) AS cnt
          FROM documents WHERE lang IS NOT NULL
          GROUP BY source, lang
        ), a AS (
          SELECT source,
                 CAST(SUM(cnt*(cnt-1)) AS BIGINT) AS s,
                 CAST(SUM(cnt) AS BIGINT) AS n
          FROM c GROUP BY source
        )
        SELECT source,
               CAST(s AS DOUBLE) / CAST(n*(n-1) AS DOUBLE) AS simpson,
               n
        FROM a
    """,
    "corr_matrix": """
        WITH i AS (
          SELECT CAST(l_quantity AS BIGINT) AS q,
                 CAST(round(l_discount * 100) AS BIGINT) AS d,
                 CAST(round(l_tax * 100) AS BIGINT) AS t
          FROM lineitem
          WHERE l_quantity IS NOT NULL AND l_discount IS NOT NULL
            AND l_tax IS NOT NULL
        ), s AS (
          SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(count(*) AS DOUBLE) AS nf,
                 CAST(sum(q) AS DOUBLE) AS sq,
                 CAST(sum(d) AS DOUBLE) AS sd,
                 CAST(sum(t) AS DOUBLE) AS st,
                 CAST(sum(q*q) AS DOUBLE) AS sqq,
                 CAST(sum(d*d) AS DOUBLE) AS sdd,
                 CAST(sum(t*t) AS DOUBLE) AS stt,
                 CAST(sum(q*d) AS DOUBLE) AS sqd,
                 CAST(sum(q*t) AS DOUBLE) AS sqt,
                 CAST(sum(d*t) AS DOUBLE) AS sdt
          FROM i
        )
        SELECT 'qty' AS col_a, 'disc' AS col_b,
               (sqd - sq*sd/nf) /
                 (sqrt(sqq - sq*sq/nf) * sqrt(sdd - sd*sd/nf)) AS corr,
               n FROM s
        UNION ALL
        SELECT 'qty', 'tax',
               (sqt - sq*st/nf) /
                 (sqrt(sqq - sq*sq/nf) * sqrt(stt - st*st/nf)), n
        FROM s
        UNION ALL
        SELECT 'disc', 'tax',
               (sdt - sd*st/nf) /
                 (sqrt(sdd - sd*sd/nf) * sqrt(stt - st*st/nf)), n
        FROM s
    """,
    "nzv_report": """
        WITH u AS (
          SELECT 'rflag' AS col_name,
                 CAST(l_returnflag AS VARCHAR) AS val
          FROM lineitem WHERE l_returnflag IS NOT NULL
          UNION ALL
          SELECT 'lstat', CAST(l_linestatus AS VARCHAR)
          FROM lineitem WHERE l_linestatus IS NOT NULL
          UNION ALL
          SELECT 'qty', CAST(CAST(l_quantity AS BIGINT) AS VARCHAR)
          FROM lineitem WHERE l_quantity IS NOT NULL
          UNION ALL
          SELECT 'disc',
                 CAST(CAST(round(l_discount*100) AS BIGINT) AS VARCHAR)
          FROM lineitem WHERE l_discount IS NOT NULL
          UNION ALL
          SELECT 'const', '1' FROM lineitem
        ), a AS (
          SELECT col_name, val, CAST(count(*) AS BIGINT) AS cnt
          FROM u GROUP BY 1, 2
        ), r AS (
          SELECT col_name, cnt,
                 row_number() OVER (PARTITION BY col_name
                                    ORDER BY cnt DESC) AS rn,
                 SUM(cnt) OVER (PARTITION BY col_name) AS n,
                 COUNT(*) OVER (PARTITION BY col_name) AS nd
          FROM a
        ), x AS (
          SELECT col_name,
                 CAST(max(n) AS BIGINT) AS n_rows,
                 CAST(max(nd) AS BIGINT) AS n_distinct,
                 CAST(max(CASE WHEN rn = 1 THEN cnt END) AS BIGINT)
                   AS top_cnt,
                 CAST(coalesce(max(CASE WHEN rn = 2 THEN cnt END), 0)
                      AS BIGINT) AS second_cnt
          FROM r GROUP BY col_name
        )
        SELECT col_name, n_rows, n_distinct, top_cnt, second_cnt,
               CAST(top_cnt AS DOUBLE)
                 / CAST(NULLIF(second_cnt, 0) AS DOUBLE) AS freq_ratio,
               CAST(100 * n_distinct AS DOUBLE)
                 / CAST(n_rows AS DOUBLE) AS pct_unique,
               CAST(CASE WHEN second_cnt = 0
                          OR (top_cnt > 19 * second_cnt
                              AND 100 * n_distinct < 10 * n_rows)
                         THEN 1 ELSE 0 END AS BIGINT) AS nzv
        FROM x
    """,
    "grouped_ols2": """
        WITH i AS (
          SELECT l_returnflag, l_linestatus,
                 CAST(l_quantity AS BIGINT) AS x1,
                 CAST(round(l_discount * 100) AS BIGINT) AS x2,
                 CAST(round(l_tax * 100) AS BIGINT) AS y
          FROM lineitem
          WHERE l_quantity IS NOT NULL AND l_discount IS NOT NULL
            AND l_tax IS NOT NULL
        ), s AS (
          SELECT l_returnflag, l_linestatus, count(*) AS n,
                 CAST(count(*) AS DOUBLE) AS nf,
                 CAST(sum(x1) AS DOUBLE) AS s1,
                 CAST(sum(x2) AS DOUBLE) AS s2,
                 CAST(sum(y) AS DOUBLE) AS sy,
                 CAST(sum(x1*x1) AS DOUBLE) AS s11,
                 CAST(sum(x2*x2) AS DOUBLE) AS s22,
                 CAST(sum(x1*x2) AS DOUBLE) AS s12,
                 CAST(sum(x1*y) AS DOUBLE) AS s1y,
                 CAST(sum(x2*y) AS DOUBLE) AS s2y,
                 CAST(sum(y*y) AS DOUBLE) AS syy
          FROM i GROUP BY l_returnflag, l_linestatus
        ), c AS (
          SELECT *,
                 s11 - s1*s1/nf AS c11,
                 s22 - s2*s2/nf AS c22,
                 s12 - s1*s2/nf AS c12,
                 s1y - s1*sy/nf AS c1y,
                 s2y - s2*sy/nf AS c2y
          FROM s
        ), d AS (
          SELECT *,
                 (c22*c1y - c12*c2y) / (c11*c22 - c12*c12) AS b1,
                 (c11*c2y - c12*c1y) / (c11*c22 - c12*c12) AS b2
          FROM c
        )
        SELECT l_returnflag, l_linestatus,
               sy/nf - b1*(s1/nf) - b2*(s2/nf) AS b0,
               b1, b2,
               (b1*c1y + b2*c2y) / (syy - sy*sy/nf) AS r2,
               CAST(n AS BIGINT) AS n
        FROM d
    """,
    "association_rules": """
        WITH di AS (
          SELECT DISTINCT user_id AS g, event_type AS it
          FROM events
          WHERE event_type IS NOT NULL AND user_id IS NOT NULL
        ), nb AS (SELECT count(DISTINCT g) AS n FROM di),
        ic AS (
          SELECT it, CAST(count(*) AS BIGINT) AS n_item
          FROM di GROUP BY it
        ), pc AS (
          SELECT a.it AS ia, b.it AS ib,
                 CAST(count(*) AS BIGINT) AS n_both
          FROM di a JOIN di b ON a.g = b.g AND a.it < b.it
          GROUP BY a.it, b.it
        ), dr AS (
          SELECT ia AS ante, ib AS cons, n_both FROM pc
          UNION ALL SELECT ib, ia, n_both FROM pc
        )
        SELECT d.ante, d.cons, d.n_both,
               x.n_item AS n_ante, y.n_item AS n_cons,
               CAST(d.n_both AS DOUBLE) / CAST(nb.n AS DOUBLE)
                 AS support,
               CAST(d.n_both AS DOUBLE) / CAST(x.n_item AS DOUBLE)
                 AS confidence,
               CAST(d.n_both * nb.n AS DOUBLE) /
                 CAST(x.n_item * y.n_item AS DOUBLE) AS lift
        FROM dr d
        JOIN ic x ON x.it = d.ante
        JOIN ic y ON y.it = d.cons
        CROSS JOIN nb
    """,
    "triangle_parts": """
        WITH b AS (
          SELECT DISTINCT l_orderkey AS o, l_partkey AS p
          FROM lineitem WHERE l_partkey % 5 = 0
        ), e AS (
          SELECT DISTINCT x.p AS u, y.p AS v
          FROM b x JOIN b y ON x.o = y.o AND x.p < y.p
        ), t AS (
          SELECT e1.u AS a, e1.v AS bb, e2.v AS cc
          FROM e e1 JOIN e e2 ON e2.u = e1.v
                    JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
        ), n AS (
          SELECT a AS node FROM t
          UNION ALL SELECT bb FROM t
          UNION ALL SELECT cc FROM t
        )
        SELECT node, CAST(count(*) AS BIGINT) AS tri_count
        FROM n GROUP BY node
    """,
    "theil_sen": """
        WITH d AS (
          SELECT user_id,
                 epoch_us(ts) // 86400000000 AS day,
                 SUM(CAST(round(value * 100) AS BIGINT)) AS cents
          FROM events WHERE value IS NOT NULL
          GROUP BY user_id, epoch_us(ts) // 86400000000
        ), s AS (
          SELECT a.user_id,
                 CAST(b.cents - a.cents AS DOUBLE)
                   / CAST(b.day - a.day AS DOUBLE) AS slope
          FROM d a JOIN d b
            ON a.user_id = b.user_id AND b.day > a.day
        )
        SELECT user_id,
               quantile_disc(slope, 0.5) AS theil_sen,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM s GROUP BY user_id
    """,
    "event_trigrams": """
        SELECT ev1, ev2, ev3, CAST(count(*) AS BIGINT) AS cnt
        FROM (
          SELECT event_type AS ev1,
                 lead(event_type, 1) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS ev2,
                 lead(event_type, 2) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS ev3
          FROM events
        ) WHERE ev2 IS NOT NULL AND ev3 IS NOT NULL
        GROUP BY ev1, ev2, ev3
    """,
    "impute_zero": f"""
        SELECT event_id, coalesce({_VALN_SQL}, 0) AS valn FROM events
    """,
    "impute_ffill": f"""
        SELECT event_id,
               last_value({_VALN_SQL} IGNORE NULLS) OVER ({_EXP}) AS valn
        FROM events
    """,
    "impute_bfill": f"""
        SELECT event_id,
               first_value({_VALN_SQL} IGNORE NULLS) OVER
                 ({_WIN} ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS valn
        FROM events
    """,
    "impute_group_mean": f"""
        SELECT event_id,
               coalesce({_VALN_SQL},
                        avg({_VALN_SQL}) OVER (PARTITION BY user_id)) AS valn
        FROM events
    """,
    "impute_global_mean": f"""
        SELECT event_id,
               coalesce({_VALN_SQL}, (SELECT avg({_VALN_SQL}) FROM events)) AS valn
        FROM events
    """,
    "historical": f"""
        WITH ev AS (SELECT event_id, user_id, ts, {_VALN_SQL} AS v FROM events)
        SELECT event_id,
               CASE WHEN v IS NULL THEN NULL ELSE min(v) OVER ({_EXP}) END AS valn_min,
               CASE WHEN v IS NULL THEN NULL ELSE max(v) OVER ({_EXP}) END AS valn_max,
               avg(v) OVER ({_EXP}) AS valn_mean,
               CAST(count(v) OVER ({_EXP}) AS BIGINT) AS valn_count,
               var_samp(v) OVER ({_EXP}) AS valn_var,
               median(v) OVER ({_EXP}) AS valn_median,
               sum(v) OVER ({_EXP}) AS valn_sum
        FROM ev
    """,
    "hist_lineitem": """
        SELECT l_orderkey, l_linenumber,
               avg(l_quantity) OVER w AS l_quantity_mean,
               max(l_quantity) OVER w AS l_quantity_max,
               lag(l_extendedprice) OVER
                 (PARTITION BY l_orderkey
                  ORDER BY l_linenumber, l_quantity, l_extendedprice)
                 AS l_extendedprice_lag1
        FROM lineitem
        WINDOW w AS (PARTITION BY l_orderkey
                     ORDER BY l_linenumber, l_quantity, l_extendedprice
                     ROWS UNBOUNDED PRECEDING)
    """,
    "rolling": f"""
        WITH ev AS (SELECT event_id, user_id, ts, {_VALN_SQL} AS v FROM events)
        SELECT event_id,
               avg(v) OVER w AS valn_r5mean,
               max(v) OVER w AS valn_r5max,
               CAST(count(v) OVER w AS BIGINT) AS valn_r5cnt,
               sum(v) OVER w AS valn_r5sum
        FROM ev
        WINDOW w AS ({_WIN} ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
    """,
    "lag_lead": f"""
        WITH ev AS (SELECT event_id, user_id, ts, {_VALN_SQL} AS v FROM events)
        SELECT event_id,
               lag(v) OVER ({_WIN}) AS valn_lag1,
               lead(v) OVER ({_WIN}) AS valn_lead1,
               v - lag(v) OVER ({_WIN}) AS valn_diff1
        FROM ev
    """,
    "sessionize": f"""
        WITH g AS (
          SELECT event_id, user_id, ts,
                 CASE WHEN ts - lag(ts) OVER ({_WIN}) > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS brk
          FROM events
        )
        SELECT event_id,
               CAST(sum(brk) OVER ({_EXP}) AS BIGINT) AS session_id
        FROM g
    """,
    "session_stats": f"""
        WITH g AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN ts - lag(ts) OVER ({_WIN}) > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS brk
          FROM events
        ),
        s AS (
          SELECT user_id, sum(brk) OVER ({_EXP}) AS session_id
          FROM g
        ),
        sl AS (
          SELECT user_id, session_id, count(*) AS n
          FROM s GROUP BY user_id, session_id
        )
        SELECT user_id,
               CAST(count(*) AS BIGINT) AS n_sessions,
               CAST(max(n) AS BIGINT) AS max_session_events,
               CAST(sum(n) AS BIGINT) AS n_events
        FROM sl GROUP BY user_id
    """,
    "scale_standard": f"""
        WITH s AS (SELECT avg({_VALN_SQL}) AS m, stddev_pop({_VALN_SQL}) AS sd
                   FROM events)
        SELECT event_id, ({_VALN_SQL} - s.m) / s.sd AS valn FROM events, s
    """,
    "scale_minmax": f"""
        WITH s AS (SELECT min({_VALN_SQL}) AS lo, max({_VALN_SQL}) AS hi
                   FROM events)
        SELECT event_id, ({_VALN_SQL} - s.lo) / (s.hi - s.lo) AS valn
        FROM events, s
    """,
    "scale_robust": f"""
        WITH s AS (SELECT quantile_cont({_VALN_SQL}, 0.5) AS med,
                          quantile_cont({_VALN_SQL}, 0.75)
                            - quantile_cont({_VALN_SQL}, 0.25) AS iqr
                   FROM events)
        SELECT event_id, ({_VALN_SQL} - s.med) / s.iqr AS valn FROM events, s
    """,
    "binarize": f"""
        SELECT event_id,
               CASE WHEN {_VALN_SQL} IS NULL THEN NULL
                    WHEN {_VALN_SQL} > 5.0 THEN 1.0 ELSE 0.0 END AS valn
        FROM events
    """,
    "kbins_uniform": f"""
        WITH s AS (SELECT min({_VALN_SQL}) AS lo, max({_VALN_SQL}) AS hi
                   FROM events)
        SELECT event_id,
               CASE WHEN {_VALN_SQL} IS NULL THEN NULL
                    ELSE least(floor(({_VALN_SQL} - s.lo)
                               / ((s.hi - s.lo) / 4)), 3) END AS valn
        FROM events, s
    """,
    "encode_ordinal": """
        SELECT e.event_id, c.code AS event_type_code
        FROM events e
        JOIN (SELECT event_type,
                     CAST(row_number() OVER (ORDER BY event_type) - 1 AS BIGINT)
                       AS code
              FROM (SELECT DISTINCT event_type FROM events)) c
          USING (event_type)
    """,
    "encode_onehot": """
        SELECT event_id,
               CASE WHEN event_type = 'click' THEN 1.0 ELSE 0.0 END AS et_click,
               CASE WHEN event_type = 'error' THEN 1.0 ELSE 0.0 END AS et_error,
               CASE WHEN event_type = 'purchase' THEN 1.0 ELSE 0.0 END AS et_purchase,
               CASE WHEN event_type = 'signup' THEN 1.0 ELSE 0.0 END AS et_signup,
               CASE WHEN event_type = 'view' THEN 1.0 ELSE 0.0 END AS et_view
        FROM events
    """,
    "resample_agg_1h": """
        SELECT user_id, date_trunc('hour', ts) AS ts,
               avg(value) AS value_mean, max(value) AS value_max,
               CAST(count(value) AS BIGINT) AS value_cnt
        FROM events GROUP BY 1, 2
    """,
    "resample_grid_1h": f"""
        WITH ev AS (SELECT user_id, ts, event_id, {_VALN_SQL} AS valn
                    FROM events),
        bounds AS (SELECT user_id, min(ts) AS mn, max(ts) AS mx
                   FROM ev GROUP BY user_id),
        spans AS (SELECT user_id, mn,
                         CAST(floor(epoch(mx - mn) / 3600) AS BIGINT) AS nsteps
                  FROM bounds),
        ks AS (SELECT k FROM generate_series(0, 100000) t(k)),
        grid AS (SELECT s.user_id, s.mn + to_seconds(k * 3600) AS ts
                 FROM spans s JOIN ks ON ks.k <= s.nsteps),
        firsts AS (SELECT user_id, ts, min(event_id) AS eid
                   FROM ev GROUP BY user_id, ts),
        joined AS (SELECT g.user_id, g.ts, v.valn
                   FROM grid g
                   LEFT JOIN firsts f ON f.user_id = g.user_id AND f.ts = g.ts
                   LEFT JOIN ev v ON v.user_id = f.user_id AND v.ts = f.ts
                                  AND v.event_id = f.eid)
        SELECT user_id, ts,
               last_value(valn IGNORE NULLS) OVER
                 (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING)
                 AS valn
        FROM joined
    """,
    "asof_purchase": """
        WITH p AS (
          SELECT user_id, ts, value AS purch_value FROM events
          WHERE event_type = 'purchase'
          QUALIFY row_number() OVER (PARTITION BY user_id, ts
                                     ORDER BY event_id) = 1
        )
        SELECT e.event_id, p.purch_value
        FROM events e ASOF LEFT JOIN p
          ON e.user_id = p.user_id AND e.ts >= p.ts
    """,
    "pivot_event_counts": """
        SELECT user_id,
               count(CASE WHEN event_type = 'click' THEN value END) AS click,
               count(CASE WHEN event_type = 'error' THEN value END) AS error,
               count(CASE WHEN event_type = 'purchase' THEN value END)
                 AS purchase,
               count(CASE WHEN event_type = 'signup' THEN value END)
                 AS signup,
               count(CASE WHEN event_type = 'view' THEN value END) AS "view"
        FROM events GROUP BY user_id
    """,
    "melt_lineitem": """
        SELECT l_orderkey, l_linenumber, 'l_quantity' AS variable,
               CAST(l_quantity AS DOUBLE) AS value FROM lineitem
        UNION ALL
        SELECT l_orderkey, l_linenumber, 'l_extendedprice',
               CAST(l_extendedprice AS DOUBLE) FROM lineitem
        UNION ALL
        SELECT l_orderkey, l_linenumber, 'l_discount',
               CAST(l_discount AS DOUBLE) FROM lineitem
    """,
    "event_paths": """
        SELECT user_id,
               string_agg(event_type, ',' ORDER BY ts, event_id) AS path
        FROM events GROUP BY user_id
    """,
    "weighted_sample": """
        SELECT event_id, user_id, value FROM (
          SELECT event_id, user_id, value,
                 value / ((CAST(hash(event_id) AS DOUBLE) + 1)
                          / 18446744073709551616.0) AS prio
          FROM events WHERE value > 0
        ) ORDER BY prio DESC, event_id LIMIT 50
    """,
    "cume_dist": """
        SELECT l_orderkey, l_linenumber,
               cume_dist() OVER (ORDER BY l_extendedprice, l_orderkey,
                                 l_linenumber) AS cd
        FROM lineitem
    """,
    "mode_event": """
        SELECT user_id, mode_event, mode_cnt FROM (
          SELECT user_id, event_type AS mode_event,
                 CAST(count(*) AS BIGINT) AS mode_cnt,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY count(*) DESC, event_type)
                   AS rn
          FROM events WHERE event_type IS NOT NULL
          GROUP BY user_id, event_type
        ) WHERE rn = 1
    """,
    "event_entropy": """
        WITH c AS (
          SELECT user_id, event_type, CAST(count(*) AS DOUBLE) AS cnt
          FROM events WHERE event_type IS NOT NULL
          GROUP BY user_id, event_type
        ), tot AS (SELECT user_id, sum(cnt) AS tt FROM c GROUP BY user_id)
        SELECT c.user_id, sum((cnt / tt) * ln(tt / cnt)) AS value_entropy
        FROM c JOIN tot USING (user_id) GROUP BY c.user_id
    """,
    "grouped_corr": """
        WITH i AS (
          SELECT l_returnflag,
                 CAST(l_quantity AS BIGINT) AS x,
                 CAST(round(l_discount * 100) AS BIGINT) AS y
          FROM lineitem
          WHERE l_quantity IS NOT NULL AND l_discount IS NOT NULL
        ), s AS (
          SELECT l_returnflag, count(*) AS n,
                 CAST(sum(x) AS DOUBLE) AS sx, CAST(sum(y) AS DOUBLE) AS sy,
                 CAST(sum(x*x) AS DOUBLE) AS sxx,
                 CAST(sum(y*y) AS DOUBLE) AS syy,
                 CAST(sum(x*y) AS DOUBLE) AS sxy
          FROM i GROUP BY l_returnflag)
        SELECT l_returnflag, CAST(n AS BIGINT) AS n,
               (sxy - sx*sy/n) / (n-1) AS cov_xy,
               ((sxy - sx*sy/n) / (n-1)) /
               (sqrt((sxx - sx*sx/n)/(n-1)) *
                sqrt((syy - sy*sy/n)/(n-1))) AS corr_xy
        FROM s
    """,
    "value_ranks": """
        SELECT l_orderkey, l_linenumber,
               CAST(dense_rank() OVER (ORDER BY l_quantity) AS BIGINT)
                 AS dense_rank,
               percent_rank() OVER (ORDER BY l_quantity) AS pct_rank
        FROM lineitem
    """,
    "merge_intervals": """
        WITH iv AS (
          SELECT user_id, epoch_us(ts) AS s,
                 epoch_us(ts) + ((event_id % 100) + 1) * 60000000 AS e
          FROM events
        ), x AS (
          SELECT user_id, s, e,
                 max(e) OVER (PARTITION BY user_id ORDER BY s, e
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS pm
          FROM iv
        ), y AS (
          SELECT user_id, s, e,
                 CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END AS brk
          FROM x
        ), z AS (
          SELECT user_id, s, e,
                 sum(brk) OVER (PARTITION BY user_id ORDER BY s, e
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) AS isl
          FROM y
        )
        SELECT user_id, min(s) AS span_start, max(e) AS span_end,
               CAST(count(*) AS BIGINT) AS n_merged
        FROM z GROUP BY user_id, isl
    """,
    "target_encode": """
        WITH s AS (
          SELECT event_type AS c, CAST(count(value) AS BIGINT) AS n_c,
                 sum(value) AS s_c
          FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL
          GROUP BY event_type
        ), g AS (
          SELECT CAST(count(value) AS BIGINT) AS n, sum(value) AS sy
          FROM events WHERE event_type IS NOT NULL AND value IS NOT NULL
        )
        SELECT event_id,
               coalesce((s.s_c + 20.0 * (g.sy / g.n)) / (s.n_c + 20.0),
                        g.sy / g.n) AS te_event_type,
               coalesce(CAST(s.n_c AS DOUBLE) / g.n, 0.0)
                 AS freq_event_type
        FROM events
        LEFT JOIN s ON events.event_type = s.c
        CROSS JOIN g
    """,
    "pca_embeddings": """
        SELECT vec_id, pc0, pc1, pc2, pc3
        FROM read_parquet('/root/repo/expected/pca_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' || CAST(sum(label) AS BIGINT)
                            FROM embeddings)
    """,
    "pmi_bigrams": r"""
        WITH w AS (
          SELECT regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ), b AS (
          SELECT ws[CAST(i AS BIGINT)] || ' '
                 || ws[CAST(i AS BIGINT) + 1] AS bigram
          FROM w, UNNEST(generate_series(1, greatest(len(ws) - 1, 0)))
                    AS g(i)
        ), bc AS (
          SELECT bigram, CAST(count(*) AS BIGINT) AS cnt
          FROM b GROUP BY bigram
        ), nb AS (SELECT CAST(count(*) AS BIGINT) AS n FROM b),
        u AS (SELECT unnest(ws) AS tok FROM w),
        uc AS (
          SELECT tok, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY tok
        ), n1 AS (SELECT CAST(count(*) AS BIGINT) AS n FROM u),
        top AS (
          SELECT bigram, cnt,
                 split_part(bigram, ' ', 1) AS t1,
                 split_part(bigram, ' ', 2) AS t2
          FROM bc ORDER BY cnt DESC, bigram ASC LIMIT 100
        )
        SELECT top.bigram, top.cnt,
               ln((CAST(top.cnt AS DOUBLE) / nb.n) /
                  ((CAST(c1.c AS DOUBLE) / n1.n)
                   * (CAST(c2.c AS DOUBLE) / n1.n))) AS pmi
        FROM top
        JOIN uc c1 ON c1.tok = top.t1
        JOIN uc c2 ON c2.tok = top.t2
        CROSS JOIN nb CROSS JOIN n1
    """,
    "event_transitions": """
        SELECT from_event, to_event, CAST(count(*) AS BIGINT) AS cnt
        FROM (
          SELECT event_type AS from_event,
                 lead(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS to_event
          FROM events
        ) WHERE to_event IS NOT NULL
        GROUP BY from_event, to_event
    """,
    "benford": """
        WITH c AS (
          SELECT CAST(round(value * 100) AS BIGINT) AS cents FROM events
        )
        SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit,
               CAST(count(*) AS BIGINT) AS cnt
        FROM c WHERE cents > 0
        GROUP BY digit
    """,
    "grouped_minmax": """
        WITH c AS (
          SELECT event_id, user_id,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        ),
        s AS (
          SELECT user_id, min(cents) AS mn, max(cents) AS mx
          FROM c GROUP BY user_id
        )
        SELECT c.event_id, c.user_id, c.cents,
               CASE WHEN s.mx = s.mn THEN NULL
                    ELSE CAST(c.cents - s.mn AS DOUBLE)
                         / CAST(s.mx - s.mn AS DOUBLE)
               END AS val_mm
        FROM c JOIN s USING (user_id)
    """,
    "state_runs": f"""
        WITH g AS (
          SELECT user_id, ts, event_id, event_type,
                 CASE WHEN event_type IS DISTINCT FROM
                           lag(event_type) OVER ({_WIN})
                      THEN 1 ELSE 0 END AS brk
          FROM events
        ),
        r AS (
          SELECT user_id, sum(brk) OVER ({_EXP}) AS run_id FROM g
        ),
        runs AS (
          SELECT user_id, run_id, count(*) AS rl
          FROM r GROUP BY user_id, run_id
        )
        SELECT user_id,
               CAST(count(*) AS BIGINT) AS n_runs,
               CAST(max(rl) AS BIGINT) AS max_run_len,
               CAST(sum(rl) AS BIGINT) AS n_events
        FROM runs GROUP BY user_id
    """,
    "cumulative_distinct": """
        SELECT user_id, ts, event_id,
               CAST(count(DISTINCT event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
               ) AS BIGINT) AS n_distinct_types
        FROM events
    """,
    "interarrival": """
        WITH g AS (
          SELECT user_id,
                 epoch_us(ts) - lag(epoch_us(ts)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                 ) AS gap
          FROM events
        )
        SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps,
               CAST(sum(gap) AS DOUBLE) / CAST(count(gap) AS DOUBLE)
                   AS avg_gap_us,
               CAST(max(gap) AS BIGINT) AS max_gap_us,
               CAST(quantile_disc(gap, 0.5) AS BIGINT) AS p50_gap_us
        FROM g WHERE gap IS NOT NULL GROUP BY user_id
    """,
    "bigram_lm": r"""
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        b AS (
          SELECT doc_id, ws[CAST(i AS BIGINT)] AS ctx,
                 ws[CAST(i AS BIGINT)] || ' '
                   || ws[CAST(i AS BIGINT) + 1] AS bg
          FROM w, UNNEST(generate_series(1, greatest(len(ws) - 1, 0)))
                    AS g(i)
        ),
        bv AS (
          SELECT bg, CAST(count(*) AS BIGINT) AS c
          FROM b GROUP BY bg ORDER BY c DESC, bg ASC LIMIT 20
        ),
        uv AS (
          SELECT token, CAST(count(*) AS BIGINT) AS c FROM (
            SELECT unnest(ws) AS token FROM w
          ) GROUP BY token ORDER BY c DESC, token ASC LIMIT 20
        ),
        per_doc AS (
          SELECT b.doc_id,
                 CAST(count(*) AS BIGINT) AS n_bigrams,
                 CAST(sum(CASE WHEN bv.c IS NULL THEN 0 ELSE 1 END)
                      AS BIGINT) AS known_bigrams,
                 CAST(coalesce(sum(bv.c), 0) AS BIGINT)
                   AS bigram_count_sum,
                 CAST(coalesce(sum(uv.c), 0) AS BIGINT) AS ctx_count_sum
          FROM b LEFT JOIN bv USING (bg)
                 LEFT JOIN uv ON b.ctx = uv.token
          GROUP BY b.doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(p.n_bigrams, 0) AS BIGINT) AS n_bigrams,
               CAST(coalesce(p.known_bigrams, 0) AS BIGINT)
                 AS known_bigrams,
               CAST(coalesce(p.bigram_count_sum, 0) AS BIGINT)
                 AS bigram_count_sum,
               CAST(coalesce(p.ctx_count_sum, 0) AS BIGINT)
                 AS ctx_count_sum,
               CASE WHEN coalesce(p.n_bigrams, 0) > 0
                    THEN CAST(p.known_bigrams AS DOUBLE) / p.n_bigrams
                    ELSE NULL END AS known_rate
        FROM documents d LEFT JOIN per_doc p USING (doc_id)
    """,
    "first_last": """
        SELECT user_id,
               first(event_type ORDER BY ts, event_id)
                   AS first_event_type,
               last(event_type ORDER BY ts, event_id)
                   AS last_event_type
        FROM events GROUP BY user_id
    """,
    "decayed_sum": f"""
        WITH b AS (
          SELECT user_id, ts, event_id, {_VALN_SQL} AS v FROM events
        ), l AS (
          SELECT user_id, ts, event_id, v,
                 lag(v, 1) OVER w AS l1,
                 lag(v, 2) OVER w AS l2,
                 lag(v, 3) OVER w AS l3
          FROM b WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), e AS (
          SELECT user_id, ts, event_id,
                 coalesce(v, 0) + 0.5 * coalesce(l1, 0)
                   + 0.25 * coalesce(l2, 0)
                   + 0.125 * coalesce(l3, 0) AS num,
                 (CASE WHEN v IS NOT NULL THEN 1.0 ELSE 0.0 END)
                   + 0.5 * (CASE WHEN l1 IS NOT NULL THEN 1.0
                            ELSE 0.0 END)
                   + 0.25 * (CASE WHEN l2 IS NOT NULL THEN 1.0
                             ELSE 0.0 END)
                   + 0.125 * (CASE WHEN l3 IS NOT NULL THEN 1.0
                              ELSE 0.0 END) AS den
          FROM l
        )
        SELECT user_id, ts, event_id,
               CASE WHEN den = 0 THEN NULL ELSE num / den END AS decayed
        FROM e
    """,
    "cms_counts": """
        WITH seeds AS (SELECT unnest(range(0, 4)) AS j),
        buckets AS (
          SELECT s.j, hash(xor(e.user_id, s.j * 1099511628211)) % 512 AS b,
                 CAST(count(*) AS BIGINT) AS tot
          FROM events e CROSS JOIN seeds s GROUP BY s.j, b
        ),
        q AS (SELECT unnest(range(0, 50)) AS user_id)
        -- LEFT join: a queried key hashing into an EMPTY bucket
        -- estimates 0 (the sketch grid is zero-initialized); an inner
        -- join silently dropped such keys at tiny scales where most of
        -- the 4x512 grid is empty
        SELECT q.user_id, CAST(min(coalesce(bk.tot, 0)) AS BIGINT) AS est
        FROM q
        JOIN seeds s ON true
        LEFT JOIN buckets bk
          ON bk.j = s.j
         AND bk.b = hash(xor(q.user_id, s.j * 1099511628211)) % 512
        GROUP BY q.user_id
    """,
    "time_split": """
        SELECT event_id,
               CASE WHEN ts <= (SELECT quantile_disc(ts, 0.8) FROM events)
                    THEN 'train' ELSE 'test' END AS split
        FROM events
    """,
    "grouped_robust": """
        WITH med AS (
          SELECT l_suppkey, quantile_disc(l_quantity, 0.5) AS med
          FROM lineitem GROUP BY l_suppkey
        ), d AS (
          SELECT l.l_orderkey, l.l_linenumber, l.l_suppkey,
                 l.l_quantity - m.med AS dev
          FROM lineitem l JOIN med m ON l.l_suppkey = m.l_suppkey
        ), mad AS (
          SELECT l_suppkey, quantile_disc(abs(dev), 0.5) AS mad
          FROM d GROUP BY l_suppkey
        )
        SELECT d.l_orderkey, d.l_linenumber,
               d.dev / m2.mad AS rz,
               abs(d.dev) > 2.5 * m2.mad AS is_outlier
        FROM d JOIN mad m2 ON d.l_suppkey = m2.l_suppkey
    """,
    "feature_hash": r"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS token
          FROM documents
        )
        SELECT doc_id, CAST(hash(token) % 256 AS BIGINT) AS bucket,
               CAST(sum(CASE WHEN (hash(token) // 256) % 2 = 0
                             THEN 1 ELSE -1 END) AS BIGINT) AS weight
        FROM tok GROUP BY doc_id, bucket
    """,
    "grouped_auc": """
        WITH c AS (
          SELECT user_id, value AS s,
                 CAST(sum(CASE WHEN event_id % 3 = 0 THEN 1 ELSE 0 END)
                      AS BIGINT) AS pos,
                 CAST(sum(CASE WHEN event_id % 3 = 0 THEN 0 ELSE 1 END)
                      AS BIGINT) AS neg
          FROM events WHERE value IS NOT NULL
          GROUP BY user_id, value
        ), w AS (
          SELECT user_id, pos, neg,
                 COALESCE(sum(neg) OVER (
                     PARTITION BY user_id ORDER BY s
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                 ), 0) AS cumneg
          FROM c
        )
        SELECT user_id,
               CAST(sum(pos*(2*cumneg+neg)) AS DOUBLE)
                 / CAST(2*sum(pos)*sum(neg) AS DOUBLE) AS auc,
               CAST(sum(pos) AS BIGINT) AS n_pos,
               CAST(sum(neg) AS BIGINT) AS n_neg
        FROM w GROUP BY user_id
        HAVING sum(pos) > 0 AND sum(neg) > 0
    """,
    "distinct_users_hll": """
        SELECT event_type, n_distinct_approx
        FROM read_parquet('/root/repo/expected/distinct_hll_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(user_id) AS BIGINT) FROM events)
    """,
    "winsorize": """
        WITH b AS (
          SELECT quantile_disc(l_extendedprice, 0.05) AS lo,
                 quantile_disc(l_extendedprice, 0.95) AS hi
          FROM lineitem
        )
        SELECT l_orderkey, l_linenumber,
               least(greatest(l_extendedprice, b.lo), b.hi) AS clipped
        FROM lineitem, b
    """,
    "robust_outliers": """
        WITH m AS (
          SELECT quantile_disc(l_extendedprice, 0.5) AS med FROM lineitem
        ),
        d AS (
          SELECT quantile_disc(abs(l_extendedprice - m.med), 0.5) AS mad
          FROM lineitem, m
        )
        SELECT l_orderkey, l_linenumber,
               (l_extendedprice - m.med) / d.mad AS rz,
               abs(l_extendedprice - m.med) > 2.5 * d.mad AS is_outlier
        FROM lineitem, m, d
    """,
    "rollup_doc_stats": """
        SELECT CAST(grouping(source, lang) AS BIGINT) AS gid,
               source, lang,
               CAST(count(*) AS BIGINT) AS cnt,
               CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
        FROM documents
        GROUP BY ROLLUP(source, lang)
    """,
    "funnel_latency": """
        WITH v AS (
          SELECT user_id, min(ts) AS ts_view FROM events
          WHERE event_type = 'view' GROUP BY user_id
        ),
        c AS (
          SELECT e.user_id, min(e.ts) AS ts_click
          FROM events e JOIN v USING (user_id)
          WHERE e.event_type = 'click' AND e.ts > v.ts_view
          GROUP BY e.user_id
        ),
        p AS (
          SELECT e.user_id, min(e.ts) AS ts_purchase
          FROM events e JOIN c USING (user_id)
          WHERE e.event_type = 'purchase' AND e.ts > c.ts_click
          GROUP BY e.user_id
        )
        SELECT p.user_id,
               CAST(epoch_us(c.ts_click) - epoch_us(v.ts_view)
                    AS BIGINT) AS v2c_us,
               CAST(epoch_us(p.ts_purchase) - epoch_us(c.ts_click)
                    AS BIGINT) AS c2p_us
        FROM p JOIN c USING (user_id) JOIN v USING (user_id)
    """,
    "churn_labels": """
        WITH d AS (
          SELECT DISTINCT user_id,
                 epoch_us(ts) // 86400000000 AS day
          FROM events WHERE ts IS NOT NULL
        )
        SELECT user_id, day,
               CAST(CASE WHEN lead(day) OVER (PARTITION BY user_id
                                              ORDER BY day) IS NULL
                          OR lead(day) OVER (PARTITION BY user_id
                                             ORDER BY day) - day > 7
                         THEN 1 ELSE 0 END AS BIGINT) AS churned
        FROM d
    """,
    "longest_streak": """
        WITH d AS (
          SELECT DISTINCT user_id,
                 epoch_us(ts) // 86400000000 AS day
          FROM events WHERE ts IS NOT NULL
        ), i AS (
          SELECT user_id,
                 day - row_number() OVER (PARTITION BY user_id
                                          ORDER BY day) AS isl
          FROM d
        ), s AS (
          SELECT user_id, isl, count(*) AS len
          FROM i GROUP BY user_id, isl
        )
        SELECT user_id, CAST(max(len) AS BIGINT) AS streak
        FROM s GROUP BY user_id
    """,
    "cube_doc_stats": """
        SELECT CAST(grouping(source, lang) AS BIGINT) AS gid,
               source, lang,
               CAST(count(*) AS BIGINT) AS cnt,
               CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
        FROM documents
        GROUP BY CUBE(source, lang)
    """,
    "frequent_tokens": r"""
        WITH tok AS (
          SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS token
          FROM documents
        ),
        tot AS (SELECT count(*) AS n FROM tok)
        SELECT token, CAST(count(*) AS BIGINT) AS count
        FROM tok, tot GROUP BY token, tot.n
        HAVING count(*) >= CEIL(0.02 * tot.n)
    """,
    "ntile": """
        SELECT o_orderkey,
               NTILE(8) OVER (ORDER BY o_totalprice, o_orderkey) AS bucket
        FROM orders
    """,
    "group_quantiles": """
        SELECT l_returnflag,
               quantile_cont(l_quantity, 0.25) AS q25,
               quantile_cont(l_quantity, 0.50) AS q50,
               quantile_cont(l_quantity, 0.75) AS q75
        FROM lineitem GROUP BY l_returnflag
    """,
    "range_join_clicks": """
        SELECT p.event_id AS p_event, c.event_id AS c_event,
               c.value AS c_value
        FROM events p JOIN events c
          ON c.user_id = p.user_id
         AND c.ts BETWEEN p.ts - INTERVAL 24 HOUR AND p.ts
        WHERE p.event_type = 'purchase' AND c.event_type = 'click'
    """,
    "window_click_stats": """
        SELECT p.event_id AS p_event, count(c.event_id) AS n_clicks,
               CAST(sum(c.event_id) AS BIGINT) AS click_id_sum
        FROM events p LEFT JOIN events c
          ON c.user_id = p.user_id AND c.event_type = 'click'
         AND c.ts BETWEEN p.ts - INTERVAL 24 HOUR AND p.ts
        WHERE p.event_type = 'purchase'
        GROUP BY p.event_id
    """,
    "dedup_exact": """
        SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS n_dups
        FROM documents GROUP BY text
    """,
    "text_stats": r"""
        SELECT doc_id,
               CAST(length(text) AS BIGINT) AS n_chars_calc,
               CAST(length(regexp_extract_all(text, '\w+')) AS BIGINT) AS n_words,
               CAST(length(regexp_extract_all(text, '\w+|[^\w\s]')) AS BIGINT)
                 AS token_count
        FROM documents
    """,
    "quantile_transform": f"""
        WITH ev AS (SELECT event_id, {_VALN_SQL} AS v FROM events),
        nn AS (SELECT count(v) AS n FROM ev),
        ranked AS (
          SELECT event_id, v,
                 rank() OVER (ORDER BY v) AS r_asc,
                 rank() OVER (ORDER BY v DESC) AS r_desc
          FROM ev WHERE v IS NOT NULL
        )
        SELECT e.event_id,
               CASE WHEN e.v IS NULL THEN NULL
                    ELSE ((r.r_asc + (nn.n - r.r_desc + 1)) / 2.0 - 1)
                         / (nn.n - 1) END AS valn
        FROM ev e LEFT JOIN ranked r USING (event_id), nn
    """,
    "power_yj": f"""
        WITH ev AS (SELECT event_id, {_VALN_SQL} AS v FROM events),
        c AS (SELECT sum(sign(v) * ln(1 + abs(v))) AS cterm, count(v) AS n
              FROM ev),
        psi1 AS (
          SELECT g.lam, CASE WHEN v >= 0 THEN
                   CASE WHEN abs(g.lam) < 1e-12 THEN ln(1 + v)
                        ELSE (pow(v + 1, g.lam) - 1) / g.lam END
                 ELSE
                   CASE WHEN abs(2 - g.lam) < 1e-12 THEN -ln(1 - v)
                        ELSE -(pow(1 - v, 2 - g.lam) - 1) / (2 - g.lam) END
                 END AS psi
          FROM ev, (SELECT k * 0.25 AS lam FROM range(-20, 21) t(k)) g
          WHERE v IS NOT NULL
        ),
        b1 AS (SELECT lam FROM psi1, c
               GROUP BY lam, c.n, c.cterm
               ORDER BY -c.n / 2.0 * ln(sum(psi * psi) / c.n
                          - (sum(psi) / c.n) ^ 2)
                        + (lam - 1) * c.cterm DESC, lam ASC
               LIMIT 1),
        psi2 AS (
          SELECT g.lam, CASE WHEN v >= 0 THEN
                   CASE WHEN abs(g.lam) < 1e-12 THEN ln(1 + v)
                        ELSE (pow(v + 1, g.lam) - 1) / g.lam END
                 ELSE
                   CASE WHEN abs(2 - g.lam) < 1e-12 THEN -ln(1 - v)
                        ELSE -(pow(1 - v, 2 - g.lam) - 1) / (2 - g.lam) END
                 END AS psi
          FROM ev, (SELECT b1.lam + k * 0.025 AS lam
                    FROM range(-10, 11) t(k), b1) g
          WHERE v IS NOT NULL
        ),
        b2 AS (SELECT lam FROM psi2, c
               GROUP BY lam, c.n, c.cterm
               ORDER BY -c.n / 2.0 * ln(sum(psi * psi) / c.n
                          - (sum(psi) / c.n) ^ 2)
                        + (lam - 1) * c.cterm DESC, lam ASC
               LIMIT 1),
        psi3 AS (
          SELECT g.lam, CASE WHEN v >= 0 THEN
                   CASE WHEN abs(g.lam) < 1e-12 THEN ln(1 + v)
                        ELSE (pow(v + 1, g.lam) - 1) / g.lam END
                 ELSE
                   CASE WHEN abs(2 - g.lam) < 1e-12 THEN -ln(1 - v)
                        ELSE -(pow(1 - v, 2 - g.lam) - 1) / (2 - g.lam) END
                 END AS psi
          FROM ev, (SELECT b2.lam + k * 0.0025 AS lam
                    FROM range(-10, 11) t(k), b2) g
          WHERE v IS NOT NULL
        ),
        b3 AS (SELECT lam FROM psi3, c
               GROUP BY lam, c.n, c.cterm
               ORDER BY -c.n / 2.0 * ln(sum(psi * psi) / c.n
                          - (sum(psi) / c.n) ^ 2)
                        + (lam - 1) * c.cterm DESC, lam ASC
               LIMIT 1),
        fin AS (
          SELECT ev.event_id, b3.lam,
                 CASE WHEN v IS NULL THEN NULL
                      WHEN v >= 0 THEN
                   CASE WHEN abs(b3.lam) < 1e-12 THEN ln(1 + v)
                        ELSE (pow(v + 1, b3.lam) - 1) / b3.lam END
                 ELSE
                   CASE WHEN abs(2 - b3.lam) < 1e-12 THEN -ln(1 - v)
                        ELSE -(pow(1 - v, 2 - b3.lam) - 1) / (2 - b3.lam) END
                 END AS psi
          FROM ev, b3
        ),
        m AS (SELECT sum(psi) / count(psi) AS mu,
                     sqrt(sum(psi * psi) / count(psi)
                          - (sum(psi) / count(psi)) ^ 2) AS sd
              FROM fin)
        SELECT event_id, (psi - m.mu) / m.sd AS "PowerTransformer_valn"
        FROM fin, m
    """,
    "spline_basis": f"""
        WITH ev AS (SELECT event_id, {_VALN_SQL} AS v FROM events),
        s AS (SELECT min(v) AS lo, max(v) AS hi FROM ev),
        p AS (SELECT event_id,
                     CASE WHEN v IS NULL THEN NULL
                          ELSE least(greatest(v, s.lo), s.hi) END AS x,
                     s.lo, (s.hi - s.lo) / 4 AS h
              FROM ev, s)
        SELECT event_id,
          CASE WHEN x IS NULL THEN NULL ELSE
            greatest(0, 1 - abs(x - (lo + 0 * h)) / h) END AS "SplineTransformer_1",
          CASE WHEN x IS NULL THEN NULL ELSE
            greatest(0, 1 - abs(x - (lo + 1 * h)) / h) END AS "SplineTransformer_2",
          CASE WHEN x IS NULL THEN NULL ELSE
            greatest(0, 1 - abs(x - (lo + 2 * h)) / h) END AS "SplineTransformer_3",
          CASE WHEN x IS NULL THEN NULL ELSE
            greatest(0, 1 - abs(x - (lo + 3 * h)) / h) END AS "SplineTransformer_4",
          CASE WHEN x IS NULL THEN NULL ELSE
            greatest(0, 1 - abs(x - (lo + 4 * h)) / h) END AS "SplineTransformer_5"
        FROM p
    """,
    # golden-expected oracles: survivors precomputed by an INDEPENDENT
    # single-process reference implementation (scripts/gen_expected.py,
    # committed under expected/), keyed by corpus row count so one static
    # SQL string serves every sf directory
    "dedup_minhash": """
        SELECT doc_id
        FROM read_parquet('/root/repo/expected/dedup_minhash_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' || CAST(sum(n_chars) AS BIGINT)
                            FROM documents)
    """,
    "dup_clusters": """
        SELECT doc_id, root, cluster_size
        FROM read_parquet('/root/repo/expected/dup_clusters_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' || CAST(sum(n_chars) AS BIGINT)
                            FROM documents)
    """,
    "dedup_simhash": """
        SELECT doc_id
        FROM read_parquet('/root/repo/expected/dedup_simhash_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' || CAST(sum(n_chars) AS BIGINT)
                            FROM documents)
    """,
    "distinct_parts": """
        SELECT l_returnflag,
               CAST(count(DISTINCT l_partkey) AS BIGINT) AS n_distinct
        FROM lineitem GROUP BY l_returnflag
    """,
    "sample_per_source": """
        WITH ranked AS (
          SELECT source, doc_id,
                 CAST(row_number() OVER (
                   PARTITION BY source ORDER BY hash(doc_id), doc_id
                 ) - 1 AS BIGINT) AS "rank"
          FROM documents
        )
        SELECT source, doc_id, "rank" FROM ranked WHERE "rank" < 20
    """,
    "global_rank": """
        SELECT l_orderkey, l_linenumber,
               CAST(row_number() OVER (
                 ORDER BY l_extendedprice ASC, l_orderkey ASC,
                          l_linenumber ASC
               ) - 1 AS BIGINT) AS "rank"
        FROM lineitem
    """,
    "exact_quantiles": """
        SELECT CAST(0.25 AS DOUBLE) AS q,
               quantile_disc(l_extendedprice, 0.25) AS value FROM lineitem
        UNION ALL
        SELECT CAST(0.5 AS DOUBLE),
               quantile_disc(l_extendedprice, 0.5) FROM lineitem
        UNION ALL
        SELECT CAST(0.9 AS DOUBLE),
               quantile_disc(l_extendedprice, 0.9) FROM lineitem
        UNION ALL
        SELECT CAST(0.99 AS DOUBLE),
               quantile_disc(l_extendedprice, 0.99) FROM lineitem
        ORDER BY q
    """,
    "top_docs_per_source": """
        WITH ranked AS (
          SELECT source, doc_id, n_chars,
                 CAST(row_number() OVER (
                   PARTITION BY source
                   ORDER BY n_chars DESC, doc_id ASC
                 ) - 1 AS BIGINT) AS "rank"
          FROM documents
        )
        SELECT source, doc_id, n_chars, "rank" FROM ranked WHERE "rank" < 5
    """,
    "tfidf_top3": r"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS term
          FROM documents
        ),
        tot AS (
          SELECT term, CAST(count(*) AS BIGINT) AS cnt,
                 CAST(count(DISTINCT doc_id) AS BIGINT) AS doc_freq
          FROM tok GROUP BY term
        ),
        vocab AS (
          SELECT term, doc_freq FROM tot
          ORDER BY cnt DESC, term ASC LIMIT 1000
        ),
        n AS (SELECT count(*) AS n_docs FROM documents),
        tf AS (
          SELECT t.doc_id, t.term, CAST(count(*) AS BIGINT) AS tf
          FROM tok t JOIN vocab v USING (term)
          GROUP BY t.doc_id, t.term
        ),
        scored AS (
          SELECT tf.doc_id, tf.term, tf.tf, v.doc_freq,
                 tf.tf * (ln((1 + n.n_docs) / (1.0 + v.doc_freq)) + 1)
                   AS tfidf
          FROM tf JOIN vocab v USING (term), n
        ),
        ranked AS (
          SELECT *, CAST(row_number() OVER (
                   PARTITION BY doc_id ORDER BY tfidf DESC, term ASC
                 ) - 1 AS BIGINT) AS "rank"
          FROM scored
        )
        SELECT doc_id, term, tf, doc_freq, tfidf, "rank"
        FROM ranked WHERE "rank" < 3
    """,
    "vocab_top100": r"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS token
          FROM documents
        ),
        tot AS (
          SELECT token, CAST(count(*) AS BIGINT) AS count,
                 CAST(count(DISTINCT doc_id) AS BIGINT) AS doc_freq
          FROM tok GROUP BY token
        )
        SELECT token, count, doc_freq,
               CAST(row_number() OVER (ORDER BY count DESC, token ASC) - 1
                    AS BIGINT) AS "rank"
        FROM tot ORDER BY count DESC, token ASC LIMIT 100
    """,
    "funnel": """
        WITH v AS (
          SELECT user_id, min(ts) AS ts_view FROM events
          WHERE event_type = 'view' GROUP BY user_id
        ),
        c AS (
          SELECT e.user_id, min(e.ts) AS ts_click
          FROM events e JOIN v USING (user_id)
          WHERE e.event_type = 'click' AND e.ts > v.ts_view
          GROUP BY e.user_id
        ),
        p AS (
          SELECT e.user_id, min(e.ts) AS ts_purchase
          FROM events e JOIN c USING (user_id)
          WHERE e.event_type = 'purchase' AND e.ts > c.ts_click
          GROUP BY e.user_id
        )
        SELECT u.user_id,
               CAST(CASE WHEN v.user_id IS NULL THEN 0
                         WHEN c.user_id IS NULL THEN 1
                         WHEN p.user_id IS NULL THEN 2
                         ELSE 3 END AS BIGINT) AS stage,
               v.ts_view, c.ts_click, p.ts_purchase
        FROM (SELECT DISTINCT user_id FROM events) u
        LEFT JOIN v USING (user_id)
        LEFT JOIN c USING (user_id)
        LEFT JOIN p USING (user_id)
    """,
    "active_users": """
        WITH d AS (
          SELECT user_id,
                 CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
          FROM events
        ),
        ends AS (
          SELECT DISTINCT day + k.k AS end_day
          FROM d, UNNEST(generate_series(0, 6)) AS k(k)
        )
        SELECT e.end_day,
               CAST(coalesce((SELECT count(DISTINCT user_id) FROM d
                              WHERE d.day = e.end_day), 0) AS BIGINT) AS dau,
               CAST((SELECT count(DISTINCT user_id) FROM d
                     WHERE d.day BETWEEN e.end_day - 6 AND e.end_day)
                    AS BIGINT) AS wau
        FROM ends e
    """,
    "cohort_retention": """
        WITH w AS (
          SELECT DISTINCT user_id,
                 CAST(floor(epoch(ts) / 86400) AS BIGINT) AS wk
          FROM events
        ),
        u AS (
          SELECT user_id, wk,
                 min(wk) OVER (PARTITION BY user_id) AS cw
          FROM w
        )
        SELECT cw AS cohort_period,
               wk - cw AS period_offset,
               CAST(count(*) AS BIGINT) AS n_users
        FROM u GROUP BY cw, wk - cw
    """,
    "props_extract": r"""
        SELECT event_id,
               CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1) AS BIGINT)
                 AS k_val
        FROM events
    """,
    "props_sum_by_type": r"""
        SELECT event_type,
               CAST(sum(CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1)
                             AS BIGINT)) AS BIGINT) AS k_sum
        FROM events GROUP BY event_type
    """,
    "redact_pii": rf"""
        WITH t0 AS (
          SELECT doc_id,
                 coalesce(text, '') || ' u' || CAST(doc_id AS VARCHAR)
                 || '@ex.org ph +44 7911 123456 ip 10.0.0.'
                 || CAST(doc_id % 200 AS VARCHAR) AS t
          FROM documents
        ),
        t1 AS (
          SELECT doc_id,
                 CAST(length(regexp_extract_all(t,
                   '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{{2,}}'))
                   AS BIGINT) AS n_emails,
                 regexp_replace(t,
                   '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{{2,}}',
                   '<EMAIL>', 'g') AS r1
          FROM t0
        ),
        t2 AS (
          SELECT doc_id, n_emails,
                 CAST(length(regexp_extract_all(r1,
                   '\+?\d[\d\-\s()]{{6,}}\d')) AS BIGINT) AS n_phones,
                 regexp_replace(r1, '\+?\d[\d\-\s()]{{6,}}\d',
                                '<PHONE>', 'g') AS r2
          FROM t1
        )
        SELECT doc_id,
               regexp_replace(r2, '\b\d{{1,3}}\.\d{{1,3}}\.\d{{1,3}}\.\d{{1,3}}\b',
                              '<IP>', 'g') AS clean_text,
               n_emails, n_phones,
               CAST(length(regexp_extract_all(r2,
                 '\b\d{{1,3}}\.\d{{1,3}}\.\d{{1,3}}\.\d{{1,3}}\b'))
                 AS BIGINT) AS n_ips
        FROM t2
    """,
    "duplicate_spans": """
        WITH d AS (
          SELECT doc_id, coalesce(text, '') AS t,
                 greatest(0, CAST(floor(
                   (length(coalesce(text, '')) - 40) / 10.0) AS BIGINT) + 1)
                   AS n
          FROM documents
        ),
        spans AS (
          SELECT doc_id, CAST(k AS BIGINT) * 10 AS span_start,
                 substr(t, CAST(k AS BIGINT) * 10 + 1, 40) AS span
          FROM d, UNNEST(generate_series(0, d.n - 1)) AS g(k)
        ),
        shared AS (
          SELECT span, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
          FROM spans GROUP BY span
          HAVING count(DISTINCT doc_id) >= 2
        )
        SELECT s.doc_id, s.span_start, sh.n_docs
        FROM spans s JOIN shared sh USING (span)
    """,
    "chunk_documents": """
        WITH n AS (
          SELECT doc_id, coalesce(text, '') AS t,
                 greatest(1, CAST(ceil(
                   (length(coalesce(text, '')) - 20) / 100.0) AS BIGINT))
                   AS nc
          FROM documents
        )
        SELECT doc_id, CAST(k AS BIGINT) AS chunk_no,
               substr(t, CAST(k AS BIGINT) * 100 + 1, 120) AS chunk_text
        FROM n, UNNEST(generate_series(0, n.nc - 1)) AS g(k)
    """,
    "bigram_top50": r"""
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        b AS (
          SELECT doc_id, ws[CAST(i AS BIGINT)] || ' '
                         || ws[CAST(i AS BIGINT) + 1] AS token
          FROM w, UNNEST(generate_series(1, greatest(len(ws) - 1, 0)))
                    AS g(i)
        ),
        tot AS (
          SELECT token, CAST(count(*) AS BIGINT) AS count,
                 CAST(count(DISTINCT doc_id) AS BIGINT) AS doc_freq
          FROM b GROUP BY token
        )
        SELECT token, count, doc_freq,
               CAST(row_number() OVER (ORDER BY count DESC, token ASC) - 1
                    AS BIGINT) AS "rank"
        FROM tot ORDER BY count DESC, token ASC LIMIT 50
    """,
    "lm_score": r"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS token
          FROM documents
        ),
        vocab AS (
          SELECT token, CAST(count(*) AS BIGINT) AS c
          FROM tok GROUP BY token
          ORDER BY c DESC, token ASC LIMIT 10
        ),
        per_doc AS (
          SELECT tok.doc_id,
                 CAST(count(*) AS BIGINT) AS n_words,
                 CAST(sum(CASE WHEN v.token IS NULL THEN 1 ELSE 0 END)
                      AS BIGINT) AS oov_count,
                 CAST(coalesce(sum(v.c), 0) AS BIGINT) AS vocab_count_sum
          FROM tok LEFT JOIN vocab v USING (token)
          GROUP BY tok.doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(p.n_words, 0) AS BIGINT) AS n_words,
               CAST(coalesce(p.oov_count, 0) AS BIGINT) AS oov_count,
               CAST(coalesce(p.vocab_count_sum, 0) AS BIGINT)
                 AS vocab_count_sum,
               CASE WHEN coalesce(p.n_words, 0) > 0
                    THEN CAST(p.oov_count AS DOUBLE) / p.n_words
                    ELSE NULL END AS oov_rate
        FROM documents d LEFT JOIN per_doc p USING (doc_id)
    """,
    "pack_sequences": """
        WITH c AS (
          SELECT doc_id, n_chars,
                 sum(n_chars) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                   - n_chars AS st
          FROM documents)
        SELECT doc_id,
               CAST(floor(st / 2000) AS BIGINT) AS bin_id,
               CAST(st % 2000 AS BIGINT) AS bin_offset
        FROM c
    """,
    "historical_salted": f"""
        WITH ev AS (SELECT event_id, user_id, ts, {_VALN_SQL} AS v0
                    FROM events),
        f AS (SELECT event_id, user_id, ts,
                     last_value(v0 IGNORE NULLS) OVER ({_EXP}) AS v
              FROM ev),
        g AS (SELECT *, CASE WHEN ts - lag(ts) OVER ({_WIN})
                              > INTERVAL 30 MINUTE
                             THEN 1 ELSE 0 END AS brk
              FROM f)
        SELECT event_id, v AS valn,
               CASE WHEN v IS NULL THEN NULL
                    ELSE min(v) OVER ({_EXP}) END AS valn_min,
               CASE WHEN v IS NULL THEN NULL
                    ELSE max(v) OVER ({_EXP}) END AS valn_max,
               avg(v) OVER ({_EXP}) AS valn_mean,
               var_samp(v) OVER ({_EXP}) AS valn_var,
               lag(v) OVER ({_WIN}) AS valn_lag1,
               CAST(sum(brk) OVER ({_EXP}) AS BIGINT) AS session_id
        FROM g
    """,
    "knn_ivf": """
        SELECT query_id, vec_id, rank
        FROM read_parquet('/root/repo/expected/knn_ivf_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' || CAST(sum(label) AS BIGINT)
                            FROM embeddings)
    """,
    "dedup_semantic": """
        SELECT vec_id
        FROM read_parquet('/root/repo/expected/dedup_semantic_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' || CAST(sum(label) AS BIGINT)
                            FROM embeddings)
    """,
    "dedup_jaccard": r"""
        WITH RECURSIVE t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        sh AS (
          SELECT doc_id,
                 list_distinct(
                   CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                        ELSE list_transform(generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                   END) AS s
          FROM t
        ),
        pairs AS (
          SELECT x.doc_id AS a, y.doc_id AS b
          FROM sh x, sh y
          WHERE x.doc_id < y.doc_id
            AND CAST(len(list_intersect(x.s, y.s)) AS DOUBLE)
                / (len(x.s) + len(y.s) - len(list_intersect(x.s, y.s)))
                >= 0.6
        ),
        edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
        reach(node, root) AS (
          SELECT doc_id, doc_id FROM sh
          UNION
          SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
        )
        SELECT node AS doc_id FROM reach
        GROUP BY node HAVING node = min(root)
    """,
    "fuzzy_decontaminate": r"""
        WITH t AS (
          SELECT doc_id, source,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        sh AS (
          SELECT doc_id, source,
                 list_distinct(
                   CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                        ELSE list_transform(generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                   END) AS s
          FROM t
        )
        SELECT x.doc_id FROM sh x
        WHERE x.source <> 'src0'
          AND NOT EXISTS (
            SELECT 1 FROM sh y
            WHERE y.source = 'src0'
              AND CAST(len(list_intersect(x.s, y.s)) AS DOUBLE) / len(x.s)
                  >= 0.5
          )
    """,
    "dedup_overlap": r"""
        WITH RECURSIVE t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        sh AS (
          SELECT doc_id,
                 list_distinct(
                   CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                        ELSE list_transform(generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                   END) AS s
          FROM t
        ),
        pairs AS (
          SELECT x.doc_id AS a, y.doc_id AS b
          FROM sh x, sh y
          WHERE x.doc_id < y.doc_id
            AND CAST(len(list_intersect(x.s, y.s)) AS DOUBLE)
                / least(len(x.s), len(y.s)) >= 0.8
        ),
        edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
        reach(node, root) AS (
          SELECT doc_id, doc_id FROM sh
          UNION
          SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
        )
        SELECT node AS doc_id FROM reach
        GROUP BY node HAVING node = min(root)
    """,
    "dedup_containment": r"""
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        sh AS (
          SELECT doc_id,
                 list_distinct(
                   CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                        ELSE list_transform(generate_series(1, len(ws) - 2),
                               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                   END) AS s
          FROM t
        ),
        contained AS (
          SELECT DISTINCT x.doc_id
          FROM sh x JOIN sh y
            ON y.doc_id <> x.doc_id
           AND (len(y.s) > len(x.s)
                OR (len(y.s) = len(x.s) AND y.doc_id < x.doc_id))
           AND CAST(len(list_intersect(x.s, y.s)) AS DOUBLE) / len(x.s)
               >= 0.7
        )
        SELECT doc_id FROM sh
        WHERE doc_id NOT IN (SELECT doc_id FROM contained)
    """,
    "dedup_embedding": """
        WITH RECURSIVE
        pairs AS (
          SELECT a.vec_id AS a, b.vec_id AS b
          FROM embeddings a, embeddings b
          WHERE a.vec_id < b.vec_id
            AND list_cosine_similarity(a.embedding, b.embedding) >= 0.99
        ),
        edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
        reach(node, root) AS (
          SELECT vec_id, vec_id FROM embeddings
          UNION
          SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
        )
        SELECT node AS vec_id FROM reach
        GROUP BY node HAVING node = min(root)
    """,
    "langid_quality": r"""
        WITH t AS (
          SELECT doc_id,
                 coalesce(text, '') AS txt,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        c AS (
          SELECT doc_id, ws,
                 CAST(length(txt) AS DOUBLE) AS n_chars,
                 CAST(len(ws) AS DOUBLE) AS n_words,
                 CAST(len(regexp_extract_all(txt, '[^\w\s]')) AS DOUBLE) AS punct,
                 CAST(len(regexp_extract_all(txt, '[0-9]')) AS DOUBLE) AS digitc,
                 len(list_filter(ws, w -> w IN ('the','and','of','to','a','in','is','it','that','for'))) AS en,
                 len(list_filter(ws, w -> w IN ('der','die','das','und','ist','nicht','ein','mit','von','zu'))) AS de,
                 len(list_filter(ws, w -> w IN ('le','la','les','et','est','un','une','pas','pour','que'))) AS fr,
                 len(list_filter(ws, w -> w IN ('el','la','los','y','es','un','una','no','por','que'))) AS es
          FROM t
        ),
        sh AS (
          SELECT doc_id,
                 CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                      ELSE list_transform(generate_series(1, len(ws) - 2),
                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                 END AS shingles
          FROM c
        ),
        fp AS (
          SELECT doc_id,
                 list_min(list_transform(shingles, s ->
                   CASE WHEN s = '' THEN 0 ELSE
                     list_reduce(
                       list_prepend(CAST(0 AS BIGINT),
                         list_transform(string_split(s, ''),
                                        ch -> CAST(unicode(ch) AS BIGINT))),
                       (acc, ch) -> (acc * 131 + ch) % 2147483647)
                   END)) AS fingerprint
          FROM sh
        )
        SELECT c.doc_id,
          CASE WHEN greatest(en, de, fr, es) = 0 THEN 'und'
               WHEN en >= de AND en >= fr AND en >= es THEN 'en'
               WHEN de >= fr AND de >= es THEN 'de'
               WHEN fr >= es THEN 'fr'
               ELSE 'es' END AS lang_pred,
          least(greatest(n_words / 20.0, 0), 1) * 0.4
            + least(greatest(1.0 - (punct / greatest(n_chars, 1)) * 4, 0), 1) * 0.3
            + least(greatest(1.0 - (digitc / greatest(n_chars, 1)) * 4, 0), 1) * 0.2
            + CASE WHEN n_chars / greatest(n_words, 1) > 2
                    AND n_chars / greatest(n_words, 1) < 12
                   THEN 0.1 ELSE 0.0 END AS quality_score,
          fp.fingerprint
        FROM c JOIN fp USING (doc_id)
    """,
    "profile": """
        WITH ev AS (SELECT value, CASE WHEN event_id % 7 = 0 THEN NULL ELSE value END AS valn FROM events)
        SELECT 'value' AS col_name, count(*) AS rows_total,
               count(*) - count(value) AS nulls, avg(value) AS mean,
               CAST(min(value) AS DOUBLE) AS min,
               CAST(max(value) AS DOUBLE) AS max
        FROM ev
        UNION ALL
        SELECT 'valn', count(*), count(*) - count(valn), avg(valn),
               CAST(min(valn) AS DOUBLE), CAST(max(valn) AS DOUBLE)
        FROM ev
    """,
    "hash_split": """
        SELECT doc_id,
               CASE WHEN hash(doc_id) < 14757395258967642112 THEN 'train'
                    WHEN hash(doc_id) < 16602069666338596864 THEN 'val'
                    ELSE 'test' END AS split
        FROM documents
    """,
    "mix_sources": """
        SELECT doc_id, source FROM documents
        WHERE hash(doc_id) <
              CASE source
                   WHEN 'src0' THEN 18446744073709551615
                   WHEN 'src1' THEN 9223372036854775808
                   WHEN 'src2' THEN 4611686018427387904
                   ELSE 1844674407370955264 END
    """,
    "repetition_stats": """
        WITH t AS (SELECT doc_id, length(coalesce(text, '')) AS nc,
                   regexp_extract_all(lower(coalesce(text, '')), '\\w+') AS ws
                   FROM documents),
        base AS (SELECT doc_id, nc, len(ws) AS nw,
                 CASE WHEN len(ws) = 0 THEN 0.0
                      ELSE 1.0 - CAST(len(list_distinct(ws)) AS DOUBLE)
                           / len(ws) END AS dup_word_frac
                 FROM t),
        g2 AS (SELECT doc_id, unnest(list_transform(
                 generate_series(1, len(ws) - 1),
                 i -> array_to_string(ws[i:i+1], ' '))) AS gram FROM t
               WHERE len(ws) >= 2),
        g3 AS (SELECT doc_id, unnest(list_transform(
                 generate_series(1, len(ws) - 2),
                 i -> array_to_string(ws[i:i+2], ' '))) AS gram FROM t
               WHERE len(ws) >= 3),
        g5 AS (SELECT doc_id, unnest(list_transform(
                 generate_series(1, len(ws) - 4),
                 i -> array_to_string(ws[i:i+4], ' '))) AS gram FROM t
               WHERE len(ws) >= 5),
        a2 AS (SELECT doc_id, max(c * length(gram)) AS v FROM
               (SELECT doc_id, gram, count(*) AS c FROM g2
                GROUP BY doc_id, gram) GROUP BY doc_id),
        a3 AS (SELECT doc_id, max(c * length(gram)) AS v FROM
               (SELECT doc_id, gram, count(*) AS c FROM g3
                GROUP BY doc_id, gram) GROUP BY doc_id),
        a5 AS (SELECT doc_id, sum(CASE WHEN c > 1 THEN c * length(gram)
                                       ELSE 0 END) AS v FROM
               (SELECT doc_id, gram, count(*) AS c FROM g5
                GROUP BY doc_id, gram) GROUP BY doc_id)
        SELECT b.doc_id, b.dup_word_frac,
               CASE WHEN b.nc > 0 THEN CAST(coalesce(a2.v, 0) AS DOUBLE)
                    / b.nc ELSE 0.0 END AS top2gram_char_frac,
               CASE WHEN b.nc > 0 THEN CAST(coalesce(a3.v, 0) AS DOUBLE)
                    / b.nc ELSE 0.0 END AS top3gram_char_frac,
               CASE WHEN b.nc > 0 THEN CAST(coalesce(a5.v, 0) AS DOUBLE)
                    / b.nc ELSE 0.0 END AS dup5gram_char_frac
        FROM base b LEFT JOIN a2 USING (doc_id)
        LEFT JOIN a3 USING (doc_id) LEFT JOIN a5 USING (doc_id)
    """,
    "curate_corpus": r"""
        WITH norm AS (
          SELECT doc_id,
                 trim(regexp_replace(regexp_replace(regexp_replace(
                      lower(coalesce(text, '')),
                      'https?://[^\s]+', '<URL>', 'g'),
                      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                      '<EMAIL>', 'g'),
                      '\s+', ' ', 'g')) AS norm_text
          FROM documents
        ),
        kept AS (SELECT * FROM norm WHERE length(norm_text) >= 30),
        ded AS (SELECT min(doc_id) AS doc_id, norm_text
                FROM kept GROUP BY norm_text),
        bgrams AS (
          SELECT DISTINCT unnest(
            CASE WHEN len(ws) < 5 THEN [array_to_string(ws, ' ')]
                 ELSE list_transform(generate_series(1, len(ws) - 4),
                                     i -> array_to_string(ws[i:i+4], ' '))
            END) AS gram
          FROM (SELECT regexp_extract_all(lower(norm_text), '\w+') AS ws
                FROM norm WHERE doc_id % 97 = 0)
        ),
        dgrams AS (
          SELECT doc_id, unnest(
            CASE WHEN len(ws) < 5 THEN [array_to_string(ws, ' ')]
                 ELSE list_transform(generate_series(1, len(ws) - 4),
                                     i -> array_to_string(ws[i:i+4], ' '))
            END) AS gram
          FROM (SELECT doc_id,
                       regexp_extract_all(lower(norm_text), '\w+') AS ws
                FROM ded)
        ),
        contam AS (SELECT DISTINCT d.doc_id
                   FROM dgrams d JOIN bgrams b USING (gram)),
        clean AS (SELECT doc_id FROM ded
                  WHERE doc_id NOT IN (SELECT doc_id FROM contam))
        SELECT doc_id,
               CASE WHEN hash(doc_id) < 14757395258967642112 THEN 'train'
                    WHEN hash(doc_id) < 16602069666338596864 THEN 'val'
                    ELSE 'test' END AS split
        FROM clean
    """,
    "decontaminate": """
        WITH t AS (SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')), '\\w+') AS ws
                   FROM documents),
        g AS (SELECT doc_id,
              CASE WHEN len(ws) < 5 THEN [array_to_string(ws, ' ')]
                   ELSE list_transform(generate_series(1, len(ws) - 4),
                                       i -> array_to_string(ws[i:i+4], ' '))
              END AS grams FROM t),
        bench AS (SELECT DISTINCT unnest(grams) AS gram FROM g
                  WHERE doc_id % 97 = 0),
        docg AS (SELECT doc_id, unnest(grams) AS gram FROM g)
        SELECT d.doc_id,
               CAST(max(CASE WHEN b.gram IS NOT NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS contaminated
        FROM docg d LEFT JOIN bench b ON d.gram = b.gram
        GROUP BY d.doc_id
    """,
    "iterative_impute": """
        SELECT event_id, valn
        FROM read_parquet('/root/repo/expected/iterative_impute_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(user_id) AS BIGINT) FROM events)
    """,
    "knn_impute": """
        SELECT event_id, valn
        FROM read_parquet('/root/repo/expected/knn_impute_[0-9]*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(user_id) AS BIGINT) FROM events)
    """,
    "knn_impute_ivf": """
        SELECT event_id, valn
        FROM read_parquet('/root/repo/expected/knn_impute_ivf_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(user_id) AS BIGINT) FROM events)
    """,
    "normalize_text": r"""
        WITH d AS (
          SELECT doc_id,
                 'Visit HTTPS://ex.com/' || doc_id || ' or  mail Bob.'
                   || doc_id || '@Mail-Host.org  NOW.' || chr(9) || text
                   AS dirty
          FROM documents
        )
        SELECT doc_id,
               trim(regexp_replace(regexp_replace(regexp_replace(
                    lower(dirty),
                    'https?://[^\s]+', '<URL>', 'g'),
                    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                    '<EMAIL>', 'g'),
                    '\s+', ' ', 'g')) AS norm_text
        FROM d
    """,
    "join_orders_customer": """
        SELECT o_orderkey, o_custkey, o_totalprice, c_name, c_acctbal
        FROM orders JOIN customer ON o_custkey = c_custkey
    """,
    "skew_join_type_stats": """
        SELECT e.event_id, e.event_type, d.n_distinct
        FROM events e
        JOIN (SELECT event_type, count(DISTINCT user_id) AS n_distinct
              FROM events GROUP BY event_type) d
          ON e.event_type = d.event_type
    """,
    "join_lineitem_orders": """
        SELECT l_orderkey, l_linenumber, l_extendedprice, o_totalprice,
               o_orderpriority
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    """,
    "semi_join_orders": """
        SELECT o_orderkey, o_totalprice FROM orders
        WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)
    """,
    "anti_join_customer": """
        SELECT c_custkey, c_name FROM customer
        WHERE NOT EXISTS (SELECT 1 FROM orders
                          WHERE o_custkey = c_custkey
                            AND o_totalprice > 300000)
    """,
    "knn_cosine": """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                   FROM embeddings WHERE vec_id < 5),
        s AS (SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qe, e.embedding) AS sim
              FROM q, embeddings e WHERE e.vec_id <> q.query_id),
        r AS (SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, vec_id) AS rk
              FROM s)
        SELECT query_id, vec_id, CAST(rk - 1 AS BIGINT) AS rank
        FROM r WHERE rk <= 3
    """,
    "grouped_regr": """
        WITH i AS (
          SELECT event_type,
                 CAST(EXTRACT(hour FROM ts) AS BIGINT) AS x,
                 CAST(round(value * 100) AS BIGINT) AS y
          FROM events WHERE ts IS NOT NULL AND value IS NOT NULL
        ), s AS (
          SELECT event_type, count(*) AS n,
                 CAST(sum(x) AS DOUBLE) AS sx, CAST(sum(y) AS DOUBLE) AS sy,
                 CAST(sum(x*x) AS DOUBLE) AS sxx,
                 CAST(sum(y*y) AS DOUBLE) AS syy,
                 CAST(sum(x*y) AS DOUBLE) AS sxy
          FROM i GROUP BY event_type
        ), m AS (
          SELECT event_type, n,
                 sxy - sx*sy/n AS cxy,
                 sxx - sx*sx/n AS vxx,
                 syy - sy*sy/n AS vyy,
                 sx, sy
          FROM s
        ), sl AS (
          SELECT event_type, n, cxy, vxx, vyy, sx, sy,
                 cxy / vxx AS slope
          FROM m
        )
        SELECT event_type, CAST(n AS BIGINT) AS n, slope,
               sy/n - slope*(sx/n) AS intercept,
               (cxy * cxy) / (vxx * vyy) AS r2
        FROM sl
    """,
    "histogram_values": """
        WITH v AS (
          SELECT value AS v FROM events
          WHERE value >= 0.0 AND value <= 500.0
        ), b AS (
          SELECT LEAST(CAST(floor((v - 0.0) / ((500.0 - 0.0) / 50))
                            AS BIGINT), 49) AS bucket
          FROM v
        )
        SELECT bucket,
               0.0 + CAST(bucket AS DOUBLE) * ((500.0 - 0.0) / 50)
                 AS lo_edge,
               CAST(count(*) AS BIGINT) AS cnt
        FROM b GROUP BY bucket
    """,
    "revenue_by_nation": """
        SELECT n_name,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                    AS BIGINT) AS revenue
        FROM lineitem
        JOIN orders   ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN nation   ON c_nationkey = n_nationkey
        GROUP BY n_name
    """,
    "rfm_segments": """
        WITH agg AS (
          SELECT user_id,
                 epoch_us(max(ts)) AS recency_us,
                 CAST(count(*) AS BIGINT) AS frequency,
                 CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
                   AS monetary
          FROM events GROUP BY user_id
        )
        SELECT user_id, recency_us, frequency, monetary,
               CAST(NTILE(4) OVER (ORDER BY recency_us, user_id)
                    AS BIGINT) AS r,
               CAST(NTILE(4) OVER (ORDER BY frequency, user_id)
                    AS BIGINT) AS f,
               CAST(NTILE(4) OVER (ORDER BY monetary, user_id)
                    AS BIGINT) AS m
        FROM agg
    """,
    "psi_value_drift": """
        WITH ha AS (
          SELECT LEAST(CAST(floor((value - 0.0) / ((500.0 - 0.0) / 25))
                            AS BIGINT), 24) AS bucket, count(*) AS c
          FROM events
          WHERE value >= 0.0 AND value <= 500.0 AND event_id % 2 = 0
          GROUP BY bucket
        ), hb AS (
          SELECT LEAST(CAST(floor((value - 0.0) / ((500.0 - 0.0) / 25))
                            AS BIGINT), 24) AS bucket, count(*) AS c
          FROM events
          WHERE value >= 0.0 AND value <= 500.0 AND event_id % 2 = 1
          GROUP BY bucket
        ), t AS (
          SELECT (SELECT CAST(sum(c) AS DOUBLE) FROM ha) AS ta,
                 (SELECT CAST(sum(c) AS DOUBLE) FROM hb) AS tb
        )
        SELECT ha.bucket,
               CAST(ha.c AS DOUBLE) / ta AS p_a,
               CAST(hb.c AS DOUBLE) / tb AS p_b,
               (CAST(ha.c AS DOUBLE) / ta - CAST(hb.c AS DOUBLE) / tb)
                 * ln((CAST(ha.c AS DOUBLE) / ta)
                      / (CAST(hb.c AS DOUBLE) / tb)) AS psi_term
        FROM ha JOIN hb USING (bucket), t
    """,
    "segment_psi": """
        WITH h AS (
          SELECT source,
                 LEAST(CAST(floor((n_chars - 0.0) / ((600.0 - 0.0) / 20))
                            AS BIGINT), 19) AS bucket,
                 CAST(count(*) AS BIGINT) AS c
          FROM documents
          WHERE n_chars >= 0.0 AND n_chars <= 600.0
            AND source IS NOT NULL
          GROUP BY source, bucket
        ), tot AS (
          SELECT source, CAST(sum(c) AS DOUBLE) AS t FROM h GROUP BY source
        ), g AS (
          SELECT bucket, CAST(sum(c) AS DOUBLE) AS gc FROM h GROUP BY bucket
        ), n AS (SELECT CAST(sum(c) AS DOUBLE) AS na FROM h)
        SELECT h.source, h.bucket,
               CAST(h.c AS DOUBLE) / tot.t AS p_seg,
               g.gc / n.na AS p_all,
               (CAST(h.c AS DOUBLE) / tot.t - g.gc / n.na)
                 * ln((CAST(h.c AS DOUBLE) / tot.t) / (g.gc / n.na))
                 AS psi_term
        FROM h JOIN tot USING (source) JOIN g USING (bucket), n
    """,
    "ks_quantity_flag": """
        WITH ca AS (
          SELECT l_quantity AS v, count(*) AS a FROM lineitem
          WHERE l_returnflag = 'A' AND l_quantity IS NOT NULL GROUP BY v
        ), cb AS (
          SELECT l_quantity AS v, count(*) AS b FROM lineitem
          WHERE l_returnflag = 'R' AND l_quantity IS NOT NULL GROUP BY v
        ), u AS (
          SELECT coalesce(ca.v, cb.v) AS v,
                 coalesce(ca.a, 0) AS a, coalesce(cb.b, 0) AS b
          FROM ca FULL OUTER JOIN cb ON ca.v = cb.v
        ), t AS (
          SELECT CAST(sum(a) AS DOUBLE) AS ta,
                 CAST(sum(b) AS DOUBLE) AS tb FROM u
        ), c AS (
          SELECT v,
                 CAST(sum(a) OVER (ORDER BY v) AS DOUBLE) AS cum_a,
                 CAST(sum(b) OVER (ORDER BY v) AS DOUBLE) AS cum_b
          FROM u
        )
        SELECT max(abs(cum_a / ta - cum_b / tb)) AS ks FROM c, t
    """,
    "grouped_moments": """
        WITH i AS (
          SELECT event_type, CAST(floor(value) AS BIGINT) AS y
          FROM events WHERE value IS NOT NULL
        )
        SELECT event_type, CAST(count(*) AS BIGINT) AS n,
               skewness(y) AS skew, kurtosis(y) AS kurt
        FROM i GROUP BY event_type
    """,
    "quantile_cont": """
        SELECT 0.1::DOUBLE AS q, quantile_cont(l_quantity, 0.1) AS value
          FROM lineitem
        UNION ALL
        SELECT 0.25::DOUBLE, quantile_cont(l_quantity, 0.25) FROM lineitem
        UNION ALL
        SELECT 0.5::DOUBLE, quantile_cont(l_quantity, 0.5) FROM lineitem
        UNION ALL
        SELECT 0.9::DOUBLE, quantile_cont(l_quantity, 0.9) FROM lineitem
    """,
    "dedup_against": """
        SELECT n.doc_id, n.text FROM documents n
        WHERE n.doc_id % 3 <> 0
          AND (n.text IS NULL OR NOT EXISTS (
            SELECT 1 FROM documents r
            WHERE r.doc_id % 3 = 0 AND r.text = n.text
          ))
    """,
    "dedup_sorted_neighborhood": """
        WITH r AS (
          SELECT p_partkey, p_name,
                 row_number() OVER (ORDER BY p_name, p_partkey) AS rn
          FROM part WHERE p_name IS NOT NULL
        )
        SELECT p_partkey, p_name FROM r a
        WHERE NOT EXISTS (
          SELECT 1 FROM r o
          WHERE o.rn BETWEEN a.rn - 7 AND a.rn - 1
            AND jaro_winkler_similarity(o.p_name, a.p_name) >= 0.9
        )
        UNION ALL
        SELECT p_partkey, p_name FROM part WHERE p_name IS NULL
    """,
    "dedup_jaro_winkler": """
        WITH t AS (
          SELECT p_partkey, p_name, substr(p_name, 1, 4) AS blk FROM part
        )
        SELECT p_partkey, p_name FROM t a
        WHERE NOT EXISTS (
          SELECT 1 FROM t o
          WHERE o.blk = a.blk AND o.p_partkey < a.p_partkey
            AND jaro_winkler_similarity(o.p_name, a.p_name) >= 0.9
        )
    """,
    "dedup_levenshtein": """
        WITH t AS (
          SELECT p_partkey, p_name, substr(p_name, 1, 4) AS blk FROM part
        )
        SELECT p_partkey, p_name FROM t a
        WHERE NOT EXISTS (
          SELECT 1 FROM t o
          WHERE o.blk = a.blk AND o.p_partkey < a.p_partkey
            AND levenshtein(o.p_name, a.p_name) <= 2
        )
    """,
    # min-label propagation to fixpoint; UNION (distinct) keeps the
    # frontier finite, the final GROUP BY takes each node's best label —
    # identical component minima to the Ray-side propagation, integer-only
    "connected_components": """
        WITH RECURSIVE e(a, b) AS (
          SELECT DISTINCT l_orderkey, l_partkey + 2000000000
          FROM lineitem WHERE l_quantity = 1
        ),
        und AS (SELECT a, b FROM e UNION SELECT b, a FROM e),
        cc(node, lbl) AS (
          SELECT node, min(m) FROM (
            SELECT a AS node, least(a, b) AS m FROM und
          ) GROUP BY node
          UNION
          SELECT u.a, c.lbl FROM und u JOIN cc c ON u.b = c.node
          WHERE c.lbl < u.a
        )
        SELECT CAST(node AS BIGINT) AS node, CAST(min(lbl) AS BIGINT) AS root
        FROM cc GROUP BY node
    """,
    "impute_linear": f"""
        WITH v AS (
          SELECT user_id, ts, event_id, {_VALN_SQL} AS valn FROM events
        ),
        w AS (
          SELECT user_id, ts, event_id, valn,
            last_value(valn IGNORE NULLS) OVER (
              {_WIN} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
            ) AS pv,
            last_value(CASE WHEN valn IS NOT NULL THEN epoch_us(ts) END
                       IGNORE NULLS) OVER (
              {_WIN} ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
            ) AS pt,
            first_value(valn IGNORE NULLS) OVER (
              {_WIN} ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING
            ) AS nv,
            first_value(CASE WHEN valn IS NOT NULL THEN epoch_us(ts) END
                        IGNORE NULLS) OVER (
              {_WIN} ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING
            ) AS nt
          FROM v
        )
        SELECT event_id,
               CASE WHEN valn IS NOT NULL THEN valn
                    WHEN pv IS NULL OR nv IS NULL THEN NULL
                    ELSE pv + (nv - pv)
                         * (CAST(epoch_us(ts) - pt AS DOUBLE)
                            / CAST(nt - pt AS DOUBLE))
               END AS valn
        FROM w
    """,
    "asof_next_purchase": """
        WITH p AS (
          SELECT user_id, ts, value AS next_purch_value FROM events
          WHERE event_type = 'purchase'
          QUALIFY row_number() OVER (PARTITION BY user_id, ts
                                     ORDER BY event_id) = 1
        )
        SELECT e.event_id, p.next_purch_value
        FROM events e ASOF LEFT JOIN p
          ON e.user_id = p.user_id AND e.ts <= p.ts
    """,
    "left_join_customer_orders": """
        SELECT c_custkey, c_acctbal, o_orderkey, o_totalprice
        FROM customer LEFT JOIN orders ON c_custkey = o_custkey
    """,
    "outer_join_counts": """
        WITH oc AS (
          SELECT o_custkey AS k, CAST(count(*) AS BIGINT) AS n_orders
          FROM orders GROUP BY o_custkey
        ),
        ec AS (
          SELECT user_id AS k, CAST(count(*) AS BIGINT) AS n_events
          FROM events GROUP BY user_id
        )
        SELECT coalesce(oc.k, ec.k) AS ckey, n_orders, n_events
        FROM oc FULL OUTER JOIN ec ON oc.k = ec.k
    """,
    "k_anonymity": """
        WITH b AS (
          SELECT event_id, event_type,
                 CAST(floor(value / 10) AS BIGINT) AS vb
          FROM events
        )
        SELECT event_id, event_type, vb FROM b
        QUALIFY count(*) OVER (PARTITION BY event_type, vb) >= 5
    """,
    "l_diversity": """
        WITH b AS (
          SELECT event_id, user_id, event_type,
                 CAST(floor(value / 10) AS BIGINT) AS vb
          FROM events
        ),
        g AS (
          SELECT event_type, vb FROM b GROUP BY event_type, vb
          HAVING count(DISTINCT user_id) >= 4
        )
        SELECT event_id, b.event_type, b.vb
        FROM b JOIN g ON b.event_type = g.event_type AND b.vb = g.vb
    """,
    "feature_bake": f"""
        WITH s AS (
          SELECT avg({_VALN_SQL}) AS m, stddev_pop({_VALN_SQL}) AS sd
          FROM events
        ),
        v AS (
          SELECT event_id, user_id, ts,
                 ({_VALN_SQL} - s.m) / s.sd AS vs
          FROM events, s
        ),
        f AS (
          SELECT event_id, user_id, ts,
                 last_value(vs IGNORE NULLS) OVER ({_EXP}) AS vf,
                 CASE WHEN ts - lag(ts) OVER ({_WIN}) > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS brk
          FROM v
        )
        SELECT event_id,
               vf AS valn,
               avg(vf) OVER ({_EXP}) AS valn_mean,
               lag(vf) OVER ({_WIN}) AS valn_lag1,
               CAST(sum(brk) OVER ({_EXP}) AS BIGINT) AS session_id
        FROM f
    """,
    "grouped_zscore": """
        WITH b AS (
          SELECT event_id, user_id,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        ),
        g AS (
          SELECT user_id,
                 CAST(count(*) AS DOUBLE) AS n,
                 CAST(sum(cents) AS DOUBLE) AS s,
                 CAST(sum(cents * cents) AS DOUBLE) AS s2
          FROM b GROUP BY user_id
        )
        SELECT event_id, b.user_id,
               (cents - s / n) / sqrt((s2 - s * s / n) / n) AS val_z
        FROM b JOIN g ON b.user_id = g.user_id
    """,
    "hash_sample": """
        SELECT doc_id, source FROM documents
        WHERE hash(doc_id) < 5534023222112865280
    """,
    "grouped_percent_rank": """
        WITH b AS (
          SELECT event_id, user_id,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        )
        SELECT event_id, user_id,
               percent_rank() OVER (
                 PARTITION BY user_id ORDER BY cents
               ) AS pct_rank
        FROM b
    """,
    "top_spenders": """
        SELECT user_id, CAST(sum(CAST(round(value * 100) AS BIGINT))
                             AS BIGINT) AS total_cents
        FROM events GROUP BY user_id
        ORDER BY total_cents DESC, user_id ASC LIMIT 10
    """,
    "lexical_diversity": r"""
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        )
        SELECT doc_id,
               CAST(len(ws) AS BIGINT) AS n_words,
               CAST(len(list_distinct(ws)) AS BIGINT) AS n_distinct_words,
               CASE WHEN len(ws) = 0 THEN NULL
                    ELSE CAST(len(list_distinct(ws)) AS DOUBLE)
                         / CAST(len(ws) AS DOUBLE) END AS ttr
        FROM w
    """,
    "chunk_sentences": r"""
        WITH s AS (
          SELECT doc_id,
                 string_split_regex(coalesce(text, ''), '[.!?]\s+') AS parts
          FROM documents
        )
        SELECT doc_id,
               CAST(i - 1 AS BIGINT) AS sent_idx,
               parts[CAST(i AS BIGINT)] AS sentence,
               CAST(length(parts[CAST(i AS BIGINT)]) AS BIGINT) AS n_chars
        FROM s, UNNEST(generate_series(1, len(parts))) AS g(i)
        WHERE parts[CAST(i AS BIGINT)] <> ''
    """,
    "kbins_quantile": f"""
        WITH b AS (SELECT event_id, {_VALN_SQL} AS v FROM events),
        e AS (
          SELECT quantile_disc(v, 0.25) AS e1,
                 quantile_disc(v, 0.50) AS e2,
                 quantile_disc(v, 0.75) AS e3
          FROM b
        )
        SELECT event_id,
               CAST(CASE WHEN v IS NULL THEN NULL ELSE
                 (CASE WHEN v >= e1 THEN 1 ELSE 0 END)
               + (CASE WHEN v >= e2 THEN 1 ELSE 0 END)
               + (CASE WHEN v >= e3 THEN 1 ELSE 0 END) END AS BIGINT)
                 AS bin
        FROM b, e
    """,
    "gopher_filter": r"""
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\w+') AS ws
          FROM documents
        ),
        m AS (
          SELECT doc_id,
                 CAST(len(ws) AS BIGINT) AS n_words,
                 CAST(length(array_to_string(ws, '')) AS BIGINT)
                   AS word_chars,
                 CAST(len(list_filter(ws, x -> regexp_matches(x, '[a-z]')))
                   AS BIGINT) AS alpha_words,
                 CAST(len(list_filter(ws, x -> x IN
                   ('the','be','to','of','and','that','have','with')))
                   AS BIGINT) AS stop_words
          FROM w
        )
        SELECT doc_id, n_words, word_chars, alpha_words, stop_words
        FROM m
        WHERE n_words >= 25 AND n_words <= 100000
          AND 4 * n_words <= word_chars AND word_chars <= 10 * n_words
          AND 5 * alpha_words >= 4 * n_words
          AND stop_words >= 2
    """,
    "mix_temperature": """
        WITH c AS (
          SELECT source, CAST(count(*) AS BIGINT) AS n
          FROM documents GROUP BY source
        ),
        w AS (
          SELECT source, n,
                 CAST(floor(sqrt(CAST(n AS DOUBLE))) AS BIGINT) AS w
          FROM c
        ),
        s AS (
          SELECT sum(w) AS sw, (SELECT sum(n) FROM c) // 2 AS budget FROM w
        ),
        t AS (
          SELECT source, least(n, (budget * w) // sw) AS tgt FROM w, s
        ),
        r AS (
          SELECT source, doc_id,
                 row_number() OVER (
                   PARTITION BY source ORDER BY hash(doc_id), doc_id
                 ) - 1 AS rank
          FROM documents
        )
        SELECT r.source, r.doc_id, CAST(r.rank AS BIGINT) AS rank
        FROM r JOIN t ON r.source = t.source
        WHERE r.rank < t.tgt
    """,
    "calendar_features": """
        SELECT event_id,
               CAST(year(ts) AS BIGINT) AS year,
               CAST(month(ts) AS BIGINT) AS month,
               CAST(day(ts) AS BIGINT) AS day,
               CAST(week(ts) AS BIGINT) AS week,
               CAST(hour(ts) AS BIGINT) AS hour,
               CAST(dayofweek(ts) AS BIGINT) AS dow,
               CAST(CASE WHEN dayofweek(ts) IN (0, 6) THEN 1 ELSE 0 END
                    AS BIGINT) AS is_weekend
        FROM events
    """,
    "ohlc_bars": """
        SELECT user_id, epoch_us(ts) // 3600000000 AS bucket,
               first(value ORDER BY ts, event_id) AS open,
               max(value) AS high,
               min(value) AS low,
               last(value ORDER BY ts, event_id) AS close,
               CAST(count(value) AS BIGINT) AS n_events
        FROM events
        GROUP BY user_id, epoch_us(ts) // 3600000000
    """,
    "autocorr": """
        WITH b AS (
          SELECT user_id, ts, event_id,
                 CAST(round(value * 100) AS BIGINT) AS x
          FROM events
        ), l AS (
          SELECT user_id, x,
                 lead(x, 1) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS y
          FROM b
        ), p AS (
          SELECT user_id, x, y FROM l
          WHERE x IS NOT NULL AND y IS NOT NULL
        ), s AS (
          SELECT user_id, count(*) AS n,
                 CAST(sum(x) AS DOUBLE) AS sx,
                 CAST(sum(y) AS DOUBLE) AS sy,
                 CAST(sum(x*x) AS DOUBLE) AS sxx,
                 CAST(sum(y*y) AS DOUBLE) AS syy,
                 CAST(sum(x*y) AS DOUBLE) AS sxy
          FROM p GROUP BY user_id
        )
        SELECT user_id, CAST(n AS BIGINT) AS n_pairs,
               CASE WHEN (sxx - sx*sx/n) = 0 OR (syy - sy*sy/n) = 0
                    THEN NULL
                    ELSE ((sxy - sx*sy/n) / (n-1)) /
                         (sqrt((sxx - sx*sx/n)/(n-1)) *
                          sqrt((syy - sy*sy/n)/(n-1)))
               END AS autocorr
        FROM s WHERE n >= 2
    """,
    "weighted_stats": """
        WITH i AS (
          SELECT l_returnflag,
                 CAST(round(l_discount * 100) AS BIGINT) AS x,
                 CAST(l_quantity AS BIGINT) AS w
          FROM lineitem
          WHERE l_discount IS NOT NULL AND l_quantity IS NOT NULL
        ), s AS (
          SELECT l_returnflag,
                 CAST(sum(w) AS DOUBLE) AS sw,
                 CAST(sum(w*x) AS DOUBLE) AS swx,
                 CAST(sum(w*x*x) AS DOUBLE) AS swxx
          FROM i GROUP BY l_returnflag
        )
        SELECT l_returnflag, CAST(sw AS BIGINT) AS sum_w,
               swx / sw AS wmean,
               (swxx - swx*swx/sw) / sw AS wvar
        FROM s
    """,
    "except_events": """
        SELECT user_id, event_type FROM events
        EXCEPT
        SELECT user_id, event_type FROM events WHERE event_id % 20 = 0
    """,
    "intersect_segments": """
        SELECT c_nationkey, c_mktsegment FROM customer
        WHERE c_acctbal > 5000
        INTERSECT
        SELECT c_nationkey, c_mktsegment FROM customer
        WHERE c_acctbal < 1000
    """,
    "table_diff": """
        WITH old AS (
          SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders
          WHERE o_orderkey % 7 != 3
        ), new AS (
          SELECT o_orderkey,
                 CASE WHEN o_orderkey % 10 = 0 THEN o_totalprice * 2
                      ELSE o_totalprice END AS o_totalprice,
                 o_orderstatus
          FROM orders WHERE o_orderkey % 11 != 5
        ), d AS (
          SELECT coalesce(old.o_orderkey, new.o_orderkey) AS o_orderkey,
                 CASE WHEN old.o_orderkey IS NULL THEN 'added'
                      WHEN new.o_orderkey IS NULL THEN 'removed'
                      WHEN old.o_totalprice IS DISTINCT FROM
                             new.o_totalprice
                        OR old.o_orderstatus IS DISTINCT FROM
                             new.o_orderstatus THEN 'changed'
                      ELSE 'same' END AS status
          FROM old FULL OUTER JOIN new
            ON old.o_orderkey = new.o_orderkey
        )
        SELECT o_orderkey, status FROM d WHERE status != 'same'
    """,
    "chi_square": """
        WITH p AS (
          SELECT event_type, user_id % 5 AS ub, count(*) AS obs
          FROM events
          WHERE event_type IS NOT NULL AND user_id IS NOT NULL
          GROUP BY event_type, ub
        ), rt AS (
          SELECT event_type, sum(obs) AS ra FROM p GROUP BY event_type
        ), ct AS (
          SELECT ub, sum(obs) AS cb FROM p GROUP BY ub
        ), tot AS (SELECT sum(obs) AS n FROM p),
        e AS (
          SELECT p.event_type, p.ub, p.obs,
                 CAST(rt.ra * ct.cb AS DOUBLE) / n AS expected
          FROM p
          JOIN rt USING (event_type) JOIN ct USING (ub) CROSS JOIN tot
        )
        SELECT event_type, ub, CAST(obs AS BIGINT) AS observed, expected,
               ((obs - expected) * (obs - expected)) / expected
                 AS contribution
        FROM e
    """,
    "cooccurrence": """
        WITH d AS (
          SELECT DISTINCT user_id, event_type FROM events
          WHERE event_type IS NOT NULL AND user_id IS NOT NULL
        )
        SELECT a.event_type AS item_a, b.event_type AS item_b,
               CAST(count(*) AS BIGINT) AS cnt
        FROM d a JOIN d b
          ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY a.event_type, b.event_type
    """,
    "cusum": """
        WITH b AS (
          SELECT user_id, ts, event_id,
                 CAST(round(value * 100) AS BIGINT) AS x
          FROM events WHERE value IS NOT NULL
        ), w AS (
          SELECT user_id,
                 sum(x) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) AS ps,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS t,
                 count(*) OVER (PARTITION BY user_id) AS n,
                 sum(x) OVER (PARTITION BY user_id) AS tot
          FROM b
        )
        SELECT user_id, CAST(max(n) AS BIGINT) AS n,
               CAST(max(abs(n * ps - t * tot)) AS BIGINT) AS cusum
        FROM w GROUP BY user_id
    """,
    "decile_lift": """
        WITH t AS (
          SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                 NTILE(10) OVER (ORDER BY o_totalprice, o_orderkey)
                   AS decile
          FROM orders
        ), s AS (
          SELECT decile, count(*) AS n, sum(cents) AS rc
          FROM t GROUP BY decile
        ), g AS (SELECT sum(rc) AS gt, sum(n) AS gn FROM s)
        SELECT CAST(decile AS BIGINT) AS decile, CAST(n AS BIGINT) AS n,
               CAST(rc AS BIGINT) AS revenue_cents,
               (CAST(rc AS DOUBLE) / n) / (CAST(gt AS DOUBLE) / gn)
                 AS lift
        FROM s CROSS JOIN g
    """,
    "sequence_integrity": """
        WITH w AS (
          SELECT user_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events
        )
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
               CAST(sum(CASE WHEN event_type = prev THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_repeats,
               CAST(sum(CASE WHEN event_type != prev THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_changes
        FROM w GROUP BY user_id
    """,
    # vector aggregates: q = floor(x·2^20) int64 quantization makes every
    # Σ exact; the remaining float ops are single IEEE expressions stated
    # identically here and in ops/vector.py — bit-equal without goldens
    "embed_centroids": """
        WITH e AS (
          SELECT label, generate_subscripts(embedding, 1) - 1 AS dim,
                 CAST(floor(unnest(embedding) * 1048576.0) AS BIGINT) AS q
          FROM embeddings
        )
        SELECT label, CAST(dim AS BIGINT) AS dim,
               CAST(count(*) AS BIGINT) AS n,
               CAST(CAST(sum(q) AS BIGINT) AS DOUBLE)
                 / CAST(count(*) * 1048576 AS DOUBLE) AS centroid
        FROM e GROUP BY label, dim
    """,
    "centroid_cosine": """
        WITH e AS (
          SELECT vec_id, label,
                 generate_subscripts(embedding, 1) - 1 AS dim,
                 CAST(floor(unnest(embedding) * 1048576.0) AS BIGINT) AS q
          FROM embeddings
        ),
        c AS (
          SELECT label, dim,
                 CAST(floor((CAST(CAST(sum(q) AS BIGINT) AS DOUBLE)
                             / CAST(count(*) * 1048576 AS DOUBLE))
                            * 1048576.0) AS BIGINT) AS cq
          FROM e GROUP BY label, dim
        ),
        d AS (
          SELECT e.vec_id, any_value(e.label) AS label,
                 CAST(sum(e.q * c.cq) AS BIGINT) AS dot,
                 CAST(sum(e.q * e.q) AS BIGINT) AS xx,
                 CAST(sum(c.cq * c.cq) AS BIGINT) AS cc
          FROM e JOIN c ON e.label = c.label AND e.dim = c.dim
          GROUP BY e.vec_id
        )
        SELECT vec_id, label,
               CAST(dot AS DOUBLE)
                 / (sqrt(CAST(xx AS DOUBLE)) * sqrt(CAST(cc AS DOUBLE)))
                 AS cos_centroid
        FROM d
    """,
    "scd2_intervals": """
        WITH o AS (
          SELECT user_id, ts, event_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events
        ), marks AS (
          SELECT user_id, ts, event_id, event_type FROM o
          WHERE prev IS NULL OR prev <> event_type
        )
        SELECT user_id, event_type, ts AS valid_from,
               lead(ts) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS valid_to
        FROM marks
    """,
    "budget_prefix": """
        WITH w AS (
          SELECT event_id, user_id, ts,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        ), c AS (
          SELECT event_id, user_id,
                 CAST(sum(cents) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id
                                       ROWS UNBOUNDED PRECEDING)
                      AS BIGINT) AS cum_cents
          FROM w
        )
        SELECT event_id, user_id, cum_cents FROM c
        WHERE cum_cents <= 100000
    """,
    "grouped_winsorize": f"""
        WITH v AS (
          SELECT event_id, user_id, {_VALN_SQL} AS valn FROM events
        ), b AS (
          SELECT user_id, quantile_disc(valn, 0.1) AS lo,
                 quantile_disc(valn, 0.9) AS hi
          FROM v GROUP BY user_id
        )
        SELECT v.event_id,
               CASE WHEN v.valn IS NULL THEN NULL
                    ELSE least(greatest(v.valn, b.lo), b.hi) END AS w_value
        FROM v JOIN b USING (user_id)
    """,
    "remove_boilerplate": """
        WITH parts AS (
          SELECT doc_id, string_split(coalesce(text, ''), ' ') AS p
          FROM documents
        ), tok AS (
          SELECT doc_id, unnest(p) AS tok,
                 generate_subscripts(p, 1) AS idx
          FROM parts
        ), tot AS (
          SELECT CAST(count(*) AS BIGINT) AS n FROM tok
        ), freq AS (
          SELECT tok FROM tok GROUP BY tok
          HAVING count(*) >= ceil(0.034 * (SELECT n FROM tot))
        ), kept AS (
          SELECT doc_id, string_agg(tok, ' ' ORDER BY idx) AS text_clean,
                 CAST(count(*) AS BIGINT) AS n_kept
          FROM tok WHERE tok NOT IN (SELECT tok FROM freq)
          GROUP BY doc_id
        )
        SELECT d.doc_id, k.text_clean,
               CAST(len(string_split(coalesce(d.text, ''), ' '))
                    AS BIGINT) - coalesce(k.n_kept, 0) AS n_removed
        FROM documents d LEFT JOIN kept k ON d.doc_id = k.doc_id
    """,
    "doc_term_counts": r"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS token
          FROM documents
        ), vocab AS (
          SELECT token FROM (
            SELECT token, count(*) AS c FROM tok GROUP BY token
            ORDER BY c DESC, token ASC LIMIT 20
          )
        )
        SELECT t.doc_id, t.token, CAST(count(*) AS BIGINT) AS n
        FROM tok t JOIN vocab USING (token)
        GROUP BY t.doc_id, t.token
    """,
    "welch_ttest": """
        WITH s AS (
          SELECT l_returnflag, l_linestatus AS side,
                 CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sx,
                 CAST(sum(CAST(l_quantity AS BIGINT)
                          * CAST(l_quantity AS BIGINT)) AS BIGINT) AS sx2
          FROM lineitem
          WHERE l_linestatus IN ('F', 'O') AND l_quantity IS NOT NULL
          GROUP BY 1, 2
        ), w AS (
          SELECT a.l_returnflag,
                 a.n AS n_a, b.n AS n_b,
                 a.sx / a.n AS mean_a, b.sx / b.n AS mean_b,
                 (a.sx2 - (a.sx * a.sx) / a.n) / (a.n - 1) AS var_a,
                 (b.sx2 - (b.sx * b.sx) / b.n) / (b.n - 1) AS var_b
          FROM (SELECT * FROM s WHERE side = 'F') a
          JOIN (SELECT * FROM s WHERE side = 'O') b USING (l_returnflag)
          WHERE a.n >= 2 AND b.n >= 2
        )
        SELECT l_returnflag, n_a, n_b,
               (mean_a - mean_b) / sqrt(var_a / n_a + var_b / n_b)
                 AS t_welch,
               ((var_a / n_a + var_b / n_b)
                * (var_a / n_a + var_b / n_b))
               / ((var_a / n_a) * (var_a / n_a) / (n_a - 1)
                  + (var_b / n_b) * (var_b / n_b) / (n_b - 1))
                 AS df_welch
        FROM w
    """,
    "prior_mean": """
        WITH w AS (
          SELECT event_id, user_id, ts,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        )
        SELECT event_id,
               avg(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING) AS prior_mean
        FROM w
    """,
    "argmax_doc": """
        SELECT lang, source, doc_id, n_chars FROM (
          SELECT lang, source, doc_id, n_chars,
                 row_number() OVER (PARTITION BY lang, source
                                    ORDER BY n_chars DESC, doc_id ASC)
                   AS rn
          FROM documents
        ) WHERE rn = 1
    """,
    "pattern_counts": """
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '[aeiou]+')) AS BIGINT)
                 AS n_vowel_runs,
               CAST(len(regexp_extract_all(text, 'table|row')) AS BIGINT)
                 AS n_tbl,
               CAST(len(regexp_extract_all(text, ' ')) AS BIGINT)
                 AS n_spaces
        FROM documents
    """,
    "debounce": """
        SELECT event_id, user_id, bucket FROM (
          SELECT event_id, user_id,
                 epoch_us(ts) // 3600000000 AS bucket,
                 row_number() OVER (
                   PARTITION BY user_id, epoch_us(ts) // 3600000000
                   ORDER BY ts, event_id) AS rn
          FROM events WHERE ts IS NOT NULL
        ) WHERE rn = 1
    """,
    "group_share": """
        WITH w AS (
          SELECT event_id, user_id,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        )
        SELECT event_id,
               cents / CAST(sum(cents) OVER (PARTITION BY user_id)
                            AS BIGINT) AS share
        FROM w
    """,
    "seq_index": """
        SELECT event_id,
               CAST(row_number() OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id)
                    AS BIGINT) AS seq_idx
        FROM events
    """,
    "source_vocab_sim": r"""
        WITH st AS (
          SELECT DISTINCT source, token FROM (
            SELECT source,
                   unnest(regexp_extract_all(lower(coalesce(text, '')),
                                             '\w+')) AS token
            FROM documents
          )
        ), sz AS (
          SELECT source, CAST(count(*) AS BIGINT) AS n FROM st
          GROUP BY source
        ), pairs AS (
          SELECT a.source AS group_a, b.source AS group_b,
                 CAST(count(*) AS BIGINT) AS n_common
          FROM st a JOIN st b
            ON a.token = b.token AND a.source < b.source
          GROUP BY 1, 2
        )
        SELECT group_a, group_b, n_common,
               n_common / (za.n + zb.n - n_common) AS jaccard
        FROM pairs
        JOIN sz za ON za.source = group_a
        JOIN sz zb ON zb.source = group_b
    """,
    "compress_ratio": """
        SELECT doc_id, n_bytes, n_comp, comp_ratio
        FROM read_parquet('/root/repo/expected/compress_ratio_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(n_chars) AS BIGINT) FROM documents)
    """,
    "bpe_merges": """
        SELECT rank, lhs, rhs, pair_count
        FROM read_parquet('/root/repo/expected/bpe_merges_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(n_chars) AS BIGINT) FROM documents)
    """,
    "bpe_encode": """
        SELECT doc_id, n_words, n_tokens
        FROM read_parquet('/root/repo/expected/bpe_encode_*.parquet')
        WHERE corpus_key = (SELECT count(*) || '_' ||
                            CAST(sum(n_chars) AS BIGINT) FROM documents)
    """,
    "balanced_sample": """
        WITH c AS (
          SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM events
          GROUP BY 1
        ), m AS (SELECT min(n) AS n_min FROM c),
        r AS (
          SELECT event_id, event_type,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY hash(event_id), event_id)
                   AS rn
          FROM events
        )
        SELECT event_id, event_type FROM r
        WHERE rn <= (SELECT n_min FROM m)
    """,
    "grouped_histogram": """
        WITH b AS (
          SELECT event_type,
                 CAST(least(floor((value - 0.0) / ((500.0 - 0.0) / 20)),
                            19) AS BIGINT) AS bucket
          FROM events
          WHERE value >= 0.0 AND value <= 500.0
        )
        SELECT event_type, bucket,
               0.0 + bucket * ((500.0 - 0.0) / 20) AS lo_edge,
               CAST(count(*) AS BIGINT) AS cnt
        FROM b GROUP BY event_type, bucket
    """,
    "top_tokens_per_source": r"""
        WITH tok AS (
          SELECT source,
                 unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '\w+')) AS token
          FROM documents
        ), c AS (
          SELECT source, token, CAST(count(*) AS BIGINT) AS cnt
          FROM tok GROUP BY 1, 2
        )
        SELECT source, token, cnt, rnk FROM (
          SELECT source, token, cnt,
                 CAST(row_number() OVER (PARTITION BY source
                                         ORDER BY cnt DESC, token ASC)
                      AS BIGINT) AS rnk
          FROM c
        ) WHERE rnk <= 5
    """,
    "quality_checks": """
        SELECT 'value_range' AS "check",
               CAST(count(*) AS BIGINT) AS n_checked,
               CAST(sum(CASE WHEN value IS NOT NULL
                             AND (value < 0.0 OR value > 400.0)
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_violations
        FROM events
        UNION ALL
        SELECT 'ts_not_null', CAST(count(*) AS BIGINT),
               CAST(sum(CASE WHEN ts IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT)
        FROM events
        UNION ALL
        SELECT 'type_regex', CAST(count(*) AS BIGINT),
               CAST(sum(CASE WHEN event_type IS NOT NULL
                             AND NOT regexp_full_match(event_type,
                                                       '[a-z_]+')
                        THEN 1 ELSE 0 END) AS BIGINT)
        FROM events
        UNION ALL
        SELECT 'type_accepted', CAST(count(*) AS BIGINT),
               CAST(sum(CASE WHEN event_type IS NOT NULL
                             AND event_type NOT IN
                                 ('view', 'click', 'purchase', 'signup')
                        THEN 1 ELSE 0 END) AS BIGINT)
        FROM events
        UNION ALL
        SELECT 'event_id_unique', CAST(count(*) AS BIGINT),
               CAST(count(*) - count(DISTINCT event_id) AS BIGINT)
        FROM events
    """,
    "asof_nearest": """
        WITH p AS (
          SELECT user_id, ts, value AS purch_value FROM events
          WHERE event_type = 'purchase'
          QUALIFY row_number() OVER (PARTITION BY user_id, ts
                                     ORDER BY event_id) = 1
        ), b AS (
          SELECT e.event_id, p.ts AS bts, p.purch_value AS bval
          FROM events e ASOF LEFT JOIN p
            ON e.user_id = p.user_id AND e.ts >= p.ts
        ), f AS (
          SELECT e.event_id, p.ts AS fts, p.purch_value AS fval
          FROM events e ASOF LEFT JOIN p
            ON e.user_id = p.user_id AND e.ts <= p.ts
        )
        SELECT e.event_id,
               CASE WHEN bts IS NULL THEN fval
                    WHEN fts IS NULL THEN bval
                    WHEN (e.ts - bts) <= (fts - e.ts) THEN bval
                    ELSE fval END AS purch_value
        FROM events e
        JOIN b ON b.event_id = e.event_id
        JOIN f ON f.event_id = e.event_id
    """,
    "negative_samples": """
        WITH distinct_items AS (SELECT DISTINCT p_partkey FROM part),
        items AS (
          SELECT p_partkey,
                 row_number() OVER (ORDER BY p_partkey) - 1 AS idx
          FROM distinct_items
        ), keys AS (
          SELECT l_orderkey, l_linenumber,
                 CAST(l_orderkey * 8 + l_linenumber AS BIGINT) AS key
          FROM lineitem
        ), expand AS (
          SELECT k.l_orderkey, k.l_linenumber,
                 CAST(j.j AS BIGINT) AS neg_j,
                 CAST(hash(k.key * 2 + j.j)
                      % (SELECT count(*) FROM distinct_items)
                      AS BIGINT) AS idx
          FROM keys k CROSS JOIN (SELECT unnest([0, 1]) AS j) j
        )
        SELECT e.l_orderkey, e.l_linenumber, e.neg_j,
               i.p_partkey AS neg_item
        FROM expand e JOIN items i USING (idx)
    """,
    "windowed_distinct": """
        SELECT event_id,
               CAST(count(DISTINCT event_type) OVER (
                      PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
                    AS BIGINT) AS w_distinct
        FROM events
    """,
    "rolling_corr": f"""
        WITH w AS (
          SELECT event_id, user_id, ts,
                 CAST(round(({_VALN_SQL}) * 100) AS BIGINT) AS x,
                 epoch_us(ts) // 1000000 % 3600 AS y
          FROM events
        ), s AS (
          SELECT event_id,
                 CAST(sum(CASE WHEN x IS NOT NULL THEN 1 ELSE 0 END)
                      OVER fr AS DOUBLE) AS n,
                 CAST(coalesce(sum(x) OVER fr, 0) AS DOUBLE) AS sx,
                 CAST(coalesce(sum(CASE WHEN x IS NOT NULL THEN y END)
                      OVER fr, 0) AS DOUBLE) AS sy,
                 CAST(coalesce(sum(x * x) OVER fr, 0) AS DOUBLE) AS sxx,
                 CAST(coalesce(sum(CASE WHEN x IS NOT NULL
                                   THEN y * y END) OVER fr, 0)
                      AS DOUBLE) AS syy,
                 CAST(coalesce(sum(x * y) OVER fr, 0) AS DOUBLE) AS sxy
          FROM w
          WINDOW fr AS (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)
        )
        SELECT event_id,
               CASE WHEN n < 2 THEN NULL
                    WHEN sqrt((sxx - (sx * sx) / n) / (n - 1))
                         * sqrt((syy - (sy * sy) / n) / (n - 1)) = 0
                      THEN NULL
                    ELSE ((sxy - (sx * sy) / n) / (n - 1))
                         / (sqrt((sxx - (sx * sx) / n) / (n - 1))
                            * sqrt((syy - (sy * sy) / n) / (n - 1)))
               END AS r_corr
        FROM s
    """,
    "null_patterns": """
        WITH d AS (
          SELECT CASE WHEN event_id % 7 = 0 THEN NULL ELSE value END
                   AS valn,
                 CASE WHEN event_id % 11 = 0 THEN NULL ELSE value END
                   AS valn2
          FROM events
        )
        SELECT valn IS NULL AS valn_null, valn2 IS NULL AS valn2_null,
               CAST(count(*) AS BIGINT) AS n
        FROM d GROUP BY 1, 2
    """,
    "user_trend": """
        WITH i AS (
          SELECT user_id, epoch_us(ts) // 86400000000 AS x,
                 CAST(round(value * 100) AS BIGINT) AS y
          FROM events WHERE ts IS NOT NULL AND value IS NOT NULL
        ), s AS (
          SELECT user_id, count(*) AS n,
                 CAST(sum(x) AS DOUBLE) AS sx,
                 CAST(sum(y) AS DOUBLE) AS sy,
                 CAST(sum(x*x) AS DOUBLE) AS sxx,
                 CAST(sum(y*y) AS DOUBLE) AS syy,
                 CAST(sum(x*y) AS DOUBLE) AS sxy
          FROM i GROUP BY user_id
        ), m AS (
          SELECT user_id, n,
                 sxy - sx*sy/n AS cxy,
                 sxx - sx*sx/n AS vxx,
                 syy - sy*sy/n AS vyy,
                 sx, sy
          FROM s
        ), sl AS (
          SELECT user_id, n, cxy, vxx, vyy, sx, sy,
                 cxy / vxx AS slope
          FROM m
        )
        SELECT user_id, CAST(n AS BIGINT) AS n, slope,
               sy/n - slope*(sx/n) AS intercept,
               (cxy * cxy) / (vxx * vyy) AS r2
        FROM sl
    """,
    "winsorized_mean": """
        WITH w AS (
          SELECT event_id, user_id,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        ), b AS (
          SELECT user_id, quantile_disc(cents, 0.1) AS lo,
                 quantile_disc(cents, 0.9) AS hi
          FROM w GROUP BY user_id
        ), c AS (
          SELECT w.user_id,
                 least(greatest(w.cents, b.lo), b.hi) AS wc
          FROM w JOIN b USING (user_id)
        )
        SELECT user_id,
               CAST(sum(wc) AS DOUBLE) / CAST(count(wc) AS DOUBLE)
                 AS wmean
        FROM c GROUP BY user_id
    """,
    "fk_orphans": """
        SELECT 'lineitem_without_order' AS relation,
               CAST(count(*) AS BIGINT) AS n_orphans
        FROM lineitem l
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_orderkey = l.l_orderkey)
        UNION ALL
        SELECT 'order_without_lineitem',
               CAST(count(*) AS BIGINT)
        FROM orders o
        WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey)
    """,
    "segment_dedup": """
        WITH toks AS (
          SELECT doc_id,
                 unnest(string_split(text, ' ')) AS tok,
                 unnest(range(len(string_split(text, ' ')))) AS ti
          FROM documents
        ), segs AS (
          SELECT doc_id, ti // 8 AS seg_idx,
                 string_agg(tok, ' ' ORDER BY ti) AS segment
          FROM toks GROUP BY doc_id, ti // 8
        ), kept AS (
          SELECT doc_id, seg_idx, segment,
                 row_number() OVER (PARTITION BY segment
                                    ORDER BY doc_id, seg_idx) AS rn
          FROM segs
        )
        SELECT doc_id,
               string_agg(segment, ' ' ORDER BY seg_idx) AS text_dedup,
               CAST(count(*) AS BIGINT) AS n_kept
        FROM kept WHERE rn = 1
        GROUP BY doc_id
    """,
    "gini_spend": """
        WITH w AS (
          SELECT o_custkey,
                 CAST(round(o_totalprice * 100) AS BIGINT) AS cents
          FROM orders
        ), r AS (
          SELECT o_custkey, cents,
                 row_number() OVER (PARTITION BY o_custkey
                                    ORDER BY cents) AS i
          FROM w
        ), s AS (
          SELECT o_custkey, sum(i * cents) AS ixi, sum(cents) AS sx,
                 count(*) AS n
          FROM r GROUP BY o_custkey
        )
        SELECT o_custkey,
               (2.0 * ixi) / CAST(n * sx AS DOUBLE)
                 - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE) AS spend_gini
        FROM s
    """,
    "bitops_flags": """
        WITH w AS (
          SELECT user_id, CAST(round(value * 100) AS BIGINT) AS flags
          FROM events
        )
        SELECT user_id, bit_and(flags) AS band, bit_or(flags) AS bor,
               bit_xor(flags) AS bxor
        FROM w GROUP BY user_id
    """,
    "ab_ztest": """
        WITH c AS (
          SELECT event_type,
                 sum(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END) AS n0,
                 sum(CASE WHEN user_id % 2 = 0 AND value > 50
                          THEN 1 ELSE 0 END) AS x0,
                 sum(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END) AS n1,
                 sum(CASE WHEN user_id % 2 = 1 AND value > 50
                          THEN 1 ELSE 0 END) AS x1
          FROM events GROUP BY event_type
        )
        SELECT event_type,
               CAST(n0 AS BIGINT) AS n0, CAST(x0 AS BIGINT) AS x0,
               CAST(n1 AS BIGINT) AS n1, CAST(x1 AS BIGINT) AS x1,
               (CAST(x1 AS DOUBLE) / n1 - CAST(x0 AS DOUBLE) / n0)
                 / sqrt((CAST(x0 + x1 AS DOUBLE) / (n0 + n1))
                        * (1.0 - CAST(x0 + x1 AS DOUBLE) / (n0 + n1))
                        * (1.0 / n1 + 1.0 / n0)) AS z
        FROM c
    """,
    "readability": """
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
               CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
                    AS BIGINT) AS n_syllables,
               CAST(len(regexp_extract_all(text, '[.!?]+[ ]')) + 1
                    AS BIGINT) AS n_sentences,
               (0.39 * (CAST(len(string_split(text, ' ')) AS DOUBLE)
                        / (len(regexp_extract_all(text, '[.!?]+[ ]'))
                           + 1))
                + 11.8 * (CAST(len(regexp_extract_all(lower(text),
                                                      '[aeiouy]+'))
                               AS DOUBLE)
                          / len(string_split(text, ' '))))
               - 15.59 AS fk_grade
        FROM documents
    """,
    "stratified_split": """
        WITH r AS (
          SELECT doc_id, lang,
                 row_number() OVER (PARTITION BY lang
                                    ORDER BY hash(doc_id), doc_id) AS rn,
                 count(*) OVER (PARTITION BY lang) AS n
          FROM documents
        )
        SELECT doc_id, lang,
               CASE WHEN rn <= CAST(floor(0.2 * n) AS BIGINT)
                    THEN 'test' ELSE 'train' END AS split
        FROM r
    """,
    "weighted_median": """
        WITH w AS (
          SELECT l_returnflag,
                 CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
                 CAST(l_quantity AS BIGINT) AS qty
          FROM lineitem
        ), a AS (
          SELECT l_returnflag, cents, sum(qty) AS wv
          FROM w GROUP BY l_returnflag, cents
        ), c AS (
          SELECT l_returnflag, cents,
                 sum(wv) OVER (PARTITION BY l_returnflag
                               ORDER BY cents) AS cum,
                 sum(wv) OVER (PARTITION BY l_returnflag) AS tot
          FROM a
        )
        SELECT l_returnflag,
               min(cents) FILTER (WHERE 2 * cum >= tot)
                 AS wmedian_cents
        FROM c GROUP BY l_returnflag
    """,
    "pagerank": """
        WITH e AS (
          SELECT l_suppkey * 2 AS src, l_partkey * 2 + 1 AS dst
          FROM lineitem
          UNION ALL
          SELECT l_partkey * 2 + 1, l_suppkey * 2 FROM lineitem
        ),
        nn AS (SELECT DISTINCT node FROM
                 (SELECT src AS node FROM e UNION SELECT dst FROM e)),
        p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nn),
        deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d
                FROM e GROUP BY src),
        r0 AS (SELECT node, 1000000000000 // (SELECT n FROM p) AS r
               FROM nn),
        c1 AS (SELECT e.dst AS node, sum(r0.r // deg.d) AS s
               FROM e JOIN r0 ON r0.node = e.src
                      JOIN deg ON deg.src = e.src
               GROUP BY e.dst),
        r1 AS (SELECT nn.node,
                      ((1000000000000 * 15) // 100) // (SELECT n FROM p)
                        + (85 * coalesce(c1.s, 0)) // 100 AS r
               FROM nn LEFT JOIN c1 USING (node)),
        c2 AS (SELECT e.dst AS node, sum(r1.r // deg.d) AS s
               FROM e JOIN r1 ON r1.node = e.src
                      JOIN deg ON deg.src = e.src
               GROUP BY e.dst),
        r2 AS (SELECT nn.node,
                      ((1000000000000 * 15) // 100) // (SELECT n FROM p)
                        + (85 * coalesce(c2.s, 0)) // 100 AS r
               FROM nn LEFT JOIN c2 USING (node))
        SELECT node, CAST(r AS BIGINT) AS rank FROM r2
    """,
    "budget_sample": """
        WITH r AS (
          SELECT doc_id, source, n_chars,
                 sum(n_chars) OVER (PARTITION BY source
                                    ORDER BY hash(doc_id), doc_id
                                    ROWS UNBOUNDED PRECEDING) AS cw
          FROM documents
        )
        SELECT doc_id, source, n_chars FROM r WHERE cw <= 4000
    """,
    "pit_state": """
        WITH o AS (
          SELECT user_id, ts, event_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events
        ), marks AS (
          SELECT user_id, ts, event_type FROM o
          WHERE prev IS NULL OR prev <> event_type
        ), d AS (
          SELECT user_id, event_type AS prior_state, ts AS valid_from
          FROM marks
          QUALIFY row_number() OVER (PARTITION BY user_id, ts
                                     ORDER BY event_type) = 1
        ), p AS (
          SELECT event_id, user_id, ts - INTERVAL 1 HOUR AS ts_lag
          FROM events
        )
        SELECT p.event_id, d.prior_state
        FROM p ASOF LEFT JOIN d
          ON p.user_id = d.user_id AND p.ts_lag >= d.valid_from
    """,
    "twap": """
        WITH w AS (
          SELECT user_id, ts, event_id,
                 CAST(round(value * 100) AS BIGINT) AS cents,
                 epoch_us(ts) AS us
          FROM events
        ), d AS (
          SELECT user_id, cents,
                 lead(us) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) - us AS dur
          FROM w
        )
        SELECT user_id,
               CAST(sum(cents * dur) AS DOUBLE)
                 / CAST(sum(dur) AS DOUBLE) AS twap
        FROM d GROUP BY user_id
    """,
    "fuzzy_link": """
        SELECT c_custkey, s_suppkey,
               jaro_winkler_similarity(c_name, s_name) AS sim
        FROM customer JOIN supplier
          ON right(c_name, 3) = right(s_name, 3)
        WHERE jaro_winkler_similarity(c_name, s_name) >= 0.8
    """,
    "quantile_normalize": """
        WITH w AS (
          SELECT event_id, event_type,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events
        ), g AS (
          SELECT event_id, cents,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY cents, event_id) AS i,
                 count(*) OVER (PARTITION BY event_type) AS n
          FROM w
        ), s AS (
          SELECT cents AS vq,
                 row_number() OVER (ORDER BY cents, event_id) AS j
          FROM w
        ), p AS (SELECT count(*) AS nn FROM w)
        SELECT g.event_id, s.vq
        FROM g JOIN s
          ON s.j = (g.i * (SELECT nn FROM p) + g.n - 1) // g.n
    """,
    "quantize_embeddings": """
        WITH e AS (
          SELECT vec_id, embedding,
                 list_max(list_transform(embedding,
                                         x -> abs(CAST(x AS DOUBLE))))
                   AS s
          FROM embeddings
        )
        SELECT vec_id,
               unnest(range(len(embedding))) AS j,
               CAST(CASE WHEN s = 0 THEN 0
                         ELSE trunc(CAST(unnest(embedding) AS DOUBLE)
                                    / s * 127.0)
                    END AS BIGINT) AS q,
               s
        FROM e
    """,
    "attribution": """
        WITH p AS (
          SELECT event_id, user_id, ts FROM events
          WHERE event_type = 'purchase'
        ), c AS (
          SELECT user_id, ts, event_id AS click_id FROM events
          WHERE event_type = 'click'
          QUALIFY row_number() OVER (PARTITION BY user_id, ts
                                     ORDER BY event_id) = 1
        )
        SELECT p.event_id,
               CASE WHEN p.ts - c.ts <= INTERVAL 30 MINUTE
                    THEN CAST(c.click_id AS DOUBLE) END AS click_id
        FROM p ASOF LEFT JOIN c
          ON p.user_id = c.user_id AND p.ts >= c.ts
    """,
}


QUERIES = {
    "impute_zero": q_impute_zero,
    "impute_ffill": q_impute_ffill,
    "impute_bfill": q_impute_bfill,
    "impute_group_mean": q_impute_group_mean,
    "impute_global_mean": q_impute_global_mean,
    "historical": q_historical,
    "hist_lineitem": q_hist_lineitem,
    "rolling": q_rolling,
    "lag_lead": q_lag_lead,
    "sessionize": q_sessionize,
    "session_stats": q_session_stats,
    "pack_sequences": q_pack_sequences,
    "historical_salted": q_historical_salted,
    "scale_standard": q_scale_standard,
    "scale_minmax": q_scale_minmax,
    "scale_robust": q_scale_robust,
    "binarize": q_binarize,
    "kbins_uniform": q_kbins_uniform,
    "encode_ordinal": q_encode_ordinal,
    "encode_onehot": q_encode_onehot,
    "resample_agg_1h": q_resample_agg_1h,
    "resample_grid_1h": q_resample_grid_1h,
    "asof_purchase": q_asof_purchase,
    "range_join_clicks": q_range_join_clicks,
    "window_click_stats": q_window_click_stats,
    "normalize_text": q_normalize_text,
    "join_orders_customer": q_join_orders_customer,
    "join_lineitem_orders": q_join_lineitem_orders,
    "skew_join_type_stats": q_skew_join_type_stats,
    "semi_join_orders": q_semi_join_orders,
    "anti_join_customer": q_anti_join_customer,
    "dedup_exact": q_dedup_exact,
    "text_stats": q_text_stats,
    "vocab_top100": q_vocab_top100,
    "frequent_tokens": q_frequent_tokens,
    "lm_score": q_lm_score,
    "bigram_top50": q_bigram_top50,
    "redact_pii": q_redact_pii,
    "props_extract": q_props_extract,
    "funnel": q_funnel,
    "cohort_retention": q_cohort_retention,
    "active_users": q_active_users,
    "props_sum_by_type": q_props_sum_by_type,
    "chunk_documents": q_chunk_documents,
    "duplicate_spans": q_duplicate_spans,
    "tfidf_top3": q_tfidf_top3,
    "top_docs_per_source": q_top_docs_per_source,
    "exact_quantiles": q_exact_quantiles,
    "group_quantiles": q_group_quantiles,
    "global_rank": q_global_rank,
    "ntile": q_ntile,
    "cume_dist": q_cume_dist,
    "mode_event": q_mode_event,
    "event_entropy": q_event_entropy,
    "grouped_corr": q_grouped_corr,
    "value_ranks": q_value_ranks,
    "merge_intervals": q_merge_intervals,
    "event_transitions": q_event_transitions,
    "event_trigrams": q_event_trigrams,
    "trend_test": q_trend_test,
    "theil_sen": q_theil_sen,
    "benford": q_benford,
    "grouped_minmax": q_grouped_minmax,
    "state_runs": q_state_runs,
    "cumulative_distinct": q_cumulative_distinct,
    "grouped_auc": q_grouped_auc,
    "feature_hash": q_feature_hash,
    "grouped_robust": q_grouped_robust,
    "time_split": q_time_split,
    "cms_counts": q_cms_counts,
    "interarrival": q_interarrival,
    "decayed_sum": q_decayed_sum,
    "first_last": q_first_last,
    "bigram_lm": q_bigram_lm,
    "pmi_bigrams": q_pmi_bigrams,
    "pca_embeddings": q_pca_embeddings,
    "target_encode": q_target_encode,
    "winsorize": q_winsorize,
    "distinct_users_hll": q_distinct_users_hll,
    "robust_outliers": q_robust_outliers,
    "rollup_doc_stats": q_rollup_doc_stats,
    "cube_doc_stats": q_cube_doc_stats,
    "funnel_latency": q_funnel_latency,
    "longest_streak": q_longest_streak,
    "churn_labels": q_churn_labels,
    "sample_per_source": q_sample_per_source,
    "weighted_sample": q_weighted_sample,
    "pivot_event_counts": q_pivot_event_counts,
    "melt_lineitem": q_melt_lineitem,
    "event_paths": q_event_paths,
    "distinct_parts": q_distinct_parts,
    "knn_cosine": q_knn_cosine,
    "knn_ivf": q_knn_ivf,
    "knn_impute": q_knn_impute,
    "knn_impute_ivf": q_knn_impute_ivf,
    "decontaminate": q_decontaminate,
    "curate_corpus": q_curate_corpus,
    "repetition_stats": q_repetition_stats,
    "profile": q_profile,
    "hash_split": q_hash_split,
    "mix_sources": q_mix_sources,
    "iterative_impute": q_iterative_impute,
    "dedup_minhash": q_dedup_minhash,
    "dedup_jaccard": q_dedup_jaccard,
    "dedup_containment": q_dedup_containment,
    "dedup_overlap": q_dedup_overlap,
    "fuzzy_decontaminate": q_fuzzy_decontaminate,
    "dedup_semantic": q_dedup_semantic,
    "dedup_simhash": q_dedup_simhash,
    "dedup_embedding": q_dedup_embedding,
    "langid_quality": q_langid_quality,
    "quantile_transform": q_quantile_transform,
    "power_yj": q_power_yj,
    "spline_basis": q_spline_basis,
    "grouped_regr": q_grouped_regr,
    "histogram_values": q_histogram_values,
    "revenue_by_nation": q_revenue_by_nation,
    "rfm_segments": q_rfm_segments,
    "dedup_levenshtein": q_dedup_levenshtein,
    "connected_components": q_connected_components,
    "calendar_features": q_calendar_features,
    "impute_linear": q_impute_linear,
    "k_anonymity": q_k_anonymity,
    "left_join_customer_orders": q_left_join_customer_orders,
    "asof_next_purchase": q_asof_next_purchase,
    "l_diversity": q_l_diversity,
    "mix_temperature": q_mix_temperature,
    "feature_bake": q_feature_bake,
    "gopher_filter": q_gopher_filter,
    "grouped_zscore": q_grouped_zscore,
    "dup_clusters": q_dup_clusters,
    "outer_join_counts": q_outer_join_counts,
    "kbins_quantile": q_kbins_quantile,
    "chunk_sentences": q_chunk_sentences,
    "grouped_percent_rank": q_grouped_percent_rank,
    "top_spenders": q_top_spenders,
    "lexical_diversity": q_lexical_diversity,
    "hash_sample": q_hash_sample,
    "dedup_jaro_winkler": q_dedup_jaro_winkler,
    "dedup_sorted_neighborhood": q_dedup_sorted_neighborhood,
    "dedup_against": q_dedup_against,
    "quantile_cont": q_quantile_cont,
    "grouped_moments": q_grouped_moments,
    "psi_value_drift": q_psi_value_drift,
    "segment_psi": q_segment_psi,
    "ks_quantity_flag": q_ks_quantity_flag,
    "ohlc_bars": q_ohlc_bars,
    "autocorr": q_autocorr,
    "weighted_stats": q_weighted_stats,
    "except_events": q_except_events,
    "intersect_segments": q_intersect_segments,
    "table_diff": q_table_diff,
    "chi_square": q_chi_square,
    "cooccurrence": q_cooccurrence,
    "association_rules": q_association_rules,
    "grouped_ols2": q_grouped_ols2,
    "corr_matrix": q_corr_matrix,
    "nzv_report": q_nzv_report,
    "peak_concurrency": q_peak_concurrency,
    "simpson_diversity": q_simpson_diversity,
    "top_share": q_top_share,
    "transition_latency": q_transition_latency,
    "spearman": q_spearman,
    "last_value_pct": q_last_value_pct,
    "burst_counts": q_burst_counts,
    "user_features": q_user_features,
    "collapse_rare": q_collapse_rare,
    "oversample": q_oversample,
    "max_drawdown": q_max_drawdown,
    "rate_ci": q_rate_ci,
    "cusum": q_cusum,
    "decile_lift": q_decile_lift,
    "sequence_integrity": q_sequence_integrity,
    "embed_centroids": q_embed_centroids,
    "centroid_cosine": q_centroid_cosine,
    "scd2_intervals": q_scd2_intervals,
    "budget_prefix": q_budget_prefix,
    "grouped_winsorize": q_grouped_winsorize,
    "remove_boilerplate": q_remove_boilerplate,
    "doc_term_counts": q_doc_term_counts,
    "welch_ttest": q_welch_ttest,
    "prior_mean": q_prior_mean,
    "argmax_doc": q_argmax_doc,
    "pattern_counts": q_pattern_counts,
    "debounce": q_debounce,
    "group_share": q_group_share,
    "seq_index": q_seq_index,
    "source_vocab_sim": q_source_vocab_sim,
    "compress_ratio": q_compress_ratio,
    "bpe_merges": q_bpe_merges,
    "bpe_encode": q_bpe_encode,
    "balanced_sample": q_balanced_sample,
    "grouped_histogram": q_grouped_histogram,
    "top_tokens_per_source": q_top_tokens_per_source,
    "quality_checks": q_quality_checks,
    "asof_nearest": q_asof_nearest,
    "negative_samples": q_negative_samples,
    "windowed_distinct": q_windowed_distinct,
    "rolling_corr": q_rolling_corr,
    "null_patterns": q_null_patterns,
    "user_trend": q_user_trend,
    "winsorized_mean": q_winsorized_mean,
    "fk_orphans": q_fk_orphans,
    "segment_dedup": q_segment_dedup,
    "gini_spend": q_gini_spend,
    "bitops_flags": q_bitops_flags,
    "ab_ztest": q_ab_ztest,
    "readability": q_readability,
    "stratified_split": q_stratified_split,
    "weighted_median": q_weighted_median,
    "pagerank": q_pagerank,
    "triangle_parts": q_triangle_parts,
    "budget_sample": q_budget_sample,
    "pit_state": q_pit_state,
    "twap": q_twap,
    "fuzzy_link": q_fuzzy_link,
    "quantile_normalize": q_quantile_normalize,
    "quantize_embeddings": q_quantize_embeddings,
    "attribution": q_attribution,
}
