"""Category encodings fit distributed, applied broadcast — no shuffle.

``target_encode`` implements the feature-engineering classic
(Micci-Barreca 2001, smoothed mean-target a.k.a. likelihood encoding)
plus frequency encoding in one op::

    te(c)   = (Σ_c y + m·ȳ) / (n_c + m)      -- m = smoothing pseudo-count
    freq(c) = n_c / N

where n_c / Σ_c y count and sum the NON-NULL targets of category c and
ȳ = ΣY / N is the global prior. High-cardinality categories shrink toward
the prior (small n_c), dominant categories approach their raw mean — the
leakage-robust way to feed a 10⁶-category column to a model.

Motion: one per-block vectorized combiner pass emits (cat, n, Σy) partial
rows; the driver folds ≤ driver_cap categories and ``ray.put``s the
encoding table; one streaming stamp pass maps it onto every row. The
corpus never shuffles. Null or unseen categories encode to the prior ȳ
(te) and 0.0 (freq) — exactly what a SQL LEFT JOIN + coalesce yields.

Complements the reference's StepSklearn ordinal/one-hot encoders
(reference step.py:393-413; transformers.py OrdinalEncoder/OneHotEncoder):
those are shape encoders, this is a supervised statistic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def target_encode(
    ds,
    cat_col: str,
    target_col: str,
    m: float = 20.0,
    te_col: str | None = None,
    freq_col: str | None = None,
    driver_cap: int = 1_000_000,
):
    """Append ``te_<cat>`` and ``freq_<cat>`` columns (module docstring).

    Float contract: counts are exact int64 so ``freq`` is one bit-safe
    IEEE division; ``te`` is evaluated in the documented operation order
    ``(Σ_c y + m·(ΣY/N)) / (n_c + m)`` — the same tree a SQL oracle
    states, so engines differ only by Σy summation order."""
    import ray

    from recipys_ray.kernels.grouped import _lazy_size_bytes

    te_col = te_col or f"te_{cat_col}"
    freq_col = freq_col or f"freq_{cat_col}"

    # two passes over ds (fit, stamp): pin DERIVED inputs once (standard
    # multi-pass policy — ROUND5_NOTES.md); pure reads re-read parquet
    if _lazy_size_bytes(ds) is None:
        ds = ds.materialize()

    def partial(tbl: pa.Table) -> pa.Table:
        cat_t = tbl.schema.field(cat_col).type
        pdf = tbl.select([cat_col, target_col]).to_pandas()
        pdf = pdf[pdf[target_col].notna() & pdf[cat_col].notna()]
        agg = (
            pdf.groupby(cat_col, sort=False, observed=True)[target_col]
            .agg(["count", "sum"])
            .reset_index()
        )
        return pa.table({
            "c": pa.Array.from_pandas(agg[cat_col], type=cat_t),
            "n": pa.array(agg["count"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(agg["sum"].to_numpy(np.float64), pa.float64()),
        })

    parts = (
        ds.select_columns([cat_col, target_col])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    if "c" not in parts.columns or not len(parts):
        # zero partial rows: every (cat, target) pair had a null side
        raise ValueError(
            f"target_encode: no non-null ({cat_col!r}, {target_col!r}) rows"
        )
    enc = parts.groupby("c", sort=True).agg(
        n=("n", "sum"), s=("s", "sum")
    ).reset_index()
    if len(enc) > driver_cap:
        raise ValueError(
            f"target_encode: {len(enc)} categories of {cat_col!r} exceeds "
            f"driver_cap={driver_cap}"
        )
    n_total = int(enc["n"].sum())
    if n_total == 0:
        raise ValueError(
            f"target_encode: no non-null ({cat_col!r}, {target_col!r}) rows"
        )
    s_total = float(enc["s"].sum())
    prior = s_total / np.float64(n_total)  # ȳ = ΣY / N
    n_c = enc["n"].to_numpy(np.int64)
    te = (enc["s"].to_numpy(np.float64) + m * prior) / (
        n_c.astype(np.float64) + m
    )
    freq = n_c.astype(np.float64) / np.float64(n_total)
    table_ref = ray.put((
        dict(zip(enc["c"].tolist(), te.tolist())),
        dict(zip(enc["c"].tolist(), freq.tolist())),
        float(prior),
    ))

    def stamp(tbl: pa.Table) -> pa.Table:
        te_map, fr_map, pr = ray.get(table_ref)
        cats = tbl.column(cat_col).to_pandas()
        te_v = cats.map(te_map).fillna(pr).to_numpy(np.float64)
        fr_v = cats.map(fr_map).fillna(0.0).to_numpy(np.float64)
        return tbl.append_column(te_col, pa.array(te_v)).append_column(
            freq_col, pa.array(fr_v)
        )

    return ds.map_batches(stamp, batch_format="pyarrow")


def collapse_rare_categories(
    ds,
    cat_col: str,
    min_count: int = 10,
    other_label: str = "__other__",
    out_col: str | None = None,
    driver_cap: int = 5_000_000,
):
    """Collapse infrequent categories to a single ``other_label`` — the
    R-recipes ``step_other`` analog, the standard pre-encoding guard
    against long-tail categorical explosion. A category survives iff its
    exact corpus count ≥ ``min_count``; null categories stay null
    (nulls are missing, not rare — SQL semantics). Dictionary columns
    collapse on their decoded values; when the category type cannot hold
    ``other_label`` (integer categories, string label) the collapsed
    column holds the categories' string form.

    Motion is the encoder-family standard: one vectorized per-block
    (category, count) combiner pass, partials fold per category through
    ONE skinny exchange to ≤ ``driver_cap`` driver rows, the surviving
    set broadcasts via ``ray.put``, and the stamp is a zero-shuffle
    per-batch Arrow ``is_in``. Exact integers end-to-end — bit-equal to
    the SQL windowed-count oracle."""
    import pyarrow.compute as pc
    import ray

    from recipys_ray.kernels.grouped import _lazy_size_bytes
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    out_col = out_col or f"{cat_col}_collapsed"
    if _lazy_size_bytes(ds) is None:
        ds = ds.materialize()

    def partial(tbl: pa.Table) -> pa.Table:
        cat_t = tbl.schema.field(cat_col).type
        pdf = tbl.select([cat_col]).to_pandas()
        pdf = pdf[pdf[cat_col].notna()]
        agg = (
            pdf.groupby(cat_col, sort=False, observed=True)
            .size()
            .rename("cnt")
            .reset_index()
        )
        return pa.table({
            cat_col: pa.Array.from_pandas(agg[cat_col], type=cat_t),
            "cnt": pa.array(agg["cnt"].to_numpy(np.int64), pa.int64()),
        })

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(cat_col, sort=False, observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    counts = partitioned_groupby_map(
        ds.select_columns([cat_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        [cat_col], fold,
    ).to_pandas()
    if len(counts) > driver_cap:
        raise ValueError(
            f"{len(counts)} categories exceeds driver_cap={driver_cap}; "
            "raise the cap knowingly or pre-hash the column"
        )
    keep = (
        counts[counts["cnt"] >= min_count][cat_col].tolist()
        if len(counts) else []
    )
    keep_ref = ray.put(keep)

    def stamp(tbl: pa.Table) -> pa.Table:
        kept = ray.get(keep_ref)
        col = tbl.column(cat_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_dictionary(col.type):
            col = col.dictionary_decode()
        ok = pc.is_in(col, value_set=pa.array(kept, col.type)) \
            if kept else pa.array([False] * len(col), pa.bool_())
        try:
            other = pa.scalar(other_label, col.type)
            out = col
        except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError, ValueError):
            # the category type can't hold the label (numeric categories,
            # string label): the collapsed column is the string form
            other = pa.scalar(str(other_label), pa.string())
            out = col.cast(pa.string())
        collapsed = pc.if_else(
            pc.is_valid(col), pc.if_else(ok, out, other), out
        )
        return tbl.append_column(out_col, collapsed)

    return ds.map_batches(stamp, batch_format="pyarrow")


def feature_hash(
    ds,
    id_col: str,
    text_col: str,
    num_buckets: int = 1024,
    bucket_col: str = "bucket",
    weight_col: str = "weight",
):
    """Hashing-trick text featurizer (Weinberger 2009, sklearn
    HashingVectorizer semantics): each lowercased ``\\w+`` token t of a
    document contributes ``sign(t)`` to bucket ``h(t) % num_buckets``,
    where ``h`` is DuckDB's VARCHAR ``hash()`` (MurmurHash64A — bit-parity
    via :func:`~recipys_ray.kernels.duckdb_parity.duckdb_hash_varchar`) and
    ``sign(t) = +1 if (h(t) // num_buckets) % 2 == 0 else -1`` — an
    independent hash bit, so bucket-collision bias cancels in expectation.
    Output: one (id, bucket, weight) row per NON-ZERO-COUNT bucket pair
    touched by the document — the sparse feature triplet layout trainers
    ingest directly; weights are exact int64, hash-reproducible across
    engines, partition layouts and runs.

    Motion: ZERO shuffle — documents are featurized independently per
    batch (tokenize with Arrow RE2 kernels, one vectorized hash pass, one
    composite-key groupby per batch). At 100 TB this is a pure streaming
    map; downstream training shards by id with whatever exchange it needs.

    Null texts emit no rows (no tokens). Documents whose signed counts
    cancel to zero in a bucket still emit that (id, bucket, 0) row,
    matching the SQL GROUP BY sum over tokens."""
    from recipys_ray.kernels.duckdb_parity import duckdb_hash_varchar
    from recipys_ray.ops.text import word_stream

    D = np.uint64(int(num_buckets))

    def featurize(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        words, counts = word_stream(tbl.column(text_col))
        h = duckdb_hash_varchar(words)
        bucket = (h % D).astype(np.int64)
        sign = np.where((h // D) % np.uint64(2) == 0, np.int64(1),
                        np.int64(-1))
        doc = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        # composite key (doc, bucket) → signed sum, one vectorized groupby
        key = doc * np.int64(num_buckets) + bucket
        uniq, inv = np.unique(key, return_inverse=True)
        w = np.zeros(len(uniq), np.int64)
        np.add.at(w, inv, sign)
        out_doc = (uniq // np.int64(num_buckets)).astype(np.int64)
        out_bucket = uniq % np.int64(num_buckets)
        return pa.table({
            id_col: pa.array(ids[out_doc],
                             type=tbl.schema.field(id_col).type),
            bucket_col: pa.array(out_bucket, pa.int64()),
            weight_col: pa.array(w, pa.int64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        featurize, batch_format="pyarrow"
    )
