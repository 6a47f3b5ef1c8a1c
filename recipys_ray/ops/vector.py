"""Vector-column aggregates over ``list<float>`` embedding columns.

Mean pooling (per-group centroids) and centroid-cosine stamping are the
two embedding aggregates a curation pipeline leans on: per-source /
per-label centroids summarize a corpus region, and each document's cosine
to its group centroid is the standard "how typical is this example"
score used for pruning outliers and boilerplate (cf. SemDeDup's
cluster-distance ordering, ops/semdedup.py).

Motion pattern (the repo's combiner-first shape, cf. ops/groupstats.py):
a per-block VECTORIZED partial aggregate shrinks each block to
``#groups × dim`` partial rows, ONE exchange (or a driver fold — the
partials are `#groups × dim`-tiny) co-locates them, and a vectorized
finish divides. The embedding payload itself never shuffles.

Exactness contract (the golden-free float determinism trick used across
this repo, cf. ops/pca.py int64-quantized sufficient statistics):
elements quantize to ``q = floor(x · 2^20)`` per (vector, dim) — float32
inputs promote to float64 exactly, the power-of-two scaling is exact,
and floor is a single IEEE op — so every Σ is an EXACT int64 and block
layout / summation order cannot change a bit. Each finish is then the
literal IEEE expression the SQL oracle states (one division; sqrt is
IEEE-754 correctly-rounded in both engines), so results are bit-equal
without goldens. int64 headroom: |q| ≤ 2^20·max|x|, so Σq·q per vector
is ≤ dim·(2^20·max|x|)² — overflow needs max|x|·√dim ≳ 2^11, far beyond
unit-norm-ish embeddings; the quantized centroid keeps Σq·cq in the
same envelope independent of group size.

Reference parity: the reference engine (rvandewater/ReciPys) has no
vector-column operations; this extends the grouped-aggregate surface
(reference step.py:200-320 accumulators) to embedding payloads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_SCALE = 2**20


def _quantized(tbl: pa.Table, vec_col: str, scale: int) -> np.ndarray:
    """(n, dim) int64 matrix of floor(x·scale) for a fixed-width
    list<float> column. Null vectors and ragged widths are contract
    violations (raise) — embedding tables are fixed-dim by construction."""
    arr = tbl.column(vec_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        raise ValueError(f"{vec_col}: null vectors are not supported")
    lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
    if len(lens) == 0:
        return np.empty((0, 0), np.int64)
    dim = int(lens[0])
    if not (lens == dim).all():
        raise ValueError(f"{vec_col}: ragged vector widths {set(lens)}")
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    q = np.floor(flat * float(scale)).astype(np.int64)
    return q.reshape(-1, dim)


def _centroid_partials(ds, group_cols: list[str], vec_col: str, scale: int):
    """Per-block partial rows: group_cols + [dim, sq(int64), n(int64)] —
    exact int64 sums of quantized elements and vector counts, vectorized
    across ALL groups in the block via one pandas groupby C kernel."""
    keys = list(group_cols)

    def partial(tbl: pa.Table) -> pa.Table:
        key_types = {c: tbl.schema.field(c).type for c in keys}
        q = _quantized(tbl, vec_col, scale)
        n, dim = q.shape
        pdf = tbl.select(keys).to_pandas()
        if n == 0 or dim == 0:
            empty: dict = {
                c: pa.array([], key_types[c]) for c in keys
            }
            empty["dim"] = pa.array([], pa.int64())
            empty["sq"] = pa.array([], pa.int64())
            empty["n"] = pa.array([], pa.int64())
            return pa.table(empty)
        # one C-kernel groupby over the (n, dim) block: sum each dim's q
        # and count vectors, per group
        g = pdf.groupby(keys, sort=False, dropna=False, observed=True)
        codes = g.ngroup().to_numpy()
        sums = np.zeros((codes.max() + 1, dim), np.int64)
        np.add.at(sums, codes, q)
        cnts = np.bincount(codes).astype(np.int64)
        # ngroup() numbers groups in first-appearance order (sort=False),
        # so the sorted unique codes' first indices recover the key rows
        _, first_idx = np.unique(codes, return_index=True)
        key_df = pdf.iloc[first_idx][keys].reset_index(drop=True)
        out: dict = {}
        reps = np.repeat(np.arange(len(key_df)), dim)
        for c in keys:
            out[c] = pa.Array.from_pandas(
                key_df[c].iloc[reps].reset_index(drop=True),
                type=key_types[c],
            )
        out["dim"] = pa.array(
            np.tile(np.arange(dim, dtype=np.int64), len(key_df)), pa.int64()
        )
        out["sq"] = pa.array(sums.reshape(-1), pa.int64())
        out["n"] = pa.array(np.repeat(cnts, dim), pa.int64())
        return pa.table(out)

    return ds.select_columns(keys + [vec_col]).map_batches(
        partial, batch_format="pyarrow"
    )


def grouped_mean_pool(
    ds,
    group_cols: list[str],
    vec_col: str = "embedding",
    scale: int = DEFAULT_SCALE,
    num_partitions: int | None = None,
):
    """Per-group mean of a ``list<float>`` column, in long format.

    Output: one row per (group, dim): group_cols + ``dim`` (int64),
    ``n`` (int64 vectors in the group), ``centroid`` (float64) where
    ``centroid = CAST(Σq AS DOUBLE) / CAST(n·scale AS DOUBLE)`` — two
    exact int64s, ONE IEEE division, bit-equal to the SQL oracle.
    Long format keeps the exchange schema flat (no list columns) and is
    what a downstream broadcast join consumes directly.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    parts = _centroid_partials(ds, group_cols, vec_col, scale)
    keys = list(group_cols) + ["dim"]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        agg = (
            pdf.groupby(keys, sort=False, dropna=False, observed=True)
            .agg(sq=("sq", "sum"), n=("n", "sum"))
            .reset_index()
        )
        sq = agg["sq"].to_numpy(np.int64)
        n = agg["n"].to_numpy(np.int64)
        out = agg[keys].copy()
        out["n"] = n
        out["centroid"] = sq.astype(np.float64) / (n * int(scale)).astype(
            np.float64
        )
        return out

    return partitioned_groupby_map(
        parts, list(group_cols), finish, num_partitions=num_partitions
    )


def _fold_centroids(
    parts_pdf: pd.DataFrame, group_cols: list[str], scale: int
) -> dict:
    """Driver fold of centroid partials → {group_key: (cq int64[dim],
    cc int64)} with the quantized centroid ``cq = floor(mean·scale)``.
    mean·scale multiplies a double by a power of two — exact — so cq is
    bit-determined by the exact int sums."""
    keys = list(group_cols) + ["dim"]
    agg = (
        parts_pdf.groupby(keys, sort=False, dropna=False, observed=True)
        .agg(sq=("sq", "sum"), n=("n", "sum"))
        .reset_index()
        .sort_values(keys, kind="stable")
    )
    mean = agg["sq"].to_numpy(np.int64).astype(np.float64) / (
        agg["n"].to_numpy(np.int64) * int(scale)
    ).astype(np.float64)
    agg["cq"] = np.floor(mean * float(scale)).astype(np.int64)
    out: dict = {}
    for key, sub in agg.groupby(group_cols, sort=False, dropna=False):
        cq = sub.sort_values("dim")["cq"].to_numpy(np.int64)
        kt = key if isinstance(key, tuple) else (key,)
        out[kt] = (cq, int((cq * cq).sum()))
    return out


class _CosineStamp:
    """Plain task-pool callable stamping each row's cosine to its group
    centroid (the _CellStamp pattern, semdedup.py:71 — the centroid dict
    is #groups×dim-tiny, so it ships in the closure; no actor pool)."""

    def __init__(self, centroids: dict, group_cols, vec_col, scale, out_col):
        self.centroids = centroids
        self.group_cols = list(group_cols)
        self.vec_col = vec_col
        self.scale = scale
        self.out_col = out_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        q = _quantized(tbl, self.vec_col, self.scale)
        n = len(tbl)
        cos = np.full(n, np.nan)
        if n:
            pdf = tbl.select(self.group_cols).to_pandas()
            xx = (q * q).sum(axis=1)  # exact int64 per row
            grouped = pdf.groupby(
                self.group_cols, sort=False, dropna=False, observed=True
            )
            for key, idx in grouped.indices.items():
                kt = key if isinstance(key, tuple) else (key,)
                ent = self.centroids.get(kt)
                if ent is None:
                    continue  # group absent from fit → NULL cosine
                cq, cc = ent
                dot = q[idx] @ cq  # exact int64 (headroom: module doc)
                # cosine = dot / (sqrt(xx)·sqrt(cc)) — each cast exact,
                # sqrt correctly rounded, one multiply, one divide
                den = np.sqrt(xx[idx].astype(np.float64)) * np.sqrt(
                    float(cc)
                )
                with np.errstate(divide="ignore", invalid="ignore"):
                    c = dot.astype(np.float64) / den
                c[den == 0.0] = np.nan  # SQL x/0.0 is NULL
                cos[idx] = c
        return tbl.append_column(self.out_col, pa.array(cos, pa.float64()))


def centroid_cosine(
    ds,
    group_cols: list[str],
    vec_col: str = "embedding",
    out_col: str = "cos_centroid",
    scale: int = DEFAULT_SCALE,
):
    """Stamp each row's cosine similarity to its group's mean-pool
    centroid. Two passes: (1) the centroid partial combiner collected to
    the driver (``#blocks × #groups × dim`` summary rows — tiny), (2) a
    shuffle-free broadcast stamp. The quantized centroid makes the dot
    product exact int64, so the only float ops are the final
    cast / sqrt / multiply / divide — bit-equal to the SQL oracle.

    Typicality score for curation: rows with low ``cos_centroid`` are
    outliers within their group; rows near 1.0 in a dense group are
    boilerplate candidates.
    """
    parts = _centroid_partials(ds, group_cols, vec_col, scale)
    centroids = _fold_centroids(parts.to_pandas(), group_cols, scale)
    return ds.map_batches(
        _CosineStamp(centroids, group_cols, vec_col, scale, out_col),
        batch_format="pyarrow",
    )


def quantize_embeddings(
    ds,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    bits_max: int = 127,
):
    """Symmetric int8-style embedding quantization — the memory-scale
    path for ANN indexes (a 4× smaller corpus per replica): per vector,
    scale s = max|x| (exact selection over the float32 elements widened
    to double), each element q = trunc(double(x)/s·bits_max).

    trunc (toward zero) instead of round on purpose: DuckDB ``round``
    is half-away-from-zero while numpy rounds half-to-even, and the
    float-dust cases where ``floor(v+0.5)`` diverges from ``std::round``
    make a bit-stable mirror impossible — ``trunc`` is the identical
    single IEEE operation in both engines. An all-zero vector (s = 0)
    quantizes to all zeros (the SQL restatement guards the division with
    CASE).

    Output LONG FORM — ``(id_col, j:int64, q:int64, s:float64)`` one row
    per element — so the driver's scalar value hash covers every
    component (list columns hash opaquely). Stateless vectorized map:
    one flatten + one division per batch, no shuffle."""

    def fn(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(vec_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if arr.null_count:
            raise ValueError(f"{vec_col}: null vectors are not supported")
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        if len(lens) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "j": pa.array([], pa.int64()),
                "q": pa.array([], pa.int64()),
                "s": pa.array([], pa.float64()),
            })
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        total = int(lens.sum())
        j = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        starts = np.cumsum(lens) - lens
        absf = np.abs(flat)
        s = np.maximum.reduceat(absf, starts)
        s[lens == 0] = 0.0
        s_rep = np.repeat(s, lens)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.trunc(flat / s_rep * float(bits_max))
        q[s_rep == 0.0] = 0.0  # all-zero vector → zeros (CASE mirror)
        return pa.table({
            id_col: pa.array(np.repeat(ids, lens)),
            "j": pa.array(j, pa.int64()),
            "q": pa.array(q.astype(np.int64), pa.int64()),
            "s": pa.array(s_rep, pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")
