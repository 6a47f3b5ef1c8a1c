"""SemDeDup-style semantic deduplication over an embedding column.

Public method (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
web-scale through semantic deduplication", arXiv:2303.09540): cluster the
corpus embeddings with k-means so the quadratic pairwise-similarity work is
confined to WITHIN each cluster, then inside every cluster drop items whose
cosine similarity to an already-kept item exceeds a threshold.

Deterministic variant implemented here (the paper keeps the item with the
lowest similarity to the cluster centroid; any fixed representative rule
yields the same dedup power):

1. **Fit** — k-means centroids from a bounded sample
   (:func:`recipys_ray.ops.similarity._kmeans_fit`, the same shared
   deterministic primitive the IVF ANN ops use). The collected sample is
   canonicalized by lexsorting its feature values because Ray block
   collection order is NOT deterministic (ROUND3_NOTES: the KNNImputer
   donor-order lesson).
2. **Assign** — one streaming ``map_batches`` pass stamps each row's
   nearest-centroid cell (vectorized float64 matmul, broadcast centroids).
3. **Dedup** — one exchange on the cell id: members sorted by id, then a
   greedy keep-first scan — an item is dropped iff its cosine similarity
   to some already-KEPT earlier-id item in the same cluster is
   ``>= threshold``. Kept rows pass through with all their columns.

Scale shape (100 TB): the only all-to-all exchange moves (id, embedding,
cell) rows; per-cluster work is O(c²·d) flops but O(c·d + block·c) memory
via the blocked scan, so ``n_clusters`` should be sized to keep expected
cluster rows in the 10⁴–10⁵ range (SemDeDup used 50k clusters for LAION).
Skewed clusters degrade to the quadratic bound inside one task — the same
trade the paper makes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.ops.similarity import _kmeans_fit, _normalize

_CELL = "__cell__"


def greedy_keep_mask(
    En: np.ndarray, threshold: float, block: int = 4096
) -> np.ndarray:
    """Greedy keep-first dedup mask over NORMALIZED rows ordered by their
    tie-break key (ascending id): row j is dropped iff cos(row j, row i)
    >= threshold for some KEPT i < j. Blocked so memory stays
    O(block² + kept·d) instead of a full n×n similarity matrix."""
    n = len(En)
    keep = np.ones(n, dtype=bool)
    kept_rows: list[np.ndarray] = []
    for s in range(0, n, block):
        B = En[s : s + block]
        m = np.ones(len(B), dtype=bool)
        if kept_rows:
            K = np.concatenate(kept_rows, axis=0)
            m &= (B @ K.T).max(axis=1) < threshold
        S = B @ B.T
        for i in range(len(B)):
            if m[i]:
                m[i + 1 :] &= S[i + 1 :, i] < threshold
        keep[s : s + len(B)] = m
        if m.any():
            kept_rows.append(B[m])
    return keep


class _CellStamp:
    """Streaming nearest-centroid assignment: one float64 matmul per batch.
    Used as a plain task-pool callable (the centroid matrix is k×d-tiny, so
    shipping it in the task closure is cheaper and more robust than pinning
    an actor pool — a min-concurrency actor pool behind a repartition can
    deadlock small runs, see ray-project/ray#53727)."""

    def __init__(self, centroids: np.ndarray, emb_col: str):
        self.Cn = _normalize(np.asarray(centroids, dtype=np.float64))
        self.emb_col = emb_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl.append_column(_CELL, pa.array([], pa.int32()))
        emb = np.stack(
            tbl.column(self.emb_col).to_pandas().to_numpy()
        ).astype(np.float64)
        cell = (_normalize(emb) @ self.Cn.T).argmax(axis=1)
        return tbl.append_column(_CELL, pa.array(cell.astype(np.int32)))


def semantic_dedup(
    ds,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_clusters: int = 16,
    threshold: float = 0.9,
    sample_size: int = 100_000,
    seed: int = 3,
    block: int = 4096,
):
    """SemDeDup (module docstring): returns the survivor Dataset (all
    original columns, helper cell column dropped)."""
    from recipys_ray.kernels.grouped import (
        cheap_count,
        exchange,
        plan_exchange,
    )

    n_rows = cheap_count(ds)  # parquet metadata answers without a pass
    if n_rows > sample_size:
        frac = min(1.0, 1.5 * sample_size / n_rows)
        sample = (
            ds.select_columns([emb_col])
            .random_sample(frac, seed=seed)
            .limit(sample_size)
            .to_pandas()
        )
    else:
        sample = ds.select_columns([emb_col]).to_pandas()
    X = np.stack(sample[emb_col].to_numpy()).astype(np.float32)
    # canonical fit order: block collection order is nondeterministic
    X = X[np.lexsort(X.T)]
    k = min(n_clusters, len(X))
    C = _kmeans_fit(_normalize(X), k, seed=seed)

    plan = plan_exchange(ds, k)
    stamped = ds.map_batches(
        _CellStamp(C, emb_col), batch_format="pyarrow",
        batch_size=plan.stamp_rows if plan.blocks else None,
    )

    def dedup_cell(tbl: pa.Table, _emb=emb_col, _id=id_col,
                   _thr=threshold, _blk=block) -> pa.Table:
        import pyarrow.compute as pc

        order = pc.sort_indices(tbl, sort_keys=[(_id, "ascending")])
        tbl = tbl.take(order)
        emb = np.stack(tbl.column(_emb).to_pandas().to_numpy()).astype(
            np.float64
        )
        keep = greedy_keep_mask(_normalize(emb), _thr, block=_blk)
        return tbl.filter(pa.array(keep)).drop_columns([_CELL])

    return exchange(stamped, _CELL, dedup_cell, k, plan.blocks)
