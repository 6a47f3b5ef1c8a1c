"""Cross-document duplicate SPAN detection — the ExactSubstr dedup flavor
(Lee et al. 2022, "Deduplicating Training Data Makes Language Models
Better" §3.2 scope): find exact character spans that occur in more than one
document, so downstream curation can cut the span (not the whole document).

Plan: sample spans of ``span_chars`` characters every ``stride`` characters
(one Arrow slice kernel per span position over the whole batch — the
chunking pattern, no per-document Python), then ONE hash-partitioned
exchange on the span text; each partition resolves its own spans completely
(same span ⇒ same partition; grouping is on the exact span STRING, the hash
only routes — a 64-bit collision cannot merge distinct spans). Cost scales
with len/stride rows of (id, start, span) — ``stride`` is the dial; the
full suffix-array construction of the paper is strictly more expensive.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def duplicate_spans(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    span_chars: int = 40,
    stride: int = 10,
    min_docs: int = 2,
    num_partitions: int | None = None,
    batch_size: int = 4096,
):
    """Return (id_col, span_start:int64, n_docs:int64) — one row per
    sampled full-length span whose exact text appears in ≥ ``min_docs``
    distinct documents. Documents shorter than ``span_chars`` yield no
    spans."""
    if stride <= 0 or span_chars <= 0:
        raise ValueError("span_chars and stride must be positive")
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        # the span exchange carries ~(span_chars/stride)× the corpus chars —
        # shrink the per-partition byte target by that blow-up factor
        blowup = max(1, span_chars // stride)
        num_partitions = choose_partitions(
            ds, target_partition_bytes=(256 << 20) // blowup, hi=65_536
        )

    def extract(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = pc.fill_null(tbl.column(text_col), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        ids = tbl.column(id_col)
        lens = pc.utf8_length(texts).to_numpy().astype(np.int64)
        n_spans = np.maximum(0, (lens - span_chars) // stride + 1)
        max_k = int(n_spans.max()) if len(n_spans) else 0
        id_parts, span_parts, start_parts = [], [], []
        for k in range(max_k):
            live = np.flatnonzero(n_spans > k)
            idx = pa.array(live)
            sliced = pc.utf8_slice_codeunits(
                texts.take(idx),
                start=k * stride,
                stop=k * stride + span_chars,
            )
            picked = ids.take(idx)
            id_parts.append(
                picked.combine_chunks()
                if isinstance(picked, pa.ChunkedArray) else picked
            )
            span_parts.append(sliced)
            start_parts.append(
                np.full(len(live), k * stride, dtype=np.int64)
            )
        if not id_parts:
            return pa.table({
                id_col: ids.slice(0, 0),
                "span_start": pa.array([], pa.int64()),
                "span": pa.array([], pa.string()),
            })
        return pa.table({
            id_col: pa.concat_arrays(id_parts),
            "span_start": pa.array(np.concatenate(start_parts)),
            "span": pa.concat_arrays(span_parts),
        })

    spans = ds.map_batches(
        extract, batch_format="pyarrow", batch_size=batch_size
    )

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        n_docs = pdf.groupby("span", sort=False)[id_col].transform("nunique")
        out = pdf[n_docs >= min_docs].copy()
        out["n_docs"] = n_docs[n_docs >= min_docs].to_numpy(dtype=np.int64)
        out = out.drop(columns=["span"])
        # keep int64 dtypes on empty partitions so block schemas agree
        return out.astype({"span_start": np.int64, "n_docs": np.int64})

    return partitioned_groupby_map(spans, ["span"], finish, num_partitions)
