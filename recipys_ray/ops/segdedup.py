"""Intra-corpus segment-level deduplication (CCNet-style line dedup,
adapted to delimiter-free token streams).

CCNet / RefinedWeb remove duplicated *paragraphs* across the corpus,
keeping only the first occurrence; on token-stream documents the natural
analogue is a fixed-width token window. ``segment_dedup`` splits every
document into consecutive ``window``-token segments, keeps each distinct
segment only at its globally FIRST occurrence (ordered by
``(doc_id, seg_idx)``), and reassembles the surviving segments back into
documents.

Distributed shape (the honest minimum for keep-first-then-reassemble):

1. flat-map split — one Arrow ``split_pattern`` + ``binary_join`` pass per
   batch, no shuffle, rows multiply;
2. ONE payload exchange co-partitioned by segment hash — winner stamping
   is vectorized across all segment groups in a partition (stable sort +
   ``duplicated``), collision-safe because the group key is
   ``(hash, segment)``, not the hash alone;
3. ONE payload exchange co-partitioned by ``doc_id`` — reassembly joins
   each doc's surviving segments in ``seg_idx`` order via an Arrow
   ``ListArray`` + ``binary_join`` (no per-group Python).

Documents whose every segment is a duplicate vanish from the output
(mirrors the SQL GROUP BY over kept rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


class _SegmentSplit:
    """Per-batch: doc → one row per ``window``-token segment.

    Tokenization is a single-space split with SQL ``string_split``
    semantics (empty text → one empty token; doubled spaces produce empty
    tokens), so the oracle's ``unnest(string_split(text, ' '))`` sees the
    exact same token stream.
    """

    def __init__(self, text_col: str, id_col: str, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.text_col = text_col
        self.id_col = id_col
        self.window = window

    def __call__(self, tbl: pa.Table) -> pa.Table:
        w = self.window
        texts = pc.fill_null(tbl.column(self.text_col), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        split = pc.split_pattern(texts, pattern=" ")
        flat = pc.list_flatten(split)
        lens = pc.list_value_length(split).to_numpy().astype(np.int64)
        n_seg = -(-lens // w)  # ceil; len 0 cannot occur (split >= [''])
        # window start offsets into the flat token array: for each doc,
        # doc_start + w*[0..n_seg), plus the final total-length sentinel
        doc_starts = np.cumsum(lens) - lens
        within = np.arange(int(n_seg.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(n_seg) - n_seg, n_seg
        )
        starts = np.repeat(doc_starts, n_seg) + w * within
        offsets = np.empty(len(starts) + 1, dtype=np.int64)
        offsets[:-1] = starts
        offsets[-1] = int(lens.sum())
        seg_lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat
        )
        segments = pc.binary_join(seg_lists, " ")
        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, n_seg)),
                "seg_idx": pa.array(within, pa.int64()),
                "segment": segments,
            }
        )


def segment_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 8,
    out_col: str = "text_dedup",
):
    """Corpus-wide keep-first segment dedup + document reassembly.

    Returns one row per surviving document:
    ``(id_col, out_col, n_kept:int64)`` where ``out_col`` is the space-join
    of the document's surviving segments in original order and ``n_kept``
    counts them. Reference analogue: CCNet's paragraph-level dedup
    (Wenzek et al. 2020) — keep the first occurrence, drop repeats.
    """
    from recipys_ray.kernels.grouped import choose_partitions
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    # segments carry ~the same total bytes as the input docs — size both
    # payload exchanges from the readable input, not the derived stream
    p = choose_partitions(ds, hi=65_536)

    segs = ds.map_batches(
        _SegmentSplit(text_col, id_col, window), batch_format="pyarrow"
    )

    def hash_stamp(tbl: pa.Table) -> pa.Table:
        texts = tbl.column("segment").to_pandas().to_numpy(object)
        h = pd.util.hash_array(texts).astype(np.int64)
        return tbl.append_column("__seg_hash__", pa.array(h))

    hashed = segs.map_batches(hash_stamp, batch_format="pyarrow")

    def keep_first(pdf: pd.DataFrame) -> pd.DataFrame:
        # group identity is the TEXT (hash only routes); winner = lexicographic
        # min (doc_id, seg_idx), resolved across all groups in one stable sort
        keys = ["__seg_hash__", "segment"]
        pdf = pdf.sort_values(
            keys + [id_col, "seg_idx"], kind="stable", ignore_index=True
        )
        keep = ~pdf.duplicated(keys, keep="first")
        return pdf.loc[keep, [id_col, "seg_idx", "segment"]]

    kept = partitioned_groupby_map(hashed, ["__seg_hash__"], keep_first, p)

    def reassemble(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {
                    id_col: tbl.column(id_col),
                    out_col: pa.array([], pa.string()),
                    "n_kept": pa.array([], pa.int64()),
                }
            )
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        seg_idx = tbl.column("seg_idx").to_numpy(zero_copy_only=False)
        order = np.lexsort((seg_idx, ids))
        ids = ids[order]
        segments = tbl.column("segment").combine_chunks().take(
            pa.array(order, pa.int64())
        )
        # doc boundaries → ListArray offsets → one binary_join per partition
        change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        offsets = np.concatenate(
            ([0], change, [len(ids)])
        ).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), segments)
        joined = pc.binary_join(lists, " ")
        starts = offsets[:-1]
        n_kept = (offsets[1:] - starts).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[starts]),
                out_col: joined,
                "n_kept": pa.array(n_kept, pa.int64()),
            }
        )

    return partitioned_groupby_map(
        kept, [id_col], reassemble, p, batch_format="pyarrow"
    )
