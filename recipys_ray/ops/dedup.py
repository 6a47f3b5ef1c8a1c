"""Deduplication operators for large-scale corpora.

All variants follow the same shuffle-lean shape:

1. a stateless/actor-pool ``map_batches`` pass computes per-document keys or
   sketches (hashes, minhash signatures, simhash bits) — vectorized, no data
   motion;
2. ONE ``groupby`` on the small key column co-locates collision candidates;
3. per-group logic picks survivors / emits candidate pairs;
4. (near-dup only) connected components over the candidate-pair set — a
   driver-side union-find while the pair set is small, switching to
   distributed iterative min-label propagation
   (:func:`connected_components_distributed`, a few groupby rounds over the
   EDGE set only) when it is not.

Only hashes/ids are shuffled — never the text payload.
"""

from __future__ import annotations

import re
import sys

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import partitioned_groupby_map

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# Mersenne prime 2^61-1 — universal hashing for minhash permutations
_MERSENNE = (1 << 61) - 1

# SWAR popcount constants (numpy < 2 has no bitwise_count)
_PC_M1 = np.uint64(0x5555555555555555)
_PC_M2 = np.uint64(0x3333333333333333)
_PC_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_PC_H01 = np.uint64(0x0101010101010101)


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — no 8×-memory unpackbits temp."""
    x = x - ((x >> np.uint64(1)) & _PC_M1)
    x = (x & _PC_M2) + ((x >> np.uint64(2)) & _PC_M2)
    x = (x + (x >> np.uint64(4))) & _PC_M4
    return ((x * _PC_H01) >> np.uint64(56)).astype(np.int64)


# --------------------------------------------------------------------- #
# exact dedup
# --------------------------------------------------------------------- #
class _ContentHash:
    def __init__(self, text_col: str):
        self.text_col = text_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl.column(self.text_col).to_pandas().fillna("").to_numpy(object)
        h = pd.util.hash_array(texts).astype(np.int64)
        return tbl.append_column("__content_hash__", pa.array(h))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the row with the smallest ``id_col`` per exact text content.

    hash-partition + per-group first: one vectorized hash pass, then ONE
    payload shuffle — the groupby on the 8-byte hash moves each full row
    (text included) exactly once, which is the honest cost of
    keep-one-per-content. Min-id survivor per group, resolved vectorized
    across all groups per partition. For very wide rows a skinnier plan is
    (hash → survivor-id) + anti-join, trading the payload shuffle for a
    second pass over the input.
    """
    hashed = ds.map_batches(_ContentHash(text_col), batch_format="pyarrow")
    # this exchange moves FULL payload rows: size it from the input (the
    # hashed dataset's plan metadata is unknown post-map), with a high
    # partition-count ceiling so partitions stay ~256 MiB at any corpus size
    from recipys_ray.kernels.grouped import choose_partitions

    p = choose_partitions(ds, hi=65_536)

    def keep_first(pdf: pd.DataFrame) -> pd.DataFrame:
        # group on (hash, text): the hash routes rows (same text ⇒ same
        # partition) but the TEXT value decides duplicate identity, so a
        # 64-bit hash collision can't merge two distinct documents
        keys = ["__content_hash__", text_col]
        pdf = pdf.sort_values(
            keys + [id_col], kind="stable", ignore_index=True
        )
        sizes = pdf.groupby(keys, sort=False, dropna=False)[id_col].transform(
            "size"
        )
        keep = ~pdf.duplicated(keys, keep="first")
        out = pdf[keep].copy()
        out["n_dups"] = sizes[keep].to_numpy()
        return out.drop(columns=["__content_hash__"])

    return partitioned_groupby_map(hashed, ["__content_hash__"], keep_first, p)


# --------------------------------------------------------------------- #
# minhash + LSH near-dup
# --------------------------------------------------------------------- #
def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


class _MinHashBands:
    """Per-batch: shingle → minhash signature → one row per (doc, band)."""

    def __init__(self, text_col, id_col, num_perm, bands, shingle_k, seed=7):
        assert num_perm % bands == 0
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k
        self.a, self.b = _minhash_params(num_perm, seed)
        self.word_re = _WORD_RE

    def _shingles(self, text: str) -> list[str]:
        ws = self.word_re.findall(text.lower())
        k = self.shingle_k
        if len(ws) < k:
            return [" ".join(ws)]
        return [" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)]

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, num_perm) minhash matrix — Arrow-kernel tokenization +
        shingle join (ops/text.py word_stream/flat_kgrams: no per-document
        Python regex loop), one batched hash call over ALL shingles,
        permutation hashing in uint64 (deterministic wrap-around
        arithmetic), segmented min via ``np.minimum.reduceat``."""
        from recipys_ray.ops.text import flat_kgrams, word_stream

        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(list(texts), pa.string())
        words, wcounts = word_stream(texts)
        all_shingles, counts = flat_kgrams(words, wcounts, self.shingle_k)
        h = pd.util.hash_array(
            all_shingles.to_numpy(zero_copy_only=False)
        ).astype(np.uint64)
        if len(texts) == 0:
            return np.empty((0, self.num_perm), dtype=np.uint64)
        offsets = np.r_[0, np.cumsum(counts)[:-1]]
        a = self.a.astype(np.uint64)
        b = self.b.astype(np.uint64)
        sig = np.empty((len(texts), self.num_perm), dtype=np.uint64)
        chunk = 16  # permutations at a time — bounds the (perm × shingle) temp
        for s in range(0, self.num_perm, chunk):
            vals = a[s : s + chunk, None] * h[None, :] + b[s : s + chunk, None]
            sig[:, s : s + chunk] = np.minimum.reduceat(vals, offsets, axis=1).T
        return sig

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        n = tbl.num_rows
        sig = self.signatures(tbl.column(self.text_col))  # (n, num_perm)
        r = self.rows_per_band
        # mix the r rows of each band into one 63-bit key, fully vectorized
        mixed = np.zeros((n, self.bands), dtype=np.uint64)
        sig3 = sig.reshape(n, self.bands, r)
        prime = np.uint64(1099511628211)
        for j in range(r):
            mixed = mixed * prime + sig3[:, :, j]
        band_hashes = (mixed & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        band_ids = np.tile(np.arange(self.bands, dtype=np.int32), n)
        return pa.table(
            {
                "band": pa.array(band_ids),
                "band_hash": pa.array(band_hashes.reshape(-1)),
                self.id_col: pa.array(np.repeat(ids, self.bands)),
            }
        )


def minhash_candidate_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
):
    """(a, b) candidate pairs (a < b) sharing at least one LSH band bucket.

    With num_perm=64, bands=16 (r=4) the collision threshold is
    s ≈ (1/16)^(1/4) ≈ 0.5 Jaccard.
    """
    exploded = ds.map_batches(
        _MinHashBands(text_col, id_col, num_perm, bands, shingle_k),
        batch_format="pyarrow",
    )
    # band rows are 20 B × bands per doc — far below the text payload; size
    # the exchange from the input corpus (a safe overestimate: partitions
    # only get smaller) since the exploded plan can't infer its own size
    from recipys_ray.kernels.grouped import choose_partitions

    p = choose_partitions(ds)

    def emit_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        # star expansion per bucket (pair each member with the bucket min) —
        # enough for connected components, O(n) not O(n²), and fully
        # vectorized across every bucket in the partition
        pdf = pdf.sort_values(
            ["band", "band_hash", id_col], kind="stable", ignore_index=True
        )
        first = pdf.groupby(["band", "band_hash"], sort=False)[id_col].transform(
            "first"
        )
        mask = (pdf[id_col] != first).to_numpy()
        return pd.DataFrame(
            {"a": first[mask].to_numpy(), "b": pdf[id_col][mask].to_numpy()}
        )

    return partitioned_groupby_map(exploded, ["band", "band_hash"],
                                   emit_pairs, p)


def _safe_pairs(pairs) -> pd.DataFrame:
    if pairs is None or len(pairs) == 0 or "a" not in getattr(pairs, "columns", []):
        return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                             "b": pd.Series(dtype=np.int64)})
    return pairs


def _connected_components(pairs: pd.DataFrame) -> dict:
    """Driver-side union-find over the (small) candidate-pair set.

    Scale path (documented): when pairs outgrow the driver, run iterative
    min-label propagation — repeat `label[b] = min(label[a], label[b])` via
    groupby rounds until fixpoint; each round is one small shuffle over the
    pair set only.
    """
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in list(parent)}


def connected_components_distributed(
    pairs_ds, max_rounds: int = 20, num_partitions: int | None = None
):
    """Connected components over a candidate-pair Dataset via iterative
    min-label propagation — the scale path when the pair set outgrows the
    driver (each round is two small shuffles over the EDGE set only, never
    the corpus). Returns a Dataset (node, root).

    Converges in O(diameter) rounds; LSH-candidate graphs are star-shaped
    (every member paired with its bucket min), so the diameter is tiny.
    """
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        # callers hand in a MATERIALIZED pair set, so its size is known;
        # edges are 2× pairs plus the per-round label rows
        num_partitions = choose_partitions(pairs_ds)

    def to_undirected(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    edges = pairs_ds.map_batches(to_undirected, batch_format="pyarrow")

    def init_state(tbl: pa.Table) -> pa.Table:
        n = tbl.column("node")
        return pa.table({"node": n, "label": n})

    def rename_min(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(["node", "label"])

    state = (
        edges.map_batches(init_state, batch_format="pyarrow")
        .groupby("node")
        .min("label")
        .map_batches(rename_min, batch_format="pyarrow")
    )

    prev_sum = None
    for _ in range(max_rounds):
        # propagate: each node sends its current label along its edges
        def tag_edge(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                "label", pa.nulls(len(tbl), pa.int64())
            )

        def tag_state(tbl: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": tbl.column("node"),
                    "dst": pa.nulls(len(tbl), tbl.column("node").type),
                    "label": tbl.column("label").cast(pa.int64()),
                }
            )

        combined = edges.map_batches(
            tag_edge, batch_format="pyarrow"
        ).union(state.map_batches(tag_state, batch_format="pyarrow"))

        def propagate(pdf: pd.DataFrame) -> pd.DataFrame:
            st = pdf[pdf["dst"].isna()][["node", "label"]]
            ed = pdf[pdf["dst"].notna()][["node", "dst"]]
            lab = ed.merge(st, on="node", how="left")
            out = pd.concat(
                [
                    st,
                    lab[["dst", "label"]].rename(columns={"dst": "node"}),
                ],
                ignore_index=True,
            ).dropna(subset=["label"])
            # nullable ints surface as float64 in pandas; keys must stay
            # int64 or the next round's hash partition won't co-locate them
            # with the (int64) edge rows
            out["node"] = out["node"].astype(np.int64)
            out["label"] = out["label"].astype(np.int64)
            return out

        state = (
            partitioned_groupby_map(combined, ["node"], propagate,
                                    num_partitions)
            .groupby("node")
            .min("label")
            .map_batches(rename_min, batch_format="pyarrow")
            .materialize()
        )
        cur_sum = state.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {"node": tbl.column("node"), "root": tbl.column("label")}
        )

    return state.map_batches(finish, batch_format="pyarrow")


def connected_components(
    pairs_ds,
    max_driver_pairs: int = 5_000_000,
    num_partitions: int | None = None,
):
    """Connected components over an edge-list Dataset (columns ``a``,
    ``b``) → Dataset (``node``, ``root``) covering every node that appears
    in any edge, root = min node id of the component.

    Same two-route policy as :func:`losers_from_pairs`: below
    ``max_driver_pairs`` the edge set (edges only, never a corpus) folds on
    the driver via union-find; above it the fully distributed min-label
    propagation (:func:`connected_components_distributed`) runs — each
    round two small shuffles over the edge set.
    """
    import ray.data as rd

    if pairs_ds.count() > max_driver_pairs:
        return connected_components_distributed(
            pairs_ds, num_partitions=num_partitions
        )
    pairs = _safe_pairs(pairs_ds.to_pandas()).drop_duplicates()
    roots = _connected_components(pairs)
    nodes = np.unique(
        np.concatenate(
            [pairs["a"].to_numpy(np.int64), pairs["b"].to_numpy(np.int64)]
        )
    )
    # vectorized dict lookup; nodes never linked (or always the min) root
    # to themselves
    root = (
        pd.Series(nodes).map(roots).fillna(pd.Series(nodes)).to_numpy(np.int64)
    )
    return rd.from_arrow(
        pa.table({"node": pa.array(nodes), "root": pa.array(root)})
    )


def cluster_labels(
    ds,
    pairs_ds,
    id_col: str,
    max_driver_pairs: int = 5_000_000,
    root_col: str = "root",
    size_col: str = "cluster_size",
):
    """Stamp every corpus row with its duplicate-cluster label and size:
    ``root`` = min id of the row's connected component over ``pairs_ds``
    (rows in no pair are singletons: root = own id, size 1).

    The cluster ASSIGNMENT view of dedup — survivors keep root == id;
    the label/size columns power cluster-aware downstream choices
    (keep-longest, per-cluster sampling, dedup audits).

    Routes (the :func:`losers_from_pairs` policy): edge sets ≤
    ``max_driver_pairs`` fold on the driver and broadcast two small maps
    (ZERO corpus shuffle — one stateless stamp); larger edge sets run
    distributed min-label propagation and stamp via two co-partitioned
    left joins (corpus moves twice, never the pair set × corpus).
    """
    import ray

    cc = connected_components(pairs_ds, max_driver_pairs=max_driver_pairs)
    if pairs_ds.count() <= max_driver_pairs:
        cc_pdf = cc.to_pandas()
        sizes = cc_pdf.groupby("root", sort=False).size()
        maps_ref = ray.put(
            (
                pd.Series(
                    cc_pdf["root"].to_numpy(np.int64),
                    index=cc_pdf["node"].to_numpy(np.int64),
                ),
                sizes,
            )
        )

        def stamp(tbl: pa.Table) -> pa.Table:
            root_map, size_map = ray.get(maps_ref)
            ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
            s = pd.Series(ids)
            root = s.map(root_map).fillna(s).to_numpy(np.int64)
            size = (
                pd.Series(root).map(size_map).fillna(1).to_numpy(np.int64)
            )
            tbl = tbl.append_column(root_col, pa.array(root, pa.int64()))
            return tbl.append_column(size_col, pa.array(size, pa.int64()))

        return ds.map_batches(stamp, batch_format="pyarrow")

    # distributed route: (node → root) join, then (root → size) join
    from recipys_ray.ops.join import hash_join

    def rename_cc(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(["node", root_col])

    cc = cc.map_batches(rename_cc, batch_format="pyarrow").materialize()
    sizes = cc.groupby(root_col).count()

    def rename_sizes(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "__root_s__": tbl.column(root_col),
                size_col: tbl.column("count()").cast(pa.int64()),
            }
        )

    sizes = sizes.map_batches(rename_sizes, batch_format="pyarrow")
    out = hash_join(ds, cc, on=id_col, right_on="node", how="left")
    out = hash_join(out, sizes, on=root_col, right_on="__root_s__",
                    how="left")

    def finish(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = tbl.column(id_col)
        root = pc.coalesce(tbl.column(root_col).cast(pa.int64()), ids)
        size = pc.coalesce(
            tbl.column(size_col).cast(pa.int64()), pa.scalar(1, pa.int64())
        )
        i_root = tbl.column_names.index(root_col)
        tbl = tbl.set_column(i_root, root_col, root)
        i_size = tbl.column_names.index(size_col)
        return tbl.set_column(i_size, size_col, size)

    return out.map_batches(finish, batch_format="pyarrow")


def losers_from_pairs(pairs_ds, max_driver_pairs: int = 5_000_000):
    """Component losers (non-min members) from a candidate-pair Dataset.

    Below ``max_driver_pairs`` → driver union-find, returning a SORTED int64
    numpy array (broadcast once via ``ray.put`` by :func:`drop_ids`).
    Above it → distributed min-label propagation, returning a **Dataset** of
    loser ids (column ``node``) that never touches the driver — the anti-join
    in :func:`drop_ids` stays distributed too.
    """
    if pairs_ds.count() > max_driver_pairs:
        cc = connected_components_distributed(pairs_ds)

        def pick_losers(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.not_equal(tbl.column("node"), tbl.column("root"))
            return tbl.filter(mask).select(["node"])

        return cc.map_batches(pick_losers, batch_format="pyarrow")
    pairs = _safe_pairs(pairs_ds.to_pandas()).drop_duplicates()
    roots = _connected_components(pairs)
    arr = np.fromiter(
        (doc for doc, root in roots.items() if root != doc), dtype=np.int64
    )
    arr.sort()
    return arr


def _in_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Vectorized membership test against a pre-sorted array — O(n log m)
    per batch with no per-batch set/array rebuild."""
    if len(sorted_arr) == 0:
        return np.zeros(len(vals), dtype=bool)
    idx = np.searchsorted(sorted_arr, vals)
    idx[idx == len(sorted_arr)] = 0
    return sorted_arr[idx] == vals


# ---- distributed anti-join (Bloom broadcast + exact second pass) -------- #
def _bloom_positions(ids: np.ndarray, k: int, mask: int) -> np.ndarray:
    """k bit positions per id via double hashing (splitmix64-style mixes)."""
    x = ids.astype(np.uint64)
    h1 = x * np.uint64(0x9E3779B97F4A7C15)
    h1 ^= h1 >> np.uint64(31)
    h1 *= np.uint64(0xBF58476D1CE4E5B9)
    h2 = (x ^ np.uint64(0x94D049BB133111EB)) * np.uint64(0xFF51AFD7ED558CCD)
    h2 ^= h2 >> np.uint64(33)
    h2 |= np.uint64(1)  # odd stride
    ks = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + ks[None, :] * h2[:, None]) & np.uint64(mask)).reshape(-1)


def _build_bloom(ids_ds, n_keys: int, bits_per_key: int = 32, k: int = 3):
    """Byte-array Bloom filter over a Dataset of ids (column ``node``).

    Built by streaming per-block *bit positions* (k ints per id) to the
    driver — driver memory is bounded by the filter itself (m/8 bytes =
    ``bits_per_key/8`` per loser), never the id list as Python objects.
    """
    m = 1 << max(6, int(np.ceil(np.log2(max(1, n_keys) * bits_per_key))))
    mask = m - 1
    bloom = np.zeros(m // 8, dtype=np.uint8)

    def positions(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("node").to_numpy(zero_copy_only=False)
        pos = np.unique(_bloom_positions(ids, k, mask))
        return pa.table({"pos": pa.array(pos.astype(np.int64))})

    for batch in ids_ds.map_batches(
        positions, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        pos = batch.column("pos").to_numpy()
        np.bitwise_or.at(
            bloom, pos >> 3, (1 << (pos & 7)).astype(np.uint8)
        )
    return bloom, mask, k


def _bloom_maybe(bloom: np.ndarray, mask: int, k: int, ids: np.ndarray):
    """True where id is POSSIBLY in the filter (false ⇒ definitely not)."""
    pos = _bloom_positions(ids, k, mask).reshape(len(ids), k)
    hits = (bloom[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
    return hits.all(axis=1)


def _arrow_schema_of(ds) -> pa.Schema:
    """Arrow schema of a Dataset. ``ds.schema().types`` surfaces Python
    classes for pandas-backed blocks, so fall back to materializing ONE
    batch (cheap: a single upstream block) when needed."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return ds.take_batch(1, batch_format="pyarrow").schema


def drop_ids(ds, id_col: str, losers, num_partitions: int | None = None):
    """Filter out rows whose ``id_col`` is in ``losers``.

    - ``losers`` is a sorted numpy array (driver path): broadcast ONCE via
      ``ray.put``; each batch does a zero-copy ``ray.get`` + searchsorted.
    - ``losers`` is a Dataset (scale path): broadcast a Bloom filter of the
      loser ids (bytes ≪ ids-as-set), pass definite-keeps through untouched,
      and resolve the Bloom-positive sliver with an exact hash-partitioned
      anti-join — the full corpus never shuffles and the driver never holds
      the id set.
    """
    import ray

    if isinstance(losers, np.ndarray):
        if len(losers) == 0:
            return ds
        ref = ray.put(losers)

        def keep(tbl: pa.Table) -> pa.Table:
            arr = ray.get(ref)  # zero-copy plasma read, cached per node
            ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
            return tbl.filter(pa.array(~_in_sorted(arr, ids)))

        return ds.map_batches(keep, batch_format="pyarrow")

    losers = losers.materialize()
    n_losers = losers.count()
    if n_losers == 0:
        return ds
    if num_partitions is None:
        from recipys_ray.kernels.grouped import _cluster_cpus

        # the exact pass shuffles only Bloom-positive suspects ∪ losers — a
        # loser-COUNT-sized sliver of the corpus but carrying full payload
        # rows, so size from n_losers × an assumed ~4 KiB/row payload
        lo = 2 * _cluster_cpus()
        num_partitions = int(np.clip(
            -(-n_losers * 4096 // (256 << 20)), lo, 65_536
        ))
    bloom, mask, k = _build_bloom(losers, n_losers)
    bloom_ref = ray.put(bloom)

    def split(positive: bool):
        def fn(tbl: pa.Table) -> pa.Table:
            b = ray.get(bloom_ref)
            ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
            maybe = _bloom_maybe(b, mask, k, ids)
            return tbl.filter(pa.array(maybe if positive else ~maybe))

        return fn

    definite_keep = ds.map_batches(split(False), batch_format="pyarrow")
    suspects = ds.map_batches(split(True), batch_format="pyarrow")

    # exact second pass: co-partition suspects with loser ids by hash(id),
    # drop suspects whose id appears in the partition's loser slice
    schema = _arrow_schema_of(ds)
    names, types = list(schema.names), list(schema.types)

    def pad_losers(tbl: pa.Table) -> pa.Table:
        id_type = types[names.index(id_col)]
        cols = {}
        for n, t in zip(names, types):
            cols[n] = (
                tbl.column("node").cast(id_type)
                if n == id_col
                else pa.nulls(len(tbl), t)
            )
        cols["__aj_src__"] = pa.array(np.ones(len(tbl), dtype=np.int8))
        return pa.table(cols)

    def tag_corpus(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__aj_src__", pa.array(np.zeros(len(tbl), dtype=np.int8))
        )

    combined = suspects.map_batches(tag_corpus, batch_format="pyarrow").union(
        losers.map_batches(pad_losers, batch_format="pyarrow")
    )

    def anti(tbl: pa.Table) -> pa.Table:
        src = tbl.column("__aj_src__").to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        loser_ids = np.unique(ids[src == 1])
        keep_mask = (src == 0) & ~_in_sorted(loser_ids, ids)
        return tbl.filter(pa.array(keep_mask)).drop_columns(["__aj_src__"])

    survivors = partitioned_groupby_map(
        combined, [id_col], anti, num_partitions, batch_format="pyarrow"
    )
    return definite_keep.union(survivors)


def minhash_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    max_driver_pairs: int = 5_000_000,
):
    """Drop near-duplicates: keep the min-id representative per component.

    Components run driver-side (union-find) while the candidate-pair set is
    below ``max_driver_pairs``; above it, the distributed min-label
    propagation path takes over — only the edge set ever shuffles.
    """
    pairs_ds = minhash_candidate_pairs(
        ds, text_col, id_col, num_perm, bands, shingle_k
    ).materialize()
    losers = losers_from_pairs(pairs_ds, max_driver_pairs)
    return drop_ids(ds, id_col, losers)


# --------------------------------------------------------------------- #
# simhash near-dup
# --------------------------------------------------------------------- #
class _SimHash:
    def __init__(self, text_col: str, nbits: int = 64):
        self.text_col = text_col
        self.nbits = nbits
        self.word_re = _WORD_RE

    def __call__(self, tbl: pa.Table) -> pa.Table:
        """Batch-wide: Arrow-kernel tokenization (word_stream — no per-doc
        regex loop), hash ALL words in one call, per-bit sign votes via
        segmented ``np.add.reduceat``."""
        from recipys_ray.ops.text import _ramp, word_stream

        if tbl.num_rows == 0:
            # np.add.reduceat raises on zero segments — empty block in, out
            return tbl.append_column("simhash", pa.array([], pa.uint64()))
        words, wcounts = word_stream(tbl.column(self.text_col))
        h_words = pd.util.hash_array(
            words.to_numpy(zero_copy_only=False)
        ).astype(np.uint64)
        # a document with zero words votes with the hash of "" (the
        # historical `findall(...) or [""]` convention)
        counts = np.maximum(wcounts, 1)
        h = np.full(
            int(counts.sum()),
            pd.util.hash_array(np.array([""], dtype=object))[0],
            dtype=np.uint64,
        )
        off = np.r_[0, np.cumsum(counts)[:-1]]
        h[np.repeat(off, wcounts) + _ramp(wcounts)] = h_words
        # (total_words, 64) bit matrix, segment-summed per doc; sign vote
        # 2*ones - count > 0 ⇔ ones*2 > count. unpackbits(little/little)
        # column j == (h >> j) & 1 — only with little-endian in-memory byte
        # order, so byte-swap first on big-endian hosts (simhash values and
        # the golden survivor sets must not depend on host endianness).
        if sys.byteorder != "little":
            h = h.byteswap()
        bits = np.unpackbits(
            h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        cs = bits.cumsum(axis=0, dtype=np.int32)
        ends = np.cumsum(counts)
        pad = np.vstack([np.zeros((1, 64), np.int32), cs])
        ones = pad[ends] - pad[ends - counts]
        positive = ones * 2 > counts[:, None]
        powers = np.left_shift(
            np.uint64(1), np.arange(64, dtype=np.uint64)
        )
        sim = (positive.astype(np.uint64) * powers[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        out = (sim & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return tbl.append_column("simhash", pa.array(out))


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  hamming_threshold: int = 3,
                  max_driver_pairs: int = 5_000_000,
                  max_bucket_sigs: int = 2048):
    """SimHash near-dup: 4×16-bit band buckets, verify Hamming distance
    in-bucket, min-id survivor per component.

    Hot-bucket safety: members with IDENTICAL signatures are collapsed
    first via O(n) star expansion (they are exact simhash dups — Hamming 0
    to each other, and equal distance to everything else, so components
    are unchanged), then the pairwise Hamming verification runs only over
    the bucket's DISTINCT signatures. A bucket of 10⁵ identical boilerplate
    docs therefore costs O(n), not an O(n²) 80 GB temp. Buckets with more
    than ``max_bucket_sigs`` distinct signatures (pathological: ≫ expected
    for a 16-bit band) are capped to the lowest-id representatives —
    a documented recall trade (the dropped reps keep their own
    identical-signature stars; only cross-signature pairs beyond the cap
    are skipped), mirroring semdedup's cluster-sizing guidance."""
    hashed = ds.map_batches(_SimHash(text_col), batch_format="pyarrow")

    def explode(tbl: pa.Table) -> pa.Table:
        sim = tbl.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        n = len(sim)
        band = np.tile(np.arange(4, dtype=np.int32), n)
        key = np.empty(n * 4, dtype=np.int64)
        for b in range(4):
            key[b::4] = ((sim >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "band": pa.array(band),
                "band_key": pa.array(key),
                id_col: pa.array(np.repeat(ids, 4)),
                "simhash": pa.array(np.repeat(sim.astype(np.int64), 4)),
            }
        )

    exploded = hashed.map_batches(explode, batch_format="pyarrow")

    thr = hamming_threshold

    cap = max_bucket_sigs

    def emit_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        # 1) collapse identical signatures across the WHOLE partition in one
        #    vectorized star expansion (pair each member with its signature
        #    group's min id) — hot buckets of exact simhash dups cost O(n)
        sig_keys = ["band", "band_key", "simhash"]
        pdf = pdf.sort_values(
            sig_keys + [id_col], kind="stable", ignore_index=True
        )
        first = pdf.groupby(sig_keys, sort=False)[id_col].transform("first")
        dup = (pdf[id_col] != first).to_numpy()
        out_a = [first[dup].to_numpy()]
        out_b = [pdf[id_col][dup].to_numpy()]
        # 2) pairwise Hamming only among DISTINCT signatures per bucket
        reps = pdf[~pdf.duplicated(sig_keys, keep="first")]
        sizes = reps.groupby(["band", "band_key"], sort=False)[
            id_col
        ].transform("size")
        reps = reps[sizes >= 2]
        for _, g in reps.groupby(["band", "band_key"], sort=False):
            if len(g) > cap:
                # pathological bucket: bound the quadratic at cap² by
                # keeping the lowest-id reps (deterministic; recall trade
                # documented in the simhash_dedup docstring)
                g = g.nsmallest(cap, id_col)
            sims = g["simhash"].to_numpy().astype(np.uint64)
            ids = g[id_col].to_numpy()
            ham = _popcount_u64(sims[:, None] ^ sims[None, :])
            ii, jj = np.nonzero(
                (ham <= thr)
                & (np.arange(len(g))[:, None] < np.arange(len(g))[None, :])
            )
            # reps are signature-sorted, not id-sorted — orient each pair
            out_a.append(np.minimum(ids[ii], ids[jj]))
            out_b.append(np.maximum(ids[ii], ids[jj]))
        a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        return pd.DataFrame({"a": a.astype(np.int64),
                             "b": b.astype(np.int64)})

    from recipys_ray.kernels.grouped import choose_partitions

    pairs_ds = partitioned_groupby_map(
        exploded, ["band", "band_key"], emit_pairs,
        choose_partitions(ds),  # band rows ≪ corpus bytes: safe overestimate
    ).materialize()
    losers = losers_from_pairs(pairs_ds, max_driver_pairs)
    return drop_ids(hashed, id_col, losers)


# --------------------------------------------------------------------- #
# n-gram Jaccard verification (for candidate pairs)
# --------------------------------------------------------------------- #
def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    wa = _WORD_RE.findall(text_a.lower())
    wb = _WORD_RE.findall(text_b.lower())
    sa = {" ".join(wa[i : i + k]) for i in range(max(1, len(wa) - k + 1))}
    sb = {" ".join(wb[i : i + k]) for i in range(max(1, len(wb) - k + 1))}
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def verify_pairs_jaccard(ds, pairs: pd.DataFrame, text_col="text",
                         id_col="doc_id", k: int = 3, threshold: float = 0.5,
                         max_candidates: int = 1_000_000):
    """Exact n-gram Jaccard on candidate pairs: broadcast the candidate id
    set, stream only those texts to the driver (candidates ≪ corpus), verify.

    DRIVER-BOUNDED helper: it pulls every candidate text to the driver, so
    the candidate set must be small. ``max_candidates`` guards the pull —
    above it, raise and point at the distributed verify stages in
    ops/jaccard.py (broadcast or co-partitioned-join verify), which never
    materialize texts on the driver.
    """
    cand_ids = np.unique(np.r_[pairs["a"].to_numpy(), pairs["b"].to_numpy()])
    if len(cand_ids) > max_candidates:
        raise ValueError(
            f"verify_pairs_jaccard: {len(cand_ids)} candidate ids exceed "
            f"max_candidates={max_candidates}; this helper pulls candidate "
            "texts to the driver. Use recipys_ray.ops.jaccard.jaccard_dedup "
            "(distributed prefix-filter + verify) for large candidate sets."
        )

    def pick(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(np.isin(ids, cand_ids)))

    texts = (
        ds.map_batches(pick, batch_format="pyarrow")
        .select_columns([id_col, text_col])
        .to_pandas()
        .set_index(id_col)[text_col]
        .to_dict()
    )
    keep = [
        ngram_jaccard(texts.get(a, ""), texts.get(b, ""), k) >= threshold
        for a, b in zip(pairs["a"], pairs["b"])
    ]
    return pairs[np.array(keep, dtype=bool)] if len(pairs) else pairs


# --------------------------------------------------------------------- #
# embedding cosine near-dup
# --------------------------------------------------------------------- #
def embedding_dedup_exact(
    ds,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.98,
    max_driver_pairs: int = 5_000_000,
):
    """EXACT embedding near-dup: all-pairs cosine via a broadcast unit
    matrix, components over threshold pairs, min-id survivor per component.

    The full (n × d) unit matrix is broadcast ONCE (``ray.put``); each block
    computes ``block @ U.T`` — O(n²) total work split across blocks, driver
    holds only the matrix. This is the small-/mid-corpus baseline (bounded by
    the matrix fitting in the object store, ~1 GB at 1M × 256 float32) and
    the correctness oracle for :func:`embedding_dedup`'s LSH scale path.
    """
    import ray

    pdf = ds.select_columns([id_col, emb_col]).to_pandas()
    pdf = pdf.sort_values(id_col, ignore_index=True)
    emb = np.stack(pdf[emb_col].to_numpy()).astype(np.float64)
    norm = np.linalg.norm(emb, axis=1)
    norm[norm == 0] = 1.0
    unit = emb / norm[:, None]
    ids = pdf[id_col].to_numpy()
    unit_ref = ray.put(unit)
    ids_ref = ray.put(ids)

    def block_pairs(tbl: pa.Table) -> pa.Table:
        U = ray.get(unit_ref)
        all_ids = ray.get(ids_ref)
        bids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        bemb = np.stack(tbl.column(emb_col).to_pandas().to_numpy()).astype(
            np.float64
        )
        bn = np.linalg.norm(bemb, axis=1)
        bn[bn == 0] = 1.0
        sims = (bemb / bn[:, None]) @ U.T
        ii, jj = np.nonzero(
            (sims >= threshold) & (bids[:, None] < all_ids[None, :])
        )
        return pa.table(
            {
                "a": pa.array(bids[ii].astype(np.int64)),
                "b": pa.array(all_ids[jj].astype(np.int64)),
            }
        )

    pairs_ds = ds.map_batches(block_pairs, batch_format="pyarrow").materialize()
    losers = losers_from_pairs(pairs_ds, max_driver_pairs)
    return drop_ids(ds, id_col, losers)



def embedding_dedup(
    ds,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.98,
    n_planes: int = 12,
    seed: int = 5,
    n_probes: int = 3,
    max_driver_pairs: int = 5_000_000,
    max_bucket_vecs: int = 4096,
):
    """Near-dup by embedding cosine: random-hyperplane LSH buckets with
    MULTI-PROBE (each vector additionally lands in the ``n_probes`` buckets
    reached by flipping its lowest-|margin| hyperplane bits — the planes
    most likely to split a true near-dup pair), exact in-bucket pairwise
    cosine, min-id survivor per component. Multi-probe raises recall from
    ~(1-θ/π)^planes toward 1 at the cost of (1+n_probes)× bucket
    membership; duplicate pair emissions collapse in the components fold.

    Hot-bucket safety: byte-identical vectors collapse via O(m) star
    expansion before the pairwise cosine (a bucket of 10⁵ copies of one
    boilerplate embedding costs O(m), not an O(m²) matmul); the residual
    distinct-vector verification is CHUNKED (temp = chunk × m, never
    m × m) and capped at ``max_bucket_vecs`` lowest-id representatives per
    bucket — a documented recall trade: beyond the cap only
    cross-representative pairs are skipped, exact-dup stars always emit.
    """
    first = ds.take(1)[0]
    dim = len(first[emb_col])
    rng = np.random.RandomState(seed)
    planes = rng.normal(size=(dim, n_planes))

    def bucketize(tbl: pa.Table) -> pa.Table:
        emb = np.stack(tbl.column(emb_col).to_pandas().to_numpy())
        norm = np.linalg.norm(emb, axis=1)
        norm[norm == 0] = 1.0
        unit = (emb / norm[:, None]).astype(np.float64)
        proj = unit @ planes
        signs = proj > 0
        key = (signs * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        n = len(ids)
        reps = 1 + min(n_probes, n_planes)
        keys_out = np.empty((n, reps), dtype=np.int64)
        keys_out[:, 0] = key
        if reps > 1:
            # flip the lowest-margin planes, one per probe
            order = np.argsort(np.abs(proj), axis=1)[:, : reps - 1]
            for p in range(reps - 1):
                keys_out[:, p + 1] = key ^ (1 << order[:, p]).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(keys_out.reshape(-1)),
                id_col: pa.array(np.repeat(ids, reps)),
                "__unit__": pa.array(
                    list(np.repeat(unit.astype(np.float32), reps, axis=0))
                ),
            }
        )

    exploded = ds.map_batches(bucketize, batch_format="pyarrow")

    def emit_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        # Hot-bucket safety (mirrors simhash): collapse BYTE-IDENTICAL unit
        # vectors first (exact dups — cosine 1 ≥ threshold) via O(m) star
        # expansion, verify cosine only among the bucket's distinct vectors,
        # and bound that quadratic by chunking the matmul + capping
        # pathological buckets at `max_bucket_vecs` lowest-id reps (recall
        # trade documented in the embedding_dedup docstring).
        pdf = pdf.sort_values(["bucket", id_col], kind="stable",
                              ignore_index=True)
        sizes = pdf.groupby("bucket", sort=False)[id_col].transform("size")
        pdf = pdf[sizes >= 2]
        out_a, out_b = [], []
        for _, g in pdf.groupby("bucket", sort=False):
            U = np.stack(g["__unit__"].to_numpy())
            ids = g[id_col].to_numpy()  # ascending within the bucket
            # exact-duplicate collapse: unique rows + min-id representative.
            # groupby(inv).min() indexes by sorted inv value (0..m-1,
            # complete), so rep_ids[k] aligns with uniq[k].
            uniq, inv = np.unique(U, axis=0, return_inverse=True)
            by_vec = pd.Series(ids).groupby(inv)
            rep_ids = by_vec.min().to_numpy()
            if len(uniq) < len(ids):
                rep = by_vec.transform("min").to_numpy()
                dup = ids != rep
                out_a.append(rep[dup])
                out_b.append(ids[dup])
            m = len(uniq)
            if m > max_bucket_vecs:
                keep = np.argsort(rep_ids, kind="stable")[:max_bucket_vecs]
                uniq, rep_ids = uniq[keep], rep_ids[keep]
                m = max_bucket_vecs
            # chunked matmul: temp is chunk × m, never m × m
            chunk = 1024
            for s in range(0, m, chunk):
                sims = uniq[s : s + chunk] @ uniq.T
                ii, jj = np.nonzero(
                    (sims >= threshold)
                    & ((s + np.arange(sims.shape[0]))[:, None]
                       < np.arange(m)[None, :])
                )
                if len(ii):
                    ra, rb = rep_ids[s + ii], rep_ids[jj]
                    out_a.append(np.minimum(ra, rb))
                    out_b.append(np.maximum(ra, rb))
        if not out_a:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        return pd.DataFrame(
            {"a": np.concatenate(out_a).astype(np.int64),
             "b": np.concatenate(out_b).astype(np.int64)}
        )

    from recipys_ray.kernels.grouped import choose_partitions

    # each row rides (1 + n_probes)× with its float32 unit vector attached —
    # shrink the per-partition byte target by that multiplier
    reps = 1 + min(n_probes, n_planes)
    p = choose_partitions(
        ds, target_partition_bytes=(256 << 20) // reps
    )
    pairs_ds = partitioned_groupby_map(
        exploded, ["bucket"], emit_pairs, p
    ).materialize()
    losers = losers_from_pairs(pairs_ds, max_driver_pairs)
    return drop_ids(ds, id_col, losers)


def dedup_against(
    ds_new,
    ds_ref,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
):
    """INCREMENTAL exact dedup: drop rows of ``ds_new`` whose exact text
    content already exists in the reference corpus ``ds_ref`` — the
    ingestion-time shape (dedup this week's crawl against the training
    corpus without re-deduplicating the corpus itself). Keeps duplicates
    WITHIN ds_new (compose with :func:`exact_dedup` for that); null
    texts always survive (SQL ``r.text = n.text`` never matches NULL).

    Motion, sized for ds_ref ≫ ds_new or the reverse:

    1. one vectorized content-hash pass per side — no data motion;
    2. a Bloom filter over the REFERENCE hashes broadcast once
       (bytes ≪ the text set); bloom-negative new rows — at 100 TB, the
       overwhelming majority — pass through untouched, never shuffled;
    3. the bloom-positive sliver co-partitions with the reference's
       skinny (hash, text) projection on the hash; suspects drop iff a
       same-partition reference TEXT matches exactly — the hash only
       routes, text equality decides, so a 64-bit collision can't drop a
       non-duplicate (same contract as :func:`exact_dedup`).

    The reference's full payload never moves; the new corpus moves only
    its suspect sliver."""
    import ray

    from recipys_ray.kernels.grouped import _cluster_cpus, choose_partitions

    H = "__content_hash__"

    def null_split(positive: bool):
        def fn(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            isn = pc.is_null(tbl.column(text_col))
            return tbl.filter(isn if positive else pc.invert(isn))

        return fn

    null_new = ds_new.map_batches(null_split(True), batch_format="pyarrow")
    new_nn = ds_new.map_batches(null_split(False), batch_format="pyarrow")
    hashed_new = new_nn.map_batches(
        _ContentHash(text_col), batch_format="pyarrow"
    )
    ref_skinny = (
        ds_ref.select_columns([text_col])
        .map_batches(null_split(False), batch_format="pyarrow")
        .map_batches(_ContentHash(text_col), batch_format="pyarrow")
    )

    # Bloom over reference hashes (column name "node" — _build_bloom's
    # contract); pin the skinny ref projection, it is read twice
    ref_hashes = ref_skinny.map_batches(
        lambda t: pa.table({"node": t.column(H)}), batch_format="pyarrow"
    ).materialize()
    n_ref = ref_hashes.count()
    if n_ref == 0:
        return ds_new
    bloom, mask, k = _build_bloom(ref_hashes, n_ref)
    bloom_ref = ray.put(bloom)

    def split(positive: bool):
        def fn(tbl: pa.Table) -> pa.Table:
            b = ray.get(bloom_ref)
            ids = tbl.column(H).to_numpy(zero_copy_only=False)
            maybe = _bloom_maybe(b, mask, k, ids)
            sel = maybe if positive else ~maybe
            return tbl.filter(pa.array(sel))

        return fn

    keeps = hashed_new.map_batches(
        split(False), batch_format="pyarrow"
    ).drop_columns([H])
    suspects = hashed_new.map_batches(split(True), batch_format="pyarrow")

    if num_partitions is None:
        num_partitions = int(np.clip(
            -(-n_ref * 256 // (256 << 20)), 2 * _cluster_cpus(), 65_536
        ))

    # tag sides, co-partition on the hash, resolve by exact text match
    def tag(src: int, schema_cols):
        def fn(tbl: pa.Table) -> pa.Table:
            cols = {}
            for n, t in schema_cols:
                if n in tbl.schema.names:
                    cols[n] = tbl.column(n).cast(t)
                else:
                    cols[n] = pa.nulls(len(tbl), t)
            cols["__src__"] = pa.array(
                np.full(len(tbl), src, dtype=np.int8)
            )
            return pa.table(cols)

        return fn

    # suspects' schema = ds_new's + the int64 hash (derive statically —
    # a take_batch probe would re-execute the bloom pass)
    base = _arrow_schema_of(ds_new)
    schema_cols = list(zip(base.names, base.types)) + [(H, pa.int64())]
    both = suspects.map_batches(
        tag(0, schema_cols), batch_format="pyarrow"
    ).union(
        ref_skinny.map_batches(tag(1, schema_cols), batch_format="pyarrow")
    )

    def resolve(tbl: pa.Table) -> pa.Table:
        # Arrow-side filter: null-padded ref rows never touch pandas, so
        # the new side's dtypes survive exactly (the round-3 null-padding
        # int→float lesson, ROUND4_NOTES.md)
        src = tbl.column("__src__").to_numpy(zero_copy_only=False)
        texts = tbl.column(text_col).to_pandas()
        ref_set = set(texts[src == 1])
        keep_mask = (src == 0) & ~texts.isin(ref_set).to_numpy()
        return tbl.filter(pa.array(keep_mask)).drop_columns(
            ["__src__", H]
        )

    survived = partitioned_groupby_map(
        both, [H], resolve, num_partitions=num_partitions,
        batch_format="pyarrow",
    )
    return survived.union(keeps).union(null_new)
