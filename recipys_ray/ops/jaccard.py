"""EXACT n-gram Jaccard near-duplicate detection via prefix filtering.

The probabilistic dedup family (MinHash/SimHash, ops/dedup.py) trades
recall for speed. This operator is EXACT: every document pair with
shingle-set Jaccard ≥ t is found, using the prefix-filtering principle of
the AllPairs/PPJoin family (Bayardo et al. 2007; Xiao et al. 2008 — public
algorithms): under ANY fixed global token order, two sets A, B with
J(A,B) ≥ t must share at least one token among the first
``|X| - ⌈t·|X|⌉ + 1`` tokens of each. Emitting only those prefix tokens
bounds the candidate space; exact verification then filters.

Distributed shape (all skinny-column shuffles, text never moves twice):
1. one pass: doc → sorted unique shingle-hash set (uint64);
2. heavy-hitter pass: the globally most frequent shingles get demoted to
   the END of the canonical order (rank, then hash) so they never enter a
   prefix — this keeps candidate buckets small without affecting
   exactness (order is still global and fixed);
3. prefix tokens → hash-partitioned buckets → all-pairs per bucket
   (deduplicated per a-partition);
4. two co-partitioned joins attach both shingle sets to each candidate
   pair; exact Jaccard via sorted-array intersection; pairs ≥ t feed the
   shared components → min-id survivor machinery.

64-bit shingle hashing makes the verification exact up to hash collisions
(P ≈ n_pairs·2⁻⁶⁴); the driver oracle recomputes true string-set Jaccard
in SQL and has matched at every tested scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import partitioned_groupby_map
from recipys_ray.ops.dedup import _WORD_RE, drop_ids, losers_from_pairs


class _ShingleSets:
    """doc → sorted unique uint64 shingle-hash set (one batched hash call)."""

    def __init__(self, text_col: str, id_col: str, k: int):
        self.text_col = text_col
        self.id_col = id_col
        self.k = k
        self.word_re = _WORD_RE

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from recipys_ray.ops.text import flat_kgrams, word_stream

        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        n = tbl.num_rows
        words, wcounts = word_stream(tbl.column(self.text_col))
        all_sh, counts = flat_kgrams(words, wcounts, self.k)
        h = pd.util.hash_array(
            all_sh.to_numpy(zero_copy_only=False)
        ).astype(np.uint64)
        # per-row sorted-unique, vectorized: lexsort by (row, hash), then a
        # batch-wide dedupe mask — replaces the per-document np.unique loop
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((h, seg))
        hs, segs = h[order], seg[order]
        keep = np.ones(len(hs), dtype=bool)
        keep[1:] = (hs[1:] != hs[:-1]) | (segs[1:] != segs[:-1])
        vals = hs[keep]
        kept_counts = np.bincount(segs[keep], minlength=n)
        la = pa.ListArray.from_arrays(
            pa.array(np.r_[0, np.cumsum(kept_counts)], type=pa.int32()),
            pa.array(vals, pa.uint64()),
        )
        return pa.table({self.id_col: pa.array(ids), "shset": la})


def _top_common(sets_ds, id_col: str, top_m: int) -> dict:
    """{shingle_hash: rank} for the globally most frequent shingles —
    per-block partial top-(4·top_m) counts, driver merge."""
    keep = 4 * top_m

    def partial(tbl: pa.Table) -> pa.Table:
        flat = pa.compute.list_flatten(tbl.column("shset")).to_numpy(
            zero_copy_only=False
        )
        vals, cnts = np.unique(flat, return_counts=True)
        if len(vals) > keep:
            top = np.argpartition(-cnts, keep - 1)[:keep]
            vals, cnts = vals[top], cnts[top]
        return pa.table(
            {
                "h": pa.array(vals.astype(np.uint64)),
                "c": pa.array(cnts.astype(np.int64)),
            }
        )

    merged = (
        sets_ds.select_columns(["shset"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("h")["c"]
        .sum()
        .sort_values(ascending=False)
        .head(top_m)
    )
    return {int(h): r for r, h in enumerate(merged.index)}


def jaccard_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.6,
    k: int = 3,
    top_m: int = 20_000,
    num_partitions: int | None = None,
    max_driver_pairs: int = 5_000_000,
    broadcast_bytes: int = 500_000_000,
):
    """Drop near-duplicates with EXACT shingle-set Jaccard ≥ ``threshold``;
    keep the min-id representative per connected component."""
    import ray

    sets = ds.map_batches(
        _ShingleSets(text_col, id_col, k), batch_format="pyarrow"
    ).materialize()
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        # sets is materialized (size known); the prefix-token and verify
        # exchanges both move shingle-set-order payloads
        num_partitions = choose_partitions(sets)
    common = _top_common(sets, id_col, top_m) if top_m > 0 else {}
    common_ref = ray.put(common)

    def emit_prefix(tbl: pa.Table) -> pa.Table:
        """Fully vectorized: one flat hash array for the whole batch,
        commons-rank lookup via a single pandas map, per-doc canonical
        order via one lexsort keyed on segment ids, prefix selection via
        segment-relative positions."""
        import pyarrow.compute as pac

        cm = ray.get(common_ref)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        col = tbl.column("shset")
        flat = pac.list_flatten(col).to_numpy(zero_copy_only=False)
        lens = pac.list_value_length(col).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        n_docs = len(ids)
        total = int(lens.sum())
        if total == 0:
            return pa.table(
                {"tok": pa.array([], pa.uint64()),
                 id_col: pa.array([], pa.int64()),
                 "len": pa.array([], pa.int64())}
            )
        p = lens - np.ceil(threshold * lens).astype(np.int64) + 1
        p = np.minimum(np.maximum(p, 1), lens)
        # canonical order: rare shingles FIRST, the top_m hottest demoted to
        # the END (most frequent last) so they never enter a prefix — any
        # fixed global order preserves exactness, but this one keeps the
        # candidate buckets off the stop-word shingles
        top_m_eff = len(cm)
        if cm:
            mapped = pd.Series(flat).map(cm)
            ranks = np.where(
                mapped.isna(), 0, top_m_eff + 1 - mapped.fillna(0).to_numpy()
            ).astype(np.int64)
        else:
            ranks = np.zeros(total, dtype=np.int64)
        segid = np.repeat(np.arange(n_docs), lens)
        order = np.lexsort((flat, ranks, segid))
        starts = np.r_[0, np.cumsum(lens)[:-1]]
        pos_in_seg = np.arange(total) - np.repeat(starts, lens)
        keep = pos_in_seg < np.repeat(p, lens)
        return pa.table(
            {
                "tok": pa.array(flat[order][keep]),
                id_col: pa.array(
                    np.repeat(ids, lens)[keep].astype(np.int64)
                ),
                "len": pa.array(np.repeat(lens, lens)[keep]),
            }
        )

    exploded = sets.map_batches(emit_prefix, batch_format="pyarrow")

    def emit_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        """Batch-wide vectorized pair expansion: every element at bucket
        position j pairs with the j earlier elements of its bucket — one
        np.repeat/arange construction over the concatenated buckets, no
        Python loop per token bucket."""
        pdf = pdf.sort_values(["tok", id_col], kind="stable",
                              ignore_index=True)
        sizes = pdf.groupby("tok", sort=False)[id_col].transform("size")
        pdf = pdf[sizes >= 2].reset_index(drop=True)
        if not len(pdf):
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        tok = pdf["tok"].to_numpy()
        v = pdf[id_col].to_numpy()
        ln = pdf["len"].to_numpy()
        new_bucket = np.r_[True, tok[1:] != tok[:-1]]
        bstart = np.flatnonzero(new_bucket)
        widths = np.diff(np.r_[bstart, len(tok)])
        pos = np.arange(len(tok)) - np.repeat(bstart, widths)
        sec = np.flatnonzero(pos >= 1)          # "second" element of a pair
        rep = pos[sec]                          # pairs contributed by each
        total = int(rep.sum())
        if total == 0:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        seg_off = np.repeat(np.cumsum(rep) - rep, rep)
        a_off = np.arange(total) - seg_off      # 0..rep-1 within segment
        sec_start = np.repeat(
            np.repeat(bstart, widths)[sec], rep
        )
        a_idx = sec_start + a_off
        b_idx = np.repeat(sec, rep)
        la, lb = ln[a_idx], ln[b_idx]
        # PPJoin length filter: J ≥ t requires t·|A| ≤ |B| ≤ |A|/t
        ok = np.minimum(la, lb) >= threshold * np.maximum(la, lb)
        return pd.DataFrame(
            {"a": v[a_idx][ok], "b": v[b_idx][ok]}
        ).drop_duplicates(ignore_index=True)

    import os
    import time as _time

    timing = bool(os.environ.get("JACCARD_TIMING"))
    if timing:
        # no-silent-caps: demotion never drops pairs (verification is
        # exact), it only reorders the canonical prefix order
        print(f"[jaccard] demoted shingles: {len(common)} (top_m={top_m})")

    def _t(label, d):
        if timing:
            t0 = _time.time()
            d = d.materialize()
            print(f"[jaccard] {label}: {_time.time() - t0:.2f}s "
                  f"rows={d.count()}")
        return d

    cand = _t(
        "cand",
        partitioned_groupby_map(exploded, ["tok"], emit_pairs,
                                num_partitions),
    )

    def keep_jaccard(inter, la, lb):
        union = la + lb - inter
        return (union > 0) & (inter / np.maximum(union, 1) >= threshold)

    pairs_ds = _verified_pairs(
        sets, cand, id_col, keep_jaccard, num_partitions,
        broadcast_bytes, _t,
    )
    losers = losers_from_pairs(pairs_ds, max_driver_pairs)
    return drop_ids(ds, id_col, losers)


def _verified_pairs(
    sets, cand, id_col, keep_fn, num_partitions, broadcast_bytes, _t=None
):
    """Exact set-overlap verification of candidate (a, b) id pairs.

    ``keep_fn(inter, la, lb) -> bool mask`` states the similarity
    predicate on the exact intersection size and the two set sizes —
    Jaccard, containment, overlap coefficient … all share this core.
    Returns the Dataset of verified pairs (a int64, b int64).

    Two physical routes:
    - broadcast (sets table ≤ ``broadcast_bytes``): the (id → hash set)
      lookup ships once via ``ray.put``; candidates verify in a single
      stateless pass — no set payload ever shuffles;
    - co-partitioned (the 100-TB route): two union-exchanges keyed by
      pair endpoint attach each side's set (sets move at most twice, by
      hash of id; global pair dedup happens in a's partition).
    """
    import ray

    if _t is None:
        def _t(label, d):
            return d

    # ---- verification: broadcast fast path vs co-partitioned joins ------ #
    try:
        sets_bytes = sets.size_bytes()
    except Exception:
        sets_bytes = None
    if sets_bytes is not None and sets_bytes <= broadcast_bytes:
        pdf_sets = sets.to_pandas()
        lookup_all = {
            int(i): np.asarray(s, dtype=np.uint64)
            for i, s in zip(pdf_sets[id_col], pdf_sets["shset"])
        }
        lookup_ref = ray.put(lookup_all)

        def verify_broadcast(tbl: pa.Table) -> pa.Table:
            lk = ray.get(lookup_ref)
            a = tbl.column("a").to_numpy(zero_copy_only=False)
            b = tbl.column("b").to_numpy(zero_copy_only=False)
            # dedupe within the batch; cross-batch dupes collapse in the
            # downstream losers fold
            ab = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
            a, b = ab["a"].to_numpy(), ab["b"].to_numpy()
            sas = [lk[int(x)] for x in a]
            sbl = [lk[int(x)] for x in b]
            la = np.fromiter((len(x) for x in sas), np.int64, len(sas))
            lb = np.fromiter((len(x) for x in sbl), np.int64, len(sbl))
            pidx = np.repeat(np.arange(len(sas)), la + lb)
            vals = (
                np.concatenate([v for p in zip(sas, sbl) for v in p])
                if len(sas)
                else np.array([], dtype=np.uint64)
            )
            order = np.lexsort((vals, pidx))
            sv, sp = vals[order], pidx[order]
            dup = (sp[1:] == sp[:-1]) & (sv[1:] == sv[:-1])
            inter = np.bincount(sp[1:][dup], minlength=len(sas))
            keep = keep_fn(inter, la, lb)
            return pa.table(
                {
                    "a": pa.array(a[keep].astype(np.int64)),
                    "b": pa.array(b[keep].astype(np.int64)),
                }
            )

        return _t(
            "verify_broadcast",
            cand.map_batches(verify_broadcast, batch_format="pyarrow"),
        ).materialize()

    # attach both shingle sets via two co-partitioned unions, then verify.
    # Union schema: (__aj_id__ int64, a int64, b int64, set_a list<u64>,
    # shset list<u64>) — pair rows have shset null; set rows have a/b null.
    LIST_T = pa.list_(pa.uint64())
    SCHEMA = ["__aj_id__", "a", "b", "set_a", "shset"]

    def _mk(n, **given) -> pa.Table:
        cols = {}
        for name in SCHEMA:
            if name in given:
                cols[name] = given[name]
            elif name in ("set_a", "shset"):
                cols[name] = pa.nulls(n, LIST_T)
            else:
                cols[name] = pa.nulls(n, pa.int64())
        return pa.table(cols)

    def tag_pairs1(tbl: pa.Table) -> pa.Table:
        return _mk(
            len(tbl),
            __aj_id__=tbl.column("a").cast(pa.int64()),
            a=tbl.column("a").cast(pa.int64()),
            b=tbl.column("b").cast(pa.int64()),
        )

    def tag_sets_stage(tbl: pa.Table) -> pa.Table:
        return _mk(
            len(tbl),
            __aj_id__=tbl.column(id_col).cast(pa.int64()),
            shset=tbl.column("shset").cast(LIST_T),
        )

    def _split(pdf: pd.DataFrame):
        is_set = pdf["shset"].notna()
        lookup = dict(zip(pdf.loc[is_set, "__aj_id__"],
                          pdf.loc[is_set, "shset"]))
        return pdf[~is_set], lookup

    def attach_a(tbl: pa.Table) -> pa.Table:
        pairs, lookup = _split(tbl.to_pandas())
        # GLOBAL pair dedup: every copy of (a,b) — emitted once per shared
        # prefix token — lands in a's partition; drop them here before the
        # expensive set attach/verify stages
        pairs = pairs.drop_duplicates(subset=["a", "b"])
        sa = pairs["__aj_id__"].map(lookup)
        keep = sa.notna().to_numpy()
        return _mk(
            int(keep.sum()),
            __aj_id__=pa.array(pairs["b"][keep].astype(np.int64)),
            a=pa.array(pairs["a"][keep].astype(np.int64)),
            b=pa.array(pairs["b"][keep].astype(np.int64)),
            set_a=pa.array(
                [np.asarray(x, np.uint64) for x in sa[keep]], LIST_T
            ),
        )

    u1 = cand.map_batches(tag_pairs1, batch_format="pyarrow").union(
        sets.map_batches(tag_sets_stage, batch_format="pyarrow")
    )
    with_a = _t(
        "attach_a",
        partitioned_groupby_map(
            u1, ["__aj_id__"], attach_a, num_partitions,
            batch_format="pyarrow",
        ),
    )

    def verify(tbl: pa.Table) -> pa.Table:
        """Exact Jaccard for every candidate pair in the partition with ONE
        segment sort: concatenate each pair's two (already-unique) hash
        sets, count in-segment duplicates = |A∩B|."""
        pairs, lookup = _split(tbl.to_pandas())
        empty = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
        if not len(pairs):
            return empty
        sbs = pairs["b"].map(lookup)
        ok = sbs.notna() & pairs["set_a"].notna()
        pairs = pairs[ok]
        if not len(pairs):
            return empty
        sas = [np.asarray(x, dtype=np.uint64) for x in pairs["set_a"]]
        sbl = [np.asarray(x, dtype=np.uint64) for x in sbs[ok]]
        la = np.fromiter((len(x) for x in sas), np.int64, len(sas))
        lb = np.fromiter((len(x) for x in sbl), np.int64, len(sbl))
        seg_len = la + lb
        pidx = np.repeat(np.arange(len(sas)), seg_len)
        vals = np.concatenate(
            [v for ab in zip(sas, sbl) for v in ab]
        )
        order = np.lexsort((vals, pidx))
        sv, sp = vals[order], pidx[order]
        dup = (sp[1:] == sp[:-1]) & (sv[1:] == sv[:-1])
        inter = np.bincount(sp[1:][dup], minlength=len(sas))
        keep = keep_fn(inter, la, lb)
        return pa.table(
            {
                "a": pa.array(pairs["a"].to_numpy()[keep].astype(np.int64)),
                "b": pa.array(pairs["b"].to_numpy()[keep].astype(np.int64)),
            }
        )

    u2 = with_a.union(
        sets.map_batches(tag_sets_stage, batch_format="pyarrow")
    )
    return _t(
        "verify",
        partitioned_groupby_map(
            u2, ["__aj_id__"], verify, num_partitions,
            batch_format="pyarrow",
        ),
    ).materialize()


def containment_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.7,
    k: int = 3,
    top_m: int = 20_000,
    num_partitions: int | None = None,
    max_driver_losers: int = 50_000_000,
    broadcast_bytes: int = 500_000_000,
):
    """Subsumed-document removal via EXACT shingle-set containment.

    Drop document ``d`` when another document ``e`` exists with
    ``|S_d ∩ S_e| / |S_d| ≥ threshold`` and ``(|S_e| > |S_d|`` or
    ``|S_e| = |S_d|`` and ``e.id < d.id)`` — i.e. ``d``'s content is
    (mostly) contained in a strictly-larger document, or in an equal-size
    one with a smaller id (equal-size containment at any t < 1 is
    symmetric, so the tie-break keeps exactly one of each such pair).
    Containers SMALLER than ``d`` never drop it: the more informative
    superset survives. No connected components are needed — the predicate
    is a per-document NOT EXISTS, which is also how the SQL oracle states
    it.

    Exact candidate generation is the asymmetric prefix filter of the
    set-containment-join literature (e.g. Melnik & Garcia-Molina 2003;
    the PPJoin family's containment variant): under ANY fixed global
    token order, a contained side ``d`` needing ``m = ⌈t·|S_d|⌉`` shared
    tokens must share one within its first ``|S_d| − m + 1`` tokens
    (pigeonhole: at most ``|S_d| − m`` of its tokens miss the container).
    So ``d`` emits only that prefix as a *probe* stream while every
    document emits ALL tokens as the *index* stream; probe×index pairs
    within a token bucket are a superset of all qualifying pairs. ``m``
    is computed against the FLOAT predicate ``inter/|S_d| ≥ t`` itself
    (one-step integer correction around ``ceil(t·|S_d|)``), so the prefix
    bound and the verifier can never disagree on a boundary ulp.

    The hottest ``top_m`` shingles are demoted to the END of the
    canonical order, keeping them out of probe prefixes — index buckets
    for those tokens then contain no probes and emit nothing, so
    stop-word shingles cost nothing. Verification reuses
    :func:`_verified_pairs` (broadcast or co-partitioned), and losers are
    the distinct contained ids — no component fold.
    """
    sets = ds.map_batches(
        _ShingleSets(text_col, id_col, k), batch_format="pyarrow"
    ).materialize()
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(sets)
    cand = _asymmetric_candidates(
        sets, id_col, threshold, top_m, num_partitions
    )

    def keep_containment(inter, la, lb):
        return (la > 0) & (inter / np.maximum(la, 1) >= threshold)

    pairs_ds = _verified_pairs(
        sets, cand, id_col, keep_containment, num_partitions,
        broadcast_bytes,
    )
    # losers = distinct contained ids — no components, straight membership
    if pairs_ds.count() > max_driver_losers:
        losers_ds = pairs_ds.map_batches(
            lambda t: t.select(["a"]).rename_columns(["node"]),
            batch_format="pyarrow",
        )
        return drop_ids(ds, id_col, losers_ds)
    arr = np.unique(
        pairs_ds.to_pandas()["a"].to_numpy().astype(np.int64)
    )
    return drop_ids(ds, id_col, arr)


def overlap_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    k: int = 3,
    top_m: int = 20_000,
    num_partitions: int | None = None,
    max_driver_pairs: int = 5_000_000,
    broadcast_bytes: int = 500_000_000,
):
    """Near-dup removal under the EXACT overlap (Szymkiewicz–Simpson)
    coefficient ``|S_a ∩ S_b| / min(|S_a|, |S_b|) ≥ threshold``; keep the
    min-id representative per connected component (the relation is
    symmetric, so survivors follow the same component fold as
    :func:`jaccard_dedup`).

    Candidate generation is shared with :func:`containment_dedup`
    (:func:`_asymmetric_candidates`): for a qualifying pair the SMALLER
    set ``a`` needs ``⌈t·|S_a|⌉`` shared tokens, so its float-exact prefix
    must hit the other side's full index stream — the same probe×index
    bucket expansion, whose ``(|S_b| > |S_a|)`` or equal-size-tie-break
    filter emits each unordered pair exactly once with ``a`` the smaller
    side. Only the verification predicate and the survivor fold differ.
    """
    sets = ds.map_batches(
        _ShingleSets(text_col, id_col, k), batch_format="pyarrow"
    ).materialize()
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(sets)
    cand = _asymmetric_candidates(
        sets, id_col, threshold, top_m, num_partitions
    )

    def keep_overlap(inter, la, lb):
        mn = np.maximum(np.minimum(la, lb), 1)
        return (np.minimum(la, lb) > 0) & (inter / mn >= threshold)

    pairs_ds = _verified_pairs(
        sets, cand, id_col, keep_overlap, num_partitions,
        broadcast_bytes,
    )
    losers = losers_from_pairs(pairs_ds, max_driver_pairs)
    return drop_ids(ds, id_col, losers)


def _asymmetric_candidates(
    sets, id_col: str, threshold: float, top_m: int, num_partitions: int,
    side_col: str | None = None,
):
    """Exact probe-prefix × full-index candidate pairs for predicates that
    lower-bound the intersection by ``⌈t·|S_a|⌉`` of the smaller/contained
    side ``a`` (set containment, overlap coefficient).

    Self-join mode (``side_col=None``): every doc emits both streams;
    candidates are ``(a, b)`` with ``|S_b| > |S_a|``, or ``|S_b| = |S_a|``
    and ``b < a`` — one orientation per unordered pair.

    Cross-corpus mode (``side_col`` names an int8 column on ``sets``):
    side-0 docs emit ONLY probe prefixes, side-1 docs emit ONLY index
    tokens, and candidates are every probe×index bucket pair with no size
    filter — the containment-in-any-benchmark-doc shape
    (:func:`fuzzy_decontaminate`). Exactness argument and the hot-shingle
    demotion are documented on :func:`containment_dedup`.
    """
    import ray

    common = _top_common(sets, id_col, top_m) if top_m > 0 else {}
    common_ref = ray.put(common)
    cross = side_col is not None

    def emit_tokens(tbl: pa.Table) -> pa.Table:
        """One pass: every token as an index row (role=1) plus the probe
        prefix rows (role=0) — same canonical order as emit_prefix."""
        import pyarrow.compute as pac

        cm = ray.get(common_ref)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        side = (
            tbl.column(side_col).to_numpy(zero_copy_only=False)
            if cross else None
        )
        col = tbl.column("shset")
        flat = pac.list_flatten(col).to_numpy(zero_copy_only=False)
        lens = pac.list_value_length(col).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        n_docs = len(ids)
        total = int(lens.sum())
        empty = pa.table(
            {"tok": pa.array([], pa.uint64()),
             id_col: pa.array([], pa.int64()),
             "len": pa.array([], pa.int64()),
             "role": pa.array([], pa.int8())}
        )
        if total == 0:
            return empty
        # minimal integer m with (m / len) >= threshold under FLOAT
        # division — start at ceil(t·len), correct one step both ways so
        # the bound matches the verifier's own arithmetic exactly
        m = np.ceil(threshold * lens.astype(np.float64)).astype(np.int64)
        m = np.clip(m, 1, lens)
        down_ok = (m - 1 >= 1) & ((m - 1) / lens >= threshold)
        m = np.where(down_ok, m - 1, m)
        m = np.where((m / lens < threshold) & (m < lens), m + 1, m)
        p = lens - m + 1
        top_m_eff = len(cm)
        if cm:
            mapped = pd.Series(flat).map(cm)
            ranks = np.where(
                mapped.isna(), 0, top_m_eff + 1 - mapped.fillna(0).to_numpy()
            ).astype(np.int64)
        else:
            ranks = np.zeros(total, dtype=np.int64)
        segid = np.repeat(np.arange(n_docs), lens)
        order = np.lexsort((flat, ranks, segid))
        starts = np.r_[0, np.cumsum(lens)[:-1]]
        pos_in_seg = np.arange(total) - np.repeat(starts, lens)
        probe = pos_in_seg < np.repeat(p, lens)
        tok_o = flat[order]
        id_o = np.repeat(ids, lens).astype(np.int64)
        len_o = np.repeat(lens, lens)
        if cross:
            # side-0 docs probe, side-1 docs index — nothing else
            side_tok = np.repeat(side, lens)
            index_m = side_tok == 1
            probe &= side_tok == 0
        else:
            index_m = np.ones(total, dtype=bool)
        n_idx = int(index_m.sum())
        return pa.table(
            {
                "tok": pa.array(np.r_[tok_o[index_m], tok_o[probe]]),
                id_col: pa.array(np.r_[id_o[index_m], id_o[probe]]),
                "len": pa.array(np.r_[len_o[index_m], len_o[probe]]),
                "role": pa.array(
                    np.r_[np.ones(n_idx, dtype=np.int8),
                          np.zeros(int(probe.sum()), dtype=np.int8)]
                ),
            }
        )

    exploded = sets.map_batches(emit_tokens, batch_format="pyarrow")

    def emit_pairs_cont(pdf: pd.DataFrame) -> pd.DataFrame:
        """Per token bucket: (probe a) × (index b) pairs with the size /
        tie-break filter — fully vectorized across all buckets."""
        out_empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                  "b": pd.Series(dtype=np.int64)})
        if not len(pdf):
            return out_empty
        pdf = pdf.sort_values(["tok", "role", id_col], kind="stable",
                              ignore_index=True)
        tok = pdf["tok"].to_numpy()
        role = pdf["role"].to_numpy()
        v = pdf[id_col].to_numpy()
        ln = pdf["len"].to_numpy()
        new_bucket = np.r_[True, tok[1:] != tok[:-1]]
        bid = np.cumsum(new_bucket) - 1
        n_buckets = int(bid[-1]) + 1
        bstart = np.flatnonzero(new_bucket)
        n_probe = np.bincount(bid[role == 0], minlength=n_buckets)
        n_index = np.bincount(bid[role == 1], minlength=n_buckets)
        probes = np.flatnonzero(role == 0)
        if not len(probes) or n_index.sum() == 0:
            return out_empty
        pb = bid[probes]
        rep = n_index[pb]
        total = int(rep.sum())
        if total == 0:
            return out_empty
        istart = bstart + n_probe          # index rows follow the probes
        a_idx = np.repeat(probes, rep)
        ramp = np.arange(total) - np.repeat(np.cumsum(rep) - rep, rep)
        b_idx = np.repeat(istart[pb], rep) + ramp
        a, b = v[a_idx], v[b_idx]
        la, lb = ln[a_idx], ln[b_idx]
        if cross:
            ok = a != b          # sides are id-disjoint; no size filter
        else:
            ok = (a != b) & ((lb > la) | ((lb == la) & (b < a)))
        return pd.DataFrame(
            {"a": a[ok], "b": b[ok]}
        ).drop_duplicates(ignore_index=True)

    return partitioned_groupby_map(
        exploded, ["tok"], emit_pairs_cont, num_partitions
    )


def fuzzy_decontaminate(
    train,
    bench,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.5,
    k: int = 3,
    top_m: int = 20_000,
    num_partitions: int | None = None,
    max_driver_losers: int = 50_000_000,
    broadcast_bytes: int = 500_000_000,
):
    """Fuzzy benchmark decontamination: drop a TRAINING document whose
    shingle set is ≥ ``threshold`` contained in ANY single benchmark
    document — the fraction-overlap ("dirty document") protocol, vs
    :func:`recipys_ray.ops.decontaminate.decontaminate`'s any-one-n-gram-
    collision rule. A paraphrased eval answer embedded in a longer page
    trips this; one unlucky shared n-gram does not.

    Distributed shape — the cross-corpus mode of
    :func:`_asymmetric_candidates`: train docs emit only their float-exact
    containment prefixes (probes), benchmark docs emit their full token
    stream (index); probe×index bucket pairs verify exactly via
    :func:`_verified_pairs` with ``inter/|S_train| ≥ t``. Benchmark ids
    are mapped to the negative range so both corpora share one id space —
    requires non-negative input ids on both sides (raises otherwise).
    Benchmark sets never broadcast as a whole and the train corpus never
    shuffles its text: only skinny token/pair columns move.
    """
    sets_t = train.map_batches(
        _ShingleSets(text_col, id_col, k), batch_format="pyarrow"
    )
    sets_b = bench.map_batches(
        _ShingleSets(text_col, id_col, k), batch_format="pyarrow"
    )

    def tag(side: int):
        def fn(tbl: pa.Table) -> pa.Table:
            ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
            if len(ids) and int(ids.min()) < 0:
                raise ValueError(
                    "fuzzy_decontaminate requires non-negative ids on "
                    "both sides (benchmark ids are mapped to the negative "
                    "range internally)"
                )
            if side == 1:
                idx = tbl.schema.get_field_index(id_col)
                tbl = tbl.set_column(
                    idx, id_col,
                    pa.array((-ids.astype(np.int64) - 1)),
                )
            return tbl.append_column(
                "__side__", pa.array(np.full(len(tbl), side, np.int8))
            )

        return fn

    sets = (
        sets_t.map_batches(tag(0), batch_format="pyarrow")
        .union(sets_b.map_batches(tag(1), batch_format="pyarrow"))
        .materialize()
    )
    if num_partitions is None:
        from recipys_ray.kernels.grouped import choose_partitions

        num_partitions = choose_partitions(sets)
    cand = _asymmetric_candidates(
        sets, id_col, threshold, top_m, num_partitions, side_col="__side__"
    )

    def keep_containment(inter, la, lb):
        return (la > 0) & (inter / np.maximum(la, 1) >= threshold)

    pairs_ds = _verified_pairs(
        sets, cand, id_col, keep_containment, num_partitions,
        broadcast_bytes,
    )
    if pairs_ds.count() > max_driver_losers:
        losers_ds = pairs_ds.map_batches(
            lambda t: t.select(["a"]).rename_columns(["node"]),
            batch_format="pyarrow",
        )
        return drop_ids(train, id_col, losers_ds)
    arr = np.unique(
        pairs_ds.to_pandas()["a"].to_numpy().astype(np.int64)
    )
    return drop_ids(train, id_col, arr)
