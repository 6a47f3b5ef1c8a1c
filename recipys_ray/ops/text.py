"""Text analysis stages for large-scale training-data pipelines.

All stages are actor-pool ``map_batches`` callables: regexes/stopword tables
are compiled ONCE per actor in ``__init__``, each ``__call__`` is a
vectorized pass over one Arrow batch. Use as::

    ds.map_batches(TextFeaturizer(), batch_format="pyarrow",
                   concurrency=8, batch_size=4096)
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import actor_pool_args

# tiny per-language stopword lists for the n-gram/stopword language heuristic
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "von", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pas", "pour", "que"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "no", "por", "que"},
}

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# polynomial rolling-hash params — chosen so BOTH numpy (uint64, no
# overflow: h < 2^31, h*131 + cp < 2^39) and DuckDB BIGINT list_reduce
# compute bit-identical values; the langid_quality oracle re-derives
# fingerprints in pure SQL with the same recurrence
_POLY_MOD = np.uint64(2147483647)  # 2^31 - 1
_POLY_BASE = np.uint64(131)


def _poly_hash_from_cp(allcp: np.ndarray, lens: np.ndarray,
                       chunk: int = 1 << 22) -> np.ndarray:
    """Polynomial hash over the concatenated code-point stream ``allcp``
    with per-string lengths ``lens``.

    Horner reformulated as a power-weighted sum — exactly equal mod M:
    ``h = Σ_j cp[j] · B^(L-1-j) mod M``. Three vectorized passes over the
    flat stream (exponent, weighted term, segmented reduceat sum) replace
    the per-character-position masked loop. Each term < M < 2^31 and
    L < 2^32, so the uint64 segment sums cannot overflow. Chunked over
    strings to bound the temporaries."""
    n = len(lens)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    lens = lens.astype(np.int64)
    ends = np.cumsum(lens)
    starts = ends - lens
    maxlen = int(lens.max())
    if maxlen == 0:
        return out
    powtab = np.empty(maxlen, dtype=np.uint64)
    p = np.uint64(1)
    for k in range(maxlen):
        powtab[k] = p
        p = (p * _POLY_BASE) % _POLY_MOD
    lo = 0
    while lo < n:
        # grow the string window until ~chunk flat chars
        hi = int(np.searchsorted(ends, ends[lo] - lens[lo] + chunk)) + 1
        hi = min(max(hi, lo + 1), n)
        base = starts[lo]
        seg = allcp[base : ends[hi - 1]]
        T = len(seg)
        if T:
            ln = lens[lo:hi]
            # exponent of each flat position j: (end_i - 1) - j
            e = np.repeat(ends[lo:hi] - 1 - base, ln) - np.arange(
                T, dtype=np.int64
            )
            term = (seg.astype(np.uint64) * powtab[e]) % _POLY_MOD
            seg_starts = starts[lo:hi] - base
            # reduceat over NON-EMPTY segments only: clamping an
            # empty-string start of T to T-1 would steal the previous
            # segment's last element
            nz = ln > 0
            sums = np.zeros(hi - lo, dtype=np.uint64)
            sums[nz] = np.add.reduceat(term, seg_starts[nz])
            out[lo:hi] = (sums % _POLY_MOD).astype(np.int64)
        lo = hi
    return out


def poly_hash(strings, chunk: int = 65_536) -> np.ndarray:
    """Vectorized polynomial rolling hash over Unicode code points:
    ``h = (h * 131 + codepoint) % (2^31 - 1)``, empty string → 0.

    Accepts a ``pa.StringArray`` (fast path: for all-ASCII batches the
    UTF-8 data buffer IS the code-point stream — zero per-string Python) or
    any iterable of str (generic path via one utf-32 decode of the batch).
    """
    import pyarrow.compute as pc

    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if isinstance(strings, pa.Array):
        arr = strings
        if arr.null_count:
            arr = pc.fill_null(arr, "")  # null hashes as "" (→ 0)
        # the buffer-poking path is only valid for utf8 layouts, and the
        # offsets width differs: string = int32, large_string = int64 —
        # reading a large_string's buffer as int32 silently mis-hashes
        is_str = pa.types.is_string(arr.type)
        is_large = pa.types.is_large_string(arr.type)
        if len(arr) and (is_str or is_large):
            nbytes = pc.binary_length(arr).to_numpy().astype(np.int64)
            nchars = pc.utf8_length(arr).to_numpy().astype(np.int64)
            if (nbytes == nchars).all():  # pure ASCII: bytes == codepoints
                off = np.frombuffer(
                    arr.buffers()[1], np.int64 if is_large else np.int32
                )
                off = off[arr.offset : arr.offset + len(arr) + 1].astype(
                    np.int64
                )
                data = np.frombuffer(arr.buffers()[2], np.uint8)
                # string i occupies data[off[i]:off[i+1]] → the slice below
                # is exactly the concatenated stream
                return _poly_hash_from_cp(
                    data[off[0] : off[-1]], np.diff(off), chunk
                )
        strings = arr.to_pylist()
    strings = ["" if s is None else s for s in strings]
    lens = np.fromiter((len(s) for s in strings), np.int64, len(strings))
    if len(strings):
        allcp = np.frombuffer(
            "".join(strings).encode("utf-32-le"), dtype=np.uint32
        )
    else:
        allcp = np.empty(0, dtype=np.uint32)
    return _poly_hash_from_cp(allcp, lens, chunk)


def fast_str_hash(strings: pd.Series) -> np.ndarray:
    """Deterministic 64-bit content hash, vectorized via pandas' stable
    string hashing (same across processes)."""
    return pd.util.hash_array(strings.to_numpy(dtype=object)).astype(np.uint64)


# --------------------------------------------------------------------- #
# Arrow-kernel tokenization — the shared flat word/shingle stream
# --------------------------------------------------------------------- #
# RE2 (Arrow AND DuckDB) ASCII `\w` tokenization. The oracle SQL already
# uses regexp_extract_all (RE2), so these kernels match the oracle engine
# exactly; Python `re` with re.UNICODE agrees on ASCII text and is what the
# goldens were generated with — parity is asserted by tests/test_ops.py.
_SPLIT_NONWORD = r"[^\w]+"


def word_stream(col, lower: bool = True):
    """Tokenize a string column into the batch-wide flat word stream using
    Arrow's C++ RE2 kernels (no per-document Python regex loop).

    Returns ``(words, counts)``: ``words`` is a ``pa.StringArray`` of every
    word of every document in document order, ``counts[i]`` the number of
    words of document i. Equivalent to ``re.findall(r"\\w+", text.lower())``
    per document, ~10-30× faster on large batches.
    """
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = pc.fill_null(col, "")
    if lower:
        arr = pc.utf8_lower(arr)
    split = pc.split_pattern_regex(arr, pattern=_SPLIT_NONWORD)
    flat = pc.list_flatten(split)
    row_len = pc.list_value_length(split).to_numpy().astype(np.int64)
    # splitting leaves "" fragments at delimiter-adjacent boundaries
    keep = pc.not_equal(flat, "")
    knp = keep.to_numpy(zero_copy_only=False)
    ck = np.r_[0, np.cumsum(knp)]
    row_off = np.r_[0, np.cumsum(row_len)]
    counts = (ck[row_off[1:]] - ck[row_off[:-1]]).astype(np.int64)
    return flat.filter(keep), counts


def _ramp(lens: np.ndarray) -> np.ndarray:
    """[0..lens[0]), [0..lens[1]), ... concatenated (vectorized arange)."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )


def flat_kgrams(words: pa.Array, counts: np.ndarray, k: int,
                pad_small: bool = True):
    """Space-joined k-word grams over the flat word stream, vectorized via
    ``pc.binary_join_element_wise`` over k shifted slices (one C++ concat
    pass instead of a per-document join loop).

    ``pad_small=True`` reproduces the shingle convention used throughout
    dedup: a document with fewer than k words yields ONE gram — the join of
    all its words ("" for an empty document). With ``pad_small=False`` such
    documents yield zero grams (the Gopher n-gram convention).

    Returns ``(grams, gram_counts)``: grams is a ``pa.StringArray`` in
    document order, gram_counts[i] the number of grams of document i. The
    assembly is a pure Arrow take-permutation — no Python string boxing.
    """
    import pyarrow.compute as pc

    n = len(counts)
    offsets = np.r_[0, np.cumsum(counts)]
    big = counts >= k
    big_counts = np.where(big, counts - k + 1, 0)
    gram_counts = big_counts + (0 if not pad_small else (~big).astype(np.int64))
    g_off = np.r_[0, np.cumsum(gram_counts)]
    total = int(g_off[-1])
    total_words = len(words)
    parts: list[pa.Array] = []
    perm = np.empty(total, dtype=np.int64)
    taken = 0
    if big.any():
        n_starts = total_words - k + 1
        joined = pc.binary_join_element_wise(
            *(words.slice(j, n_starts) for j in range(k)), " "
        )
        lens = big_counts[big]
        ramp = _ramp(lens)
        src = np.repeat(offsets[:-1][big], lens) + ramp
        dst = np.repeat(g_off[:-1][big], lens) + ramp
        parts.append(joined.take(pa.array(src)))
        perm[dst] = np.arange(len(src), dtype=np.int64)
        taken = len(src)
    if pad_small and (~big).any():
        # one gram per small doc: the row-wise join of its own words
        la = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), words
        )
        small_join = pc.binary_join(la, " ")
        small = ~big
        sm_idx = np.flatnonzero(small)
        parts.append(small_join.take(pa.array(sm_idx)))
        perm[g_off[:-1][small]] = taken + np.arange(
            len(sm_idx), dtype=np.int64
        )
    if not parts:
        return pa.array([], pa.string()), gram_counts
    combined = pa.concat_arrays(
        [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
         for p in parts]
    )
    return combined.take(pa.array(perm)), gram_counts


class TextFeaturizer:
    """Adds language-ID, quality, token-count and fingerprint columns.

    Outputs: n_chars_calc (int64), n_words (int64), token_count (int64,
    BPE-ish regex tokens), stop_ratio, punct_ratio, upper_ratio, digit_ratio,
    quality_score (double), lang (string), fingerprint (int64 min-hash of
    word 3-shingles — document-level rolling fingerprint).
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.word_re = re.compile(r"\w+", re.UNICODE)
        # BPE-ish: words, numbers, or single non-space symbols
        self.token_re = re.compile(r"\w+|[^\w\s]", re.UNICODE)
        self.punct_re = re.compile(r"[^\w\s]", re.UNICODE)
        self.stop_tables = {
            lang: frozenset(words) for lang, words in _STOPWORDS.items()
        }
        # word -> bitmask of languages containing it: ONE dict lookup per
        # word replaces a per-doc-per-language Python membership loop
        self.lang_list = list(_STOPWORDS)
        masks: dict = {}
        for j, lang in enumerate(self.lang_list):
            for w in _STOPWORDS[lang]:
                masks[w] = masks.get(w, 0) | (1 << j)
        self.stop_masks = masks

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = tbl.column(self.text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        n = len(filled)
        n_chars = pc.utf8_length(filled).to_numpy().astype(np.int64)
        # tokenization via Arrow's C++ RE2 kernels — one kernel call per
        # feature over the whole batch, no per-document Python regex loop
        words, n_words = word_stream(filled)
        token_count = pc.count_substring_regex(
            filled, pattern=r"\w+|[^\w\s]"
        ).to_numpy().astype(np.int64)
        punct = pc.count_substring_regex(
            filled, pattern=r"[^\w\s]"
        ).to_numpy().astype(np.int64)
        upper = pc.count_substring_regex(
            filled, pattern=r"[A-Z]"
        ).to_numpy().astype(np.int64)
        digit = pc.count_substring_regex(
            filled, pattern=r"[0-9]"
        ).to_numpy().astype(np.int64)

        denom = np.maximum(n_chars, 1).astype(np.float64)
        wdenom = np.maximum(n_words, 1).astype(np.float64)
        punct_ratio = punct / denom
        upper_ratio = upper / denom
        digit_ratio = digit / denom

        # language id: argmax stopword hit ratio; "und" if no hits.
        # Vectorized: flatten the batch's words once, one dict map to a
        # per-word language bitmask, then a segmented np.add.reduceat per
        # language over the extracted bit (no per-doc Python scoring loop).
        langs = self.lang_list
        lang_scores = np.zeros((n, len(langs)))
        total_words = int(n_words.sum())
        if total_words:
            mapped = (
                pd.Series(words.to_numpy(zero_copy_only=False), dtype=object)
                .map(self.stop_masks)
                .fillna(0)
                .to_numpy(dtype=np.int64)
            )
            offsets = np.r_[0, np.cumsum(n_words)[:-1]]
            safe = np.minimum(offsets, total_words - 1)
            empty = n_words == 0
            for j in range(len(langs)):
                member = ((mapped >> j) & 1).astype(np.float64)
                sc = np.add.reduceat(member, safe)
                sc[empty] = 0.0
                lang_scores[:, j] = sc
        best = lang_scores.argmax(axis=1)
        hit = lang_scores.max(axis=1) > 0
        lang = np.where(hit, np.array(langs, dtype=object)[best], "und")
        stop_ratio = lang_scores.max(axis=1) / wdenom

        # quality: bounded heuristic in [0,1] — long enough, low punct/digit
        # noise, reasonable mean word length
        mean_wlen = n_chars / wdenom
        quality = (
            np.clip(n_words / 20.0, 0, 1) * 0.4
            + np.clip(1.0 - punct_ratio * 4, 0, 1) * 0.3
            + np.clip(1.0 - digit_ratio * 4, 0, 1) * 0.2
            + np.where((mean_wlen > 2) & (mean_wlen < 12), 0.1, 0.0)
        )

        # fingerprint: min over rolling 3-word shingle poly-hashes — shingle
        # strings built by one vectorized Arrow join (flat_kgrams), one
        # batched poly_hash call, segmented min via np.minimum.reduceat
        # (SQL-replicable, see poly_hash)
        if n:
            all_shingles, sh_counts = flat_kgrams(words, n_words, 3)
            hashes = poly_hash(all_shingles)
            offsets = np.r_[0, np.cumsum(sh_counts)[:-1]]
            fp = np.minimum.reduceat(hashes, offsets)
        else:
            fp = np.empty(0, dtype=np.int64)

        for name, arr in [
            ("n_chars_calc", pa.array(n_chars)),
            ("n_words", pa.array(n_words)),
            ("token_count", pa.array(token_count)),
            ("stop_ratio", pa.array(stop_ratio)),
            ("punct_ratio", pa.array(punct_ratio)),
            ("upper_ratio", pa.array(upper_ratio)),
            ("digit_ratio", pa.array(digit_ratio)),
            ("quality_score", pa.array(quality)),
            ("lang_pred", pa.array(lang.astype(object))),
            ("fingerprint", pa.array(fp)),
        ]:
            tbl = tbl.append_column(name, arr)
        return tbl


def text_features(ds, text_col: str = "text", concurrency=(1, 8),
                  batch_size: int = 4096):
    """Actor-pool text featurization stage.

    Default concurrency is AUTOSCALING (min 1, max 8): a fixed pool whose
    minimum equals the session CPUs can deadlock when the stage sits behind
    an all-to-all exchange (observed behind a minhash-dedup shuffle at 4
    CPUs; see ray-project/ray#53727) — the pool pins every CPU while the
    upstream shuffle still needs one."""
    return ds.map_batches(
        TextFeaturizer,
        fn_constructor_kwargs={"text_col": text_col},
        batch_format="pyarrow",
        **actor_pool_args(concurrency),
        batch_size=batch_size,
    )


def build_vocab(
    ds,
    text_col: str = "text",
    top_k: int = 1000,
    num_partitions: int | None = None,
    _return_total: bool = False,
    ngram: int = 1,
):
    """EXACT top-K vocabulary with term and document frequencies.

    Combiner shape: each block emits one (token, count, doc_freq) partial
    row per distinct token (never raw tokens); partials hash-partition by
    token, each partition totals ITS tokens completely and keeps its local
    top-K; the driver merges ≤ partitions×K candidate rows — exact because
    every token lives in exactly one partition. Deterministic order:
    count desc, token asc; ``rank`` is 0-based.
    """

    def partial(tbl: pa.Table) -> pa.Table:
        words, counts = word_stream(tbl.column(text_col))
        if ngram > 1:
            # space-joined n-grams (Gopher convention: short docs yield
            # none) through the same vectorized join kernel
            words, counts = flat_kgrams(words, counts, ngram,
                                        pad_small=False)
        arr = words.to_numpy(zero_copy_only=False)
        vals, cnt = np.unique(arr, return_counts=True)
        # doc_freq: distinct (doc, token) pairs
        doc_ids = np.repeat(np.arange(len(counts)), counts)
        pair_df = pd.DataFrame({"d": doc_ids, "t": arr}).drop_duplicates()
        df_cnt = pair_df.groupby("t", sort=True).size()
        tokens = vals.astype(object)
        cnts = cnt.astype(np.int64)
        dfs = df_cnt.reindex(vals).to_numpy(dtype=np.int64)
        if _return_total:
            # sentinel "" (never a \w+ token) carries the block's total
            # token count; its partition-wide sum is the corpus N and it
            # always survives that partition's top-K (count == N ≥ any)
            tokens = np.r_[tokens, np.array([""], dtype=object)]
            cnts = np.r_[cnts, [int(counts.sum())]]
            dfs = np.r_[dfs, [0]]
        return pa.table(
            {
                "token": pa.array(tokens),
                "count": pa.array(cnts),
                "doc_freq": pa.array(dfs),
            }
        )

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def local_topk(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = pdf.groupby("token", sort=False, observed=True).agg(
            count=("count", "sum"), doc_freq=("doc_freq", "sum")
        ).reset_index()
        tot = tot.sort_values(
            ["count", "token"], ascending=[False, True], kind="stable"
        )
        # the "" total-count sentinel (when present) must not evict a real
        # token from its partition's local top-K
        return tot.head(top_k + (1 if _return_total else 0))

    cand = partitioned_groupby_map(
        partials, ["token"], local_topk, num_partitions
    ).to_pandas()
    if not len(cand) and "count" not in cand.columns:
        # a zero-row result comes back COLUMN-LESS: Ray's to_pandas builds
        # its frame from iter_batches, which yields nothing for zero-row
        # blocks (and all-filtered input runs no kernel) — restore the
        # planned schema
        cand = pd.DataFrame({
            "token": pd.Series(dtype=object),
            "count": pd.Series(dtype=np.int64),
            "doc_freq": pd.Series(dtype=np.int64),
        })
    total = 0
    if _return_total:
        sentinel = cand["token"] == ""
        total = int(cand[sentinel]["count"].sum())
        cand = cand[~sentinel]
    out = cand.sort_values(
        ["count", "token"], ascending=[False, True], kind="stable",
        ignore_index=True,
    ).head(top_k)
    out["rank"] = np.arange(len(out), dtype=np.int64)
    return (out, total) if _return_total else out


def bpe_merges(
    ds,
    text_col: str = "text",
    k: int = 30,
    vocab_cap: int = 1_000_000,
    num_partitions: int | None = None,
):
    """Learn the first ``k`` byte-pair-encoding merge rules from a corpus
    (Sennrich et al. 2016, ACL — ``learn_bpe``): start from characters,
    repeatedly merge the most frequent adjacent symbol pair. Returns a
    Dataset of ``(rank:int64, lhs:str, rhs:str, pair_count:int64)`` —
    merge ``rank`` is 0-based; ``pair_count`` is the pair's corpus
    frequency at the time it was chosen. Stops early if pairs run out.

    Exactly like reference BPE trainers, the corpus is touched ONCE: the
    :func:`build_vocab` combiner folds it to an exact (word, count)
    table (ASCII ``\\w+`` lowercase words — the shared tokenizer), and
    the merge loop runs on that bounded table only — never on documents.
    Pair frequencies are weighted by word count, adjacent occurrences
    count WITH overlap ("aaa" holds (a,a) twice), and a merge rewrites
    occurrences left-to-right non-overlapping ("aaa" → ("aa", "a")) —
    the reference semantics. Ties break deterministically by
    (count desc, lhs asc, rhs asc), so the rule sequence is unique
    and the result is bit-equal to any faithful sequential
    implementation (golden oracle: scripts/gen_expected.bpe_expected).

    Scale contract: driver state is the distinct-word table (≤
    ``vocab_cap`` rows of short strings — the same bounded-driver-state
    policy as :func:`unigram_lm_score`'s broadcast model); each
    iteration's pair count is one vectorized pandas groupby over the
    flattened symbol stream, and only words containing the chosen pair
    are rewritten."""
    import ray.data as rd

    vocab = build_vocab(
        ds, text_col, top_k=vocab_cap + 1, num_partitions=num_partitions
    )
    if len(vocab) > vocab_cap:
        raise ValueError(
            f"corpus has > vocab_cap={vocab_cap} distinct words; raise "
            "the cap knowingly or pre-filter the corpus"
        )

    empty = pd.DataFrame({
        "rank": pd.Series(dtype=np.int64),
        "lhs": pd.Series(dtype=object),
        "rhs": pd.Series(dtype=object),
        "pair_count": pd.Series(dtype=np.int64),
    })
    if not len(vocab):
        return rd.from_pandas(empty)

    words = [tuple(w) for w in vocab["token"].tolist()]
    wcnt = vocab["count"].to_numpy(np.int64)

    rules = []
    for rank in range(k):
        # flatten symbols once per iteration; adjacent pairs by offsets
        lens = np.fromiter((len(w) for w in words), np.int64, len(words))
        if not len(lens) or lens.max() < 2:
            break
        syms = np.empty(int(lens.sum()), dtype=object)
        pos = 0
        for w in words:
            syms[pos : pos + len(w)] = w
            pos += len(w)
        ends = np.cumsum(lens)
        # pair starts at j iff j+1 is still inside the same word, i.e. j
        # is not a word's last symbol (the final word's last symbol is
        # already outside the 0..len-2 range)
        within = np.ones(len(syms) - 1, dtype=bool)
        last = ends - 1
        within[last[last < len(syms) - 1]] = False
        j = np.nonzero(within)[0]
        if not len(j):
            break
        wid = np.searchsorted(ends, j, side="right")
        pdf = pd.DataFrame({
            "l": syms[j], "r": syms[j + 1], "w": wcnt[wid]
        })
        agg = pdf.groupby(["l", "r"], sort=False)["w"].sum().reset_index()
        agg = agg.sort_values(
            ["w", "l", "r"], ascending=[False, True, True], kind="stable"
        )
        best_l, best_r = str(agg.iloc[0]["l"]), str(agg.iloc[0]["r"])
        best_c = int(agg.iloc[0]["w"])
        rules.append((rank, best_l, best_r, best_c))
        merged = best_l + best_r
        # rewrite only affected words, left-to-right non-overlapping
        hit_words = np.unique(
            wid[(syms[j] == best_l) & (syms[j + 1] == best_r)]
        )
        for wi in hit_words:
            w = words[wi]
            out, i = [], 0
            while i < len(w):
                if (i + 1 < len(w) and w[i] == best_l
                        and w[i + 1] == best_r):
                    out.append(merged)
                    i += 2
                else:
                    out.append(w[i])
                    i += 1
            words[wi] = tuple(out)

    if not rules:
        return rd.from_pandas(empty)
    return rd.from_pandas(pd.DataFrame({
        "rank": pd.Series([r[0] for r in rules], dtype=np.int64),
        "lhs": [r[1] for r in rules],
        "rhs": [r[2] for r in rules],
        "pair_count": pd.Series([r[3] for r in rules], dtype=np.int64),
    }))


class _BpeEncoder:
    """Actor-pool stage: the merge-rule table is resolved ONCE per actor
    in ``__init__`` (plasma shared read) and a word → token-count memo
    persists across batches, so the per-word merge scan runs once per
    DISTINCT word per actor (bounded vocab), never per row."""

    def __init__(self, text_col, id_col, rules_ref):
        import ray

        self.text_col = text_col
        self.id_col = id_col
        rules = ray.get(rules_ref) if not isinstance(rules_ref, list) \
            else rules_ref
        self.rules = rules  # [(lhs, rhs), ...] in rank order
        self.memo: dict = {}

    def _tok_count(self, w: str) -> int:
        got = self.memo.get(w)
        if got is not None:
            return got
        s = list(w)
        # applying rules sequentially in rank order equals Sennrich's
        # min-rank iteration: a merge can never create a pair an
        # EARLIER rule matches (that symbol did not exist when the
        # earlier rule was learned)
        for lhs, rhs in self.rules:
            if lhs not in s:
                continue
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == lhs and s[i + 1] == rhs:
                    out.append(lhs + rhs)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            s = out
        n = len(s)
        self.memo[w] = n
        return n

    def __call__(self, tbl: pa.Table) -> pa.Table:
        words, n_words = word_stream(tbl.column(self.text_col))
        w_np = words.to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(w_np, return_inverse=True)
        per_uniq = np.fromiter(
            (self._tok_count(w) for w in uniq), np.int64, len(uniq)
        )
        per_word = per_uniq[inv]
        ends = np.cumsum(n_words)
        starts = ends - n_words
        tok = np.zeros(len(n_words), dtype=np.int64)
        nz = n_words > 0
        if per_word.size:
            csum = np.concatenate(([0], np.cumsum(per_word)))
            tok[nz] = csum[ends[nz]] - csum[starts[nz]]
        return pa.table({
            self.id_col: tbl.column(self.id_col),
            "n_words": pa.array(n_words, pa.int64()),
            "n_tokens": pa.array(tok, pa.int64()),
        })


def bpe_encode(
    ds,
    merges,
    text_col: str = "text",
    id_col: str = "doc_id",
    concurrency=(1, 8),
    batch_size: int = 4096,
):
    """Tokenize documents with a learned BPE merge table
    (:func:`bpe_merges` output — a Dataset or DataFrame of rank-ordered
    (lhs, rhs) rules) and emit per-document ``n_words`` / ``n_tokens``
    — the token-budget accounting a training-data pipeline runs before
    packing. Shuffle-free: the (tiny) rule table broadcasts via
    ``ray.put``; encoding is an actor pool whose word→count memo makes
    the merge scan O(distinct words), with per-document totals via one
    vectorized segmented sum. Exact integers; golden oracle
    (scripts/gen_expected.bpe_encode_expected)."""
    import ray

    if hasattr(merges, "to_pandas"):
        merges = merges.to_pandas()
    merges = merges.sort_values("rank", ignore_index=True)
    rules = list(zip(merges["lhs"].tolist(), merges["rhs"].tolist()))
    rules_ref = ray.put(rules)
    return ds.map_batches(
        _BpeEncoder,
        fn_constructor_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "rules_ref": rules_ref,
        },
        batch_format="pyarrow",
        **actor_pool_args(concurrency),
        batch_size=batch_size,
    )


class _UnigramScorer:
    """Actor-pool stage: broadcast unigram LM resolved once per actor; per
    batch, vectorized word→count mapping + segmented sums."""

    def __init__(self, text_col, id_col, counts_ref, total_n):
        import ray

        self.text_col = text_col
        self.id_col = id_col
        # {token: corpus count} for the top-K vocab — plasma shared read
        self.counts = ray.get(counts_ref) if not isinstance(
            counts_ref, dict
        ) else counts_ref
        self.ln_n = float(np.log(float(total_n))) if total_n else 0.0

    def __call__(self, tbl: pa.Table) -> pa.Table:
        words, n_words = word_stream(tbl.column(self.text_col))
        n_docs = tbl.num_rows
        w_np = words.to_numpy(zero_copy_only=False)
        cnt = pd.Series(w_np, dtype=object).map(self.counts)
        oov = cnt.isna().to_numpy()
        cnt_i = cnt.fillna(0).to_numpy(dtype=np.int64)
        # per-word logprob: ln(c_w) − ln N; OOV floor = −ln N (count 1)
        with np.errstate(divide="ignore"):
            logp = np.where(
                oov, -self.ln_n, np.log(cnt_i.astype(np.float64)) - self.ln_n
            )
        offsets = np.r_[0, np.cumsum(n_words)]
        nz = n_words > 0
        oov_count = np.zeros(n_docs, dtype=np.int64)
        vsum = np.zeros(n_docs, dtype=np.int64)
        lsum = np.zeros(n_docs, dtype=np.float64)
        if nz.any():
            starts = offsets[:-1][nz]
            oov_count[nz] = np.add.reduceat(oov.astype(np.int64), starts)
            vsum[nz] = np.add.reduceat(cnt_i, starts)
            lsum[nz] = np.add.reduceat(logp, starts)
        with np.errstate(invalid="ignore", divide="ignore"):
            oov_rate = np.where(
                nz, oov_count.astype(np.float64) / n_words, np.nan
            )
            logprob_mean = np.where(nz, lsum / n_words, np.nan)
            perplexity = np.where(nz, np.exp(-logprob_mean), np.nan)
        for name, arr, typ in [
            ("n_words", n_words, pa.int64()),
            ("oov_count", oov_count, pa.int64()),
            ("vocab_count_sum", vsum, pa.int64()),
            ("oov_rate", oov_rate, pa.float64()),
            ("logprob_mean", logprob_mean, pa.float64()),
            ("perplexity", perplexity, pa.float64()),
        ]:
            tbl = tbl.append_column(
                name, pa.array(arr, typ, from_pandas=True)
            )
        return tbl


def unigram_lm_score(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    top_k: int = 1000,
    num_partitions: int | None = None,
    concurrency=(1, 8),
    batch_size: int = 4096,
):
    """CCNet-style unigram language-model quality scoring (Wenzek et al.
    2020 filter corpora by LM perplexity; the unigram variant is the
    self-contained form).

    Fit: exact top-``top_k`` vocabulary (:func:`build_vocab` — combiner →
    hash-partition finish) plus one combiner pass for the total token count
    N. The model ({token: count}, N) is tiny and broadcast via ``ray.put``;
    the scoring pass is shuffle-free.

    Per document: ``n_words``, ``oov_count``, ``vocab_count_sum`` (Σ corpus
    counts of in-vocab words — integer-exact, the contract-checkable
    backbone), ``oov_rate``, and the float LM scores ``logprob_mean``
    (mean of ln c_w − ln N, OOV floored at −ln N) and ``perplexity`` =
    exp(−logprob_mean). Empty documents score NULL. The float columns are
    unit-tested against a sequential reference rather than SQL: numpy's
    SIMD ``log`` differs from DuckDB's libm ``ln`` by 1 ulp on ~20% of
    inputs, so a bit-exact SQL oracle over logs is not attainable.
    """
    import ray

    # ONE combiner pass yields both the top-K vocab and the corpus token
    # total (sentinel row through the same hash-partition finish) — no
    # separate counting pass over the corpus
    vocab, total_n = build_vocab(
        ds, text_col, top_k, num_partitions, _return_total=True
    )
    counts = dict(zip(vocab["token"], vocab["count"].astype(int)))
    counts_ref = ray.put(counts)
    return ds.map_batches(
        _UnigramScorer,
        fn_constructor_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "counts_ref": counts_ref,
            "total_n": total_n,
        },
        batch_format="pyarrow",
        **actor_pool_args(concurrency),
        batch_size=batch_size,
    )


def tfidf_top_terms(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    vocab_size: int = 1000,
    top_n: int = 3,
    num_partitions: int | None = None,
):
    """Distributed TF-IDF keyword extraction: the top-``top_n`` terms per
    document by tf·idf over a bounded vocabulary.

    Plan (two passes, the second shuffle-free):

    1. EXACT top-``vocab_size`` vocabulary with document frequencies via
       :func:`build_vocab`'s combiner plan (the vocabulary bound is what
       makes the broadcast feasible at 100 TB — a full open vocabulary
       would be another shuffle per doc).
    2. ``ray.put`` the (term → doc_freq) map once; ONE streaming scoring
       pass: per-batch tokenization, per-(doc, term) counts restricted to
       the vocabulary, smooth idf ``ln((1+N)/(1+df)) + 1`` (sklearn's
       smooth_idf formula — public), per-doc top-n by (tfidf desc, term
       asc). Each document lives in one row, so scoring never crosses
       batches and the stage streams with no exchange.

    Returns a Dataset of (id_col, term, tf, doc_freq, tfidf, rank).
    """
    import ray

    vocab = build_vocab(
        ds, text_col=text_col, top_k=vocab_size,
        num_partitions=num_partitions,
    )
    n_docs = ds.count()
    df_map = dict(
        zip(vocab["token"], vocab["doc_freq"].astype(np.int64))
    )
    vocab_ref = ray.put(df_map)

    def score(tbl: pa.Table) -> pa.Table:
        dfm = ray.get(vocab_ref)
        texts = tbl.column(text_col).to_pandas().fillna("")
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        toks: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = _WORD_RE.findall(t.lower())
            counts[i] = len(ws)
            toks.extend(ws)
        pdf = pd.DataFrame(
            {
                "doc": np.repeat(np.arange(len(texts)), counts),
                "term": np.array(toks, dtype=object),
            }
        )
        grp = (
            pdf.groupby(["doc", "term"], sort=False, observed=True)
            .size()
            .reset_index(name="tf")
        )
        dfv = grp["term"].map(dfm)
        grp = grp.loc[dfv.notna()].copy()
        grp["doc_freq"] = dfv.dropna().astype(np.int64).to_numpy()
        grp["tfidf"] = grp["tf"].to_numpy(np.float64) * (
            np.log(
                (1.0 + n_docs)
                / (1.0 + grp["doc_freq"].to_numpy(np.float64))
            )
            + 1.0
        )
        grp = grp.sort_values(
            ["doc", "tfidf", "term"],
            ascending=[True, False, True],
            kind="stable",
        )
        grp["rank"] = grp.groupby("doc", sort=False).cumcount()
        grp = grp[grp["rank"] < top_n]
        return pa.table(
            {
                id_col: pa.array(ids[grp["doc"].to_numpy()]),
                "term": pa.array(grp["term"].to_numpy(dtype=object)),
                "tf": pa.array(grp["tf"].to_numpy(np.int64)),
                "doc_freq": pa.array(grp["doc_freq"].to_numpy(np.int64)),
                "tfidf": pa.array(grp["tfidf"].to_numpy(np.float64)),
                "rank": pa.array(grp["rank"].to_numpy(np.int64)),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", batch_size=4096
    )


# normalization patterns — RE2 syntax, valid (and byte-identical in effect)
# for BOTH pyarrow.compute and DuckDB regexp_replace (probed on testdata)
URL_RE = r"https?://[^\s]+"
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_WS_RUN_RE = r"\s+"


# PII patterns (RE2 — identical engine in Arrow and DuckDB). Order matters:
# emails first (so their digit runs can't half-match as phones), then
# phones, then IPv4.
PII_EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+?\d[\d\-\s()]{6,}\d"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def redact_pii(
    ds,
    text_col: str = "text",
    out_col: str = "clean_text",
    batch_size: int = 4096,
):
    """PII scrubbing stage: redact emails → phone numbers → IPv4 addresses
    (``<EMAIL>``/``<PHONE>``/``<IP>``) and emit per-document match counts
    (``n_emails``/``n_phones``/``n_ips``) for curation audits.

    Pure Arrow RE2 kernels (count then replace, both C++), stateless
    task-pool stage. The replacement ORDER is part of the contract — the
    driver oracle replays the identical regexp_replace chain in DuckDB
    (same RE2 engine, byte-identical outputs); append new patterns at the
    END."""
    import pyarrow.compute as pc

    def fn(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(text_col)
        counts = {}
        for name, pat in (
            ("n_emails", PII_EMAIL_RE),
            ("n_phones", PII_PHONE_RE),
            ("n_ips", PII_IPV4_RE),
        ):
            counts[name] = pc.count_substring_regex(arr, pattern=pat)
            # count BEFORE each replace so later patterns see redacted text
            # exactly like the sequential SQL chain does
            arr = pc.replace_substring_regex(
                arr,
                pattern=pat,
                replacement={"n_emails": "<EMAIL>", "n_phones": "<PHONE>",
                             "n_ips": "<IP>"}[name],
            )
        tbl = tbl.append_column(out_col, arr)
        for name, c in counts.items():
            tbl = tbl.append_column(name, c.cast(pa.int64()))
        return tbl

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def normalize_text(
    ds,
    text_col: str = "text",
    out_col: str = "norm_text",
    lowercase: bool = True,
    mask_urls: bool = True,
    mask_emails: bool = True,
    collapse_whitespace: bool = True,
    batch_size: int = 4096,
):
    """Vectorized text normalization: lowercase → mask URLs (``<URL>``) →
    mask emails (``<EMAIL>``) → collapse whitespace runs → trim. Nulls pass
    through as null.

    Pure Arrow kernels (``pyarrow.compute`` RE2) over zero-copy batches — a
    stateless task-pool stage, no actor needed. The op order is part of the
    contract (the driver oracle replays the identical chain in DuckDB SQL);
    keep any new pattern appended to the END."""
    import pyarrow.compute as pc

    def fn(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(text_col)
        if lowercase:
            arr = pc.utf8_lower(arr)
        if mask_urls:
            arr = pc.replace_substring_regex(
                arr, pattern=URL_RE, replacement="<URL>"
            )
        if mask_emails:
            arr = pc.replace_substring_regex(
                arr, pattern=EMAIL_RE, replacement="<EMAIL>"
            )
        if collapse_whitespace:
            arr = pc.replace_substring_regex(
                arr, pattern=_WS_RUN_RE, replacement=" "
            )
            arr = pc.utf8_trim_whitespace(arr)
        return tbl.append_column(out_col, arr)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


class RepetitionStats:
    """Gopher/MassiveText-style within-document repetition measures
    (Rae et al. 2021, §A1.1) — the standard LLM training-data quality
    filters for repetitive documents:

    - ``dup_word_frac``:   1 − (#distinct words / #words)
    - ``top{n}gram_char_frac`` (n ∈ top_ns): max over word n-grams of
      ``count × len(gram) / len(text)`` (tie-free reformulation of
      "fraction of characters in the most common n-gram")
    - ``dup{n}gram_char_frac`` (n ∈ dup_ns): Σ over n-grams occurring
      more than once of ``count × len(gram) / len(text)``

    Actor-pool stage; per batch the grams of ALL docs are counted in one
    pandas groupby (C hash aggregation), never per-doc Python counting.
    Filter downstream with e.g. ``dup5gram_char_frac <= 0.30`` (the Gopher
    thresholds are published per measure)."""

    def __init__(self, text_col: str = "text", top_ns=(2, 3), dup_ns=(5,)):
        self.text_col = text_col
        self.top_ns = tuple(top_ns)
        self.dup_ns = tuple(dup_ns)
        self.word_re = _WORD_RE

    @staticmethod
    def _dedupe_per_seg(codes: np.ndarray, segs: np.ndarray):
        """Sort (seg, code) and keep first occurrences — returns
        (kept mask order-applied arrays): (codes_u, segs_u, counts_u) where
        counts_u is the multiplicity of each distinct (seg, code)."""
        order = np.lexsort((codes, segs))
        cs, ss = codes[order], segs[order]
        first = np.ones(len(cs), dtype=bool)
        first[1:] = (cs[1:] != cs[:-1]) | (ss[1:] != ss[:-1])
        idx = np.flatnonzero(first)
        counts = np.diff(np.r_[idx, len(cs)])
        return cs[idx], ss[idx], counts

    def _gram_metric(self, words, n_words, n, n_chars, want_top: bool):
        n_docs = len(n_words)
        out = np.zeros(n_docs, dtype=np.float64)
        grams, gcounts = flat_kgrams(words, n_words, n, pad_small=False)
        if len(grams) == 0:
            denom = np.maximum(n_chars, 1).astype(np.float64)
            return np.where(n_chars > 0, out / denom, 0.0)
        import pyarrow.compute as pc

        codes, uniques = pd.factorize(
            grams.to_numpy(zero_copy_only=False), sort=False
        )
        glen_all = pc.utf8_length(grams).to_numpy().astype(np.int64)
        glen_of_code = np.zeros(len(uniques), dtype=np.int64)
        glen_of_code[codes] = glen_all
        segs = np.repeat(np.arange(n_docs, dtype=np.int64), gcounts)
        cu, su, counts = self._dedupe_per_seg(codes.astype(np.int64), segs)
        val = counts * glen_of_code[cu]
        bounds = np.flatnonzero(np.r_[True, su[1:] != su[:-1]])
        if want_top:
            agg = np.maximum.reduceat(val, bounds)
        else:
            agg = np.add.reduceat(np.where(counts > 1, val, 0), bounds)
        out[su[bounds]] = agg.astype(np.float64)
        denom = np.maximum(n_chars, 1).astype(np.float64)
        return np.where(n_chars > 0, out / denom, 0.0)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = tbl.column(self.text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        n_docs = len(filled)
        n_chars = pc.utf8_length(filled).to_numpy().astype(np.int64)
        words, n_words = word_stream(filled)
        if n_docs and len(words):
            codes, _ = pd.factorize(
                words.to_numpy(zero_copy_only=False), sort=False
            )
            segs = np.repeat(np.arange(n_docs, dtype=np.int64), n_words)
            _, su, _ = self._dedupe_per_seg(codes.astype(np.int64), segs)
            nuniq = np.bincount(su, minlength=n_docs).astype(np.float64)
        else:
            nuniq = np.zeros(n_docs, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            dup_word = np.where(
                n_words > 0, 1.0 - nuniq / n_words, 0.0
            )
        tbl = tbl.append_column("dup_word_frac", pa.array(dup_word))
        for n in self.top_ns:
            tbl = tbl.append_column(
                f"top{n}gram_char_frac",
                pa.array(self._gram_metric(words, n_words, n, n_chars, True)),
            )
        for n in self.dup_ns:
            tbl = tbl.append_column(
                f"dup{n}gram_char_frac",
                pa.array(self._gram_metric(words, n_words, n, n_chars, False)),
            )
        return tbl


def pmi_bigrams(
    ds,
    text_col: str = "text",
    top_k: int = 200,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Pointwise mutual information of the corpus's top-K bigrams —
    the classic collocation-extraction signal (Church & Hanks 1990):
    ``pmi = ln( P(xy) / (P(x)·P(y)) )`` with ``P(xy) = c_xy / N_bigrams``
    and ``P(x) = c_x / N_tokens``. High-PMI bigrams are multiword units
    ("san francisco"); low-PMI high-count bigrams are boilerplate glue —
    both useful curation features.

    Motion: (1) exact top-K bigram counts + total via the build_vocab
    combiner (partial rows only, one small exchange); (2) ONE streaming
    pass counts the ≤ 2K candidate unigrams per block against a broadcast
    set plus a total-token sentinel; the driver folds ≤ blocks × 2K
    partial rows and evaluates PMI vectorized. Driver-bounded output
    (≤ top_k rows), like frequent_items.

    Float contract: every count is an exact int64 (< 2^53 as a double),
    and PMI is evaluated in the SAME operation order as the SQL oracle —
    ``(cnt/nb) / ((c1/n1) * (c2/n1))`` then one ln — so both engines hand
    identical arguments to the same libm."""
    import ray

    big, nb = build_vocab(
        ds, text_col=text_col, top_k=top_k, ngram=2,
        num_partitions=num_partitions, _return_total=True,
    )
    if not len(big) or nb == 0:
        return pd.DataFrame({
            "bigram": pd.Series([], dtype=object),
            "cnt": pd.Series([], dtype=np.int64),
            "pmi": pd.Series([], dtype=np.float64),
        })
    t1 = big["token"].str.split(" ", n=1).str[0]
    t2 = big["token"].str.split(" ", n=1).str[1]
    cand_ref = ray.put(set(t1) | set(t2))

    def count_candidates(tbl: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        words, _ = word_stream(tbl.column(text_col))
        w = pd.Series(words.to_numpy(zero_copy_only=False), dtype=object)
        vc = w[w.isin(cand)].value_counts()
        # "" sentinel (never a \w+ token) carries the block's total token
        # count — its fold gives the corpus N_tokens without another pass
        toks = np.r_[vc.index.to_numpy(object), np.array([""], object)]
        cnts = np.r_[vc.to_numpy().astype(np.int64), [len(w)]]
        return pa.table({
            "tok": pa.array(toks, pa.string()),
            "c": pa.array(cnts, pa.int64()),
        })

    parts = (
        ds.select_columns([text_col])
        .map_batches(count_candidates, batch_format="pyarrow")
        .to_pandas()
    )
    sent = parts["tok"] == ""
    n1 = int(parts.loc[sent, "c"].sum())
    uc = parts[~sent].groupby("tok")["c"].sum()
    c1 = uc.reindex(t1).to_numpy(np.int64).astype(np.float64)
    c2 = uc.reindex(t2).to_numpy(np.int64).astype(np.float64)
    cnt = big["count"].to_numpy(np.int64)
    # mirror the SQL operation order exactly (see docstring)
    pmi = np.log(
        (cnt.astype(np.float64) / np.float64(nb))
        / ((c1 / np.float64(n1)) * (c2 / np.float64(n1)))
    )
    return pd.DataFrame({
        "bigram": big["token"].to_numpy(object),
        "cnt": cnt,
        "pmi": pmi,
    })


class _BigramScorer:
    """Actor-pool stage: broadcast bigram + context LMs resolved once per
    actor; per batch one vectorized gram→count map + segmented sums."""

    def __init__(self, text_col, id_col, model_ref, vocab_v):
        import ray

        self.text_col = text_col
        self.id_col = id_col
        self.bi, self.ctx = (
            ray.get(model_ref) if not isinstance(model_ref, tuple)
            else model_ref
        )
        self.v = float(vocab_v)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        words, n_words = word_stream(tbl.column(self.text_col))
        grams, n_grams = flat_kgrams(words, n_words, 2, pad_small=False)
        n_docs = tbl.num_rows
        g_np = grams.to_numpy(zero_copy_only=False)
        c12 = (
            pd.Series(g_np, dtype=object).map(self.bi)
            .fillna(0).to_numpy(np.int64)
        )
        # context = first word of the gram — avoid re-tokenizing: the k-th
        # gram of a doc starts at the doc's k-th word
        w_np = words.to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.cumsum(n_words)][:-1]
        ctx_idx = _ramp(n_grams) + np.repeat(starts, n_grams)
        c1 = (
            pd.Series(w_np[ctx_idx] if len(ctx_idx) else [], dtype=object)
            .map(self.ctx).fillna(0).to_numpy(np.int64)
        )
        known = c12 > 0
        # Laplace-smoothed conditional: ln((c12 + 1) / (c1 + V))
        logp = np.log(
            (c12.astype(np.float64) + 1.0)
            / (c1.astype(np.float64) + self.v)
        )
        offsets = np.r_[0, np.cumsum(n_grams)]
        nz = n_grams > 0
        known_cnt = np.zeros(n_docs, np.int64)
        bsum = np.zeros(n_docs, np.int64)
        csum = np.zeros(n_docs, np.int64)
        lsum = np.zeros(n_docs, np.float64)
        if nz.any():
            s = offsets[:-1][nz]
            known_cnt[nz] = np.add.reduceat(known.astype(np.int64), s)
            bsum[nz] = np.add.reduceat(c12, s)
            csum[nz] = np.add.reduceat(c1, s)
            lsum[nz] = np.add.reduceat(logp, s)
        with np.errstate(invalid="ignore", divide="ignore"):
            known_rate = np.where(
                nz, known_cnt.astype(np.float64) / n_grams, np.nan
            )
            logprob_mean = np.where(nz, lsum / n_grams, np.nan)
        for name, arr, typ in [
            ("n_bigrams", n_grams, pa.int64()),
            ("known_bigrams", known_cnt, pa.int64()),
            ("bigram_count_sum", bsum, pa.int64()),
            ("ctx_count_sum", csum, pa.int64()),
            ("known_rate", known_rate, pa.float64()),
            ("bigram_logprob_mean", logprob_mean, pa.float64()),
        ]:
            tbl = tbl.append_column(
                name, pa.array(arr, typ, from_pandas=True)
            )
        return tbl


def bigram_lm_score(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    top_k: int = 1000,
    num_partitions: int | None = None,
    concurrency=(1, 8),
    batch_size: int = 4096,
):
    """Bigram language-model quality scoring — the order-2 upgrade of
    :func:`unigram_lm_score` (fluency filters react to word ORDER:
    shuffled boilerplate keeps its unigram score but craters the bigram
    one). Per document, over its consecutive word pairs:

    - ``n_bigrams``, ``known_bigrams`` (pairs in the top-``top_k`` bigram
      table), ``bigram_count_sum`` (Σ corpus pair counts),
      ``ctx_count_sum`` (Σ corpus counts of the CONTEXT word from the
      top-``top_k`` unigram table) — all integer-exact, the SQL-checkable
      backbone;
    - ``known_rate`` (one int/int IEEE division — bit-safe) and
      ``bigram_logprob_mean`` = mean ln((c₁₂+1)/(c₁+V)) with V =
      ``top_k`` (Laplace smoothing; unknown pairs/contexts count 0) —
      unit-tested vs a sequential reference (numpy SIMD log vs libm ln is
      the usual 1-ulp class).

    Fit: two combiner passes (exact top-K bigram and unigram tables via
    :func:`build_vocab` — both shrink to partial rows before their tiny
    exchange), broadcast once with ``ray.put``; the scoring pass is
    shuffle-free. Documents shorter than 2 words score NULL floats."""
    import ray

    bi = build_vocab(ds, text_col, top_k, num_partitions, ngram=2)
    uni = build_vocab(ds, text_col, top_k, num_partitions)
    model_ref = ray.put((
        dict(zip(bi["token"], bi["count"].astype(int))),
        dict(zip(uni["token"], uni["count"].astype(int))),
    ))
    return ds.map_batches(
        _BigramScorer,
        fn_constructor_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "model_ref": model_ref,
            "vocab_v": float(top_k),
        },
        batch_format="pyarrow",
        **actor_pool_args(concurrency),
        batch_size=batch_size,
    )


# --------------------------------------------------------------------- #
# Gopher-style quality filtering (Rae et al. 2021 §A1.1, integer subset)
# --------------------------------------------------------------------- #
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality_filter(
    ds,
    text_col: str = "text",
    min_words: int = 50,
    max_words: int = 100_000,
    min_mwl: int = 3,
    max_mwl: int = 10,
    alpha_num: int = 4,
    alpha_den: int = 5,
    min_stopwords: int = 2,
    stopwords: tuple = GOPHER_STOPWORDS,
):
    """Drop documents failing the Gopher repetition-free quality rules:
    word count in [min_words, max_words]; mean word length in
    [min_mwl, max_mwl]; fraction of words containing an alphabetic char
    ≥ alpha_num/alpha_den; at least ``min_stopwords`` hits from a small
    stopword list (Rae et al. 2021 Table A1's "stop word" rule).

    Exactness contract: every rule is INTEGER cross-multiplication over
    exact counts (``min_mwl·n ≤ chars ≤ max_mwl·n``,
    ``alpha_den·alpha ≥ alpha_num·n``) — no float ratio anywhere, so a
    SQL oracle states the rules verbatim. Surviving rows carry the count
    columns (n_words, word_chars, alpha_words, stop_words).

    Fully streaming: ONE stateless map_batches; tokenization is the
    shared Arrow RE2 ``word_stream`` kernel, per-document reductions are
    ``np.add.reduceat`` over the flat word stream — no per-document loop.
    """
    import pyarrow.compute as pc

    stop_arr = pa.array(list(stopwords))

    def score(tbl: pa.Table) -> pa.Table:
        words, counts = word_stream(tbl.column(text_col))
        off = np.r_[0, np.cumsum(counts)[:-1]]
        wlen = pc.utf8_length(words).to_numpy(zero_copy_only=False)
        alpha = pc.match_substring_regex(words, "[a-z]").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        stop = pc.is_in(words, value_set=stop_arr).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)

        def seg_sum(x: np.ndarray) -> np.ndarray:
            out = np.zeros(len(counts), dtype=np.int64)
            nz = counts > 0
            if x.size:
                sums = np.add.reduceat(x.astype(np.int64), off[nz])
                out[nz] = sums
            return out

        n = counts
        ch = seg_sum(wlen)
        aw = seg_sum(alpha)
        sw = seg_sum(stop)
        keep = (
            (n >= min_words)
            & (n <= max_words)
            & (min_mwl * n <= ch)
            & (ch <= max_mwl * n)
            & (alpha_den * aw >= alpha_num * n)
            & (sw >= min_stopwords)
        )
        for name, arr in (
            ("n_words", n), ("word_chars", ch),
            ("alpha_words", aw), ("stop_words", sw),
        ):
            tbl = tbl.append_column(name, pa.array(arr, pa.int64()))
        return tbl.filter(pa.array(keep))

    return ds.map_batches(score, batch_format="pyarrow")


def remove_boilerplate_tokens(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_fraction: float = 0.05,
    sep: str = " ",
    out_col: str = "text_clean",
    removed_col: str = "n_removed",
):
    """CCNet-style boilerplate removal, token-unit variant: drop every
    token whose corpus-wide occurrence count is ≥ ``ceil(min_fraction ·
    total_tokens)`` and reassemble the document (lossless ``sep``
    split/join — the same transform CCNet applies per LINE; the unit here
    is the ``sep``-delimited token so it composes with any upstream
    segmentation).

    Plan (both sides driver-bounded, NO shuffle):

    1. Frequent-token discovery via :func:`~recipys_ray.ops.frequent.
       frequent_items` — per-block Misra-Gries sketches over the streamed
       token explosion (the exploded column is never materialized as a
       whole; blocks flow straight into the sketch), then one exact
       verify pass. The candidate set is ≤ ``ceil(1/min_fraction)``
       items by the MG guarantee, so the broadcast is always tiny.
    2. ``ray.put`` the frequent set once; ONE streaming clean pass —
       Arrow split / ``is_in`` / filter / ``binary_join`` kernels rebuild
       every document of a batch in C++ (no per-row Python).

    Output appends ``out_col`` (NULL when the input text is NULL or every
    token was removed — mirroring SQL ``string_agg`` over an empty group)
    and ``removed_col`` (int64; NULL for NULL input). Empty-string tokens
    from repeated separators participate in counts like any token, so the
    split/join round-trip stays lossless.
    """
    import ray

    from recipys_ray.ops.frequent import frequent_items

    def explode(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        arr = tbl.column(text_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = pc.list_flatten(
            pc.split_pattern(pc.fill_null(arr, ""), sep)
        )
        return pa.table({"token": flat})

    tok_ds = ds.select_columns([text_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    freq = frequent_items(tok_ds, "token", min_fraction)
    stop = pa.array(
        np.asarray(freq["item"], dtype=object), pa.string()
    )
    stop_ref = ray.put(stop)

    def clean(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        stop_local = ray.get(stop_ref)  # zero-copy plasma read per task
        arr = tbl.column(text_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        isnull = pc.is_null(arr).to_numpy(zero_copy_only=False)
        parts = pc.split_pattern(pc.fill_null(arr, ""), sep)
        flat = pc.list_flatten(parts)
        parent = pc.list_parent_indices(parts).to_numpy()
        keep = pc.invert(pc.is_in(flat, value_set=stop_local))
        knp = keep.to_numpy(zero_copy_only=False)
        n = len(tbl)
        total = pc.list_value_length(parts).to_numpy().astype(np.int64)
        kept_n = np.bincount(parent[knp], minlength=n).astype(np.int64)
        offsets = np.r_[0, np.cumsum(kept_n)]
        la = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat.filter(keep)
        )
        joined = pc.binary_join(la, sep)
        out_null = isnull | (kept_n == 0)
        res = pc.if_else(
            pa.array(out_null), pa.scalar(None, pa.string()), joined
        )
        removed = pa.array(total - kept_n, pa.int64(), mask=isnull)
        tbl = tbl.append_column(out_col, res)
        return tbl.append_column(removed_col, removed)

    return ds.map_batches(clean, batch_format="pyarrow")


def doc_term_counts(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    vocab_size: int = 1000,
    num_partitions: int | None = None,
):
    """Bounded-vocabulary document-term matrix in LONG form: one
    ``(id, token, n)`` row per (document, vocabulary term) occurrence
    count — the CountVectorizer-over-a-capped-vocabulary featurizer
    (pair with :func:`~recipys_ray.ops.encode.feature_hash` for the
    unbounded hashing-trick variant).

    Plan mirrors :func:`tfidf_top_terms`: EXACT top-``vocab_size``
    vocabulary via :func:`build_vocab`'s combiner (ties broken count
    desc, token asc — deterministic), broadcast once with ``ray.put``,
    then ONE streaming counting pass (tokenize via the Arrow RE2
    ``word_stream``, restrict to the vocabulary, one vectorized
    groupby-size per batch). Each document lives in one row, so counts
    never cross batches and the stage needs no exchange.
    """
    import ray

    vocab = build_vocab(
        ds, text_col=text_col, top_k=vocab_size,
        num_partitions=num_partitions,
    )
    vref = ray.put(set(vocab["token"]))

    def count(tbl: pa.Table) -> pa.Table:
        vs = ray.get(vref)
        words, counts = word_stream(tbl.column(text_col))
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame({
            "__id__": np.repeat(ids, counts),
            "token": words.to_numpy(zero_copy_only=False),
        })
        pdf = pdf[pdf["token"].isin(vs)]
        grp = (
            pdf.groupby(["__id__", "token"], sort=False, observed=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table({
            id_col: pa.array(grp["__id__"].to_numpy()),
            "token": pa.array(
                grp["token"].to_numpy(object), pa.string()
            ),
            "n": pa.array(grp["n"].to_numpy(np.int64), pa.int64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        count, batch_format="pyarrow"
    )


def pattern_counts(
    ds,
    text_col: str = "text",
    patterns: dict[str, str] | None = None,
):
    """Multi-regex count features: for each named pattern, append an int64
    column with the number of NON-OVERLAPPING matches per document (the
    signal family behind URL/email/digit-density quality filters). One
    Arrow RE2 ``count_substring_regex`` C++ kernel per pattern per batch
    — stateless streaming, no Python per row, no exchange. NULL text
    yields NULL counts (SQL ``len(regexp_extract_all(NULL, p))``).

    RE2 on both sides (Arrow and DuckDB) finds leftmost non-overlapping
    matches identically, so counts are exact integers in any engine.
    """
    import pyarrow.compute as pc

    if not patterns:
        raise ValueError("patterns must be a non-empty {name: regex} dict")
    items = list(patterns.items())

    def count(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(text_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        isnull = pc.is_null(arr).to_numpy(zero_copy_only=False)
        filled = pc.fill_null(arr, "")
        for name, pat in items:
            c = pc.count_substring_regex(filled, pat)
            c64 = pa.array(
                c.to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64(), mask=isnull,
            )
            tbl = tbl.append_column(name, c64)
        return tbl

    return ds.map_batches(count, batch_format="pyarrow")


def compression_ratio(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    level: int = 6,
    bytes_col: str = "n_bytes",
    comp_col: str = "n_comp",
    ratio_col: str = "comp_ratio",
):
    """zlib compression-ratio quality proxy (the RedPajama/Dolma-family
    "compressibility" signal): highly repetitive machine-generated text
    compresses far below natural prose, so a low ratio flags boilerplate
    and a ratio near 1 flags high-entropy noise.

    Appends ``bytes_col`` (UTF-8 byte length), ``comp_col``
    (``len(zlib.compress(utf8, level))``) and ``ratio_col``
    (``comp/bytes`` as one IEEE division; NULL for NULL or empty text).
    zlib is called once per document — a C call on the document bytes,
    the legitimate per-row exception (like model inference); everything
    around it is array-level. Stateless streaming, no exchange.

    Determinism: stdlib zlib at a fixed level is deterministic for a
    given zlib build; the golden oracle (scripts/gen_expected.py) is
    regenerated in the same environment, mirroring the repo's other
    environment-tied goldens.
    """
    import zlib

    import pyarrow.compute as pc

    def score(tbl: pa.Table) -> pa.Table:
        arr = tbl.column(text_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        isnull = pc.is_null(arr).to_numpy(zero_copy_only=False)
        texts = pc.fill_null(arr, "").to_pylist()
        nb = np.empty(len(texts), dtype=np.int64)
        nc = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            raw = t.encode("utf-8")
            nb[i] = len(raw)
            nc[i] = len(zlib.compress(raw, level))
        empty = isnull | (nb == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = nc.astype(np.float64) / nb.astype(np.float64)
        tbl = tbl.append_column(
            bytes_col, pa.array(nb, pa.int64(), mask=isnull)
        )
        tbl = tbl.append_column(
            comp_col, pa.array(nc, pa.int64(), mask=isnull)
        )
        return tbl.append_column(
            ratio_col, pa.array(ratio, pa.float64(), mask=empty)
        )

    return ds.map_batches(score, batch_format="pyarrow")


def source_similarity(
    ds,
    group_col: str = "source",
    text_col: str = "text",
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Pairwise vocabulary Jaccard between corpus segments (sources,
    languages, snapshots): ``|vocab_a ∩ vocab_b| / |vocab_a ∪ vocab_b|``
    over the \\w+ lowercase token sets — the corpus-composition audit
    that flags near-identical sources before mixing weights are chosen.

    Plan: each block emits its DISTINCT ``(group, token)`` pairs (one
    vectorized drop_duplicates — never raw tokens); pairs hash-partition
    by TOKEN, so each partition sees every group of its tokens and emits
    exact partial rows: per-token group-pair co-occurrence counts and
    per-group distinct-token counts. The driver folds ≤ partitions·k²
    partial rows (k = #groups — segments, not documents, so tiny by
    construction). Exact integer counts; Jaccard is one division.

    Returns a driver DataFrame (k² rows): group_a, group_b (group_a <
    group_b, only pairs sharing ≥ 1 token — SQL inner join), n_common,
    jaccard.
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def pairs(tbl: pa.Table) -> pa.Table:
        words, counts = word_stream(tbl.column(text_col))
        grp = tbl.column(group_col).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame({
            "g": np.repeat(grp, counts),
            "token": words.to_numpy(zero_copy_only=False),
        }).drop_duplicates()
        # null groups can't order within a pair (SQL a.g < b.g drops them)
        pdf = pdf.dropna(subset=["g"])
        return pa.table({
            "g": pa.array(pdf["g"].to_numpy(object), pa.string()),
            "token": pa.array(pdf["token"].to_numpy(object), pa.string()),
        })

    parts = ds.select_columns([group_col, text_col]).map_batches(
        pairs, batch_format="pyarrow"
    )

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.drop_duplicates()  # cross-block duplicates
        if not len(pdf):
            return pd.DataFrame({
                "g_a": pd.Series([], dtype=object),
                "g_b": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
            })
        m = pdf.merge(pdf, on="token")
        m = m[m["g_x"] < m["g_y"]]
        pair = (
            m.groupby(["g_x", "g_y"], sort=False, observed=True)
            .size()
            .reset_index(name="n")
            .rename(columns={"g_x": "g_a", "g_y": "g_b"})
        )
        sizes = (
            pdf.groupby("g", sort=False, observed=True)
            .size()
            .reset_index(name="n")
            .rename(columns={"g": "g_a"})
        )
        sizes["g_b"] = None
        out = pd.concat(
            [pair, sizes[["g_a", "g_b", "n"]]], ignore_index=True
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    partial = partitioned_groupby_map(
        parts, ["token"], per_partition,
        num_partitions=num_partitions,
    ).to_pandas()
    sizes = (
        partial[partial["g_b"].isna()]
        .groupby("g_a")["n"].sum()
    )
    pair = (
        partial[partial["g_b"].notna()]
        .groupby(["g_a", "g_b"])["n"].sum()
        .reset_index(name="n_common")
    )
    na = pair["g_a"].map(sizes).to_numpy(np.int64)
    nb = pair["g_b"].map(sizes).to_numpy(np.int64)
    common = pair["n_common"].to_numpy(np.int64)
    pair["jaccard"] = common.astype(np.float64) / (
        na + nb - common
    ).astype(np.float64)
    pair = pair.rename(columns={"g_a": "group_a", "g_b": "group_b"})
    return (
        pair.sort_values(["group_a", "group_b"], kind="stable")
        .reset_index(drop=True)
    )


def top_tokens_per_source(
    ds,
    group_col: str = "source",
    text_col: str = "text",
    k: int = 10,
    num_partitions: int | None = None,
):
    """Exact top-``k`` tokens per corpus segment by term frequency (ties
    broken token-ascending) — the per-source vocabulary profile behind
    mixture audits and source-specific stopword lists.

    Combiner shape: each block shrinks to its distinct ``(group, token,
    count)`` partial rows (one vectorized groupby-size over the Arrow RE2
    word stream — never raw tokens); partials hash-partition by GROUP, so
    one partition totals a segment's whole vocabulary and ranks it in one
    vectorized sort. Exact because every (group, token) pair lives in
    exactly one partition. Output: group_col, token, cnt (int64), rnk
    (1-based int64).
    """
    from recipys_ray.kernels.grouped import partitioned_groupby_map

    def partial(tbl: pa.Table) -> pa.Table:
        words, counts = word_stream(tbl.column(text_col))
        grp = tbl.column(group_col).to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame({
            group_col: np.repeat(grp, counts),
            "token": words.to_numpy(zero_copy_only=False),
        })
        out = (
            pdf.groupby([group_col, "token"], sort=False, dropna=False,
                        observed=True)
            .size()
            .reset_index(name="cnt")
        )
        out["cnt"] = out["cnt"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.select_columns([group_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = (
            pdf.groupby([group_col, "token"], sort=False, dropna=False,
                        observed=True)["cnt"]
            .sum()
            .reset_index()
        )
        tot = tot.sort_values(
            [group_col, "cnt", "token"], kind="stable",
            ascending=[True, False, True],
        )
        rnk = (
            tot.groupby(group_col, sort=False, dropna=False,
                        observed=True)
            .cumcount()
            .to_numpy(np.int64)
            + 1
        )
        tot["rnk"] = rnk
        tot = tot[tot["rnk"] <= k]
        tot["cnt"] = tot["cnt"].astype(np.int64)
        return tot.reset_index(drop=True)

    return partitioned_groupby_map(
        parts, [group_col], finish, num_partitions=num_partitions
    )


def readability_scores(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    grade_col: str = "fk_grade",
):
    """Flesch–Kincaid-style readability grade per document — a standard
    text-quality feature for corpus filtering (alongside
    :func:`gopher_quality_filter` / ``text_features``).

    Heuristics (all RE2 kernels, identical semantics to the DuckDB
    restatement — verified per-construct):

    - words      = ``len(string_split(text, ' '))``  (empty text → 1)
    - syllables  = count of vowel-group runs ``[aeiouy]+`` in the
      lowercased text (``count_substring_regex`` ≡
      ``len(regexp_extract_all(...))`` — both RE2, leftmost-longest
      non-overlapping)
    - sentences  = terminal-punctuation boundaries ``[.!?]+[ ]`` + 1

        grade = (0.39·(words/sentences) + 11.8·(syllables/words)) − 15.59

    Integer counts → each division/multiply/add is a single IEEE op in
    the stated order — bit-equal to the SQL expression. Stateless
    vectorized map, no shuffle, no state."""
    import pyarrow.compute as pc

    def fn(tbl: pa.Table) -> pa.Table:
        texts = pc.fill_null(tbl.column(text_col), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        w = pc.list_value_length(
            pc.split_pattern(texts, " ")
        ).to_numpy().astype(np.int64)
        syll = pc.count_substring_regex(
            pc.utf8_lower(texts), "[aeiouy]+"
        ).to_numpy().astype(np.int64)
        sent = (
            pc.count_substring_regex(texts, "[.!?]+[ ]")
            .to_numpy()
            .astype(np.int64)
            + 1
        )
        wf = w.astype(np.float64)
        grade = (
            0.39 * (wf / sent.astype(np.float64))
            + 11.8 * (syll.astype(np.float64) / wf)
        ) - 15.59
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "n_words": pa.array(w, pa.int64()),
                "n_syllables": pa.array(syll, pa.int64()),
                "n_sentences": pa.array(sent, pa.int64()),
                grade_col: pa.array(grade, pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")
