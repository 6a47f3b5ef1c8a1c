"""Unit tests for the training-data ops: dedup family, similarity search,
text analysis, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from recipys_ray.ops.dedup import (
    embedding_dedup,
    exact_dedup,
    minhash_candidate_pairs,
    minhash_dedup,
    ngram_jaccard,
    simhash_dedup,
    verify_pairs_jaccard,
)
from recipys_ray.ops.multimodal import (
    ByteHistogramFeatures,
    DecodeImage,
    SampleFrames,
    decode_images,
)
from recipys_ray.ops.similarity import knn_brute_force, knn_ivf
from recipys_ray.ops.text import TextFeaturizer, text_features


def docs_with_dups():
    base = [
        "the quick brown fox jumps over the lazy dog again and again while "
        "the patient cat watches from the warm windowsill counting birds "
        "and dreaming of dinner in the golden afternoon light of autumn",
        "completely different text about ray data pipelines and arrow",
        "a third document mentioning streaming shuffles and backpressure",
    ]
    rows = []
    i = 0
    for b in base:
        for rep in range(3):  # 3 exact copies each
            rows.append({"doc_id": i, "text": b})
            i += 1
    # near-dup of doc 0 (one word changed)
    rows.append({"doc_id": i, "text": base[0].replace("lazy", "sleepy")})
    i += 1
    # unique doc
    rows.append({"doc_id": i, "text": "entirely unrelated content here xyz"})
    return pd.DataFrame(rows)


class TestDedup:
    def test_exact(self):
        pdf = docs_with_dups()
        out = exact_dedup(rd.from_pandas(pdf)).to_pandas()
        # 3 groups of 3 + 2 singletons = 5 survivors
        assert len(out) == 5
        assert sorted(out["n_dups"]) == [1, 1, 3, 3, 3]
        # min doc_id survives
        assert 0 in out["doc_id"].values

    def test_minhash_pairs_and_dedup(self):
        pdf = docs_with_dups()
        ds = rd.from_pandas(pdf)
        pairs = minhash_candidate_pairs(ds).to_pandas()
        pairset = {tuple(sorted(p)) for p in zip(pairs["a"], pairs["b"])}
        # exact copies collide; near-dup of doc 0 should collide too
        assert (0, 1) in pairset or (0, 2) in pairset
        assert any(9 in p for p in pairset)  # the near-dup doc
        out = minhash_dedup(ds).to_pandas()
        assert len(out) < len(pdf)
        assert 0 in out["doc_id"].values  # min-id representative survives

    def test_jaccard_verify(self):
        a = "the quick brown fox jumps over the lazy dog"
        b = "the quick brown fox jumps over the sleepy dog"
        c = "unrelated words entirely"
        assert ngram_jaccard(a, a) == 1.0
        assert ngram_jaccard(a, b) > 0.4
        assert ngram_jaccard(a, c) == 0.0
        pdf = docs_with_dups()
        ds = rd.from_pandas(pdf)
        pairs = pd.DataFrame({"a": [0, 0], "b": [1, 12]})
        kept = verify_pairs_jaccard(ds, pairs, threshold=0.5)
        assert (0, 1) in set(zip(kept["a"], kept["b"]))  # exact dup kept
        assert (0, 12) not in set(zip(kept["a"], kept["b"]))  # unrelated

    def test_simhash(self):
        pdf = docs_with_dups()
        out = simhash_dedup(rd.from_pandas(pdf)).to_pandas()
        assert len(out) <= 5 + 1  # exact copies definitely collapse

    def test_distributed_losers_match_driver_path(self):
        """Forcing max_driver_pairs=0 exercises the distributed min-label
        components + Bloom/anti-join path end-to-end; survivors must be
        IDENTICAL to the driver union-find path."""
        pdf = docs_with_dups()
        ds = rd.from_pandas(pdf)
        small = minhash_dedup(ds).to_pandas()
        big = minhash_dedup(ds, max_driver_pairs=0).to_pandas()
        assert sorted(big["doc_id"]) == sorted(small["doc_id"])
        small_s = simhash_dedup(ds).to_pandas()
        big_s = simhash_dedup(ds, max_driver_pairs=0).to_pandas()
        assert sorted(big_s["doc_id"]) == sorted(small_s["doc_id"])

    def test_exact_dedup_hash_collision(self):
        """Two distinct texts forced into one hash bucket must NOT merge:
        duplicate identity is the text value, the hash only routes."""
        from recipys_ray.ops import dedup as dd

        pdf = pd.DataFrame(
            {"doc_id": [0, 1, 2], "text": ["aaa", "bbb", "aaa"]}
        )

        class CollidingHash(dd._ContentHash):
            def __call__(self, tbl):
                out = super().__call__(tbl)
                i = out.column_names.index("__content_hash__")
                const = pa.array(np.zeros(len(out), dtype=np.int64))
                return out.set_column(i, "__content_hash__", const)

        orig = dd._ContentHash
        dd._ContentHash = CollidingHash
        try:
            out = exact_dedup(rd.from_pandas(pdf)).to_pandas()
        finally:
            dd._ContentHash = orig
        assert sorted(out["doc_id"]) == [0, 1]
        assert sorted(out["n_dups"]) == [1, 2]

    def test_embedding_dedup(self):
        rng = np.random.RandomState(0)
        base = rng.normal(size=(10, 16)).astype(np.float32)
        emb = np.vstack([base, base[:3] + 1e-4])  # 3 near-exact dups
        pdf = pd.DataFrame(
            {"vec_id": np.arange(13), "embedding": list(emb)}
        )
        out = embedding_dedup(rd.from_pandas(pdf), threshold=0.999).to_pandas()
        assert len(out) == 10
        assert set(range(10)) == set(out["vec_id"])

    def test_embedding_dedup_exact_matches_lsh_on_planted(self):
        """The exact all-pairs op is the correctness oracle for the LSH
        path: on planted near-exact dups both must find the same
        survivors (LSH can only differ on borderline-threshold pairs)."""
        from recipys_ray.ops.dedup import embedding_dedup_exact

        rng = np.random.RandomState(3)
        base = rng.normal(size=(30, 16)).astype(np.float32)
        emb = np.vstack([base, base[:8] + 1e-4])
        pdf = pd.DataFrame({"vec_id": np.arange(38), "embedding": list(emb)})
        ds = rd.from_pandas(pdf)
        exact = embedding_dedup_exact(ds, threshold=0.999).to_pandas()
        lsh = embedding_dedup(ds, threshold=0.999).to_pandas()
        assert sorted(exact["vec_id"]) == sorted(range(30))
        assert sorted(lsh["vec_id"]) == sorted(exact["vec_id"])

    def test_popcount_swar(self):
        from recipys_ray.ops.dedup import _popcount_u64

        rng = np.random.RandomState(2)
        x = rng.randint(0, 2**63, size=1000, dtype=np.int64).astype(np.uint64)
        x[:4] = [0, 1, np.uint64(2**64 - 1), np.uint64(1) << np.uint64(63)]
        ref = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(1)
        np.testing.assert_array_equal(_popcount_u64(x), ref.astype(np.int64))

    def test_simhash_hot_bucket_bounded(self):
        """A pathological bucket of 10⁵ IDENTICAL docs must collapse via the
        O(n) identical-signature star — the old all-pairs Hamming would
        build an n×n temp (~80 GB at this size)."""
        n_hot = 100_000
        texts = ["copy paste boilerplate document body"] * n_hot + [
            "alpha unique first document",
            "totally different second text",
            "third unrelated content here",
        ]
        pdf = pd.DataFrame({
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts,
        })
        out = simhash_dedup(rd.from_pandas(pdf)).to_pandas()
        # min-id survivor of the hot group + the 3 (possibly merged) uniques
        assert 0 in out["doc_id"].values
        assert not set(range(1, n_hot)) & set(out["doc_id"])
        assert 1 <= len(out) <= 4

    def test_simhash_bucket_cap_recall_trade(self):
        """Above max_bucket_sigs the cross-signature pairs are capped, but
        exact-signature stars always emit; small caps must not crash."""
        pdf = docs_with_dups()
        ds = rd.from_pandas(pdf)
        uncapped = simhash_dedup(ds).to_pandas()
        capped = simhash_dedup(ds, max_bucket_sigs=2).to_pandas()
        # capping only SKIPS pairs → can only keep more survivors
        assert set(uncapped["doc_id"]) <= set(capped["doc_id"])

    def test_embedding_hot_bucket_bounded(self):
        """10⁴ byte-identical vectors collapse via the exact-dup star; the
        residual verification is chunked and capped."""
        rng = np.random.RandomState(7)
        base = rng.normal(size=(5, 16)).astype(np.float32)
        hot = np.repeat(base[:1], 10_000, axis=0)
        emb = np.vstack([hot, base[1:]])
        pdf = pd.DataFrame({
            "vec_id": np.arange(len(emb), dtype=np.int64),
            "embedding": list(emb),
        })
        out = embedding_dedup(
            rd.from_pandas(pdf), threshold=0.999, max_bucket_vecs=3
        ).to_pandas()
        assert 0 in out["vec_id"].values
        assert not set(range(1, 10_000)) & set(out["vec_id"])
        assert len(out) == 5  # the 4 distinct extras all survive


class TestSimilarity:
    def setup_method(self):
        rng = np.random.RandomState(1)
        self.emb = rng.normal(size=(200, 32)).astype(np.float32)
        self.pdf = pd.DataFrame(
            {"vec_id": np.arange(200), "embedding": list(self.emb)}
        )

    def _exact_numpy(self, Q, k):
        E = self.emb / np.linalg.norm(self.emb, axis=1, keepdims=True)
        Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        sims = E @ Qn.T
        return np.argsort(-sims, axis=0)[:k].T  # (q, k)

    def test_brute_force_matches_numpy(self):
        Q = self.emb[:3]
        res = knn_brute_force(rd.from_pandas(self.pdf), Q, k=5)
        expect = self._exact_numpy(Q, 5)
        for q in range(3):
            got = res[res["query_idx"] == q].sort_values("rank")["vec_id"]
            np.testing.assert_array_equal(got.to_numpy(), expect[q])

    def test_ivf_recalls_self(self):
        Q = self.emb[:3]
        res = knn_ivf(rd.from_pandas(self.pdf), Q, k=3, n_clusters=8,
                      nprobe=4, sample_size=200)
        for q in range(3):
            top = res[(res["query_idx"] == q) & (res["rank"] == 0)]
            assert top["vec_id"].iloc[0] == q  # self is its own NN


class TestText:
    def test_featurizer_values(self):
        tbl = pa.table(
            {
                "text": [
                    "The quick brown fox, and the lazy dog!",
                    "la maison est un endroit pour le chat",
                    "",
                ]
            }
        )
        out = TextFeaturizer()(tbl).to_pandas()
        assert out["n_words"].tolist() == [8, 8, 0]
        assert out["n_chars_calc"].tolist() == [38, 37, 0]
        assert out["token_count"][0] == 10  # 8 words + "," + "!"
        assert out["lang_pred"][0] == "en"
        assert out["lang_pred"][1] == "fr"
        assert out["lang_pred"][2] == "und"
        assert (out["quality_score"] >= 0).all() and (
            out["quality_score"] <= 1
        ).all()

    def test_fingerprint_stability(self):
        tbl = pa.table({"text": ["one two three four five"] * 2})
        out1 = TextFeaturizer()(tbl).to_pandas()
        out2 = TextFeaturizer()(tbl).to_pandas()
        assert out1["fingerprint"].tolist() == out2["fingerprint"].tolist()
        assert out1["fingerprint"][0] == out1["fingerprint"][1]

    def test_poly_hash_matches_duckdb(self):
        """The fingerprint poly-hash must be bit-identical to the DuckDB
        list_reduce recurrence used by the langid_quality oracle."""
        import duckdb

        from recipys_ray.ops.text import poly_hash

        strs = ["abc", "", "hello world", "a", "the quick brown fox", "zz9 !"]
        ours = poly_hash(strs)
        theirs = [
            duckdb.sql(
                "SELECT CASE WHEN len($s) = 0 THEN 0 ELSE list_reduce("
                "list_prepend(CAST(0 AS BIGINT), list_transform("
                "string_split($s, ''), c -> CAST(unicode(c) AS BIGINT))), "
                "(acc, c) -> (acc * 131 + c) % 2147483647) END",
                params={"s": s},
            ).fetchone()[0]
            for s in strs
        ]
        assert ours.tolist() == theirs

    def test_actor_pool_stage(self):
        pdf = pd.DataFrame({"doc_id": range(20), "text": ["hello world"] * 20})
        out = text_features(rd.from_pandas(pdf), concurrency=2).to_pandas()
        assert len(out) == 20
        assert (out["n_words"] == 2).all()

    def test_normalize_text(self):
        from recipys_ray.ops.text import normalize_text

        pdf = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "Visit HTTPS://Example.COM/path?q=1 NOW",
                    "mail Me at Bob.Smith+x@Mail-Host.org please",
                    "lots\t of   space\n\nhere ",
                    None,
                ],
            }
        )
        out = (
            normalize_text(rd.from_pandas(pdf))
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["norm_text"].tolist()[:3] == [
            "visit <URL> now",
            "mail me at <EMAIL> please",
            "lots of space here",
        ]
        assert out["norm_text"].isna().tolist() == [False, False, False, True]


class TestMultimodal:
    def payload_table(self):
        return pa.table(
            {
                "img_id": pa.array([1, 2, 3]),
                "image": pa.array(
                    [b"\x00\x01" * 100, b"\xff" * 50, None], pa.binary()
                ),
            }
        )

    def test_decode_fake(self):
        out = DecodeImage(binary_col="image")(self.payload_table()).to_pandas()
        assert out["img_bytes"].tolist() == [200, 50, 0]
        assert (out["img_width"] > 0).all()

    def test_decode_real_unknown_codec_flags_not_ok(self):
        # fake=False is now a REAL decoder (BMP/PPM); payloads in formats
        # that would need PIL/ffmpeg must flag decode_ok=False, not crash
        out = DecodeImage(binary_col="image", fake=False)(
            self.payload_table()
        ).to_pandas()
        assert not out["decode_ok"].any()
        assert out["img_width"].isna().all()

    def test_decode_pil_guarded_path(self):
        # Where PIL exists the compressed-codec fallback decodes for real;
        # in this sandbox (no PIL) the guard must leave decode_ok=False.
        pil = pytest.importorskip("PIL.Image", reason="PIL not installed")
        import io as _io

        im = pil.new("RGB", (8, 5), (10, 20, 30))
        buf = _io.BytesIO()
        im.save(buf, format="PNG")
        tbl = pa.table({"image": pa.array([buf.getvalue()], pa.binary())})
        out = DecodeImage(binary_col="image", fake=False)(tbl).to_pandas()
        assert out["decode_ok"].all()
        assert out["img_width"].tolist() == [8]
        assert out["img_height"].tolist() == [5]

    def test_sample_frames_real_with_ffmpeg(self):
        # real frame extraction runs only where ffmpeg exists on PATH
        import shutil

        if shutil.which("ffmpeg") is None:
            pytest.skip("ffmpeg not on PATH")
        import subprocess

        # 1-second synthetic test clip from ffmpeg itself
        clip = subprocess.run(
            ["ffmpeg", "-loglevel", "error", "-f", "lavfi", "-i",
             "testsrc=duration=1:size=64x48:rate=10", "-f", "mpegts",
             "pipe:1"],
            capture_output=True, check=True,
        ).stdout
        tbl = pa.table({"video": pa.array([clip], pa.binary())})
        out = SampleFrames("video", every_n=3, max_frames=2, fake=False)(tbl)
        assert out.num_rows >= 1
        assert out.column("frame_png")[0].as_py()[:4] == b"\x89PNG"

    def test_sample_frames_real_raises_without_ffmpeg(self):
        import shutil

        from recipys_ray.ops.multimodal import SampleFrames

        if shutil.which("ffmpeg") is not None:
            pytest.skip("ffmpeg present — covered by the real-path test")
        with pytest.raises(NotImplementedError, match="ffmpeg"):
            SampleFrames(binary_col="video", fake=False)

    def test_byte_histogram_real(self):
        out = ByteHistogramFeatures(binary_col="image")(
            self.payload_table()
        ).to_pandas()
        h0 = np.asarray(out["byte_hist"][0])
        np.testing.assert_allclose(h0[0], 1.0)  # all bytes in bins 0 (0x00/0x01)
        h1 = np.asarray(out["byte_hist"][1])
        np.testing.assert_allclose(h1[-1], 1.0)  # 0xff → last bin
        assert np.asarray(out["byte_hist"][2]).sum() == 0

    def test_frame_sampling_plumbing(self):
        out = SampleFrames(binary_col="image", every_n=1, max_frames=3)(
            self.payload_table()
        ).to_pandas()
        assert len(out) >= 3
        assert (out.groupby("img_id")["frame_no"].min() == 0).all()

    def test_actor_pool_decode_stage(self):
        ds = rd.from_arrow(self.payload_table())
        out = decode_images(ds, concurrency=2, batch_size=2).to_pandas()
        assert len(out) == 3


class TestDistributedComponents:
    def test_matches_union_find(self):
        rng = np.random.RandomState(3)
        # random graph over 60 nodes: a few chains + isolated pairs
        pairs = pd.DataFrame({
            "a": rng.randint(0, 60, size=80).astype(np.int64),
            "b": rng.randint(0, 60, size=80).astype(np.int64),
        })
        pairs = pairs[pairs["a"] != pairs["b"]].drop_duplicates()
        from recipys_ray.ops.dedup import (
            _connected_components,
            connected_components_distributed,
        )
        roots_uf = _connected_components(pairs)
        dist = connected_components_distributed(
            rd.from_pandas(pairs), num_partitions=4
        ).to_pandas()
        roots_dist = dict(zip(dist["node"], dist["root"]))
        # same partition structure: two nodes share a UF root iff they share
        # a propagated root
        nodes = sorted(set(pairs["a"]) | set(pairs["b"]))
        for x in nodes:
            for y in nodes:
                same_uf = roots_uf.get(x, x) == roots_uf.get(y, y)
                same_d = roots_dist.get(x, x) == roots_dist.get(y, y)
                assert same_uf == same_d, (x, y)

    def test_wrapper_routes_and_covers_all_nodes(self):
        # 0-1-2 chain, 5-6 pair, and min-node 0 never appears as a UF key —
        # the wrapper must still emit (0, 0) and roots = component minima
        pairs = pd.DataFrame({
            "a": np.array([1, 2, 5], dtype=np.int64),
            "b": np.array([0, 1, 6], dtype=np.int64),
        })
        from recipys_ray.ops.dedup import connected_components

        for cap in (10**6, 0):  # driver union-find route, distributed route
            out = (
                connected_components(rd.from_pandas(pairs), max_driver_pairs=cap)
                .to_pandas()
                .sort_values("node", ignore_index=True)
            )
            assert out["node"].tolist() == [0, 1, 2, 5, 6]
            assert out["root"].tolist() == [0, 0, 0, 5, 5]
            assert out["root"].dtype == np.int64

    def test_chain_graph_converges(self):
        # worst case for label prop: a path graph 0-1-2-...-15
        pairs = pd.DataFrame({
            "a": np.arange(15, dtype=np.int64),
            "b": np.arange(1, 16, dtype=np.int64),
        })
        out = connected_components_distributed = __import__(
            "recipys_ray.ops.dedup", fromlist=["connected_components_distributed"]
        ).connected_components_distributed(
            rd.from_pandas(pairs), num_partitions=2
        ).to_pandas()
        assert (out["root"] == 0).all()


class TestAsofJoin:
    def test_backward_basic(self):
        from recipys_ray.ops.asof import asof_join

        left = pd.DataFrame(
            {
                "k": [1, 1, 1, 2],
                "t": pd.to_datetime([10, 20, 30, 10], unit="m"),
                "lv": [1.0, 2.0, 3.0, 4.0],
            }
        )
        right = pd.DataFrame(
            {
                "k": [1, 1, 2],
                "t": pd.to_datetime([15, 25, 40], unit="m"),
                "rv": [100.0, 200.0, 300.0],
            }
        )
        out = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), on="t", by="k",
            num_partitions=4,
        ).to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
        # k=1: t10→none, t20→rv@15, t30→rv@25; k=2: t10→none
        assert np.isnan(out["rv"][0])
        assert out["rv"][1] == 100.0
        assert out["rv"][2] == 200.0
        assert np.isnan(out["rv"][3])

    def test_forward_and_tolerance(self):
        from recipys_ray.ops.asof import asof_join

        left = pd.DataFrame(
            {"k": [1, 1], "t": pd.to_datetime([10, 20], unit="m"),
             "lv": [1.0, 2.0]}
        )
        right = pd.DataFrame(
            {"k": [1, 1], "t": pd.to_datetime([12, 60], unit="m"),
             "rv": [5.0, 6.0]}
        )
        out = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), on="t", by="k",
            direction="forward", tolerance=pd.Timedelta("10m"),
            num_partitions=2,
        ).to_pandas().sort_values("t").reset_index(drop=True)
        assert out["rv"][0] == 5.0          # 10 → forward to 12 (within 10m)
        assert np.isnan(out["rv"][1])       # 20 → next is 60, beyond tolerance

    def test_collision_suffix(self):
        from recipys_ray.ops.asof import asof_join

        left = pd.DataFrame(
            {"k": [1], "t": pd.to_datetime([10], unit="m"), "v": [1.0]}
        )
        right = pd.DataFrame(
            {"k": [1], "t": pd.to_datetime([5], unit="m"), "v": [9.0]}
        )
        out = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), on="t", by="k",
            num_partitions=2,
        ).to_pandas()
        assert out["v"].iloc[0] == 1.0
        assert out["v_r"].iloc[0] == 9.0


class TestMultiProbe:
    def test_multiprobe_raises_recall(self):
        """Planted near-dup pairs at cosine ~0.992 (θ≈7°): single-probe
        hyperplane LSH misses a chunk of them ((1-θ/π)^12 ≈ 0.76 per
        pair); multi-probe must find at least as many and land closer to
        the exact all-pairs result."""
        from recipys_ray.ops.dedup import embedding_dedup, embedding_dedup_exact

        rng = np.random.RandomState(11)
        base = rng.normal(size=(150, 32)).astype(np.float64)
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        dups = base + rng.normal(scale=0.04, size=base.shape)  # ~0.99 cosine
        emb = np.vstack([base, dups]).astype(np.float32)
        pdf = pd.DataFrame({"vec_id": np.arange(len(emb)), "embedding": list(emb)})
        ds = rd.from_pandas(pdf)
        thr = 0.98
        exact = len(embedding_dedup_exact(ds, threshold=thr).to_pandas())
        single = len(
            embedding_dedup(ds, threshold=thr, n_probes=0).to_pandas()
        )
        multi = len(
            embedding_dedup(ds, threshold=thr, n_probes=4).to_pandas()
        )
        # fewer survivors = more true dups found; exact is the floor
        assert exact <= multi <= single
        assert multi < single  # multi-probe finds pairs single-probe missed
        assert (multi - exact) <= (single - exact) / 2  # closes >=half the gap


class TestJaccardDedup:
    def test_exact_matches_bruteforce(self):
        """jaccard_dedup must find EXACTLY the pairs a brute-force
        all-pairs shingle-set Jaccard finds (prefix filtering is lossless)."""
        from recipys_ray.ops.jaccard import jaccard_dedup

        pdf = docs_with_dups()
        thr = 0.6

        def shingles(t):
            ws = __import__("re").findall(r"\w+", t.lower())
            if len(ws) < 3:
                return {" ".join(ws)}
            return {" ".join(ws[i : i + 3]) for i in range(len(ws) - 2)}

        sets = {r.doc_id: shingles(r.text) for r in pdf.itertuples()}
        # brute-force union-find
        parent = {d: d for d in sets}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ids = sorted(sets)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                inter = len(sets[a] & sets[b])
                uni = len(sets[a] | sets[b])
                if uni and inter / uni >= thr:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        expect = sorted(d for d in ids if find(d) == d)

        out = jaccard_dedup(rd.from_pandas(pdf), threshold=thr).to_pandas()
        assert sorted(out["doc_id"]) == expect
        # the near-dup of doc 0 (one word changed, J≈0.93) must be dropped
        assert 9 not in out["doc_id"].values

    def test_common_shingle_demotion_stays_exact(self):
        """Demoting frequent shingles to the order's tail (smaller prefix
        buckets) must not change results — any fixed global order is
        correct."""
        from recipys_ray.ops.jaccard import jaccard_dedup

        pdf = docs_with_dups()
        a = jaccard_dedup(rd.from_pandas(pdf), threshold=0.6,
                          top_m=0).to_pandas()
        b = jaccard_dedup(rd.from_pandas(pdf), threshold=0.6,
                          top_m=20_000).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])

    def test_jaccard_broadcast_equals_join_path(self):
        """Forcing broadcast_bytes=0 exercises the co-partitioned join
        (100-TB) verification path; survivors must equal the broadcast
        fast path."""
        from recipys_ray.ops.jaccard import jaccard_dedup

        pdf = docs_with_dups()
        ds = rd.from_pandas(pdf)
        a = jaccard_dedup(ds, threshold=0.6).to_pandas()
        b = jaccard_dedup(ds, threshold=0.6, broadcast_bytes=0).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])


def docs_with_containment():
    """Corpus with a true-subset pair: doc 100 is a strict shingle-subset
    of doc 101 (same text plus a long suffix), plus the usual dup corpus."""
    pdf = docs_with_dups()
    small = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu")
    big = small + (" nu xi omicron pi rho sigma tau upsilon phi chi psi "
                   "omega one")
    extra = pd.DataFrame(
        {"doc_id": [100, 101], "text": [small, big]}
    )
    return pd.concat([pdf, extra], ignore_index=True)


def _brute_containment_survivors(pdf, thr):
    import re

    def shingles(t):
        ws = re.findall(r"\w+", t.lower())
        if len(ws) < 3:
            return {" ".join(ws)}
        return {" ".join(ws[i: i + 3]) for i in range(len(ws) - 2)}

    sets = {r.doc_id: shingles(r.text) for r in pdf.itertuples()}
    out = []
    for d, sd in sets.items():
        dropped = any(
            e != d
            and (len(se) > len(sd) or (len(se) == len(sd) and e < d))
            and len(sd & se) / len(sd) >= thr
            for e, se in sets.items()
        )
        if not dropped:
            out.append(d)
    return sorted(out)


class TestContainmentDedup:
    def test_matches_bruteforce_not_exists(self):
        """containment_dedup must drop exactly the docs a brute-force
        NOT-EXISTS (contained ≥ t in a larger / equal-smaller-id doc)
        drops — the asymmetric prefix filter is lossless."""
        from recipys_ray.ops.jaccard import containment_dedup

        pdf = docs_with_containment()
        thr = 0.7
        expect = _brute_containment_survivors(pdf, thr)
        out = containment_dedup(
            rd.from_pandas(pdf), threshold=thr
        ).to_pandas()
        assert sorted(out["doc_id"]) == expect
        # the strict subset doc is dropped, its superset survives
        assert 100 not in out["doc_id"].values
        assert 101 in out["doc_id"].values
        # exact copies: smaller id survives per tie-break
        assert 0 in out["doc_id"].values
        assert {1, 2}.isdisjoint(set(out["doc_id"]))

    def test_broadcast_equals_join_path(self):
        """broadcast_bytes=0 forces the co-partitioned verification route;
        survivors must match the broadcast fast path."""
        from recipys_ray.ops.jaccard import containment_dedup

        pdf = docs_with_containment()
        ds = rd.from_pandas(pdf)
        a = containment_dedup(ds, threshold=0.7).to_pandas()
        b = containment_dedup(
            ds, threshold=0.7, broadcast_bytes=0
        ).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])

    def test_demotion_and_partitions_invariant(self):
        from recipys_ray.ops.jaccard import containment_dedup

        pdf = docs_with_containment()
        ds = rd.from_pandas(pdf)
        base = sorted(
            containment_dedup(ds, threshold=0.7).to_pandas()["doc_id"]
        )
        no_demote = sorted(
            containment_dedup(ds, threshold=0.7, top_m=0)
            .to_pandas()["doc_id"]
        )
        parts64 = sorted(
            containment_dedup(ds, threshold=0.7, num_partitions=64)
            .to_pandas()["doc_id"]
        )
        assert base == no_demote == parts64

    def test_float_boundary_prefix_is_exact(self):
        """Set sizes where t·|S| lands on/near an integer (the ceil-ulp
        trap): survivors must still match brute force."""
        from recipys_ray.ops.jaccard import containment_dedup

        # doc sizes 10 and 20 with t=0.7 → m exactly 7 and 14
        words = [f"w{i}" for i in range(40)]
        rows = []
        # contained: first 12 words (10 shingles); container: 22 words
        rows.append({"doc_id": 0, "text": " ".join(words[:22])})
        rows.append({"doc_id": 1, "text": " ".join(words[:12])})
        # an unrelated doc
        rows.append({"doc_id": 2, "text": " ".join(words[25:40][::-1])})
        pdf = pd.DataFrame(rows)
        for thr in (0.5, 0.7, 0.8, 1.0):
            expect = _brute_containment_survivors(pdf, thr)
            out = containment_dedup(
                rd.from_pandas(pdf), threshold=thr
            ).to_pandas()
            assert sorted(out["doc_id"]) == expect, thr


class TestFuzzyDecontaminate:
    def _corpora(self):
        bench = pd.DataFrame({
            "doc_id": [0, 1],
            "text": [
                "what is the capital of france the answer is paris of course",
                "solve for x in two x plus three equals seven",
            ],
        })
        train = pd.DataFrame({
            "doc_id": [10, 11, 12, 13],
            "text": [
                # embeds bench 0 almost verbatim inside a longer page
                "quiz night recap what is the capital of france the answer "
                "is paris of course said nobody surprised",
                # shares only one stray trigram with bench 1
                "two x plus five is a different equation entirely about "
                "nothing in particular today",
                "entirely unrelated document about ray data pipelines",
                "solve for x in two x plus three equals seven",  # verbatim
            ],
        })
        return train, bench

    def _brute(self, train, bench, thr):
        import re

        def shingles(t):
            ws = re.findall(r"\w+", t.lower())
            if len(ws) < 3:
                return {" ".join(ws)}
            return {" ".join(ws[i: i + 3]) for i in range(len(ws) - 2)}

        bs = [shingles(t) for t in bench["text"]]
        keep = []
        for r in train.itertuples():
            sd = shingles(r.text)
            if not any(len(sd & sb) / len(sd) >= thr for sb in bs):
                keep.append(r.doc_id)
        return sorted(keep)

    def test_matches_bruteforce(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.jaccard import fuzzy_decontaminate

        train, bench = self._corpora()
        for thr in (0.3, 0.5, 0.9):
            expect = self._brute(train, bench, thr)
            out = fuzzy_decontaminate(
                rd.from_pandas(train), rd.from_pandas(bench), threshold=thr
            ).to_pandas()
            assert sorted(out["doc_id"]) == expect, thr
        # at 0.5: the embedded-answer doc and the verbatim copy are dropped,
        # the one-stray-trigram doc survives
        out = fuzzy_decontaminate(
            rd.from_pandas(train), rd.from_pandas(bench), threshold=0.5
        ).to_pandas()
        assert set(out["doc_id"]) == {11, 12}

    def test_route_invariance_and_negative_ids(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.jaccard import fuzzy_decontaminate

        train, bench = self._corpora()
        a = sorted(
            fuzzy_decontaminate(
                rd.from_pandas(train), rd.from_pandas(bench), threshold=0.5
            ).to_pandas()["doc_id"]
        )
        b = sorted(
            fuzzy_decontaminate(
                rd.from_pandas(train), rd.from_pandas(bench), threshold=0.5,
                broadcast_bytes=0,
            ).to_pandas()["doc_id"]
        )
        assert a == b
        bad = bench.assign(doc_id=[-1, 1])
        with pytest.raises(Exception, match="non-negative"):
            fuzzy_decontaminate(
                rd.from_pandas(train), rd.from_pandas(bad), threshold=0.5
            ).to_pandas()


class TestOverlapDedup:
    def test_matches_bruteforce_components(self):
        """overlap_dedup must keep exactly the min-id component survivors
        of the brute-force overlap-coefficient graph."""
        import re

        from recipys_ray.ops.jaccard import overlap_dedup

        pdf = docs_with_containment()
        thr = 0.8

        def shingles(t):
            ws = re.findall(r"\w+", t.lower())
            if len(ws) < 3:
                return {" ".join(ws)}
            return {" ".join(ws[i: i + 3]) for i in range(len(ws) - 2)}

        sets = {r.doc_id: shingles(r.text) for r in pdf.itertuples()}
        parent = {d: d for d in sets}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ids = sorted(sets)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                mn = min(len(sets[a]), len(sets[b]))
                if mn and len(sets[a] & sets[b]) / mn >= thr:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        expect = sorted(d for d in ids if find(d) == d)

        out = overlap_dedup(rd.from_pandas(pdf), threshold=thr).to_pandas()
        assert sorted(out["doc_id"]) == expect
        # the subset doc's overlap with its superset is 1.0 → same
        # component; min-id (100) survives, 101 is dropped
        assert 100 in out["doc_id"].values
        assert 101 not in out["doc_id"].values

    def test_route_and_partition_invariance(self):
        from recipys_ray.ops.jaccard import overlap_dedup

        pdf = docs_with_containment()
        ds = rd.from_pandas(pdf)
        a = sorted(overlap_dedup(ds, threshold=0.8).to_pandas()["doc_id"])
        b = sorted(
            overlap_dedup(ds, threshold=0.8, broadcast_bytes=0)
            .to_pandas()["doc_id"]
        )
        c = sorted(
            overlap_dedup(ds, threshold=0.8, num_partitions=64)
            .to_pandas()["doc_id"]
        )
        assert a == b == c


class TestWebDataset:
    def test_read_webdataset_tar_shards(self, tmp_path):
        """Two tar shards in the WebDataset layout round-trip into samples
        with binary payload + text metadata columns."""
        import io as _io
        import tarfile

        from recipys_ray.ops.multimodal import read_webdataset

        def make_shard(path, start):
            with tarfile.open(path, "w") as tf:
                for i in range(start, start + 3):
                    key = f"{i:06d}"
                    payload = bytes([i % 256]) * (10 + i)
                    for suffix, data in (
                        ("jpg", payload),
                        ("txt", f"caption {i}".encode()),
                    ):
                        info = tarfile.TarInfo(f"{key}.{suffix}")
                        info.size = len(data)
                        tf.addfile(info, _io.BytesIO(data))

        make_shard(str(tmp_path / "shard-000.tar"), 0)
        make_shard(str(tmp_path / "shard-001.tar"), 3)
        out = (
            read_webdataset(str(tmp_path))
            .to_pandas()
            .sort_values("__key__")
            .reset_index(drop=True)
        )
        assert len(out) == 6
        assert out["__key__"].tolist() == [f"{i:06d}" for i in range(6)]
        assert out["txt"].tolist() == [f"caption {i}" for i in range(6)]
        assert [len(b) for b in out["jpg"]] == [10 + i for i in range(6)]
        assert out["__shard__"].nunique() == 2


class TestVocab:
    def test_build_vocab_exact(self):
        from recipys_ray.ops.text import build_vocab

        pdf = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "the cat and the dog",
                    "the dog runs",
                    "a cat sleeps",
                ],
            }
        )
        out = build_vocab(rd.from_pandas(pdf), top_k=3)
        assert out["token"].tolist() == ["the", "cat", "dog"]
        assert out["count"].tolist() == [3, 2, 2]
        assert out["doc_freq"].tolist() == [2, 2, 2]
        assert out["rank"].tolist() == [0, 1, 2]

    def test_build_vocab_partition_invariant(self):
        from recipys_ray.ops.text import build_vocab

        pdf = docs_with_dups()
        a = build_vocab(rd.from_pandas(pdf), top_k=20, num_partitions=4)
        b = build_vocab(
            rd.from_pandas(pdf).repartition(6), top_k=20, num_partitions=64
        )
        pd.testing.assert_frame_equal(a, b)


class TestDecontaminate:
    def test_planted_overlap_flag_and_drop(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.decontaminate import decontaminate

        bench_txt = "alpha beta gamma delta epsilon zeta eta theta"
        docs = pd.DataFrame({
            "doc_id": range(6),
            "text": [
                "totally unrelated words here nothing shared at all",
                # contains a 5-gram of the benchmark
                "prefix alpha beta gamma delta epsilon suffix",
                "alpha beta gamma NOPE delta epsilon zeta",  # broken gram
                "",  # empty
                "short one",  # < n words, whole-text gram, no match
                bench_txt,  # the benchmark text itself
            ],
        })
        bench = pd.DataFrame({"doc_id": [99], "text": [bench_txt]})
        out = decontaminate(
            rd.from_pandas(docs), rd.from_pandas(bench),
            text_col="text", n=5, mode="flag",
        ).to_pandas().sort_values("doc_id")
        assert out["contaminated"].tolist() == [
            False, True, False, False, False, True
        ]
        kept = decontaminate(
            rd.from_pandas(docs), rd.from_pandas(bench),
            text_col="text", n=5, mode="drop",
        ).to_pandas()
        assert sorted(kept["doc_id"].tolist()) == [0, 2, 3, 4]
        assert "contaminated" not in kept.columns

    def test_benchmark_size_cap(self, ray_session):
        import pytest
        import ray.data as rd

        from recipys_ray.ops.decontaminate import decontaminate

        docs = pd.DataFrame({"doc_id": [0], "text": ["a b c d e f g"]})
        with pytest.raises(ValueError, match="max_benchmark_grams"):
            decontaminate(
                rd.from_pandas(docs), rd.from_pandas(docs),
                text_col="text", n=2, mode="flag",
                max_benchmark_grams=2,
            )


class TestRepetitionStats:
    def test_hand_computed(self):
        import pyarrow as pa

        from recipys_ray.ops.text import RepetitionStats

        # "a b a b a b": 6 words, 2 distinct -> dup_word = 1 - 2/6
        # 2-grams: "a b"×3 (len 3), "b a"×2 -> top2 = 3*3/11 chars
        # 5-grams: "a b a b a"×1, "b a b a b"×1 -> dup5 = 0
        t1 = "a b a b a b"
        # no repetition at all
        t2 = "one two three four five six"
        tbl = pa.table({"doc_id": [0, 1, 2], "text": [t1, t2, ""]})
        out = RepetitionStats("text", top_ns=(2,), dup_ns=(5,))(tbl)
        dup_word = out.column("dup_word_frac").to_pylist()
        top2 = out.column("top2gram_char_frac").to_pylist()
        dup5 = out.column("dup5gram_char_frac").to_pylist()
        assert abs(dup_word[0] - (1 - 2 / 6)) < 1e-15
        assert abs(top2[0] - 9 / len(t1)) < 1e-15
        assert dup5[0] == 0.0
        assert dup_word[1] == 0.0
        assert abs(top2[1] - len("three four") / len(t2)) < 1e-15
        assert dup_word[2] == 0.0 and top2[2] == 0.0 and dup5[2] == 0.0

    def test_dup_ngram_detects_repeats(self):
        import pyarrow as pa

        from recipys_ray.ops.text import RepetitionStats

        rep = "alpha beta gamma delta epsilon " * 4  # 5-gram repeated
        tbl = pa.table({"doc_id": [0], "text": [rep.strip()]})
        out = RepetitionStats("text", top_ns=(), dup_ns=(5,))(tbl)
        assert out.column("dup5gram_char_frac").to_pylist()[0] > 0.5


class TestHashSampling:
    def test_split_deterministic_and_partition_invariant(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.sampling import hash_split

        pdf = pd.DataFrame({"k": np.arange(5000, dtype=np.int64)})
        fr = {"train": 0.8, "val": 0.1, "test": 0.1}
        a = hash_split(rd.from_pandas(pdf), "k", fr).to_pandas()
        b = hash_split(
            rd.from_pandas(pdf).repartition(13), "k", fr
        ).to_pandas().sort_values("k", ignore_index=True)
        a = a.sort_values("k", ignore_index=True)
        pd.testing.assert_frame_equal(a, b)
        frac = a["split"].value_counts(normalize=True)
        assert abs(frac["train"] - 0.8) < 0.03
        assert abs(frac["val"] - 0.1) < 0.02

    def test_sample_subset_property(self, ray_session):
        """hash_sample(f1) ⊆ hash_sample(f2) for f1 < f2 — threshold
        sampling gives nested samples (the property RNG sampling lacks)."""
        import ray.data as rd

        from recipys_ray.ops.sampling import hash_sample

        pdf = pd.DataFrame({"k": np.arange(3000, dtype=np.int64)})
        small = set(
            hash_sample(rd.from_pandas(pdf), "k", 0.1).to_pandas()["k"]
        )
        big = set(
            hash_sample(rd.from_pandas(pdf), "k", 0.4).to_pandas()["k"]
        )
        assert small <= big
        assert 0.05 < len(small) / 3000 < 0.15

    def test_mix_rates_and_full_keep(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.sampling import mix_sources

        pdf = pd.DataFrame({
            "k": np.arange(4000, dtype=np.int64),
            "s": np.where(np.arange(4000) % 2 == 0, "keepall", "half"),
        })
        out = mix_sources(
            rd.from_pandas(pdf), "k", "s", {"keepall": 1.0, "half": 0.5}
        ).to_pandas()
        kept = out["s"].value_counts()
        assert kept["keepall"] == 2000  # rate 1.0 must keep every row
        assert 800 < kept["half"] < 1200


def test_profile_one_pass(ray_session):
    import ray.data as rd

    from recipys_ray.ops.profile import profile

    rng = np.random.default_rng(2)
    pdf = pd.DataFrame({
        "a": rng.normal(10, 2, 1000),
        "b": rng.integers(0, 5, 1000),
        "s": ["x"] * 1000,
    })
    pdf.loc[::10, "a"] = np.nan
    import pyarrow as pa

    out = profile(
        rd.from_arrow(pa.Table.from_pandas(pdf))
    ).set_index("column")
    assert out.loc["a", "nulls"] == 100
    assert out.loc["a", "rows_total"] == 1000
    np.testing.assert_allclose(
        out.loc["a", "mean"], np.nanmean(pdf["a"]), rtol=1e-12
    )
    np.testing.assert_allclose(
        out.loc["a", "q0.5"], np.nanmedian(pdf["a"]), rtol=0.05
    )
    assert out.loc["s", "dtype"] == "string"
    assert np.isnan(out.loc["s", "mean"])


class TestSemanticDedup:
    """SemDeDup (ops/semdedup.py): cluster-bounded greedy cosine dedup."""

    def _planted(self, seed=11, n=120, dim=16, dups=25):
        rng = np.random.default_rng(seed)
        base = rng.normal(0, 1, (n, dim))
        rows = [base]
        # near-copies of the first `dups` rows (tiny noise, cosine ~1)
        rows.append(base[:dups] + rng.normal(0, 1e-4, (dups, dim)))
        X = np.concatenate(rows)
        return pd.DataFrame({
            "vec_id": np.arange(len(X), dtype=np.int64),
            "embedding": list(X.astype(np.float32)),
        })

    def test_planted_duplicates_dropped(self, ray_session):
        from recipys_ray.ops.semdedup import semantic_dedup

        pdf = self._planted()
        out = semantic_dedup(
            rd.from_pandas(pdf), n_clusters=6, threshold=0.99,
        ).to_pandas()
        surv = set(out["vec_id"])
        # every planted copy (ids 120..144) has an earlier near-identical
        # original in the same cluster → dropped; originals all kept
        assert set(range(120)) <= surv
        assert not (surv & set(range(120, 145)))

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.semdedup import semantic_dedup

        pdf = self._planted(seed=29)
        a = semantic_dedup(
            rd.from_pandas(pdf).repartition(1), n_clusters=5, threshold=0.5
        ).to_pandas()
        shuffled = pdf.sample(frac=1.0, random_state=3).reset_index(drop=True)
        b = semantic_dedup(
            rd.from_pandas(shuffled).repartition(7), n_clusters=5,
            threshold=0.5,
        ).to_pandas()
        assert sorted(a["vec_id"]) == sorted(b["vec_id"])

    def test_greedy_mask_blocked_equals_naive(self):
        from recipys_ray.ops.semdedup import greedy_keep_mask
        from recipys_ray.ops.similarity import _normalize

        rng = np.random.default_rng(5)
        E = _normalize(rng.normal(0, 1, (300, 8)))
        blocked = greedy_keep_mask(E, 0.6, block=37)
        # naive per-pair greedy
        kept = []
        naive = np.ones(len(E), bool)
        for i in range(len(E)):
            if any(float(E[i] @ E[j]) >= 0.6 for j in kept):
                naive[i] = False
            else:
                kept.append(i)
        np.testing.assert_array_equal(blocked, naive)


class TestTfidf:
    def test_top_terms_basic_and_partition_invariant(self, ray_session):
        from recipys_ray.ops.text import tfidf_top_terms

        pdf = pd.DataFrame({
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "apple apple banana common common common",
                "banana banana cherry common common",
                "cherry apple common",
                "dates dates dates common",
                "apple banana cherry dates common",
                "common common common common",
            ],
        })
        out = tfidf_top_terms(
            rd.from_pandas(pdf), vocab_size=10, top_n=2
        ).to_pandas().sort_values(["doc_id", "rank"], ignore_index=True)
        # doc 0: 'apple' (tf=2, rare) must outrank 'common' (tf=3, ubiquitous)
        d0 = out[out.doc_id == 0]
        assert d0.iloc[0]["term"] == "apple"
        # doc 3: 'dates' tf=3 with df=2 dominates
        assert out[out.doc_id == 3].iloc[0]["term"] == "dates"
        # ranks are 0..top_n-1 per doc
        assert set(out["rank"]) == {0, 1}
        b = tfidf_top_terms(
            rd.from_pandas(pdf).repartition(4), vocab_size=10, top_n=2
        ).to_pandas().sort_values(["doc_id", "rank"], ignore_index=True)
        pd.testing.assert_frame_equal(out, b)


class TestTopKPerGroup:
    def test_matches_pandas_and_partition_invariant(self, ray_session):
        from recipys_ray.ops.topk import top_k_per_group

        rng = np.random.default_rng(13)
        pdf = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], 500),
            "id": np.arange(500, dtype=np.int64),
            "v": rng.integers(0, 50, 500).astype(np.int64),  # heavy ties
        })
        expect = (
            pdf.sort_values(["v", "id"], ascending=[False, True])
            .groupby("g", sort=False).head(7)
            .sort_values(["g", "v", "id"], ascending=[True, False, True],
                         ignore_index=True)
        )
        for parts in (1, 9):
            out = top_k_per_group(
                rd.from_pandas(pdf).repartition(parts), ["g"], "v", k=7,
                tie_cols=["id"],
            ).to_pandas().sort_values(
                ["g", "v", "id"], ascending=[True, False, True],
                ignore_index=True,
            )
            pd.testing.assert_frame_equal(
                out[["g", "id", "v"]], expect[["g", "id", "v"]]
            )
            # rank is the 0-based per-group position
            assert (
                out.groupby("g")["rank"].apply(
                    lambda s: list(s) == list(range(len(s)))
                ).all()
            )

    def test_ascending(self, ray_session):
        from recipys_ray.ops.topk import top_k_per_group

        pdf = pd.DataFrame({
            "g": ["x"] * 5, "id": np.arange(5, dtype=np.int64),
            "v": [5.0, 1.0, 3.0, 2.0, 4.0],
        })
        out = top_k_per_group(
            rd.from_pandas(pdf), ["g"], "v", k=2, descending=False,
            tie_cols=["id"],
        ).to_pandas().sort_values("rank", ignore_index=True)
        assert out["v"].tolist() == [1.0, 2.0]


class TestExactQuantiles:
    def _dd_disc(self, vals, q):
        import duckdb
        return duckdb.execute(
            f"SELECT quantile_disc(v, {q!r}) FROM (SELECT unnest(?) v)",
            [list(vals)],
        ).fetchone()[0]

    def test_matches_duckdb_with_nulls_and_rounds(self, ray_session):
        from recipys_ray.ops.quantiles import exact_quantiles

        rng = np.random.default_rng(3)
        v = rng.lognormal(3, 2, 20_000)
        v[rng.random(20_000) < 0.1] = np.nan
        pdf = pd.DataFrame({"x": v})
        qs = [0.01, 0.25, 0.5, 0.9, 0.999]
        # driver_cap=100, bins=8 → several refinement rounds
        out = exact_quantiles(
            rd.from_pandas(pdf).repartition(6), "x", qs,
            bins=8, driver_cap=100,
        )
        clean = v[~np.isnan(v)]
        for q, got in zip(out["q"], out["value"]):
            assert got == self._dd_disc(clean, q), q

    def test_hot_repeated_value_never_collected(self, ray_session):
        from recipys_ray.ops.quantiles import exact_quantiles

        # median is a value repeated far beyond driver_cap: the collapsed
        # bracket must resolve WITHOUT pulling the duplicates to the driver
        v = np.r_[np.full(50_000, 7.5), np.arange(100, dtype=np.float64)]
        out = exact_quantiles(
            rd.from_pandas(pd.DataFrame({"x": v})), "x", [0.5],
            bins=4, driver_cap=50,
        )
        assert out["value"].iloc[0] == 7.5

    def test_extremes_and_single_value(self, ray_session):
        from recipys_ray.ops.quantiles import exact_quantiles

        pdf = pd.DataFrame({"x": [42.0]})
        out = exact_quantiles(rd.from_pandas(pdf), "x", [0.25, 1.0])
        assert out["value"].tolist() == [42.0, 42.0]
        pdf2 = pd.DataFrame({"x": np.arange(1000, dtype=np.float64)})
        out2 = exact_quantiles(
            rd.from_pandas(pdf2).repartition(5), "x", [0.0001, 1.0],
            bins=8, driver_cap=10,
        )
        assert out2["value"].tolist() == [0.0, 999.0]

    def test_cont_matches_duckdb_over_rounds(self, ray_session):
        import duckdb
        from recipys_ray.ops.quantiles import exact_quantiles_cont

        rng = np.random.default_rng(5)
        v = rng.lognormal(2, 1.5, 15_000)
        v[rng.random(15_000) < 0.08] = np.nan
        pdf = pd.DataFrame({"x": v})
        qs = [0.0, 0.1, 0.5, 0.77, 1.0]
        out = exact_quantiles_cont(
            rd.from_pandas(pdf).repartition(6), "x", qs,
            bins=8, driver_cap=100,
        )
        con = duckdb.connect()
        con.register("t", pdf)
        for q, got in zip(out["q"], out["value"]):
            exp = con.execute(
                f"SELECT quantile_cont(x, {q!r}) FROM t"
            ).fetchone()[0]
            # DuckDB's FMA lerp can differ by a few ulps
            np.testing.assert_allclose(got, exp, rtol=1e-13)

    def test_cont_small_and_empty(self, ray_session):
        from recipys_ray.ops.quantiles import exact_quantiles_cont

        out = exact_quantiles_cont(
            rd.from_pandas(pd.DataFrame({"x": [1.0, 3.0]})), "x", [0.5]
        )
        assert out["value"].iloc[0] == 2.0
        allnull = exact_quantiles_cont(
            rd.from_pandas(pd.DataFrame({"x": [np.nan, np.nan]})),
            "x", [0.5],
        )
        assert np.isnan(allnull["value"].iloc[0])


class TestSamplePerGroup:
    def test_prefix_property_and_determinism(self, ray_session):
        from recipys_ray.ops.sampling import sample_per_group

        rng = np.random.default_rng(17)
        pdf = pd.DataFrame({
            "g": rng.choice(["a", "b"], 400),
            "id": np.arange(400, dtype=np.int64),
        })
        s5 = sample_per_group(
            rd.from_pandas(pdf), ["g"], "id", n=5
        ).to_pandas()
        s20 = sample_per_group(
            rd.from_pandas(pdf).repartition(7), ["g"], "id", n=20
        ).to_pandas()
        # coordinated: the 5-sample is exactly the rank<5 prefix of the 20
        small = set(map(tuple, s5[["g", "id"]].itertuples(index=False)))
        prefix = set(map(tuple, s20[s20["rank"] < 5][["g", "id"]]
                         .itertuples(index=False)))
        assert small == prefix
        assert (s20.groupby("g").size() == 20).all()


class TestDistinctPerGroup:
    def test_exact_matches_pandas(self, ray_session):
        from recipys_ray.ops.distinct import distinct_per_group

        rng = np.random.default_rng(23)
        pdf = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], 5000),
            "v": rng.integers(0, 800, 5000),
        })
        out = distinct_per_group(
            rd.from_pandas(pdf).repartition(6), ["g"], "v"
        ).to_pandas().set_index("g")["n_distinct"]
        expect = pdf.groupby("g")["v"].nunique()
        for g in expect.index:
            assert out[g] == expect[g], g

    def test_hll_within_error_bound(self, ray_session):
        from recipys_ray.ops.distinct import distinct_per_group_approx

        rng = np.random.default_rng(7)
        # two groups with very different cardinalities incl. duplicates
        pdf = pd.DataFrame({
            "g": np.r_[np.zeros(60_000, int), np.ones(30_000, int)],
            "v": np.r_[rng.integers(0, 20_000, 60_000),
                       rng.integers(0, 500, 30_000)],
        })
        out = distinct_per_group_approx(
            rd.from_pandas(pdf).repartition(5), ["g"], "v", p=12
        ).to_pandas().set_index("g")["n_distinct_approx"]
        expect = pdf.groupby("g")["v"].nunique()
        for g in expect.index:
            rel = abs(out[g] - expect[g]) / expect[g]
            assert rel < 0.05, (g, out[g], expect[g])

    def test_hll_merge_invariant_to_blocking(self, ray_session):
        from recipys_ray.ops.distinct import distinct_per_group_approx

        rng = np.random.default_rng(31)
        pdf = pd.DataFrame({"g": ["x"] * 8000,
                            "v": rng.integers(0, 3000, 8000)})
        a = distinct_per_group_approx(
            rd.from_pandas(pdf).repartition(1), ["g"], "v"
        ).to_pandas()["n_distinct_approx"].iloc[0]
        b = distinct_per_group_approx(
            rd.from_pandas(pdf.sample(frac=1.0, random_state=1)
                           .reset_index(drop=True)).repartition(9),
            ["g"], "v",
        ).to_pandas()["n_distinct_approx"].iloc[0]
        assert a == b  # register maxima are order/blocking independent


class TestRealCodecs:
    """REAL stdlib/numpy decoders: BMP + PPM images, PCM WAV audio."""

    @staticmethod
    def _ppm_bytes(arr):
        h, w, _ = arr.shape
        return b"P6\n%d %d\n255\n" % (w, h) + arr.astype(np.uint8).tobytes()

    @staticmethod
    def _bmp_bytes(arr):
        h, w, _ = arr.shape
        stride = (w * 3 + 3) // 4 * 4
        rows = np.zeros((h, stride), np.uint8)
        rows[:, : w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
        data = rows.tobytes()
        off = 14 + 40
        header = (
            b"BM" + (off + len(data)).to_bytes(4, "little") + b"\0\0\0\0"
            + off.to_bytes(4, "little") + (40).to_bytes(4, "little")
            + w.to_bytes(4, "little") + h.to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
            + (0).to_bytes(4, "little") + len(data).to_bytes(4, "little")
            + b"\0" * 16
        )
        return header + data

    @staticmethod
    def _wav_bytes(x, sr=8000):
        import io, wave
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(sr)
            wf.writeframes((x * 32767).astype(np.int16).tobytes())
        return buf.getvalue()

    def test_image_decode_real(self, ray_session):
        from recipys_ray.ops.multimodal import DecodeImage

        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (13, 17, 3)).astype(np.uint8)
        tbl = pa.table({
            "image": pa.array(
                [self._ppm_bytes(img), self._bmp_bytes(img), b"\x89PNG...",
                 None],
                pa.binary(),
            )
        })
        out = DecodeImage("image", fake=False)(tbl)
        d = out.to_pandas()
        # PPM and BMP round-trip to the same true pixels
        assert d["decode_ok"].tolist() == [True, True, False, False]
        assert d["img_width"].tolist()[:2] == [17, 17]
        assert d["img_height"].tolist()[:2] == [13, 13]
        exp_mean = img.reshape(-1, 3).mean(0)
        for row in range(2):
            got = [d[f"img_mean_{c}"][row] for c in "rgb"]
            np.testing.assert_allclose(got, exp_mean, rtol=1e-5)
        np.testing.assert_allclose(
            np.array(d["thumb"][0]), np.array(d["thumb"][1]), rtol=1e-5
        )
        assert len(d["thumb"][0]) == 64

    def test_wav_decode_real(self, ray_session):
        from recipys_ray.ops.multimodal import DecodeWav

        sr, dur = 8000, 0.5
        t = np.arange(int(sr * dur)) / sr
        x = 0.5 * np.sin(2 * np.pi * 440 * t)
        tbl = pa.table({
            "audio": pa.array(
                [self._wav_bytes(x, sr), b"not a wav", None], pa.binary()
            )
        })
        d = DecodeWav("audio")(tbl).to_pandas()
        assert d["decode_ok"].tolist() == [True, False, False]
        assert d["sample_rate"][0] == sr
        np.testing.assert_allclose(d["duration_s"][0], dur, rtol=1e-6)
        # sine RMS = amp/sqrt(2); zcr of a 440 Hz tone at 8 kHz ≈ 880/8000
        np.testing.assert_allclose(d["rms"][0], 0.5 / np.sqrt(2), rtol=1e-3)
        np.testing.assert_allclose(d["zcr"][0], 2 * 440 / sr, rtol=0.02)

    @staticmethod
    def _png_bytes(arr, color_type=None, filters=None):
        """Minimal PNG encoder (spec-faithful: zlib, CRC, per-row filter
        byte) so the pure-python decoder is tested against independently
        constructed bytes exercising every filter type 0-4."""
        import zlib

        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, nch = arr.shape
        if color_type is None:
            color_type = {1: 0, 2: 4, 3: 2, 4: 6}[nch]

        def chunk(typ, data):
            crc = zlib.crc32(typ + data) & 0xFFFFFFFF
            return (len(data).to_bytes(4, "big") + typ + data
                    + crc.to_bytes(4, "big"))

        ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
                + bytes([8, color_type, 0, 0, 0]))
        a8 = arr.astype(np.int32)
        raw = bytearray()
        prev = np.zeros((w, nch), np.int32)
        for y in range(h):
            f = filters[y % len(filters)] if filters else 0
            cur = a8[y]
            left = np.vstack([np.zeros((1, nch), np.int32), cur[:-1]])
            ul = np.vstack([np.zeros((1, nch), np.int32), prev[:-1]])
            if f == 0:
                enc = cur
            elif f == 1:
                enc = cur - left
            elif f == 2:
                enc = cur - prev
            elif f == 3:
                enc = cur - ((left + prev) >> 1)
            else:  # Paeth
                p = left + prev - ul
                pa_, pb_, pc_ = (np.abs(p - left), np.abs(p - prev),
                                 np.abs(p - ul))
                pred = np.where(
                    (pa_ <= pb_) & (pa_ <= pc_), left,
                    np.where(pb_ <= pc_, prev, ul),
                )
                enc = cur - pred
            raw.append(f)
            raw.extend((enc & 255).astype(np.uint8).tobytes())
            prev = cur
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(bytes(raw)))
                + chunk(b"IEND", b""))

    def test_png_decode_real(self, ray_session):
        """The pure-python PNG path: every filter type, gray/RGB/RGBA."""
        from recipys_ray.ops.multimodal import DecodeImage, _decode_png

        rng = np.random.default_rng(11)
        rgb = rng.integers(0, 256, (19, 23, 3)).astype(np.uint8)
        for filters in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4]):
            got = _decode_png(self._png_bytes(rgb, filters=filters))
            np.testing.assert_array_equal(got.astype(np.uint8), rgb)
        gray = rng.integers(0, 256, (7, 5)).astype(np.uint8)
        got = _decode_png(self._png_bytes(gray, filters=[4, 2]))
        np.testing.assert_array_equal(got[:, :, 0].astype(np.uint8), gray)
        rgba = rng.integers(0, 256, (6, 9, 4)).astype(np.uint8)
        got = _decode_png(self._png_bytes(rgba, filters=[1, 3]))
        np.testing.assert_array_equal(got.astype(np.uint8), rgba[:, :, :3])
        # malformed payloads must return None, not raise
        assert _decode_png(b"\x89PNG\r\n\x1a\njunk") is None
        assert _decode_png(self._png_bytes(rgb)[:40]) is None
        # end-to-end through the decode stage
        tbl = pa.table({
            "image": pa.array(
                [self._png_bytes(rgb, filters=[0, 1, 2, 3, 4])], pa.binary()
            )
        })
        d = DecodeImage("image", fake=False)(tbl).to_pandas()
        assert d["decode_ok"].tolist() == [True]
        assert d["img_width"][0] == 23 and d["img_height"][0] == 19
        np.testing.assert_allclose(
            [d[f"img_mean_{c}"][0] for c in "rgb"],
            rgb.reshape(-1, 3).mean(0), rtol=1e-5,
        )

    def test_real_decode_through_ray_stage(self, ray_session):
        from recipys_ray.ops.multimodal import decode_images

        rng = np.random.default_rng(9)
        imgs = [
            self._ppm_bytes(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8))
            for _ in range(10)
        ]
        ds = rd.from_arrow(pa.table({"image": pa.array(imgs, pa.binary())}))
        out = decode_images(ds, fake=False, concurrency=2,
                            batch_size=4).to_pandas()
        assert out["decode_ok"].all() and (out["img_width"] == 8).all()


class TestCurationPipeline:
    def test_stages_compose(self, ray_session):
        from recipys_ray.pipelines.curation import curate_corpus

        docs = pd.DataFrame({
            "doc_id": np.arange(8, dtype=np.int64),
            "text": [
                "the quick brown fox jumps over the lazy dog again today",
                "the quick brown fox jumps over the lazy dog again today",
                "THE  QUICK  BROWN  FOX jumps over the lazy dog again today",
                "short",
                None,
                "an entirely different document about distributed data "
                "engines and ray",
                "another unique story regarding arrow tables and shuffles "
                "at scale",
                "benchmark leak: the quick brown fox jumps over the lazy",
            ],
        })
        # bench_mod=7 → doc 0 and 7 are benchmark docs
        out = curate_corpus(
            rd.from_pandas(docs), bench_mod=7, min_chars=30
        ).to_pandas()
        surv = set(out["doc_id"])
        # 1,2 dedup into 0's group (whitespace-collapse + lowercase make 2
        # identical); 0 is min-id survivor but benchmark-contaminated → out
        # 3 too short; 4 null → too short; 7 contaminated (benchmark doc)
        assert surv == {5, 6}
        assert set(out["split"]) <= {"train", "val", "test"}


class TestGlobalRank:
    def test_matches_argsort_with_ties_nulls_and_partitions(self, ray_session):
        from recipys_ray.ops.rank import add_global_rank

        rng = np.random.default_rng(41)
        v = rng.integers(0, 50, 3000).astype(np.float64)  # heavy ties
        v[rng.random(3000) < 0.05] = np.nan
        pdf = pd.DataFrame({"id": np.arange(3000, dtype=np.int64), "v": v})
        out = add_global_rank(
            rd.from_pandas(pdf).repartition(7), "v", tie_cols=["id"],
            num_partitions=5,
        ).to_pandas().sort_values("id", ignore_index=True)
        # reference: stable lexsort, nulls last
        key = np.where(np.isnan(v), np.inf, v)
        order = np.lexsort((pdf["id"].to_numpy(), key))
        expect = np.empty(3000, dtype=np.int64)
        expect[order] = np.arange(3000)
        np.testing.assert_array_equal(out["rank"].to_numpy(), expect)

    def test_descending(self, ray_session):
        from recipys_ray.ops.rank import add_global_rank

        pdf = pd.DataFrame({
            "id": np.arange(6, dtype=np.int64),
            "v": [3.0, 1.0, 2.0, 3.0, 0.5, 2.0],
        })
        out = add_global_rank(
            rd.from_pandas(pdf).repartition(3), "v", tie_cols=["id"],
            descending=True, num_partitions=3,
        ).to_pandas().sort_values("rank", ignore_index=True)
        assert out["v"].tolist() == [3.0, 3.0, 2.0, 2.0, 1.0, 0.5]
        assert out[out["v"] == 3.0]["id"].tolist() == [0, 3]  # tie by id


class TestArrowTokenization:
    """The Arrow-RE2 tokenization kernels must match Python re semantics on
    real-world (ASCII) text byte-for-byte — the goldens and the DuckDB
    oracles both depend on it."""

    CASES = [
        None, "", "one", "two words!", "  leading and trailing  ",
        "punct,only.!?", "MiXeD CaSe 123", "a" * 300,
        "tab\tsep\nnewline", "d'apostrophe it's", "under_score ok",
        "!!!", "a b", "x y z w v",
    ]

    def _col(self):
        import pyarrow as pa

        return pa.array(self.CASES, pa.string())

    def test_word_stream_matches_python_re(self):
        import re

        from recipys_ray.ops.text import word_stream

        words, counts = word_stream(self._col())
        word_re = re.compile(r"\w+", re.UNICODE)
        expected = [word_re.findall((t or "").lower()) for t in self.CASES]
        assert counts.tolist() == [len(w) for w in expected]
        flat = [w for ws in expected for w in ws]
        assert words.to_pylist() == flat

    def test_flat_kgrams_matches_python(self):
        import re

        from recipys_ray.ops.text import flat_kgrams, word_stream

        word_re = re.compile(r"\w+", re.UNICODE)
        words, counts = word_stream(self._col())
        for k in (2, 3, 5):
            grams, gcounts = flat_kgrams(words, counts, k)
            expected = []
            for t in self.CASES:
                ws = word_re.findall((t or "").lower())
                if len(ws) < k:
                    expected.append([" ".join(ws)])
                else:
                    expected.append(
                        [" ".join(ws[i : i + k])
                         for i in range(len(ws) - k + 1)]
                    )
            assert gcounts.tolist() == [len(g) for g in expected]
            assert grams.to_pylist() == [g for gs in expected for g in gs]
            # Gopher convention: short docs yield NO grams
            grams2, gcounts2 = flat_kgrams(words, counts, k, pad_small=False)
            expected2 = [g if len(g[0].split(" ")) >= k or len(g) > 1 else []
                         for g in expected]
            assert sum(gcounts2.tolist()) == len(grams2)

    def test_poly_hash_arrow_matches_generic(self):
        import pyarrow as pa

        from recipys_ray.ops.text import poly_hash

        ss = ["", "a", "abc", "héllo wörld", "日本語", "x" * 500, "", "end"]
        ref = poly_hash(ss)  # generic utf-32 path
        got = poly_hash(pa.array(ss))  # Arrow path (falls back: non-ASCII)
        np.testing.assert_array_equal(ref, got)
        ascii_only = ["", "a", "abc", "x" * 500, "", "end", "a b c"]
        np.testing.assert_array_equal(
            poly_hash(ascii_only), poly_hash(pa.array(ascii_only))
        )
        # chunk-boundary torture on the vectorized core
        np.testing.assert_array_equal(
            poly_hash(pa.array(ascii_only * 7), chunk=11),
            poly_hash(ascii_only * 7),
        )

    def test_poly_hash_large_string_and_nulls(self):
        """large_string has int64 offsets — reading them as int32 silently
        mis-hashes; null entries must hash as '' (0), not crash."""
        import pyarrow as pa

        from recipys_ray.ops.text import poly_hash

        ss = ["", "a", "abc", "x" * 500, "end", "a b c"]
        ref = poly_hash(ss)
        np.testing.assert_array_equal(
            poly_hash(pa.array(ss, pa.large_string())), ref
        )
        # sliced large_string (non-zero offset)
        np.testing.assert_array_equal(
            poly_hash(pa.array(ss + ss, pa.large_string()).slice(6)), ref
        )
        # nulls in both layouts, plus the generic (non-ASCII) fallback
        with_null = ["abc", None, "héllo", None, ""]
        exp = poly_hash(["abc", "", "héllo", "", ""])
        for typ in (pa.string(), pa.large_string()):
            np.testing.assert_array_equal(
                poly_hash(pa.array(with_null, typ)), exp
            )
        np.testing.assert_array_equal(poly_hash(with_null), exp)

    def test_verify_pairs_jaccard_bounded(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.dedup import verify_pairs_jaccard

        docs = pd.DataFrame(
            {"doc_id": np.arange(6, dtype=np.int64),
             "text": ["alpha beta gamma delta"] * 3
                     + ["different text entirely here"] * 3}
        )
        pairs = pd.DataFrame({"a": [0, 3], "b": [1, 4]})
        out = verify_pairs_jaccard(rd.from_pandas(docs), pairs, k=3)
        assert len(out) == 2
        with pytest.raises(ValueError, match="max_candidates"):
            verify_pairs_jaccard(
                rd.from_pandas(docs), pairs, k=3, max_candidates=2
            )


class TestSkewJoin:
    def _data(self, seed=7):
        rng = np.random.default_rng(seed)
        # one key owns half the fact rows; the rest are near-uniform
        hot = np.full(500, 42, dtype=np.int64)
        cold = rng.integers(0, 100, size=500).astype(np.int64)
        k = np.r_[hot, cold]
        left = pd.DataFrame({
            "k": k,
            "v": np.arange(len(k), dtype=np.int32),
        })
        right = pd.DataFrame({
            "rk": np.arange(0, 90, dtype=np.int64),  # 42 matches; >89 don't
            "w": [f"dim{i}" for i in range(90)],
            "z": np.arange(0, 90, dtype=np.int64) * 10,
        })
        return left, right

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_matches_single_plan(self, ray_session, how):
        """skew_join must be row-identical (and dtype-identical) to the
        plain shuffle join, whatever the routing."""
        import ray.data as rd

        from recipys_ray.ops.join import hash_join, skew_join

        left, right = self._data()
        ref = (
            hash_join(rd.from_pandas(left), rd.from_pandas(right),
                      on="k", right_on="rk", how=how, strategy="shuffle")
            .to_pandas()
        )
        cols = list(ref.columns)
        ref = ref.sort_values(cols, ignore_index=True)
        # factor low → hot branch takes the 42s; huge → everything cold;
        # tiny threshold with max_hot_keys → everything hot
        for factor, max_hot in [(4.0, 10_000), (1e9, 10_000), (1e-9, 10_000)]:
            out = (
                skew_join(rd.from_pandas(left), rd.from_pandas(right),
                          on="k", right_on="rk", how=how,
                          hot_key_factor=factor, max_hot_keys=max_hot)
                .to_pandas()
            )
            out = out[cols].sort_values(cols, ignore_index=True)
            pd.testing.assert_frame_equal(out, ref), (how, factor)

    def test_hot_branch_actually_routes(self, ray_session):
        """With the planted 50%-hot key and a low factor, the cold shuffle
        side must see none of the hot key's rows (routing sanity)."""
        import ray.data as rd

        from recipys_ray.ops.join import skew_join

        left, right = self._data()
        out = skew_join(
            rd.from_pandas(left), rd.from_pandas(right),
            on="k", right_on="rk", hot_key_factor=0.5,
        ).to_pandas()
        # every row of the hot key present exactly once (dim key unique)
        n_hot_left = int((left["k"] == 42).sum())
        assert n_hot_left >= 500
        assert int((out["k"] == 42).sum()) == n_hot_left

    def test_rejects_outer(self, ray_session):
        import ray.data as rd

        from recipys_ray.ops.join import skew_join

        left, right = self._data()
        with pytest.raises(ValueError, match="inner/left/semi/anti"):
            skew_join(rd.from_pandas(left), rd.from_pandas(right),
                      on="k", right_on="rk", how="outer")


class TestSemiAntiJoin:
    def _data(self):
        left = pd.DataFrame({
            "k": np.array([1, 1, 2, 3, 4], dtype=np.int64),
            "v": np.array([10, 11, 20, 30, 40], dtype=np.int32),
        })
        right = pd.DataFrame({
            "rk": np.array([1, 1, 3, 9], dtype=np.int64),
            "w": ["a", "b", "c", "d"],
        })
        return left, right

    @pytest.mark.parametrize("strategy", ["broadcast", "shuffle"])
    @pytest.mark.parametrize("how", ["semi", "anti"])
    def test_existence_joins(self, ray_session, strategy, how):
        import ray.data as rd

        from recipys_ray.ops.join import hash_join

        left, right = self._data()
        out = hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            on="k", right_on="rk", how=how, strategy=strategy,
            num_partitions=4,
        ).to_pandas().sort_values("v", ignore_index=True)
        in_right = left["k"].isin(right["rk"])
        expect = left[in_right if how == "semi" else ~in_right].sort_values(
            "v", ignore_index=True
        )
        pd.testing.assert_frame_equal(out, expect)
        # no right columns, no row multiplication, dtypes preserved
        assert list(out.columns) == ["k", "v"]
        assert out["v"].dtype == np.int32


class TestUnigramLM:
    def test_matches_sequential_reference(self, ray_session):
        """Distributed fit+score vs an independent sequential reference —
        exact ints AND bit-equal float log scores (same numpy log, same
        sequential-within-doc summation order on both sides)."""
        import re as _re

        from recipys_ray.ops.text import unigram_lm_score

        pdf = pd.DataFrame({
            "doc_id": np.arange(8, dtype=np.int64),
            "text": [
                "the cat sat on the mat",
                "the dog sat on the log",
                "completely novel words here zanzibar quux",
                "the the the the",
                "", "!!!",  # empty + no-word docs
                "cat dog cat dog cat",
                None,
            ],
        })
        out = (
            unigram_lm_score(
                rd.from_pandas(pdf).repartition(3), top_k=5
            )
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
        # sequential reference
        word_re = _re.compile(r"\w+")
        docs = [word_re.findall((t or "").lower()) for t in pdf["text"]]
        from collections import Counter

        all_counts = Counter(w for ws in docs for w in ws)
        vocab = dict(sorted(
            all_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5])
        N = sum(all_counts.values())
        for i, ws in enumerate(docs):
            n = len(ws)
            assert out.loc[i, "n_words"] == n
            oov = sum(1 for w in ws if w not in vocab)
            assert out.loc[i, "oov_count"] == oov
            assert out.loc[i, "vocab_count_sum"] == sum(
                vocab.get(w, 0) for w in ws
            )
            if n == 0:
                assert np.isnan(out.loc[i, "logprob_mean"])
                assert np.isnan(out.loc[i, "perplexity"])
                continue
            lsum = 0.0
            for w in ws:  # sequential order == reduceat order
                lsum += (
                    np.log(float(vocab[w])) - np.log(float(N))
                    if w in vocab else -np.log(float(N))
                )
            ref_mean = lsum / n
            assert out.loc[i, "logprob_mean"] == ref_mean
            assert out.loc[i, "perplexity"] == np.exp(-ref_mean)

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.text import unigram_lm_score

        pdf = pd.DataFrame({
            "doc_id": np.arange(40, dtype=np.int64),
            "text": [f"tok{i % 7} tok{i % 3} filler words {i}"
                     for i in range(40)],
        })
        outs = []
        for parts in (1, 5):
            outs.append(
                unigram_lm_score(
                    rd.from_pandas(pdf).repartition(parts), top_k=6
                ).to_pandas().sort_values("doc_id", ignore_index=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestRedactPii:
    def test_redacts_and_counts(self, ray_session):
        from recipys_ray.ops.text import redact_pii

        pdf = pd.DataFrame({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [
                "mail me at a.b+x@foo.co or c@bar.org thanks",
                "call +1-555-123-4567 now",
                "server at 192.168.0.1 and 10.0.0.255",
                None,
            ],
        })
        out = (
            redact_pii(rd.from_pandas(pdf))
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
        assert out.loc[0, "n_emails"] == 2
        assert "<EMAIL>" in out.loc[0, "clean_text"]
        assert "@" not in out.loc[0, "clean_text"]
        assert out.loc[1, "n_phones"] == 1
        assert "<PHONE>" in out.loc[1, "clean_text"]
        assert out.loc[2, "n_ips"] == 2
        assert out.loc[2, "clean_text"].count("<IP>") == 2
        assert pd.isna(out.loc[3, "clean_text"])  # null passes through


class TestChunkDocuments:
    def test_chunks_cover_text_exactly(self, ray_session):
        from recipys_ray.ops.chunking import chunk_documents

        pdf = pd.DataFrame({
            "doc_id": np.arange(5, dtype=np.int64),
            "text": ["x" * 7, "abcdefghij", "", None, "yz"],
        })
        out = (
            chunk_documents(rd.from_pandas(pdf), chunk_chars=4, overlap=1)
            .to_pandas().sort_values(["doc_id", "chunk_no"],
                                     ignore_index=True)
        )
        # step=3, n=ceil((len-1)/3): len 7 → 2 chunks at 0,3 — [0,4)+[3,7)
        # covers every char; a third chunk would be pure overlap
        d0 = out[out["doc_id"] == 0]["chunk_text"].tolist()
        assert d0 == ["xxxx", "xxxx"]
        d1 = out[out["doc_id"] == 1]["chunk_text"].tolist()
        assert d1 == ["abcd", "defg", "ghij"]
        # reconstruct doc 1 from chunks minus overlap
        assert "".join(c[1:] if i else c for i, c in enumerate(d1))[:10] == "abcdefghij"
        # empty and null docs still yield exactly one (empty) chunk
        assert out[out["doc_id"] == 2]["chunk_text"].tolist() == [""]
        assert out[out["doc_id"] == 3]["chunk_text"].tolist() == [""]
        assert out[out["doc_id"] == 4]["chunk_text"].tolist() == ["yz"]

    def test_overlap_validation(self):
        from recipys_ray.ops.chunking import chunk_documents

        with pytest.raises(ValueError, match="overlap"):
            chunk_documents(None, chunk_chars=4, overlap=4)


class TestDuplicateSpans:
    def test_finds_planted_shared_span(self, ray_session):
        from recipys_ray.ops.spans import duplicate_spans

        shared = "S" * 45  # longer than span_chars so full spans exist
        pdf = pd.DataFrame({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [
                "prefix one " + shared + " tail a",
                "другой другой " + shared,  # non-ascii prefix ok
                "entirely unrelated text that is long enough to span",
                "short",
            ],
        })
        out = (
            duplicate_spans(
                rd.from_pandas(pdf).repartition(2),
                span_chars=40, stride=5, num_partitions=8,
            ).to_pandas()
        )
        # docs 0 and 1 share the 45-char run: at stride 5 at least one
        # 40-char window lands fully inside it in both docs
        assert set(out["doc_id"]) >= {0, 1}
        assert 2 not in set(out["doc_id"])
        assert 3 not in set(out["doc_id"])
        assert (out["n_docs"] >= 2).all()

    def test_identical_docs_share_all_spans(self, ray_session):
        from recipys_ray.ops.spans import duplicate_spans

        t = "abcdefghij" * 8  # 80 chars
        pdf = pd.DataFrame({
            "doc_id": np.array([1, 2], dtype=np.int64),
            "text": [t, t],
        })
        out = duplicate_spans(
            rd.from_pandas(pdf), span_chars=40, stride=10
        ).to_pandas()
        n_spans = (80 - 40) // 10 + 1
        assert len(out) == 2 * n_spans
        assert sorted(out[out["doc_id"] == 1]["span_start"]) == [
            i * 10 for i in range(n_spans)
        ]


class TestJsonFields:
    def test_extract_int(self, ray_session):
        from recipys_ray.ops.jsonfields import extract_json_int

        pdf = pd.DataFrame({
            "id": np.arange(5, dtype=np.int64),
            "props": ['{"k": 7}', '{"k": -3, "x": 1}', '{"x": 9}', None,
                      '{"k":42}'],
        })
        out = (
            extract_json_int(rd.from_pandas(pdf), "props", "k")
            .to_pandas().sort_values("id", ignore_index=True)
        )
        vals = out["k_val"].tolist()
        assert vals[0] == 7 and vals[1] == -3 and vals[4] == 42
        assert pd.isna(vals[2]) and pd.isna(vals[3])
        assert out["k_val"].dtype == np.float64 or str(
            out["k_val"].dtype
        ).startswith("Int")  # nullable int or float-with-nan per pandas


class TestFunnel:
    def test_ordered_strictly_after(self, ray_session):
        from recipys_ray.ops.funnel import funnel

        ts = pd.to_datetime([
            # user 1: full funnel in order
            "2024-01-01 10:00", "2024-01-01 11:00", "2024-01-01 12:00",
            # user 2: click BEFORE view -> funnel stops at view
            "2024-01-02 09:00", "2024-01-02 10:00",
            # user 3: view+click simultaneous -> tie does NOT advance,
            # but a later click does
            "2024-01-03 10:00", "2024-01-03 10:00", "2024-01-03 11:00",
            # user 4: never views
            "2024-01-04 10:00",
        ])
        pdf = pd.DataFrame({
            "user_id": np.array([1, 1, 1, 2, 2, 3, 3, 3, 4], np.int64),
            "ts": ts.astype("datetime64[us]"),
            "event_type": ["view", "click", "purchase",
                           "click", "view",
                           "view", "click", "click",
                           "purchase"],
        })
        out = (
            funnel(rd.from_pandas(pdf).repartition(3),
                   steps=["view", "click", "purchase"], num_partitions=4)
            .to_pandas().sort_values("user_id", ignore_index=True)
        )
        assert out["stage"].tolist() == [3, 1, 2, 0]
        assert pd.isna(out.loc[1, "ts_click"])  # user 2: no click after view
        assert out.loc[2, "ts_click"] == pd.Timestamp("2024-01-03 11:00")
        assert pd.isna(out.loc[3, "ts_view"])

    def test_ns_resolution_with_empty_partitions(self, ray_session):
        """ns-resolution input where some partitions have NO qualifying
        events: the empty branch must emit ts_<step> in the input's
        resolution, or block schemas mix datetime64[ns]/[us]."""
        from recipys_ray.ops.funnel import funnel

        n = 200
        pdf = pd.DataFrame({
            "user_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(np.arange(n), unit="h"),  # ns resolution
            # only 2 viewing users: most hash partitions see ZERO qualifying
            # events and hit the empty branch
            "event_type": ["view"] * 2 + ["other"] * (n - 2),
        })
        assert pdf["ts"].dtype == np.dtype("datetime64[ns]")
        out = funnel(
            rd.from_pandas(pdf).repartition(4),
            steps=["view"], num_partitions=16,
        ).to_pandas()
        assert len(out) == n
        assert out["stage"].sum() == 2
        assert str(out["ts_view"].dtype) == "datetime64[ns]"


class TestCohortRetention:
    def test_matches_pandas_reference(self, ray_session):
        from recipys_ray.ops.cohort import cohort_retention

        rng = np.random.RandomState(9)
        n = 400
        uid = rng.randint(0, 25, n).astype(np.int64)
        ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
            rng.randint(0, 60 * 86400, n), unit="s"
        )
        pdf = pd.DataFrame({"user_id": uid,
                            "ts": ts.astype("datetime64[us]")})
        out = cohort_retention(
            rd.from_pandas(pdf).repartition(4), period_s=86400 * 7,
            num_partitions=8,
        )
        # sequential reference
        wk = (pdf["ts"].astype(np.int64) // (86400 * 7 * 10**6))
        ref = pd.DataFrame({"u": pdf["user_id"], "wk": wk}).drop_duplicates()
        ref["cw"] = ref.groupby("u")["wk"].transform("min")
        exp = (
            ref.assign(off=ref["wk"] - ref["cw"])
            .groupby(["cw", "off"]).size().rename("n_users").reset_index()
            .rename(columns={"cw": "cohort_period", "off": "period_offset"})
            .sort_values(["cohort_period", "period_offset"],
                         ignore_index=True)
            .astype(np.int64)
        )
        pd.testing.assert_frame_equal(out.reset_index(drop=True), exp)


class TestNtile:
    @pytest.mark.parametrize("n,k", [(17, 4), (20, 5), (3, 8), (100, 7)])
    def test_sql_ntile_semantics(self, ray_session, n, k):
        from recipys_ray.ops.rank import add_ntile

        rng = np.random.default_rng(n * 100 + k)
        pdf = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "v": rng.integers(0, 10, n).astype(np.float64),  # ties
        })
        out = add_ntile(
            rd.from_pandas(pdf).repartition(3), "v", k=k, tie_cols=["id"],
            num_partitions=4,
        ).to_pandas().sort_values("id", ignore_index=True)
        assert "rank" not in out.columns
        assert out.bucket.dtype == np.int64
        # reference: SQL NTILE from the total order
        order = np.lexsort((pdf.id.to_numpy(), pdf.v.to_numpy()))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        size, rem = divmod(n, k)
        exp = np.empty(n, dtype=np.int64)
        for i, r in enumerate(rank):
            if size == 0 or r < rem * (size + 1):
                exp[i] = r // (size + 1) + 1
            else:
                exp[i] = rem + (r - rem * (size + 1)) // size + 1
        np.testing.assert_array_equal(out.bucket.to_numpy(), exp)
        # bucket sizes differ by at most one, first buckets are the big ones
        sizes = out.bucket.value_counts().sort_index()
        if size > 0:
            assert set(sizes.unique()) <= {size, size + 1}
            assert (sizes.iloc[:rem] == size + 1).all()

    def test_k_validation(self, ray_session):
        from recipys_ray.ops.rank import add_ntile

        with pytest.raises(ValueError):
            add_ntile(rd.range(5), "id", k=0)


class TestGroupQuantiles:
    def test_matches_pandas_per_group(self, ray_session):
        from recipys_ray.ops.quantiles import group_quantiles

        rng = np.random.default_rng(7)
        n = 4000
        pdf = pd.DataFrame({
            "g": rng.choice(list("abcde"), n),
            "v": rng.integers(1, 51, n).astype(np.float64),
        })
        pdf.loc[rng.random(n) < 0.1, "v"] = np.nan     # null values skipped
        outs = []
        for p in (3, 11):  # partition-count invariance
            out = group_quantiles(
                rd.from_pandas(pdf).repartition(6), "g", "v",
                [0.25, 0.5, 0.75], num_partitions=p,
            ).to_pandas().sort_values("g", ignore_index=True)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        exp = (
            pdf.groupby("g")["v"]
            .quantile([0.25, 0.5, 0.75])
            .unstack()
            .reset_index()
        )
        exp.columns = ["g", "q25", "q50", "q75"]
        pd.testing.assert_frame_equal(outs[0], exp)

    def test_all_null_group_and_validation(self, ray_session):
        from recipys_ray.ops.quantiles import group_quantiles

        pdf = pd.DataFrame({
            "g": ["a"] * 3 + ["b"] * 2,
            "v": [1.0, 2.0, 3.0, np.nan, np.nan],
        })
        out = group_quantiles(
            rd.from_pandas(pdf), "g", "v", [0.5], num_partitions=2
        ).to_pandas().sort_values("g", ignore_index=True)
        assert out.loc[out.g == "a", "q50"].iloc[0] == 2.0
        assert np.isnan(out.loc[out.g == "b", "q50"].iloc[0])
        with pytest.raises(ValueError):
            group_quantiles(rd.from_pandas(pdf), "g", "v", [0.75, 0.25])


class TestWeightedSample:
    def test_matches_priority_order_and_layout_invariance(self, ray_session):
        from recipys_ray.kernels.duckdb_parity import murmurhash64
        from recipys_ray.ops.sampling import weighted_sample

        rng = np.random.default_rng(3)
        n = 5000
        pdf = pd.DataFrame({
            "key": np.arange(n, dtype=np.int64),
            "w": rng.exponential(1.0, n),
        })
        pdf.loc[rng.random(n) < 0.02, "w"] = 0.0      # excluded
        pdf.loc[rng.random(n) < 0.02, "w"] = -1.0     # excluded
        u = (murmurhash64(pdf.key.to_numpy()).astype(np.float64) + 1.0) / 2**64
        prio = pdf.w.to_numpy() / u
        ok = pdf.w.to_numpy() > 0
        order = np.lexsort((pdf.key.to_numpy()[ok], -prio[ok]))
        exp_keys = pdf.key.to_numpy()[ok][order][:100]
        for p in (2, 9):  # layout invariance
            out = weighted_sample(
                rd.from_pandas(pdf).repartition(p), "key", "w", k=100
            ).to_pandas()
            assert len(out) == 100
            np.testing.assert_array_equal(
                np.sort(out.key.to_numpy()), np.sort(exp_keys)
            )

    def test_k_larger_than_input(self, ray_session):
        from recipys_ray.ops.sampling import weighted_sample

        pdf = pd.DataFrame({"key": [1, 2, 3], "w": [1.0, 0.0, 2.0]})
        out = weighted_sample(rd.from_pandas(pdf), "key", "w", k=10).to_pandas()
        assert sorted(out.key.tolist()) == [1, 3]  # w<=0 dropped


class TestFrequentItems:
    def test_exact_vs_value_counts_zipf(self, ray_session):
        from recipys_ray.ops.frequent import frequent_items

        rng = np.random.default_rng(11)
        # zipf-ish long tail: many singletons, few heavy hitters
        vals = np.array([f"t{z}" for z in rng.zipf(1.5, 20000) if z < 10**6])
        pdf = pd.DataFrame({"tok": vals})
        frac = 0.01
        out = frequent_items(
            rd.from_pandas(pdf).repartition(8), "tok", min_fraction=frac
        )
        vc = pdf.tok.value_counts()
        thr = int(np.ceil(frac * len(pdf)))
        exp = vc[vc >= thr]
        assert dict(zip(out["item"], out["count"])) == exp.to_dict()
        # sorted by (count desc, item asc)
        assert out["count"].is_monotonic_decreasing

    def test_superset_guarantee_at_minimum_k(self, ray_session):
        from recipys_ray.ops.frequent import frequent_items

        # adversarial: exactly-at-threshold item among uniform noise
        rng = np.random.default_rng(5)
        noise = [f"n{i}" for i in rng.integers(0, 5000, 9000)]
        heavy = ["HH"] * 1000  # 10% of 10000
        pdf = pd.DataFrame({"tok": noise + heavy})
        out = frequent_items(
            rd.from_pandas(pdf).repartition(16), "tok", min_fraction=0.1
        )
        assert out["item"].tolist() == ["HH"]
        assert out["count"].tolist() == [1000]

    def test_validation_and_nulls(self, ray_session):
        from recipys_ray.ops.frequent import frequent_items

        with pytest.raises(ValueError):
            frequent_items(rd.range(5), "id", 0.0)
        pdf = pd.DataFrame({"tok": ["a", "a", None, "b"]})
        out = frequent_items(rd.from_pandas(pdf), "tok", 0.5)
        # n counts ALL rows (incl. null): threshold = 2; only 'a' qualifies
        assert out["item"].tolist() == ["a"]


class TestBoxResize:
    def test_exact_block_means_and_identity(self):
        from recipys_ray.ops.multimodal import box_resize

        # 4x4 → 2x2: each output pixel is the exact 2x2 block mean
        a = np.arange(16, dtype=np.float64).reshape(4, 4)
        r = box_resize(a, 2, 2)
        exp = np.array([[a[:2, :2].mean(), a[:2, 2:].mean()],
                        [a[2:, :2].mean(), a[2:, 2:].mean()]])
        np.testing.assert_allclose(r, exp, rtol=1e-6)
        # same-size resize is (float-cast) identity
        np.testing.assert_allclose(box_resize(a, 4, 4), a, rtol=1e-6)
        # upscale replicates pixels (ragged boxes clamp to >=1 source px)
        up = box_resize(np.array([[1.0, 2.0]]), 1, 4)
        np.testing.assert_allclose(up.ravel(), [1, 1, 2, 2], rtol=1e-6)

    def test_channels_and_ragged(self):
        from recipys_ray.ops.multimodal import box_resize

        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (13, 17, 3)).astype(np.uint8)
        r = box_resize(img, 5, 7)
        assert r.shape == (5, 7, 3) and r.dtype == np.float32
        # global mean is preserved only per exact-cover boxes; check one box
        ye = (np.arange(6) * 13) // 5
        xe = (np.arange(8) * 17) // 7
        exp00 = img[ye[0]:ye[1], xe[0]:xe[1], 0].mean()
        np.testing.assert_allclose(r[0, 0, 0], exp00, rtol=1e-5)

    def test_decode_image_resize_to(self, ray_session):
        from recipys_ray.ops.multimodal import DecodeImage, box_resize

        rng = np.random.default_rng(4)
        rgb = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
        rgb2 = rng.integers(0, 256, (6, 5, 3)).astype(np.uint8)
        ppm = TestRealCodecs._ppm_bytes
        tbl = pa.table({
            "image": pa.array(
                [ppm(rgb), ppm(rgb2), None], pa.binary()
            )
        })
        out = DecodeImage("image", fake=False, resize_to=(4, 4))(tbl)
        d = out.to_pandas()
        assert "resized" in d.columns
        r0 = np.array(d["resized"][0], np.float32).reshape(4, 4, 3)
        np.testing.assert_allclose(r0, box_resize(rgb, 4, 4), rtol=1e-5)
        assert d["resized"][2] is None
        # every decoded row has the schema-stable 4*4*3 length
        assert [len(v) for v in d["resized"][:2]] == [48, 48]


class TestWinsorize:
    def test_clip_matches_numpy_disc_quantiles(self, ray_session):
        from recipys_ray.ops.quantiles import winsorize

        rng = np.random.default_rng(7)
        v = rng.lognormal(3, 1, 500)
        pdf = pd.DataFrame({"id": np.arange(500), "x": v})
        out = (
            winsorize(rd.from_pandas(pdf), "x", 0.1, 0.9, out_col="c",
                      bins=8, driver_cap=50)
            .to_pandas().sort_values("id")
        )
        s = np.sort(v)
        lo, hi = s[int(np.ceil(0.1 * 500)) - 1], s[int(np.ceil(0.9 * 500)) - 1]
        np.testing.assert_array_equal(out["c"].to_numpy(), np.clip(v, lo, hi))
        # outputs are existing input values (selection-only contract)
        assert set(out["c"]) <= set(v)

    def test_nulls_and_inplace(self, ray_session):
        from recipys_ray.ops.quantiles import winsorize

        tbl = pa.table({"x": pa.array([1.0, None, 100.0, 5.0, 3.0])})
        out = winsorize(rd.from_arrow(tbl), "x", 0.25, 0.75).to_pandas()
        assert out["x"].isna().sum() == 1  # null stays null
        nn = sorted(out["x"].dropna())
        # bounds = quantile_disc(.25)=1? n=4 non-null: ceil(1)=1st=1.0,
        # ceil(3)=3rd=5.0 → clip to [1, 5]
        assert nn == [1.0, 3.0, 5.0, 5.0]


class TestRobustZscore:
    def test_matches_sequential(self, ray_session):
        from recipys_ray.ops.quantiles import robust_zscore

        rng = np.random.default_rng(11)
        v = np.concatenate([rng.normal(10, 1, 400), [500.0, -900.0]])
        pdf = pd.DataFrame({"id": np.arange(len(v)), "x": v})
        out = (
            robust_zscore(rd.from_pandas(pdf), "x", k=3.0, bins=8,
                          driver_cap=50)
            .to_pandas().sort_values("id")
        )
        n = len(v)
        s = np.sort(v)
        med = s[int(np.ceil(0.5 * n)) - 1]
        d = np.abs(v - med)
        mad = np.sort(d)[int(np.ceil(0.5 * n)) - 1]
        np.testing.assert_array_equal(out["rz"].to_numpy(), (v - med) / mad)
        np.testing.assert_array_equal(
            out["is_outlier"].to_numpy(), d > 3.0 * mad
        )
        assert out["is_outlier"].to_numpy()[-2:].all()  # planted outliers
        assert out["is_outlier"].dtype == np.bool_


class TestRollupAggregate:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    def test_matches_duckdb_rollup(self, ray_session):
        from recipys_ray.ops.rollup import rollup_aggregate

        rng = np.random.default_rng(3)
        pdf = pd.DataFrame({
            "a": rng.choice(["p", "q", "r"], 300),
            "b": rng.choice(["x", "y", None], 300),
            "n": rng.integers(0, 50, 300),
        })
        got = (
            rollup_aggregate(rd.from_pandas(pdf), ["a", "b"],
                             sum_cols=["n"])
            .to_pandas()
            .sort_values(["gid", "a", "b"], na_position="last")
            .reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT CAST(grouping(a, b) AS BIGINT) AS gid, a, b,
                   CAST(count(*) AS BIGINT) AS cnt,
                   CAST(sum(n) AS BIGINT) AS sum_n
            FROM t GROUP BY ROLLUP(a, b)
            ORDER BY gid, a NULLS LAST, b NULLS LAST
        """).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # dtype discipline: int64 aggregates, string keys (never object-null)
        assert got["cnt"].dtype == np.int64
        assert got["sum_n"].dtype == np.int64
        # a genuinely-NULL b at gid=0 must stay distinct from rolled-up
        assert ((got["gid"] == 0) & got["b"].isna()).any()

    def test_grouping_sets_and_partition_invariance(self, ray_session):
        from recipys_ray.ops.rollup import rollup_aggregate

        rng = np.random.default_rng(9)
        pdf = pd.DataFrame({
            "a": rng.choice(["p", "q"], 200),
            "b": rng.choice(["x", "y", "z"], 200),
        })
        # CUBE-style explicit sets, including (b) alone (not a prefix)
        sets = [["a", "b"], ["b"], []]
        outs = []
        for nparts in (1, 8):
            ds = rd.from_pandas(pdf).repartition(nparts)
            outs.append(
                rollup_aggregate(ds, ["a", "b"], grouping_sets=sets)
                .to_pandas()
                .sort_values(["gid", "a", "b"], na_position="last")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        exp = self._oracle(pdf, """
            SELECT CAST(grouping(a, b) AS BIGINT) AS gid, a, b,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM t GROUP BY GROUPING SETS ((a, b), (b), ())
            ORDER BY gid, a NULLS LAST, b NULLS LAST
        """).reset_index(drop=True)
        pd.testing.assert_frame_equal(outs[0], exp, check_dtype=False)

    def test_all_null_sum_group_is_null(self, ray_session):
        """SQL SUM over an all-null group is NULL, not 0 — and int sums
        survive null-bearing columns."""
        from recipys_ray.ops.rollup import rollup_aggregate

        pdf = pd.DataFrame({
            "a": ["p", "p", "q", "q"],
            "n": pd.array([1, 2, None, None], dtype="Int64"),
        })
        got = (
            rollup_aggregate(rd.from_pandas(pdf), ["a"], sum_cols=["n"])
            .to_pandas()
            .sort_values(["gid", "a"], na_position="last")
            .reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT CAST(grouping(a) AS BIGINT) AS gid, a,
                   CAST(count(*) AS BIGINT) AS cnt,
                   CAST(sum(n) AS BIGINT) AS sum_n
            FROM t GROUP BY ROLLUP(a)
            ORDER BY gid, a NULLS LAST
        """).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert got.loc[got["a"] == "q", "sum_n"].isna().all()
        assert got.loc[got["a"] == "p", "sum_n"].iloc[0] == 3


class TestHllGoldenParity:
    def test_bitexact_vs_sequential_dense(self, ray_session):
        """The distributed sparse-merge HLL and gen_expected's dense
        sequential HLL must agree BIT-EXACTLY (the golden-oracle
        contract: ascending-register summation, same estimate
        expression)."""
        import importlib.util, os
        spec = importlib.util.spec_from_file_location(
            "gen_expected",
            os.path.join(os.path.dirname(__file__), "..", "scripts",
                         "gen_expected.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        from recipys_ray.ops.distinct import distinct_per_group_approx

        rng = np.random.default_rng(41)
        ev = pd.DataFrame({
            "event_type": rng.choice(["a", "b", "c", "d"], 40_000),
            "user_id": rng.integers(0, 15_000, 40_000),
        })
        got = (
            distinct_per_group_approx(
                rd.from_pandas(ev).repartition(7),
                ["event_type"], "user_id", p=12,
            )
            .to_pandas().sort_values("event_type").reset_index(drop=True)
        )
        exp = mod.hll_expected(ev, p=12)
        np.testing.assert_array_equal(
            got["n_distinct_approx"].to_numpy(),
            exp["n_distinct_approx"].to_numpy(),
        )


class TestGroupedStats:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    @staticmethod
    def _mk(seed=7, n=500):
        rng = np.random.default_rng(seed)
        return pd.DataFrame({
            "g": rng.integers(0, 20, n),
            "v": rng.choice(["a", "b", "c", "d", None], n,
                            p=[0.4, 0.3, 0.15, 0.1, 0.05]),
            "x": rng.normal(10, 3, n),
            "y": rng.normal(5, 2, n),
        })

    def test_value_counts_matches_duckdb(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_value_counts

        pdf = self._mk()
        got = (
            grouped_value_counts(rd.from_pandas(pdf), ["g"], "v")
            .to_pandas().sort_values(["g", "v"]).reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT g, v, CAST(count(*) AS BIGINT) AS cnt FROM t
            WHERE v IS NOT NULL GROUP BY g, v ORDER BY g, v
        """)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_mode_ties_and_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_mode

        # deterministic tie: g=0 has a×2, b×2 → mode must be 'a'
        pdf = pd.DataFrame({
            "g": [0, 0, 0, 0, 1, 1, 1],
            "v": ["b", "a", "a", "b", "c", None, "c"],
        })
        outs = []
        for p in (1, 5):
            outs.append(
                grouped_mode(rd.from_pandas(pdf), ["g"], "v",
                             out_col="mode_v", num_partitions=p)
                .to_pandas().sort_values("g").reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        exp = self._oracle(pdf, """
            SELECT g, mode_v, mode_cnt FROM (
              SELECT g, v AS mode_v, CAST(count(*) AS BIGINT) AS mode_cnt,
                     row_number() OVER (PARTITION BY g
                                        ORDER BY count(*) DESC, v) AS rn
              FROM t WHERE v IS NOT NULL GROUP BY g, v
            ) WHERE rn = 1 ORDER BY g
        """)
        pd.testing.assert_frame_equal(outs[0], exp, check_dtype=False)
        assert outs[0].loc[outs[0]["g"] == 0, "mode_v"].iloc[0] == "a"

    def test_mode_random_matches_duckdb(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_mode

        pdf = self._mk(seed=11)
        got = (
            grouped_mode(rd.from_pandas(pdf), ["g"], "v", out_col="mode_v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT g, mode_v, mode_cnt FROM (
              SELECT g, v AS mode_v, CAST(count(*) AS BIGINT) AS mode_cnt,
                     row_number() OVER (PARTITION BY g
                                        ORDER BY count(*) DESC, v) AS rn
              FROM t WHERE v IS NOT NULL GROUP BY g, v
            ) WHERE rn = 1 ORDER BY g
        """)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_entropy_matches_duckdb(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_entropy

        pdf = self._mk(seed=13)
        # force one single-value group → entropy exactly +0.0
        pdf.loc[pdf["g"] == 19, "v"] = "a"
        got = (
            grouped_entropy(rd.from_pandas(pdf), ["g"], "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            WITH c AS (
              SELECT g, v, CAST(count(*) AS DOUBLE) AS cnt FROM t
              WHERE v IS NOT NULL GROUP BY g, v
            ), tot AS (SELECT g, sum(cnt) AS tt FROM c GROUP BY g)
            SELECT c.g, sum((cnt / tt) * ln(tt / cnt)) AS entropy
            FROM c JOIN tot USING (g) GROUP BY c.g ORDER BY c.g
        """)
        np.testing.assert_allclose(
            got["entropy"].to_numpy(), exp["entropy"].to_numpy(), rtol=1e-12
        )
        e19 = got.loc[got["g"] == 19, "entropy"].iloc[0]
        assert e19 == 0.0 and not np.signbit(e19)

    def test_corr_matches_duckdb_and_numpy(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_corr

        pdf = self._mk(seed=17, n=2000)
        pdf["y"] = pdf["x"] * 0.5 + pdf["y"]  # correlated
        pdf.loc[::37, "x"] = np.nan           # pairwise-null rows
        got = (
            grouped_corr(rd.from_pandas(pdf), ["g"], "x", "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            WITH s AS (
              SELECT g, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                     sum(x*x) AS sxx, sum(y*y) AS syy, sum(x*y) AS sxy
              FROM t WHERE x IS NOT NULL AND y IS NOT NULL GROUP BY g)
            SELECT g, CAST(n AS BIGINT) AS n,
                   (sxy - sx*sy/n) / (n-1) AS cov_xy,
                   ((sxy - sx*sy/n) / (n-1)) /
                   (sqrt((sxx - sx*sx/n)/(n-1)) *
                    sqrt((syy - sy*sy/n)/(n-1))) AS corr_xy
            FROM s ORDER BY g
        """)
        pd.testing.assert_frame_equal(
            got[["g", "n"]], exp[["g", "n"]], check_dtype=False
        )
        np.testing.assert_allclose(got["cov_xy"], exp["cov_xy"], rtol=1e-9)
        np.testing.assert_allclose(got["corr_xy"], exp["corr_xy"], rtol=1e-9)
        # sanity vs numpy on one group
        sub = pdf[(pdf["g"] == 3) & pdf["x"].notna()]
        ref = np.corrcoef(sub["x"], sub["y"])[0, 1]
        mine = got.loc[got["g"] == 3, "corr_xy"].iloc[0]
        np.testing.assert_allclose(mine, ref, rtol=1e-8)

    def test_corr_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_corr

        pdf = self._mk(seed=19, n=800)
        outs = [
            grouped_corr(rd.from_pandas(pdf), ["g"], "x", "y",
                         num_partitions=p)
            .to_pandas().sort_values("g").reset_index(drop=True)
            for p in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0][["g", "n"]], outs[1][["g", "n"]])
        np.testing.assert_allclose(outs[0]["corr_xy"], outs[1]["corr_xy"],
                                   rtol=1e-12)

    def test_regression_matches_duckdb_and_numpy(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_regression

        pdf = self._mk(seed=23, n=2000)
        pdf["y"] = pdf["x"] * 1.5 + pdf["y"]  # real slope signal
        pdf.loc[::41, "y"] = np.nan           # pairwise-null rows
        got = (
            grouped_regression(rd.from_pandas(pdf), ["g"], "x", "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            WITH s AS (
              SELECT g, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                     sum(x*x) AS sxx, sum(y*y) AS syy, sum(x*y) AS sxy
              FROM t WHERE x IS NOT NULL AND y IS NOT NULL GROUP BY g
            ), m AS (
              SELECT g, n, sxy - sx*sy/n AS cxy, sxx - sx*sx/n AS vxx,
                     syy - sy*sy/n AS vyy, sx, sy FROM s
            ), sl AS (SELECT *, cxy / vxx AS slope FROM m)
            SELECT g, CAST(n AS BIGINT) AS n, slope,
                   sy/n - slope*(sx/n) AS intercept,
                   (cxy*cxy) / (vxx*vyy) AS r2
            FROM sl ORDER BY g
        """)
        pd.testing.assert_frame_equal(
            got[["g", "n"]], exp[["g", "n"]], check_dtype=False
        )
        for c in ("slope", "intercept", "r2"):
            np.testing.assert_allclose(got[c], exp[c], rtol=1e-9)
        # sanity vs numpy least squares on one group
        sub = pdf[(pdf["g"] == 5) & pdf["y"].notna()]
        ref_slope, ref_icept = np.polyfit(sub["x"], sub["y"], 1)
        row = got.loc[got["g"] == 5].iloc[0]
        np.testing.assert_allclose(row["slope"], ref_slope, rtol=1e-8)
        np.testing.assert_allclose(row["intercept"], ref_icept, rtol=1e-8)
        r = np.corrcoef(sub["x"], sub["y"])[0, 1]
        np.testing.assert_allclose(row["r2"], r * r, rtol=1e-8)

    def test_moments_bitexact_vs_duckdb_on_ints(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_moments

        rng = np.random.default_rng(37)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 3000),
            "y": rng.integers(-50, 200, 3000),
        })
        pdf.loc[::53, "y"] = None
        # degenerate groups: constant (skew/kurt NULL), tiny n
        pdf.loc[pdf["g"] == 10, "y"] = 7
        pdf = pdf[~((pdf["g"] == 11) & (pdf.index % 3 != 0))]
        got = (
            grouped_moments(rd.from_pandas(pdf), ["g"], "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT g, CAST(count(y) AS BIGINT) AS n,
                   skewness(y) AS skew, kurtosis(y) AS kurt
            FROM t WHERE y IS NOT NULL GROUP BY g ORDER BY g
        """)
        pd.testing.assert_frame_equal(
            got[["g", "n"]], exp[["g", "n"]], check_dtype=False
        )
        for c in ("skew", "kurt"):
            ge, ee = got[c].to_numpy(), exp[c].to_numpy()
            assert (np.isnan(ge) == np.isnan(ee)).all(), c
            m = ~np.isnan(ge)
            np.testing.assert_array_equal(ge[m], ee[m], err_msg=c)

    def test_moments_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_moments

        rng = np.random.default_rng(41)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 900),
            "y": rng.integers(0, 100, 900),
        })
        outs = [
            grouped_moments(rd.from_pandas(pdf).repartition(p), ["g"], "y",
                            num_partitions=np_)
            .to_pandas().sort_values("g").reset_index(drop=True)
            for p, np_ in ((1, 3), (7, 5))
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_regression_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_regression

        pdf = self._mk(seed=29, n=800)
        outs = [
            grouped_regression(rd.from_pandas(pdf), ["g"], "x", "y",
                               num_partitions=p)
            .to_pandas().sort_values("g").reset_index(drop=True)
            for p in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0][["g", "n"]], outs[1][["g", "n"]])
        np.testing.assert_allclose(outs[0]["slope"], outs[1]["slope"],
                                   rtol=1e-12)
        np.testing.assert_allclose(outs[0]["intercept"], outs[1]["intercept"],
                                   rtol=1e-12)


class TestHistogram:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    def test_matches_duckdb_with_edges(self, ray_session):
        from recipys_ray.ops.quantiles import histogram

        rng = np.random.default_rng(31)
        v = rng.uniform(-5, 105, 3000)
        v[::17] = np.nan            # dropped
        v[0], v[1] = 0.0, 100.0     # lo inclusive; hi clips to last bucket
        v[2], v[3] = -0.0001, 100.0001  # out of range — dropped
        pdf = pd.DataFrame({"v": v})
        got = (
            histogram(rd.from_pandas(pdf), "v", lo=0.0, hi=100.0, nbins=7)
            .to_pandas().sort_values("bucket").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            WITH x AS (SELECT v FROM t WHERE v >= 0.0 AND v <= 100.0),
            b AS (SELECT LEAST(CAST(floor((v - 0.0) / ((100.0 - 0.0) / 7))
                                    AS BIGINT), 6) AS bucket FROM x)
            SELECT bucket,
                   0.0 + CAST(bucket AS DOUBLE) * ((100.0 - 0.0) / 7)
                     AS lo_edge,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM b GROUP BY bucket ORDER BY bucket
        """)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # edges bit-equal, total = in-range count
        np.testing.assert_array_equal(got["lo_edge"].to_numpy(),
                                      exp["lo_edge"].to_numpy())
        in_range = ((v >= 0.0) & (v <= 100.0)).sum()
        assert got["cnt"].sum() == in_range

    def test_partition_invariance_and_empty(self, ray_session):
        from recipys_ray.ops.quantiles import histogram

        pdf = pd.DataFrame({"v": np.linspace(0, 10, 97)})
        outs = [
            histogram(rd.from_pandas(pdf).repartition(p), "v",
                      lo=0.0, hi=10.0, nbins=4)
            .to_pandas().sort_values("bucket").reset_index(drop=True)
            for p in (1, 6)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        assert outs[0]["cnt"].sum() == 97
        # all values out of range → zero rows (SQL GROUP BY shape)
        empty = histogram(rd.from_pandas(pdf), "v", lo=100.0, hi=200.0,
                          nbins=4).to_pandas()
        assert len(empty) == 0


class TestValueRanks:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    def test_matches_duckdb_with_nulls(self, ray_session):
        from recipys_ray.ops.rank import value_ranks

        rng = np.random.default_rng(23)
        pdf = pd.DataFrame({
            "id": np.arange(400),
            "q": rng.choice([1.0, 2.5, 2.5, 7.0, 9.0, np.nan], 400),
        })
        got = (
            value_ranks(rd.from_pandas(pdf), "q")
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT id,
                   CAST(dense_rank() OVER (ORDER BY q) AS BIGINT)
                     AS dense_rank,
                   percent_rank() OVER (ORDER BY q) AS pct_rank
            FROM t ORDER BY id
        """)
        pd.testing.assert_frame_equal(
            got[["id", "dense_rank"]], exp[["id", "dense_rank"]],
            check_dtype=False,
        )
        # bit-safe float contract: identical IEEE division both sides
        assert (got["pct_rank"].to_numpy() == exp["pct_rank"].to_numpy()).all()

    def test_cap_raises(self, ray_session):
        from recipys_ray.ops.rank import value_ranks

        pdf = pd.DataFrame({"q": np.arange(100, dtype=np.float64)})
        with pytest.raises(ValueError, match="driver_cap"):
            value_ranks(rd.from_pandas(pdf), "q", driver_cap=10).count()


class TestMergeIntervals:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    _SQL = """
        WITH x AS (
          SELECT g, s, e,
                 max(e) OVER (PARTITION BY g ORDER BY s, e
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS pm
          FROM t
        ), y AS (
          SELECT g, s, e,
                 CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END AS brk
          FROM x
        ), z AS (
          SELECT g, s, e,
                 sum(brk) OVER (PARTITION BY g ORDER BY s, e
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) AS isl
          FROM y
        )
        SELECT g, min(s) AS span_start, max(e) AS span_end,
               CAST(count(*) AS BIGINT) AS n_merged
        FROM z GROUP BY g, isl
        ORDER BY g, span_start
    """

    def test_matches_duckdb_random(self, ray_session):
        from recipys_ray.ops.intervals import merge_intervals

        rng = np.random.default_rng(31)
        s = rng.integers(0, 1000, 600)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, 600),
            "s": s,
            "e": s + rng.integers(0, 40, 600),
        })
        got = (
            merge_intervals(rd.from_pandas(pdf), ["g"], "s", "e")
            .to_pandas().sort_values(["g", "span_start"])
            .reset_index(drop=True)
        )
        exp = self._oracle(pdf, self._SQL).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_touching_merge_and_nulls(self, ray_session):
        from recipys_ray.ops.intervals import merge_intervals

        pdf = pd.DataFrame({
            "g": [0, 0, 0, 0, 1],
            "s": [0.0, 10.0, 25.0, np.nan, 5.0],
            "e": [10.0, 20.0, 30.0, 50.0, 9.0],
        })
        got = (
            merge_intervals(rd.from_pandas(pdf), ["g"], "s", "e")
            .to_pandas().sort_values(["g", "span_start"])
            .reset_index(drop=True)
        )
        # [0,10] touches [10,20] -> one island; [25,30] separate; null s
        # dropped; g=1 single
        assert got["n_merged"].tolist() == [2, 1, 1]
        assert got.loc[0, "span_start"] == 0.0 and got.loc[0, "span_end"] == 20.0

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.intervals import merge_intervals

        rng = np.random.default_rng(37)
        s = rng.integers(0, 500, 400)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, 400),
            "s": s,
            "e": s + rng.integers(0, 30, 400),
        })
        outs = [
            merge_intervals(rd.from_pandas(pdf), ["g"], "s", "e",
                            num_partitions=p)
            .to_pandas().sort_values(["g", "span_start"])
            .reset_index(drop=True)
            for p in (1, 6)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestTransitionCounts:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    def test_matches_duckdb(self, ray_session):
        from recipys_ray.ops.groupstats import transition_counts

        rng = np.random.default_rng(41)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 25, 800),
            "o": np.arange(800),
            "v": rng.choice(["a", "b", "c", None], 800,
                            p=[0.4, 0.35, 0.2, 0.05]),
        })
        got = (
            transition_counts(rd.from_pandas(pdf), ["g"], ["o"], "v",
                              from_col="f", to_col="t2")
            .to_pandas().sort_values(["f", "t2"], na_position="last")
            .reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            SELECT f, t2, CAST(count(*) AS BIGINT) AS cnt FROM (
              SELECT v AS f,
                     lead(v) OVER (PARTITION BY g ORDER BY o) AS t2
              FROM t
            ) WHERE t2 IS NOT NULL
            GROUP BY f, t2 ORDER BY f NULLS LAST, t2 NULLS LAST
        """).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_single_row_groups_emit_nothing(self, ray_session):
        from recipys_ray.ops.groupstats import transition_counts

        pdf = pd.DataFrame({"g": [1, 2, 3], "o": [0, 0, 0],
                            "v": ["a", "b", "c"]})
        got = transition_counts(
            rd.from_pandas(pdf), ["g"], ["o"], "v"
        ).to_pandas()
        assert len(got) == 0


class TestStateNgramCounts:
    def test_matches_duckdb_k3(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import state_ngram_counts

        rng = np.random.default_rng(43)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 25, 900),
            "o": np.arange(900),
            "v": rng.choice(["a", "b", "c", None], 900,
                            p=[0.4, 0.35, 0.2, 0.05]),
        })
        got = (
            state_ngram_counts(rd.from_pandas(pdf), ["g"], ["o"], "v",
                               k=3)
            .to_pandas()
            .sort_values(["s1", "s2", "s3"], na_position="last")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT s1, s2, s3, CAST(count(*) AS BIGINT) AS cnt FROM (
              SELECT v AS s1,
                     lead(v, 1) OVER (PARTITION BY g ORDER BY o) AS s2,
                     lead(v, 2) OVER (PARTITION BY g ORDER BY o) AS s3
              FROM t
            ) WHERE s2 IS NOT NULL AND s3 IS NOT NULL
            GROUP BY s1, s2, s3
            ORDER BY s1 NULLS LAST, s2 NULLS LAST, s3 NULLS LAST
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_k2_equals_transition_counts(self, ray_session):
        from recipys_ray.ops.groupstats import (
            state_ngram_counts,
            transition_counts,
        )

        rng = np.random.default_rng(44)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, 300),
            "o": np.arange(300),
            "v": rng.choice(["x", "y", "z"], 300),
        })
        a = (
            state_ngram_counts(rd.from_pandas(pdf), ["g"], ["o"], "v",
                               k=2, state_cols=["f", "t2"])
            .to_pandas().sort_values(["f", "t2"]).reset_index(drop=True)
        )
        b = (
            transition_counts(rd.from_pandas(pdf), ["g"], ["o"], "v",
                              from_col="f", to_col="t2")
            .to_pandas().sort_values(["f", "t2"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_short_groups_emit_nothing(self, ray_session):
        from recipys_ray.ops.groupstats import state_ngram_counts

        pdf = pd.DataFrame({"g": [1, 1, 2], "o": [0, 1, 0],
                            "v": ["a", "b", "c"]})
        got = state_ngram_counts(
            rd.from_pandas(pdf), ["g"], ["o"], "v", k=3
        ).to_pandas()
        assert len(got) == 0


class TestMannKendall:
    SQL = """
        SELECT a.g AS g,
               CAST(SUM(CASE WHEN b.v > a.v THEN 1
                             WHEN b.v < a.v THEN -1 ELSE 0 END)
                    AS BIGINT) AS s,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM t a JOIN t b ON a.g = b.g AND b.o > a.o
        GROUP BY a.g ORDER BY a.g
    """

    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import mann_kendall

        rng = np.random.default_rng(53)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 30, 1000),
            # duplicate order keys exercise the strict-inequality mask
            "o": rng.integers(0, 40, 1000),
            "v": rng.integers(-50, 50, 1000),
        })
        got = (
            mann_kendall(rd.from_pandas(pdf), ["g"], "o", "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self.SQL).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_pre_sum_equals_pre_aggregated(self, ray_session):
        from recipys_ray.ops.groupstats import mann_kendall

        rng = np.random.default_rng(54)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 600),
            "o": rng.integers(0, 15, 600),
            "v": rng.integers(0, 100, 600),
        })
        agg = pdf.groupby(["g", "o"], as_index=False)["v"].sum()
        a = (
            mann_kendall(rd.from_pandas(pdf), ["g"], "o", "v",
                         pre_sum=True)
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        b = (
            mann_kendall(rd.from_pandas(agg), ["g"], "o", "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_single_point_and_all_tied_groups_emit_nothing(
        self, ray_session
    ):
        from recipys_ray.ops.groupstats import mann_kendall

        pdf = pd.DataFrame({
            "g": [1, 2, 2, 3, 3],
            "o": [0, 5, 5, 1, 2],
            "v": [9, 1, 2, 3, 4],
        })
        got = (
            mann_kendall(rd.from_pandas(pdf), ["g"], "o", "v")
            .to_pandas()
        )
        # g=1 has one point, g=2 only tied order keys → only g=3 emits
        assert sorted(got["g"].tolist()) == [3]
        assert got["s"].tolist() == [1]

    def test_group_size_guard(self, ray_session):
        from recipys_ray.ops.groupstats import mann_kendall

        pdf = pd.DataFrame({
            "g": np.zeros(50, np.int64),
            "o": np.arange(50),
            "v": np.arange(50),
        })
        with pytest.raises(Exception, match="max_group_rows"):
            mann_kendall(
                rd.from_pandas(pdf), ["g"], "o", "v", max_group_rows=10
            ).to_pandas()


class TestTheilSen:
    SQL = """
        WITH s AS (
          SELECT a.g,
                 CAST(b.v - a.v AS DOUBLE) / CAST(b.o - a.o AS DOUBLE)
                   AS slope
          FROM t a JOIN t b ON a.g = b.g AND b.o > a.o
        )
        SELECT g, quantile_disc(slope, 0.5) AS theil_sen,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM s GROUP BY g ORDER BY g
    """

    def test_matches_duckdb_bit_exact(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import theil_sen

        rng = np.random.default_rng(61)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 30, 1000),
            # duplicate order keys exercise the undefined-slope mask
            "o": rng.integers(0, 40, 1000),
            "v": rng.integers(-50, 50, 1000),
        })
        got = (
            theil_sen(rd.from_pandas(pdf), ["g"], "o", "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self.SQL).df().reset_index(drop=True)
        # the lower-median contract is BIT equality, not allclose
        assert got["theil_sen"].to_numpy().tobytes() == \
            exp["theil_sen"].to_numpy().tobytes()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_partition_count_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import theil_sen

        rng = np.random.default_rng(62)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 400),
            "o": rng.integers(0, 25, 400),
            "v": rng.integers(0, 9, 400),
        })
        outs = [
            theil_sen(
                rd.from_pandas(pdf).repartition(p), ["g"], "o", "v",
                num_partitions=np_,
            ).to_pandas().sort_values("g").reset_index(drop=True)
            for p, np_ in [(1, 3), (7, 5), (16, 2)]
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        pd.testing.assert_frame_equal(outs[0], outs[2])

    def test_known_slope_and_empty_groups(self, ray_session):
        from recipys_ray.ops.groupstats import theil_sen

        pdf = pd.DataFrame({
            # g=1: perfect line slope 3; g=2 single point; g=3 tied order
            "g": [1, 1, 1, 2, 3, 3],
            "o": [0, 1, 2, 0, 4, 4],
            "v": [10, 13, 16, 5, 1, 2],
        })
        got = (
            theil_sen(rd.from_pandas(pdf), ["g"], "o", "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert got["g"].tolist() == [1]
        assert got["theil_sen"].tolist() == [3.0]
        assert got["n_pairs"].tolist() == [3]


class TestCumulativeDistinct:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import cumulative_distinct

        rng = np.random.default_rng(47)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 20, 600),
            "o": np.arange(600),
            "v": rng.choice(["a", "b", "c", "d", None], 600,
                            p=[0.3, 0.3, 0.2, 0.15, 0.05]),
        })
        got = (
            cumulative_distinct(rd.from_pandas(pdf), ["g"], ["o"], "v",
                                out_col="nd")
            .to_pandas().sort_values(["g", "o"]).reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT g, o, CAST(count(DISTINCT v) OVER (
                PARTITION BY g ORDER BY o
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
            ) AS BIGINT) AS nd
            FROM t ORDER BY g, o
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import cumulative_distinct

        rng = np.random.default_rng(48)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 300),
            "o": np.arange(300),
            "v": rng.choice(list("xyz"), 300),
        })
        outs = []
        for nparts in (1, 7):
            got = (
                cumulative_distinct(
                    rd.from_pandas(pdf).repartition(nparts),
                    ["g"], ["o"], "v", num_partitions=3,
                )
                .to_pandas().sort_values(["g", "o"]).reset_index(drop=True)
            )
            outs.append(got)
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestGroupedAuc:
    def test_matches_pair_count_reference(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_auc

        rng = np.random.default_rng(49)
        n = 900
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, n),
            "s": np.round(rng.normal(size=n), 1),  # force ties
            "y": rng.random(n) < 0.4,
        })
        pdf.loc[rng.integers(0, n, 20), "s"] = np.nan
        got = (
            grouped_auc(rd.from_pandas(pdf), ["g"], "s", "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        # scalar O(n^2) pair-count reference per group
        rows = []
        for g, sub in pdf.dropna(subset=["s"]).groupby("g"):
            pos = sub[sub["y"]]["s"].to_numpy()
            neg = sub[~sub["y"]]["s"].to_numpy()
            if len(pos) == 0 or len(neg) == 0:
                continue
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            rows.append({
                "g": g,
                "auc": float((2 * wins + ties)
                             / np.float64(2 * len(pos) * len(neg))),
                "n_pos": len(pos), "n_neg": len(neg),
            })
        exp = pd.DataFrame(rows).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_single_class_groups_dropped(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_auc

        pdf = pd.DataFrame({
            "g": [1, 1, 2, 2], "s": [1.0, 2.0, 3.0, 4.0],
            "y": [True, True, True, False],
        })
        got = grouped_auc(rd.from_pandas(pdf), ["g"], "s", "y").to_pandas()
        assert got["g"].tolist() == [2]
        assert got["auc"].tolist() == [0.0]


class TestFeatureHash:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.encode import feature_hash

        pdf = pd.DataFrame({
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "the quick brown fox the fox",
                "Hello, WORLD! hello",
                None,
                "",
                "héllo wörld 漢字 42 foo_bar",
                "a a a b",
            ],
        })
        got = (
            feature_hash(rd.from_pandas(pdf), "doc_id", "text",
                         num_buckets=16)
            .to_pandas().sort_values(["doc_id", "bucket"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS token
              FROM t
            )
            SELECT doc_id, CAST(hash(token) % 16 AS BIGINT) AS bucket,
                   CAST(sum(CASE WHEN (hash(token) // 16) % 2 = 0
                                 THEN 1 ELSE -1 END) AS BIGINT) AS weight
            FROM tok GROUP BY doc_id, bucket
            ORDER BY doc_id, bucket
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestGroupedRobustZscore:
    def test_matches_duckdb_with_mad_zero_and_nulls(self, ray_session):
        import duckdb

        from recipys_ray.ops.quantiles import grouped_robust_zscore

        rng = np.random.default_rng(51)
        n = 500
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, n),
            "i": np.arange(n, dtype=np.int64),
            "v": np.round(rng.normal(50, 20, n), 2),
        })
        pdf.loc[pdf["g"] == 3, "v"] = 7.0      # MAD = 0 group
        pdf.loc[rng.integers(0, n, 15), "v"] = np.nan
        pdf.loc[pdf["g"] == 5, "v"] = np.nan   # all-null group
        got = (
            grouped_robust_zscore(rd.from_pandas(pdf), "g", "v", ["i"],
                                  k=2.5)
            .to_pandas().sort_values("i").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH med AS (
              SELECT g, quantile_disc(v, 0.5) AS med FROM t GROUP BY g
            ), d AS (
              SELECT t.i, t.g, t.v - m.med AS dev
              FROM t JOIN med m ON t.g = m.g
            ), mad AS (
              SELECT g, quantile_disc(abs(dev), 0.5) AS mad
              FROM d GROUP BY g
            )
            SELECT d.i, d.dev / m2.mad AS rz,
                   abs(d.dev) > 2.5 * m2.mad AS is_outlier
            FROM d JOIN mad m2 ON d.g = m2.g ORDER BY d.i
        """).df().reset_index(drop=True)
        gv = got["rz"].astype(float).to_numpy()
        ev = exp["rz"].astype(float).to_numpy()
        assert np.all((gv == ev) | (np.isnan(gv) & np.isnan(ev)))
        gf = got["is_outlier"].to_numpy(object)
        ef = exp["is_outlier"].to_numpy(object)
        assert all(
            (a is None or a is pd.NA or (isinstance(a, float) and np.isnan(a)))
            == (b is None or (isinstance(b, float) and np.isnan(b)))
            or bool(a) == bool(b)
            for a, b in zip(gf, ef)
        )


class TestCmsCounts:
    def test_matches_sql_and_bounds(self, ray_session):
        import duckdb

        from recipys_ray.ops.frequent import cms_counts

        rng = np.random.default_rng(57)
        pdf = pd.DataFrame({
            "u": (rng.zipf(1.5, 3000) % 80).astype(np.int64)
        })
        items = list(range(30))
        got = (
            cms_counts(rd.from_pandas(pdf).repartition(7), "u", items,
                       width=64, depth=3)
            .sort_values("u").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH seeds AS (SELECT unnest(range(0, 3)) AS j),
            buckets AS (
              SELECT s.j, hash(xor(t.u, s.j * 1099511628211)) % 64 AS b,
                     CAST(count(*) AS BIGINT) AS tot
              FROM t CROSS JOIN seeds s GROUP BY s.j, b
            ),
            q AS (SELECT unnest(range(0, 30)) AS u)
            SELECT q.u, CAST(min(bk.tot) AS BIGINT) AS est
            FROM q JOIN seeds s ON true
            JOIN buckets bk
              ON bk.j = s.j
             AND bk.b = hash(xor(q.u, s.j * 1099511628211)) % 64
            GROUP BY q.u ORDER BY q.u
        """).df().reset_index(drop=True)
        assert got["est"].tolist() == exp["est"].tolist()
        # CMS never underestimates
        true = pdf["u"].value_counts()
        for u, e in zip(got["u"], got["est"]):
            assert e >= true.get(u, 0)

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.frequent import cms_counts

        rng = np.random.default_rng(58)
        pdf = pd.DataFrame({"u": rng.integers(0, 40, 500)})
        outs = [
            cms_counts(rd.from_pandas(pdf).repartition(np_), "u",
                       list(range(10)), width=32, depth=2)
            for np_ in (1, 9)
        ]
        assert outs[0]["est"].tolist() == outs[1]["est"].tolist()


class TestInterarrival:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.pipelines.driver_queries import q_interarrival

        # exercised through the query composition over real testdata
        got = (
            q_interarrival("/root/testdata/sf0.001")
            .to_pandas().sort_values("user_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        exp = con.execute("""
            WITH g AS (
              SELECT user_id,
                     epoch_us(ts) - lag(epoch_us(ts)) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id
                     ) AS gap
              FROM read_parquet('/root/testdata/sf0.001/events.parquet')
            )
            SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps,
                   CAST(sum(gap) AS DOUBLE) / CAST(count(gap) AS DOUBLE)
                       AS avg_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us,
                   CAST(quantile_disc(gap, 0.5) AS BIGINT) AS p50_gap_us
            FROM g WHERE gap IS NOT NULL GROUP BY user_id
            ORDER BY user_id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[exp.columns.tolist()], exp, check_dtype=False
        )


class TestBigramLm:
    def test_matches_sequential_reference(self, ray_session):
        import math
        import re

        from recipys_ray.ops.text import bigram_lm_score

        docs = [
            "the cat sat on the mat",
            "the cat sat",
            "on the mat the cat",
            "one",          # < 2 words -> NULL floats
            "",
            None,
            "dog dog dog dog",
        ]
        pdf = pd.DataFrame({
            "doc_id": np.arange(len(docs), dtype=np.int64), "text": docs
        })
        K = 3
        got = (
            bigram_lm_score(rd.from_pandas(pdf), top_k=K)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        # sequential reference
        toks = [re.findall(r"\w+", (t or "").lower()) for t in docs]
        bgs = [[f"{a} {b}" for a, b in zip(t, t[1:])] for t in toks]
        from collections import Counter
        bc = Counter(g for d in bgs for g in d)
        uc = Counter(w for d in toks for w in d)
        top_b = dict(sorted(bc.items(), key=lambda kv: (-kv[1], kv[0]))[:K])
        top_u = dict(sorted(uc.items(), key=lambda kv: (-kv[1], kv[0]))[:K])
        for i, d in enumerate(bgs):
            assert got.loc[i, "n_bigrams"] == len(d)
            assert got.loc[i, "known_bigrams"] == sum(
                1 for g in d if g in top_b
            )
            assert got.loc[i, "bigram_count_sum"] == sum(
                top_b.get(g, 0) for g in d
            )
            assert got.loc[i, "ctx_count_sum"] == sum(
                top_u.get(g.split(" ")[0], 0) for g in d
            )
            if len(d):
                ref = sum(
                    math.log((top_b.get(g, 0) + 1.0)
                             / (top_u.get(g.split(" ")[0], 0) + float(K)))
                    for g in d
                ) / len(d)
                assert abs(got.loc[i, "bigram_logprob_mean"] - ref) < 1e-12
            else:
                assert np.isnan(got.loc[i, "bigram_logprob_mean"])


class TestGroupedFirstLast:
    def test_matches_duckdb_with_nulls(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import grouped_first_last

        rng = np.random.default_rng(71)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, 400),
            "o": rng.permutation(400).astype(np.int64),
            "v": rng.choice(["a", "b", None], 400, p=[0.5, 0.4, 0.1]),
        })
        got = (
            grouped_first_last(
                rd.from_pandas(pdf).repartition(7), ["g"], ["o"], "v",
                num_partitions=3,
            )
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT g, first(v ORDER BY o) AS first_v,
                   last(v ORDER BY o) AS last_v
            FROM t GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        got.columns = ["g", "first_v", "last_v"]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_cross_block_ordering(self, ray_session):
        # blocks deliberately interleave orders so a naive fold that
        # forgets the tail's own order keys picks the wrong "last"
        from recipys_ray.ops.groupstats import grouped_first_last

        pdf = pd.DataFrame({
            "g": [1, 1, 1, 1],
            "o": [1, 100, 2, 3],
            "v": ["first", "true-last", "mid", "decoy-last"],
        })
        got = grouped_first_last(
            rd.from_pandas(pdf).repartition(2), ["g"], ["o"], "v",
            num_partitions=1,
        ).to_pandas()
        assert got["first_v"].tolist() == ["first"]
        assert got["last_v"].tolist() == ["true-last"]


class TestDecayedSum:
    def test_bit_matches_duckdb_lag_chain(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import decayed_sum

        rng = np.random.default_rng(67)
        n = 600
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, n),
            "o": np.arange(n, dtype=np.int64),
            "v": np.round(rng.normal(100, 30, n), 3),
        })
        pdf.loc[rng.integers(0, n, 60), "v"] = np.nan
        got = (
            decayed_sum(rd.from_pandas(pdf), ["g"], ["o"], "v",
                        horizon=4, decay=0.5)
            .to_pandas().sort_values(["g", "o"]).reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH l AS (
              SELECT g, o, v,
                     lag(v, 1) OVER w AS l1, lag(v, 2) OVER w AS l2,
                     lag(v, 3) OVER w AS l3
              FROM t WINDOW w AS (PARTITION BY g ORDER BY o)
            ), e AS (
              SELECT g, o,
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
            SELECT g, o, CASE WHEN den = 0 THEN NULL
                              ELSE num / den END AS decayed
            FROM e ORDER BY g, o
        """).df().reset_index(drop=True)
        a = got["decayed"].to_numpy(np.float64)
        b = exp["decayed"].to_numpy(np.float64)
        assert np.all((a == b) | (np.isnan(a) & np.isnan(b)))

    def test_unnormalized_is_plain_decayed_sum(self, ray_session):
        from recipys_ray.ops.groupstats import decayed_sum

        pdf = pd.DataFrame({"g": [1] * 4, "o": range(4),
                            "v": [8.0, 4.0, 2.0, 1.0]})
        got = (
            decayed_sum(rd.from_pandas(pdf), ["g"], ["o"], "v",
                        horizon=3, decay=0.5, normalize=False)
            .to_pandas().sort_values("o")["decayed"].tolist()
        )
        assert got == [8.0, 8.0, 6.0, 3.0]


class TestSegmentPsi:
    def test_matches_duckdb_and_zero_for_identical(self, ray_session):
        import duckdb

        from recipys_ray.ops.drift import segment_psi

        rng = np.random.default_rng(63)
        pdf = pd.DataFrame({
            "seg": rng.choice(["a", "b", "c"], 2000),
            "v": rng.normal(50, 15, 2000),
        })
        got = segment_psi(
            rd.from_pandas(pdf).repartition(5), "seg", "v",
            lo=0.0, hi=100.0, nbins=10,
        ).sort_values(["seg", "bucket"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH h AS (
              SELECT seg, LEAST(CAST(floor((v - 0.0) / ((100.0-0.0)/10))
                                AS BIGINT), 9) AS bucket,
                     CAST(count(*) AS BIGINT) AS c
              FROM t WHERE v >= 0.0 AND v <= 100.0 AND seg IS NOT NULL
              GROUP BY seg, bucket
            ), tot AS (SELECT seg, CAST(sum(c) AS DOUBLE) t
                       FROM h GROUP BY seg),
            g AS (SELECT bucket, CAST(sum(c) AS DOUBLE) gc
                  FROM h GROUP BY bucket),
            n AS (SELECT CAST(sum(c) AS DOUBLE) na FROM h)
            SELECT h.seg, h.bucket,
                   CAST(h.c AS DOUBLE)/tot.t AS p_seg,
                   g.gc/n.na AS p_all,
                   (CAST(h.c AS DOUBLE)/tot.t - g.gc/n.na)
                     * ln((CAST(h.c AS DOUBLE)/tot.t)/(g.gc/n.na))
                     AS psi_term
            FROM h JOIN tot USING (seg) JOIN g USING (bucket), n
            ORDER BY seg, bucket
        """).df().reset_index(drop=True)
        for c in ["p_seg", "p_all"]:
            assert np.array_equal(got[c].to_numpy(), exp[c].to_numpy()), c
        # psi_term carries the documented 1-ulp libm ln drift class
        np.testing.assert_allclose(
            got["psi_term"].to_numpy(), exp["psi_term"].to_numpy(),
            rtol=1e-14, atol=0,
        )
        # a segment that IS the corpus scores ~0 per term
        one = pd.DataFrame({"seg": ["x"] * 300,
                            "v": rng.normal(50, 15, 300)})
        z = segment_psi(rd.from_pandas(one), "seg", "v", 0.0, 100.0, 10)
        assert np.allclose(z["psi_term"], 0.0)


class TestTimeSplit:
    def test_matches_duckdb_quantile_disc(self, ray_session):
        import duckdb

        from recipys_ray.ops.sampling import time_split

        rng = np.random.default_rng(53)
        ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 10**9, 500), unit="us"
        )
        pdf = pd.DataFrame({"i": np.arange(500, dtype=np.int64), "ts": ts})
        pdf.loc[rng.integers(0, 500, 5), "ts"] = pd.NaT
        got = (
            time_split(rd.from_pandas(pdf), "ts", 0.75)
            .to_pandas().sort_values("i").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT i, CASE WHEN ts <= (SELECT quantile_disc(ts, 0.75)
                                       FROM t)
                           THEN 'train' ELSE 'test' END AS split
            FROM t ORDER BY i
        """).df().reset_index(drop=True)
        assert got["split"].tolist() == exp["split"].tolist()
        # ceil(0.75 * 495 non-null) = 372 train rows (unique timestamps)
        assert (got["split"] == "train").sum() == 372

    def test_bad_frac_raises(self, ray_session):
        from recipys_ray.ops.sampling import time_split

        pdf = pd.DataFrame({"ts": pd.to_datetime(["2024-01-01"])})
        with pytest.raises(ValueError, match="train_frac"):
            time_split(rd.from_pandas(pdf), "ts", 1.0)


class TestPmiBigrams:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import pmi_bigrams

        docs = pd.DataFrame({"text": [
            "new york city is in new york state",
            "san francisco and new york",
            "the city of san francisco",
            "machine learning and machine translation",
            None,
            "",
        ]})
        got = pmi_bigrams(rd.from_pandas(docs), top_k=10)
        got = got.sort_values("bigram").reset_index(drop=True)
        con = duckdb.connect()
        con.register("documents", docs)
        from recipys_ray.pipelines.driver_queries import ORACLES
        sql = ORACLES["pmi_bigrams"].replace("LIMIT 100", "LIMIT 10")
        exp = con.execute(sql).df().sort_values("bigram").reset_index(
            drop=True
        )
        pd.testing.assert_frame_equal(
            got[["bigram", "cnt"]], exp[["bigram", "cnt"]],
            check_dtype=False,
        )
        np.testing.assert_allclose(got["pmi"], exp["pmi"], rtol=1e-12)
        # collocations score above glue: "san francisco" > "and new"
        p = got.set_index("bigram")["pmi"]
        if "san francisco" in p.index and "and new" in p.index:
            assert p["san francisco"] > p["and new"]

    def test_empty_corpus(self, ray_session):
        from recipys_ray.ops.text import pmi_bigrams

        docs = pd.DataFrame({"text": ["one", "", None]})  # no bigrams
        out = pmi_bigrams(rd.from_pandas(docs), top_k=5)
        assert len(out) == 0
        assert list(out.columns) == ["bigram", "cnt", "pmi"]


class TestPcaProject:
    @staticmethod
    def _mk(n=300, d=8, seed=43):
        rng = np.random.default_rng(seed)
        # anisotropic cloud so components are well-separated
        basis = rng.normal(size=(d, d))
        scales = np.linspace(3.0, 0.1, d)
        x = rng.normal(size=(n, d)) * scales @ basis + rng.normal(size=d)
        return pd.DataFrame({
            "vec_id": np.arange(n),
            "embedding": [row.astype(np.float32).tolist() for row in x],
        })

    def test_matches_numpy_reference(self, ray_session):
        from recipys_ray.ops.pca import fit_pca, pca_project

        pdf = self._mk()
        ds = rd.from_pandas(pdf)
        mu, comps, evals = fit_pca(ds, "embedding", k=3)
        # orthonormal rows, descending eigenvalues
        np.testing.assert_allclose(comps @ comps.T, np.eye(3), atol=1e-10)
        assert evals[0] >= evals[1] >= evals[2] > 0
        # covariance eigenvalues match numpy on the quantized data
        mat = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
        q = np.rint(mat * 65536.0)
        ref = np.linalg.eigvalsh(np.cov(q, rowvar=False))[::-1][:3]
        np.testing.assert_allclose(evals, ref, rtol=1e-8)
        # projected variance per component ≈ eigenvalue (quantized units)
        z = (
            pca_project(ds, "embedding", k=3)
            .to_pandas().sort_values("vec_id").reset_index(drop=True)
        )
        zm = z[["pc0", "pc1", "pc2"]].to_numpy() * 65536.0
        np.testing.assert_allclose(zm.var(axis=0, ddof=1), evals, rtol=1e-8)

    def test_partition_invariance_bit_exact(self, ray_session):
        from recipys_ray.ops.pca import pca_project

        pdf = self._mk(seed=47)
        outs = []
        for nb in (1, 7):
            ds = rd.from_pandas(pdf).repartition(nb)
            outs.append(
                pca_project(ds, "embedding", k=4)
                .to_pandas().sort_values("vec_id").reset_index(drop=True)
            )
        for c in ["pc0", "pc1", "pc2", "pc3"]:
            # BIT equality, not allclose — the golden-oracle contract
            assert (
                outs[0][c].to_numpy() == outs[1][c].to_numpy()
            ).all(), c

    def test_k_exceeds_dim_raises(self, ray_session):
        from recipys_ray.ops.pca import fit_pca

        with pytest.raises(ValueError, match="exceeds"):
            fit_pca(rd.from_pandas(self._mk(d=4)), "embedding", k=5)


class TestTargetEncode:
    def test_matches_duckdb_and_semantics(self, ray_session):
        import duckdb
        from recipys_ray.ops.encode import target_encode

        rng = np.random.default_rng(53)
        pdf = pd.DataFrame({
            "event_id": np.arange(500),
            "event_type": rng.choice(["a", "b", "c", None], 500,
                                     p=[0.5, 0.3, 0.15, 0.05]),
            "value": np.where(rng.random(500) < 0.05, np.nan,
                              rng.normal(10, 3, 500)),
        })
        got = (
            target_encode(rd.from_pandas(pdf), "event_type", "value", m=20.0)
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", pdf)
        from recipys_ray.pipelines.driver_queries import ORACLES
        exp = con.execute(ORACLES["target_encode"]).df().sort_values(
            "event_id"
        ).reset_index(drop=True)
        np.testing.assert_allclose(
            got["te_event_type"], exp["te_event_type"], rtol=1e-12
        )
        # freq is exact-int division — bit-equal
        assert (
            got["freq_event_type"].to_numpy()
            == exp["freq_event_type"].to_numpy()
        ).all()
        # null category rows take the prior and freq 0
        nulls = got[pdf["event_type"].isna().to_numpy()]
        prior = exp.loc[pdf["event_type"].isna().to_numpy(),
                        "te_event_type"].iloc[0]
        assert np.allclose(nulls["te_event_type"], prior)
        assert (nulls["freq_event_type"] == 0.0).all()
        # smoothing shrinks small categories toward the prior
        raw_c = pdf[pdf["event_type"] == "c"]["value"].mean()
        te_c = got.loc[pdf["event_type"].to_numpy() == "c",
                       "te_event_type"].iloc[0]
        assert abs(te_c - prior) < abs(raw_c - prior)

    def test_no_rows_raises(self, ray_session):
        from recipys_ray.ops.encode import target_encode

        pdf = pd.DataFrame({"c": ["a", "b"], "v": [np.nan, np.nan]})
        with pytest.raises(ValueError, match="no non-null"):
            target_encode(rd.from_pandas(pdf), "c", "v")


class TestDedupAgainst:
    def test_matches_sql_not_exists(self, ray_session):
        import duckdb

        from recipys_ray.ops.dedup import dedup_against

        rng = np.random.default_rng(73)
        pool = [f"doc {i}" for i in range(40)] + [None, ""]
        new = pd.DataFrame({
            "doc_id": np.arange(300, dtype=np.int64),
            "text": [pool[i] for i in rng.integers(0, len(pool), 300)],
        })
        ref = pd.DataFrame({
            "doc_id": np.arange(1000, 1150, dtype=np.int64),
            "text": [pool[i] for i in rng.integers(0, 25, 150)],
        })
        got = (
            dedup_against(rd.from_pandas(new).repartition(4),
                          rd.from_pandas(ref).repartition(3),
                          num_partitions=3)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("n", new)
        con.register("r", ref)
        exp = con.execute("""
            SELECT n.doc_id, n.text FROM n
            WHERE n.text IS NULL OR NOT EXISTS (
              SELECT 1 FROM r WHERE r.text = n.text
            ) ORDER BY n.doc_id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # dtype survives the null-padded co-partition (round-3 lesson)
        assert got["doc_id"].dtype == np.int64

    def test_empty_reference_passthrough(self, ray_session):
        from recipys_ray.ops.dedup import dedup_against

        new = pd.DataFrame({"doc_id": [1, 2], "text": ["a", "b"]})
        ref = pd.DataFrame({"doc_id": pd.array([], dtype=np.int64),
                            "text": pd.array([], dtype=object)})
        got = dedup_against(
            rd.from_pandas(new), rd.from_pandas(ref)
        ).to_pandas()
        assert len(got) == 2


class TestJaroWinkler:
    def test_kernel_bit_matches_duckdb(self):
        import duckdb

        from recipys_ray.ops.editdist import (
            _byte_matrix,
            pairwise_jaro_winkler,
        )

        rng = np.random.default_rng(13)
        strings = ["", "a", "martha", "marhta", "DWAYNE", "DUANE",
                   "DIXON", "DICKSONX", "héllo", "hello", "ab", "ba"]
        for alpha in ["ab", "abcdef"]:
            strings += [
                "".join(rng.choice(list(alpha), rng.integers(0, 25)))
                for _ in range(80)
            ]
        mat, lens = _byte_matrix(strings)
        n = len(strings)
        ia, ib = np.meshgrid(np.arange(n), np.arange(n))
        ia, ib = ia.ravel(), ib.ravel()
        got = pairwise_jaro_winkler(ia, ib, mat, lens)
        con = duckdb.connect()
        con.register("t", pd.DataFrame({
            "a": [strings[i] for i in ia],
            "b": [strings[j] for j in ib],
        }))
        exp = (
            con.execute("SELECT jaro_winkler_similarity(a, b) FROM t")
            .df().iloc[:, 0].to_numpy(np.float64)
        )
        assert np.array_equal(got, exp)

    def test_dedup_matches_sql_not_exists(self, ray_session):
        import duckdb

        from recipys_ray.ops.editdist import dedup_jaro_winkler

        rng = np.random.default_rng(14)
        base = ["red bolt", "red bol", "red bolts", "blue anvil",
                "blue anvli", "green gear", None, ""]
        names = [base[i] for i in rng.integers(0, len(base), 300)]
        pdf = pd.DataFrame({
            "id": np.arange(300, dtype=np.int64), "s": names
        })
        got = (
            dedup_jaro_winkler(rd.from_pandas(pdf), "id", "s",
                               threshold=0.9, block_chars=4,
                               num_partitions=3)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH b AS (SELECT id, s, substr(s, 1, 4) AS blk FROM t)
            SELECT id, s FROM b a
            WHERE NOT EXISTS (
              SELECT 1 FROM b o
              WHERE o.blk = a.blk AND o.id < a.id
                AND jaro_winkler_similarity(o.s, a.s) >= 0.9
            ) ORDER BY id
        """).df().reset_index(drop=True)
        got.columns = ["id", "s"]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_long_string_raises(self, ray_session):
        from recipys_ray.ops.editdist import dedup_jaro_winkler

        pdf = pd.DataFrame({"id": [1], "s": ["x" * 65]})
        with pytest.raises(Exception, match="64 bytes"):
            dedup_jaro_winkler(
                rd.from_pandas(pdf), "id", "s", num_partitions=1
            ).to_pandas()


class TestSortedNeighborhood:
    SQL = """
        WITH r AS (
          SELECT id, s, row_number() OVER (ORDER BY s, id) AS rn
          FROM t WHERE s IS NOT NULL
        )
        SELECT id, s FROM r a
        WHERE NOT EXISTS (
          SELECT 1 FROM r o
          WHERE o.rn BETWEEN a.rn - {W} AND a.rn - 1
            AND jaro_winkler_similarity(o.s, a.s) >= {T}
        )
        UNION ALL SELECT id, s FROM t WHERE s IS NULL
        ORDER BY id
    """

    def _run(self, pdf, window, thr, nparts):
        import duckdb

        from recipys_ray.ops.editdist import sorted_neighborhood_dedup

        got = (
            sorted_neighborhood_dedup(
                rd.from_pandas(pdf).repartition(5), "id", "s",
                window=window, threshold=thr, num_partitions=nparts,
            )
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(
            self.SQL.format(W=window - 1, T=thr)
        ).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_matches_sql_window_not_exists(self, ray_session):
        rng = np.random.default_rng(61)
        base = ["red bolt", "red bol", "red bolts", "blue anvil",
                "blue anvli", "green gear", "usb cable cheap",
                "usb cable chea", None, ""]
        pdf = pd.DataFrame({
            "id": np.arange(400, dtype=np.int64),
            "s": [base[i] for i in rng.integers(0, len(base), 400)],
        })
        self._run(pdf, window=6, thr=0.9, nparts=4)

    def test_carry_across_many_partitions(self, ray_session):
        # every row near-identical: the window spans every partition
        # boundary, so survivors are wrong unless carries chain correctly
        pdf = pd.DataFrame({
            "id": np.arange(60, dtype=np.int64),
            "s": [f"prefix {i:03d}" for i in range(60)],
        })
        self._run(pdf, window=4, thr=0.85, nparts=12)


class TestEditDistance:
    @staticmethod
    def _oracle(pdf, sql):
        import duckdb
        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(sql).df()

    def test_banded_kernel_matches_duckdb(self):
        import duckdb
        import random
        from recipys_ray.ops.editdist import _byte_matrix, banded_levenshtein

        random.seed(11)
        strs = ["".join(random.choice("abcdef") for _ in
                        range(random.randint(0, 10))) for _ in range(80)]
        strs += ["héllo", "hello", "kitten", "sitting", "", "ß", "ss"]
        mat, lens = _byte_matrix(strs)
        ia, ib = np.meshgrid(np.arange(len(strs)), np.arange(len(strs)))
        ia, ib = ia.ravel(), ib.ravel()
        con = duckdb.connect()
        con.register("s", pd.DataFrame({"i": np.arange(len(strs)),
                                        "s": strs}))
        exp = con.execute("""
            SELECT a.i, b.i, levenshtein(a.s, b.s) AS d
            FROM s a, s b ORDER BY a.i, b.i
        """).df()["d"].to_numpy()
        for d in (1, 2, 4):
            got = banded_levenshtein(ia, ib, mat, lens, d)
            np.testing.assert_array_equal(got, np.minimum(exp, d + 1))

    def test_dedup_matches_sql_not_exists(self, ray_session):
        from recipys_ray.ops.editdist import dedup_levenshtein

        rng = np.random.default_rng(13)
        base = ["old gear", "cold gear", "red bolt", "red bolts",
                "blue rod", "zinc cap", None]
        pdf = pd.DataFrame({
            "doc_id": np.arange(4000, dtype=np.int64),
            "text": rng.choice(np.array(base, dtype=object), 4000,
                               p=[.3, .2, .2, .1, .1, .05, .05]),
        })
        got = (
            dedup_levenshtein(rd.from_pandas(pdf), "doc_id", "text",
                              max_dist=2, block_chars=4)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        exp = self._oracle(pdf, """
            WITH b AS (SELECT doc_id, text, substr(text, 1, 4) AS blk
                       FROM t)
            SELECT doc_id, text FROM b a
            WHERE NOT EXISTS (
              SELECT 1 FROM b o
              WHERE o.blk = a.blk AND o.doc_id < a.doc_id
                AND levenshtein(o.text, a.text) <= 2
            ) ORDER BY doc_id
        """)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # identical-string hot groups collapse to one min-id survivor per
        # distance-2 block neighborhood; NULL texts all survive (SQL NULL
        # never matches the EXISTS predicate)
        assert len(got[got["text"].notna()]) < 10
        assert got["text"].isna().sum() == pdf["text"].isna().sum()

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.editdist import dedup_levenshtein

        rng = np.random.default_rng(17)
        words = ["alpha", "alphb", "beta", "betta", "gamma", "gamm",
                 "delta", "delt"]
        pdf = pd.DataFrame({
            "doc_id": np.arange(600, dtype=np.int64),
            "text": rng.choice(words, 600),
        })
        outs = [
            dedup_levenshtein(rd.from_pandas(pdf).repartition(p),
                              "doc_id", "text", max_dist=1,
                              block_chars=3, num_partitions=np_)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
            for p, np_ in ((1, 2), (6, 5))
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_hot_block_guard(self, ray_session):
        from recipys_ray.ops.editdist import dedup_levenshtein

        pdf = pd.DataFrame({
            "doc_id": np.arange(30, dtype=np.int64),
            "text": [f"aa{i:03d}" for i in range(30)],  # 30 distinct, 1 blk
        })
        with pytest.raises(Exception, match="distinct strings"):
            dedup_levenshtein(rd.from_pandas(pdf), "doc_id", "text",
                              block_chars=2,
                              max_block_distinct=10).to_pandas()


class TestDrift:
    @staticmethod
    def _oracle(frames, sql):
        import duckdb
        con = duckdb.connect()
        for name, pdf in frames.items():
            con.register(name, pdf)
        return con.execute(sql).df()

    def test_psi_matches_duckdb_and_scipy_form(self, ray_session):
        from recipys_ray.ops.drift import population_stability

        rng = np.random.default_rng(43)
        a = pd.DataFrame({"v": rng.uniform(0, 100, 4000)})
        b = pd.DataFrame({"v": rng.uniform(10, 110, 3000)})  # shifted
        got = population_stability(
            rd.from_pandas(a).repartition(5), rd.from_pandas(b),
            "v", lo=0.0, hi=100.0, nbins=10,
        )
        exp = self._oracle({"a": a, "b": b}, """
            WITH ha AS (
              SELECT LEAST(CAST(floor((v - 0.0)/((100.0-0.0)/10)) AS BIGINT),
                           9) AS bucket, count(*) AS c
              FROM a WHERE v >= 0.0 AND v <= 100.0 GROUP BY bucket
            ), hb AS (
              SELECT LEAST(CAST(floor((v - 0.0)/((100.0-0.0)/10)) AS BIGINT),
                           9) AS bucket, count(*) AS c
              FROM b WHERE v >= 0.0 AND v <= 100.0 GROUP BY bucket
            ), t AS (
              SELECT (SELECT CAST(sum(c) AS DOUBLE) FROM ha) AS ta,
                     (SELECT CAST(sum(c) AS DOUBLE) FROM hb) AS tb
            )
            SELECT ha.bucket, CAST(ha.c AS DOUBLE)/ta AS p_a,
                   CAST(hb.c AS DOUBLE)/tb AS p_b,
                   (CAST(ha.c AS DOUBLE)/ta - CAST(hb.c AS DOUBLE)/tb)
                     * ln((CAST(ha.c AS DOUBLE)/ta)
                          / (CAST(hb.c AS DOUBLE)/tb)) AS psi_term
            FROM ha JOIN hb USING (bucket), t ORDER BY ha.bucket
        """)
        pd.testing.assert_frame_equal(
            got[["bucket", "p_a", "p_b"]], exp[["bucket", "p_a", "p_b"]],
            check_dtype=False,
        )
        np.testing.assert_allclose(got["psi_term"], exp["psi_term"],
                                   rtol=1e-12)
        # a genuine shift should register (here most mass overlaps, so the
        # in-window PSI is small but clearly nonzero)
        assert got["psi_term"].sum() > 0.01
        # identical inputs -> PSI exactly 0
        same = population_stability(
            rd.from_pandas(a), rd.from_pandas(a), "v", 0.0, 100.0, 10
        )
        assert same["psi_term"].sum() == 0.0

    def test_ks_matches_scipy_and_duckdb(self, ray_session):
        from recipys_ray.ops.drift import ks_statistic

        rng = np.random.default_rng(47)
        a = pd.DataFrame({"v": rng.integers(0, 40, 5000).astype(float)})
        b = pd.DataFrame({"v": rng.integers(5, 45, 4000).astype(float)})
        a.loc[::31, "v"] = np.nan
        got = ks_statistic(
            rd.from_pandas(a).repartition(4), rd.from_pandas(b), "v"
        )["ks"].iloc[0]
        # exact reference: numpy two-sample KS over the same values
        av = np.sort(a["v"].dropna().to_numpy())
        bv = np.sort(b["v"].dropna().to_numpy())
        grid = np.unique(np.r_[av, bv])
        cdf_a = np.searchsorted(av, grid, side="right") / len(av)
        cdf_b = np.searchsorted(bv, grid, side="right") / len(bv)
        ref = np.abs(cdf_a - cdf_b).max()
        np.testing.assert_allclose(got, ref, rtol=1e-12)
        exp = self._oracle({"a": a.dropna(), "b": b}, """
            WITH ca AS (SELECT v, count(*) AS a FROM a GROUP BY v),
            cb AS (SELECT v, count(*) AS b FROM b GROUP BY v),
            u AS (SELECT coalesce(ca.v, cb.v) AS v, coalesce(ca.a,0) AS a,
                         coalesce(cb.b,0) AS b
                  FROM ca FULL OUTER JOIN cb ON ca.v = cb.v),
            t AS (SELECT CAST(sum(a) AS DOUBLE) ta,
                         CAST(sum(b) AS DOUBLE) tb FROM u),
            c AS (SELECT v, CAST(sum(a) OVER (ORDER BY v) AS DOUBLE) cum_a,
                         CAST(sum(b) OVER (ORDER BY v) AS DOUBLE) cum_b
                  FROM u)
            SELECT max(abs(cum_a/ta - cum_b/tb)) AS ks FROM c, t
        """)["ks"].iloc[0]
        assert got == exp

    def test_ks_cap_raises(self, ray_session):
        from recipys_ray.ops.drift import ks_statistic

        pdf = pd.DataFrame({"v": np.arange(500, dtype=np.float64)})
        with pytest.raises(Exception, match="distinct"):
            ks_statistic(rd.from_pandas(pdf), rd.from_pandas(pdf), "v",
                         driver_cap=100)


class TestCalendarFeatures:
    def test_sql_conventions(self, ray_session):
        from recipys_ray.ops.calendar import calendar_features

        # 2026-08-19 = Wednesday, 2026-08-23 = Sunday, 2026-08-22 = Saturday
        ts = pd.to_datetime(
            ["2026-08-19 10:30:00", "2026-08-23 00:05:00",
             "2026-08-22 23:59:59", "2026-01-01 00:00:00"]
        )
        pdf = pd.DataFrame({"event_id": [1, 2, 3, 4], "ts": ts})
        out = (
            calendar_features(rd.from_pandas(pdf), "ts")
            .to_pandas()
            .sort_values("event_id", ignore_index=True)
        )
        # DuckDB dayofweek convention: Sunday=0 .. Saturday=6
        assert out["dow"].tolist() == [3, 0, 6, 4]
        assert out["is_weekend"].tolist() == [0, 1, 1, 0]
        assert out["hour"].tolist() == [10, 0, 23, 0]
        # ISO week: 2026-01-01 is a Thursday -> ISO week 1
        assert out["week"].tolist() == [34, 34, 34, 1]
        assert out["year"].tolist() == [2026, 2026, 2026, 2026]
        assert all(out[c].dtype == np.int64
                   for c in ["year", "month", "day", "week", "hour", "dow",
                             "is_weekend"])


class TestKAnonymize:
    def test_suppresses_small_groups_and_groups_nulls(self, ray_session):
        from recipys_ray.ops.privacy import k_anonymize

        pdf = pd.DataFrame({
            "rid": range(8),
            "qa": ["x", "x", "x", "y", None, None, "z", "x"],
            "qb": [1, 1, 1, 2, 3, 3, 4, 1],
        })
        out = (
            k_anonymize(rd.from_pandas(pdf), ["qa", "qb"], k=2)
            .to_pandas()
            .sort_values("rid", ignore_index=True)
        )
        # (x,1) has 4 rows -> kept; (NULL,3) has 2 rows -> NULLs group
        # together like SQL GROUP BY; (y,2) and (z,4) are singletons -> out
        assert out["rid"].tolist() == [0, 1, 2, 4, 5, 7]

    def test_driver_group_cap_raises(self, ray_session):
        from recipys_ray.ops.privacy import k_anonymize

        pdf = pd.DataFrame({"q": np.arange(50) % 10, "v": np.arange(50)})
        with pytest.raises(ValueError, match="max_driver_groups"):
            k_anonymize(rd.from_pandas(pdf), ["q"], k=1,
                        max_driver_groups=3).take_all()

    def test_l_diversify(self, ray_session):
        from recipys_ray.ops.privacy import l_diversify

        pdf = pd.DataFrame({
            "rid": range(6),
            "qa": ["x", "x", "x", "y", "y", "y"],
            "s":  [1,    2,   1,   7,   7,   7],
        })
        out = (
            l_diversify(rd.from_pandas(pdf), ["qa"], "s", l=2)
            .to_pandas()
            .sort_values("rid", ignore_index=True)
        )
        # qa=x has 2 distinct sensitive values -> kept; qa=y only 1 -> out
        assert out["rid"].tolist() == [0, 1, 2]


class TestMixTemperature:
    def test_targets_follow_sqrt_weights(self, ray_session):
        from recipys_ray.ops.sampling import mix_temperature

        # 1600 'big' rows vs 100 'small' rows; alpha=0.5 weights 40:10,
        # budget=500 -> targets 400 and 100 (small fully kept: capped at n)
        pdf = pd.DataFrame({
            "key": np.arange(1700, dtype=np.int64),
            "src": ["big"] * 1600 + ["small"] * 100,
        })
        out = mix_temperature(
            rd.from_pandas(pdf), "src", "key", alpha=0.5, budget=500
        ).to_pandas()
        got = out.groupby("src").size().to_dict()
        assert got == {"big": 400, "small": 100}

    def test_coordinated_prefix(self, ray_session):
        from recipys_ray.ops.sampling import mix_temperature

        pdf = pd.DataFrame({
            "key": np.arange(300, dtype=np.int64),
            "src": ["a"] * 200 + ["b"] * 100,
        })
        small = mix_temperature(
            rd.from_pandas(pdf), "src", "key", budget=60
        ).to_pandas()
        large = mix_temperature(
            rd.from_pandas(pdf), "src", "key", budget=150
        ).to_pandas()
        # a bigger budget always yields a per-stratum superset (same
        # hash-order prefix rule)
        assert set(small["key"]) <= set(large["key"])


class TestGopherFilter:
    def test_rules(self, ray_session):
        from recipys_ray.ops.text import gopher_quality_filter

        docs = pd.DataFrame({
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "the quick brown fox jumps over that lazy dog with zeal",
                "a b c d e f g h i j",                       # mwl 1 -> fails
                "tiny",                                       # too few words
                "the constitution of the republic demands deliberation "
                "and patience with that process",
                None,                                         # null text
            ],
        })
        out = (
            gopher_quality_filter(
                rd.from_pandas(docs), min_words=5, min_mwl=3, max_mwl=10,
                min_stopwords=2,
            )
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert out["doc_id"].tolist() == [1, 4]
        row = out[out["doc_id"] == 1].iloc[0]
        assert row["n_words"] == 11 and row["stop_words"] == 3
        assert all(out[c].dtype == np.int64
                   for c in ["n_words", "word_chars", "alpha_words",
                             "stop_words"])

    def test_empty_doc_segment_sums(self, ray_session):
        # empty docs between non-empty ones must not shift segment sums
        from recipys_ray.ops.text import gopher_quality_filter

        docs = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": ["the cat and the hat with that bat", "",
                     "the dog and the fog with that log"],
        })
        out = (
            gopher_quality_filter(
                rd.from_pandas(docs), min_words=3, min_mwl=1,
                min_stopwords=2,
            )
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert out["doc_id"].tolist() == [1, 3]
        assert out["n_words"].tolist() == [8, 8]


class TestGroupedZscore:
    def test_values_and_zero_variance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_zscore

        pdf = pd.DataFrame({
            "rid": range(6),
            "g": ["a", "a", "a", "b", "b", "c"],
            "x": [1, 2, 3, 5, 5, 9],
        })
        out = (
            grouped_zscore(rd.from_pandas(pdf), ["g"], "x", out_col="z")
            .to_pandas()
            .sort_values("rid", ignore_index=True)
        )
        # a: mean 2, std_pop sqrt(2/3); b: zero variance -> NULL (SQL x/0.0)
        sd = np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(
            out["z"].to_numpy()[:3], [-1 / sd, 0.0, 1 / sd]
        )
        assert out["z"].isna()[3] and out["z"].isna()[4]
        # singleton group: var 0 -> NULL too
        assert out["z"].isna()[5]


class TestClusterLabels:
    def _fixture(self):
        corpus = pd.DataFrame({"id": np.arange(8, dtype=np.int64)})
        # components: {0,1,2} (chain), {5,6}; 3,4,7 singletons
        pairs = pd.DataFrame({
            "a": np.array([1, 2, 5], dtype=np.int64),
            "b": np.array([0, 1, 6], dtype=np.int64),
        })
        return corpus, pairs

    def test_broadcast_and_distributed_routes_agree(self, ray_session):
        from recipys_ray.ops.dedup import cluster_labels

        corpus, pairs = self._fixture()
        expected_root = [0, 0, 0, 3, 4, 5, 5, 7]
        expected_size = [3, 3, 3, 1, 1, 2, 2, 1]
        for cap in (10**6, 0):
            out = (
                cluster_labels(
                    rd.from_pandas(corpus), rd.from_pandas(pairs),
                    id_col="id", max_driver_pairs=cap,
                )
                .to_pandas()
                .sort_values("id", ignore_index=True)
            )
            assert out["root"].tolist() == expected_root, cap
            assert out["cluster_size"].tolist() == expected_size, cap
            assert out["root"].dtype == np.int64
            assert out["cluster_size"].dtype == np.int64


class TestKBinsQuantileExact:
    def test_bins_and_nulls(self, ray_session):
        from recipys_ray.ops.quantiles import kbins_quantile_exact

        pdf = pd.DataFrame({
            "rid": range(9),
            "x": [1.0, 2, 3, 4, 5, 6, 7, 8, np.nan],
        })
        out = (
            kbins_quantile_exact(rd.from_pandas(pdf), "x", n_bins=4)
            .to_pandas()
            .sort_values("rid", ignore_index=True)
        )
        # quantile_disc edges of 1..8 at .25/.5/.75 = 2, 4, 6;
        # bin = #{edges <= x}
        assert out["bin"].tolist()[:8] == [0, 1, 1, 2, 2, 3, 3, 3]
        assert pd.isna(out["bin"].iloc[8])
        assert str(out["bin"].dtype) in ("Int64", "object", "float64") or \
            out["bin"].dtype == np.int64


class TestChunkSentences:
    def test_split_and_indices(self, ray_session):
        from recipys_ray.ops.chunking import chunk_sentences

        docs = pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": ["One. Two! Three? tail", "NoDelims",
                     "Ends here. ", None],
        })
        out = (
            chunk_sentences(rd.from_pandas(docs))
            .to_pandas()
            .sort_values(["doc_id", "sent_idx"], ignore_index=True)
        )
        assert out["sentence"].tolist() == [
            "One", "Two", "Three", "tail", "NoDelims", "Ends here",
        ]
        # sent_idx is the original split position (pre-filter)
        assert out["sent_idx"].tolist() == [0, 1, 2, 3, 0, 0]
        # doc 4 (null text) vanishes: no non-empty sentences
        assert 4 not in set(out["doc_id"])
        assert out["n_chars"].tolist() == [3, 3, 5, 4, 8, 9]


class TestOhlcBars:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import ohlc_bars

        rng = np.random.default_rng(93)
        n = 500
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, n),
            "b": rng.integers(0, 5, n),
            "o": rng.permutation(n).astype(np.int64),
            "v": np.round(rng.normal(100, 25, n), 2),
        })
        pdf.loc[rng.integers(0, n, 40), "v"] = np.nan
        got = (
            ohlc_bars(
                rd.from_pandas(pdf).repartition(7), ["g", "b"], ["o"],
                "v", num_partitions=3,
            )
            .to_pandas()
            .sort_values(["g", "b"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH nn AS (SELECT * FROM t WHERE v IS NOT NULL)
            SELECT g, b, first(v ORDER BY o) AS open, max(v) AS high,
                   min(v) AS low, last(v ORDER BY o) AS close,
                   CAST(count(v) AS BIGINT) AS n_events
            FROM nn GROUP BY g, b ORDER BY g, b
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_cross_block_open_close(self, ray_session):
        from recipys_ray.ops.timeseries import ohlc_bars

        pdf = pd.DataFrame({
            "g": [1, 1, 1, 1],
            "o": [5, 1, 99, 50],
            "v": [2.0, 7.0, 3.0, 9.0],
        })
        got = ohlc_bars(
            rd.from_pandas(pdf).repartition(2), ["g"], ["o"], "v",
            num_partitions=1,
        ).to_pandas()
        assert got["open"].tolist() == [7.0]    # o=1
        assert got["close"].tolist() == [3.0]   # o=99
        assert got["high"].tolist() == [9.0]
        assert got["low"].tolist() == [2.0]
        assert got["n_events"].tolist() == [4]

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.timeseries import ohlc_bars

        rng = np.random.default_rng(7)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 6, 300),
            "o": rng.permutation(300).astype(np.int64),
            "v": np.round(rng.uniform(0, 50, 300), 2),
        })
        outs = []
        for parts, nparts in [(1, 1), (11, 4)]:
            outs.append(
                ohlc_bars(
                    rd.from_pandas(pdf).repartition(parts), ["g"], ["o"],
                    "v", num_partitions=nparts,
                )
                .to_pandas()
                .sort_values("g", ignore_index=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestGroupedAutocorr:
    def test_matches_duckdb_closed_form(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import grouped_autocorr

        rng = np.random.default_rng(41)
        n = 800
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, n),
            "o": np.arange(n, dtype=np.int64),
            "x": rng.integers(0, 1000, n),
        })
        got = (
            grouped_autocorr(
                rd.from_pandas(pdf).repartition(6), ["g"], ["o"], "x",
                lag=1, num_partitions=3,
            )
            .to_pandas()
            .sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH l AS (
              SELECT g, x, lead(x, 1) OVER (PARTITION BY g ORDER BY o) AS y
              FROM t
            ), p AS (SELECT g, x, y FROM l WHERE y IS NOT NULL),
            s AS (
              SELECT g, count(*) AS n, CAST(sum(x) AS DOUBLE) AS sx,
                     CAST(sum(y) AS DOUBLE) AS sy,
                     CAST(sum(x*x) AS DOUBLE) AS sxx,
                     CAST(sum(y*y) AS DOUBLE) AS syy,
                     CAST(sum(x*y) AS DOUBLE) AS sxy
              FROM p GROUP BY g)
            SELECT g, CAST(n AS BIGINT) AS n_pairs,
                   ((sxy - sx*sy/n) / (n-1)) /
                   (sqrt((sxx - sx*sx/n)/(n-1)) *
                    sqrt((syy - sy*sy/n)/(n-1))) AS autocorr
            FROM s WHERE n >= 2 ORDER BY g
        """).df().reset_index(drop=True)
        # bit-equal: integer inputs make every sum exact
        assert got["n_pairs"].tolist() == exp["n_pairs"].tolist()
        assert got["autocorr"].to_numpy().tobytes() == \
            exp["autocorr"].to_numpy().tobytes()

    def test_positive_on_trending_negative_on_alternating(
        self, ray_session
    ):
        from recipys_ray.ops.timeseries import grouped_autocorr

        pdf = pd.DataFrame({
            "g": ["up"] * 20 + ["alt"] * 20,
            "o": list(range(20)) * 2,
            "x": list(range(20)) + [0, 10] * 10,
        })
        got = grouped_autocorr(
            rd.from_pandas(pdf), ["g"], ["o"], "x", num_partitions=2
        ).to_pandas().set_index("g")
        assert got.loc["up", "autocorr"] > 0.99
        assert got.loc["alt", "autocorr"] < -0.99

    def test_small_and_constant_groups(self, ray_session):
        from recipys_ray.ops.timeseries import grouped_autocorr

        pdf = pd.DataFrame({
            "g": ["one", "one", "const", "const", "const", "const"],
            "o": [0, 1, 0, 1, 2, 3],
            "x": [5, 9, 7, 7, 7, 7],
        })
        got = grouped_autocorr(
            rd.from_pandas(pdf), ["g"], ["o"], "x", num_partitions=1
        ).to_pandas().set_index("g")
        # 2-row group -> 1 pair -> dropped (n >= 2 pairs required)
        assert "one" not in got.index
        # constant group: zero variance -> NULL (SQL x/0.0)
        assert np.isnan(got.loc["const", "autocorr"])

    def test_lag2(self, ray_session):
        from recipys_ray.ops.timeseries import grouped_autocorr

        # period-2 alternating series is perfectly self-similar at lag 2
        pdf = pd.DataFrame({
            "g": [1] * 12,
            "o": list(range(12)),
            "x": [0, 10] * 6,
        })
        got = grouped_autocorr(
            rd.from_pandas(pdf), ["g"], ["o"], "x", lag=2,
            num_partitions=1,
        ).to_pandas()
        assert got["n_pairs"].tolist() == [10]
        assert got["autocorr"].iloc[0] > 0.99


class TestGroupedWeightedStats:
    def test_matches_duckdb_closed_form(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import grouped_weighted_stats

        rng = np.random.default_rng(29)
        n = 700
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, n),
            "x": rng.integers(-50, 50, n).astype(np.float64),
            "w": rng.integers(1, 20, n).astype(np.float64),
        })
        pdf.loc[rng.integers(0, n, 50), "x"] = np.nan
        pdf.loc[rng.integers(0, n, 50), "w"] = np.nan
        got = (
            grouped_weighted_stats(
                rd.from_pandas(pdf).repartition(5), ["g"], "x", "w",
                num_partitions=3,
            )
            .to_pandas()
            .sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH i AS (
              SELECT g, CAST(x AS BIGINT) AS x, CAST(w AS BIGINT) AS w
              FROM t WHERE x IS NOT NULL AND w IS NOT NULL
            ), s AS (
              SELECT g, CAST(sum(w) AS DOUBLE) AS sw,
                     CAST(sum(w*x) AS DOUBLE) AS swx,
                     CAST(sum(w*x*x) AS DOUBLE) AS swxx
              FROM i GROUP BY g)
            SELECT g, CAST(sw AS BIGINT) AS sum_w, swx / sw AS wmean,
                   (swxx - swx*swx/sw) / sw AS wvar
            FROM s ORDER BY g
        """).df().reset_index(drop=True)
        assert got["sum_w"].tolist() == exp["sum_w"].tolist()
        assert got["wmean"].to_numpy().tobytes() == \
            exp["wmean"].to_numpy().tobytes()
        assert got["wvar"].to_numpy().tobytes() == \
            exp["wvar"].to_numpy().tobytes()

    def test_weighted_vs_expanded_unweighted(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_weighted_stats

        # integer weights == row replication: wmean/wvar must equal the
        # plain mean/population variance of the expanded sample
        pdf = pd.DataFrame({
            "g": [1, 1, 1],
            "x": [2.0, 5.0, 11.0],
            "w": [1.0, 2.0, 3.0],
        })
        got = grouped_weighted_stats(
            rd.from_pandas(pdf), ["g"], "x", "w", num_partitions=1
        ).to_pandas()
        expanded = np.array([2.0, 5.0, 5.0, 11.0, 11.0, 11.0])
        assert got["sum_w"].tolist() == [6]
        assert np.isclose(got["wmean"].iloc[0], expanded.mean())
        assert np.isclose(got["wvar"].iloc[0], expanded.var())


class TestSetOps:
    def _frames(self):
        rng = np.random.default_rng(55)
        left = pd.DataFrame({
            "a": rng.integers(0, 20, 300),
            "b": rng.choice(["x", "y", "z", None], 300),
        })
        right = pd.DataFrame({
            "a": rng.integers(5, 25, 250),
            "b": rng.choice(["x", "y", "w", None], 250),
        })
        return left, right

    def test_except_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.setops import except_distinct

        left, right = self._frames()
        got = (
            except_distinct(
                rd.from_pandas(left).repartition(4),
                rd.from_pandas(right).repartition(3),
                ["a", "b"], num_partitions=3,
            )
            .to_pandas()
            .sort_values(["a", "b"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        exp = con.execute("""
            SELECT a, b FROM l EXCEPT SELECT a, b FROM r
            ORDER BY a, b
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_intersect_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.setops import intersect_distinct

        left, right = self._frames()
        got = (
            intersect_distinct(
                rd.from_pandas(left).repartition(4),
                rd.from_pandas(right).repartition(3),
                ["a", "b"], num_partitions=3,
            )
            .to_pandas()
            .sort_values(["a", "b"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        exp = con.execute("""
            SELECT a, b FROM l INTERSECT SELECT a, b FROM r
            ORDER BY a, b
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_null_rows_are_set_equal(self, ray_session):
        # SQL set ops group NULLs together: a NULL-keyed row present on
        # both sides must NOT survive EXCEPT, and must survive INTERSECT
        from recipys_ray.ops.setops import except_distinct, intersect_distinct

        left = pd.DataFrame({"a": [1, None, None], "b": ["p", "q", "q"]})
        right = pd.DataFrame({"a": [None], "b": ["q"]})
        exc = except_distinct(
            rd.from_pandas(left), rd.from_pandas(right), ["a", "b"],
            num_partitions=1,
        ).to_pandas()
        assert len(exc) == 1 and exc["a"].tolist() == [1]
        inter = intersect_distinct(
            rd.from_pandas(left), rd.from_pandas(right), ["a", "b"],
            num_partitions=1,
        ).to_pandas()
        assert len(inter) == 1 and inter["b"].tolist() == ["q"]

    def test_table_diff_statuses(self, ray_session):
        from recipys_ray.ops.setops import table_diff

        old = pd.DataFrame({
            "k": [1, 2, 3, 4],
            "v": [10.0, 20.0, np.nan, 40.0],
            "s": ["a", "b", "c", "d"],
        })
        new = pd.DataFrame({
            "k": [2, 3, 4, 5],
            "v": [20.0, np.nan, 44.0, 50.0],
            "s": ["b", "c", "d", "e"],
        })
        got = (
            table_diff(
                rd.from_pandas(old).repartition(2),
                rd.from_pandas(new).repartition(2),
                ["k"], ["v", "s"], num_partitions=2,
            )
            .to_pandas()
            .sort_values("k", ignore_index=True)
        )
        # k=1 removed; k=2 same (dropped); k=3 same (NULL==NULL);
        # k=4 changed (44 != 40); k=5 added
        assert got["k"].tolist() == [1, 4, 5]
        assert got["status"].tolist() == ["removed", "changed", "added"]

    def test_table_diff_keep_same_and_dup_keys(self, ray_session):
        import pytest as _pytest
        import ray.exceptions

        from recipys_ray.ops.setops import table_diff

        old = pd.DataFrame({"k": [1], "v": [1.0]})
        new = pd.DataFrame({"k": [1], "v": [1.0]})
        got = table_diff(
            rd.from_pandas(old), rd.from_pandas(new), ["k"], ["v"],
            keep_same=True, num_partitions=1,
        ).to_pandas()
        assert got["status"].tolist() == ["same"]

        dup = pd.DataFrame({"k": [1, 1], "v": [1.0, 2.0]})
        with _pytest.raises(Exception, match="unique keys"):
            table_diff(
                rd.from_pandas(dup), rd.from_pandas(new), ["k"], ["v"],
                num_partitions=1,
            ).materialize()

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.setops import except_distinct

        left, right = self._frames()
        outs = []
        for lp, rp, nparts in [(1, 1, 1), (7, 5, 4)]:
            outs.append(
                except_distinct(
                    rd.from_pandas(left).repartition(lp),
                    rd.from_pandas(right).repartition(rp),
                    ["a", "b"], num_partitions=nparts,
                )
                .to_pandas()
                .sort_values(["a", "b"], ignore_index=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestChiSquare:
    def test_matches_duckdb_per_cell(self, ray_session):
        import duckdb

        from recipys_ray.ops.drift import chi_square

        rng = np.random.default_rng(17)
        n = 900
        pdf = pd.DataFrame({
            "a": rng.choice(["p", "q", "r", None], n, p=[0.4, 0.3, 0.25,
                                                         0.05]),
            "b": rng.integers(0, 4, n),
        })
        got = (
            chi_square(rd.from_pandas(pdf).repartition(5), "a", "b")
            .sort_values(["a", "b"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH p AS (
              SELECT a, b, count(*) AS obs FROM t
              WHERE a IS NOT NULL AND b IS NOT NULL GROUP BY a, b
            ), rt AS (SELECT a, sum(obs) AS ra FROM p GROUP BY a),
            ct AS (SELECT b, sum(obs) AS cb FROM p GROUP BY b),
            tot AS (SELECT sum(obs) AS n FROM p),
            e AS (
              SELECT p.a, p.b, p.obs,
                     CAST(rt.ra * ct.cb AS DOUBLE) / n AS expected
              FROM p JOIN rt USING (a) JOIN ct USING (b) CROSS JOIN tot
            )
            SELECT a, b, CAST(obs AS BIGINT) AS observed, expected,
                   ((obs - expected) * (obs - expected)) / expected
                     AS contribution
            FROM e ORDER BY a, b
        """).df().reset_index(drop=True)
        assert got["observed"].tolist() == exp["observed"].tolist()
        assert got["expected"].to_numpy().tobytes() == \
            exp["expected"].to_numpy().tobytes()
        assert got["contribution"].to_numpy().tobytes() == \
            exp["contribution"].to_numpy().tobytes()

    def test_independent_columns_have_small_stat(self, ray_session):
        from recipys_ray.ops.drift import chi_square

        rng = np.random.default_rng(5)
        n = 20_000
        pdf = pd.DataFrame({
            "a": rng.choice(["x", "y"], n),
            "b": rng.choice([0, 1, 2], n),
        })
        stat = chi_square(rd.from_pandas(pdf), "a", "b")[
            "contribution"
        ].sum()
        # df = (2-1)(3-1) = 2; under independence stat ~ chi2(2): tiny
        assert stat < 15.0

    def test_dependent_columns_have_large_stat(self, ray_session):
        from recipys_ray.ops.drift import chi_square

        rng = np.random.default_rng(6)
        n = 5_000
        b = rng.integers(0, 3, n)
        a = np.where(b == 0, "x", "y")  # fully determined by b
        stat = chi_square(
            rd.from_pandas(pd.DataFrame({"a": a, "b": b})), "a", "b"
        )["contribution"].sum()
        assert stat > 1_000.0


class TestLastValuePercentile:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import last_value_percentile

        rng = np.random.default_rng(131)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 20, 700),
            "o": rng.permutation(700),
            "v": rng.integers(-50, 50, 700),
        })
        # singleton group → NULL pct
        pdf.loc[len(pdf)] = [99, 10**6, 7]
        got = (
            last_value_percentile(rd.from_pandas(pdf).repartition(6),
                                  ["g"], ["o"], "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH s AS (
              SELECT g, v, last_value(v) OVER (
                PARTITION BY g ORDER BY o
                ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING) AS vl
              FROM t
            )
            SELECT g, CAST(max(vl) AS BIGINT) AS v_last,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CASE WHEN v < vl THEN 1 ELSE 0 END)
                        AS DOUBLE)
                     / CAST(NULLIF(count(*) - 1, 0) AS DOUBLE) AS pct
            FROM s GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert np.isnan(got.loc[got["g"] == 99, "pct"]).all()

    def test_extremes(self, ray_session):
        from recipys_ray.ops.groupstats import last_value_percentile

        pdf = pd.DataFrame({
            # g=1 ends at its max → pct 1.0; g=2 ends at its min → 0.0
            "g": [1, 1, 1, 2, 2, 2],
            "o": [0, 1, 2, 0, 1, 2],
            "v": [3, 5, 9, 9, 5, 3],
        })
        got = (
            last_value_percentile(rd.from_pandas(pdf), ["g"], ["o"], "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert got["pct"].tolist() == [1.0, 0.0]
        assert got["v_last"].tolist() == [9, 3]


class TestGroupedSpearman:
    def test_matches_pandas_spearman(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_spearman

        rng = np.random.default_rng(111)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, 800),
            # integer values force heavy ties — the avg-rank path
            "x": rng.integers(0, 15, 800),
            "y": rng.integers(0, 15, 800),
        })
        got = (
            grouped_spearman(rd.from_pandas(pdf).repartition(6),
                             ["g"], "x", "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        for _, row in got.iterrows():
            sub = pdf[pdf["g"] == row["g"]]
            rx = sub["x"].rank(method="average")
            ry = sub["y"].rank(method="average")
            exp = np.corrcoef(rx, ry)[0, 1]
            np.testing.assert_allclose(row["spearman"], exp, rtol=1e-12)
            assert row["n"] == len(sub)

    def test_perfect_monotone_and_ties(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_spearman

        pdf = pd.DataFrame({
            "g": [1] * 5 + [2] * 5,
            "x": [1, 2, 3, 4, 5] * 2,
            # g=1: strictly decreasing nonlinear → rho exactly −1
            "y": [100, 50, 20, 5, 1] + [1, 4, 2, 8, 5],
        })
        got = (
            grouped_spearman(rd.from_pandas(pdf), ["g"], "x", "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        # algebraically −1; the mirrored closed form rounds within ulps
        np.testing.assert_allclose(got.loc[0, "spearman"], -1.0,
                                   rtol=1e-12)
        assert -1.0 <= got.loc[1, "spearman"] <= 1.0

    def test_group_size_guard(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_spearman

        pdf = pd.DataFrame({
            "g": np.zeros(60, np.int64),
            "x": np.arange(60),
            "y": np.arange(60),
        })
        with pytest.raises(Exception, match="max_group_rows"):
            grouped_spearman(rd.from_pandas(pdf), ["g"], "x", "y",
                             max_group_rows=50).to_pandas()


class TestTransitionLatency:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import transition_latency

        rng = np.random.default_rng(101)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 20, 500),
            "i": np.arange(500, dtype=np.int64),
            "t": pd.to_datetime(
                rng.integers(0, 10**9, 500) * 1000, unit="us"
            ),
            "s": rng.choice(list("abc"), 500),
        })
        got = (
            transition_latency(
                rd.from_pandas(pdf).repartition(5), ["g"], ["t", "i"],
                "s", "t",
            )
            .to_pandas().sort_values(["from_state", "to_state"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("e", pdf)
        exp = con.execute("""
            WITH s AS (
              SELECT g, s, t, lead(s) OVER w AS to_state,
                     lead(t) OVER w AS to_t
              FROM e WINDOW w AS (PARTITION BY g ORDER BY t, i)
            )
            SELECT s AS from_state, to_state,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(epoch_us(to_t) - epoch_us(t)) AS BIGINT)
                     AS total_gap_us,
                   CAST(sum(epoch_us(to_t) - epoch_us(t)) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS mean_gap_us,
                   CAST(max(epoch_us(to_t) - epoch_us(t)) AS BIGINT)
                     AS max_gap_us
            FROM s WHERE to_state IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_partition_count_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import transition_latency

        rng = np.random.default_rng(102)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 6, 300),
            "i": np.arange(300, dtype=np.int64),
            "t": rng.integers(0, 10**6, 300),
            "s": rng.choice(list("ab"), 300),
        })
        outs = [
            transition_latency(
                rd.from_pandas(pdf).repartition(p), ["g"], ["t", "i"],
                "s", "t", num_partitions=np_,
            ).to_pandas().sort_values(["from_state", "to_state"])
            .reset_index(drop=True)
            for p, np_ in [(1, 2), (7, 4)]
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


    def test_null_timestamps_give_null_gaps(self, ray_session):
        """A null time makes its gaps NULL (SQL epoch_us): the pair counts
        in n, never in the gap total / max — not an INT64_MIN gap."""
        import duckdb

        from recipys_ray.ops.groupstats import transition_latency

        pdf = pd.DataFrame({
            "g": [1, 1, 1, 1, 2, 2, 3, 3],
            "i": np.arange(8, dtype=np.int64),
            "t": pd.to_datetime([
                "2024-01-01 00:00", "2024-01-01 00:01", None,
                "2024-01-01 00:05", "2024-01-01 00:00", None, None, None,
            ]),
            "s": ["a", "b", "a", "b", "a", "c", "c", "a"],
        })
        got = (
            transition_latency(rd.from_pandas(pdf), ["g"], ["t", "i"],
                               "s", "t")
            .to_pandas().sort_values(["from_state", "to_state"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("e", pdf)
        exp = con.execute("""
            WITH s AS (
              SELECT g, s, t, lead(s) OVER w AS to_state,
                     lead(t) OVER w AS to_t
              FROM e WINDOW w AS (PARTITION BY g ORDER BY t, i)
            )
            SELECT s AS from_state, to_state,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(epoch_us(to_t) - epoch_us(t)) AS BIGINT)
                     AS total_gap_us,
                   CAST(sum(epoch_us(to_t) - epoch_us(t)) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS mean_gap_us,
                   CAST(max(epoch_us(to_t) - epoch_us(t)) AS BIGINT)
                     AS max_gap_us
            FROM s WHERE to_state IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """).df().reset_index(drop=True)
        assert exp["total_gap_us"].isna().any()  # the case under test
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert (got["max_gap_us"].dropna() >= 0).all()


class TestChurnLabels:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import churn_labels

        rng = np.random.default_rng(171)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 20, 700),
            "day": rng.integers(0, 60, 700),
        })
        got = (
            churn_labels(rd.from_pandas(pdf).repartition(5),
                         ["g"], "day", horizon=5)
            .to_pandas().sort_values(["g", "day"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH d AS (SELECT DISTINCT g, day FROM t)
            SELECT g, day,
                   CAST(CASE WHEN lead(day) OVER w IS NULL
                              OR lead(day) OVER w - day > 5
                             THEN 1 ELSE 0 END AS BIGINT) AS churned
            FROM d WINDOW w AS (PARTITION BY g ORDER BY day)
            ORDER BY g, day
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_hand_computed(self, ray_session):
        from recipys_ray.ops.timeseries import churn_labels

        # gaps: 1→2 (ok), 2→10 (>7 → churn at 2), 10 last → churn
        pdf = pd.DataFrame({"g": [1, 1, 1], "day": [1, 2, 10]})
        got = (
            churn_labels(rd.from_pandas(pdf), ["g"], "day", horizon=7)
            .to_pandas().sort_values("day").reset_index(drop=True)
        )
        assert got["churned"].tolist() == [0, 1, 1]


class TestBurstCounts:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import burst_counts

        rng = np.random.default_rng(141)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, 800),
            "o": rng.permutation(800),
            "v": rng.integers(0, 200, 800),
        })
        got = (
            burst_counts(rd.from_pandas(pdf).repartition(6),
                         ["g"], ["o"], "v", window=4, k=2)
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH w AS (
              SELECT g, v,
                     SUM(v) OVER (PARTITION BY g ORDER BY o
                       ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING) AS s,
                     COUNT(v) OVER (PARTITION BY g ORDER BY o
                       ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING) AS c
              FROM t WHERE v IS NOT NULL
            )
            SELECT g, CAST(SUM(CASE WHEN c > 0 AND v*c > 2*s
                                    THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_bursts
            FROM w GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_hand_computed(self, ray_session):
        from recipys_ray.ops.timeseries import burst_counts

        # prior means: [—, 1, 1, 1, 25.75] → bursts at v=100 (100>3·1)
        # only; first row never flags
        pdf = pd.DataFrame({
            "g": [1] * 5,
            "o": [0, 1, 2, 3, 4],
            "v": [1, 1, 1, 100, 2],
        })
        got = burst_counts(rd.from_pandas(pdf), ["g"], ["o"], "v",
                           window=5, k=3).to_pandas()
        assert got["n_bursts"].tolist() == [1]


class TestCollapseRare:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.encode import collapse_rare_categories

        rng = np.random.default_rng(142)
        cats = ["common"] * 50 + ["mid"] * 8 + ["rare1", "rare2"] * 2 \
            + [None] * 5
        pdf = pd.DataFrame({
            "id": np.arange(len(cats), dtype=np.int64),
            "cat": rng.permutation(np.array(cats, dtype=object)),
        })
        got = (
            collapse_rare_categories(
                rd.from_pandas(pdf).repartition(4), "cat", min_count=5,
            )
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH k AS (SELECT cat, count(*) AS cnt FROM t
                       WHERE cat IS NOT NULL GROUP BY cat)
            SELECT t.id, t.cat,
                   CASE WHEN t.cat IS NULL THEN NULL
                        WHEN k.cnt >= 5 THEN t.cat
                        ELSE '__other__' END AS cat_collapsed
            FROM t LEFT JOIN k ON k.cat = t.cat ORDER BY t.id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert (got.loc[got["cat"].isin(["rare1", "rare2"]),
                        "cat_collapsed"] == "__other__").all()
        assert got.loc[got["cat"].isna(), "cat_collapsed"].isna().all()


    def test_numeric_and_dictionary_categories(self, ray_session):
        """Integer categories with a string label collapse to the string
        form; integer labels keep the type; dictionary columns collapse on
        their values."""
        from recipys_ray.ops.encode import collapse_rare_categories

        cats = [1] * 6 + [2] * 6 + [3, 4]
        pdf = pd.DataFrame({"id": np.arange(14, dtype=np.int64),
                            "cat": np.array(cats, dtype=np.int64)})
        got = collapse_rare_categories(
            rd.from_pandas(pdf), "cat", min_count=5,
        ).to_pandas().sort_values("id")
        assert got["cat_collapsed"].tolist() == (
            ["1"] * 6 + ["2"] * 6 + ["__other__"] * 2
        )
        got = collapse_rare_categories(
            rd.from_pandas(pdf), "cat", min_count=5, other_label=-1,
        ).to_pandas().sort_values("id")
        assert got["cat_collapsed"].tolist() == [1] * 6 + [2] * 6 + [-1, -1]

        words = ["x"] * 5 + ["y", "z"] + [None]
        tbl = pa.table({
            "id": pa.array(np.arange(8, dtype=np.int64)),
            "cat": pa.array(words).dictionary_encode(),
        })
        got = collapse_rare_categories(
            rd.from_arrow(tbl), "cat", min_count=5,
        ).to_pandas().sort_values("id")
        assert got["cat_collapsed"].tolist()[:7] == (
            ["x"] * 5 + ["__other__"] * 2
        )
        assert pd.isna(got["cat_collapsed"].iloc[7])


class TestLongestStreak:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import longest_streak

        rng = np.random.default_rng(121)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 25, 900),
            # duplicates per (g, day) exercise the distinct collapse
            "day": rng.integers(0, 40, 900),
        })
        got = (
            longest_streak(rd.from_pandas(pdf).repartition(6),
                           ["g"], "day")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH d AS (SELECT DISTINCT g, day FROM t),
            i AS (SELECT g, day - row_number() OVER (
                    PARTITION BY g ORDER BY day) AS isl FROM d),
            s AS (SELECT g, isl, count(*) AS len
                  FROM i GROUP BY g, isl)
            SELECT g, CAST(max(len) AS BIGINT) AS streak
            FROM s GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_hand_computed_runs(self, ray_session):
        from recipys_ray.ops.timeseries import longest_streak

        pdf = pd.DataFrame({
            "g": [1] * 6 + [2] * 3,
            # g=1: runs {1,2,3}, {7,8} (dup 2 collapses) → 3
            "day": [1, 2, 2, 3, 7, 8, 10, 20, 30],
        })
        got = (
            longest_streak(rd.from_pandas(pdf), ["g"], "day")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert got["streak"].tolist() == [3, 1]


class TestMaxDrawdown:
    def test_matches_duckdb_with_ties(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import max_drawdown

        rng = np.random.default_rng(103)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, 600),
            # coarse order keys force timestamp ties → RANGE framing
            "o": rng.integers(0, 25, 600),
            "v": rng.integers(-100, 100, 600),
        })
        got = (
            max_drawdown(rd.from_pandas(pdf).repartition(6),
                         ["g"], "o", "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH w AS (
              SELECT g, v,
                     max(v) OVER (PARTITION BY g ORDER BY o) AS pk
              FROM t WHERE v IS NOT NULL AND o IS NOT NULL
            )
            SELECT g, CAST(max(pk - v) AS BIGINT) AS max_dd
            FROM w GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_monotone_series_has_zero_drawdown(self, ray_session):
        from recipys_ray.ops.timeseries import max_drawdown

        pdf = pd.DataFrame({
            "g": [1] * 5 + [2] * 4,
            "o": list(range(5)) + list(range(4)),
            "v": [1, 2, 3, 4, 5] + [10, 4, 8, 1],
        })
        got = (
            max_drawdown(rd.from_pandas(pdf), ["g"], "o", "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert got["max_dd"].tolist() == [0, 9]  # 10 → 1


class TestGroupedRateCi:
    def test_matches_duckdb_bit_exact(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import grouped_rate_ci

        rng = np.random.default_rng(104)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 900),
            "fl": rng.integers(0, 2, 900),
        })
        # group with k=0 and a singleton group exercise the boundary
        pdf.loc[len(pdf)] = [50, 0]
        got = (
            grouped_rate_ci(rd.from_pandas(pdf).repartition(5),
                            ["g"], "fl")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH a AS (
              SELECT g, CAST(sum(fl) AS BIGINT) AS k,
                     CAST(count(*) AS BIGINT) AS n
              FROM t WHERE fl IS NOT NULL GROUP BY g
            ), b AS (
              SELECT g, k, n,
                     CAST(k AS DOUBLE)/CAST(n AS DOUBLE) AS p,
                     CAST(n AS DOUBLE) AS nf,
                     CAST(1.959963984540054 AS DOUBLE) AS z
              FROM a
            ), c AS (SELECT *, 1.0 + (z*z)/nf AS d FROM b),
            e AS (
              SELECT *, (p + (z*z)/(2.0*nf))/d AS center,
                     z * sqrt(p*(1.0-p)/nf + (z*z)/(4.0*nf*nf)) / d
                       AS half
              FROM c
            )
            SELECT g, k, n, p AS rate,
                   center - half AS ci_lo, center + half AS ci_hi
            FROM e ORDER BY g
        """).df().reset_index(drop=True)
        for col in ["rate", "ci_lo", "ci_hi"]:
            assert got[col].to_numpy().tobytes() == \
                exp[col].to_numpy().tobytes(), col
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # interval sanity: 0 ≤ lo ≤ rate' ≤ hi ≤ 1 (center shrinks
        # toward 1/2, so rate itself may sit outside only at k=0/k=n)
        assert (got["ci_lo"] >= 0).all() and (got["ci_hi"] <= 1).all()
        assert (got["ci_lo"] <= got["ci_hi"]).all()


class TestPeakConcurrency:
    SQL = """
        WITH iv AS (
          SELECT g, s, e FROM t
          WHERE s IS NOT NULL AND e IS NOT NULL AND e > s
        ), ev AS (
          SELECT g, s AS tm, 1 AS d FROM iv
          UNION ALL SELECT g, e, -1 FROM iv
        ), c AS (
          SELECT g, SUM(d) OVER (PARTITION BY g ORDER BY tm, d
                                 ROWS UNBOUNDED PRECEDING) AS conc
          FROM ev
        )
        SELECT g, CAST(max(conc) AS BIGINT) AS peak
        FROM c GROUP BY g ORDER BY g
    """

    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.intervals import peak_concurrency

        rng = np.random.default_rng(95)
        s = rng.integers(0, 100, 600)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 600),
            "s": s,
            # includes degenerate (e <= s) intervals that must drop
            "e": s + rng.integers(-2, 20, 600),
        })
        got = (
            peak_concurrency(rd.from_pandas(pdf).repartition(5),
                             ["g"], "s", "e")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self.SQL).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_half_open_boundaries(self, ray_session):
        from recipys_ray.ops.intervals import peak_concurrency

        # [0,5) and [5,10) touch but never overlap → peak 1;
        # [0,5) and [4,10) overlap → peak 2
        pdf = pd.DataFrame({
            "g": [1, 1, 2, 2],
            "s": [0, 5, 0, 4],
            "e": [5, 10, 5, 10],
        })
        got = (
            peak_concurrency(rd.from_pandas(pdf), ["g"], "s", "e")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert got["peak"].tolist() == [1, 2]


class TestTopShare:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import top_share

        rng = np.random.default_rng(181)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 700),
            "w": rng.integers(0, 500, 700),
            "id": np.arange(700, dtype=np.int64),
        })
        got = (
            top_share(rd.from_pandas(pdf).repartition(5),
                      ["g"], "w", "id", top_frac=0.1)
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH r AS (
              SELECT g, w, row_number() OVER (PARTITION BY g
                       ORDER BY w DESC, id) AS rn,
                     count(*) OVER (PARTITION BY g) AS n
              FROM t
            )
            SELECT g, CAST(max(n) AS BIGINT) AS n_docs,
                   CAST(sum(w) AS BIGINT) AS total_w,
                   CAST(sum(CASE WHEN rn <= (n+9)//10
                                 THEN w ELSE 0 END) AS BIGINT)
                     AS top_w,
                   CAST(sum(CASE WHEN rn <= (n+9)//10
                                 THEN w ELSE 0 END) AS DOUBLE)
                     / CAST(sum(w) AS DOUBLE) AS top_share
            FROM r GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_uniform_and_concentrated(self, ray_session):
        from recipys_ray.ops.groupstats import top_share

        pdf = pd.DataFrame({
            # g=1: 10 equal docs → top-1 holds exactly 10%;
            # g=2: one giant doc dominates → near 1.0
            "g": [1] * 10 + [2] * 10,
            "w": [5] * 10 + [1000] + [1] * 9,
            "id": np.arange(20, dtype=np.int64),
        })
        got = (
            top_share(rd.from_pandas(pdf), ["g"], "w", "id",
                      top_frac=0.1)
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert got["top_share"].tolist() == [0.1, 1000 / 1009]
        assert got["n_docs"].tolist() == [10, 10]


class TestSimpsonDiversity:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import simpson_diversity

        rng = np.random.default_rng(96)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, 700),
            "v": rng.choice(list("abcde"), 700),
        })
        # one singleton group (N=1 → NaN) and nulls
        pdf.loc[len(pdf)] = [99, "z"]
        pdf.loc[10, "v"] = None
        got = (
            simpson_diversity(rd.from_pandas(pdf).repartition(6),
                              ["g"], "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH c AS (
              SELECT g, v, CAST(count(*) AS BIGINT) AS cnt FROM t
              WHERE v IS NOT NULL GROUP BY g, v
            ), a AS (
              SELECT g, CAST(SUM(cnt*(cnt-1)) AS BIGINT) AS s,
                     CAST(SUM(cnt) AS BIGINT) AS n
              FROM c GROUP BY g
            )
            SELECT g, CAST(s AS DOUBLE)/CAST(n*(n-1) AS DOUBLE)
                     AS simpson, n
            FROM a ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        lone = got[got["g"] == 99]
        assert np.isnan(lone["simpson"].iloc[0]) and \
            lone["n"].iloc[0] == 1

    def test_pure_and_uniform_groups(self, ray_session):
        from recipys_ray.ops.groupstats import simpson_diversity

        pdf = pd.DataFrame({
            "g": [1] * 4 + [2] * 4,
            "v": ["a"] * 4 + list("abcd"),
        })
        got = (
            simpson_diversity(rd.from_pandas(pdf), ["g"], "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        # all-same → D=1; all-distinct → D=0
        assert got["simpson"].tolist() == [1.0, 0.0]


class TestCorrMatrix:
    def test_matches_numpy_corrcoef(self, ray_session):
        from recipys_ray.ops.groupstats import corr_matrix

        rng = np.random.default_rng(151)
        pdf = pd.DataFrame({
            "a": rng.integers(0, 40, 600),
            "b": rng.integers(0, 40, 600),
            "c": rng.integers(0, 40, 600),
        })
        pdf["b"] += pdf["a"] // 2  # induce correlation
        got = (
            corr_matrix(rd.from_pandas(pdf).repartition(5),
                        ["a", "b", "c"])
            .to_pandas().sort_values(["col_a", "col_b"])
            .reset_index(drop=True)
        )
        R = np.corrcoef(pdf.to_numpy(np.float64).T)
        exp = {("a", "b"): R[0, 1], ("a", "c"): R[0, 2],
               ("b", "c"): R[1, 2]}
        assert len(got) == 3
        for _, row in got.iterrows():
            np.testing.assert_allclose(
                row["corr"], exp[(row["col_a"], row["col_b"])],
                rtol=1e-12,
            )
            assert row["n"] == len(pdf)

    def test_listwise_nulls_and_validation(self, ray_session):
        from recipys_ray.ops.groupstats import corr_matrix

        pdf = pd.DataFrame({
            "a": [1.0, 2, 3, None, 5],
            "b": [2.0, 4, 6, 8, None],
        })
        got = corr_matrix(rd.from_pandas(pdf), ["a", "b"]).to_pandas()
        assert got["n"].tolist() == [3]  # listwise-complete rows only
        np.testing.assert_allclose(got["corr"].iloc[0], 1.0, rtol=1e-12)
        with pytest.raises(ValueError):
            corr_matrix(rd.from_pandas(pdf), ["a"])


class TestNzvReport:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import nzv_report

        rng = np.random.default_rng(152)
        pdf = pd.DataFrame({
            "skewed": np.where(rng.random(500) < 0.97, "big", "small"),
            "flat": rng.choice(list("abcd"), 500),
            "const": ["k"] * 500,
        })
        got = (
            nzv_report(rd.from_pandas(pdf).repartition(4),
                       ["skewed", "flat", "const"])
            .to_pandas().sort_values("col_name").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH u AS (
              SELECT 'skewed' AS col_name, skewed AS val FROM t
              UNION ALL SELECT 'flat', flat FROM t
              UNION ALL SELECT 'const', "const" FROM t
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
              SELECT col_name, CAST(max(n) AS BIGINT) AS n_rows,
                     CAST(max(nd) AS BIGINT) AS n_distinct,
                     CAST(max(CASE WHEN rn=1 THEN cnt END) AS BIGINT)
                       AS top_cnt,
                     CAST(coalesce(max(CASE WHEN rn=2 THEN cnt END), 0)
                          AS BIGINT) AS second_cnt
              FROM r GROUP BY col_name
            )
            SELECT col_name, n_rows, n_distinct, top_cnt, second_cnt,
                   CAST(top_cnt AS DOUBLE)
                     / CAST(NULLIF(second_cnt,0) AS DOUBLE)
                     AS freq_ratio,
                   CAST(100*n_distinct AS DOUBLE)/CAST(n_rows AS DOUBLE)
                     AS pct_unique,
                   CAST(CASE WHEN second_cnt = 0
                              OR (top_cnt > 19*second_cnt
                                  AND 100*n_distinct < 10*n_rows)
                             THEN 1 ELSE 0 END AS BIGINT) AS nzv
            FROM x ORDER BY col_name
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        flags = dict(zip(got["col_name"], got["nzv"]))
        assert flags == {"const": 1, "flat": 0, "skewed": 1}


class TestGroupedOls2:
    def test_matches_numpy_lstsq(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_ols2

        rng = np.random.default_rng(91)
        n = 900
        pdf = pd.DataFrame({
            "g": rng.integers(0, 5, n),
            "x1": rng.integers(0, 50, n),
            "x2": rng.integers(0, 10, n),
        })
        pdf["y"] = (
            3 * pdf["x1"] - 2 * pdf["x2"]
            + rng.integers(-5, 6, n) + 7
        )
        got = (
            grouped_ols2(rd.from_pandas(pdf).repartition(6),
                         ["g"], "x1", "x2", "y")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        for _, row in got.iterrows():
            sub = pdf[pdf["g"] == row["g"]]
            X = np.column_stack([
                np.ones(len(sub)), sub["x1"].to_numpy(np.float64),
                sub["x2"].to_numpy(np.float64),
            ])
            beta, *_ = np.linalg.lstsq(X, sub["y"].to_numpy(np.float64),
                                       rcond=None)
            np.testing.assert_allclose(
                [row["b0"], row["b1"], row["b2"]], beta, rtol=1e-9
            )
            assert 0.9 <= row["r2"] <= 1.0
            assert row["n"] == len(sub)

    def test_partition_bit_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_ols2

        rng = np.random.default_rng(92)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 4, 500),
            "x1": rng.integers(0, 30, 500),
            "x2": rng.integers(0, 30, 500),
            "y": rng.integers(0, 100, 500),
        })
        outs = [
            grouped_ols2(rd.from_pandas(pdf).repartition(p), ["g"],
                         "x1", "x2", "y", num_partitions=np_)
            .to_pandas().sort_values("g").reset_index(drop=True)
            for p, np_ in [(1, 2), (8, 5), (13, 3)]
        ]
        for col in ["b0", "b1", "b2", "r2"]:
            assert outs[0][col].to_numpy().tobytes() == \
                outs[1][col].to_numpy().tobytes()
            assert outs[0][col].to_numpy().tobytes() == \
                outs[2][col].to_numpy().tobytes()


class TestAssociationRules:
    SQL = """
        WITH di AS (
          SELECT DISTINCT g, it FROM t
          WHERE it IS NOT NULL AND g IS NOT NULL
        ), nb AS (SELECT count(DISTINCT g) AS n FROM di),
        ic AS (SELECT it, CAST(count(*) AS BIGINT) AS n_item
               FROM di GROUP BY it),
        pc AS (
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
        FROM dr d JOIN ic x ON x.it = d.ante
        JOIN ic y ON y.it = d.cons CROSS JOIN nb
        ORDER BY ante, cons
    """

    def test_integer_items(self, ray_session):
        """Integer item ids: the per-partition basket total once rode a
        null-item sentinel row that an int64 column can't hold."""
        import duckdb

        from recipys_ray.ops.groupstats import association_rules

        rng = np.random.default_rng(94)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 40, 400),
            "it": rng.integers(0, 6, 400).astype(np.int64),
        })
        got = (
            association_rules(rd.from_pandas(pdf).repartition(3), "g", "it",
                              num_partitions=3)
            .to_pandas().sort_values(["ante", "cons"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self.SQL).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import association_rules

        rng = np.random.default_rng(93)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 60, 800),
            "it": rng.choice(list("abcdefg"), 800),
        })
        got = (
            association_rules(rd.from_pandas(pdf).repartition(5),
                              "g", "it")
            .to_pandas().sort_values(["ante", "cons"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self.SQL).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_min_pair_count_and_empty(self, ray_session):
        from recipys_ray.ops.groupstats import association_rules

        pdf = pd.DataFrame({
            "g": [1, 1, 2, 2, 3],
            "it": ["a", "b", "a", "b", "a"],
        })
        got = (
            association_rules(rd.from_pandas(pdf), "g", "it",
                              min_pair_count=3).to_pandas()
        )
        assert len(got) == 0  # (a,b) co-occurs in only 2 baskets
        got2 = (
            association_rules(rd.from_pandas(pdf), "g", "it")
            .to_pandas().sort_values("ante").reset_index(drop=True)
        )
        # a→b: conf 2/3; b→a: conf 2/2; lift = 2*3/(3*2) = 1.0
        assert got2["confidence"].tolist() == [2 / 3, 1.0]
        assert got2["lift"].tolist() == [1.0, 1.0]
        empty = pd.DataFrame({"g": pd.Series(dtype=np.int64),
                              "it": pd.Series(dtype=object)})
        assert len(
            association_rules(rd.from_pandas(empty), "g", "it").to_pandas()
        ) == 0


class TestCooccurrence:
    def test_matches_duckdb_self_join(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import cooccurrence_counts

        rng = np.random.default_rng(23)
        n = 800
        pdf = pd.DataFrame({
            "g": rng.integers(0, 40, n),
            "item": rng.choice(["a", "b", "c", "d", "e", None], n),
        })
        got = (
            cooccurrence_counts(
                rd.from_pandas(pdf).repartition(5), "g", "item",
                num_partitions=3,
            )
            .to_pandas()
            .sort_values(["item_a", "item_b"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH d AS (
              SELECT DISTINCT g, item FROM t WHERE item IS NOT NULL
            )
            SELECT a.item AS item_a, b.item AS item_b,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM d a JOIN d b ON a.g = b.g AND a.item < b.item
            GROUP BY a.item, b.item ORDER BY item_a, item_b
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_hot_group_guard(self, ray_session):
        import pytest as _pytest

        from recipys_ray.ops.groupstats import cooccurrence_counts

        pdf = pd.DataFrame({
            "g": [1] * 50,
            "item": [f"i{j}" for j in range(50)],
        })
        with _pytest.raises(Exception, match="max_items"):
            cooccurrence_counts(
                rd.from_pandas(pdf), "g", "item", max_items=10,
                num_partitions=1,
            ).materialize()

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import cooccurrence_counts

        rng = np.random.default_rng(31)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 25, 500),
            "item": rng.choice(list("abcdefg"), 500),
        })
        outs = []
        for parts, nparts in [(1, 1), (9, 4)]:
            outs.append(
                cooccurrence_counts(
                    rd.from_pandas(pdf).repartition(parts), "g", "item",
                    num_partitions=nparts,
                )
                .to_pandas()
                .sort_values(["item_a", "item_b"], ignore_index=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestGroupedCusum:
    def test_matches_duckdb_window(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import grouped_cusum

        rng = np.random.default_rng(83)
        n = 700
        pdf = pd.DataFrame({
            "g": rng.integers(0, 9, n),
            "o": rng.permutation(n).astype(np.int64),
            "x": rng.integers(-100, 100, n),
        })
        got = (
            grouped_cusum(
                rd.from_pandas(pdf).repartition(5), ["g"], ["o"], "x",
                num_partitions=3,
            )
            .to_pandas()
            .sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH w AS (
              SELECT g,
                     sum(x) OVER (PARTITION BY g ORDER BY o
                                  ROWS UNBOUNDED PRECEDING) AS ps,
                     row_number() OVER (PARTITION BY g ORDER BY o) AS t,
                     count(*) OVER (PARTITION BY g) AS n,
                     sum(x) OVER (PARTITION BY g) AS tot
              FROM t
            )
            SELECT g, CAST(max(n) AS BIGINT) AS n,
                   CAST(max(abs(n * ps - t * tot)) AS BIGINT) AS cusum
            FROM w GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_shift_detection(self, ray_session):
        from recipys_ray.ops.timeseries import grouped_cusum

        # stable group vs a group with a mid-sequence level shift
        pdf = pd.DataFrame({
            "g": ["flat"] * 40 + ["shift"] * 40,
            "o": list(range(40)) * 2,
            "x": [10] * 40 + [0] * 20 + [20] * 20,
        })
        got = grouped_cusum(
            rd.from_pandas(pdf), ["g"], ["o"], "x", num_partitions=1
        ).to_pandas().set_index("g")
        assert got.loc["flat", "cusum"] == 0
        # shift group: max at t=20, |40*0 - 20*400| = 8000
        assert got.loc["shift", "cusum"] == 8000

    def test_overflow_guard(self, ray_session):
        import pytest as _pytest

        from recipys_ray.ops.timeseries import grouped_cusum

        pdf = pd.DataFrame({
            "g": [1, 1],
            "o": [0, 1],
            "x": [1 << 61, 1 << 61],
        })
        with _pytest.raises(Exception, match="overflow"):
            grouped_cusum(
                rd.from_pandas(pdf), ["g"], ["o"], "x", num_partitions=1
            ).materialize()


class TestSequenceIntegrity:
    def test_matches_duckdb_lag(self, ray_session):
        import duckdb

        from recipys_ray.ops.timeseries import sequence_integrity

        rng = np.random.default_rng(61)
        n = 600
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, n),
            "o": rng.permutation(n).astype(np.int64),
            "s": rng.choice(["user", "assistant", "tool", None], n,
                            p=[0.45, 0.45, 0.05, 0.05]),
        })
        got = (
            sequence_integrity(
                rd.from_pandas(pdf).repartition(5), ["g"], ["o"], "s",
                num_partitions=3,
            )
            .to_pandas()
            .sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH w AS (
              SELECT g, s, lag(s) OVER (PARTITION BY g ORDER BY o)
                AS prev FROM t
            )
            SELECT g, CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CASE WHEN s = prev THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_repeats,
                   CAST(sum(CASE WHEN s != prev THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_changes
            FROM w GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_alternating_vs_stuck(self, ray_session):
        from recipys_ray.ops.timeseries import sequence_integrity

        pdf = pd.DataFrame({
            "g": ["ok"] * 6 + ["stuck"] * 6,
            "o": list(range(6)) * 2,
            "s": ["u", "a", "u", "a", "u", "a"]
                 + ["u", "a", "a", "a", "u", "u"],
        })
        got = sequence_integrity(
            rd.from_pandas(pdf), ["g"], ["o"], "s", num_partitions=1
        ).to_pandas().set_index("g")
        assert got.loc["ok", "n_repeats"] == 0
        assert got.loc["ok", "n_changes"] == 5
        assert got.loc["stuck", "n_repeats"] == 3
        assert got.loc["stuck", "n_changes"] == 2


class TestVectorOps:
    """grouped_mean_pool / centroid_cosine (ops/vector.py)."""

    @staticmethod
    def _emb_pdf(seed=7, n=120, dim=6, labels=("a", "b", "c")):
        rng = np.random.default_rng(seed)
        return pd.DataFrame({
            "vec_id": np.arange(n, dtype=np.int64),
            "label": rng.choice(list(labels), n),
            "embedding": [
                rng.normal(0, 1, dim).astype(np.float32).tolist()
                for _ in range(n)
            ],
        })

    def test_mean_pool_matches_numpy(self, ray_session):
        from recipys_ray.ops.vector import grouped_mean_pool

        pdf = self._emb_pdf()
        got = (
            grouped_mean_pool(
                rd.from_pandas(pdf).repartition(5), ["label"],
                num_partitions=3,
            )
            .to_pandas()
            .sort_values(["label", "dim"], ignore_index=True)
        )
        scale = 2**20
        rows = []
        for lab, sub in pdf.groupby("label"):
            q = np.floor(
                np.stack([np.asarray(v, np.float64) for v in sub["embedding"]])
                * scale
            ).astype(np.int64)
            for d in range(q.shape[1]):
                rows.append({
                    "label": lab, "dim": d, "n": len(sub),
                    "centroid": float(q[:, d].sum())
                    / float(len(sub) * scale),
                })
        exp = pd.DataFrame(rows).sort_values(
            ["label", "dim"], ignore_index=True
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # bit-equality is the contract, not just allclose
        assert (got["centroid"].to_numpy() == exp["centroid"].to_numpy()).all()

    def test_mean_pool_partition_invariance(self, ray_session):
        from recipys_ray.ops.vector import grouped_mean_pool

        pdf = self._emb_pdf(seed=11)
        outs = []
        for parts, nparts in [(1, 1), (7, 4)]:
            outs.append(
                grouped_mean_pool(
                    rd.from_pandas(pdf).repartition(parts), ["label"],
                    num_partitions=nparts,
                )
                .to_pandas()
                .sort_values(["label", "dim"], ignore_index=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        assert (
            outs[0]["centroid"].to_numpy() == outs[1]["centroid"].to_numpy()
        ).all()

    def test_centroid_cosine_matches_numpy(self, ray_session):
        from recipys_ray.ops.vector import centroid_cosine

        pdf = self._emb_pdf(seed=13)
        got = (
            centroid_cosine(rd.from_pandas(pdf).repartition(4), ["label"])
            .to_pandas()
            .sort_values("vec_id", ignore_index=True)
        )
        scale = 2**20
        cents = {}
        for lab, sub in pdf.groupby("label"):
            q = np.floor(
                np.stack([np.asarray(v, np.float64) for v in sub["embedding"]])
                * scale
            ).astype(np.int64)
            mean = q.sum(axis=0).astype(np.float64) / float(len(sub) * scale)
            cents[lab] = np.floor(mean * scale).astype(np.int64)
        exp = []
        for _, row in pdf.iterrows():
            q = np.floor(
                np.asarray(row["embedding"], np.float64) * scale
            ).astype(np.int64)
            cq = cents[row["label"]]
            den = np.sqrt(float((q * q).sum())) * np.sqrt(
                float((cq * cq).sum())
            )
            exp.append(float(q @ cq) / den)
        assert (got["cos_centroid"].to_numpy() == np.array(exp)).all()
        # cosine to own-group centroid of random normals: mostly modest
        assert got["cos_centroid"].abs().max() <= 1.0 + 1e-12

    def test_centroid_cosine_zero_vector_is_nan(self, ray_session):
        from recipys_ray.ops.vector import centroid_cosine

        pdf = pd.DataFrame({
            "vec_id": [0, 1, 2],
            "label": ["a", "a", "a"],
            "embedding": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        })
        got = (
            centroid_cosine(rd.from_pandas(pdf), ["label"])
            .to_pandas()
            .sort_values("vec_id", ignore_index=True)
        )
        assert np.isnan(got.loc[0, "cos_centroid"])
        assert np.isfinite(got.loc[1, "cos_centroid"])

    def test_ragged_vectors_raise(self, ray_session):
        from recipys_ray.ops.vector import grouped_mean_pool

        pdf = pd.DataFrame({
            "label": ["a", "a"],
            "embedding": [[1.0, 2.0], [1.0, 2.0, 3.0]],
        })
        with pytest.raises(Exception, match="ragged"):
            grouped_mean_pool(
                rd.from_pandas(pdf), ["label"], num_partitions=1
            ).materialize()


class TestStateRunStats:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import state_run_stats

        rng = np.random.default_rng(53)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 25, 900),
            "o": np.arange(900),
            "v": rng.choice(["a", "b", "c", None], 900,
                            p=[0.45, 0.3, 0.2, 0.05]),
        })
        got = (
            state_run_stats(rd.from_pandas(pdf), ["g"], ["o"], "v")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH gg AS (
              SELECT g, o, v,
                     CASE WHEN v IS DISTINCT FROM
                               lag(v) OVER (PARTITION BY g ORDER BY o)
                          THEN 1 ELSE 0 END AS brk
              FROM t
            ),
            r AS (
              SELECT g, sum(brk) OVER (PARTITION BY g ORDER BY o
                         ROWS UNBOUNDED PRECEDING) AS run_id
              FROM gg
            ),
            runs AS (SELECT g, run_id, count(*) AS rl
                     FROM r GROUP BY g, run_id)
            SELECT g, CAST(count(*) AS BIGINT) AS n_runs,
                   CAST(max(rl) AS BIGINT) AS max_run_len,
                   CAST(sum(rl) AS BIGINT) AS n_events
            FROM runs GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_all_null_states_one_run(self, ray_session):
        from recipys_ray.ops.groupstats import state_run_stats

        pdf = pd.DataFrame({"g": [1] * 4, "o": range(4),
                            "v": pd.array([None] * 4, dtype="string")})
        got = state_run_stats(rd.from_pandas(pdf), ["g"], ["o"], "v"
                              ).to_pandas()
        assert got["n_runs"].tolist() == [1]
        assert got["max_run_len"].tolist() == [4]

    def test_alternating(self, ray_session):
        from recipys_ray.ops.groupstats import state_run_stats

        pdf = pd.DataFrame({"g": [1] * 6, "o": range(6),
                            "v": ["a", "b"] * 3})
        got = state_run_stats(rd.from_pandas(pdf), ["g"], ["o"], "v"
                              ).to_pandas()
        assert got["n_runs"].tolist() == [6]
        assert got["max_run_len"].tolist() == [1]


class TestGroupedMinmax:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.groupstats import grouped_minmax

        rng = np.random.default_rng(59)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 30, 1000),
            "i": np.arange(1000),
            "x": rng.integers(-500, 500, 1000),
        })
        # one constant group → NULL outputs
        pdf.loc[pdf["g"] == 7, "x"] = 42
        got = (
            grouped_minmax(rd.from_pandas(pdf), ["g"], "x", out_col="mm")
            .to_pandas().sort_values("i").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH s AS (SELECT g, min(x) mn, max(x) mx FROM t GROUP BY g)
            SELECT t.g, t.i, t.x,
                   CASE WHEN s.mx = s.mn THEN NULL
                        ELSE CAST(t.x - s.mn AS DOUBLE)
                             / CAST(s.mx - s.mn AS DOUBLE) END AS mm
            FROM t JOIN s USING (g) ORDER BY i
        """).df().reset_index(drop=True)
        np.testing.assert_array_equal(
            got["mm"].to_numpy(), exp["mm"].to_numpy()
        )
        assert got.loc[got["g"] == 7, "mm"].isna().all()


class TestBenfordCounts:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.profile import benford_counts

        rng = np.random.default_rng(61)
        # span several magnitudes incl. exact powers of ten and junk
        vals = np.r_[
            rng.integers(1, 10**6, 2000),
            [1, 10, 100, 1000, 9, 99, 999],
            [0, -5, -1000],
        ].astype(np.int64)
        pdf = pd.DataFrame({"x": vals})
        got = (
            benford_counts(rd.from_pandas(pdf), "x")
            .to_pandas().sort_values("digit").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT CAST(substr(CAST(x AS VARCHAR),1,1) AS BIGINT) AS digit,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM t WHERE x > 0 GROUP BY digit ORDER BY digit
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_nulls_dropped(self, ray_session):
        from recipys_ray.ops.profile import benford_counts

        pdf = pd.DataFrame({"x": pd.array([None, 123, None, 7],
                                          dtype="Int64")})
        got = benford_counts(rd.from_pandas(pdf), "x").to_pandas()
        assert int(got["cnt"].sum()) == 2


class TestScd2Intervals:
    _SQL = """
        WITH o AS (
          SELECT g, o AS ord, st,
                 lag(st) OVER (PARTITION BY g ORDER BY o) AS prev
          FROM t
        ), marks AS (
          SELECT g, ord, st FROM o WHERE prev IS NULL OR prev <> st
        )
        SELECT g, st, ord AS valid_from,
               lead(ord) OVER (PARTITION BY g ORDER BY ord) AS valid_to
        FROM marks ORDER BY g, valid_from
    """

    def _run(self, pdf, num_partitions=None):
        from recipys_ray.ops.intervals import scd2_intervals

        return (
            scd2_intervals(rd.from_pandas(pdf), ["g"], ["o"], "st",
                           num_partitions=num_partitions)
            .to_pandas().sort_values(["g", "valid_from"])
            .reset_index(drop=True)
        )

    def test_matches_duckdb_random(self, ray_session):
        import duckdb

        rng = np.random.default_rng(91)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 500),
            "o": np.arange(500, dtype=np.int64),
            "st": rng.choice(list("abc"), 500),
        })
        got = self._run(pdf)
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self._SQL).df().rename(columns={"st": "st"})
        exp = exp.reset_index(drop=True)
        got = got[["g", "st", "valid_from", "valid_to"]]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_run_boundaries_and_open_run(self, ray_session):
        pdf = pd.DataFrame({
            "g": [0, 0, 0, 0, 1],
            "o": [1, 2, 3, 4, 1],
            "st": ["a", "a", "b", "a", "x"],
        })
        got = self._run(pdf)
        assert got["st"].tolist() == ["a", "b", "a", "x"]
        assert got["valid_from"].tolist() == [1, 3, 4, 1]
        # valid_to = next run's start; open runs are NULL
        assert got["valid_to"].tolist()[:2] == [3, 4]
        assert pd.isna(got["valid_to"].iloc[2]) and pd.isna(
            got["valid_to"].iloc[3]
        )

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(92)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 9, 400),
            "o": np.arange(400, dtype=np.int64),
            "st": rng.choice(list("pq"), 400),
        })
        a = self._run(pdf, num_partitions=1)
        b = self._run(pdf, num_partitions=7)
        pd.testing.assert_frame_equal(a, b)


class TestBudgetPrefix:
    def _run(self, pdf, budget, num_partitions=None):
        from recipys_ray.ops.timeseries import budget_prefix

        return (
            budget_prefix(rd.from_pandas(pdf), ["g"], ["o"], "w", budget,
                          num_partitions=num_partitions)
            .to_pandas().sort_values(["g", "o"]).reset_index(drop=True)
        )

    def test_matches_duckdb_window_filter(self, ray_session):
        import duckdb

        rng = np.random.default_rng(93)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 20, 600),
            "o": np.arange(600, dtype=np.int64),
            "w": rng.integers(0, 50, 600),
        })
        got = self._run(pdf, 120)
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT g, o, w, CAST(cw AS BIGINT) AS cum_weight FROM (
              SELECT g, o, w,
                     sum(w) OVER (PARTITION BY g ORDER BY o
                                  ROWS UNBOUNDED PRECEDING) AS cw
              FROM t
            ) WHERE cw <= 120 ORDER BY g, o
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_prefix_semantics(self, ray_session):
        # non-negative weights: kept set IS the maximal ordered prefix
        pdf = pd.DataFrame({
            "g": [0] * 5, "o": [1, 2, 3, 4, 5],
            "w": [4, 4, 4, 100, 1],
        })
        got = self._run(pdf, 12)
        assert got["o"].tolist() == [1, 2, 3]  # row 5 fits numerically
        # only via a non-prefix sieve; monotone cumsum excludes it
        assert got["cum_weight"].tolist() == [4, 8, 12]

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(94)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 11, 500),
            "o": np.arange(500, dtype=np.int64),
            "w": rng.integers(1, 30, 500),
        })
        a = self._run(pdf, 200, num_partitions=1)
        b = self._run(pdf, 200, num_partitions=6)
        pd.testing.assert_frame_equal(a, b)


class TestGroupedWinsorize:
    def _run(self, pdf, lq, uq, num_partitions=None):
        from recipys_ray.ops.quantiles import grouped_winsorize

        return (
            grouped_winsorize(rd.from_pandas(pdf), "g", "v", ["i"],
                              lower_q=lq, upper_q=uq,
                              num_partitions=num_partitions)
            .to_pandas().sort_values("i").reset_index(drop=True)
        )

    def test_matches_duckdb_quantile_disc(self, ray_session):
        import duckdb

        rng = np.random.default_rng(95)
        v = rng.normal(0, 10, 800)
        v[rng.random(800) < 0.1] = np.nan
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, 800),
            "i": np.arange(800, dtype=np.int64),
            "v": v,
        })
        got = self._run(pdf, 0.1, 0.9)
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH b AS (
              SELECT g, quantile_disc(v, 0.1) AS lo,
                     quantile_disc(v, 0.9) AS hi
              FROM t GROUP BY g
            )
            SELECT i, CASE WHEN v IS NULL THEN NULL
                           ELSE least(greatest(v, b.lo), b.hi) END AS w_value
            FROM t JOIN b USING (g) ORDER BY i
        """).df().reset_index(drop=True)
        # bit-exact: bounds are order statistics, clip is IEEE min/max
        gv = got["w_value"].to_numpy(dtype=np.float64, na_value=np.nan)
        ev = exp["w_value"].to_numpy(dtype=np.float64, na_value=np.nan)
        assert np.array_equal(gv, ev, equal_nan=True)
        assert got["i"].tolist() == exp["i"].tolist()

    def test_all_null_group_and_edge_qs(self, ray_session):
        pdf = pd.DataFrame({
            "g": [0, 0, 0, 1, 1],
            "i": [1, 2, 3, 4, 5],
            "v": [1.0, 5.0, 9.0, np.nan, np.nan],
        })
        got = self._run(pdf, 0.5, 0.5)
        # q=0.5 both sides: everything clips to the group median
        assert got["w_value"].tolist()[:3] == [5.0, 5.0, 5.0]
        assert got["w_value"].iloc[3:].isna().all()

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(96)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 400),
            "i": np.arange(400, dtype=np.int64),
            "v": rng.normal(0, 5, 400),
        })
        a = self._run(pdf, 0.25, 0.75, num_partitions=1)
        b = self._run(pdf, 0.25, 0.75, num_partitions=5)
        pd.testing.assert_frame_equal(a, b)


class TestRemoveBoilerplateTokens:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import remove_boilerplate_tokens

        rng = np.random.default_rng(97)
        vocab = ["the", "of", "rare1", "rare2", "x", "y", "z"]
        # heavily skew "the"/"of" so the threshold separates
        probs = np.array([0.3, 0.25, 0.08, 0.08, 0.1, 0.1, 0.09])
        texts = [
            " ".join(rng.choice(vocab, rng.integers(3, 12), p=probs))
            for _ in range(120)
        ]
        pdf = pd.DataFrame({"doc_id": np.arange(120, dtype=np.int64),
                            "text": texts})
        got = (
            remove_boilerplate_tokens(
                rd.from_pandas(pdf), min_fraction=0.2
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", pdf)
        exp = con.execute("""
            WITH parts AS (
              SELECT doc_id, string_split(coalesce(text,''), ' ') AS p
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(p) AS tok,
                     generate_subscripts(p, 1) AS idx FROM parts
            ), tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM tok),
            freq AS (
              SELECT tok FROM tok GROUP BY tok
              HAVING count(*) >= ceil(0.2 * (SELECT n FROM tot))
            ), kept AS (
              SELECT doc_id, string_agg(tok, ' ' ORDER BY idx)
                       AS text_clean,
                     CAST(count(*) AS BIGINT) AS n_kept
              FROM tok WHERE tok NOT IN (SELECT tok FROM freq)
              GROUP BY doc_id
            )
            SELECT d.doc_id, k.text_clean,
                   CAST(len(string_split(coalesce(d.text,''),' '))
                        AS BIGINT) - coalesce(k.n_kept, 0) AS n_removed
            FROM documents d LEFT JOIN kept k ON d.doc_id = k.doc_id
            ORDER BY d.doc_id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["doc_id", "text_clean", "n_removed"]], exp,
            check_dtype=False,
        )

    def test_roundtrip_and_nulls(self, ray_session):
        from recipys_ray.ops.text import remove_boilerplate_tokens

        pdf = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": ["a b a b a", "c d", None, "a a a"],
        })
        got = (
            remove_boilerplate_tokens(
                rd.from_pandas(pdf), min_fraction=0.4
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        # "a" appears 6/10 >= ceil(0.4*10)=4 -> removed; others kept
        assert got["text_clean"].tolist()[:2] == ["b b", "c d"]
        assert pd.isna(got["text_clean"].iloc[2])  # null input
        assert pd.isna(got["text_clean"].iloc[3])  # all tokens removed
        assert got["n_removed"].tolist()[:2] == [3, 0]
        assert pd.isna(got["n_removed"].iloc[2])
        assert got["n_removed"].iloc[3] == 3


class TestDocTermCounts:
    def test_matches_duckdb_vocab_restriction(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import doc_term_counts

        rng = np.random.default_rng(98)
        vocab = [f"w{i}" for i in range(12)]
        probs = np.linspace(5, 1, 12)
        probs = probs / probs.sum()
        texts = [
            " ".join(rng.choice(vocab, rng.integers(2, 20), p=probs))
            for _ in range(150)
        ]
        pdf = pd.DataFrame({"doc_id": np.arange(150, dtype=np.int64),
                            "text": texts})
        got = (
            doc_term_counts(rd.from_pandas(pdf), vocab_size=5)
            .to_pandas().sort_values(["doc_id", "token"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", pdf)
        exp = con.execute(r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(coalesce(text,'')),
                                               '\w+')) AS token
              FROM documents
            ), vocab AS (
              SELECT token FROM (
                SELECT token, count(*) AS c FROM tok GROUP BY token
                ORDER BY c DESC, token ASC LIMIT 5
              )
            )
            SELECT t.doc_id, t.token, CAST(count(*) AS BIGINT) AS n
            FROM tok t JOIN vocab USING (token)
            GROUP BY t.doc_id, t.token ORDER BY t.doc_id, t.token
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestGroupedWelchTtest:
    def test_matches_scipy_and_duckdb_form(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import grouped_welch_ttest

        rng = np.random.default_rng(99)
        n = 900
        pdf = pd.DataFrame({
            "g": rng.integers(0, 6, n),
            "side": rng.choice(["A", "B", "C"], n),
            "v": rng.integers(0, 100, n).astype(np.float64),
        })
        got = (
            grouped_welch_ttest(rd.from_pandas(pdf), ["g"], "v", "side",
                                "A", "B")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH s AS (
              SELECT g, side, CAST(count(*) AS BIGINT) n,
                     CAST(sum(CAST(v AS BIGINT)) AS BIGINT) sx,
                     CAST(sum(CAST(v AS BIGINT)*CAST(v AS BIGINT))
                          AS BIGINT) sx2
              FROM t WHERE side IN ('A','B') GROUP BY 1,2
            ), w AS (
              SELECT a.g, a.n n_a, b.n n_b,
                     a.sx/a.n mean_a, b.sx/b.n mean_b,
                     (a.sx2 - (a.sx*a.sx)/a.n)/(a.n-1) var_a,
                     (b.sx2 - (b.sx*b.sx)/b.n)/(b.n-1) var_b
              FROM (SELECT * FROM s WHERE side='A') a
              JOIN (SELECT * FROM s WHERE side='B') b USING (g)
              WHERE a.n >= 2 AND b.n >= 2
            )
            SELECT g, n_a, n_b,
                   (mean_a-mean_b)/sqrt(var_a/n_a + var_b/n_b) t_welch,
                   ((var_a/n_a + var_b/n_b)*(var_a/n_a + var_b/n_b))
                   / ((var_a/n_a)*(var_a/n_a)/(n_a-1)
                      + (var_b/n_b)*(var_b/n_b)/(n_b-1)) df_welch
            FROM w ORDER BY g
        """).df().reset_index(drop=True)
        # bit-equal: integer sufficient stats + mirrored op order
        assert got["n_a"].tolist() == exp["n_a"].tolist()
        assert np.array_equal(got["t_welch"].to_numpy(),
                              exp["t_welch"].to_numpy())
        assert np.array_equal(got["df_welch"].to_numpy(),
                              exp["df_welch"].to_numpy())
        # sanity vs the textbook formula (scipy unavailable: direct calc)
        sub = pdf[(pdf["g"] == 0) & pdf["side"].isin(["A", "B"])]
        a = sub.loc[sub["side"] == "A", "v"].to_numpy()
        b = sub.loc[sub["side"] == "B", "v"].to_numpy()
        va, vb = a.var(ddof=1), b.var(ddof=1)
        t_ref = (a.mean() - b.mean()) / np.sqrt(va / len(a) + vb / len(b))
        assert abs(got.loc[got["g"] == 0, "t_welch"].iloc[0] - t_ref) < 1e-9

    def test_missing_side_and_small_groups_dropped(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_welch_ttest

        pdf = pd.DataFrame({
            "g": [0, 0, 0, 0, 1, 1, 2, 2, 2],
            "side": ["A", "A", "B", "B", "A", "A", "A", "A", "B"],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        })
        got = (
            grouped_welch_ttest(rd.from_pandas(pdf), ["g"], "v", "side",
                                "A", "B")
            .to_pandas()
        )
        # g=1 has no B side; g=2 has n_b=1 < 2 -> both dropped
        assert got["g"].tolist() == [0]

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_welch_ttest

        rng = np.random.default_rng(100)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 5, 400),
            "side": rng.choice(["A", "B"], 400),
            "v": rng.integers(0, 50, 400).astype(np.float64),
        })
        outs = [
            grouped_welch_ttest(rd.from_pandas(pdf), ["g"], "v", "side",
                                "A", "B", num_partitions=p)
            .to_pandas().sort_values("g").reset_index(drop=True)
            for p in (1, 5)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestExpandingMeanExclusive:
    def _run(self, pdf, num_partitions=None):
        from recipys_ray.ops.groupstats import expanding_mean_exclusive

        return (
            expanding_mean_exclusive(
                rd.from_pandas(pdf), ["g"], ["o"], "v", ["o"],
                num_partitions=num_partitions,
            )
            .to_pandas().sort_values("o").reset_index(drop=True)
        )

    def test_matches_duckdb_exclusive_window(self, ray_session):
        import duckdb

        rng = np.random.default_rng(101)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, 500),
            "o": np.arange(500, dtype=np.int64),
            "v": rng.integers(0, 1000, 500),
        })
        pdf.loc[rng.random(500) < 0.1, "v"] = pd.NA
        pdf["v"] = pdf["v"].astype("Int64")
        got = self._run(pdf)
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT o, avg(v) OVER (PARTITION BY g ORDER BY o
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING) AS prior_mean
            FROM t ORDER BY o
        """).df().reset_index(drop=True)
        gv = got["prior_mean"].to_numpy(np.float64, na_value=np.nan)
        ev = exp["prior_mean"].to_numpy(np.float64, na_value=np.nan)
        # bit-equal: exact integer prefix sums, one final division
        assert np.array_equal(gv, ev, equal_nan=True)

    def test_no_leakage_first_row_null(self, ray_session):
        pdf = pd.DataFrame({
            "g": [0, 0, 0], "o": [1, 2, 3], "v": [10, 20, 40],
        })
        got = self._run(pdf)
        assert pd.isna(got["prior_mean"].iloc[0])
        assert got["prior_mean"].tolist()[1:] == [10.0, 15.0]

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(102)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 7, 300),
            "o": np.arange(300, dtype=np.int64),
            "v": rng.integers(0, 100, 300),
        })
        a = self._run(pdf, num_partitions=1)
        b = self._run(pdf, num_partitions=5)
        pd.testing.assert_frame_equal(a, b)


class TestGroupedArgmax:
    def test_matches_duckdb_rownumber(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import grouped_argmax

        rng = np.random.default_rng(103)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 600),
            "id": np.arange(600, dtype=np.int64),
            "v": rng.integers(0, 40, 600),  # many ties
        })
        got = (
            grouped_argmax(rd.from_pandas(pdf), ["g"], "v", ["id"],
                           keep_cols=["id", "v"])
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT g, id, v FROM (
              SELECT g, id, v, row_number() OVER (
                PARTITION BY g ORDER BY v DESC, id ASC) rn FROM t
            ) WHERE rn = 1 ORDER BY g
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["g", "id", "v"]], exp, check_dtype=False
        )

    def test_nulls_lose_and_all_null_dropped(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_argmax

        pdf = pd.DataFrame({
            "g": [0, 0, 1, 1],
            "id": [1, 2, 3, 4],
            "v": [np.nan, 5.0, np.nan, np.nan],
        })
        got = (
            grouped_argmax(rd.from_pandas(pdf), ["g"], "v", ["id"])
            .to_pandas()
        )
        assert got["g"].tolist() == [0]
        assert got["id"].tolist() == [2]

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_argmax

        rng = np.random.default_rng(104)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 9, 400),
            "id": np.arange(400, dtype=np.int64),
            "v": rng.integers(0, 25, 400),
        })
        outs = [
            grouped_argmax(rd.from_pandas(pdf), ["g"], "v", ["id"],
                           num_partitions=p)
            .to_pandas().sort_values("g").reset_index(drop=True)
            for p in (1, 6)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestPatternCounts:
    def test_matches_duckdb_regexp_counts(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import pattern_counts

        pdf = pd.DataFrame({
            "doc_id": np.arange(6, dtype=np.int64),
            "text": ["the table rows", "aequous ooze", "", None,
                     "x tablerow row table", "no matches here"],
        })
        got = (
            pattern_counts(rd.from_pandas(pdf), patterns={
                "n_vowels": "[aeiou]+", "n_tbl": "table|row",
            })
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[aeiou]+'))
                        AS BIGINT) AS n_vowels,
                   CAST(len(regexp_extract_all(text, 'table|row'))
                        AS BIGINT) AS n_tbl
            FROM t ORDER BY doc_id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["doc_id", "n_vowels", "n_tbl"]], exp, check_dtype=False
        )

    def test_empty_patterns_rejected(self, ray_session):
        from recipys_ray.ops.text import pattern_counts

        with pytest.raises(ValueError):
            pattern_counts(None, patterns={})


class TestDebounceEvents:
    def _pdf(self, seed=105, n=400):
        rng = np.random.default_rng(seed)
        return pd.DataFrame({
            "g": rng.integers(0, 8, n),
            "id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime("2026-01-01")
            + pd.to_timedelta(rng.integers(0, 72 * 3600, n), unit="s"),
        })

    def test_matches_duckdb_bucket_first(self, ray_session):
        import duckdb
        from recipys_ray.ops.timeseries import debounce_events

        pdf = self._pdf()
        got = (
            debounce_events(rd.from_pandas(pdf), ["g"], "ts",
                            ["ts", "id"], period_us=3_600_000_000)
            .to_pandas().sort_values(["g", "bucket"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT g, id, bucket FROM (
              SELECT g, id, epoch_us(ts) // 3600000000 AS bucket,
                     row_number() OVER (
                       PARTITION BY g, epoch_us(ts) // 3600000000
                       ORDER BY ts, id) rn
              FROM t
            ) WHERE rn = 1 ORDER BY g, bucket
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["g", "id", "bucket"]], exp, check_dtype=False
        )

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.timeseries import debounce_events

        pdf = self._pdf(seed=106)
        outs = [
            debounce_events(rd.from_pandas(pdf), ["g"], "ts",
                            ["ts", "id"], period_us=7_200_000_000,
                            num_partitions=p)
            .to_pandas().sort_values(["g", "bucket"])
            .reset_index(drop=True)
            for p in (1, 5)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestGroupShare:
    def test_matches_duckdb_window_share(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import group_share

        rng = np.random.default_rng(107)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 10, 400),
            "id": np.arange(400, dtype=np.int64),
            "v": rng.integers(1, 500, 400),
        })
        got = (
            group_share(rd.from_pandas(pdf), ["g"], "v", ["id"])
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT id, v / CAST(sum(v) OVER (PARTITION BY g) AS BIGINT)
                     AS share
            FROM t ORDER BY id
        """).df().reset_index(drop=True)
        gv = got["share"].to_numpy(np.float64, na_value=np.nan)
        assert np.array_equal(gv, exp["share"].to_numpy())  # bit-equal

    def test_zero_group_and_nulls(self, ray_session):
        from recipys_ray.ops.groupstats import group_share

        pdf = pd.DataFrame({
            "g": [0, 0, 1, 1],
            "id": [1, 2, 3, 4],
            "v": pd.array([3, 1, 0, 0], dtype="Int64"),
        })
        pdf.loc[1, "v"] = pd.NA
        got = (
            group_share(rd.from_pandas(pdf), ["g"], "v", ["id"])
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert got["share"].iloc[0] == 1.0  # null excluded from total
        assert pd.isna(got["share"].iloc[1])  # null value
        assert got["share"].iloc[2:].isna().all()  # all-zero group


class TestGroupSeqIndex:
    def test_matches_duckdb_rownumber(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import group_seq_index

        rng = np.random.default_rng(108)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 300),
            "o": rng.permutation(300).astype(np.int64),
            "id": np.arange(300, dtype=np.int64),
        })
        got = (
            group_seq_index(rd.from_pandas(pdf), ["g"], ["o"], ["id"])
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT id, CAST(row_number() OVER (PARTITION BY g ORDER BY o)
                            AS BIGINT) AS seq_idx
            FROM t ORDER BY id
        """).df().reset_index(drop=True)
        assert got["seq_idx"].tolist() == exp["seq_idx"].tolist()


class TestSourceSimilarity:
    def test_matches_duckdb_vocab_jaccard(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import source_similarity

        rng = np.random.default_rng(109)
        vocab = [f"tok{i}" for i in range(30)]
        srcs = ["s1", "s2", "s3"]
        texts, src_col = [], []
        for _ in range(200):
            src = rng.choice(srcs)
            # give each source a biased vocabulary slice
            lo = {"s1": 0, "s2": 8, "s3": 16}[src]
            words = rng.choice(vocab[lo:lo + 14], rng.integers(2, 10))
            texts.append(" ".join(words))
            src_col.append(src)
        pdf = pd.DataFrame({"source": src_col, "text": texts})
        got = source_similarity(rd.from_pandas(pdf)).reset_index(drop=True)
        con = duckdb.connect()
        con.register("documents", pdf)
        exp = con.execute(r"""
            WITH st AS (
              SELECT DISTINCT source, token FROM (
                SELECT source,
                       unnest(regexp_extract_all(lower(coalesce(text,'')),
                                                 '\w+')) AS token
                FROM documents
              )
            ), sz AS (
              SELECT source, CAST(count(*) AS BIGINT) n FROM st
              GROUP BY source
            ), pairs AS (
              SELECT a.source group_a, b.source group_b,
                     CAST(count(*) AS BIGINT) n_common
              FROM st a JOIN st b
                ON a.token = b.token AND a.source < b.source
              GROUP BY 1, 2
            )
            SELECT group_a, group_b, n_common,
                   n_common / (za.n + zb.n - n_common) AS jaccard
            FROM pairs JOIN sz za ON za.source = group_a
            JOIN sz zb ON zb.source = group_b
            ORDER BY group_a, group_b
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestBpeMerges:
    def test_hand_computed_merges(self, ray_session):
        from recipys_ray.ops.text import bpe_merges

        # "low low low lower" (Sennrich's running example, shrunk):
        # counts low=3 lower=1 → pair (l,o)=4, (o,w)=4, (w,e)=1, (e,r)=1
        # tie on 4 → (l,o) wins lexicographically; then (lo,w)=4 wins.
        pdf = pd.DataFrame({"text": ["low low low", "lower"]})
        got = (
            bpe_merges(rd.from_pandas(pdf), "text", k=2)
            .to_pandas().sort_values("rank").reset_index(drop=True)
        )
        assert got["lhs"].tolist() == ["l", "lo"]
        assert got["rhs"].tolist() == ["o", "w"]
        assert got["pair_count"].tolist() == [4, 4]

    def test_overlap_counting_and_nonoverlap_rewrite(self, ray_session):
        from recipys_ray.ops.text import bpe_merges

        # "aaa": pair (a,a) counts twice (overlap), but the merge
        # rewrites left-to-right → ("aa","a"), so rank-1 pair (aa,a)
        # has count 1, not 2
        pdf = pd.DataFrame({"text": ["aaa"]})
        got = (
            bpe_merges(rd.from_pandas(pdf), "text", k=3)
            .to_pandas().sort_values("rank").reset_index(drop=True)
        )
        assert got["lhs"].tolist() == ["a", "aa"]
        assert got["rhs"].tolist() == ["a", "a"]
        assert got["pair_count"].tolist() == [2, 1]

    def test_matches_sequential_reference(self, ray_session):
        import sys

        sys.path.insert(0, "scripts")
        try:
            from gen_expected import bpe_expected
        finally:
            sys.path.pop(0)
        from recipys_ray.ops.text import bpe_merges

        rng = np.random.default_rng(81)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "eta", "theta", "iota", "kappa"]
        texts = [
            " ".join(rng.choice(vocab, rng.integers(3, 30)))
            for _ in range(60)
        ]
        pdf = pd.DataFrame({"text": texts})
        got = (
            bpe_merges(rd.from_pandas(pdf).repartition(5), "text", k=25)
            .to_pandas().sort_values("rank").reset_index(drop=True)
        )
        exp = bpe_expected(pdf, k=25)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_encode_hand_computed(self, ray_session):
        from recipys_ray.ops.text import bpe_encode, bpe_merges

        # merges learned on "low low low lower": rank0 (l,o), rank1
        # (lo,w) → "low"→1 token, "lower"→3 (low,e,r), "slow"→2 (s,low)
        train = pd.DataFrame({"text": ["low low low", "lower"]})
        rules = bpe_merges(rd.from_pandas(train), "text", k=2)
        docs = pd.DataFrame({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": ["low", "lower", "slow slow", ""],
        })
        got = (
            bpe_encode(rd.from_pandas(docs), rules, "text", "doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert got["n_words"].tolist() == [1, 1, 2, 0]
        assert got["n_tokens"].tolist() == [1, 3, 4, 0]

    def test_encode_matches_sequential_reference(self, ray_session):
        import sys

        sys.path.insert(0, "scripts")
        try:
            from gen_expected import bpe_encode_expected
        finally:
            sys.path.pop(0)
        from recipys_ray.ops.text import bpe_encode, bpe_merges

        rng = np.random.default_rng(82)
        vocab = ["stream", "stress", "tree", "strut", "master", "steam"]
        pdf = pd.DataFrame({
            "doc_id": np.arange(50, dtype=np.int64),
            "text": [
                " ".join(rng.choice(vocab, rng.integers(1, 15)))
                for _ in range(50)
            ],
        })
        rules = bpe_merges(rd.from_pandas(pdf), "text", k=10)
        got = (
            bpe_encode(rd.from_pandas(pdf).repartition(4), rules,
                       "text", "doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        exp = bpe_encode_expected(pdf, k=10)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_early_stop_and_empty(self, ray_session):
        from recipys_ray.ops.text import bpe_merges

        # single-char words only → no pairs, zero rules
        pdf = pd.DataFrame({"text": ["a b c", "d e"]})
        assert len(bpe_merges(rd.from_pandas(pdf), k=5).to_pandas()) == 0
        empty = pd.DataFrame({"text": pd.Series(dtype=object)})
        assert len(bpe_merges(rd.from_pandas(empty), k=5).to_pandas()) == 0


class TestCompressionRatio:
    def test_matches_sequential_zlib(self, ray_session):
        import zlib
        from recipys_ray.ops.text import compression_ratio

        pdf = pd.DataFrame({
            "doc_id": np.arange(5, dtype=np.int64),
            "text": ["abc " * 50, "x", "", None, "zyx kw pq 889"],
        })
        got = (
            compression_ratio(rd.from_pandas(pdf))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        for i, t in enumerate(pdf["text"]):
            if t is None:
                assert pd.isna(got["n_bytes"].iloc[i])
                assert pd.isna(got["comp_ratio"].iloc[i])
                continue
            raw = t.encode("utf-8")
            assert got["n_bytes"].iloc[i] == len(raw)
            assert got["n_comp"].iloc[i] == len(zlib.compress(raw, 6))
            if len(raw) == 0:
                assert pd.isna(got["comp_ratio"].iloc[i])
            else:
                assert got["comp_ratio"].iloc[i] == np.float64(
                    len(zlib.compress(raw, 6))
                ) / np.float64(len(raw))
        # repetitive text compresses below short high-entropy text
        assert got["comp_ratio"].iloc[0] < got["comp_ratio"].iloc[4]


class TestOversampleMinority:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.sampling import oversample_minority

        rng = np.random.default_rng(161)
        pdf = pd.DataFrame({
            "id": np.arange(600, dtype=np.int64),
            "cls": rng.choice(["big"] * 8 + ["mid"] * 3 + ["rare"], 600),
        })
        got = (
            oversample_minority(rd.from_pandas(pdf).repartition(5),
                                "cls", "id")
            .to_pandas().sort_values(["id", "copy_idx"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH c AS (SELECT cls, CAST(count(*) AS BIGINT) AS n
                       FROM t GROUP BY 1),
            m AS (SELECT max(n) AS tgt FROM c),
            r AS (SELECT t.id, t.cls,
                    row_number() OVER (PARTITION BY t.cls
                      ORDER BY hash(t.id), t.id) AS rn, c.n, m.tgt
                  FROM t JOIN c USING (cls) CROSS JOIN m)
            SELECT id, cls,
                   unnest(generate_series(1,
                     tgt // n + CASE WHEN rn <= tgt % n
                                     THEN 1 ELSE 0 END)) AS copy_idx
            FROM r ORDER BY id, copy_idx
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["id", "cls", "copy_idx"]],
                                      exp, check_dtype=False)
        # every class lands at exactly the majority count
        sizes = got.groupby("cls").size()
        assert (sizes == sizes.max()).all()

    def test_partition_invariance_and_balanced_input(self, ray_session):
        from recipys_ray.ops.sampling import oversample_minority

        pdf = pd.DataFrame({
            "id": np.arange(40, dtype=np.int64),
            "cls": ["a", "b"] * 20,
        })
        outs = [
            oversample_minority(rd.from_pandas(pdf).repartition(p),
                                "cls", "id")
            .to_pandas().sort_values(["id", "copy_idx"])
            .reset_index(drop=True)
            for p in (1, 7)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # already balanced → exactly one copy per row
        assert len(outs[0]) == len(pdf)
        assert (outs[0]["copy_idx"] == 1).all()


class TestBalancedSample:
    def test_matches_duckdb_hash_rownumber(self, ray_session):
        import duckdb
        from recipys_ray.ops.sampling import balanced_sample

        rng = np.random.default_rng(110)
        pdf = pd.DataFrame({
            "id": np.arange(700, dtype=np.int64),
            "cls": rng.choice(["a", "b", "c"], 700, p=[0.6, 0.3, 0.1]),
        })
        got = (
            balanced_sample(rd.from_pandas(pdf), "cls", "id")
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH c AS (SELECT cls, CAST(count(*) AS BIGINT) n FROM t
                       GROUP BY 1),
            m AS (SELECT min(n) n_min FROM c),
            r AS (SELECT id, cls, row_number() OVER (
                    PARTITION BY cls ORDER BY hash(id), id) rn FROM t)
            SELECT id, cls FROM r WHERE rn <= (SELECT n_min FROM m)
            ORDER BY id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["id", "cls"]], exp, check_dtype=False
        )
        # every class downsampled to exactly the smallest class count
        vc = got["cls"].value_counts()
        assert (vc == vc.min()).all()

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.sampling import balanced_sample

        rng = np.random.default_rng(111)
        pdf = pd.DataFrame({
            "id": np.arange(500, dtype=np.int64),
            "cls": rng.choice(["x", "y"], 500, p=[0.8, 0.2]),
        })
        outs = [
            balanced_sample(rd.from_pandas(pdf).repartition(p),
                            "cls", "id")
            .to_pandas().sort_values("id").reset_index(drop=True)
            for p in (1, 6)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestGroupedHistogram:
    def test_matches_duckdb_cells(self, ray_session):
        import duckdb
        from recipys_ray.ops.quantiles import grouped_histogram

        rng = np.random.default_rng(112)
        pdf = pd.DataFrame({
            "g": rng.choice(["p", "q", "r"], 800),
            "v": rng.uniform(-10, 110, 800),
        })
        pdf.loc[rng.random(800) < 0.05, "v"] = np.nan
        got = (
            grouped_histogram(rd.from_pandas(pdf), ["g"], "v",
                              lo=0.0, hi=100.0, nbins=10)
            .to_pandas().sort_values(["g", "bucket"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH b AS (
              SELECT g, CAST(least(floor((v - 0.0) / ((100.0-0.0)/10)),
                                   9) AS BIGINT) AS bucket
              FROM t WHERE v >= 0.0 AND v <= 100.0
            )
            SELECT g, bucket, 0.0 + bucket * ((100.0-0.0)/10) AS lo_edge,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM b GROUP BY g, bucket ORDER BY g, bucket
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.quantiles import grouped_histogram

        rng = np.random.default_rng(113)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 4, 400),
            "v": rng.uniform(0, 50, 400),
        })
        outs = [
            grouped_histogram(rd.from_pandas(pdf).repartition(p),
                              ["g"], "v", lo=0.0, hi=50.0, nbins=8,
                              num_partitions=np_)
            .to_pandas().sort_values(["g", "bucket"])
            .reset_index(drop=True)
            for p, np_ in ((1, 1), (5, 4))
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestTopTokensPerSource:
    def test_matches_duckdb_rank(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import top_tokens_per_source

        rng = np.random.default_rng(114)
        vocab = [f"t{i}" for i in range(15)]
        srcs = rng.choice(["s1", "s2"], 150)
        texts = [
            " ".join(rng.choice(vocab, rng.integers(3, 12)))
            for _ in range(150)
        ]
        pdf = pd.DataFrame({"source": srcs, "text": texts})
        got = (
            top_tokens_per_source(rd.from_pandas(pdf), k=4)
            .to_pandas().sort_values(["source", "rnk"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", pdf)
        exp = con.execute(r"""
            WITH tok AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(coalesce(text,'')),
                                               '\w+')) AS token
              FROM documents
            ), c AS (
              SELECT source, token, CAST(count(*) AS BIGINT) cnt
              FROM tok GROUP BY 1, 2
            )
            SELECT source, token, cnt, rnk FROM (
              SELECT source, token, cnt,
                     CAST(row_number() OVER (PARTITION BY source
                          ORDER BY cnt DESC, token ASC) AS BIGINT) rnk
              FROM c
            ) WHERE rnk <= 4 ORDER BY source, rnk
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestQualityChecks:
    def test_matches_duckdb_scalars(self, ray_session):
        import duckdb
        from recipys_ray.ops.quality import quality_checks

        rng = np.random.default_rng(115)
        n = 500
        pdf = pd.DataFrame({
            "id": np.r_[np.arange(n - 2), [7, 7]].astype(np.int64),
            "v": rng.uniform(-5, 105, n),
            "s": rng.choice(["ok", "bad!", None], n, p=[0.8, 0.1, 0.1]),
        })
        pdf.loc[rng.random(n) < 0.05, "v"] = np.nan
        got = quality_checks(rd.from_pandas(pdf), [
            {"name": "v_range", "kind": "range", "col": "v",
             "lo": 0.0, "hi": 100.0},
            {"name": "s_not_null", "kind": "not_null", "col": "s"},
            {"name": "s_regex", "kind": "regex", "col": "s",
             "pattern": "[a-z]+"},
            {"name": "s_accepted", "kind": "accepted_values", "col": "s",
             "values": ["ok"]},
            {"name": "id_unique", "kind": "unique", "col": "id"},
        ])
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT 'v_range' AS "check", CAST(count(*) AS BIGINT) n_checked,
                   CAST(sum(CASE WHEN v IS NOT NULL AND (v < 0.0 OR v > 100.0)
                            THEN 1 ELSE 0 END) AS BIGINT) n_violations FROM t
            UNION ALL SELECT 's_not_null', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN s IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM t
            UNION ALL SELECT 's_regex', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN s IS NOT NULL
                            AND NOT regexp_full_match(s, '[a-z]+')
                            THEN 1 ELSE 0 END) AS BIGINT) FROM t
            UNION ALL SELECT 's_accepted', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN s IS NOT NULL AND s NOT IN ('ok')
                            THEN 1 ELSE 0 END) AS BIGINT) FROM t
            UNION ALL SELECT 'id_unique', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(DISTINCT id) AS BIGINT) FROM t
        """).df()
        g = got.sort_values("check").reset_index(drop=True)
        e = exp.sort_values("check").reset_index(drop=True)
        pd.testing.assert_frame_equal(g, e, check_dtype=False)
        assert got.loc[got["check"] == "id_unique",
                       "n_violations"].iloc[0] == 2

    def test_bad_rules_rejected(self, ray_session):
        from recipys_ray.ops.quality import quality_checks

        with pytest.raises(ValueError):
            quality_checks(None, [])
        with pytest.raises(ValueError):
            quality_checks(None, [{"name": "x", "kind": "nope",
                                   "col": "c"}])


class TestAsofNearest:
    def test_matches_duckdb_two_sided(self, ray_session):
        import duckdb
        from recipys_ray.ops.asof import asof_join

        rng = np.random.default_rng(116)
        n = 400
        lf = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "g": rng.integers(0, 8, n),
            "t": rng.integers(0, 1000, n).astype(np.int64),
        })
        rf = pd.DataFrame({
            "g": rng.integers(0, 8, 120),
            "t": rng.integers(0, 1000, 120).astype(np.int64),
            "rid": np.arange(120, dtype=np.int64),
            "v": rng.integers(0, 100, 120).astype(np.float64),
        })
        out = (
            asof_join(rd.from_pandas(lf), rd.from_pandas(rf), on="t",
                      by="g", direction="nearest",
                      right_dedup_cols=["rid"])
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("lf", lf)
        con.register("rf", rf)
        exp = con.execute("""
            WITH p AS (
              SELECT g, t, v FROM rf
              QUALIFY row_number() OVER (PARTITION BY g, t
                                         ORDER BY rid) = 1
            ), b AS (
              SELECT l.id, p.t AS bt, p.v AS bv
              FROM lf l ASOF LEFT JOIN p ON l.g = p.g AND l.t >= p.t
            ), f AS (
              SELECT l.id, p.t AS ft, p.v AS fv
              FROM lf l ASOF LEFT JOIN p ON l.g = p.g AND l.t <= p.t
            )
            SELECT l.id,
                   CASE WHEN bt IS NULL THEN fv
                        WHEN ft IS NULL THEN bv
                        WHEN (l.t - bt) <= (ft - l.t) THEN bv
                        ELSE fv END AS v
            FROM lf l JOIN b ON b.id = l.id JOIN f ON f.id = l.id
            ORDER BY l.id
        """).df().reset_index(drop=True)
        gv = out["v"].to_numpy(np.float64, na_value=np.nan)
        ev = exp["v"].to_numpy(np.float64, na_value=np.nan)
        assert np.array_equal(gv, ev, equal_nan=True)

    def test_tie_goes_backward(self, ray_session):
        from recipys_ray.ops.asof import asof_join

        lf = pd.DataFrame({"id": [0], "g": [1], "t": [10]})
        rf = pd.DataFrame({"g": [1, 1], "t": [5, 15],
                           "rid": [0, 1], "v": [1.0, 2.0]})
        out = asof_join(
            rd.from_pandas(lf), rd.from_pandas(rf), on="t", by="g",
            direction="nearest", right_dedup_cols=["rid"],
        ).to_pandas()
        assert out["v"].iloc[0] == 1.0  # equidistant -> earlier row


class TestNegativeSamples:
    def test_matches_duckdb_hash_pick(self, ray_session):
        import duckdb
        from recipys_ray.ops.sampling import negative_samples

        rng = np.random.default_rng(117)
        pdf = pd.DataFrame({"key": np.arange(300, dtype=np.int64)})
        items = np.sort(rng.choice(100000, 50, replace=False)).astype(
            np.int64
        )
        got = (
            negative_samples(rd.from_pandas(pdf), "key", items, k=3)
            .to_pandas().sort_values(["key", "neg_j"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        con.register("it", pd.DataFrame({"item": items}))
        exp = con.execute("""
            WITH items AS (
              SELECT item, row_number() OVER (ORDER BY item) - 1 AS idx
              FROM (SELECT DISTINCT item FROM it)
            ), e AS (
              SELECT t.key, CAST(j.j AS BIGINT) AS neg_j,
                     CAST(hash(t.key * 3 + j.j)
                          % (SELECT count(*) FROM items) AS BIGINT) AS idx
              FROM t CROSS JOIN (SELECT unnest([0, 1, 2]) AS j) j
            )
            SELECT e.key, e.neg_j, i.item AS neg_item
            FROM e JOIN items i USING (idx) ORDER BY e.key, e.neg_j
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["key", "neg_j", "neg_item"]], exp, check_dtype=False
        )

    def test_k_rows_per_input_and_validation(self, ray_session):
        from recipys_ray.ops.sampling import negative_samples

        pdf = pd.DataFrame({"key": np.arange(10, dtype=np.int64)})
        got = negative_samples(
            rd.from_pandas(pdf), "key", [5, 9, 13], k=4
        ).to_pandas()
        assert len(got) == 40
        assert set(got["neg_item"]).issubset({5, 9, 13})
        with pytest.raises(ValueError):
            negative_samples(rd.from_pandas(pdf), "key", [], k=1)
        with pytest.raises(ValueError):
            negative_samples(rd.from_pandas(pdf), "key", [1], k=0)


class TestWindowedDistinct:
    def _run(self, pdf, window, num_partitions=None):
        from recipys_ray.ops.groupstats import windowed_distinct

        return (
            windowed_distinct(rd.from_pandas(pdf), ["g"], ["o"], "v",
                              window=window, id_cols=["o"],
                              num_partitions=num_partitions)
            .to_pandas().sort_values("o").reset_index(drop=True)
        )

    def test_matches_duckdb_windowed_count_distinct(self, ray_session):
        import duckdb

        rng = np.random.default_rng(118)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 6, 500),
            "o": np.arange(500, dtype=np.int64),
            "v": rng.choice(["a", "b", "c", "d", None], 500,
                            p=[0.3, 0.25, 0.2, 0.15, 0.1]),
        })
        got = self._run(pdf, 5)
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT o, CAST(count(DISTINCT v) OVER (
                     PARTITION BY g ORDER BY o
                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                   AS BIGINT) AS w_distinct
            FROM t ORDER BY o
        """).df().reset_index(drop=True)
        assert got["w_distinct"].tolist() == exp["w_distinct"].tolist()

    def test_window_one_and_saturation(self, ray_session):
        pdf = pd.DataFrame({
            "g": [0] * 5, "o": [1, 2, 3, 4, 5],
            "v": ["x", "x", "y", "x", "y"],
        })
        got1 = self._run(pdf, 1)
        assert got1["w_distinct"].tolist() == [1, 1, 1, 1, 1]
        gbig = self._run(pdf, 100)  # window > group: expanding distinct
        assert gbig["w_distinct"].tolist() == [1, 1, 2, 2, 2]

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(119)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 7, 400),
            "o": np.arange(400, dtype=np.int64),
            "v": rng.choice(list("pqrs"), 400),
        })
        a = self._run(pdf, 6, num_partitions=1)
        b = self._run(pdf, 6, num_partitions=5)
        pd.testing.assert_frame_equal(a, b)


class TestRollingCorr:
    def test_matches_duckdb_windowed_form(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import rolling_corr

        rng = np.random.default_rng(120)
        n = 500
        pdf = pd.DataFrame({
            "g": rng.integers(0, 6, n),
            "o": np.arange(n, dtype=np.int64),
            "x": rng.integers(0, 200, n).astype(np.float64),
            "y": rng.integers(0, 50, n).astype(np.float64),
        })
        pdf.loc[rng.random(n) < 0.1, "x"] = np.nan
        got = (
            rolling_corr(rd.from_pandas(pdf), ["g"], ["o"], "x", "y",
                         window=8, id_cols=["o"])
            .to_pandas().sort_values("o").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH s AS (
              SELECT o,
                CAST(sum(CASE WHEN x IS NOT NULL THEN 1 ELSE 0 END)
                     OVER fr AS DOUBLE) n,
                CAST(coalesce(sum(CASE WHEN x IS NOT NULL
                                  THEN CAST(x AS BIGINT) END)
                     OVER fr, 0) AS DOUBLE) sx,
                CAST(coalesce(sum(CASE WHEN x IS NOT NULL
                                  THEN CAST(y AS BIGINT) END)
                     OVER fr, 0) AS DOUBLE) sy,
                CAST(coalesce(sum(CASE WHEN x IS NOT NULL
                     THEN CAST(x AS BIGINT)*CAST(x AS BIGINT) END)
                     OVER fr, 0) AS DOUBLE) sxx,
                CAST(coalesce(sum(CASE WHEN x IS NOT NULL
                     THEN CAST(y AS BIGINT)*CAST(y AS BIGINT) END)
                     OVER fr, 0) AS DOUBLE) syy,
                CAST(coalesce(sum(CASE WHEN x IS NOT NULL
                     THEN CAST(x AS BIGINT)*CAST(y AS BIGINT) END)
                     OVER fr, 0) AS DOUBLE) sxy
              FROM t
              WINDOW fr AS (PARTITION BY g ORDER BY o
                            ROWS BETWEEN 7 PRECEDING AND CURRENT ROW)
            )
            SELECT o,
              CASE WHEN n < 2 THEN NULL
                   WHEN sqrt((sxx - (sx*sx)/n)/(n-1))
                        * sqrt((syy - (sy*sy)/n)/(n-1)) = 0 THEN NULL
                   ELSE ((sxy - (sx*sy)/n)/(n-1))
                        / (sqrt((sxx - (sx*sx)/n)/(n-1))
                           * sqrt((syy - (sy*sy)/n)/(n-1)))
              END AS r_corr
            FROM s ORDER BY o
        """).df().reset_index(drop=True)
        gv = got["r_corr"].to_numpy(np.float64, na_value=np.nan)
        ev = exp["r_corr"].to_numpy(np.float64, na_value=np.nan)
        assert np.array_equal(gv, ev, equal_nan=True)  # bit-equal

    def test_constant_window_null_and_validation(self, ray_session):
        from recipys_ray.ops.groupstats import rolling_corr

        pdf = pd.DataFrame({
            "g": [0] * 4, "o": [1, 2, 3, 4],
            "x": [5.0, 5.0, 5.0, 5.0],  # zero variance
            "y": [1.0, 2.0, 3.0, 4.0],
        })
        got = (
            rolling_corr(rd.from_pandas(pdf), ["g"], ["o"], "x", "y",
                         window=3, id_cols=["o"])
            .to_pandas()
        )
        assert got["r_corr"].isna().all()
        with pytest.raises(ValueError):
            rolling_corr(rd.from_pandas(pdf), ["g"], ["o"], "x", "y",
                         window=1, id_cols=["o"])

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import rolling_corr

        rng = np.random.default_rng(121)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 5, 300),
            "o": np.arange(300, dtype=np.int64),
            "x": rng.integers(0, 100, 300).astype(np.float64),
            "y": rng.integers(0, 100, 300).astype(np.float64),
        })
        outs = [
            rolling_corr(rd.from_pandas(pdf), ["g"], ["o"], "x", "y",
                         window=5, id_cols=["o"], num_partitions=p)
            .to_pandas().sort_values("o").reset_index(drop=True)
            for p in (1, 5)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestNullPatterns:
    def test_matches_duckdb_groupby(self, ray_session):
        import duckdb
        from recipys_ray.ops.profile import null_patterns

        rng = np.random.default_rng(122)
        n = 400
        pdf = pd.DataFrame({
            "a": rng.uniform(0, 1, n),
            "b": rng.uniform(0, 1, n),
        })
        pdf.loc[rng.random(n) < 0.3, "a"] = np.nan
        pdf.loc[rng.random(n) < 0.2, "b"] = np.nan
        got = (
            null_patterns(rd.from_pandas(pdf), ["a", "b"])
            .to_pandas().sort_values(["a_null", "b_null"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT a IS NULL AS a_null, b IS NULL AS b_null,
                   CAST(count(*) AS BIGINT) AS n
            FROM t GROUP BY 1, 2 ORDER BY a_null, b_null
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert got["n"].sum() == n


class TestSegmentDedup:
    @staticmethod
    def _run(pdf, window):
        from recipys_ray.ops.segdedup import segment_dedup

        out = segment_dedup(
            rd.from_pandas(pdf), window=window
        ).to_pandas()
        return out.sort_values("doc_id", ignore_index=True)

    @staticmethod
    def _oracle(pdf, window):
        import duckdb

        con = duckdb.connect()
        con.register("documents", pdf)
        return con.execute(f"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(string_split(text, ' ')) AS tok,
                     unnest(range(len(string_split(text, ' ')))) AS ti
              FROM documents
            ), segs AS (
              SELECT doc_id, ti // {window} AS seg_idx,
                     string_agg(tok, ' ' ORDER BY ti) AS segment
              FROM toks GROUP BY doc_id, ti // {window}
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
            GROUP BY doc_id ORDER BY doc_id
        """).df().reset_index(drop=True)

    def test_matches_duckdb_keep_first(self, ray_session):
        rng = np.random.default_rng(121)
        vocab = list("abcdefgh")
        texts = [
            " ".join(rng.choice(vocab, int(rng.integers(1, 30))))
            for _ in range(80)
        ]
        # force cross-document duplicate segments: repeat a shared run
        shared = "x y z w x y z w"
        for i in range(0, 80, 7):
            texts[i] = shared + " " + texts[i]
        pdf = pd.DataFrame(
            {"doc_id": np.arange(80, dtype=np.int64), "text": texts}
        )
        got = self._run(pdf, 4)
        exp = self._oracle(pdf, 4)
        pd.testing.assert_frame_equal(got, exp)

    def test_exact_duplicate_docs_collapse(self, ray_session):
        pdf = pd.DataFrame({
            "doc_id": np.array([3, 1, 2], dtype=np.int64),
            "text": ["a b c d", "a b c d", "e f g h"],
        })
        got = self._run(pdf, 4)
        # doc 1 wins the shared segment; doc 3 loses everything
        assert got["doc_id"].tolist() == [1, 2]
        assert got["text_dedup"].tolist() == ["a b c d", "e f g h"]
        assert got["n_kept"].tolist() == [1, 1]

    def test_window_edges_and_empty_text(self, ray_session):
        pdf = pd.DataFrame({
            "doc_id": np.array([0, 1, 2], dtype=np.int64),
            "text": ["a b c", "", "a b c d e"],  # partial tail windows
        })
        got = self._run(pdf, 2)
        exp = self._oracle(pdf, 2)
        pd.testing.assert_frame_equal(got, exp)

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(122)
        texts = [
            " ".join(rng.choice(list("mnop"), 12)) for _ in range(60)
        ]
        pdf = pd.DataFrame(
            {"doc_id": np.arange(60, dtype=np.int64), "text": texts}
        )
        from recipys_ray.ops.segdedup import segment_dedup

        a = (
            segment_dedup(rd.from_pandas(pdf).repartition(1), window=3)
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
        b = (
            segment_dedup(rd.from_pandas(pdf).repartition(7), window=3)
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestGroupedGini:
    @staticmethod
    def _oracle(pdf):
        import duckdb

        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute("""
            WITH r AS (
              SELECT g, x,
                     row_number() OVER (PARTITION BY g ORDER BY x) AS i
              FROM t
            ), s AS (
              SELECT g, sum(i*x) AS ixi, sum(x) AS sx, count(*) AS n
              FROM r GROUP BY g
            )
            SELECT g, (2.0*ixi)/CAST(n*sx AS DOUBLE)
                     - CAST(n+1 AS DOUBLE)/CAST(n AS DOUBLE) AS gini
            FROM s ORDER BY g
        """).df().reset_index(drop=True)

    def test_bitexact_vs_duckdb(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_gini

        rng = np.random.default_rng(130)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 40, 3000),
            "x": rng.integers(0, 100_000, 3000),
        })
        got = (
            grouped_gini(rd.from_pandas(pdf).repartition(8), ["g"], "x",
                         out_col="gini")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        exp = self._oracle(pdf)
        assert got["gini"].to_numpy().tolist() == exp["gini"].to_numpy().tolist()

    def test_edge_semantics(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_gini

        pdf = pd.DataFrame({
            "g": [1, 1, 2, 3, 3, 4],
            "x": [0.0, 0.0, 5.0, 2.0, 2.0, np.nan],
        })
        got = (
            grouped_gini(rd.from_pandas(pdf), ["g"], "x")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        # zero-mass group -> NULL; singleton and all-equal -> 0;
        # all-null group emits no row
        assert got["g"].tolist() == [1, 2, 3]
        assert np.isnan(got["gini"].iloc[0])
        assert got["gini"].iloc[1] == 0.0 and got["gini"].iloc[2] == 0.0


class TestGroupedBitops:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import grouped_bitops

        rng = np.random.default_rng(131)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 25, 4000),
            "x": rng.integers(-(1 << 30), 1 << 40, 4000).astype(
                np.float64
            ),
        })
        pdf.loc[rng.choice(4000, 50, replace=False), "x"] = np.nan
        got = (
            grouped_bitops(rd.from_pandas(pdf).repartition(9), ["g"], "x")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            SELECT g, bit_and(CAST(x AS BIGINT)) AS band,
                   bit_or(CAST(x AS BIGINT)) AS bor,
                   bit_xor(CAST(x AS BIGINT)) AS bxor
            FROM t WHERE x IS NOT NULL GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        for c in ("band", "bor", "bxor"):
            assert got[c].tolist() == exp[c].astype(np.int64).tolist()

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_bitops

        rng = np.random.default_rng(132)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, 500),
            "x": rng.integers(0, 1 << 20, 500),
        })
        a = (
            grouped_bitops(rd.from_pandas(pdf).repartition(1), ["g"], "x")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        b = (
            grouped_bitops(rd.from_pandas(pdf).repartition(11), ["g"], "x")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestTwoProportionZtest:
    def test_bitexact_vs_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import two_proportion_ztest

        rng = np.random.default_rng(133)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 8, 6000),
            "v": rng.integers(0, 2, 6000),
            "s": rng.integers(0, 2, 6000),
        })
        got = (
            two_proportion_ztest(
                rd.from_pandas(pdf).repartition(7), ["g"], "v", "s"
            )
            .to_pandas().sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH c AS (
              SELECT g,
                     sum(CASE WHEN v=0 THEN 1 ELSE 0 END) AS n0,
                     sum(CASE WHEN v=0 THEN s ELSE 0 END) AS x0,
                     sum(v) AS n1, sum(v*s) AS x1
              FROM t GROUP BY g
            )
            SELECT g, CAST(n0 AS BIGINT) AS n0, CAST(x0 AS BIGINT) AS x0,
                   CAST(n1 AS BIGINT) AS n1, CAST(x1 AS BIGINT) AS x1,
                   (CAST(x1 AS DOUBLE)/n1 - CAST(x0 AS DOUBLE)/n0)
                     / sqrt((CAST(x0+x1 AS DOUBLE)/(n0+n1))
                            * (1.0 - CAST(x0+x1 AS DOUBLE)/(n0+n1))
                            * (1.0/n1 + 1.0/n0)) AS z
            FROM c ORDER BY g
        """).df().reset_index(drop=True)
        for c in ("n0", "x0", "n1", "x1"):
            assert got[c].tolist() == exp[c].tolist()
        assert got["z"].to_numpy().tolist() == exp["z"].to_numpy().tolist()

    def test_degenerate_groups_null(self, ray_session):
        from recipys_ray.ops.groupstats import two_proportion_ztest

        pdf = pd.DataFrame({
            "g": [1, 1, 2, 2, 3, 3, 3],
            "v": [0, 0, 0, 1, 0, 1, 1],
            "s": [1, 0, 0, 0, 1, 1, 1],
        })
        got = (
            two_proportion_ztest(rd.from_pandas(pdf), ["g"], "v", "s")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        # g=1: no treatment arm -> NULL; g=2: pooled p=0 -> NULL
        assert np.isnan(got["z"].iloc[0])
        assert np.isnan(got["z"].iloc[1])

    def test_bad_variant_rejected(self, ray_session):
        from recipys_ray.ops.groupstats import two_proportion_ztest

        pdf = pd.DataFrame({"g": [1], "v": [2], "s": [1]})
        with pytest.raises(Exception):
            two_proportion_ztest(
                rd.from_pandas(pdf), ["g"], "v", "s"
            ).to_pandas()


class TestReadabilityScores:
    def test_bitexact_vs_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.text import readability_scores

        pdf = pd.DataFrame({
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "the quick brown fox. it jumps! over? lazy dogs",
                "aaa eee iii ooo uuu yyy",
                "bcd fgh",
                "",
                "queueing oooooh my",
                "mixed CASE Vowels AEIOU and y",
            ],
        })
        got = (
            readability_scores(rd.from_pandas(pdf))
            .to_pandas().sort_values("doc_id", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("documents", pdf)
        exp = con.execute("""
            SELECT doc_id,
                   CAST(len(string_split(text,' ')) AS BIGINT) AS n_words,
                   CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
                        AS BIGINT) AS n_syllables,
                   CAST(len(regexp_extract_all(text, '[.!?]+[ ]')) + 1
                        AS BIGINT) AS n_sentences,
                   (0.39 * (CAST(len(string_split(text,' ')) AS DOUBLE)
                            / (len(regexp_extract_all(text, '[.!?]+[ ]')) + 1))
                    + 11.8 * (CAST(len(regexp_extract_all(lower(text),
                                                          '[aeiouy]+'))
                                   AS DOUBLE)
                              / len(string_split(text,' '))))
                   - 15.59 AS fk_grade
            FROM documents ORDER BY doc_id
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)
        # bit-exact on the float column
        assert got["fk_grade"].to_numpy().tolist() == \
            exp["fk_grade"].to_numpy().tolist()


class TestStratifiedSplit:
    def test_matches_duckdb_window(self, ray_session):
        import duckdb
        from recipys_ray.ops.sampling import stratified_split

        rng = np.random.default_rng(140)
        pdf = pd.DataFrame({
            "id": np.arange(2000, dtype=np.int64),
            "s": rng.choice(["a", "b", "c", "d"], 2000,
                            p=[0.5, 0.3, 0.15, 0.05]),
        })
        got = (
            stratified_split(
                rd.from_pandas(pdf).repartition(7), "s", "id", 0.25
            )
            .to_pandas().sort_values("id", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH r AS (
              SELECT id, s,
                     row_number() OVER (PARTITION BY s
                                        ORDER BY hash(id), id) AS rn,
                     count(*) OVER (PARTITION BY s) AS n
              FROM t
            )
            SELECT id, s, CASE WHEN rn <= CAST(floor(0.25 * n) AS BIGINT)
                               THEN 'test' ELSE 'train' END AS split
            FROM r ORDER BY id
        """).df().reset_index(drop=True)
        assert got["split"].tolist() == exp["split"].tolist()
        # exact per-stratum counts
        cnt = got[got["split"] == "test"].groupby("s").size()
        tot = got.groupby("s").size()
        for s in tot.index:
            assert cnt.get(s, 0) == int(np.floor(0.25 * np.float64(tot[s])))

    def test_extremes_and_nulls(self, ray_session):
        from recipys_ray.ops.sampling import stratified_split

        pdf = pd.DataFrame({
            "id": [1, 2, 3, 4, None],
            "s": ["a", "a", "a", "a", "a"],
        })
        all_tr = stratified_split(
            rd.from_pandas(pdf), "s", "id", 0.0
        ).to_pandas()
        assert (all_tr["split"] == "train").all()
        all_te = stratified_split(
            rd.from_pandas(pdf), "s", "id", 1.0
        ).to_pandas()
        # null id row stays train even at frac=1.0
        assert sorted(all_te["split"]) == ["test"] * 4 + ["train"]
        with pytest.raises(ValueError):
            stratified_split(rd.from_pandas(pdf), "s", "id", 1.5)

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.sampling import stratified_split

        rng = np.random.default_rng(141)
        pdf = pd.DataFrame({
            "id": rng.permutation(600).astype(np.int64),
            "s": rng.choice(["x", "y"], 600),
        })
        a = (
            stratified_split(rd.from_pandas(pdf).repartition(1),
                             "s", "id", 0.4)
            .to_pandas().sort_values("id", ignore_index=True)
        )
        b = (
            stratified_split(rd.from_pandas(pdf).repartition(9),
                             "s", "id", 0.4)
            .to_pandas().sort_values("id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestGroupedWeightedMedian:
    def test_matches_duckdb_filter_min(self, ray_session):
        import duckdb
        from recipys_ray.ops.groupstats import grouped_weighted_median

        rng = np.random.default_rng(150)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 15, 4000),
            "v": rng.integers(-500, 500, 4000),
            "w": rng.integers(0, 9, 4000),
        })
        pdf.loc[rng.choice(4000, 60, replace=False), "v"] = np.nan
        got = (
            grouped_weighted_median(
                rd.from_pandas(pdf).repartition(8), ["g"], "v", "w"
            )
            .to_pandas().sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH a AS (
              SELECT g, CAST(v AS BIGINT) AS v, sum(CAST(w AS BIGINT)) AS wv
              FROM t WHERE v IS NOT NULL GROUP BY g, v
            ), c AS (
              SELECT g, v,
                     sum(wv) OVER (PARTITION BY g ORDER BY v) AS cum,
                     sum(wv) OVER (PARTITION BY g) AS tot
              FROM a
            )
            SELECT g, min(v) FILTER (WHERE 2*cum >= tot) AS wmedian
            FROM c GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        assert got["wmedian"].tolist() == exp["wmedian"].astype(np.int64).tolist()

    def test_degenerate_weights_and_invariance(self, ray_session):
        from recipys_ray.ops.groupstats import grouped_weighted_median

        # all-zero weights -> smallest value (2*0 >= 0)
        pdf = pd.DataFrame({"g": [1, 1, 2], "v": [7, 3, 9],
                            "w": [0, 0, 4]})
        got = (
            grouped_weighted_median(rd.from_pandas(pdf), ["g"], "v", "w")
            .to_pandas().sort_values("g", ignore_index=True)
        )
        assert got["wmedian"].tolist() == [3, 9]
        rng = np.random.default_rng(151)
        pdf2 = pd.DataFrame({
            "g": rng.integers(0, 6, 800),
            "v": rng.integers(0, 40, 800),
            "w": rng.integers(1, 5, 800),
        })
        a = (
            grouped_weighted_median(
                rd.from_pandas(pdf2).repartition(1), ["g"], "v", "w"
            ).to_pandas().sort_values("g", ignore_index=True)
        )
        b = (
            grouped_weighted_median(
                rd.from_pandas(pdf2).repartition(9), ["g"], "v", "w"
            ).to_pandas().sort_values("g", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestPagerank:
    @staticmethod
    def _oracle(pdf, scale=1000000000000):
        import duckdb

        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(f"""
            WITH e AS (SELECT src, dst FROM t),
            nn AS (SELECT DISTINCT node FROM
                     (SELECT src AS node FROM e UNION SELECT dst FROM e)),
            p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nn),
            deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d
                    FROM e GROUP BY src),
            r0 AS (SELECT node, {scale} // (SELECT n FROM p) AS r FROM nn),
            c1 AS (SELECT e.dst AS node, sum(r0.r // deg.d) AS s
                   FROM e JOIN r0 ON r0.node = e.src
                          JOIN deg ON deg.src = e.src GROUP BY e.dst),
            r1 AS (SELECT nn.node, (({scale} * 15) // 100) // (SELECT n FROM p)
                          + (85 * coalesce(c1.s, 0)) // 100 AS r
                   FROM nn LEFT JOIN c1 USING (node)),
            c2 AS (SELECT e.dst AS node, sum(r1.r // deg.d) AS s
                   FROM e JOIN r1 ON r1.node = e.src
                          JOIN deg ON deg.src = e.src GROUP BY e.dst),
            r2 AS (SELECT nn.node, (({scale} * 15) // 100) // (SELECT n FROM p)
                          + (85 * coalesce(c2.s, 0)) // 100 AS r
                   FROM nn LEFT JOIN c2 USING (node))
            SELECT node, CAST(r AS BIGINT) AS rank FROM r2 ORDER BY node
        """).df().reset_index(drop=True)

    def test_bitexact_vs_duckdb(self, ray_session):
        from recipys_ray.ops.graph import pagerank

        rng = np.random.default_rng(160)
        pdf = pd.DataFrame({
            "src": rng.integers(0, 70, 3000),
            "dst": rng.integers(0, 90, 3000),
        })
        got = (
            pagerank(rd.from_pandas(pdf).repartition(8), "src", "dst",
                     iters=2)
            .to_pandas().sort_values("node", ignore_index=True)
        )
        exp = self._oracle(pdf)
        assert got["node"].tolist() == exp["node"].tolist()
        assert got["rank"].tolist() == exp["rank"].tolist()

    def test_dangling_and_parallel_edges(self, ray_session):
        from recipys_ray.ops.graph import pagerank

        # node 3 is dangling (dst only); parallel 1->2 edges count twice
        pdf = pd.DataFrame({"src": [1, 1, 1, 2], "dst": [2, 2, 3, 1]})
        got = (
            pagerank(rd.from_pandas(pdf), "src", "dst", iters=2)
            .to_pandas().sort_values("node", ignore_index=True)
        )
        exp = self._oracle(pdf)
        assert got["rank"].tolist() == exp["rank"].tolist()
        # dangling node got only base + damped inflow, never divides
        assert got["node"].tolist() == [1, 2, 3]

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.graph import pagerank

        rng = np.random.default_rng(161)
        pdf = pd.DataFrame({
            "src": rng.integers(0, 30, 1000),
            "dst": rng.integers(0, 30, 1000),
        })
        a = (
            pagerank(rd.from_pandas(pdf).repartition(1), "src", "dst")
            .to_pandas().sort_values("node", ignore_index=True)
        )
        b = (
            pagerank(rd.from_pandas(pdf).repartition(11), "src", "dst")
            .to_pandas().sort_values("node", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_validation(self, ray_session):
        from recipys_ray.ops.graph import pagerank

        pdf = pd.DataFrame({"src": [1], "dst": [2]})
        with pytest.raises(ValueError):
            pagerank(rd.from_pandas(pdf), iters=0)


class TestTriangleCounts:
    SQL = """
        WITH c AS (
          SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
          FROM t WHERE src <> dst
        ), tr AS (
          SELECT e1.u AS a, e1.v AS b, e2.v AS c
          FROM c e1 JOIN c e2 ON e2.u = e1.v
                    JOIN c e3 ON e3.u = e1.u AND e3.v = e2.v
        ), n AS (
          SELECT a AS node FROM tr
          UNION ALL SELECT b FROM tr UNION ALL SELECT c FROM tr
        )
        SELECT node, CAST(count(*) AS BIGINT) AS tri_count
        FROM n GROUP BY node ORDER BY node
    """

    def test_matches_duckdb(self, ray_session):
        import duckdb

        from recipys_ray.ops.graph import triangle_counts

        rng = np.random.default_rng(71)
        # dense-ish random graph with duplicates, self-loops and both
        # orientations present
        pdf = pd.DataFrame({
            "src": rng.integers(0, 40, 1500),
            "dst": rng.integers(0, 40, 1500),
        })
        got = (
            triangle_counts(rd.from_pandas(pdf).repartition(6),
                            "src", "dst")
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(self.SQL).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_clique_and_star(self, ray_session):
        from recipys_ray.ops.graph import triangle_counts

        # K5 (every node in C(4,2)=6 triangles) + a 6-leaf star
        # (no triangles) + an isolated edge
        k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        star = [(100, 200 + i) for i in range(6)]
        pdf = pd.DataFrame(
            k5 + star + [(300, 301)], columns=["src", "dst"]
        )
        got = (
            triangle_counts(rd.from_pandas(pdf), "src", "dst")
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert got["node"].tolist() == [0, 1, 2, 3, 4]
        assert got["tri_count"].tolist() == [6] * 5

    def test_partition_count_invariance(self, ray_session):
        from recipys_ray.ops.graph import triangle_counts

        rng = np.random.default_rng(72)
        pdf = pd.DataFrame({
            "src": rng.integers(0, 25, 800),
            "dst": rng.integers(0, 25, 800),
        })
        outs = [
            triangle_counts(
                rd.from_pandas(pdf).repartition(p), "src", "dst",
                num_partitions=np_,
            ).to_pandas().sort_values("node").reset_index(drop=True)
            for p, np_ in [(1, 3), (9, 5), (16, 2)]
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
        pd.testing.assert_frame_equal(outs[0], outs[2])

    def test_empty_and_triangle_free(self, ray_session):
        from recipys_ray.ops.graph import triangle_counts

        empty = pd.DataFrame({
            "src": np.array([], np.int64), "dst": np.array([], np.int64)
        })
        assert len(triangle_counts(rd.from_pandas(empty)).to_pandas()) == 0
        path = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 4]})
        assert len(triangle_counts(rd.from_pandas(path)).to_pandas()) == 0


class TestBudgetSample:
    @staticmethod
    def _run(pdf, budget, parts=7):
        from recipys_ray.ops.sampling import budget_sample

        out = budget_sample(
            rd.from_pandas(pdf).repartition(parts), "s", "id", "w", budget
        ).to_pandas()
        return out.sort_values("id", ignore_index=True) if len(out) \
            else out

    @staticmethod
    def _oracle(pdf, budget):
        import duckdb

        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute(f"""
            WITH r AS (
              SELECT id, s, w,
                     sum(w) OVER (PARTITION BY s ORDER BY hash(id), id
                                  ROWS UNBOUNDED PRECEDING) AS cw
              FROM t)
            SELECT id, s, w FROM r WHERE cw <= {budget} ORDER BY id
        """).df().reset_index(drop=True)

    def test_matches_duckdb_across_budgets(self, ray_session):
        rng = np.random.default_rng(170)
        pdf = pd.DataFrame({
            "id": np.arange(3000, dtype=np.int64),
            "s": rng.choice(["a", "b", "c"], 3000, p=[0.6, 0.3, 0.1]),
            "w": rng.integers(1, 400, 3000),
        })
        for budget in (0, 50, 5000, 10_000_000):
            got = self._run(pdf, budget)
            exp = self._oracle(pdf, budget)
            assert len(got) == len(exp), budget
            if len(exp):
                assert got["id"].tolist() == exp["id"].tolist(), budget

    def test_budget_exactness_and_validation(self, ray_session):
        rng = np.random.default_rng(171)
        pdf = pd.DataFrame({
            "id": np.arange(500, dtype=np.int64),
            "s": np.repeat(["x", "y"], 250),
            "w": rng.integers(10, 50, 500),
        })
        got = self._run(pdf, 700)
        # kept weight per stratum <= budget, and adding the next doc in
        # hash order would exceed it (checked against the oracle anyway)
        assert (got.groupby("s")["w"].sum() <= 700).all()
        exp = self._oracle(pdf, 700)
        assert got["id"].tolist() == exp["id"].tolist()
        with pytest.raises(ValueError):
            self._run(pdf, -1)

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(172)
        pdf = pd.DataFrame({
            "id": rng.permutation(800).astype(np.int64),
            "s": rng.choice(["p", "q"], 800),
            "w": rng.integers(1, 30, 800),
        })
        a = self._run(pdf, 1500, parts=1)
        b = self._run(pdf, 1500, parts=11)
        pd.testing.assert_frame_equal(a, b)


class TestTimeWeightedAvg:
    def test_bitexact_vs_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.timeseries import time_weighted_avg

        rng = np.random.default_rng(180)
        n = 2000
        pdf = pd.DataFrame({
            "g": rng.integers(0, 12, n),
            "ts": pd.to_datetime(
                rng.integers(0, 10**7, n), unit="s"
            ).astype("datetime64[us]"),
            "eid": np.arange(n, dtype=np.int64),
            "v": rng.integers(-1000, 1000, n),
        })
        # duplicate-timestamp pairs exercise the (ts, eid) tie order
        pdf.loc[1::50, "ts"] = pdf.loc[0::50, "ts"].to_numpy()[: len(
            pdf.loc[1::50]
        )]
        got = (
            time_weighted_avg(
                rd.from_pandas(pdf).repartition(7), ["g"], "ts",
                ["ts", "eid"], "v",
            )
            .to_pandas().sort_values("g", ignore_index=True)
        )
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute("""
            WITH w AS (
              SELECT g, ts, eid, CAST(v AS BIGINT) AS v,
                     epoch_us(ts) AS us
              FROM t
            ), d AS (
              SELECT g, v,
                     lead(us) OVER (PARTITION BY g
                                    ORDER BY ts, eid) - us AS dur
              FROM w
            )
            SELECT g, CAST(sum(v * dur) AS DOUBLE)
                        / CAST(sum(dur) AS DOUBLE) AS twap
            FROM d GROUP BY g ORDER BY g
        """).df().reset_index(drop=True)
        assert got["twap"].to_numpy().tolist() == \
            exp["twap"].to_numpy().tolist()

    def test_single_event_and_simultaneous(self, ray_session):
        from recipys_ray.ops.timeseries import time_weighted_avg

        ts0 = pd.Timestamp("2024-01-01")
        pdf = pd.DataFrame({
            "g": [1, 2, 2, 3, 3],
            "ts": [ts0, ts0, ts0, ts0, ts0 + pd.Timedelta("10s")],
            "eid": [1, 2, 3, 4, 5],
            "v": [5, 10, 20, 30, 99],
        })
        got = (
            time_weighted_avg(
                rd.from_pandas(pdf), ["g"], "ts", ["ts", "eid"], "v"
            )
            .to_pandas().sort_values("g", ignore_index=True)
        )
        # g=1 single event, g=2 simultaneous pair -> zero duration -> NULL;
        # g=3 holds v=30 for the whole window
        assert np.isnan(got["twap"].iloc[0])
        assert np.isnan(got["twap"].iloc[1])
        assert got["twap"].iloc[2] == 30.0

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.timeseries import time_weighted_avg

        rng = np.random.default_rng(181)
        pdf = pd.DataFrame({
            "g": rng.integers(0, 5, 600),
            "ts": pd.to_datetime(
                rng.integers(0, 10**6, 600), unit="s"
            ).astype("datetime64[us]"),
            "eid": np.arange(600, dtype=np.int64),
            "v": rng.integers(0, 100, 600),
        })
        a = (
            time_weighted_avg(
                rd.from_pandas(pdf).repartition(1), ["g"], "ts",
                ["ts", "eid"], "v",
            ).to_pandas().sort_values("g", ignore_index=True)
        )
        b = (
            time_weighted_avg(
                rd.from_pandas(pdf).repartition(9), ["g"], "ts",
                ["ts", "eid"], "v",
            ).to_pandas().sort_values("g", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestFuzzyLink:
    def test_bitexact_vs_duckdb(self, ray_session):
        import duckdb
        from recipys_ray.ops.editdist import fuzzy_link

        rng = np.random.default_rng(190)
        mk = lambda p, n: [f"{p}#{rng.integers(0, 200):06d}" for _ in
                           range(n)]
        left = pd.DataFrame({
            "lid": np.arange(300, dtype=np.int64),
            "lname": mk("Customer", 300),
        })
        right = pd.DataFrame({
            "rid": np.arange(120, dtype=np.int64),
            "rname": mk("Supplier", 120),
        })
        got = (
            fuzzy_link(
                rd.from_pandas(left).repartition(5),
                rd.from_pandas(right).repartition(4),
                "lid", "lname", "rid", "rname",
                threshold=0.75, block_chars=3,
            )
            .to_pandas().sort_values(["lid", "rid"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        exp = con.execute("""
            SELECT lid, rid, jaro_winkler_similarity(lname, rname) AS sim
            FROM l JOIN r ON right(lname, 3) = right(rname, 3)
            WHERE jaro_winkler_similarity(lname, rname) >= 0.75
            ORDER BY lid, rid
        """).df().reset_index(drop=True)
        assert len(exp) > 0  # the fixture must actually produce links
        assert got["lid"].tolist() == exp["lid"].tolist()
        assert got["rid"].tolist() == exp["rid"].tolist()
        assert got["sim"].to_numpy().tolist() == \
            exp["sim"].to_numpy().tolist()

    def test_null_empty_and_validation(self, ray_session):
        from recipys_ray.ops.editdist import fuzzy_link

        left = pd.DataFrame({
            "lid": np.array([1, 2, 3], np.int64),
            "lname": ["abc", None, ""],
        })
        right = pd.DataFrame({
            "rid": np.array([1, 2], np.int64),
            "rname": ["abc", None],
        })
        got = fuzzy_link(
            rd.from_pandas(left), rd.from_pandas(right),
            "lid", "lname", "rid", "rname",
            threshold=0.9, block_chars=2,
        ).to_pandas()
        # only the non-null exact pair links; nulls/empties never match
        assert got[["lid", "rid"]].to_numpy().tolist() == [[1, 1]]
        with pytest.raises(ValueError):
            fuzzy_link(
                rd.from_pandas(left), rd.from_pandas(right),
                "lid", "lname", "rid", "rname", threshold=0.0,
            )

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.editdist import fuzzy_link

        rng = np.random.default_rng(191)
        left = pd.DataFrame({
            "lid": np.arange(200, dtype=np.int64),
            "lname": [f"Entity#{rng.integers(0, 99):04d}" for _ in
                      range(200)],
        })
        right = pd.DataFrame({
            "rid": np.arange(80, dtype=np.int64),
            "rname": [f"Entity#{rng.integers(0, 99):04d}" for _ in
                      range(80)],
        })
        kw = dict(threshold=0.75, block_chars=2)
        a = fuzzy_link(
            rd.from_pandas(left).repartition(1),
            rd.from_pandas(right).repartition(1),
            "lid", "lname", "rid", "rname", **kw,
        ).to_pandas().sort_values(["lid", "rid"], ignore_index=True)
        b = fuzzy_link(
            rd.from_pandas(left).repartition(9),
            rd.from_pandas(right).repartition(7),
            "lid", "lname", "rid", "rname", **kw,
        ).to_pandas().sort_values(["lid", "rid"], ignore_index=True)
        pd.testing.assert_frame_equal(a, b)


class TestQuantileNormalize:
    @staticmethod
    def _oracle(pdf):
        import duckdb

        con = duckdb.connect()
        con.register("t", pdf)
        return con.execute("""
            WITH g AS (
              SELECT id, v,
                     row_number() OVER (PARTITION BY g
                                        ORDER BY v, id) AS i,
                     count(*) OVER (PARTITION BY g) AS n
              FROM t
            ), s AS (
              SELECT CAST(v AS BIGINT) AS vq,
                     row_number() OVER (ORDER BY v, id) AS j
              FROM t
            ), p AS (SELECT count(*) AS nn FROM t)
            SELECT g.id, s.vq
            FROM g JOIN s
              ON s.j = (g.i * (SELECT nn FROM p) + g.n - 1) // g.n
            ORDER BY id
        """).df().reset_index(drop=True)

    def test_matches_duckdb_mapping(self, ray_session):
        from recipys_ray.ops.quantiles import quantile_normalize

        rng = np.random.default_rng(200)
        pdf = pd.DataFrame({
            "id": np.arange(3000, dtype=np.int64),
            "g": rng.choice(["a", "b", "c"], 3000, p=[0.5, 0.35, 0.15]),
            "v": rng.integers(-200, 200, 3000),
        })
        got = (
            quantile_normalize(
                rd.from_pandas(pdf).repartition(8), ["g"], "id", "v"
            )
            .to_pandas().sort_values("id", ignore_index=True)
        )
        exp = self._oracle(pdf)
        assert got["id"].tolist() == exp["id"].tolist()
        assert got["vq"].tolist() == exp["vq"].astype(np.int64).tolist()

    def test_normalized_groups_share_distribution(self, ray_session):
        from recipys_ray.ops.quantiles import quantile_normalize

        # two groups with disjoint ranges map onto the SAME global values
        pdf = pd.DataFrame({
            "id": np.arange(40, dtype=np.int64),
            "g": np.repeat(["lo", "hi"], 20),
            "v": np.r_[np.arange(20), 1000 + np.arange(20)],
        })
        got = quantile_normalize(
            rd.from_pandas(pdf), ["g"], "id", "v"
        ).to_pandas()
        merged = got.merge(pdf, on="id")
        lo = np.sort(merged[merged["g"] == "lo"]["vq"].to_numpy())
        hi = np.sort(merged[merged["g"] == "hi"]["vq"].to_numpy())
        assert lo.tolist() == hi.tolist()  # exchangeable after mapping

    def test_partition_invariance(self, ray_session):
        from recipys_ray.ops.quantiles import quantile_normalize

        rng = np.random.default_rng(201)
        pdf = pd.DataFrame({
            "id": rng.permutation(900).astype(np.int64),
            "g": rng.choice(["x", "y"], 900),
            "v": rng.integers(0, 50, 900),
        })
        a = (
            quantile_normalize(
                rd.from_pandas(pdf).repartition(1), ["g"], "id", "v"
            ).to_pandas().sort_values("id", ignore_index=True)
        )
        b = (
            quantile_normalize(
                rd.from_pandas(pdf).repartition(9), ["g"], "id", "v"
            ).to_pandas().sort_values("id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestQuantizeEmbeddings:
    def test_matches_duckdb_trunc(self, ray_session):
        import duckdb
        from recipys_ray.ops.vector import quantize_embeddings

        rng = np.random.default_rng(210)
        vecs = [rng.normal(size=8).astype(np.float32) for _ in range(50)]
        vecs[3] = np.zeros(8, np.float32)  # all-zero vector edge
        pdf = pd.DataFrame({
            "vec_id": np.arange(50, dtype=np.int64),
            "embedding": [v.tolist() for v in vecs],
        })
        tbl = pa.table({
            "vec_id": pa.array(pdf["vec_id"]),
            "embedding": pa.array(
                pdf["embedding"], pa.list_(pa.float32())
            ),
        })
        got = (
            quantize_embeddings(rd.from_arrow(tbl).repartition(5))
            .to_pandas().sort_values(["vec_id", "j"], ignore_index=True)
        )
        con = duckdb.connect()
        con.register("embeddings", tbl)
        exp = con.execute("""
            WITH e AS (
              SELECT vec_id, embedding,
                     list_max(list_transform(embedding,
                                             x -> abs(CAST(x AS DOUBLE))))
                       AS s
              FROM embeddings
            )
            SELECT vec_id, unnest(range(len(embedding))) AS j,
                   CAST(CASE WHEN s = 0 THEN 0
                             ELSE trunc(CAST(unnest(embedding) AS DOUBLE)
                                        / s * 127.0)
                        END AS BIGINT) AS q,
                   s
            FROM e ORDER BY vec_id, j
        """).df().reset_index(drop=True)
        assert got["q"].tolist() == exp["q"].tolist()
        assert got["s"].to_numpy().tolist() == exp["s"].to_numpy().tolist()
        # zero vector quantizes to zeros with zero scale
        z = got[got["vec_id"] == 3]
        assert (z["q"] == 0).all() and (z["s"] == 0.0).all()
        # every quantized magnitude is within the bit budget
        assert got["q"].abs().max() <= 127

    def test_null_vector_rejected(self, ray_session):
        from recipys_ray.ops.vector import quantize_embeddings

        tbl = pa.table({
            "vec_id": pa.array([1, 2], pa.int64()),
            "embedding": pa.array([[1.0, 2.0], None],
                                  pa.list_(pa.float32())),
        })
        with pytest.raises(Exception):
            quantize_embeddings(rd.from_arrow(tbl)).to_pandas()
