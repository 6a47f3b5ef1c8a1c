"""Parallelism-invariance: identical results at different partition counts
(the in-sandbox stand-in for cluster-size invariance, SURVEY.md §5c)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from recipys_ray.pipelines.transcripts import flagship_recipe, make_transcripts


def run_flagship(partitions: int) -> pd.DataFrame:
    tbl = make_transcripts(n_turns=3000, seed=11)
    rec = flagship_recipe(rd.from_arrow(tbl), partitions=partitions)
    out = rec.prep().to_pandas()
    return out.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(
        drop=True
    )


def test_partition_count_invariance():
    a = run_flagship(1)
    b = run_flagship(8)
    pd.testing.assert_frame_equal(a, b)


def test_repeated_runs_deterministic():
    a = run_flagship(4)
    b = run_flagship(4)
    pd.testing.assert_frame_equal(a, b)


def test_pack_sequences_partition_invariance():
    """Global offset-quantized packing must not depend on partitioning."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from recipys_ray.ops.packing import pack_sequences

    rng = np.random.RandomState(2)
    pdf = pd.DataFrame(
        {"doc_id": np.arange(2000), "tokens": rng.randint(1, 500, 2000)}
    )

    def run(parts):
        ds = rd.from_pandas(pdf).repartition(parts)
        return (
            pack_sequences(ds, "tokens", budget=1000, sort_cols=["doc_id"],
                           num_partitions=max(parts, 2))
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    a, b = run(1), run(16)
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_jaccard_partition_invariance():
    import ray.data as rd

    from recipys_ray.ops.jaccard import jaccard_dedup

    from .test_ops import docs_with_dups

    ds = rd.from_pandas(docs_with_dups())
    a = jaccard_dedup(ds, threshold=0.6, num_partitions=4).to_pandas()
    b = jaccard_dedup(ds, threshold=0.6, num_partitions=64).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])


class TestNewOpsPartitionInvariance:
    """Round-4 ops must produce identical results at any block layout."""

    def _docs(self, n=60):
        rng = np.random.RandomState(11)
        texts = []
        for i in range(n):
            words = [f"w{rng.randint(0, 30)}"
                     for _ in range(rng.randint(10, 40))]
            texts.append(" ".join(words))
        # plant duplicates so spans/dedup paths are non-trivial
        texts[10] = texts[3]
        texts[25] = texts[3]
        return pd.DataFrame({
            "doc_id": np.arange(n, dtype=np.int64), "text": texts
        })

    @pytest.mark.parametrize("parts", [1, 7])
    def test_duplicate_spans(self, ray_session, parts):
        from recipys_ray.ops.spans import duplicate_spans

        pdf = self._docs()
        out = (
            duplicate_spans(
                rd.from_pandas(pdf).repartition(parts),
                span_chars=30, stride=7, num_partitions=5,
            )
            .to_pandas()
            .sort_values(["doc_id", "span_start"], ignore_index=True)
        )
        if parts == 1:
            type(self)._spans_ref = out
        else:
            pd.testing.assert_frame_equal(out, type(self)._spans_ref)

    @pytest.mark.parametrize("parts", [1, 7])
    def test_redact_and_chunk(self, ray_session, parts):
        from recipys_ray.ops.chunking import chunk_documents
        from recipys_ray.ops.text import redact_pii

        pdf = self._docs()
        pdf["text"] = pdf["text"] + " c@d.io 10.1.2.3"
        ds = rd.from_pandas(pdf).repartition(parts)
        red = (
            redact_pii(ds).to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        chk = (
            chunk_documents(ds, chunk_chars=25, overlap=5).to_pandas()
            .sort_values(["doc_id", "chunk_no"], ignore_index=True)
        )
        if parts == 1:
            type(self)._red_ref, type(self)._chk_ref = red, chk
        else:
            pd.testing.assert_frame_equal(red, type(self)._red_ref)
            pd.testing.assert_frame_equal(chk, type(self)._chk_ref)

    @pytest.mark.parametrize("parts", [1, 6])
    def test_semi_anti_join(self, ray_session, parts):
        from recipys_ray.ops.join import hash_join

        left = pd.DataFrame({
            "k": np.arange(50, dtype=np.int64) % 13,
            "v": np.arange(50, dtype=np.int64),
        })
        right = pd.DataFrame({"rk": np.array([1, 5, 7, 7, 99], np.int64)})
        for how in ("semi", "anti"):
            out = (
                hash_join(
                    rd.from_pandas(left).repartition(parts),
                    rd.from_pandas(right).repartition(2),
                    on="k", right_on="rk", how=how, strategy="shuffle",
                    num_partitions=4,
                )
                .to_pandas().sort_values("v", ignore_index=True)
            )
            mask = left["k"].isin(right["rk"])
            expect = left[mask if how == "semi" else ~mask].sort_values(
                "v", ignore_index=True
            )
            pd.testing.assert_frame_equal(out, expect)
