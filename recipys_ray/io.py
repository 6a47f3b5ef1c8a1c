"""Resumable, manifest-tracked partitioned output.

The north-rule ops contract: a run writes one directory per hash bucket of
the group key plus a per-bucket lineage manifest (input fingerprint, row
count, metrics, timestamp). A re-run:

1. reads the manifest directory,
2. deletes bucket directories that have data but no manifest (the crashed
   in-flight buckets — writes are finalized by the manifest, so a bucket dir
   without one is garbage),
3. filters the INPUT to groups whose bucket is not yet complete (the filter
   is pushed into a vectorized ``map_batches``, so finished buckets aren't
   even deserialized past the read),
4. runs the pipeline on the remainder and writes only the missing buckets.

Buckets are deterministic (pandas stable hash of the group key, same
function the engine's shuffle uses), so resume is idempotent: running N
times produces byte-identical content to one clean run.

Migration note: the stamp now reads integer and bool keys as pandas'
nullable dtypes (``kernels/grouped.py::key_frame``). Before, such a key
read back as float64 or object in a batch holding a null, so its bucket
depended on its batch. A non-null key hashes as before, so only the rows
of batches with a null key can change bucket: a run resumed over an
output written before this change, whose integer or bool key has nulls,
should be rewritten from scratch (delete its ``_manifest`` directory).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from recipys_ray.kernels.grouped import hash_part, partitioned_groupby_map

BUCKET = "part_bucket"  # no "_" prefix: pyarrow ignores _-prefixed paths
MANIFEST_DIR = "_manifest"
DATA_DIR = "data"


def _input_fingerprint(ds) -> str:
    try:
        files = sorted(ds.input_files())
    except Exception:
        files = []
    stat = [(f, os.path.getsize(f)) if os.path.exists(f) else (f, -1) for f in files]
    return str(abs(hash(tuple(stat))))


def completed_buckets(out_dir: str) -> dict[int, dict]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    done = {}
    if os.path.isdir(mdir):
        for f in os.listdir(mdir):
            if f.startswith("bucket-") and f.endswith(".json"):
                with open(os.path.join(mdir, f)) as fh:
                    m = json.load(fh)
                done[int(m["bucket"])] = m
    return done


def _clean_orphans(out_dir: str, done: dict[int, dict]) -> list[int]:
    """Remove bucket data dirs that have no manifest (crashed mid-write)."""
    removed = []
    ddir = os.path.join(out_dir, DATA_DIR)
    if not os.path.isdir(ddir):
        return removed
    for d in os.listdir(ddir):
        if d.startswith(f"{BUCKET}="):
            b = int(d.split("=", 1)[1])
            if b not in done:
                shutil.rmtree(os.path.join(ddir, d), ignore_errors=True)
                removed.append(b)
    return removed


def write_resumable(
    pipeline: Callable,
    input_ds,
    out_dir: str,
    key_cols: list[str],
    num_buckets: int = 64,
    metrics_cols: Optional[list[str]] = None,
) -> dict:
    """Run ``pipeline(filtered_input) -> Dataset`` and write bucket-
    partitioned parquet with per-bucket lineage manifests; skip buckets
    already completed by a previous run.

    Returns a summary dict {written: [...], skipped: [...], rows: int}.
    """
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    done = completed_buckets(out_dir)
    _clean_orphans(out_dir, done)
    pending = [b for b in range(num_buckets) if b not in done]
    if not pending:
        return {"written": [], "skipped": sorted(done), "rows": 0}

    fingerprint = _input_fingerprint(input_ds)
    pending_arr = np.array(pending, dtype=np.int32)

    def keep_pending(tbl: pa.Table) -> pa.Table:
        b = hash_part(tbl, key_cols, num_buckets)
        return tbl.filter(pa.array(np.isin(b, pending_arr)))

    filtered = input_ds.map_batches(keep_pending, batch_format="pyarrow")
    out = pipeline(filtered)

    def stamp_bucket(tbl: pa.Table) -> pa.Table:
        b = hash_part(tbl, key_cols, num_buckets)
        return tbl.append_column(BUCKET, pa.array(b, pa.int32()))

    data_dir = os.path.join(out_dir, DATA_DIR)
    stamped = out.map_batches(stamp_bucket, batch_format="pyarrow")
    stamped.write_parquet(data_dir, partition_cols=[BUCKET])

    # per-bucket metrics (rows + null counts of requested columns) — one
    # cheap aggregate over the freshly written partitioned output
    import ray.data as rd

    metrics: dict[int, dict] = {b: {"rows": 0} for b in pending}
    # read back only pending buckets' dirs for metrics
    for b in pending:
        bdir = os.path.join(data_dir, f"{BUCKET}={b}")
        if not os.path.isdir(bdir):
            metrics[b] = {"rows": 0}
            continue
        bds = rd.read_parquet(bdir)
        m = {"rows": bds.count()}
        if metrics_cols:
            nulls = {c: 0 for c in metrics_cols}

            def count_nulls(tbl: pa.Table) -> pa.Table:
                vals = [
                    tbl.column(c).null_count if c in tbl.column_names else 0
                    for c in metrics_cols
                ]
                return pa.table(
                    {"c": pa.array(metrics_cols), "n": pa.array(vals)}
                )

            for row in bds.map_batches(
                count_nulls, batch_format="pyarrow"
            ).take_all():
                nulls[row["c"]] += row["n"]
            m["null_counts"] = nulls
        metrics[b] = m

    now = time.time()
    total_rows = 0
    for b in pending:
        total_rows += metrics[b]["rows"]
        manifest = {
            "bucket": b,
            "input_fingerprint": fingerprint,
            "key_cols": key_cols,
            "num_buckets": num_buckets,
            "written_at": now,
            **metrics[b],
        }
        tmp = os.path.join(out_dir, MANIFEST_DIR, f".bucket-{b}.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(
            tmp, os.path.join(out_dir, MANIFEST_DIR, f"bucket-{b}.json")
        )
    return {
        "written": pending,
        "skipped": sorted(done),
        "rows": total_rows,
    }


def write_webdataset(
    input_ds,
    out_dir: str,
    key_col: str = "__key__",
    payload_cols: Optional[list[str]] = None,
    meta_cols: Optional[list[str]] = None,
    num_shards: int = 64,
) -> dict:
    """Export a Dataset as WebDataset tar shards (the public convention:
    one POSIX tar per shard whose members are ``<key>.<suffix>``) with the
    same resumable manifest protocol as :func:`write_resumable`.

    Shard assignment is the deterministic key hash (same function as the
    engine's shuffle), members within a shard are sorted by key, and a
    shard is finalized by an atomic rename followed by its manifest — so a
    re-run after a crash recomputes ONLY the missing shards and N runs
    produce byte-identical shards to one clean run. Round-trips through
    :func:`recipys_ray.ops.multimodal.read_webdataset`.

    ``payload_cols`` become ``binary`` members (``<key>.<col>``);
    ``meta_cols`` are utf-8 encoded text members. Nulls are skipped (the
    WebDataset convention for a missing member).
    """
    import io as _io
    import tarfile

    if payload_cols is None:
        raise ValueError("payload_cols is required")
    meta_cols = list(meta_cols or [])
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    shard_dir = os.path.join(out_dir, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    done = completed_buckets(out_dir)
    # orphan cleanup: a tar with no manifest is a crashed in-flight shard
    for f in os.listdir(shard_dir):
        if f.startswith("shard-") and f.endswith(".tar"):
            b = int(f[len("shard-"):-len(".tar")])
            if b not in done:
                os.unlink(os.path.join(shard_dir, f))
    pending = [b for b in range(num_shards) if b not in done]
    if not pending:
        return {"written": [], "skipped": sorted(done), "rows": 0}

    fingerprint = _input_fingerprint(input_ds)
    pending_arr = np.array(pending, dtype=np.int32)
    cols = [key_col] + list(payload_cols) + meta_cols

    def keep_pending(tbl: pa.Table) -> pa.Table:
        b = hash_part(tbl, [key_col], num_shards)
        tbl = tbl.append_column("__wds_shard__", pa.array(b))
        return tbl.filter(pa.array(np.isin(b, pending_arr)))

    filtered = input_ds.select_columns(cols).map_batches(
        keep_pending, batch_format="pyarrow"
    )

    def write_shard(pdf: pd.DataFrame) -> pd.DataFrame:
        out_rows = []
        for b, grp in pdf.groupby("__wds_shard__", sort=True):
            grp = grp.sort_values(key_col, kind="stable")
            buf = _io.BytesIO()
            with tarfile.open(fileobj=buf, mode="w") as tf:
                for _, row in grp.iterrows():
                    for col in list(payload_cols) + meta_cols:
                        v = row[col]
                        if v is None or (isinstance(v, float) and np.isnan(v)):
                            continue
                        data = (
                            v.encode("utf-8") if isinstance(v, str)
                            else bytes(v)
                        )
                        info = tarfile.TarInfo(name=f"{row[key_col]}.{col}")
                        info.size = len(data)
                        info.mtime = 0  # determinism: no wall-clock in bytes
                        tf.addfile(info, _io.BytesIO(data))
            payload = buf.getvalue()
            tmp = os.path.join(shard_dir, f".shard-{int(b):05d}.tar.tmp")
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(
                tmp, os.path.join(shard_dir, f"shard-{int(b):05d}.tar")
            )
            out_rows.append(
                {"bucket": int(b), "rows": len(grp), "bytes": len(payload)}
            )
        return pd.DataFrame(
            out_rows, columns=["bucket", "rows", "bytes"]
        ).astype({"bucket": np.int64, "rows": np.int64, "bytes": np.int64})

    stats = partitioned_groupby_map(
        filtered, ["__wds_shard__"], write_shard,
        min(num_shards, 64),
    ).to_pandas()
    by_bucket = {int(r["bucket"]): r for _, r in stats.iterrows()}

    now = time.time()
    total_rows = 0
    for b in pending:
        rows = int(by_bucket[b]["rows"]) if b in by_bucket else 0
        nbytes = int(by_bucket[b]["bytes"]) if b in by_bucket else 0
        if rows == 0 and b not in by_bucket:
            # empty shard: still finalize (empty tar) so resume converges
            empty = _io.BytesIO()
            tarfile.open(fileobj=empty, mode="w").close()
            with open(
                os.path.join(shard_dir, f".shard-{b:05d}.tar.tmp"), "wb"
            ) as fh:
                fh.write(empty.getvalue())
            os.replace(
                os.path.join(shard_dir, f".shard-{b:05d}.tar.tmp"),
                os.path.join(shard_dir, f"shard-{b:05d}.tar"),
            )
            nbytes = len(empty.getvalue())
        total_rows += rows
        manifest = {
            "bucket": b,
            "input_fingerprint": fingerprint,
            "key_cols": [key_col],
            "num_buckets": num_shards,
            "written_at": now,
            "rows": rows,
            "bytes": nbytes,
        }
        tmp = os.path.join(out_dir, MANIFEST_DIR, f".bucket-{b}.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(
            tmp, os.path.join(out_dir, MANIFEST_DIR, f"bucket-{b}.json")
        )
    return {"written": pending, "skipped": sorted(done), "rows": total_rows}
