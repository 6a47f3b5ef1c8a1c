"""Seeded benchmark inputs. The same seed gives byte-identical parquet files.

- Transcripts (flagship_bake, fit_bake): the library's own generator,
  ``pipelines.transcripts.make_transcripts``, at ``TURNS`` turns plus two
  mega-conversations of ``MEGA_SHARE`` of the turns each, so skew shows at
  the exchange.
- Query tables (query_mix): events, orders, lineitem, customer and documents
  with the schemas and row counts of the driver contract's sf0.01 tables, so
  the registered DuckDB oracles run on them unchanged. Event timestamps are
  strictly increasing, so every window ordering in the oracles is total.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

TURNS = 300_000
MEGA_SHARE = 0.01
SHARDS = 8  # transcript parquet files; Ray reads one block per file
HELDOUT_BUCKETS = 5  # conv_id hash % 5 == 0 → held out (about 20%)

# sf0.01 row counts of the driver-contract tables
ROWS = {
    "events": 10_000,
    "orders": 15_000,
    "lineitem": 60_000,
    "customer": 1_500,
    "documents": 500,
}

_EVENT_TYPES = np.array(["click", "error", "purchase", "signup", "view"])
_PRIORITIES = np.array(
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
)
_SEGMENTS = np.array(
    ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
)
_LANGS = np.array(["en", "de", "fr", "es", "zh"])
_WORDS = np.array(
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window".split()
)


def _rng(seed: int) -> np.random.RandomState:
    return np.random.RandomState(seed % 2**32)


# --------------------------------------------------------------------- #
# transcripts
# --------------------------------------------------------------------- #
def transcripts(seed: int, turns: int = TURNS) -> pa.Table:
    from recipys_ray.pipelines.transcripts import make_transcripts

    return make_transcripts(
        turns, seed=seed % 2**32, mega_conv_turns=int(turns * MEGA_SHARE)
    )


def heldout_mask(tbl: pa.Table) -> np.ndarray:
    """Rows whose conversation is held out: a stable hash of ``conv_id``."""
    h = pd.util.hash_pandas_object(
        tbl.column("conv_id").to_pandas(), index=False
    ).to_numpy()
    return h % np.uint64(HELDOUT_BUCKETS) == 0


def write_shards(tbl: pa.Table, path: str, shards: int = SHARDS) -> str:
    os.makedirs(path, exist_ok=True)
    per = -(-len(tbl) // shards)
    for i in range(shards):
        pq.write_table(tbl.slice(i * per, per), f"{path}/part-{i:02d}.parquet")
    return path


# --------------------------------------------------------------------- #
# query tables (sf0.01 shapes)
# --------------------------------------------------------------------- #
def _days(rng, start: str, n_days: int, n: int) -> pa.Array:
    base = np.datetime64(start, "us")
    days = rng.randint(0, n_days, size=n).astype("timedelta64[D]")
    return pa.array(base + days.astype("timedelta64[us]"), pa.timestamp("us"))


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, size=n), 2)


def query_tables(seed: int) -> dict[str, pa.Table]:
    rng = _rng(seed)
    out: dict[str, pa.Table] = {}

    n = ROWS["events"]
    gaps = np.maximum(rng.exponential(259.0e6, size=n).astype(np.int64), 1)
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.cumsum(gaps).astype(
        "timedelta64[us]"
    )
    value = np.maximum(np.round(rng.exponential(49.6, size=n), 2), 0.01)
    out["events"] = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.randint(0, 150, size=n).astype(np.int64)),
            "event_type": pa.array(_EVENT_TYPES[rng.randint(0, 5, size=n)]),
            "value": pa.array(value),
            "props": pa.array(
                [f'{{"k": {k}}}' for k in rng.randint(0, 100, size=n)]
            ),
        }
    )

    n = ROWS["orders"]
    out["orders"] = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
            "o_custkey": pa.array(rng.randint(0, 1500, size=n).astype(np.int64)),
            "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.randint(0, 3, size=n)]),
            "o_totalprice": pa.array(_money(rng, 1000.0, 500_000.0, n)),
            "o_orderdate": _days(rng, "1995-01-01", 2405, n),
            "o_orderpriority": pa.array(_PRIORITIES[rng.randint(0, 5, size=n)]),
        }
    )

    n = ROWS["lineitem"]
    out["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(rng.randint(0, ROWS["orders"], size=n).astype(np.int64)),
            "l_partkey": pa.array(rng.randint(0, 2000, size=n).astype(np.int64)),
            "l_suppkey": pa.array(rng.randint(0, 100, size=n).astype(np.int64)),
            "l_linenumber": pa.array(rng.randint(1, 8, size=n).astype(np.int32)),
            "l_quantity": pa.array(rng.randint(1, 51, size=n).astype(np.float64)),
            "l_extendedprice": pa.array(_money(rng, 900.0, 105_000.0, n)),
            "l_discount": pa.array(rng.randint(0, 11, size=n) / 100.0),
            "l_tax": pa.array(rng.randint(0, 9, size=n) / 100.0),
            "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.randint(0, 3, size=n)]),
            "l_linestatus": pa.array(np.array(["F", "O"])[rng.randint(0, 2, size=n)]),
            "l_shipdate": _days(rng, "1995-01-02", 2499, n),
        }
    )

    n = ROWS["customer"]
    out["customer"] = pa.table(
        {
            "c_custkey": pa.array(np.arange(n, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n)]),
            "c_nationkey": pa.array(rng.randint(0, 25, size=n).astype(np.int32)),
            "c_acctbal": pa.array(_money(rng, -1000.0, 10_000.0, n)),
            "c_mktsegment": pa.array(_SEGMENTS[rng.randint(0, 5, size=n)]),
        }
    )

    n = ROWS["documents"]
    texts = [
        " ".join(_WORDS[rng.randint(0, len(_WORDS), size=rng.randint(8, 100))])
        for _ in range(n)
    ]
    # about 5% exact copies of earlier documents, so dedup_exact finds groups
    for i in np.flatnonzero(rng.random_sample(n) < 0.05):
        if i:
            texts[i] = texts[rng.randint(0, i)]
    out["documents"] = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts),
            "lang": pa.array(_LANGS[rng.choice(5, size=n, p=[0.44, 0.14, 0.14, 0.14, 0.14])]),
            "source": pa.array([f"src{k}" for k in rng.randint(0, 20, size=n)]),
            "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
        }
    )
    return out


def write_query_tables(seed: int, path: str) -> int:
    """Write the five tables as ``<path>/<name>.parquet``; returns total rows."""
    os.makedirs(path, exist_ok=True)
    total = 0
    for name, tbl in query_tables(seed).items():
        pq.write_table(tbl, f"{path}/{name}.parquet")
        total += len(tbl)
    return total
