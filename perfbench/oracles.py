"""Correctness checks: DuckDB oracles for the recipe workloads, the driver
contract's own comparison for the query mix, and an order-independent
digest that later jobs of a run are checked against.

Float tolerances: the engine's fits sum distributed partials in block
completion order and DuckDB sums sequentially, so results agree to a few
ulps, not bit for bit. ``RTOL``/``ATOL`` leave nine orders of magnitude of
room above that and still catch any real change to a value.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import sys

import duckdb
import numpy as np
import pandas as pd

RTOL = 1e-9
ATOL = 1e-9
# QuantileTransformer interpolates a 1000-point quantile grid; its output
# sits within one grid step (1/999) of the empirical CDF's mid-point that
# the oracle computes exactly. Twice that step is the stated tolerance.
QUANTILE_TOL = 2.0 / 999


def load_check_contract(root: str):
    """``scripts/check_contract.py`` imported from ``root``, unedited, in
    strict mode (the driver's value-hash emulation)."""
    path = os.path.join(root, "scripts", "check_contract.py")
    spec = importlib.util.spec_from_file_location("check_contract", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.STRICT = True
    return mod


def contract_compare(cc, name: str, ours: pd.DataFrame, ref: pd.DataFrame):
    # its strict report lines go to stderr: stdout ends with the result line
    with contextlib.redirect_stdout(sys.stderr):
        return cc.compare(name, ours, ref)


# --------------------------------------------------------------------- #
# flagship_bake: ffill → historical min/max/mean/count → lag → sessionize →
# scale, stated as DuckDB window SQL over the input files
# --------------------------------------------------------------------- #
def flagship_sql(glob: str) -> str:
    w = "PARTITION BY conv_id ORDER BY turn_idx, ts"
    cum = f"({w} ROWS UNBOUNDED PRECEDING)"

    def nn(col, fn):  # the engine's min/max keep a null input null
        return f"CASE WHEN {col} IS NULL THEN NULL ELSE {fn}({col}) OVER {cum} END"

    return f"""
    WITH f AS (
      SELECT conv_id, turn_idx, role, text, tool, ts, n_chars,
             last_value(latency_s IGNORE NULLS) OVER {cum} AS latency_s,
             last_value(score IGNORE NULLS) OVER {cum} AS score
      FROM read_parquet('{glob}')
    ),
    h AS (
      SELECT *,
             {nn('n_chars', 'min')} AS n_chars_min,
             {nn('latency_s', 'min')} AS latency_s_min,
             {nn('n_chars', 'max')} AS n_chars_max,
             {nn('latency_s', 'max')} AS latency_s_max,
             avg(n_chars) OVER {cum} AS n_chars_mean,
             avg(score) OVER {cum} AS score_mean,
             count(score) OVER {cum} AS score_count,
             lag(n_chars) OVER ({w}) AS n_chars_lag1,
             CASE WHEN ts - lag(ts) OVER ({w}) > INTERVAL 30 MINUTE
                  THEN 1 ELSE 0 END AS brk
      FROM f
    ),
    s AS (
      SELECT avg(n_chars) AS m1, stddev_pop(n_chars) AS s1,
             avg(latency_s) AS m2, stddev_pop(latency_s) AS s2,
             avg(score) AS m3, stddev_pop(score) AS s3
      FROM f
    )
    SELECT conv_id, turn_idx, role, text, tool, ts,
           (n_chars - m1) / s1 AS n_chars,
           (latency_s - m2) / s2 AS latency_s,
           (score - m3) / s3 AS score,
           n_chars_min, latency_s_min, n_chars_max, latency_s_max,
           n_chars_mean, score_mean, score_count, n_chars_lag1,
           sum(brk) OVER {cum} AS session_id
    FROM h, s
    """


# --------------------------------------------------------------------- #
# fit_bake: constant fill → z-score → one-hot(role) → quantile(n_chars),
# fitted on train and applied to ``part`` (train itself, or held-out)
# --------------------------------------------------------------------- #
def fit_bake_sql(train_glob: str, part_glob: str, roles: list[str]) -> str:
    onehot = ",\n".join(
        f"CASE WHEN role = '{r}' THEN 1.0 ELSE 0.0 END AS OneHotEncoder_{i + 1}"
        for i, r in enumerate(roles)
    )
    return f"""
    WITH tr AS (
      SELECT n_chars, coalesce(latency_s, 0.0) AS lat, coalesce(score, 0.0) AS sc
      FROM read_parquet('{train_glob}')
    ),
    s AS (
      SELECT avg(lat) AS m1, stddev_pop(lat) AS s1,
             avg(sc) AS m2, stddev_pop(sc) AS s2, count(n_chars) AS n
      FROM tr
    ),
    vc AS (SELECT n_chars AS v, count(*) AS c FROM tr GROUP BY 1),
    cdf AS (
      SELECT v, sum(c) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) - c AS below,
             sum(c) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS upto
      FROM vc
    ),
    p AS (SELECT * FROM read_parquet('{part_glob}'))
    SELECT p.conv_id, p.turn_idx, p.role, p.text, p.tool, p.ts,
           (coalesce(p.latency_s, 0.0) - m1) / s1 AS latency_s,
           (coalesce(p.score, 0.0) - m2) / s2 AS score,
           -- mid-point of the train ECDF's step at n_chars
           CASE WHEN cdf.v IS NULL THEN 0.0
                ELSE ((CASE WHEN cdf.v = p.n_chars THEN cdf.below ELSE cdf.upto END)
                      + cdf.upto) / (2.0 * n) END AS n_chars,
           {onehot}
    FROM p ASOF LEFT JOIN cdf ON p.n_chars >= cdf.v, s
    """


def connect():
    con = duckdb.connect()
    con.execute("SET threads TO 1")
    return con


def relation(con, name: str, source) -> None:
    """Make ``source`` the DuckDB relation ``name``: a directory of parquet
    files (a view), a SQL query (run once into a table) or a DataFrame (a
    view in which float NaN reads as NULL, as in the engine's Arrow
    outputs)."""
    if isinstance(source, pd.DataFrame):
        con.register(f"{name}_df", source)
        cols = [
            f'CASE WHEN isnan("{c}") THEN NULL ELSE "{c}" END AS "{c}"'
            if pd.api.types.is_float_dtype(source[c]) else f'"{c}"'
            for c in source.columns
        ]
        con.execute(f"CREATE OR REPLACE TEMP VIEW {name} AS "
                    f"SELECT {', '.join(cols)} FROM {name}_df")
    elif os.path.isdir(source):
        con.execute(f"CREATE OR REPLACE TEMP VIEW {name} AS "
                    f"SELECT * FROM read_parquet('{source}/*.parquet')")
    else:
        con.execute(f"CREATE OR REPLACE TEMP TABLE {name} AS {source}")


_FLOATS = {"DOUBLE", "FLOAT"}
_NUMERIC = _FLOATS | {
    "TINYINT", "SMALLINT", "INTEGER", "BIGINT", "HUGEINT", "UTINYINT",
    "USMALLINT", "UINTEGER", "UBIGINT",
}


def _types(con, table: str) -> dict[str, str]:
    rows = con.execute(f"DESCRIBE {table}").fetchall()
    return {r[0]: r[1] for r in rows}


def compare_tables(con, keys: list[str], tolerances: dict[str, float] | None = None,
                   ours: str = "ours", ref: str = "ref") -> list[str]:
    """Row-by-row comparison of DuckDB tables ``ours`` and ``ref`` joined on
    ``keys``: numeric columns within RTOL/ATOL (or an absolute per-column
    tolerance), the rest exactly, nulls in the same places."""
    tolerances = tolerances or {}
    a, b = _types(con, ours), _types(con, ref)
    if set(a) != set(b):
        return [f"columns differ: {sorted(set(a) ^ set(b))}"]
    n_a, n_b = (con.execute(f"SELECT count(*) FROM {t}").fetchone()[0] for t in (ours, ref))
    if n_a != n_b:
        return [f"row count {n_a} vs {n_b}"]
    checks = {}
    for c in a:
        if c in keys:
            continue
        x, y = f'o."{c}"', f'r."{c}"'
        if a[c] in _NUMERIC and b[c] in _NUMERIC:
            tol = (f"{tolerances[c]}" if c in tolerances
                   else f"{ATOL} + {RTOL} * abs({y}::DOUBLE)")
            differs = (f"({x} IS NULL) <> ({y} IS NULL) OR "
                       f"abs({x}::DOUBLE - {y}::DOUBLE) > {tol}")
        else:
            differs = f"{x} IS DISTINCT FROM {y}"
        checks[c] = f"count(*) FILTER (WHERE {differs})"
    on = " AND ".join(f'o."{k}" = r."{k}"' for k in keys)
    select = ", ".join([f"count(r.\"{keys[0]}\")"] + list(checks.values()))
    matched, *bad = con.execute(
        f"SELECT {select} FROM {ours} o LEFT JOIN {ref} r ON {on}").fetchone()
    problems = [] if matched == n_a else [f"{n_a - matched} rows have no oracle row"]
    problems += [f"{c}: {n} values differ" for c, n in zip(checks, bad) if n]
    return problems


def check(ours, ref, keys: list[str], tolerances: dict[str, float] | None = None):
    """``compare_tables`` over two sources (see ``relation``)."""
    con = connect()
    try:
        relation(con, "ours", ours)
        relation(con, "ref", ref)
        return compare_tables(con, keys, tolerances)
    finally:
        con.close()


def run_sql(sql: str) -> pd.DataFrame:
    con = connect()
    try:
        return con.execute(sql).df()
    finally:
        con.close()


# --------------------------------------------------------------------- #
# digest: order-independent fingerprint with float tolerance
# --------------------------------------------------------------------- #
BUCKETS = 4096  # rows are bucketed by hash, so one changed value stands out


def digest(source) -> dict:
    """Per hash bucket of rows: the row count, non-null counts, a sum of the
    rows' hashes over the non-float columns and, per float column, the sum
    of values weighted by that row hash (a value moved to another row
    changes it) with the sum of their magnitudes as its tolerance scale.
    Row order is ignored."""
    con = connect()
    try:
        relation(con, "t", source)
        types = _types(con, "t")
        floats = [c for c, t in types.items() if t in _FLOATS]
        exact = [f'"{c}"' for c in types if c not in floats]
        h = f"hash({', '.join(exact)})" if exact else "0::UBIGINT"
        w = f"({h} % 1009 + 1)::DOUBLE"
        exprs = ["count(*)", f"sum({h} % 1000000007)"]
        exprs += [f'count("{c}")' for c in types]
        for c in floats:
            exprs += [f'coalesce(sum("{c}" * {w}), 0)',
                      f'coalesce(sum(abs("{c}") * {w}), 0)']
        cols = con.execute(
            f"SELECT {h} % {BUCKETS} AS b, {', '.join(exprs)} FROM t "
            f"GROUP BY b ORDER BY b").fetchnumpy()
    finally:
        con.close()
    arrays = [np.asarray(v) for k, v in cols.items()]
    n = len(types)
    return {
        "types": types,
        "exact": np.column_stack(arrays[:3 + n]).astype(np.int64),
        "sums": np.column_stack(arrays[3 + n::2]) if floats else np.empty((0, 0)),
        "scale": np.column_stack(arrays[4 + n::2]) if floats else np.empty((0, 0)),
    }


def digest_diff(first: dict, later: dict) -> list[str]:
    if first["types"] != later["types"]:
        return ["column types differ"]
    if first["exact"].shape != later["exact"].shape or (
            first["exact"] != later["exact"]).any():
        return ["rows, nulls or non-float values differ"]
    bad = np.abs(first["sums"] - later["sums"]) > RTOL * first["scale"]
    floats = [c for c, t in first["types"].items() if t in _FLOATS]
    return [f"{c} differs" for c, b in zip(floats, bad.any(axis=0)) if b]
