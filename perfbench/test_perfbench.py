"""Tests of the benchmark itself: seeded inputs, metric names, and that every
correctness check catches a wrong value.

    python3 -m pytest perfbench -q

The last test runs the benchmark end to end (about two minutes)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _tree_hashes(path: str) -> dict[str, str]:
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _write_inputs(base: str, seed: int, turns: int = 20_000) -> str:
    tbl = gen.transcripts(seed, turns=turns)
    held = gen.heldout_mask(tbl)
    gen.write_shards(tbl, os.path.join(base, "in"))
    gen.write_shards(tbl.filter(~held), os.path.join(base, "train"))
    gen.write_shards(tbl.filter(held), os.path.join(base, "heldout"))
    gen.write_query_tables(seed, os.path.join(base, "tables"))
    return base


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def test_inputs_byte_identical_for_a_seed(tmp_path):
    a = _tree_hashes(_write_inputs(str(tmp_path / "a"), 7))
    b = _tree_hashes(_write_inputs(str(tmp_path / "b"), 7))
    c = _tree_hashes(_write_inputs(str(tmp_path / "c"), 8))
    assert a and a == b
    assert all(a[k] != c[k] for k in a)


def test_query_tables_have_contract_shapes():
    tables = gen.query_tables(3)
    for name, rows in gen.ROWS.items():
        assert tables[name].num_rows == rows
    ev = tables["events"].to_pandas()
    assert ev["ts"].is_monotonic_increasing and ev["ts"].is_unique


def test_heldout_split_is_about_a_fifth_and_by_conversation():
    tbl = gen.transcripts(5, turns=20_000)
    held = gen.heldout_mask(tbl)
    assert 0.1 < held.mean() < 0.3
    conv = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    assert not set(conv[held]) & set(conv[~held])


# --------------------------------------------------------------------- #
# metric names
# --------------------------------------------------------------------- #
def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_are_valid_and_unique():
    b = _bench()
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in b[k]]
    names += [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in b["workloads"]} <= set(wl.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in b["end_to_end"])
    assert {f"query.{q}_s" for q in wl.MIX} <= {m["name"] for m in b["per_layer"]}


# --------------------------------------------------------------------- #
# every check catches a perturbed value
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    return _write_inputs(str(tmp_path_factory.mktemp("inputs")), 11)


def _perturbed(df: pd.DataFrame, col: str, row: int = 3) -> pd.DataFrame:
    out = df.copy()
    v = out.at[row, col]
    if pd.isna(v):
        row = int(np.flatnonzero(out[col].notna().to_numpy())[0])
        v = out.at[row, col]
    if isinstance(v, str):
        out.at[row, col] = v + "x"
    elif isinstance(v, pd.Timestamp):
        out.at[row, col] = v + pd.Timedelta(microseconds=1)
    elif isinstance(v, (float, np.floating)):
        out.at[row, col] = v * (1 + 1e-6) + 1e-6
    else:
        out.at[row, col] = v + 1
    return out


def test_flagship_oracle_catches_each_perturbed_column(small_inputs):
    ref = oracles.run_sql(oracles.flagship_sql(f"{small_inputs}/in/*.parquet"))
    keys = wl.KEYS
    assert oracles.check(ref, ref, keys) == []
    for col in ref.columns:
        if col in keys:
            continue
        assert oracles.check(_perturbed(ref, col), ref, keys), col


def test_fit_bake_oracle_catches_each_perturbed_column(small_inputs):
    train = f"{small_inputs}/train/*.parquet"
    ref = oracles.run_sql(oracles.fit_bake_sql(
        train, f"{small_inputs}/heldout/*.parquet", ["assistant", "tool", "user"]))
    keys = wl.KEYS
    tol = {"n_chars": oracles.QUANTILE_TOL}
    assert oracles.check(ref, ref, keys, tol) == []
    for col in ref.columns:
        if col in keys or col == "n_chars":
            continue
        assert oracles.check(_perturbed(ref, col), ref, keys, tol), col
    # the quantile column: inside its stated tolerance passes, beyond fails
    for shift, caught in ((0.5, False), (2.0, True)):
        bad = ref.copy()
        bad.loc[5, "n_chars"] += shift * oracles.QUANTILE_TOL
        assert bool(oracles.check(bad, ref, keys, tol)) is caught


@pytest.fixture(scope="module")
def contract():
    return oracles.load_check_contract(ROOT)


def test_query_oracles_catch_a_perturbed_value(small_inputs, contract):
    import duckdb

    from recipys_ray.pipelines.driver_queries import ORACLES

    con = duckdb.connect()
    for t in gen.ROWS:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{small_inputs}/tables/{t}.parquet')")
    for name in wl.MIX:
        ref = con.execute(ORACLES[name]).df()
        assert oracles.contract_compare(contract, name, ref, ref) == [], name
        col = next(c for c in ref.columns if ref[c].notna().all())
        assert oracles.contract_compare(
            contract, name, _perturbed(ref, col, row=0), ref), name


def test_digest_ignores_order_and_catches_a_perturbed_value(small_inputs):
    df = oracles.run_sql(oracles.flagship_sql(f"{small_inputs}/in/*.parquet"))
    d = oracles.digest(df)
    shuffled = df.sample(frac=1.0, random_state=0).reset_index(drop=True)
    assert oracles.digest_diff(d, oracles.digest(shuffled)) == []
    for col in ("n_chars_mean", "session_id", "text", "ts"):
        assert oracles.digest_diff(d, oracles.digest(_perturbed(df, col))), col
    # a float moved to another row is a different output
    moved = df.copy()
    moved.loc[[0, 1], "score_mean"] = moved.loc[[1, 0], "score_mean"].to_numpy()
    if moved.at[0, "score_mean"] != df.at[0, "score_mean"]:
        assert oracles.digest_diff(d, oracles.digest(moved))


def test_task_totals_parse_dataset_stats():
    import layers

    stats = (
        "Operator 1 MapBatches(f): 3 tasks executed, 3 blocks produced in 0.1s\n"
        "* Remote wall time: 1ms min, 2ms max, 1.5ms mean, 4.5ms total\n"
        "\tSuboperator 0 SortMap: 2 tasks executed, 2 blocks produced\n"
        "\t* Remote wall time: 1s min, 1s max, 1s mean, 2.0s total\n"
        "\t* Remote wall time: 10us min, 10us max, 10us mean, 20us total\n"
    )
    tasks, secs = layers.task_totals(stats)
    assert tasks == 5
    assert secs == pytest.approx(0.0045 + 2.0 + 0.00002)


# --------------------------------------------------------------------- #
# end to end: the emitted metric names equal BENCHMARK.json's
# --------------------------------------------------------------------- #
def _ray_processes() -> list[str]:
    out = subprocess.run(["ps", "-eo", "pid,args"], capture_output=True,
                         text=True).stdout.splitlines()
    return [ln for ln in out if re.search(r"raylet|gcs_server|ray::", ln)]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, kind):
    before = _ray_processes()
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "query_mix",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _bench()[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(NAME.match(k) for k in got)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["recipe.exchanges"]["value"] == 1
    assert _ray_processes() == before


def test_a_job_past_its_deadline_fails_and_stops_ray():
    before = _ray_processes()
    code = (
        "import sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "sys.argv = ['run.py', '--workload', 'query_mix', '--seed', '5',"
        " '--seconds', '1', '--trace', '0']\n"
        "import run, workloads\n"
        "workloads.QueryMix.deadline_s = 0.5\n"
        "run.main()\n"
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       capture_output=True, text=True, timeout=180)
    assert r.returncode == 0, r.stderr[-2000:]
    lines = r.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert report["hung"] and report["jobs"][0]["overran"]
    assert result["failed"] == 1 and not result["correct"]
    assert _ray_processes() == before


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    import shutil

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagship_bake",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert r.returncode != 0
    assert r.stdout.strip() == ""
