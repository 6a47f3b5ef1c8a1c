"""Per-layer probes for the traced run. Each probe times calls into one
module's public functions from here, as a span; the library is not patched.
A metric is the median over ``reps`` repetitions of its probe.

Layer → end-to-end metric it should move (on which workload):
  io.*                    rows_per_s, most on fit_bake
  recipe.explain_s        rows_per_s on query_mix
  recipe.exchanges/fit_flushes  rows_per_s, peak_rss_mb (1/1 flagship, 0/3 fit)
  recipe.prep_s           rows_per_s on flagship_bake and fit_bake
  recipe.bake_s           rows_per_s on fit_bake
  aggregates.fit_s        rows_per_s on fit_bake (three fits), flagship (one)
  transformers.*          cpu_s_per_mrow on fit_bake
  kernels.grouped.*       rows_per_s, cpu_s_per_mrow on flagship_bake;
                          no change predicted on fit_bake
  steps.*                 cpu_s_per_mrow on flagship_bake
  kernels.salted.chain_s  rows_per_s on query_mix (historical_salted)
  query.<name>_s          rows_per_s on query_mix
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time

import workloads as wl
from spans import Tracer

_FAMILIES = ("impute", "historical", "temporal")
_TASKS = re.compile(r"(\d+) tasks executed")
_WALL = re.compile(r"Remote wall time: .*?([\d.]+)(ns|us|ms|s) total")
_UNIT = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def task_totals(stats: str) -> tuple[int, float]:
    """(tasks, summed remote task wall seconds) from ``Dataset.stats()``."""
    tasks = sum(int(n) for n in _TASKS.findall(stats))
    secs = sum(float(v) * _UNIT[u] for v, u in _WALL.findall(stats))
    return tasks, secs


def _median_timed(tr: Tracer, name: str, fn, reps: int):
    walls, res = [], None
    for _ in range(reps):
        res = None  # free the previous repetition's output first
        with tr.span(name):
            t0 = time.perf_counter()
            res = fn()
            walls.append(time.perf_counter() - t0)
    return statistics.median(walls), res


def _explain_counts(text: str) -> tuple[int, int]:
    exchanges = int(re.search(r"total grouped shuffles: (\d+)", text).group(1))
    fits = sum(1 for line in text.splitlines() if line.startswith("fit flush"))
    return exchanges, fits


def _col_stats(series):
    from recipys_ray.aggregates import ColStats

    vc = series.dropna().value_counts()
    return ColStats(
        count=int(series.notna().sum()), total=len(series),
        value_counts=dict(zip(vc.index.tolist(), vc.to_numpy().tolist())),
    )


def probe(w: wl.Workload, tr: Tracer, reps: int, seed: int) -> dict:
    import pyarrow.compute as pc
    import ray.data as rd

    from recipys_ray.aggregates import column_stats
    from recipys_ray.kernels.grouped import (
        assign_gid,
        choose_partitions,
        run_grouped_chain,
    )
    from recipys_ray.kernels.salted import run_salted_chain
    from recipys_ray.steps.sklearn_step import StepSklearn
    from recipys_ray.transformers import OneHotEncoder, QuantileTransformer

    m: dict[str, float] = {}
    src = w.input_path()

    # ---- io: read ---------------------------------------------------------
    m["io.read_s"], mat = _median_timed(
        tr, "io.read", lambda: rd.read_parquet(src).materialize(), reps)
    m["io.read_mb"] = wl.files_mb(src)

    # ---- recipe ----------------------------------------------------------
    def explain():
        return w.layer_recipe(mat).explain()

    m["recipe.explain_s"], text = _median_timed(tr, "recipe.explain", explain, reps)
    m["recipe.exchanges"], m["recipe.fit_flushes"] = _explain_counts(text)

    rec = None

    def prep():
        nonlocal rec
        rec = w.layer_recipe(mat)
        return rec.prep().materialize()

    m["recipe.prep_s"], out = _median_timed(tr, "recipe.prep", prep, reps)
    bake_in = rd.read_parquet(w.bake_input()).materialize()
    m["recipe.bake_s"], _ = _median_timed(
        tr, "recipe.bake", lambda: rec.bake(bake_in).materialize(), reps)
    del bake_in

    # ---- io: write the materialized prep() output --------------------------
    dst = os.path.join(w.work, "probe-write")

    def write():
        shutil.rmtree(dst, ignore_errors=True)
        out.write_parquet(dst)

    m["io.write_s"], _ = _median_timed(tr, "io.write", write, reps)
    m["io.write_mb"] = wl.files_mb(dst)
    shutil.rmtree(dst, ignore_errors=True)
    del out

    # ---- aggregates: one column_stats pass per fitted step -----------------
    fitted = [s for s in rec.steps if isinstance(s, StepSklearn)]

    def fit_stats():
        for s in fitted:
            column_stats(mat, s.columns, set(s.transformer.stats_needed))

    m["aggregates.fit_s"], _ = _median_timed(tr, "aggregates.fit", fit_stats, reps)

    # ---- transformers, in memory without Ray ------------------------------
    table = w.memory_table()
    cat, num = w.transformer_cols
    pdf = table.select([cat, num]).to_pandas()
    pdf[num] = pdf[num].astype("float64")

    def t_fit():
        oh = OneHotEncoder().fit_from_stats({cat: _col_stats(pdf[cat])}, [cat])
        qt = QuantileTransformer().fit_from_stats({num: _col_stats(pdf[num])}, [num])
        return oh, qt

    m["transformers.fit_s"], (oh, qt) = _median_timed(
        tr, "transformers.fit", t_fit, reps)
    m["transformers.apply_s"], _ = _median_timed(
        tr, "transformers.apply",
        lambda: (oh.transform(pdf[[cat]]), qt.transform(pdf[[num]])), reps)
    del pdf

    # ---- kernels.grouped ---------------------------------------------------
    grec = w.grouped_recipe(mat)
    grec.explain()  # resolves every step against the schema, runs nothing
    steps = [s for s in grec.steps if s.kind == "grouped"]
    gcols, scols = steps[0].group_cols, steps[0].seq_cols
    m["kernels.grouped.partitions"] = choose_partitions(mat)
    m["kernels.grouped.chain_s"], chained = _median_timed(
        tr, "kernels.grouped.chain",
        lambda: run_grouped_chain(mat, gcols, scols, steps).materialize(), reps)
    tasks, task_s = task_totals(chained.stats())
    in_tasks, in_task_s = task_totals(mat.stats())
    del chained
    m["kernels.grouped.tasks"] = tasks - in_tasks
    m["kernels.grouped.task_s"] = task_s - in_task_s
    m["kernels.grouped.wait_s"] = (
        m["kernels.grouped.chain_s"] - m["kernels.grouped.task_s"])

    needed = list(dict.fromkeys(
        [c for s in steps for c in s.frame_inputs()] + gcols + scols))
    fam_walls = {f: [] for f in _FAMILIES}

    def kernel():
        fam = dict.fromkeys(_FAMILIES, 0.0)
        with tr.span("kernel.sort"):
            idx = pc.sort_indices(
                table, sort_keys=[(c, "ascending") for c in gcols + scols])
            frame = table.select(needed).take(idx).to_pandas()
        with tr.span("kernel.assign_gid"):
            frame = assign_gid(frame, gcols)
        for s in steps:
            family = type(s).__module__.rsplit(".", 1)[-1]
            t0 = time.perf_counter()
            with tr.span(f"steps.{family}"):
                frame = s.transform_frame(frame, gcols)
            fam[family] += time.perf_counter() - t0
        for f in _FAMILIES:
            fam_walls[f].append(fam[f])

    m["kernels.grouped.kernel_s"], _ = _median_timed(
        tr, "kernels.grouped.kernel", kernel, reps)
    for f in _FAMILIES:
        m[f"steps.{f}_s"] = statistics.median(fam_walls[f])

    # ---- kernels.salted ----------------------------------------------------
    def salted():
        srec = w.grouped_recipe(mat)
        srec.explain()
        ssteps = [s for s in srec.steps if s.kind == "grouped"]
        return run_salted_chain(
            mat, gcols, scols, ssteps,
            num_partitions=m["kernels.grouped.partitions"], salt=w.salt(),
        ).materialize()

    m["kernels.salted.chain_s"], _ = _median_timed(
        tr, "kernels.salted.chain", salted, reps)
    del mat

    # ---- query mix: medians over every traced pass of this run ------------
    mix = w if isinstance(w, wl.QueryMix) else None
    while min(len(tr.durations(f"query.{q}")) for q in wl.MIX) < reps:
        if mix is None:
            mix = wl.QueryMix(os.path.join(w.work, "mix"), w.root)
            mix.prepare(seed)
        mix.job(tr)
    for q in wl.MIX:
        m[f"query.{q}_s"] = statistics.median(tr.durations(f"query.{q}"))
    return m
