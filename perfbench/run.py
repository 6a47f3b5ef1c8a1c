"""Benchmark of the recipys_ray recipe engine: one workload per invocation.

    python3 perfbench/run.py --workload flagship_bake --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The invocation starts its own local Ray
sized to nproc, makes the workload's inputs from the seed, runs one
untimed warm-up job (checked in full against an oracle), then a closed loop
of one job at a time until the timed jobs add up to ``--seconds``; each
later job is checked against the warm-up's digest.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs, then runs the per-layer probes (layers.py) and
reports the per-layer metrics; its spans go to .perfbench/traces/.

Standard output: one JSON report line (machine block, per-job walls,
excluded queries, problems), then the result line
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the checkout holds no recipys_ray to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_BASE = os.path.join(ROOT, ".perfbench")
TOTAL_BUDGET_S = 165.0  # the invocation must end within 180 s
PROBE_DEADLINE_S = 120.0
# the traced run stops its job loop early enough to leave the probes this long
PROBE_RESERVE_S = 90.0
PROBE_REPS = 2
RAY_TEMP = os.path.join(WORK_BASE, "ray")
# Ray puts unix sockets under its temp dir, and a socket path may not exceed
# 107 bytes, which a long checkout path would. Every process of the session
# runs in the checkout root, so Ray is given the temp dir through each
# process's own working directory.
RAY_TEMP_VIA_CWD = "/proc/self/cwd/" + os.path.relpath(RAY_TEMP, ROOT)
RAY_START_ATTEMPTS = 3
RAY_RETRY_MIN_LEFT_S = 110.0  # a retry must leave time for the jobs
OBJECT_STORE_BYTES = 512 << 20  # no spilling at these input sizes


class Budget:
    def __init__(self, total: float):
        self.end = time.monotonic() + total

    def left(self) -> float:
        return max(self.end - time.monotonic(), 0.0)


def with_deadline(fn, deadline: float):
    """Run ``fn`` on a daemon thread; returns (result, error, overran)."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as e:  # reported as a failed job, traceback on stderr
            import traceback

            traceback.print_exc(file=sys.stderr)
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(deadline)
    if th.is_alive():
        return None, TimeoutError(f"overran its {deadline:.0f} s deadline"), True
    return box.get("result"), box.get("error"), False


# --------------------------------------------------------------------- #
# the code under test
# --------------------------------------------------------------------- #
def import_library():
    """Import recipys_ray from this checkout and nowhere else."""
    if not os.path.isfile(os.path.join(ROOT, "recipys_ray", "__init__.py")):
        raise SystemExit(f"no recipys_ray package under {ROOT}")
    sys.path.insert(0, ROOT)
    import recipys_ray

    where = os.path.dirname(os.path.abspath(recipys_ray.__file__))
    if where != os.path.join(ROOT, "recipys_ray"):
        raise SystemExit(f"recipys_ray imported from {where}, not {ROOT}")
    return where


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "recipys_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=10)
    return r.stdout.strip() or None


def nproc() -> int:
    """CPUs as ``nproc`` counts them: it honours OMP_NUM_THREADS, which is
    how a shared box tells its tenants how many CPUs to use."""
    r = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
    return int(r.stdout)


def pin_cpus() -> list[int]:
    """Keep this process and everything it starts on nproc + 1 CPUs: nproc
    for Ray's tasks and one for the driver and Ray's daemons. Left free to
    roam, the session borrows whatever other CPUs the host leaves idle at
    the moment, and its speed follows the neighbours' load."""
    cpus = sorted(os.sched_getaffinity(0))[: nproc() + 1]
    os.sched_setaffinity(0, cpus)
    return cpus


def machine() -> dict:
    import duckdb
    import pandas
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(next(ln for ln in f if ln.startswith("MemTotal")).split()[1])
    return {
        "nproc": nproc(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "ram_gb": round(mem_kb / 1e6, 1),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__,
        "duckdb": duckdb.__version__,
        "git_commit": git_commit(),
        "recipys_ray_sha256": source_digest(),
    }


# --------------------------------------------------------------------- #
# Ray session
# --------------------------------------------------------------------- #
def start_ray(lib_dir: str, budget: Budget) -> dict:
    """Start the local Ray session, retrying a start-up that fails.

    On a loaded host the raylet sometimes never registers with the GCS and
    ``ray.init`` gives up after its own 30 s wait; the half-started session
    is then torn down and started afresh, as long as the run's time allows.
    """
    import procs
    import ray
    from ray.data import DataContext

    failures: list[str] = []
    for attempt in range(1, RAY_START_ATTEMPTS + 1):
        try:
            ray.init(
                address="local",
                num_cpus=nproc(),
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                object_store_memory=OBJECT_STORE_BYTES,
                # workers import the library from this checkout, not the driver's cwd
                runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
                _temp_dir=RAY_TEMP_VIA_CWD,
            )
            break
        except Exception as e:
            import traceback

            traceback.print_exc(file=sys.stderr)
            failures.append(f"attempt {attempt}: {type(e).__name__}: {e}")
            try:
                ray.shutdown()
            finally:
                procs.stop_tree(procs.descendants(os.getpid()), grace=0.0)
            shutil.rmtree(RAY_TEMP, ignore_errors=True)
            if attempt == RAY_START_ATTEMPTS or budget.left() < RAY_RETRY_MIN_LEFT_S:
                raise RuntimeError("Ray did not start: " + "; ".join(failures)) from e
    DataContext.get_current().enable_progress_bars = False

    @ray.remote
    def worker_library():
        import recipys_ray

        return os.path.dirname(os.path.abspath(recipys_ray.__file__))

    seen = ray.get(worker_library.remote())
    if seen != lib_dir:
        raise RuntimeError(f"Ray workers import recipys_ray from {seen}, not {lib_dir}")
    return {"ray_start_failures": failures}


def stop_ray(graceful: bool) -> list[int]:
    """Shut Ray down and wait until every process it started has ended.
    After a hung job ``ray.shutdown`` may block, so the processes are
    signalled directly instead."""
    import procs
    import ray

    pids = procs.descendants(os.getpid())
    if graceful and ray.is_initialized():
        ray.shutdown()
    return procs.stop_tree(pids, grace=10.0 if graceful else 0.0)


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
def run(args, work: str, report: dict) -> dict:
    import layers
    import oracles
    import procs
    import workloads as wl
    from spans import Tracer

    budget = Budget(TOTAL_BUDGET_S)
    lib_dir = import_library()
    report["machine"] = machine()
    traced = Tracer(enabled=True, run_id=f"{args.workload}-{args.seed}")
    untraced = Tracer(enabled=False)
    w = wl.WORKLOADS[args.workload](work, ROOT)
    setup: dict[str, float] = {}
    jobs: list[dict] = []
    problems: list[str] = report["problems"]

    t0 = time.perf_counter()
    # on the main thread: Ray ties its daemons' lifetime to the starting thread
    report.update(start_ray(lib_dir, budget))
    setup["setup.ray_start_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    w.prepare(args.seed)
    setup["setup.gen_s"] = time.perf_counter() - t0
    report["rows_per_job"] = w.rows

    def one_job(tr, timed: bool) -> dict:
        rss = procs.PeakRss()
        cpu0 = procs.tree_cpu_seconds()
        t0 = time.perf_counter()
        with rss:
            with tr.span("job"):
                outputs, err, over = with_deadline(
                    lambda: w.job(tr), min(w.deadline_s, budget.left()))
        rec = {"wall_s": time.perf_counter() - t0,
               "cpu_s": procs.tree_cpu_seconds() - cpu0,
               "peak_rss_b": rss.peak, "traced": tr.enabled, "timed": timed,
               "ok": False, "overran": over}
        if over:
            report["hung"] = True  # the session is stuck: no further jobs
        if err is not None:
            rec["error"] = f"{type(err).__name__}: {err}"
            return rec
        t_check = time.perf_counter()
        try:
            if "digest" not in report:
                bad = w.check_full(outputs)
                report["digest"] = {k: oracles.digest(v) for k, v in outputs.items()}
            else:
                bad = [f"{k}: {p}" for k, v in outputs.items()
                       for p in oracles.digest_diff(report["digest"][k],
                                                    oracles.digest(v))]
        finally:
            w.discard(outputs)
        rec["check_s"] = time.perf_counter() - t_check
        rec["ok"] = not bad
        if bad:
            rec["error"] = "wrong output: " + "; ".join(bad[:5])
        return rec

    warm = one_job(untraced, timed=False)
    setup["setup.warmup_s"] = warm["wall_s"]
    jobs.append(warm)
    gc.collect()

    measured = 0.0
    reserve = PROBE_RESERVE_S if args.trace else 0.0
    while (warm["ok"] and not report.get("hung") and measured < args.seconds
           and budget.left() > reserve + 1.0):
        # the traced run alternates untraced and traced jobs
        tr = traced if args.trace and len(jobs) % 2 == 0 else untraced
        rec = one_job(tr, timed=True)
        jobs.append(rec)
        measured += rec["wall_s"]
        gc.collect()

    for i, j in enumerate(jobs):
        if not j["ok"]:
            problems.append(f"job {i}: {j.get('error')}")
    report["jobs"] = [
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in j.items()}
        for j in jobs
    ]
    timed = [j for j in jobs if j["timed"] and not j["overran"]]
    report["samples"] = len(timed)
    failed = sum(not j["ok"] for j in jobs)
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    if not args.trace:
        base = [j for j in timed if not j["traced"]] or [warm]
        put("rows_per_s", statistics.median(w.rows / j["wall_s"] for j in base), "1/s")
        put("cpu_s_per_mrow",
            statistics.median(j["cpu_s"] / (w.rows / 1e6) for j in base), "s")
        put("peak_rss_mb", max(j["peak_rss_b"] for j in base) / 1e6, "MB")
        put("setup_s", sum(setup.values()), "s")
    else:
        plain = [j["wall_s"] for j in timed if not j["traced"]] or [warm["wall_s"]]
        spans = [j["wall_s"] for j in timed if j["traced"]]
        res, err, over = with_deadline(
            lambda: layers.probe(w, traced, PROBE_REPS, args.seed),
            min(PROBE_DEADLINE_S, budget.left()))
        if err is not None:
            report["hung"] = over
            raise RuntimeError(f"layer probes failed: {err}")
        units = {"_s": "s", "_mb": "MB"}
        for name, value in res.items():
            unit = next((u for suf, u in units.items() if name.endswith(suf)), "count")
            put(name, value, unit)
        for name, value in setup.items():
            put(name, value, "s")
        put("trace.overhead_s",
            statistics.median(spans) - statistics.median(plain) if spans else 0.0, "s")
        put("error_rate", failed / len(jobs), "ratio")
        os.makedirs(os.path.join(WORK_BASE, "traces"), exist_ok=True)
        path = os.path.join(WORK_BASE, "traces", f"{traced.run_id}.jsonl")
        traced.dump(path)
        report["spans_file"] = os.path.relpath(path, ROOT)

    report["setup"] = {k: round(v, 4) for k, v in setup.items()}
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> None:
    pin_cpus()  # before any thread starts: threads inherit the mask
    os.chdir(ROOT)  # Ray's processes find their temp dir through this cwd
    sys.path.insert(0, HERE)
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_library()  # fail before starting anything when there is nothing to measure
    import procs

    procs.become_subreaper()
    os.makedirs(WORK_BASE, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_BASE)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "excluded_queries": wl.EXCLUDED, "problems": []}
    try:
        result = run(args, work, report)
    finally:
        t0 = time.perf_counter()
        report["killed_pids"] = stop_ray(graceful=not report.get("hung"))
        report["teardown_s"] = round(time.perf_counter() - t0, 3)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)
    report.pop("digest", None)
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    sys.stdout.flush()
    # a job thread stuck inside Ray must not keep the process alive
    os._exit(0)


if __name__ == "__main__":
    main()
