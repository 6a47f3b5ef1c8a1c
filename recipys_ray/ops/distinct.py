"""Per-group COUNT(DISTINCT) — exact combiner plan + HyperLogLog scale path.

Exact: every read block first reduces to its distinct (group, value) pairs
(the combiner — the shuffle then moves at most one row per distinct pair
per block, not the raw stream), pairs hash-partition by group, and each
partition counts its groups' distincts completely.

Approximate (:func:`distinct_per_group_approx`): classic HyperLogLog
(Flajolet, Fusy, Gandouet, Meunier 2007 — public) with 2^p registers per
group. Per block only the OBSERVED (group, register, max-rho) triples are
emitted (≤ #distinct values in the block, never the dense 2^p register
file), the shuffle merges triples by max, and the estimator runs per group
with the standard small-range (linear counting) correction. Standard
error ≈ 1.04/√2^p (~1.6% at p=12) at O(#groups · observed registers)
memory — the exact op's pair shuffle is the fallback when cardinalities
are small enough to afford it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 (0 → 0)."""
    w = w.copy()
    bl = np.zeros(len(w), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = w >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        w[big] >>= np.uint64(s)
    bl[w > 0] += 1
    return bl


def distinct_per_group(
    ds, group_cols: list[str], value_col: str,
    num_partitions: int | None = None,
):
    """Exact per-group distinct count (module docstring). Returns a Dataset
    of (group_cols…, n_distinct int64)."""
    cols = list(group_cols) + [value_col]

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(pdf, preserve_index=False)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=262_144
    )

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.drop_duplicates()
            .groupby(list(group_cols), sort=False, observed=True)
            .size()
            .reset_index(name="n_distinct")
        )
        out["n_distinct"] = out["n_distinct"].astype(np.int64)
        return out

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    return partitioned_groupby_map(
        partials, list(group_cols), finish, num_partitions
    )


def distinct_per_group_approx(
    ds, group_cols: list[str], value_col: str, p: int = 12,
    num_partitions: int | None = None,
):
    """HyperLogLog per-group distinct estimate (module docstring). Returns
    a Dataset of (group_cols…, n_distinct_approx float64)."""
    m = 1 << p
    cols = list(group_cols) + [value_col]
    shift = np.uint64(64 - p)

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas()
        h = pd.util.hash_array(pdf[value_col].to_numpy()).astype(np.uint64)
        reg = (h >> shift).astype(np.int64)
        w = h << np.uint64(p)  # remaining 64-p bits, left-aligned
        # rho = leading-zero count of the remaining bits + 1, computed on
        # the left-aligned word: 64 - bit_length(w) + 1 (w == 0 → 64-p+1)
        rho = np.where(w > 0, 64 - _bit_length_u64(w) + 1, 64 - p + 1)
        out = pdf[list(group_cols)].copy()
        out["reg"] = reg
        out["rho"] = rho.astype(np.int64)
        out = (
            out.groupby(list(group_cols) + ["reg"], sort=False,
                        observed=True)["rho"]
            .max()
            .reset_index()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=262_144
    )

    alpha = 0.7213 / (1.0 + 1.079 / m)  # standard alpha_m for m >= 128

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        merged = (
            pdf.groupby(list(group_cols) + ["reg"], sort=False,
                        observed=True)["rho"]
            .max()
            .reset_index()
            # ascending-register summation order is part of the estimate's
            # determinism contract (float addition is order-sensitive);
            # the golden oracle (scripts/gen_expected.py hll_expected)
            # sums the same array in the same order — bit-equal estimates
            .sort_values(list(group_cols) + ["reg"], kind="stable")
        )
        g = merged.groupby(list(group_cols), sort=False, observed=True)
        inv_sum = g["rho"].apply(
            lambda r: float(np.sum(np.exp2(-r.to_numpy(np.float64))))
        )
        present = g.size()
        zeros = (m - present).astype(np.float64)
        denom = inv_sum + zeros  # absent registers contribute 2^0 = 1
        E = alpha * m * m / denom
        small = (E <= 2.5 * m) & (zeros > 0)
        E = np.where(small, m * np.log(m / np.where(zeros > 0, zeros, 1.0)),
                     E)
        out = present.reset_index(name="__n_reg__").drop(
            columns="__n_reg__"
        )
        out["n_distinct_approx"] = np.asarray(E, np.float64)
        return out

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    return partitioned_groupby_map(
        partials, list(group_cols), finish, num_partitions
    )
