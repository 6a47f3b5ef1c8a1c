"""Iterative graph algorithms over edge Datasets.

:func:`pagerank` — fixed-point INTEGER PageRank. Classic float PageRank
is summation-order-sensitive (Σ of doubles over shuffled in-edges), which
breaks cross-engine bit-parity; this variant does every step in integer
arithmetic, so results are exact and identical under ANY block layout,
partitioning or engine:

    r⁰(v)   = SCALE // n
    s(v)    = Σ_{(u→v) ∈ E}  r(u) // deg(u)        (per-EDGE floor div,
                                                    parallel edges count)
    rᵗ⁺¹(v) = (SCALE·15 // 100) // n  +  (85·s(v)) // 100

Dangling nodes (out-degree 0) simply leak their mass — the standard
simplification, stated in the oracle too. Companion op:
``connected_components`` (ops/dedup.py) for the undirected reachability
shape; PageRank adds the *iterative broadcast* shape — each sweep is one
streaming pass over the (aggregated) edge dataset with the rank vector
broadcast via ``ray.put``.

Scale contract: EDGES stay distributed (one combiner pass folds parallel
edges to (src, dst, mult) so each sweep moves multiplicities, not raw
edges); only per-NODE state (degree + rank, ≤ ``driver_cap``) lives on
the driver. Above the cap a co-partitioned rank-join iteration is the
route — the raise is explicit, mirroring grouped_zscore's policy.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def pagerank(
    ds,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = 2,
    scale: int = 10**12,
    rank_col: str = "rank",
    driver_cap: int = 5_000_000,
):
    """Fixed-point integer PageRank over a directed edge Dataset.

    Returns a Dataset of ``(node:int64, rank_col:int64)`` — one row per
    distinct node (appearing as src OR dst), ranks after ``iters``
    damped sweeps of the integer recurrence above. Null-keyed edges are
    dropped."""
    import ray
    import ray.data as rd

    from recipys_ray.kernels.grouped import partitioned_groupby_map

    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    def edge_partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select([src_col, dst_col]).to_pandas()
        pdf = pdf[pdf[src_col].notna() & pdf[dst_col].notna()]
        agg = (
            pdf.groupby([src_col, dst_col], sort=False)
            .size()
            .reset_index(name="mult")
        )
        return pa.table(
            {
                "src": pa.array(agg[src_col].to_numpy(np.int64),
                                pa.int64()),
                "dst": pa.array(agg[dst_col].to_numpy(np.int64),
                                pa.int64()),
                "mult": pa.array(agg["mult"].to_numpy(np.int64),
                                 pa.int64()),
            }
        )

    def edge_finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(["src", "dst"], sort=False)["mult"]
            .sum()
            .reset_index()
        )
        out["mult"] = out["mult"].astype(np.int64)
        return out

    raw = ds.select_columns([src_col, dst_col]).map_batches(
        edge_partial, batch_format="pyarrow"
    )
    # multi-pass consumer: pin the aggregated edge dataset ONCE (the
    # materialize-pin policy — each sweep re-reads blocks, never re-runs
    # the combiner); object store spills as needed
    edges = partitioned_groupby_map(raw, ["src"], edge_finish).materialize()

    # per-node out-degree (WITH edge multiplicity) + node universe —
    # skinny driver state, capped
    def deg_partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(["src", "dst", "mult"]).to_pandas()
        d = pdf.groupby("src", sort=False)["mult"].sum().reset_index()
        return pa.table(
            {
                "node": pa.array(d["src"].to_numpy(np.int64), pa.int64()),
                "deg": pa.array(d["mult"].to_numpy(np.int64), pa.int64()),
                "seen_dst": pa.array(
                    np.zeros(len(d), dtype=np.int64), pa.int64()
                ),
            }
        )

    deg_parts = edges.map_batches(deg_partial, batch_format="pyarrow")
    ddf = deg_parts.to_pandas()
    dst_nodes = (
        edges.select_columns(["dst"])
        .map_batches(
            lambda t: pa.table({"node": pc.unique(t.column("dst"))}),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    deg = ddf.groupby("node")["deg"].sum()
    nodes = np.union1d(
        deg.index.to_numpy(np.int64), dst_nodes["node"].to_numpy(np.int64)
    )
    n = int(len(nodes))
    if n == 0:
        return rd.from_pandas(
            pd.DataFrame(
                {"node": np.array([], np.int64),
                 rank_col: np.array([], np.int64)}
            )
        )
    if n > driver_cap:
        raise ValueError(
            f"{n} nodes exceeds driver_cap={driver_cap}; use a "
            "co-partitioned rank-join iteration instead of the broadcast"
        )
    deg_full = pd.Series(
        np.zeros(n, dtype=np.int64), index=nodes, name="deg"
    )
    deg_full.loc[deg.index] = deg.to_numpy(np.int64)

    base = ((scale * 15) // 100) // n
    r = pd.Series(np.full(n, scale // n, dtype=np.int64), index=nodes)

    for _ in range(iters):
        ref = ray.put((r, deg_full))

        def sweep(tbl: pa.Table) -> pa.Table:
            rk, dg = ray.get(ref)
            src = tbl.column("src").to_numpy(zero_copy_only=False)
            dst = tbl.column("dst").to_numpy(zero_copy_only=False)
            mult = tbl.column("mult").to_numpy(zero_copy_only=False)
            contrib = (
                rk.loc[src].to_numpy(np.int64)
                // dg.loc[src].to_numpy(np.int64)
            ) * mult
            part = (
                pd.DataFrame({"node": dst, "s": contrib})
                .groupby("node", sort=False)["s"]
                .sum()
                .reset_index()
            )
            return pa.table(
                {
                    "node": pa.array(part["node"].to_numpy(np.int64),
                                     pa.int64()),
                    "s": pa.array(part["s"].to_numpy(np.int64),
                                  pa.int64()),
                }
            )

        sdf = edges.map_batches(sweep, batch_format="pyarrow").to_pandas()
        s = sdf.groupby("node")["s"].sum()
        s_full = s.reindex(nodes, fill_value=0).to_numpy(np.int64)
        r = pd.Series(base + (85 * s_full) // 100, index=nodes)

    return rd.from_pandas(
        pd.DataFrame({"node": nodes, rank_col: r.to_numpy(np.int64)})
    )


def triangle_counts(
    ds,
    src_col: str = "src",
    dst_col: str = "dst",
    node_col: str = "node",
    out_col: str = "tri_count",
    num_partitions: int | None = None,
    driver_cap: int = 50_000_000,
    max_out_degree: int = 100_000,
):
    """Per-node triangle participation counts over an UNDIRECTED edge
    Dataset (duplicates, self-loops and either orientation tolerated) —
    the classic graph-feature / community-density signal. Returns
    ``(node:int64, out_col:int64)``, one row per node in ≥1 triangle
    (nodes in none emit no row, mirroring the SQL oracle's join).

    Algorithm — the degree-ordered "forward" method (Schank & Wagner
    2005; the MapReduce form is Suri & Vassilvitskii, WWW'11):

    1. canonicalize (min,max), ONE hash exchange → distinct edges,
       pinned once (multi-pass consumer: degrees, orientation, closure).
    2. per-node degrees fold to the driver (≤ ``driver_cap`` nodes of
       skinny int state — same bounded-node-state policy as
       :func:`pagerank`); the (degree, node) total order is broadcast.
    3. orient every edge low-rank → high-rank: out-degrees are then
       O(√m), so wedge generation is O(m^1.5) TOTAL regardless of hub
       skew — the hot-bucket-quadratic fix by construction.
    4. wedges: exchange oriented edges on source; per partition the
       out-neighbor pair expansion runs vectorized across ALL sources
       (the shared repeat/cumsum offset arithmetic). Each wedge (a;b,c)
       is emitted with b,c in rank order, so it closes iff oriented
       edge (b→c) exists.
    5. closure = SEMI join of wedges against oriented edges
       (:func:`~recipys_ray.ops.join.hash_join` — broadcasts the edge
       set when it fits, else co-partitioned shuffle), then a per-block
       corner-count combiner + ONE skinny exchange sums per node.

    Every triangle a<b<c in rank order is generated exactly once (as
    the wedge at its lowest-rank corner), so counts are bit-equal to
    the three-way self-join SQL oracle and partition-count invariant."""
    import ray
    import ray.data as rd

    from recipys_ray.kernels.grouped import partitioned_groupby_map
    from recipys_ray.ops.join import hash_join

    def canon(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select([src_col, dst_col]).to_pandas()
        pdf = pdf[pdf[src_col].notna() & pdf[dst_col].notna()]
        s = pdf[src_col].to_numpy(np.int64)
        d = pdf[dst_col].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        out = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
        return pa.table({
            "u": pa.array(out["u"].to_numpy(np.int64), pa.int64()),
            "v": pa.array(out["v"].to_numpy(np.int64), pa.int64()),
        })

    def dedup_part(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop_duplicates()

    raw = ds.select_columns([src_col, dst_col]).map_batches(
        canon, batch_format="pyarrow"
    )
    edges = partitioned_groupby_map(
        raw, ["u"], dedup_part, num_partitions=num_partitions
    ).materialize()

    # distinct-edge degrees: skinny per-block bincount partials folded on
    # the driver (bounded per-node state, like pagerank's degree vector)
    def deg_partial(tbl: pa.Table) -> pa.Table:
        both = np.concatenate([
            tbl.column("u").to_numpy(zero_copy_only=False),
            tbl.column("v").to_numpy(zero_copy_only=False),
        ])
        nodes, cnt = np.unique(both, return_counts=True)
        return pa.table({
            "node": pa.array(nodes.astype(np.int64), pa.int64()),
            "deg": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    ddf = edges.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    if not len(ddf):
        return rd.from_pandas(pd.DataFrame({
            node_col: np.array([], np.int64),
            out_col: np.array([], np.int64),
        }))
    deg = ddf.groupby("node")["deg"].sum()
    if len(deg) > driver_cap:
        raise ValueError(
            f"{len(deg)} nodes exceeds driver_cap={driver_cap}; switch "
            "the rank map to a co-partitioned degree join"
        )
    deg_ref = ray.put(deg)

    def orient(tbl: pa.Table) -> pa.Table:
        dg = ray.get(deg_ref)
        u = tbl.column("u").to_numpy(zero_copy_only=False)
        v = tbl.column("v").to_numpy(zero_copy_only=False)
        du = dg.loc[u].to_numpy(np.int64)
        dv = dg.loc[v].to_numpy(np.int64)
        # total order (deg, node): u first iff (du,u) < (dv,v)
        fwd = (du < dv) | ((du == dv) & (u < v))
        a = np.where(fwd, u, v)
        b = np.where(fwd, v, u)
        return pa.table({
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            # rank key of the head, for the in-partition wedge ordering
            "db": pa.array(np.where(fwd, dv, du), pa.int64()),
        })

    oriented = edges.map_batches(orient, batch_format="pyarrow")

    def wedges_part(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "a": pd.Series(dtype=np.int64),
            "b": pd.Series(dtype=np.int64),
            "c": pd.Series(dtype=np.int64),
        })
        if not len(pdf):
            return empty
        pdf = pdf.sort_values(["a", "db", "b"], kind="stable",
                              ignore_index=True)
        ids = pdf.groupby("a", sort=False).ngroup().to_numpy()
        n = len(pdf)
        sizes = np.bincount(ids, minlength=int(ids[-1]) + 1)
        if sizes.max() > max_out_degree:
            raise ValueError(
                f"a node has oriented out-degree {int(sizes.max())} "
                f"(> max_out_degree={max_out_degree}) — wedge expansion "
                "would be quadratic in it; raise the cap knowingly"
            )
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        local = np.arange(n) - starts[ids]
        reps = sizes[ids] - local - 1
        total = int(reps.sum())
        if total == 0:
            return empty
        left = np.repeat(np.arange(n), reps)
        cum = np.concatenate(([0], np.cumsum(reps)[:-1]))
        right = np.arange(total) - np.repeat(cum, reps) + left + 1
        nbr = pdf["b"].to_numpy()
        return pd.DataFrame({
            "a": pdf["a"].to_numpy()[left],
            "b": nbr[left],   # rank(b) < rank(c) by the sort
            "c": nbr[right],
        })

    wedges = partitioned_groupby_map(
        oriented, ["a"], wedges_part, num_partitions=num_partitions
    )
    closed = hash_join(
        wedges, oriented.select_columns(["a", "b"]),
        on=["b", "c"], right_on=["a", "b"], how="semi",
    )

    def corner_partial(tbl: pa.Table) -> pa.Table:
        allv = np.concatenate([
            tbl.column("a").to_numpy(zero_copy_only=False),
            tbl.column("b").to_numpy(zero_copy_only=False),
            tbl.column("c").to_numpy(zero_copy_only=False),
        ])
        nodes, cnt = np.unique(allv, return_counts=True)
        return pa.table({
            node_col: pa.array(nodes.astype(np.int64), pa.int64()),
            out_col: pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def corner_finish(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.groupby(node_col, sort=False)[out_col].sum().reset_index()
        out[out_col] = out[out_col].astype(np.int64)
        return out

    parts = closed.map_batches(corner_partial, batch_format="pyarrow")
    return partitioned_groupby_map(
        parts, [node_col], corner_finish, num_partitions=num_partitions
    )
