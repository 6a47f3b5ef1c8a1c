"""Data-quality assertions — the dbt-tests-style audit that gates a
training-data ingest before any expensive downstream pass.

``quality_checks`` evaluates a list of declarative rules over one
streaming pass (plus one combiner pass per ``unique`` rule) and returns a
tiny driver report: one row per rule with the checked and violating row
counts. All rules are exact integer counts, so the report is bit-equal to
the equivalent SQL ``sum(CASE WHEN ...)`` scalars in any engine.

Rule kinds (``{"name": ..., "kind": ..., "col": ..., ...}``):

- ``not_null``:        violation when the column is NULL.
- ``range``:           ``lo``/``hi`` (inclusive); violation when outside
                       or NULL-safe (NULL never violates — pair with
                       not_null to require presence).
- ``regex``:           ``pattern`` (RE2 full-match); violation when a
                       non-null value does NOT match.
- ``accepted_values``: ``values`` list; violation when a non-null value
                       is outside the set.
- ``unique``:          violations = n_rows − n_distinct (NULLs count as
                       a value, like SQL ``count(DISTINCT col)`` + null
                       adjustment is NOT applied — pair with not_null).

Motion: the stateless rules fold per-block ``(rule, checked, violations)``
partial rows on the driver (≤ blocks · rules tiny rows). Each ``unique``
rule reuses the distinct-combiner shape: blocks shrink to their distinct
values, a hash exchange on the value counts each partition's distincts
completely (every value lives in exactly one partition), and the driver
sums — the column never shuffles raw.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_KINDS = ("not_null", "range", "regex", "accepted_values", "unique")


def quality_checks(ds, checks: list[dict]) -> pd.DataFrame:
    """Evaluate declarative data-quality rules (module docstring).

    Returns a driver DataFrame with one row per rule, in rule order:
    ``check`` (name), ``n_checked`` (int64), ``n_violations`` (int64).
    """
    import pyarrow.compute as pc

    if not checks:
        raise ValueError("checks must be a non-empty list of rule dicts")
    for c in checks:
        kind = c.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown check kind {kind!r} in {c}")
        if "name" not in c or "col" not in c:
            raise ValueError(f"check needs 'name' and 'col': {c}")

    stateless = [c for c in checks if c["kind"] != "unique"]
    uniques = [c for c in checks if c["kind"] == "unique"]
    cols = sorted({c["col"] for c in checks})

    def partial(tbl: pa.Table) -> pa.Table:
        names, checked, viol = [], [], []
        n = len(tbl)
        for c in stateless:
            arr = tbl.column(c["col"])
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            isnull = pc.is_null(arr).to_numpy(zero_copy_only=False)
            kind = c["kind"]
            if kind == "not_null":
                v = int(isnull.sum())
            elif kind == "range":
                x = arr.to_numpy(zero_copy_only=False).astype(np.float64)
                bad = np.zeros(n, dtype=bool)
                if "lo" in c:
                    bad |= x < float(c["lo"])
                if "hi" in c:
                    bad |= x > float(c["hi"])
                bad &= ~isnull  # NULL never violates range
                v = int(bad.sum())
            elif kind == "regex":
                ok = pc.match_substring_regex(
                    pc.fill_null(arr, ""), "^(?:" + c["pattern"] + ")$"
                ).to_numpy(zero_copy_only=False)
                v = int((~ok & ~isnull).sum())
            else:  # accepted_values
                inset = pc.is_in(
                    arr, value_set=pa.array(list(c["values"]))
                ).to_numpy(zero_copy_only=False)
                v = int((~inset & ~isnull).sum())
            names.append(c["name"])
            checked.append(n)
            viol.append(v)
        return pa.table({
            "check": pa.array(names, pa.string()),
            "n_checked": pa.array(checked, pa.int64()),
            "n_violations": pa.array(viol, pa.int64()),
        })

    rows = []
    if stateless:
        folded = (
            ds.select_columns(cols)
            .map_batches(partial, batch_format="pyarrow")
            .to_pandas()
            .groupby("check", sort=False)[["n_checked", "n_violations"]]
            .sum()
        )
        for c in stateless:
            r = folded.loc[c["name"]]
            rows.append((c["name"], int(r["n_checked"]),
                         int(r["n_violations"])))

    for c in uniques:
        col = c["col"]

        def shrink(tbl: pa.Table, _col=col) -> pa.Table:
            arr = tbl.column(_col)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            u = arr.unique()
            return pa.table({
                _col: u,
                "__n__": pa.array(
                    np.r_[np.zeros(len(u) - 1, np.int64), len(tbl)]
                    if len(u) else np.array([], np.int64),
                    pa.int64(),
                ),
            })

        from recipys_ray.kernels.grouped import partitioned_groupby_map

        parts = ds.select_columns([col]).map_batches(
            shrink, batch_format="pyarrow"
        )

        def count_distinct(pdf: pd.DataFrame, _col=col) -> pd.DataFrame:
            return pd.DataFrame({
                "nd": [np.int64(pdf[_col].nunique(dropna=False))],
                "n": [np.int64(pdf["__n__"].sum())],
            })

        agg = partitioned_groupby_map(
            parts, [col], count_distinct
        ).to_pandas()
        n_rows = int(agg["n"].sum())
        n_distinct = int(agg["nd"].sum())
        rows.append((c["name"], n_rows, n_rows - n_distinct))

    order = {c["name"]: i for i, c in enumerate(checks)}
    out = pd.DataFrame(rows, columns=["check", "n_checked",
                                      "n_violations"])
    out = out.sort_values("check", key=lambda s: s.map(order),
                          kind="stable")
    out["n_checked"] = out["n_checked"].astype(np.int64)
    out["n_violations"] = out["n_violations"].astype(np.int64)
    return out.reset_index(drop=True)
