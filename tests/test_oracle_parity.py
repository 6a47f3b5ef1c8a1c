"""The reference-parity query families checked against their DuckDB oracles.

tests/test_golden.py compares the engine with the original ReciPys code and
skips where that code is not importable; the same step semantics stay
covered here through the driver-contract queries (``QUERIES``) and their
SQL oracles (``ORACLES``), compared with scripts/check_contract.py's strict
mode (dtype families and 6..9-decimal rounding crossings).
"""

import importlib.util
import os

import duckdb
import pytest

from recipys_ray.pipelines.driver_queries import ORACLES, QUERIES

from .conftest import SF0001 as SF

TABLES = ["events"]

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SF), reason=f"driver-contract testdata {SF} missing"
)


@pytest.fixture(scope="module")
def contract():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts", "check_contract.py",
    )
    spec = importlib.util.spec_from_file_location("check_contract", path)
    cc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cc)
    cc.STRICT = True
    return cc


@pytest.fixture(scope="module")
def con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


@pytest.mark.parametrize("name", [
    "impute_ffill", "historical", "resample_grid_1h", "scale_standard",
    "feature_bake",
])
def test_query_matches_oracle(name, contract, con):
    ours = contract.to_pandas(QUERIES[name](SF))
    ref = con.execute(ORACLES[name]).df()
    assert len(ref) > 0
    assert contract.compare(name, ours, ref) == []
