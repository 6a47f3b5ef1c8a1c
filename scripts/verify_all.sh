#!/bin/bash
# One-shot verification: the four runtime surfaces from .claude/skills/verify.
# Usage: bash scripts/verify_all.sh [sf_dir]
set -e
cd "$(dirname "$0")/.."
SF=${1:-/root/testdata/sf0.01}
echo "== pytest =="
# the Tier-1 command of ROADMAP.md: no stale Ray session, and a hang ends
# in a timeout instead of wedging the check
ray stop --force >/dev/null 2>&1 || true
timeout -k 10 2670 python -m pytest tests/ -q --continue-on-collection-errors \
    -p no:cacheprovider
echo "== driver contract (strict: emulates the driver's value hash) =="
python scripts/check_contract.py --strict "$SF"
echo "== benchmark self-tests =="
python3 -m pytest perfbench -q
echo "ALL GREEN"
