#!/bin/bash
# One-shot verification: the four runtime surfaces from .claude/skills/verify.
# Usage: bash scripts/verify_all.sh [sf_dir]
set -e
cd "$(dirname "$0")/.."
SF=${1:-/root/testdata/sf0.01}
echo "== pytest =="
python -m pytest tests/ -x -q
echo "== driver contract (strict: emulates the driver's value hash) =="
python scripts/check_contract.py --strict "$SF"
echo "== benchmark self-tests =="
python3 -m pytest perfbench -q
echo "ALL GREEN"
