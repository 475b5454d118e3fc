#!/usr/bin/env bash
# Lint, self-tests and one smoke run of the end-to-end benchmark.
# Meant to be called from .github/workflows/ci.yml by a later change.
set -euo pipefail
cd "$(dirname "$0")/../.."

if command -v ruff >/dev/null 2>&1; then
    ruff check benchmarks/e2e
else
    echo "ruff not installed; lint skipped"
fi
PYTHONPATH=src python3 -m pytest benchmarks/e2e -q
python3 benchmarks/e2e/run.py --smoke
