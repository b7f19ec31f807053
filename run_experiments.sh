#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/*.csv.
cd "$(dirname "$0")" && exec cargo run --quiet --release -p monkey-bench --bin figures -- "$@"
