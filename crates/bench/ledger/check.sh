#!/usr/bin/env bash
# The ledger's own gate: its self-tests, then two --smoke result sets of the
# same code and a compare of the two. At smoke scale only the count metrics
# (ios_per_op, space_amp) carry meaning; timings are milliseconds long and
# mostly come out "unresolved". A CI job is this one line:
#   crates/bench/ledger/check.sh
set -euo pipefail
cd "$(dirname "$0")/../../.."
manifest=crates/bench/ledger/Cargo.toml
cargo test --release --offline --quiet --manifest-path "$manifest"
ledger() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }
ledger run --smoke --runs 5 --out target/ledger/check-a.json
ledger run --smoke --runs 5 --out target/ledger/check-b.json
ledger compare target/ledger/check-a.json target/ledger/check-b.json
