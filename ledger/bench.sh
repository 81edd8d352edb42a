#!/usr/bin/env bash
# The command BENCHMARK.json names: build the ledger (a package of its own
# in this directory) and the daemon it drives (from the root workspace)
# from source, then run one workload. Arguments are passed through
# (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`). Run from
# the root of a checkout; everything it writes stays inside it, and the
# root `Cargo.lock` is left as committed (`--locked`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet -p toreador-cli 1>&2
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/ledger" run "$@"
