#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md) plus the bench-harness smoke run.
#
#   ./verify.sh
#
# Everything here must pass before a change lands: formatting and clippy
# lints, the tier-1 build/test pair, the full workspace test suite
# (heavier oracle cross-checks), and a
# short Table 2 regeneration proving the tables harness still runs
# end-to-end. The smoke limit is small on purpose — it exercises the
# pipeline, not the paper's full budgets. The bench binaries gate through
# their exit status, and no step rewrites a committed BENCH_*.json file.
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy =="
cargo clippy --workspace -- -D warnings

echo "== lint: rustdoc links (tempart-lp, private items included) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p tempart-lp --document-private-items

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace: build (bins, examples, tests) =="
cargo build --workspace --release --all-targets

echo "== workspace: tests =="
cargo test --workspace -q

echo "== benchmark: package tests (separate workspace) =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== resilience: golden fault-injection outcomes =="
cargo test -q -p tempart-lp faults

echo "== smoke: tables harness (Table 2, 60 s rows) =="
cargo run --release -p tempart-bench --bin tables -- table2 --limit 60

echo "== smoke: kernel study (basis engines; budgeted tiers) =="
cargo run --release -q -p tempart-bench --bin tables -- kernel-smoke --limit 300

echo "== smoke: solve service (client sweep, shed probe, acceptance bars) =="
cargo run --release -q -p tempart-server --bin service-bench -- --out target/BENCH_service.json

echo "== race: model checker smoke (bounded tier; planted bugs + core models) =="
cargo test -q -p tempart-race --features race
cargo test -q -p tempart-lp --features race-model --test race_models
cargo test -q -p tempart-server --features race-model --test race_queue

echo "== audit: workspace lints (deny unsuppressed) =="
cargo run --release -p tempart-audit -- lint --deny

echo "== audit: exact certificates for the golden rows (g1, above-threshold g3) =="
cargo run --release -p tempart-audit -- certify

echo "verify.sh: all green"
