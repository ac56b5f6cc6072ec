# Offline mirror of .github/workflows/ci.yml — `make ci` runs the same gate.

RUSTDOCFLAGS_STRICT := -D missing_docs -D warnings

.PHONY: ci fmt-check clippy lint build test golden differential sim-differential sizing-oracle mc optimize network-smoke network-differential serve-smoke cache-determinism cli-smoke doc quickstart perfbench-build bench-floors bench-snapshot results

ci: fmt-check clippy lint build test golden differential sim-differential sizing-oracle mc optimize network-smoke network-differential serve-smoke cache-determinism cli-smoke doc quickstart perfbench-build bench-floors

fmt-check:
	cargo fmt --all --check

# Workspace-invariant static analysis (determinism, NaN-safety,
# no-panic); see docs/lints.md. Writes the machine-readable report that
# CI uploads as a build artifact.
lint:
	cargo run -q --release -p corridor_lint --bin lint -- --json target/lint-report.json

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

build:
	cargo build --release --workspace

test:
	cargo test -q --workspace

# Byte-exact regression against the committed reproduction outputs.
golden:
	cargo test -q --test golden_outputs

# Analytic ↔ event-driven differential harness (< 0.1 % on paper scenarios).
differential:
	cargo test -q --test differential

# Per-node event loop vs the global heap-queue loop it replaced (proptest
# oracle, heap-era digests, node independence, non-finite passes), in
# release so arithmetic runs as it does in the served binaries.
sim-differential:
	cargo test --release -p corridor_events --test sim_differential

# Early-exit Table IV search vs a copy of the full search it replaced
# (proptest oracle over random loads, sites, ladders and seeds: same
# candidate, bit-identical winner stats), and the sky-table weather
# years vs a copy of the per-seed computation (any latitude, mounting,
# albedo, weather and seed: bit-identical years), both in release like
# the served binaries.
sizing-oracle:
	cargo test --release -p corridor_solar --test sizing_oracle
	cargo test --release -p corridor_solar --lib environment

# Monte-Carlo smoke: 3-cell grid x 10 replications, byte-diffed against
# the committed golden (plus the engine's own determinism/convergence suite).
mc:
	cargo run -q --release -p corridor_bench --bin mc -- --smoke | diff - docs/results/mc_smoke.txt
	cargo test -q -p corridor_sim --test mc

# Deployment-optimizer smoke: 3-cell grid through the cached model-grid
# search, byte-diffed against the committed golden (plus the optimizer's
# own edge-case/determinism/sha256 suite).
optimize:
	cargo run -q --release -p corridor_bench --bin optimize -- --smoke | diff - docs/results/optimize_smoke.txt
	cargo test -q -p corridor_sim --test optimize

# Rail-network smoke: the wye3 junction through the per-edge frontier
# search and the demand-aware sleep scheduler, byte-diffed against the
# committed golden (plus the network graph/scheduler/differential suite).
network-smoke:
	cargo run -q --release -p corridor_bench --bin network -- --smoke | diff - docs/results/network_smoke.txt
	cargo test -q -p corridor_sim --test network

# Network-day differential: the time-domain backend over the topology
# (routed itineraries, junction-consistent days) and the Pollakis
# margin-trading scheduler — SHA-pinned reproduction of the boundary-only
# schedule at `margin_floor = current margin`, interior-sleep wins under
# a relaxed floor, and floor properties over random topologies.
network-differential:
	cargo test -q -p corridor_sim --test network_day

# Streaming serve smoke: the sharded worker-process service answers the
# committed session with the committed byte stream (a mixed-8 sweep in
# both formats around an mc and an optimize request on smoke-3, across
# 2 shards, all served by the same session's workers), plus the serve
# fault-injection and session suite. The session runs three times: clean,
# with a worker crash at cell 5 and with a flipped frame byte at cell 3.
# Both faults fail their chunk's first attempt, and the retries must not
# change a byte. A fourth run sends one 100 KiB line (longer than the
# 64 KiB request-line cap) before the session: it must be answered with
# one ERROR line, and the session after it with the golden bytes.
SERVE_SESSION = sweep grid=mixed-8 format=csv shards=2\nmc grid=smoke-3 format=csv shards=2 reps=3 seed=9\noptimize grid=smoke-3 format=json shards=2\nsweep grid=mixed-8 format=json shards=2\n

serve-smoke:
	for fault in "" CORRIDOR_SERVE_CRASH_CELL=5 CORRIDOR_SERVE_FLIP_CELL=3; do \
		printf '$(SERVE_SESSION)' \
			| env $$fault cargo run -q --release -p corridor_bench --bin serve \
			| diff - docs/results/serve_smoke.txt || exit 1; \
	done
	mkdir -p target
	{ echo 'ERROR bad request: line too long'; cat docs/results/serve_smoke.txt; } > target/serve_smoke_long_line.txt
	{ head -c 102400 /dev/zero | tr '\0' x; echo; printf '$(SERVE_SESSION)'; } \
		| cargo run -q --release -p corridor_bench --bin serve \
		| diff - target/serve_smoke_long_line.txt
	cargo test -q --release -p corridor_bench --test serve

# Cache determinism: the streamed bytes equal the in-memory writers'
# (sha256-pinned) and a warm re-run is byte-identical at a 100 % hit
# rate — engine suites plus an end-to-end cold/warm diff of the sweep
# binary's --csv --cache rows on stdout, then a --json run on the same
# cache (every cell a hit: the CSV run stored both renderings) diffed
# against an uncached --json run.
cache-determinism:
	cargo test -q -p corridor_sim --test streaming_equivalence
	cargo test -q -p corridor_sim --test result_cache
	rm -rf target/tmp-cache-determinism
	mkdir -p target/tmp-cache-determinism
	cargo run -q --release -p corridor_bench --bin sweep -- --demo \
		--csv --cache target/tmp-cache-determinism/cache > target/tmp-cache-determinism/cold.csv
	cargo run -q --release -p corridor_bench --bin sweep -- --demo \
		--csv --cache target/tmp-cache-determinism/cache > target/tmp-cache-determinism/warm.csv
	cmp target/tmp-cache-determinism/cold.csv target/tmp-cache-determinism/warm.csv
	cargo run -q --release -p corridor_bench --bin sweep -- --demo \
		--json --cache target/tmp-cache-determinism/cache > target/tmp-cache-determinism/warm.json \
		2> target/tmp-cache-determinism/warm.json.err
	grep -q '^cache: 8 hits, 0 misses' target/tmp-cache-determinism/warm.json.err
	cargo run -q --release -p corridor_bench --bin sweep -- --demo \
		--json > target/tmp-cache-determinism/uncached.json
	cmp target/tmp-cache-determinism/warm.json target/tmp-cache-determinism/uncached.json
	rm -rf target/tmp-cache-determinism

# CLI smoke: the simulate binary's --stats rendering byte-diffed against
# the committed golden (the golden test only checks it in-process), and
# --help exits 0 for the five engine CLIs on the shared argument grammar.
cli-smoke:
	cargo run -q --release -p corridor_bench --bin simulate -- --stats | diff - docs/results/poisson_stats.txt
	for b in sweep mc optimize network simulate; do \
		cargo run -q --release -p corridor_bench --bin $$b -- --help > /dev/null || exit 1; \
	done

doc:
	RUSTDOCFLAGS="$(RUSTDOCFLAGS_STRICT)" cargo doc --no-deps --workspace

quickstart:
	cargo run --release --example quickstart

# The benchmark helper (perfbench/) links the library crates from its own
# locked manifest: building it guards the public API it calls and its
# committed lockfile.
perfbench-build:
	CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

# The committed BENCH_*.json snapshots stay above their floors (no
# measuring; CI's "Bench snapshots" step).
bench-floors:
	cargo test -q --release -p corridor_bench --test bench_snapshots

# Regenerate the committed BENCH_*.json throughput snapshots at the repo
# root, then re-verify this machine against them (>20 % drop fails).
# Run on a quiet machine; the snapshots are committed like goldens.
bench-snapshot:
	cargo run -q --release -p corridor_bench --bin bench_snapshot
	BENCH_SNAPSHOT_VERIFY=1 cargo test -q --release -p corridor_bench --test bench_snapshots

# Regenerate the committed reference outputs under docs/results/.
results:
	for b in headline table1 table2 table3 table4 fig3 fig4 isd_sweep fronthaul; do \
		cargo run -q --release -p corridor_bench --bin $$b > docs/results/$$b.txt || exit 1; \
	done
	cargo run -q --release -p corridor_bench --bin simulate -- --stats > docs/results/poisson_stats.txt
	cargo run -q --release -p corridor_bench --bin mc -- --smoke > docs/results/mc_smoke.txt
	cargo run -q --release -p corridor_bench --bin optimize -- --smoke > docs/results/optimize_smoke.txt
	cargo run -q --release -p corridor_bench --bin network -- --smoke > docs/results/network_smoke.txt
