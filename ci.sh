#!/usr/bin/env bash
# CI gate for the ITDOS workspace. Everything runs offline — the
# workspace is hermetic (path dependencies only), and itdos-lint
# rejects any manifest entry that would change that.
set -euo pipefail
cd "$(dirname "$0")"

echo '== cargo fmt --check'
cargo fmt --check

echo '== cargo build --release --offline'
cargo build --release --offline

echo '== cargo build --release --offline (perfbench)'
# the benchmark is its own workspace; building it here means a crate API
# change that breaks it fails CI, not the next benchmark run
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo '== retransmit growth gate (perfbench rpc_small, traced)'
# a back-to-back client must keep its traffic per call flat: messages
# per call in the last tenth of the run over the first tenth. The count
# is deterministic for a seed; one timer per channel keeps it near 1.0
growth="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload rpc_small --seed 7 --seconds 2 --trace 1 2> /dev/null | tail -n 1 \
  | sed -n 's/.*"simnet\.msgs_per_inv_growth": {"value": \([0-9.eE+-]*\).*/\1/p')"
test -n "$growth" || { echo 'perfbench printed no simnet.msgs_per_inv_growth'; exit 1; }
awk -v g="$growth" 'BEGIN { exit !(g <= 1.1) }' \
  || { echo "simnet.msgs_per_inv_growth $growth exceeds 1.1 (retransmit storm)"; exit 1; }

echo '== cargo test -q --offline'
cargo test -q --offline

echo '== cargo run -p itdos-lint (waiver ledger + budget gate)'
# fails on any active finding, and also if the waiver count grows past
# the checked-in budget — new waivers must be paid for in the same PR
cargo run -q --release --offline -p itdos-lint -- --waivers --budget lint-waivers.budget

echo '== exp_report --metrics (observability smoke)'
# runs a faulty deployment with the recorder on; the binary validates that
# every line of the dump parses as a JSON object and exits nonzero if not
cargo run -q --release --offline -p itdos-bench --bin exp_report -- --metrics > /dev/null

echo '== forensic audit smoke (drill dump -> audit CLI)'
# the drill writes its corrupt-replica dump; the audit CLI must parse it,
# produce a byte-identical report twice, and blame at least one element
drill_dump="$(mktemp)"
rep_a="$(mktemp)"
rep_b="$(mktemp)"
trap 'rm -f "$drill_dump" "$rep_a" "$rep_b"' EXIT
cargo run -q --release --offline -p itdos --example intrusion_drill -- "$drill_dump" "$rep_a" > /dev/null
cargo run -q --release --offline -p itdos-bench --bin audit -- --expect-blame "$drill_dump" > /dev/null

echo '== streaming/batch audit equivalence (incremental replay of the drill dump)'
# the same dump replayed one event at a time through the incremental
# pipeline must render byte-identically to the batch report
cargo run -q --release --offline -p itdos-bench --bin audit -- --stream --assert-equivalence "$drill_dump" > /dev/null

echo '== replacement drill determinism (run twice, byte-identical dumps)'
# the expel->replace->re-intrude drill must replay exactly: same seed,
# same admission, same second expulsion, byte-identical forensic dump —
# and that dump must itself audit to a blame set (both intruders)
cargo run -q --release --offline -p itdos --example intrusion_drill -- "$drill_dump" "$rep_b" > /dev/null
cmp "$rep_a" "$rep_b" || { echo 'replacement drill dump diverged between runs'; exit 1; }
cargo run -q --release --offline -p itdos-bench --bin audit -- --expect-blame "$rep_a" > /dev/null

echo '== bft throughput smoke (BENCH_bft smoke run)'
# runs the batched configuration twice (byte-identical obs dumps) and
# asserts batched throughput is no worse than the unbatched baseline;
# the binary exits nonzero on either failure and must write its JSON
bft_smoke="$(mktemp)"
cargo run -q --release --offline -p itdos-bench --bin bft_throughput -- --smoke "$bft_smoke" > /dev/null
test -s "$bft_smoke" || { echo 'BENCH_bft smoke output missing'; exit 1; }
rm -f "$bft_smoke"

echo '== streaming-audit overhead ablation (BENCH_obs smoke)'
# audit off / batch / streaming over the same seeded faulty workload;
# the binary exits nonzero unless streaming stays within 2x of audit-off
obs_smoke="$(mktemp)"
cargo run -q --release --offline -p itdos-bench --bin obs_ablation -- --smoke "$obs_smoke" > /dev/null
test -s "$obs_smoke" || { echo 'BENCH_obs smoke output missing'; exit 1; }
rm -f "$obs_smoke"

echo '== audit bench (BENCH_audit.json)'
# regenerates the committed snapshot in place (host-timing numbers move
# run to run; the snapshot is a trajectory marker, not a gate)
cargo run -q --release --offline -p itdos-bench --bin audit -- --bench BENCH_audit.json

echo '== whole-stack profiler smoke (run-twice determinism + 90% attribution)'
# the profile binary runs the seeded workload twice and exits nonzero
# unless json+folded outputs are byte-identical and >=90% of end-to-end
# latency is attributed to named hops (DESIGN.md §16)
prof_json="$(mktemp)"
prof_folded="$(mktemp)"
cargo run -q --release --offline -p itdos-bench --bin profile -- --smoke \
  --json "$prof_json" --folded "$prof_folded" > /dev/null
test -s "$prof_json" || { echo 'profile json output missing'; exit 1; }
test -s "$prof_folded" || { echo 'profile folded output missing'; exit 1; }
rm -f "$prof_json" "$prof_folded"

echo '== self-healing campaign smoke (continuous_intrusion --smoke, run-twice byte-identical)'
# the healed run must survive every wave while the baseline exhausts f,
# and every controller decision (expulsion, replacement, rejuvenation)
# must replay deterministically: two runs, byte-identical forensic dumps
heal_a="$(mktemp)"
heal_b="$(mktemp)"
cargo run -q --release --offline -p itdos --example continuous_intrusion -- --smoke "$heal_a" > /dev/null
cargo run -q --release --offline -p itdos --example continuous_intrusion -- --smoke "$heal_b" > /dev/null
cmp "$heal_a" "$heal_b" || { echo 'continuous intrusion dump diverged between runs'; exit 1; }
rm -f "$heal_a" "$heal_b"

echo '== self-healing bench smoke (BENCH_heal smoke run)'
# survival ratio >= 3x and replay determinism are asserted by the binary
heal_smoke="$(mktemp)"
cargo run -q --release --offline -p itdos-bench --bin heal -- --smoke "$heal_smoke" > /dev/null
test -s "$heal_smoke" || { echo 'BENCH_heal smoke output missing'; exit 1; }
rm -f "$heal_smoke"

echo '== bench regression gate (exp_report --bench-compare)'
# every committed BENCH_*.json must self-compare clean (the comparator
# understands its schema and finds zero regressions against itself) ...
cmp_out="$(mktemp)"
for bench in BENCH_*.json; do
  cargo run -q --release --offline -p itdos-bench --bin exp_report -- \
    --bench-compare "$bench" "$bench" --out "$cmp_out" > /dev/null \
    || { echo "bench-compare self-check failed for $bench"; exit 1; }
done
# ... and the gate must FAIL on the checked-in synthetic 20% regression,
# proving the comparator actually has teeth
if cargo run -q --release --offline -p itdos-bench --bin exp_report -- \
  --bench-compare crates/bench/fixtures/bench_compare_base.json \
  crates/bench/fixtures/bench_compare_regressed.json > /dev/null 2>&1; then
  echo 'bench-compare gate failed to fail on a 20% regression fixture'
  exit 1
fi
rm -f "$cmp_out"

echo 'CI green'
