#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full test suite (plain and
# ASan+UBSan), then exercise the campaign runner (smoke + perf campaigns) and
# check the docs cover every campaign.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# --- sanitizer pass ----------------------------------------------------------
# The slab event kernel, inline-callback storage, and free-listed LRU are
# exactly the code where lifetime bugs hide (use-after-free of a recycled
# slot, double-destroy of a capture, off-by-one in page-block recycling);
# Address+UB sanitizers run the whole test suite over them on every CI pass.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build build-asan -j"$(nproc)"
(cd build-asan && ctest --output-on-failure -j"$(nproc)")

# --- determinism lint --------------------------------------------------------
# Static gate for the `--jobs N` == `--jobs 1` bit-identity contract: no
# unordered-container iteration feeding reported state, no wall-clock or
# unseeded randomness in src/ or the campaign definitions.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/lint_determinism.py src/ bench/ \
    || { echo "ci: determinism lint failed" >&2; exit 1; }
fi

# --- python tool tests -------------------------------------------------------
# The python tools are themselves gates; their behavior is pinned by tests:
# perf_diff.py's ratio math and --fail-cell-below normalization, and the
# determinism lint's rule set.
if command -v python3 > /dev/null 2>&1; then
  python3 tests/perf_diff_test.py \
    || { echo "ci: perf_diff tool tests failed" >&2; exit 1; }
  python3 tests/lint_test.py \
    || { echo "ci: determinism-lint tests failed" >&2; exit 1; }
  python3 tests/perf_trajectory_test.py \
    || { echo "ci: perf_trajectory tool tests failed" >&2; exit 1; }
fi

# --- smoke + perf + marathon + skew + faults campaigns -----------------------
# A short parallel run through the real binary: grid expansion, worker pool,
# JSON documents, and the merged manifest all have to work; the perf campaign's
# old-vs-new hot-path comparison (legacy baselines, checksum cross-checks,
# representative cells) must run end to end; the marathon campaign's bounded
# certifier log must actually be bounded; the skew campaign's fluid-client
# inert pair must stay byte-identical; the faults campaign's zero-loss
# ledger must hold on every cell. ONE invocation, so the manifest covers all
# five campaigns and the perf_diff step below can compare them against the
# baseline (each invocation rewrites BENCH_campaign.json from scratch).
rm -rf build/bench-out
mkdir -p build/bench-out
./build/tashkent_bench run smoke perf marathon skew faults --jobs 2 --json build/bench-out
test -s build/bench-out/BENCH_smoke.json
test -s build/bench-out/BENCH_perf.json
test -s build/bench-out/BENCH_marathon.json
test -s build/bench-out/BENCH_skew.json
test -s build/bench-out/BENCH_faults.json
test -s build/bench-out/BENCH_campaign.json
if grep -q "checksums diverge" build/bench-out/BENCH_perf.json; then
  echo "ci: perf campaign checksum mismatch — old/new hot paths diverged" >&2
  exit 1
fi

# The bounded-log gate: with auto-pruning on, the certifier log's chunk
# high-water mark must PLATEAU across the marathon's churn epochs (last epoch
# within 3x of the first — generous; measured ~1.2x), while the legacy
# control (pruning off) must keep growing. Deterministic simulated values,
# so this gates hard.
grep -q '"bounded log chunks hwm epoch5"' build/bench-out/BENCH_marathon.json || {
  echo "ci: marathon report is missing the bounded log HWM scalar" >&2; exit 1; }
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF' || { echo "ci: marathon bounded-log gate failed" >&2; exit 1; }
import json, sys
s = json.load(open('build/bench-out/BENCH_marathon.json'))['scalars']
b1, b5 = s['bounded log chunks hwm epoch1'], s['bounded log chunks hwm epoch5']
l1, l5 = s['legacy log chunks hwm epoch1'], s['legacy log chunks hwm epoch5']
print(f"marathon gate: bounded epoch1={b1:.0f} epoch5={b5:.0f}, legacy epoch1={l1:.0f} epoch5={l5:.0f}")
ok = b5 <= 3 * b1 and l5 > 1.5 * l1 and b5 < l5
sys.exit(0 if ok else 1)
EOF
fi

# --- inert-pair byte gates ---------------------------------------------------
# The skew and faults campaigns each run one inert cell on the same seed
# twice: once plain, once with new machinery armed at its degenerate value
# (skew: workload skew at the replica default, SetPopulation restating the
# population, SwitchMix to the already-active mix; faults: the retry
# protocol under an empty fault plan). The two measured run records must be
# IDENTICAL on every reported field — the benches already throw if not, but
# this re-checks the emitted JSON byte-for-byte (modulo the label) so a
# silently-softened in-bench comparison can't pass CI.
if command -v python3 > /dev/null 2>&1; then
  for campaign in skew faults; do
    python3 - "${campaign}" <<'EOF' || { echo "ci: ${campaign} inert-pair byte gate failed" >&2; exit 1; }
import json, sys
name = sys.argv[1]
doc = json.load(open(f'build/bench-out/BENCH_{name}.json'))
runs = {}
for r in doc['runs']:
    if r['label'].startswith('inert armed'):
        runs['armed'] = dict(r)
    elif r['label'].startswith('inert plain'):
        runs['plain'] = dict(r)
if set(runs) != {'armed', 'plain'}:
    sys.exit(f"inert pair runs not found in BENCH_{name}.json")
runs['armed'].pop('label'); runs['plain'].pop('label')
a = json.dumps(runs['armed'], sort_keys=True)
p = json.dumps(runs['plain'], sort_keys=True)
print(f"{name} inert gate: armed == plain ({len(a)} bytes compared)")
sys.exit(0 if a == p else 1)
EOF
  done
fi

# --- faults zero-loss gate ---------------------------------------------------
# The faults campaign's cells already throw in-bench if the zero-loss ledger
# is violated; this re-derives both bounds from the emitted scalars so a
# silently-softened in-bench check can't pass CI: for every fault cell,
# acknowledged commits <= certified commits <= commits + summed in-flight
# bound, every per-cell "invariant ok" scalar is 1, and the inert pair (whose
# run records the byte gate above compares) executed equal event counts.
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF' || { echo "ci: faults zero-loss gate failed" >&2; exit 1; }
import json, sys
doc = json.load(open('build/bench-out/BENCH_faults.json'))
s = doc['scalars']
cells = sorted(k[:-len(' invariant ok')] for k in s if k.endswith(' invariant ok'))
if not cells:
    sys.exit("no '<cell> invariant ok' scalars in BENCH_faults.json")
bad = []
for c in cells:
    if s[c + ' invariant ok'] != 1:
        bad.append(f"{c}: invariant scalar != 1")
        continue
    committed = s[c + ' lifetime committed']
    certified = s[c + ' lifetime certified']
    bound = s[c + ' inflight bound']
    if not (committed <= certified <= committed + bound):
        bad.append(f"{c}: ledger violated ({committed} / {certified} / bound {bound})")
if s.get('inert pair identical') != 1:
    bad.append("inert pair identical scalar != 1")
if s.get('armed executed events') != s.get('plain executed events'):
    bad.append("inert pair executed-event counts differ")
for b in bad:
    print(f"faults gate: {b}", file=sys.stderr)
print(f"faults gate: zero-loss ledger holds on {len(cells)} cells")
sys.exit(1 if bad else 0)
EOF
fi

# --- perf trajectory report + storm-cell gate --------------------------------
# Diff this run's manifest against the committed baseline (the full-grid
# manifest checked in with the PR that captured it). Wall numbers are
# host-dependent, so the run-wide table REPORTS rather than gates — but the
# executed-event counts it prints are deterministic, and a change there means
# the simulation itself changed. Campaigns not in both manifests are listed,
# not compared.
#
# The slab event-kernel storm cell DOES gate: its events/sec ratio is
# normalized by the run-wide ratio, so a uniformly slower CI host cancels out
# and only kernel/slab regressing relative to the rest of the run trips it.
# Same deal for the filter-storm cell — the mask fast path's chunk skip-scan
# must keep its measured edge over the frozen TouchesAny baseline cell.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/perf_diff.py bench/baselines/BENCH_campaign.json \
    build/bench-out/BENCH_campaign.json --threshold 0.25 \
    --fail-cell-below "perf:kernel/slab=0.6" \
    --fail-cell-below "perf:cell/filter-storm=0.5" \
    || { echo "ci: perf_diff failed" >&2; exit 1; }
else
  echo "ci: python3 unavailable; skipping perf_diff report" >&2
fi

# The buffer-pool gate: the slab pool must stay at least 1.5x the frozen
# legacy pool's touches/sec (measured 2.6-2.8x; this storm's single 256 MB pool
# stays cache-resident, so LRU node size and page-block memory barely show in
# it). Both pool cells run in this same invocation on the same host, so the
# ratio needs no normalization.
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF' || { echo "ci: buffer-pool speedup gate failed" >&2; exit 1; }
import json, sys
s = json.load(open('build/bench-out/BENCH_perf.json'))['scalars']
ratio = s['pool speedup (slab / legacy)']
print(f"pool gate: slab / legacy touches_per_s = {ratio:.2f} (floor 1.5)")
sys.exit(0 if ratio >= 1.5 else 1)
EOF
fi

# The committed perf-trajectory report (docs/PERF_TRAJECTORY.md) renders the
# baselines under bench/baselines/; a PR that refreshes a baseline without
# regenerating the report fails here.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/perf_trajectory.py --check docs/PERF_TRAJECTORY.md \
    || { echo "ci: perf trajectory report is stale" >&2; exit 1; }
fi

# --- docs check --------------------------------------------------------------
# Every campaign the binary registers must appear in docs/REPRODUCING.md, so
# the reproduction guide can never silently fall behind the binary.
missing=0
while IFS= read -r name; do
  if ! grep -q "\b${name}\b" docs/REPRODUCING.md; then
    echo "ci: campaign '${name}' is not documented in docs/REPRODUCING.md" >&2
    missing=1
  fi
done < <(./build/tashkent_bench list --names)
if [ "${missing}" -ne 0 ]; then
  exit 1
fi

# Every Verb alternative must appear in the operator's handbook. The verb
# list is extracted from the `// verb: <Name>` tags on the aggregates in
# verb.h, so adding a verb without documenting it fails here.
# `|| true` keeps set -e from killing the script before the empty-list
# diagnostic below can fire.
verbs=$(grep -oE 'verb: [A-Za-z]+' src/cluster/verb.h | awk '{print $2}' | sort -u || true)
if [ -z "${verbs}" ]; then
  echo "ci: no 'verb:' tags found in src/cluster/verb.h" >&2
  exit 1
fi
while IFS= read -r verb; do
  if ! grep -q "\b${verb}\b" docs/OPERATIONS.md; then
    echo "ci: verb '${verb}' is not documented in docs/OPERATIONS.md" >&2
    missing=1
  fi
done <<< "${verbs}"
if [ "${missing}" -ne 0 ]; then
  exit 1
fi

# Every window metric must have a glossary entry. The names are extracted
# from the X(type, name, init) lines of the TASHKENT_RUN_METRICS and
# TASHKENT_FAULT_METRICS lists in cluster.h, and each must appear in
# backticks between "## Metrics glossary" and the next "##" heading of the
# handbook, so adding a metric without documenting it fails here.
metrics=$(grep -oE '^ *X\((double|uint64_t|bool), [a-z0-9_]+,' src/cluster/cluster.h \
  | sed -E 's/.*, ([a-z0-9_]+),$/\1/' || true)
if [ -z "${metrics}" ]; then
  echo "ci: no metric list entries found in src/cluster/cluster.h" >&2
  exit 1
fi
glossary=$(awk '/^## /{inside = ($0 == "## Metrics glossary")} inside' docs/OPERATIONS.md)
while IFS= read -r metric; do
  if ! grep -qF "\`${metric}\`" <<< "${glossary}"; then
    echo "ci: metric '${metric}' is missing from the docs/OPERATIONS.md metrics glossary" >&2
    missing=1
  fi
done <<< "${metrics}"
if [ "${missing}" -ne 0 ]; then
  exit 1
fi

# --- markdown link check -----------------------------------------------------
# Every relative link in README.md and docs/*.md must resolve to a file that
# exists (anchors and external URLs are skipped).
broken=0
for md in README.md docs/*.md; do
  dir=$(dirname "${md}")
  # Extract (target) parts of [text](target) links, strip #fragments.
  while IFS= read -r target; do
    case "${target}" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "${path}" ] && continue
    if [ ! -e "${dir}/${path}" ]; then
      echo "ci: broken link in ${md}: ${target}" >&2
      broken=1
    fi
  done < <(grep -oE '\]\([^)[:space:]]+\)' "${md}" | sed -e 's/^](//' -e 's/)$//')
done
if [ "${broken}" -ne 0 ]; then
  exit 1
fi

echo "ci: OK"
