#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full test suite (plain and
# ASan+UBSan), run the smoke, faults and churn campaigns under ASan+UBSan,
# lint for determinism, then run the whole campaign grid (`run all`, at
# --jobs 2 and again at --jobs 1) under hard gates on the JSON it emits:
# every cell's executed events and every result document's digest against
# bench/baselines/, --jobs 1 equal to --jobs 2, and the marathon, asan, skew
# and faults gates. Then check the perfbench workloads' pinned outcomes, and
# check the docs cover every campaign, verb, metric, configuration field and
# callback capacity.
# The gates are python3 scripts, so a host without python3 fails here
# instead of skipping them.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

command -v python3 > /dev/null 2>&1 || { echo "ci: python3 is required" >&2; exit 1; }

cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# --- sanitizer pass ----------------------------------------------------------
# The slab event kernel, inline-callback storage, and free-listed LRU are
# exactly the code where lifetime bugs hide (use-after-free of a recycled
# slot, double-destroy of a capture, off-by-one in LRU-group recycling);
# Address+UB sanitizers run the whole test suite over them on every CI pass.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build build-asan -j"$(nproc)"
(cd build-asan && ctest --output-on-failure -j"$(nproc)")
# The same binary runs whole campaigns with asserts on: smoke; faults,
# whose retry, dedup and failover paths are where a stale slot or a broken
# invariant would show; and churn, whose fail/recover cells drive recovery
# replay through the apply pump. Their documents are compared with the plain
# build's below (the document gates).
rm -rf build-asan/bench-out
mkdir -p build-asan/bench-out
./build-asan/tashkent_bench run smoke faults churn --jobs 2 --json build-asan/bench-out

# --- determinism lint --------------------------------------------------------
# Static gate for the `--jobs N` == `--jobs 1` bit-identity contract: no
# unordered-container iteration feeding reported state, no wall-clock or
# unseeded randomness in src/ or the campaign definitions.
python3 scripts/lint_determinism.py src/ bench/ \
  || { echo "ci: determinism lint failed" >&2; exit 1; }

# --- python tool tests -------------------------------------------------------
# The determinism lint is itself a gate; its rule set is pinned by tests.
python3 tests/lint_test.py \
  || { echo "ci: determinism-lint tests failed" >&2; exit 1; }

# --- CI campaigns: the whole grid ---------------------------------------------
# Every registered campaign through the real binary, in ONE invocation, so
# the merged manifest lists every cell and the gates below see the whole
# grid: grid expansion, worker pool, JSON documents and manifest all have to
# work; the marathon campaign's bounded certifier log and conflict index
# must actually be bounded; the skew and faults inert pairs must stay
# byte-identical; the faults zero-loss ledger must hold on every cell; and
# every cell's executed events and every document's digest must equal the
# committed baseline. The grid runs a second time at --jobs 1, whose
# documents must equal the --jobs 2 run's (seeds derive from grid
# coordinates, never from execution order).
rm -rf build/bench-out build/bench-out-j1
mkdir -p build/bench-out build/bench-out-j1
./build/tashkent_bench run all --jobs 2 --json build/bench-out
./build/tashkent_bench run all --jobs 1 --no-progress --json build/bench-out-j1 > /dev/null
test -s build/bench-out/BENCH_campaign.json

# The bounded-log and bounded-conflict gates: with auto-pruning on, the
# certifier log's chunk high-water mark and the conflict index's row
# high-water mark (pruned at the GSI-safe point every tick) must PLATEAU
# across the marathon's churn epochs (last epoch within 3x of the first —
# generous; measured ~1.2x for the log), while each legacy control (pruning
# off) must keep growing with uptime. Deterministic simulated values, so
# both gate hard.
for family in "log chunks:bounded-log" "conflict rows:bounded-conflict"; do
  python3 - "${family%%:*}" <<'EOF' || { echo "ci: marathon ${family##*:} gate failed" >&2; exit 1; }
import json, sys
what = sys.argv[1]
s = json.load(open('build/bench-out/BENCH_marathon.json'))['scalars']
names = [f'{kind} {what} hwm epoch{epoch}' for kind in ('bounded', 'legacy') for epoch in (1, 5)]
missing = [n for n in names if n not in s]
if missing:
    sys.exit(f"marathon report is missing {missing}")
b1, b5, l1, l5 = (s[n] for n in names)
print(f"marathon gate: {what}: bounded epoch1={b1:.0f} epoch5={b5:.0f}, "
      f"legacy epoch1={l1:.0f} epoch5={l5:.0f}")
ok = b5 <= 3 * b1 and l5 > 1.5 * l1 and b5 < l5
sys.exit(0 if ok else 1)
EOF
done

# --- document gates ----------------------------------------------------------
# Every result document must hash to the digest recorded in
# bench/baselines/documents.sha256, so a change to anything simulated fails
# here and names the documents that moved (bench/baselines/README.md says how
# a deliberate change regenerates them).
# The --jobs 1 run must write the same documents as the --jobs 2 run. And
# sanitizers and asserts must not change what is simulated: the ASan+UBSan
# Debug build's smoke, faults and churn documents equal the plain build's.
python3 scripts/document_digests.py check build/bench-out \
  || { echo "ci: result documents differ from bench/baselines/documents.sha256" >&2; exit 1; }
python3 scripts/document_digests.py compare build/bench-out build/bench-out-j1 \
  || { echo "ci: --jobs 1 documents differ from the --jobs 2 run's" >&2; exit 1; }
python3 scripts/document_digests.py compare build/bench-out build-asan/bench-out \
  smoke faults churn \
  || { echo "ci: asan campaign documents differ from the plain build's" >&2; exit 1; }

# --- inert-pair byte gates ---------------------------------------------------
# The skew and faults campaigns each run one inert cell on the same seed
# twice: once plain, once with new machinery armed at its degenerate value
# (skew: workload skew at the replica default, SetPopulation restating the
# population, SwitchMix to the already-active mix; faults: the retry
# protocol under an empty fault plan). The two measured run records must be
# IDENTICAL on every reported field — the benches already throw if not, but
# this re-checks the emitted JSON byte-for-byte (modulo the label) so a
# silently-softened in-bench comparison can't pass CI.
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

# --- faults zero-loss gate ---------------------------------------------------
# The faults campaign's cells already throw in-bench if the zero-loss ledger
# is violated; this re-derives both bounds from the emitted scalars so a
# silently-softened in-bench check can't pass CI: for every fault cell,
# acknowledged commits <= certified commits <= commits + summed in-flight
# bound, every per-cell "invariant ok" scalar is 1, and the inert pair (whose
# run records the byte gate above compares) executed equal event counts.
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

# --- executed-events gate ----------------------------------------------------
# Executed simulator events are deterministic, so every cell of the grid must
# appear in the committed full-grid manifest with the same count; a change
# means the simulation itself changed. The gate also fails when the run lacks
# a cell that the baseline lists, so no cell is lost unnoticed. A change that
# alters simulated behaviour on purpose, or adds or removes cells,
# regenerates the baseline (bench/baselines/README.md).
python3 - <<'EOF' || { echo "ci: executed-events gate failed" >&2; exit 1; }
import json, sys
def events(path):
    doc = json.load(open(path))
    return {(c['name'], cell['id']): cell['executed_events']
            for c in doc['campaigns'] for cell in c['cells']}
base = events('bench/baselines/BENCH_campaign.json')
run = events('build/bench-out/BENCH_campaign.json')
bad = [f"{c}:{i}: missing from the baseline" for c, i in sorted(run) if (c, i) not in base]
bad += [f"{c}:{i}: {base[c, i]} executed events in the baseline, {n} in this run"
        for (c, i), n in sorted(run.items()) if (c, i) in base and n != base[c, i]]
bad += [f"{c}:{i}: in the baseline but missing from this run"
        for c, i in sorted(base) if (c, i) not in run]
for b in bad:
    print(f"events gate: {b}", file=sys.stderr)
matched = sum(1 for cell, n in run.items() if base.get(cell) == n)
print(f"events gate: {matched} of {len(run)} cells match the baseline")
sys.exit(1 if bad else 0)
EOF

# --- perfbench outcome gate --------------------------------------------------
# perfbench/run.py checks every run of its three workloads: at seed 1 and full
# script length the simulated outcome (commits, aborts, pool hits and misses,
# simulator events, ...) must equal perfbench/pinned.json, every sub-seed must
# repeat bit-identically, and the workload invariants must hold. It exits
# non-zero when any check fails. One second of host time per workload keeps
# the step near 30 s (the first run builds simbench into .bench_build/).
for workload in tpcw-browse-mid tpcw-order-uf-churn rubis-flash-256r; do
  python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 --trace 0 \
    || { echo "ci: perfbench outcome gate failed on ${workload}" >&2; exit 1; }
done

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

# Each row of the docs/REPRODUCING.md matrix must give the cell count that
# the committed full-grid baseline records for its campaign, so the matrix's
# Cells column cannot drift from the grid.
python3 - <<'EOF' || { echo "ci: docs/REPRODUCING.md matrix cell counts are wrong" >&2; exit 1; }
import json, re, sys
base = {c['name']: len(c['cells'])
        for c in json.load(open('bench/baselines/BENCH_campaign.json'))['campaigns']}
text = open('docs/REPRODUCING.md').read()
matrix = text.split('## Figure/table → campaign matrix', 1)[1].split('\n## ', 1)[0]
rows = [[col.strip() for col in line.strip().strip('|').split('|')]
        for line in matrix.splitlines() if re.match(r'\|\s*[^-|\s]', line)][1:]
bad = []
for row in rows:
    name, cells = row[1].strip('`'), row[-1]
    if name not in base:
        bad.append(f"row '{name}' names no campaign in the baseline")
    elif cells != str(base[name]):
        bad.append(f"row '{name}' gives {cells} cells, the baseline has {base[name]}")
for b in bad:
    print(f"matrix check: {b}", file=sys.stderr)
print(f"matrix check: {len(rows) - len(bad)} of {len(rows)} rows match the baseline's cell counts")
sys.exit(1 if bad or not rows else 0)
EOF

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

# The proxy lifecycle table in docs/OPERATIONS.md (the first table after
# "### Lifecycle table") must have exactly one row per (state, event) pair.
# The states are the ReplicaLifecycle enumerators in proxy.h; the events are
# the `lifecycle: <event>` tags on the handlers' guards in proxy.cc, so a new
# state or a newly tagged handler without rows fails here. The ProxyLifecycle
# suite (tests/proxy_lifecycle_test.cc) then drives every row.
python3 - <<'EOF' || { echo "ci: docs/OPERATIONS.md lifecycle table is incomplete" >&2; exit 1; }
import re, sys
enum = re.search(r'enum class ReplicaLifecycle \{(.*?)\};', open('src/proxy/proxy.h').read(), re.S)
states = re.findall(r'^\s*(k\w+),', enum.group(1), re.M) if enum else []
events = sorted(set(re.findall(r'lifecycle: ([a-z-]+)', open('src/proxy/proxy.cc').read())))
text = open('docs/OPERATIONS.md').read()
if '\n### Lifecycle table\n' not in text:
    sys.exit("docs/OPERATIONS.md has no '### Lifecycle table' section")
lines = text.split('\n### Lifecycle table\n', 1)[1].splitlines()
first = next((i for i, line in enumerate(lines) if line.startswith('|')), len(lines))
rows = []
for line in lines[first + 2:]:
    if not line.startswith('|'):
        break
    rows.append(tuple(cell.strip().strip('`') for cell in line.strip('|').split('|')[:2]))
bad = []
if not states or not events or not rows:
    bad.append(f"read {len(states)} states from proxy.h, {len(events)} events from proxy.cc "
               f"and {len(rows)} table rows")
for state, event in sorted(set(rows)):
    if state not in states:
        bad.append(f"row ({state}, {event}) names no ReplicaLifecycle enumerator")
    if event not in events:
        bad.append(f"row ({state}, {event}) names no event tagged in proxy.cc")
for state, event in sorted({r for r in rows if rows.count(r) > 1}):
    bad.append(f"({state}, {event}) has {rows.count((state, event))} rows")
for state in states:
    for event in events:
        if (state, event) not in rows:
            bad.append(f"({state}, {event}) has no row")
for b in bad:
    print(f"lifecycle check: {b}", file=sys.stderr)
print(f"lifecycle check: {len(set(rows))} of {len(states) * len(events)} (state, event) pairs "
      f"have a row ({len(states)} states, {len(events)} events)")
sys.exit(1 if bad else 0)
EOF

# Every field of the configuration structs a user can set must have a row in
# docs/ARCHITECTURE.md's knob table (the first table after "Which knobs
# stay"), written as `Struct::field`, so a new single-value field needs a
# written reason there. The fields are read from the struct bodies in the
# headers: each two-space-indented declaration is one field.
python3 - <<'EOF' || { echo "ci: docs/ARCHITECTURE.md knob table is incomplete" >&2; exit 1; }
import re, sys
headers = {
    'ClusterConfig': 'src/cluster/cluster.h',
    'CheckpointPolicy': 'src/cluster/cluster.h',
    'ReplicaConfig': 'src/replica/replica.h',
    'ProxyConfig': 'src/proxy/proxy.h',
    'RetryPolicy': 'src/proxy/proxy.h',
    'MalbConfig': 'src/balancer/malb.h',
}
field = re.compile(r'^  [A-Za-z_][\w:<>]* ([a-z_]\w*)(?: = [^;]*|\{[^;]*\})?;(?:\s*//.*)?$')
text = open('docs/ARCHITECTURE.md').read()
if '**Which knobs stay.**' not in text:
    sys.exit("docs/ARCHITECTURE.md has no 'Which knobs stay' section")
after = text.split('**Which knobs stay.**', 1)[1].splitlines()
first = next((i for i, line in enumerate(after) if line.startswith('|')), None)
if first is None:
    sys.exit("the 'Which knobs stay' section has no table")
table = []
for line in after[first:]:
    if not line.startswith('|'):
        break
    table.append(line)
table = '\n'.join(table)
bad, total = [], 0
for struct, header in headers.items():
    m = re.search(r'^struct ' + struct + r' \{\n(.*?)^\};', open(header).read(), re.S | re.M)
    if not m:
        bad.append(f"struct {struct} not found in {header}")
        continue
    fields = [f.group(1) for f in map(field.match, m.group(1).splitlines()) if f]
    if not fields:
        bad.append(f"no fields read from struct {struct} in {header}")
    for name in fields:
        total += 1
        if f'`{struct}::{name}`' not in table:
            bad.append(f"`{struct}::{name}` has no row in the knob table")
for b in bad:
    print(f"knob check: {b}", file=sys.stderr)
print(f"knob check: {total - len(bad)} of {total} configuration fields have a knob-table row")
sys.exit(1 if bad else 0)
EOF

# Every InlineCallback alias declared under src/ must have a row in
# docs/ARCHITECTURE.md's callback table (the first table after "Callback
# capacities"), written as `Class::Alias` with the file that declares it and
# the same capacity; a row naming no declared alias fails too. Every row's
# object size must be its capacity plus the 8-byte ops pointer, the layout
# src/common/inline_callback.h static_asserts. So the documented capacities
# and sizes cannot drift from the code.
python3 - <<'EOF' || { echo "ci: docs/ARCHITECTURE.md callback table disagrees with src/" >&2; exit 1; }
import pathlib, re, sys
alias = re.compile(r'using (\w+) = InlineCallback<.*,\s*(\d+)>;')
declared = {}
for path in sorted(pathlib.Path('src').rglob('*')):
    if path.suffix in ('.h', '.cc') and path.name != 'inline_callback.h':
        for m in alias.finditer(path.read_text()):
            declared[(m.group(1), str(path))] = m.group(2)
text = open('docs/ARCHITECTURE.md').read()
if '**Callback capacities.**' not in text:
    sys.exit("docs/ARCHITECTURE.md has no 'Callback capacities' section")
after = text.split('**Callback capacities.**', 1)[1].splitlines()
first = next((i for i, line in enumerate(after) if line.startswith('|')), None)
if first is None:
    sys.exit("the 'Callback capacities' section has no table")
rows = {}
bad = []
for line in after[first + 2:]:
    if not line.startswith('|'):
        break
    cells = [c.strip().strip('`') for c in line.strip('|').split('|')]
    rows[(cells[0].rsplit('::', 1)[-1], cells[1])] = (cells[0], cells[2])
    if not (cells[2].isdigit() and cells[3] == str(int(cells[2]) + 8)):
        bad.append(f"row `{cells[0]}`: object {cells[3]} bytes is not capacity {cells[2]} + 8")
for (name, path), capacity in sorted(declared.items()):
    row = rows.get((name, path))
    if row is None:
        bad.append(f"{name} ({path}, capacity {capacity}) has no row")
    elif row[1] != capacity:
        bad.append(f"`{row[0]}` is {capacity} bytes in {path} but {row[1]} in the table")
for (name, path), (label, _) in sorted(rows.items()):
    if (name, path) not in declared:
        bad.append(f"row `{label}` names no InlineCallback alias declared in {path}")
for b in bad:
    print(f"callback check: {b}", file=sys.stderr)
matched = sum(1 for key, cap in declared.items() if key in rows and rows[key][1] == cap)
print(f"callback check: {matched} of {len(declared)} InlineCallback aliases match their table row")
sys.exit(1 if bad or not declared else 0)
EOF

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
