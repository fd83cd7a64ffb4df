#!/usr/bin/env python3
"""SHA-256 digests of campaign result documents.

Every `BENCH_<campaign>.json` that `tashkent_bench run --json DIR` writes is
deterministic (host timing lives only in the manifest). This tool digests
each document and

  write DIR          records DIR's digests in bench/baselines/documents.sha256
  check DIR          fails unless DIR's documents match that file exactly
                     (same campaigns, same digests)
  compare A B [NAME...]
                     fails unless the named campaigns' documents (default:
                     every document in A) are the same in A and B

The digest covers a compact re-serialisation that keeps key order, so a
changed value, a moved key or an added field all change it; the writer's
float formatting does not (numbers round-trip through doubles). The merged
manifest, BENCH_campaign.json, is host timing and event counts; the events
gate in scripts/ci.sh reads it, this tool skips it.
"""
import hashlib
import json
import pathlib
import sys

BASELINE = pathlib.Path(__file__).resolve().parent.parent / 'bench/baselines/documents.sha256'


def digest(path):
    doc = json.loads(path.read_text())
    text = json.dumps(doc, separators=(',', ':'), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(out_dir, names=None):
    out = pathlib.Path(out_dir)
    if names is None:
        names = sorted(p.stem[len('BENCH_'):] for p in out.glob('BENCH_*.json')
                       if p.name != 'BENCH_campaign.json')
    return {name: digest(out / f'BENCH_{name}.json') for name in names}


def report(bad, total, what):
    for b in bad:
        print(f"document gate: {b}", file=sys.stderr)
    print(f"document gate: {total - len(bad)} of {total} documents {what}")
    return 1 if bad or not total else 0


def main(argv):
    if len(argv) == 2 and argv[0] == 'write':
        lines = [f"{h}  BENCH_{name}.json\n" for name, h in digests(argv[1]).items()]
        BASELINE.write_text(''.join(lines))
        print(f"wrote {len(lines)} digests to {BASELINE}")
        return 0
    if len(argv) == 2 and argv[0] == 'check':
        base = {}
        for line in BASELINE.read_text().splitlines():
            h, name = line.split()
            base[name[len('BENCH_'):-len('.json')]] = h
        run = digests(argv[1])
        bad = [f"BENCH_{n}.json differs from the baseline" for n in sorted(run)
               if n in base and run[n] != base[n]]
        bad += [f"BENCH_{n}.json is missing from the baseline"
                for n in sorted(run) if n not in base]
        bad += [f"BENCH_{n}.json is in the baseline but missing from this run"
                for n in sorted(base) if n not in run]
        return report(bad, len(base.keys() | run.keys()), 'match the baseline')
    if len(argv) >= 3 and argv[0] == 'compare':
        names = argv[3:] or None
        a = digests(argv[1], names)
        b = digests(argv[2], names)
        bad = [f"BENCH_{n}.json differs between {argv[1]} and {argv[2]}"
               for n in sorted(a) if n in b and a[n] != b[n]]
        bad += [f"BENCH_{n}.json is in only one of {argv[1]} and {argv[2]}"
                for n in sorted(a.keys() ^ b.keys())]
        return report(bad, len(a.keys() | b.keys()), 'are the same in both')
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
