#!/usr/bin/env python3
"""Determinism-contract lint for the Tashkent+ reproduction.

Every number this repo reports is pinned by a golden digest and a
`--jobs N` == `--jobs 1` bit-identity contract (docs/ARCHITECTURE.md,
"Determinism contract"). The replay tests *detect* a violation only after
the digest flips; this lint *prevents* the common ways one gets written:

  unordered-iter         Range-iteration (or copy into an ordered sink) over
                         std::unordered_map / std::unordered_set. Iteration
                         order is libstdc++-version- and address-dependent;
                         anything that flows from it into a subscription,
                         JSON, writeset, or balancer decision is a latent
                         digest flip. Membership tests, counting, and
                         inserts into another unordered container are fine —
                         annotate those.

  wall-clock             std::random_device, rand()/srand(), clock(),
                         time(nullptr), or {system,steady,high_resolution}_
                         clock::now(). Simulated time comes from the event
                         kernel; real time may only be *measured* (host
                         wall_s scalars), never fed back into a decision.
                         Timing sites carry an explicit allow pragma.

  ptr-key                std::map/set (or unordered_map/set) keyed on a
                         pointer type, or a std::less<T*> comparator:
                         ordering/hashing by address varies run to run.

  float-parallel-accum   `+=`/`-=` onto a float/double declared *outside* a
                         ParallelFor body, inside it: cross-thread float
                         reduction order is schedule-dependent, breaking
                         jobs-N == jobs-1. Accumulate per-slot, reduce
                         serially afterwards.

Escape hatch — a reviewed, reasoned annotation on the same line or the
line directly above the hit:

    // lint: allow(unordered-iter) order-insensitive: counts members only

The reason is mandatory, the rule name must be real, and a pragma that
suppresses nothing is itself an error (stale annotations rot).

Usage:
  scripts/lint_determinism.py [--list-rules] PATH...

Paths may be files or directories (searched recursively for .h/.cc/.cpp/.hpp).
Exit 0: clean. Exit 1: findings. Exit 2: usage or malformed/stale pragma.
"""

import argparse
import os
import re
import sys

RULES = {
    "unordered-iter": "iteration over an unordered container",
    "wall-clock": "wall-clock or nondeterministic seed source",
    "ptr-key": "pointer-keyed ordered/hashed container",
    "float-parallel-accum": "float accumulation inside a ParallelFor body",
}

SOURCE_EXTS = (".h", ".cc", ".cpp", ".hpp")

PRAGMA_RE = re.compile(
    r"//\s*lint:\s*allow\(\s*([A-Za-z0-9_,\s-]*?)\s*\)\s*(.*)$")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        else:
            sys.exit(f"lint_determinism: no such path: {p}")
    return sorted(set(files))


def sanitize(text):
    """Blank out comments and string/char literals, preserving offsets.

    Newlines inside block comments survive so offset->line mapping holds.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            if (c == "'" and i > 0 and text[i - 1].isalnum()
                    and nxt and nxt.isalnum()):
                i += 1  # C++14 digit separator (2'000'000), not a char literal
                continue
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_starts(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def offset_to_line(starts, offset):
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1  # 1-based


def match_paren(text, open_pos):
    """Given text[open_pos] == '(' (or '<' / '{'), return index past its match."""
    pairs = {"(": ")", "<": ">", "{": "}"}
    open_c = text[open_pos]
    close_c = pairs[open_c]
    depth = 0
    i = open_pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        elif open_c == "<" and c in ";{":
            return -1  # not a template-argument list after all
        i += 1
    return -1


def parse_pragmas(raw_lines, path, errors):
    """Return {line_number: set(rules)} of allowed rules per line.

    A pragma on a line with code applies to that line; a pragma alone on a
    line applies to the next non-blank line.
    """
    allows = {}
    pragma_site = {}  # line -> source line of pragma, for stale reporting
    for idx, line in enumerate(raw_lines, start=1):
        m = PRAGMA_RE.search(line)
        if m is None:
            if "lint:" in line and "allow" in line:
                errors.append(f"{path}:{idx}: malformed lint pragma: {line.strip()}")
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2).strip()
        bad = rules - set(RULES)
        if bad or not rules:
            errors.append(
                f"{path}:{idx}: unknown rule in pragma: {', '.join(sorted(bad)) or '(empty)'}"
                f" (known: {', '.join(sorted(RULES))})")
            continue
        if not reason:
            errors.append(f"{path}:{idx}: lint pragma needs a reason after the rule list")
            continue
        before = line[: m.start()].strip()
        target = idx
        if not before:  # standalone pragma line: applies to the next non-blank line
            target = idx + 1
            while target <= len(raw_lines) and not raw_lines[target - 1].strip():
                target += 1
        allows.setdefault(target, set()).update(rules)
        for r in rules:
            pragma_site[(target, r)] = idx
    return allows, pragma_site


UNORDERED_TYPE_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set)\s*<")
ALIAS_RE = re.compile(
    r"\b(?:using\s+(\w+)\s*=\s*[^;]*?\bunordered_(?:map|set)\b"
    r"|typedef\s+[^;]*?\bunordered_(?:map|set)\b[^;]*?\s(\w+)\s*;)")
IDENT_AFTER_TYPE_RE = re.compile(r"\s*[&*]*\s*(?:const\s+)?((?:\w+\s*::\s*)*\w+)")
FLOAT_DECL_RE = re.compile(r"\b(?:float|double)\s+(\w+)\s*(?=[=;{(,)\[])")
ACCUM_RE = re.compile(r"([A-Za-z_][\w.\->\[\]\s]*?)\s*(?:\+=|-=)[^=]")
WALL_CLOCK_RES = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w.:])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"),
     "wall-clock ::now()"),
]
COPY_SINK_RES = [
    re.compile(r"std\s*::\s*copy\s*\(\s*([\w.\->\s]+?)\.begin\s*\("),
    re.compile(r"std\s*::\s*accumulate\s*\(\s*([\w.\->\s]+?)\.begin\s*\("),
    re.compile(r"std\s*::\s*vector\s*<[^;=]*?>\s*\w+\s*[({]\s*([\w.\->\s]+?)\.begin\s*\("),
    re.compile(r"\.assign\s*\(\s*([\w.\->\s]+?)\.begin\s*\("),
]
PTR_LESS_RE = re.compile(r"\bstd\s*::\s*less\s*<[^>]*\*\s*>")
ASSOC_TYPE_RE = re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set|unordered_map|unordered_set)\s*<")


def final_component(expr):
    """`working_sets_[t].relations` -> relations; `*sub_` -> sub_; `a->b` -> b."""
    expr = expr.strip()
    expr = re.sub(r"\[[^\]]*\]", "", expr)
    parts = re.split(r"\.|->", expr)
    last = parts[-1].strip().lstrip("*&(").rstrip(") \t")
    m = re.search(r"([A-Za-z_]\w*)\s*$", last)
    return m.group(1) if m else None


def unordered_decls(text):
    """Names of variables declared with (and functions returning) an
    unordered container type anywhere in the file."""
    variables = set()
    functions = set()
    aliases = set()
    for m in ALIAS_RE.finditer(text):
        aliases.add(m.group(1) or m.group(2))
    type_res = [UNORDERED_TYPE_RE]
    if aliases:
        type_res.append(
            re.compile(r"\b(?:%s)\b(?!\s*=)" % "|".join(re.escape(a) for a in aliases)))
    for type_re in type_res:
        for m in type_re.finditer(text):
            pos = m.end()
            if m.re is UNORDERED_TYPE_RE:
                end = match_paren(text, m.end() - 1)
                if end < 0:
                    continue
                pos = end
            im = IDENT_AFTER_TYPE_RE.match(text, pos)
            if im is None:
                continue
            name = im.group(1).split("::")[-1].strip()
            if name in ("const", "return", "else"):
                continue
            rest = text[im.end():].lstrip()
            if rest.startswith("("):
                functions.add(name)
            else:
                variables.add(name)
    return variables, functions


def check_file(path, findings, errors):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.split("\n")
    allows, pragma_site = parse_pragmas(raw_lines, path, errors)
    text = sanitize(raw)
    starts = line_starts(text)
    used_allows = set()

    def report(offset, rule, message):
        line = offset_to_line(starts, offset)
        if rule in allows.get(line, set()):
            used_allows.add((line, rule))
            return
        findings.append(Finding(path, line, rule, message))

    # --- wall-clock -----------------------------------------------------------
    for regex, label in WALL_CLOCK_RES:
        for m in regex.finditer(text):
            report(m.start(), "wall-clock",
                   f"{label}: nondeterministic time/entropy source — derive from "
                   "the simulator clock or a seeded Rng")

    # --- ptr-key --------------------------------------------------------------
    for m in ASSOC_TYPE_RE.finditer(text):
        end = match_paren(text, m.end() - 1)
        if end < 0:
            continue
        args = text[m.end():end - 1]
        depth = 0
        first_arg_end = len(args)
        for i, c in enumerate(args):
            if c in "<(":
                depth += 1
            elif c in ">)":
                depth -= 1
            elif c == "," and depth == 0:
                first_arg_end = i
                break
        if "*" in args[:first_arg_end]:
            report(m.start(), "ptr-key",
                   "container keyed on a pointer: address order/hash varies per run")
    for m in PTR_LESS_RE.finditer(text):
        report(m.start(), "ptr-key",
               "std::less over a pointer type compares addresses")

    # --- unordered-iter -------------------------------------------------------
    variables, functions = unordered_decls(text)
    for m in re.finditer(r"\bfor\s*\(", text):
        open_pos = m.end() - 1
        end = match_paren(text, open_pos)
        if end < 0:
            continue
        header = text[open_pos + 1:end - 1]
        # Top-level ':' (not '::') marks a range-for.
        depth = 0
        colon = -1
        i = 0
        while i < len(header):
            c = header[i]
            if c in "<([{":
                depth += 1
            elif c in ">)]}":
                depth -= 1
            elif c == ":" and depth == 0:
                if i + 1 < len(header) and header[i + 1] == ":":
                    i += 2
                    continue
                if i > 0 and header[i - 1] == ":":
                    i += 1
                    continue
                colon = i
                break
            i += 1
        if colon < 0:
            continue
        seq = header[colon + 1:].strip()
        call = re.match(r"^((?:\w+\s*::\s*)*(\w+))\s*\(", seq)
        name = None
        if call and seq.endswith(")"):
            if call.group(2) in functions:
                name = call.group(2)
        else:
            comp = final_component(seq)
            if comp in variables:
                name = comp
        if name is not None:
            report(open_pos, "unordered-iter",
                   f"range-for over unordered container '{name}': iteration order "
                   "is not part of the determinism contract")
    for regex in COPY_SINK_RES:
        for m in regex.finditer(text):
            comp = final_component(m.group(1))
            if comp in variables:
                report(m.start(), "unordered-iter",
                       f"copying unordered container '{comp}' into an ordered sink "
                       "preserves hash-table order")

    # --- float-parallel-accum -------------------------------------------------
    float_decls = {}  # name -> list of decl offsets
    for m in FLOAT_DECL_RE.finditer(text):
        float_decls.setdefault(m.group(1), []).append(m.start())
    for m in re.finditer(r"\bParallelFor\s*\(", text):
        end = match_paren(text, m.end() - 1)
        if end < 0:
            continue
        body = text[m.end():end]
        for am in ACCUM_RE.finditer(body):
            comp = final_component(am.group(1))
            if comp is None or comp not in float_decls:
                continue
            offs = float_decls[comp]
            declared_inside = any(m.end() <= o < end for o in offs)
            if declared_inside:
                continue
            report(m.end() + am.start(), "float-parallel-accum",
                   f"'{comp}' (float/double declared outside the ParallelFor body) "
                   "is accumulated inside it: reduction order depends on the "
                   "thread schedule — accumulate per-slot and reduce serially")

    # --- stale pragmas --------------------------------------------------------
    for line, rules in allows.items():
        for rule in rules:
            if (line, rule) not in used_allows:
                src = pragma_site.get((line, rule), line)
                errors.append(
                    f"{path}:{src}: stale pragma: allow({rule}) suppresses nothing")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:<22} {desc}")
        return 0
    if not args.paths:
        ap.print_usage(sys.stderr)
        return 2

    findings = []
    errors = []
    for path in collect_files(args.paths):
        check_file(path, findings, errors)

    for e in errors:
        print(e, file=sys.stderr)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s)", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
