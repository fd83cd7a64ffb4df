#!/usr/bin/env python3
"""Tests for scripts/lint_determinism.py.

Each test seeds a fixture C++ file into a temp directory and asserts on the
lint's exit code and output: 0 clean, 1 findings, 2 malformed/stale pragma.
The last test lints the real tree, pinning the "repo lints clean" invariant
that scripts/ci.sh also enforces.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "scripts", "lint_determinism.py")


def run_lint(*paths):
    return subprocess.run(
        [sys.executable, LINT, *paths], capture_output=True, text=True)


class LintFixtureTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def lint_source(self, source, name="fixture.cc"):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        return run_lint(path)

    def test_clean_file_exits_zero(self):
        r = self.lint_source("""
            #include <vector>
            int Sum(const std::vector<int>& v) {
              int total = 0;
              for (int x : v) total += x;
              return total;
            }
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout, "")

    def test_range_for_over_unordered_map_is_flagged(self):
        r = self.lint_source("""
            #include <unordered_map>
            int F() {
              std::unordered_map<int, int> m;
              int sum = 0;
              for (const auto& kv : m) sum += kv.second;
              return sum;
            }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("unordered-iter", r.stdout)
        self.assertIn("'m'", r.stdout)

    def test_iterating_result_of_unordered_returning_function(self):
        r = self.lint_source("""
            #include <unordered_set>
            std::unordered_set<int> Tables();
            void G() {
              for (int t : Tables()) Use(t);
            }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("unordered-iter", r.stdout)

    def test_copy_into_ordered_sink_is_flagged(self):
        r = self.lint_source("""
            #include <unordered_set>
            #include <vector>
            void H() {
              std::unordered_set<int> seen;
              std::vector<int> out(seen.begin(), seen.end());
            }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("ordered sink", r.stdout)

    def test_membership_and_insert_are_not_flagged(self):
        r = self.lint_source("""
            #include <unordered_set>
            bool I(const std::unordered_set<int>& seen, int x) {
              return seen.count(x) > 0 || seen.find(x) != seen.end();
            }
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_wall_clock_sources_are_flagged(self):
        r = self.lint_source("""
            #include <chrono>
            #include <random>
            unsigned J() {
              std::random_device rd;
              auto t = std::chrono::steady_clock::now();
              (void)t;
              return rd() + rand() + time(nullptr);
            }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("std::random_device", r.stdout)
        self.assertIn("rand()", r.stdout)
        self.assertIn("time(nullptr)", r.stdout)
        self.assertIn("::now()", r.stdout)

    def test_backoff_jitter_from_random_device_is_flagged(self):
        # The retry protocol's one tempting shortcut: seeding per-proxy
        # backoff jitter from ambient entropy. Same-seed runs would then
        # disagree on every resend time — the lint must catch it.
        r = self.lint_source("""
            #include <random>
            double JitteredBackoff(double backoff, double jitter) {
              std::random_device rd;
              std::mt19937_64 gen(rd());
              std::uniform_real_distribution<double> u(0.0, 1.0);
              return backoff * (1.0 + jitter * (2.0 * u(gen) - 1.0));
            }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("std::random_device", r.stdout)

    def test_backoff_jitter_from_seeded_stream_is_clean(self):
        # The pattern the proxy actually uses (src/proxy/proxy.cc): a
        # seeded Rng handed down by the cluster. No ambient entropy, no
        # findings.
        r = self.lint_source("""
            #include "src/common/rng.h"
            double JitteredBackoff(tashkent::Rng& retry_rng, double backoff,
                                   double jitter) {
              return backoff * (1.0 + jitter * (2.0 * retry_rng.NextDouble() - 1.0));
            }
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_wall_clock_in_comment_or_string_is_ignored(self):
        r = self.lint_source("""
            // rand() and std::random_device are discussed here only.
            const char* kMsg = "never call time(nullptr) in a cell";
            int K() { return 7; }  /* steady_clock::now() too */
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_digit_separator_does_not_swallow_code(self):
        # A C++14 digit separator is not a char-literal open quote; the
        # violation on the next line must still be seen.
        r = self.lint_source("""
            constexpr long kIters = 400'000;
            unsigned L() { return rand(); }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("rand()", r.stdout)

    def test_pointer_keyed_map_is_flagged(self):
        r = self.lint_source("""
            #include <map>
            struct Node;
            std::map<Node*, int> ranks;
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("ptr-key", r.stdout)

    def test_pointer_valued_map_is_fine(self):
        r = self.lint_source("""
            #include <map>
            struct Node;
            std::map<int, Node*> by_id;
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_std_less_over_pointer_is_flagged(self):
        r = self.lint_source("""
            #include <functional>
            struct Node;
            using Cmp = std::less<Node*>;
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("ptr-key", r.stdout)

    def test_float_accumulation_inside_parallel_for(self):
        r = self.lint_source("""
            #include "src/common/worker_pool.h"
            double M(int jobs) {
              double total = 0.0;
              tashkent::ParallelFor(jobs, 100, [&](size_t i) {
                total += static_cast<double>(i);
              });
              return total;
            }
        """)
        self.assertEqual(r.returncode, 1)
        self.assertIn("float-parallel-accum", r.stdout)
        self.assertIn("'total'", r.stdout)

    def test_float_accumulator_declared_inside_body_is_fine(self):
        r = self.lint_source("""
            #include "src/common/worker_pool.h"
            void N(int jobs, double* slots) {
              tashkent::ParallelFor(jobs, 100, [&](size_t i) {
                double local = 0.0;
                local += static_cast<double>(i);
                slots[i] = local;
              });
            }
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_same_line_pragma_suppresses(self):
        r = self.lint_source("""
            unsigned O() {
              return rand();  // lint: allow(wall-clock) fixture: documented escape
            }
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_standalone_pragma_applies_to_next_line(self):
        r = self.lint_source("""
            unsigned P() {
              // lint: allow(wall-clock) fixture: pragma on its own line
              return rand();
            }
        """)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_pragma_without_reason_is_an_error(self):
        r = self.lint_source("""
            unsigned Q() {
              return rand();  // lint: allow(wall-clock)
            }
        """)
        self.assertEqual(r.returncode, 2)
        self.assertIn("needs a reason", r.stderr)

    def test_pragma_with_unknown_rule_is_an_error(self):
        r = self.lint_source("""
            unsigned R() {
              return rand();  // lint: allow(wall-clocks) typo'd rule name
            }
        """)
        self.assertEqual(r.returncode, 2)
        self.assertIn("unknown rule", r.stderr)

    def test_stale_pragma_is_an_error(self):
        r = self.lint_source("""
            int S() {
              return 7;  // lint: allow(wall-clock) nothing here needs this
            }
        """)
        self.assertEqual(r.returncode, 2)
        self.assertIn("stale pragma", r.stderr)

    def test_directory_walk_finds_nested_files(self):
        nested = os.path.join(self.tmp.name, "sub")
        os.makedirs(nested)
        with open(os.path.join(nested, "bad.h"), "w", encoding="utf-8") as f:
            f.write("inline unsigned T() { return rand(); }\n")
        r = run_lint(self.tmp.name)
        self.assertEqual(r.returncode, 1)
        self.assertIn("bad.h", r.stdout)

    def test_list_rules(self):
        r = subprocess.run(
            [sys.executable, LINT, "--list-rules"], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0)
        for rule in ("unordered-iter", "wall-clock", "ptr-key",
                     "float-parallel-accum"):
            self.assertIn(rule, r.stdout)


class LintTreeTest(unittest.TestCase):
    def test_repo_tree_lints_clean(self):
        r = run_lint(os.path.join(REPO, "src"), os.path.join(REPO, "bench"))
        self.assertEqual(
            r.returncode, 0,
            f"determinism lint found issues in the tree:\n{r.stdout}{r.stderr}")


if __name__ == "__main__":
    unittest.main()
