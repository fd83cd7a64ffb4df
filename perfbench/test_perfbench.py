#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

  python3 perfbench/test_perfbench.py            # arithmetic, checks, short runs
  python3 perfbench/test_perfbench.py Arithmetic  # one test class

The arithmetic and check tests use synthetic simbench documents. RunTest builds
simbench (as run.py does) and pushes a reduced-length run of every workload,
traced and untraced, through the output checks.
"""

import copy
import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402


def counters(**overrides):
    c = {name: 0.0 for name in (
        "sim_events", "sim_pending", "pool_hits", "pool_misses", "pool_evicted", "pool_dirtied",
        "pool_flushed", "replica_txns", "replica_applied", "replica_read_bytes",
        "replica_write_bytes", "replica_apply_read_bytes", "replica_ckpt_installs", "committed",
        "aborted", "read_only", "rejected", "gave_up", "update_commits", "in_flight",
        "proxy_applied", "proxy_filtered", "mask_skipped", "pulls", "prods", "replay_applied",
        "replay_filtered", "recoveries", "recovery_time_s", "certified", "cert_aborted",
        "log_chunks", "arena_bytes", "log_head", "realloc_moves", "clients_modeled", "prunes")}
    c.update(overrides)
    return c


def rep(sub_seed, slice_ms, probe_ns, digest="d", setup_s=0.02, peak_rss_kib=4096.0, routes=0.0,
        **counter_overrides):
    return {
        "sub_seed": sub_seed, "slice_ms": slice_ms, "probe_ns": probe_ns, "digest": digest,
        "setup_s": setup_s, "peak_rss_kib": peak_rss_kib,
        "build_s": 0.0, "calibrate_s": 0.0, "construct_s": 0.0, "run_s": sum(slice_ms) / 1e3,
        "pending_max": 10.0, "log_chunks_max": 1.0, "arena_bytes_max": 0.0, "routes": routes,
        "route_s": 0.0, "counters": counters(**counter_overrides),
    }


def doc(reps, seed=5, scale=1.0, mode="traced"):
    return {"reps": reps, "seed": seed, "scale": scale, "mode": mode, "replicas": 2,
            "probe_table_kib": 1024.0, "peak_rss_kib": 9999.0}


def consistent(committed=90, aborted=6, rejected=4, in_flight=3, certified=50):
    """Counters that satisfy every invariant of an update workload."""
    return dict(committed=committed, aborted=aborted, rejected=rejected, in_flight=in_flight,
                routes=committed + aborted + rejected + in_flight, certified=certified,
                update_commits=certified - 1, cert_aborted=aborted, proxy_filtered=7,
                recoveries=1, clients_modeled=1000000)


class Arithmetic(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(benchlib.median(values), 3.5)
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([0.0, 0.0, 0.0]), float("inf"))

    def test_empty_inputs_are_refused(self):
        with self.assertRaises(ValueError):
            benchlib.median([])
        with self.assertRaises(ValueError):
            benchlib.quartiles([1.0])

    def test_shares_guard_zero(self):
        self.assertEqual(benchlib.share(3, 4), 0.75)
        self.assertEqual(benchlib.share(3, 0), 0.0)
        self.assertEqual(benchlib.share(50, 10), 5.0)  # a per-transaction ratio

    def test_decile_ratio_and_mean(self):
        deciles = [100.0] + [110.0] * 8 + [150.0]
        self.assertAlmostEqual(benchlib.decile_ratio(deciles), 1.5)
        self.assertAlmostEqual(benchlib.mean_of_deciles(deciles), 113.0)
        self.assertEqual(benchlib.decile_ratio([]), 0.0)
        self.assertEqual(benchlib.mean_of_deciles([]), 0.0)

    def test_host_scale_uses_the_reps_median_probe(self):
        ref = benchlib.REFERENCE_PROBE_NS
        self.assertAlmostEqual(benchlib.host_scale(rep(0, [1.0] * 3, [ref, 2 * ref, 9 * ref])), 0.5)

    def test_throughput_is_the_median_scaled_rep(self):
        ref = benchlib.REFERENCE_PROBE_NS
        d = doc([rep(0, [100.0], [ref], committed=10), rep(1, [100.0], [ref], committed=30),
                 rep(0, [200.0], [ref / 2], committed=10)])
        # Reps: 10 / 0.1 s, 30 / 0.1 s, and 10 / (0.2 s scaled by 2) = 10 / 0.4 s.
        self.assertAlmostEqual(benchlib.throughput(d), 100.0)
        self.assertAlmostEqual(benchlib.throughput(d, scaled=False), 100.0)
        slow = doc([rep(0, [100.0], [2 * ref], committed=10)])
        self.assertAlmostEqual(benchlib.throughput(slow), 200.0)
        self.assertAlmostEqual(benchlib.throughput(slow, scaled=False), 100.0)
        self.assertAlmostEqual(benchlib.pass_seconds(d), 0.2)

    def test_end_to_end_metrics(self):
        ref = benchlib.REFERENCE_PROBE_NS
        d = doc([rep(0, [100.0], [ref], setup_s=0.02, peak_rss_kib=3072.0, **consistent()),
                 rep(1, [400.0], [ref], setup_s=0.04, peak_rss_kib=5120.0, **consistent()),
                 rep(0, [600.0], [3 * ref], setup_s=0.09, peak_rss_kib=4096.0, **consistent())])
        m = benchlib.end_to_end(d)
        # Reps complete 100 transactions in 0.1 s, 0.4 s and 0.6 s / 3.
        self.assertAlmostEqual(m["sim_txn_per_s"][0], 100 / 0.2)
        self.assertAlmostEqual(m["setup_s"][0], 0.03)       # median of 0.02, 0.04, 0.09/3
        self.assertAlmostEqual(m["peak_rss_mb"][0], 3.0)    # mean 4096 KiB less 1024
        self.assertAlmostEqual(m["txn_ok_share"][0], 180 / 200)
        self.assertEqual(sorted(m), sorted(e["name"] for e in benchmark_json()["end_to_end"]))

    def test_outcome_sums_first_rep_of_each_sub_seed(self):
        d = doc([rep(0, [1.0], [1.0], committed=5), rep(1, [1.0], [1.0], committed=7),
                 rep(0, [1.0], [1.0], committed=5)])
        self.assertEqual(benchlib.outcome(d)["committed"], 12)


class Checks(unittest.TestCase):
    def test_consistent_doc_passes(self):
        d = doc([rep(0, [1.0], [1.0], **consistent()), rep(1, [1.0], [1.0], **consistent())])
        self.assertEqual(benchlib.check_determinism(d), [])
        self.assertEqual(benchlib.check_invariants("tpcw-order-uf-churn", d), [])

    def test_diverging_reps_fail(self):
        d = doc([rep(0, [1.0], [1.0], digest="a"), rep(0, [1.0], [1.0], digest="b")])
        self.assertEqual(len(benchlib.check_determinism(d)), 1)

    def test_each_invariant_fails_alone(self):
        broken = [
            ("tpcw-order-uf-churn", dict(routes=1)),
            ("tpcw-order-uf-churn", dict(update_commits=60)),
            ("tpcw-order-uf-churn", dict(update_commits=10)),
            ("tpcw-order-uf-churn", dict(cert_aborted=0)),
            ("tpcw-order-uf-churn", dict(proxy_filtered=0)),
            ("tpcw-order-uf-churn", dict(recoveries=0)),
            ("rubis-flash-256r", dict(clients_modeled=500000, certified=0, update_commits=0)),
            ("tpcw-browse-mid", dict(certified=0, update_commits=0)),
        ]
        for workload, override in broken:
            c = consistent()
            c.update(override)
            errors = benchlib.check_invariants(workload, doc([rep(0, [1.0], [1.0], **c)]))
            self.assertEqual(len(errors), 1, (workload, override, errors))
        # Read-only: any certification is an error.
        errors = benchlib.check_invariants("rubis-flash-256r",
                                           doc([rep(0, [1.0], [1.0], **consistent())]))
        self.assertTrue(any("read-only" in e for e in errors))

    def test_attempts_are_checked_only_where_routes_are_metered(self):
        c = dict(consistent(), routes=0.0)
        self.assertEqual(len(benchlib.check_invariants(
            "tpcw-order-uf-churn", doc([rep(0, [1.0], [1.0], **c)]))), 1)
        self.assertEqual(benchlib.check_invariants(
            "tpcw-order-uf-churn", doc([rep(0, [1.0], [1.0], **c)], mode="untraced")), [])

    def test_trace_checks(self):
        untraced = doc([rep(0, [1.0], [1.0], digest="a"), rep(1, [1.0], [1.0], digest="b")])
        traced = copy.deepcopy(untraced)
        traced["uninterrupted_digest"] = "a"
        self.assertEqual(benchlib.check_trace(untraced, traced), [])
        traced["reps"][1]["digest"] = "x"
        self.assertEqual(len(benchlib.check_trace(untraced, traced)), 1)
        traced["reps"][1]["digest"] = "b"
        traced["uninterrupted_digest"] = "z"
        self.assertEqual(len(benchlib.check_trace(untraced, traced)), 1)

    def test_pinned_applies_only_at_default_seed_full_length(self):
        d = doc([rep(0, [1.0], [1.0], committed=3)], seed=benchlib.DEFAULT_SEED)
        pinned = {"w": benchlib.pinned_outcome(d)}
        self.assertEqual(benchlib.check_pinned("w", d, pinned), [])
        pinned["w"]["committed"] = 4
        self.assertEqual(len(benchlib.check_pinned("w", d, pinned)), 1)
        self.assertEqual(benchlib.check_pinned("w", doc(d["reps"], seed=2), pinned), [])
        self.assertEqual(benchlib.check_pinned("w", doc(d["reps"], seed=1, scale=0.5), pinned), [])

    def test_stamps(self):
        a = {"cpu": "x", "nproc": 4, "build_type": "RelWithDebInfo", "compiler": "GNU 12",
             "commit": "c1", "seed": 1}
        b = dict(a, commit="c2", seed=2)
        self.assertEqual(benchlib.comparable(a, b), [])
        self.assertEqual(benchlib.comparable(a, dict(a, nproc=8)), ["nproc"])


def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class RunTest(unittest.TestCase):
    """Reduced-length runs of every workload through the output checks."""

    # Long enough that the order workload filters and recovers, and the flash
    # crowd reaches 1M clients.
    SCALES = {"tpcw-browse-mid": 0.1, "tpcw-order-uf-churn": 0.5, "rubis-flash-256r": 0.25}

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(run.WORKLOADS),
                         sorted(w["name"] for w in benchmark_json()["workloads"]))

    def test_reduced_runs_pass_checks(self):
        spec = benchmark_json()
        pinned = benchlib.load_json(os.path.join(HERE, "pinned.json"))
        for workload, scale in self.SCALES.items():
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run(workload, 7, 0.5, trace, scale, pinned)
                    self.assertEqual(result["errors"], [])
                    self.assertTrue(result["summary"]["correct"])
                    self.assertEqual(sorted(result["summary"]["metrics"]),
                                     sorted(m["name"] for m in spec[key]))


if __name__ == "__main__":
    unittest.main()
