"""Metric arithmetic, output checks and run stamps for the repository benchmark.

run.py runs the C++ program simbench (simbench/main.cc) and hands its JSON documents to
the functions here; test_perfbench.py tests them. Nothing here runs a process.

Vocabulary:
  rep      one repetition: set-up plus one simulated run of the script.
  sub-seed a run cycles its reps over several seeds derived from --seed; the
           first rep of each sub-seed makes up the run's "pass".
  outcome  the counters of the pass, summed over sub-seeds. Deterministic per
           (workload, seed, scale).
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess

# Counters pinned for the default seed at full length (pinned.json).
PINNED_FIELDS = (
    "committed", "aborted", "rejected", "sim_events", "pool_hits", "pool_misses",
    "certified", "proxy_applied", "proxy_filtered",
)

# Stamp fields that must match before two results may be compared.
HOST_STAMP_FIELDS = ("cpu", "nproc", "build_type", "compiler")

DEFAULT_SEED = 1

MIB = 1024.0

# Nominal host speed: host times are scaled to a host on which simbench's
# probe loop (simbench/rep.h, HostProbeNs) takes this many ns per operation.
REFERENCE_PROBE_NS = 10.0


# --- arithmetic ---------------------------------------------------------------

def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def share(part, whole):
    """part / whole, 0 when whole is 0."""
    return part / whole if whole else 0.0


def decile_ratio(deciles):
    """Last tenth over first tenth of a per-decile series; 0 without data."""
    return share(deciles[-1], deciles[0]) if len(deciles) == 10 else 0.0


def mean_of_deciles(deciles):
    """Mean of a per-decile ns/op series (the tenths are equal-sized up to
    rounding); 0 without data."""
    return sum(deciles) / len(deciles) if deciles else 0.0


# --- reading a simbench document ---------------------------------------------

def completed(counters):
    """Transactions that reached an outcome: committed, aborted (certification
    aborts and retry give-ups) or rejected by a replica that was down."""
    return counters["committed"] + counters["aborted"] + counters["rejected"]


def by_sub_seed(doc):
    """{sub_seed: [rep, ...]} in run order."""
    groups = {}
    for rep in doc["reps"]:
        groups.setdefault(int(rep["sub_seed"]), []).append(rep)
    return groups


def pass_reps(doc):
    """The first rep of every sub-seed: the run's pass."""
    return [reps[0] for _, reps in sorted(by_sub_seed(doc).items())]


def outcome(doc):
    """Counters of the pass, summed over sub-seeds."""
    total = {}
    for rep in pass_reps(doc):
        for name, value in rep["counters"].items():
            total[name] = total.get(name, 0.0) + value
    return total


def host_scale(rep):
    """Factor that scales the rep's host times to the nominal host speed: the
    reference probe time over the median probe time measured during the rep
    (one probe after every slice)."""
    return REFERENCE_PROBE_NS / median(rep["probe_ns"])


def throughput(doc, scaled=True):
    """Median over reps of each rep's completed transactions per host second
    of its run phase, the rep's time scaled to the nominal host speed when
    `scaled`."""
    return median(completed(rep["counters"]) / (rep["run_s"] * (host_scale(rep) if scaled else 1.0))
                  for rep in doc["reps"])


def pass_seconds(doc):
    """Unscaled host seconds of the pass's run phases: the denominator for
    shares of the pass's own counts and spans."""
    return sum(rep["run_s"] for rep in pass_reps(doc))


def setup_seconds(doc, scaled=True):
    """Median over reps of the set-up time, scaled like the rep's run time
    when `scaled`."""
    return median(rep["setup_s"] * (host_scale(rep) if scaled else 1.0) for rep in doc["reps"])


def rep_peak_rss_mib(doc):
    """Mean over reps of each rep's peak resident set, less the probe's table;
    the process peak when the kernel did not allow per-rep watermarks. The
    mean, not the median: peaks differ by sub-seed, and the mean weighs
    every sub-seed the run simulated."""
    per_rep = [rep["peak_rss_kib"] for rep in doc["reps"] if rep["peak_rss_kib"] > 0]
    peak = statistics.fmean(per_rep) if per_rep else doc["peak_rss_kib"]
    return (peak - doc["probe_table_kib"]) / MIB


# --- metrics ------------------------------------------------------------------

def end_to_end(doc):
    """The end-to-end metrics of an untraced run: {name: (value, unit)}."""
    o = outcome(doc)
    txns = completed(o)
    return {
        "sim_txn_per_s": (throughput(doc), "txn/s"),
        "setup_s": (setup_seconds(doc), "s"),
        "peak_rss_mb": (rep_peak_rss_mib(doc), "MiB"),
        "txn_ok_share": (share(o["committed"], txns), "ratio"),
    }


def unscaled(doc):
    """Throughput and set-up time in raw host seconds, and the median probe,
    for the record next to the scaled metrics."""
    return {
        "sim_txn_per_s": throughput(doc, scaled=False),
        "setup_s": setup_seconds(doc, scaled=False),
        "probe_ns": median(p for rep in doc["reps"] for p in rep["probe_ns"]),
    }


def per_layer(untraced, traced):
    """Per-layer metrics from a traced run and its untraced twin:
    {name: (value, unit)}."""
    o = outcome(traced)
    txns = completed(o)
    replay = traced["replay"]
    replicas = traced["replicas"]
    reps = traced["reps"]

    # Counts, spans and times all come from the traced run's pass; shares
    # divide unscaled times measured in that run. The overhead compares two
    # runs, so it uses scaled throughputs.
    touches = o["pool_hits"] + o["pool_misses"]
    routes = sum(rep["routes"] for rep in pass_reps(traced))
    route_s = sum(rep["route_s"] for rep in pass_reps(traced))
    traced_s = pass_seconds(traced)
    sim_est = o["sim_events"] * replay["ns_per_event"] / 1e9
    storage_est = touches * replay["ns_per_page_touch"] / 1e9
    ns_per_certify = mean_of_deciles(replay["decile_ns_per_certify"])
    cert_est = ((o["certified"] + o["cert_aborted"]) * ns_per_certify
                + o["pulls"] * replay["ns_per_pull"]) / 1e9
    slices = [ms for rep in reps for ms in rep["slice_ms"]]
    setup = untraced["reps"] + reps

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("sim.events", o["sim_events"], "count")
    put("sim.events_per_txn", share(o["sim_events"], txns), "count/txn")
    put("sim.pending_max", max(rep["pending_max"] for rep in reps), "count")
    put("sim.ns_per_event", replay["ns_per_event"], "ns")
    put("sim.est_share", share(sim_est, traced_s), "ratio")

    put("storage.page_touches", touches, "count")
    put("storage.touches_per_txn", share(touches, txns), "count/txn")
    put("storage.hit_ratio", share(o["pool_hits"], touches), "ratio")
    put("storage.evicted_pages", o["pool_evicted"], "count")
    put("storage.dirtied_pages", o["pool_dirtied"], "count")
    put("storage.flushed_pages", o["pool_flushed"], "count")
    put("storage.ns_per_page_touch", replay["ns_per_page_touch"], "ns")
    put("storage.est_share", share(storage_est, traced_s), "ratio")

    per_replica_txn = o["committed"] * replicas
    put("replica.txns_executed", o["replica_txns"], "count")
    put("replica.writesets_applied", o["replica_applied"], "count")
    put("replica.read_kb_per_txn",
        share(o["replica_read_bytes"] + o["replica_apply_read_bytes"], per_replica_txn) / 1024,
        "KiB/txn")
    put("replica.write_kb_per_txn", share(o["replica_write_bytes"], per_replica_txn) / 1024,
        "KiB/txn")
    put("replica.checkpoint_installs", o["replica_ckpt_installs"], "count")

    put("proxy.writesets_applied", o["proxy_applied"], "count")
    put("proxy.writesets_filtered", o["proxy_filtered"], "count")
    put("proxy.filter_ratio", share(o["proxy_filtered"], o["proxy_applied"] + o["proxy_filtered"]),
        "ratio")
    put("proxy.mask_skipped", o["mask_skipped"], "count")
    put("proxy.pulls_per_commit", share(o["pulls"], o["certified"]), "count/ws")
    put("proxy.prods_per_commit", share(o["prods"], o["certified"]), "count/ws")
    put("proxy.replay_applied", o["replay_applied"], "count")
    put("proxy.replay_filtered", o["replay_filtered"], "count")
    put("proxy.rejected", o["rejected"], "count")
    put("proxy.recovery_lag_s", share(o["recovery_time_s"], o["recoveries"]), "sim_s")

    put("certifier.certified", o["certified"], "count")
    put("certifier.abort_ratio", share(o["cert_aborted"], o["certified"] + o["cert_aborted"]),
        "ratio")
    put("certifier.log_chunks_max", max(rep["log_chunks_max"] for rep in reps), "count")
    put("certifier.arena_bytes_max", max(rep["arena_bytes_max"] for rep in reps), "bytes")
    put("certifier.ns_per_certify", ns_per_certify, "ns")
    put("certifier.est_share", share(cert_est, traced_s), "ratio")
    put("gsi.certify_ns_last_vs_first_decile", decile_ratio(replay["decile_ns_per_certify"]),
        "ratio")

    put("balancer.routes", routes, "count")
    put("balancer.ns_per_route", share(route_s * 1e9, routes), "ns")
    put("balancer.route_share", share(route_s, traced_s), "ratio")
    put("balancer.realloc_moves", o["realloc_moves"], "count")

    put("workload.attempts", routes, "count")
    put("workload.clients_modeled", max(rep["counters"]["clients_modeled"] for rep in reps),
        "count")
    put("workload.failed_share", share(o["aborted"] + o["rejected"], txns), "ratio")

    put("cluster.setup.build_s", median(rep["build_s"] for rep in setup), "s")
    put("cluster.setup.calibrate_s", median(rep["calibrate_s"] for rep in setup), "s")
    put("cluster.setup.construct_s", median(rep["construct_s"] for rep in setup), "s")
    put("cluster.slice_ms.p50", median(slices), "ms")
    put("cluster.slice_ms.max", max(slices), "ms")
    put("cluster.prunes", o["prunes"], "count")

    put("trace.overhead", share(throughput(untraced), throughput(traced)), "ratio")
    put("trace.host_probe_ns", median(p for rep in reps for p in rep["probe_ns"]), "ns")
    put("trace.unattributed_share",
        1.0 - share(route_s + sim_est + storage_est + cert_est, traced_s), "ratio")
    return m


# --- output checks ------------------------------------------------------------

def check_determinism(doc):
    """Every rep of one sub-seed must reach the same outcome digest."""
    errors = []
    for sub_seed, reps in sorted(by_sub_seed(doc).items()):
        digests = {rep["digest"] for rep in reps}
        if len(digests) != 1:
            errors.append("sub-seed %d: reps disagree on the outcome digest: %s"
                          % (sub_seed, sorted(digests)))
    return errors


def check_invariants(workload, doc):
    """Invariants that hold on any seed, checked on every sub-seed. The
    attempt count comes from the metered Route calls, so the attempt
    invariant is checked on traced runs only."""
    errors = []
    for rep in pass_reps(doc):
        c = rep["counters"]
        tag = "%s sub-seed %d" % (workload, rep["sub_seed"])
        cert_aborts = c["aborted"] - c["gave_up"]
        if (doc["mode"] == "traced" and rep["routes"]
                != c["committed"] + cert_aborts + c["rejected"] + c["gave_up"] + c["in_flight"]):
            errors.append("%s: attempts %d != committed + aborted + rejected + gave-up + in flight"
                          % (tag, rep["routes"]))
        if c["certified"] > 0 and c["update_commits"] > c["certified"]:
            errors.append("%s: %d update commits exceed %d certified"
                          % (tag, c["update_commits"], c["certified"]))
        if c["certified"] - c["update_commits"] > c["in_flight"]:
            errors.append("%s: certified writesets not committed exceed the in-flight count" % tag)
        if not cert_aborts <= c["cert_aborted"] <= cert_aborts + c["in_flight"]:
            errors.append("%s: certifier aborts %d do not match proxy aborts %d"
                          % (tag, c["cert_aborted"], cert_aborts))
        if workload == "tpcw-order-uf-churn":
            if c["proxy_filtered"] <= 0:
                errors.append("%s: update filtering never filtered a writeset" % tag)
            if c["recoveries"] != 1:
                errors.append("%s: %d recoveries, expected exactly one" % (tag, c["recoveries"]))
        if workload == "rubis-flash-256r":
            if c["certified"] != 0:
                errors.append("%s: read-only workload certified %d writesets" % (tag, c["certified"]))
            if c["clients_modeled"] != 1000000:
                errors.append("%s: population ended at %d, expected 1M"
                              % (tag, c["clients_modeled"]))
        if workload.startswith("tpcw") and c["certified"] <= 0:
            errors.append("%s: update workload certified nothing" % tag)
    return errors


def digests(doc):
    return {sub_seed: reps[0]["digest"] for sub_seed, reps in by_sub_seed(doc).items()}


def check_trace(untraced, traced):
    """Tracing changes nothing: the traced run (metering policy) reaches the
    untraced run's (stock policy) digest on every sub-seed. Slice-stepping
    changes nothing: one uninterrupted stock run of the first sub-seed
    reaches the slice-stepped digest."""
    errors = []
    a, b = digests(untraced), digests(traced)
    for sub_seed in sorted(set(a) | set(b)):
        if a.get(sub_seed) != b.get(sub_seed):
            errors.append("sub-seed %d: traced digest %s != untraced %s"
                          % (sub_seed, b.get(sub_seed), a.get(sub_seed)))
    first = min(b)
    if traced["uninterrupted_digest"] != b[first]:
        errors.append("sub-seed %d: uninterrupted run digest %s != slice-stepped %s"
                      % (first, traced["uninterrupted_digest"], b[first]))
    return errors


def pinned_outcome(doc):
    o = outcome(doc)
    return {name: int(o[name]) for name in PINNED_FIELDS}


def check_pinned(workload, doc, pinned):
    """At the default seed and full length, the outcome must equal pinned.json."""
    if int(doc["seed"]) != DEFAULT_SEED or doc["scale"] != 1.0:
        return []
    expected = pinned.get(workload)
    if expected is None:
        return ["%s: no pinned outcome" % workload]
    got = pinned_outcome(doc)
    return ["%s: pinned %s = %d, got %d" % (workload, name, expected[name], got[name])
            for name in PINNED_FIELDS if expected.get(name) != got[name]]


# --- run stamp ----------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root):
    """sha1 over the simulator sources and the benchmark's own files."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD of the git checkout rooted at `root`; None when `root` is not one
    (a parent directory's repository does not count)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(root, doc):
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": doc["build_type"],
        "compiler": doc["compiler"],
        "commit": git_commit(root) or "source:" + source_digest(root),
        "seed": int(doc["seed"]),
    }


def comparable(a, b):
    """Names of the host-stamp fields on which two stamps differ."""
    return [k for k in HOST_STAMP_FIELDS if a.get(k) != b.get(k)]


def load_json(path):
    with open(path) as f:
        return json.load(f)
