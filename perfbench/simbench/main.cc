// simbench: runs one workload script for a host-time budget and
// prints one JSON document describing every repetition.
//
//   simbench --workload NAME --seed N --seconds S --mode untraced|traced
//            [--scale F]
//
// A run cycles its repetitions over kSubSeeds sub-seeds derived from --seed
// (seed * kSubSeeds + j), so one run's figures average over several
// simulations; repetition r and r + kSubSeeds simulate the same sub-seed and
// must reach the same outcome digest.
//
// untraced: repeats the slice-stepped script under the stock MALB-SC policy
//   until S host seconds have passed and every sub-seed ran at least once.
// traced: the same loop with Route spans on; the first repetition also
//   copies the certifier log for the replay. Then one uninterrupted
//   repetition of the first sub-seed under the stock policy (the reference
//   for slice-stepping and for the metering subclass) and the isolated
//   replays (simbench/replay.h).
//
// run.py turns the document into metrics; this program only measures.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "simbench/rep.h"
#include "simbench/replay.h"
#include "simbench/scripts.h"
#include "src/common/json.h"

namespace perfbench {
namespace {

using tashkent::json::Value;

constexpr int kSubSeeds = 4;

uint64_t SubSeed(uint64_t seed, size_t rep) { return seed * kSubSeeds + rep % kSubSeeds; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  double scale = 1.0;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "simbench: " << error << "\n"
            << "usage: simbench --workload NAME --seed N --seconds S "
               "--mode untraced|traced [--scale F]\nworkloads:";
  for (const Script& s : Scripts()) {
    std::cerr << ' ' << s.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--mode") {
      if (value != "untraced" && value != "traced") {
        Usage("unknown mode " + value);
      }
      args.traced = value == "traced";
      have_mode = true;
    } else if (flag == "--scale") {
      args.scale = std::stod(value);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindScript(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!have_mode) {
    Usage("--mode is required");
  }
  if (args.scale <= 0.0 || args.scale > 1.0) {
    Usage("--scale must be in (0, 1]");
  }
  return args;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Value ArrayOf(const std::vector<double>& values) {
  Value out = Value::Array();
  for (double v : values) {
    out.Append(v);
  }
  return out;
}

Value CountersJson(const Counters& c) {
  Value out = Value::Object();
  for (const auto& [name, value] : c.Fields()) {
    out.Set(name, value);
  }
  return out;
}

Value RepJson(const RepResult& r, uint64_t sub_seed) {
  Value out = Value::Object();
  out.Set("sub_seed", static_cast<double>(sub_seed));
  out.Set("build_s", r.build_s);
  out.Set("calibrate_s", r.calibrate_s);
  out.Set("construct_s", r.construct_s);
  out.Set("setup_s", r.setup_s);
  out.Set("run_s", r.run_s);
  out.Set("clients_per_replica", r.clients_per_replica);
  out.Set("digest", Hex(r.end.Digest()));
  out.Set("counters", CountersJson(r.end));
  out.Set("pending_max", r.pending_max);
  out.Set("log_chunks_max", r.log_chunks_max);
  out.Set("arena_bytes_max", r.arena_bytes_max);
  out.Set("routes", r.routes);
  out.Set("route_s", r.route_s);
  out.Set("slice_ms", ArrayOf(r.slice_ms));
  out.Set("probe_ns", ArrayOf(r.probe_ns));
  return out;
}

double PeakRssKiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// Returns freed heap to the kernel and restarts the kernel's peak-RSS
// watermark, so the next VmHWM reading covers one repetition. False when the
// kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

// The kernel's peak-RSS watermark (VmHWM) in KiB; 0 when unreadable.
double WatermarkKiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib;
    }
  }
  return 0.0;
}

int Main(int argc, char** argv, Clock::time_point process_start) {
  const Args args = ParseArgs(argc, argv);
  const Script script = Scaled(*FindScript(args.workload), args.scale);
  RegisterMeteredPolicy();
  HostProbeNs();  // allocates the probe table before any timed probe

  Value doc = Value::Object();
  doc.Set("workload", script.name);
  doc.Set("seed", static_cast<double>(args.seed));
  doc.Set("sub_seeds", kSubSeeds);
  doc.Set("mode", args.traced ? "traced" : "untraced");
  doc.Set("scale", args.scale);
  doc.Set("length_s", tashkent::ToSeconds(script.length));
  doc.Set("replicas", static_cast<double>(script.replicas));
  doc.Set("build_type", PERFBENCH_BUILD_TYPE);
  doc.Set("compiler", PERFBENCH_COMPILER);
  doc.Set("probe_table_kib", static_cast<double>(kProbeTableBytes / 1024));

  std::vector<tashkent::Writeset> log_sample;
  std::vector<RepResult> reps;
  Value reps_json = Value::Array();
  while (reps.size() < static_cast<size_t>(kSubSeeds) ||
         SecondsSince(process_start) < args.seconds) {
    const bool reset = ResetPeakRss();
    const Clock::time_point origin = reps.empty() ? process_start : Clock::now();
    RepOptions options;
    options.traced = args.traced;
    if (args.traced && reps.empty()) {
      options.log_sample = &log_sample;
    }
    const uint64_t sub_seed = SubSeed(args.seed, reps.size());
    reps.push_back(RunRep(script, sub_seed, options, origin));
    Value rep = RepJson(reps.back(), sub_seed);
    rep.Set("peak_rss_kib", reset ? WatermarkKiB() : 0.0);
    reps_json.Append(std::move(rep));
  }
  doc.Set("reps", std::move(reps_json));

  if (args.traced) {
    RepOptions whole;
    whole.sliced = false;
    const RepResult uninterrupted = RunRep(script, SubSeed(args.seed, 0), whole, Clock::now());
    doc.Set("uninterrupted_digest", Hex(uninterrupted.end.Digest()));

    const RepResult& first = reps.front();
    Value replay = Value::Object();
    const KernelReplay kernel =
        ReplayKernel(static_cast<size_t>(first.pending_max), args.seed);
    replay.Set("kernel_events", static_cast<double>(kernel.events));
    replay.Set("ns_per_event", kernel.ns_per_event);
    const double applies_per_txn =
        first.end.replica_txns > 0 ? first.end.replica_applied / first.end.replica_txns : 0.0;
    const PoolReplay pool = ReplayPool(script, applies_per_txn, args.seed, 0.3);
    replay.Set("pool_page_touches", static_cast<double>(pool.page_touches));
    replay.Set("ns_per_page_touch", pool.ns_per_page_touch);
    const CertifierReplay cert = ReplayCertifier(log_sample, script.replicas);
    replay.Set("certifies", static_cast<double>(cert.certifies));
    replay.Set("decile_ns_per_certify", ArrayOf(cert.decile_ns_per_certify));
    replay.Set("pulls", static_cast<double>(cert.pulls));
    replay.Set("ns_per_pull", cert.ns_per_pull);
    doc.Set("replay", std::move(replay));
  }

  doc.Set("peak_rss_kib", PeakRssKiB());
  doc.Set("process_s", SecondsSince(process_start));
  std::cout << doc.Dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Clock::time_point process_start = perfbench::Clock::now();
  try {
    return perfbench::Main(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::cerr << "simbench: " << e.what() << '\n';
    return 1;
  }
}
