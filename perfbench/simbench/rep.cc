#include "simbench/rep.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/balancer/malb.h"
#include "src/balancer/registry.h"
#include "src/cluster/calibration.h"
#include "src/cluster/cluster.h"
#include "src/cluster/experiment.h"
#include "src/cluster/mutator.h"

namespace perfbench {

using tashkent::Cluster;
using tashkent::ClusterConfig;
using tashkent::SimDuration;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

// Most certifier log entries the traced run copies for the replay.
constexpr size_t kLogSampleCap = 150'000;

// Route accounting shared by every MeteredMalb in the process (one cluster
// runs at a time; simbench is single-threaded).
struct RouteMeter {
  uint64_t routes = 0;
  Clock::duration time{0};
};

RouteMeter& Meter() {
  static RouteMeter meter;
  return meter;
}

class MeteredMalb : public tashkent::MalbBalancer {
 public:
  MeteredMalb(tashkent::BalancerContext context, tashkent::MalbConfig config)
      : MalbBalancer(std::move(context), config) {}

  size_t Route(const tashkent::TxnType& type) override {
    RouteMeter& meter = Meter();
    ++meter.routes;
    const Clock::time_point start = Clock::now();
    const size_t index = MalbBalancer::Route(type);
    meter.time += Clock::now() - start;
    return index;
  }
};

Counters ReadCounters(Cluster& cluster) {
  Counters c;
  c.sim_events = static_cast<double>(cluster.sim().executed_events());
  c.sim_pending = static_cast<double>(cluster.sim().pending_events());
  for (const auto& r : cluster.replicas()) {
    const tashkent::BufferPoolStats& pool = r->pool().stats();
    c.pool_hits += static_cast<double>(pool.hits);
    c.pool_misses += static_cast<double>(pool.misses);
    c.pool_evicted += static_cast<double>(pool.evicted_pages);
    c.pool_dirtied += static_cast<double>(pool.dirtied_pages);
    c.pool_flushed += static_cast<double>(pool.flushed_pages);
    const tashkent::ReplicaStats& rs = r->stats();
    c.replica_txns += static_cast<double>(rs.txns_executed);
    c.replica_applied += static_cast<double>(rs.writesets_applied);
    c.replica_read_bytes += static_cast<double>(rs.disk_read_bytes);
    c.replica_write_bytes += static_cast<double>(rs.disk_write_bytes);
    c.replica_apply_read_bytes += static_cast<double>(rs.apply_read_bytes);
    c.replica_ckpt_installs += static_cast<double>(rs.checkpoint_installs);
  }
  for (const auto& p : cluster.proxies()) {
    const tashkent::ProxyStats& ps = p->stats();
    c.committed += static_cast<double>(ps.committed);
    c.aborted += static_cast<double>(ps.aborted);
    c.read_only += static_cast<double>(ps.read_only);
    c.rejected += static_cast<double>(ps.rejected);
    c.gave_up += static_cast<double>(ps.gave_up);
    c.update_commits += static_cast<double>(p->lifetime_update_commits());
    c.in_flight += static_cast<double>(p->outstanding());
    c.proxy_applied += static_cast<double>(ps.writesets_applied);
    c.proxy_filtered += static_cast<double>(ps.writesets_filtered);
    c.mask_skipped += static_cast<double>(ps.mask_skipped);
    c.pulls += static_cast<double>(ps.pulls);
    c.prods += static_cast<double>(ps.prods);
    c.replay_applied += static_cast<double>(ps.replay_applied);
    c.replay_filtered += static_cast<double>(ps.replay_filtered);
    c.recoveries += static_cast<double>(ps.recoveries);
    c.recovery_time_s += ps.recovery_time_s;
  }
  const tashkent::Certifier& cert = cluster.certifier();
  c.certified = static_cast<double>(cert.certified_count());
  c.cert_aborted = static_cast<double>(cert.aborted_count());
  c.log_chunks = static_cast<double>(cert.log_chunk_count());
  c.arena_bytes = static_cast<double>(cert.arena().allocated_bytes());
  c.log_head = static_cast<double>(cert.head_version());
  c.realloc_moves =
      cluster.malb() != nullptr ? static_cast<double>(cluster.malb()->replica_moves()) : 0.0;
  c.clients_modeled = static_cast<double>(cluster.clients().population());
  c.prunes = static_cast<double>(cluster.prunes());
  return c;
}

// Copies the log entries above `*next` that are still in the log (auto-prune
// may already have dropped some) into `sample`.
void CopyLog(const tashkent::Certifier& cert, tashkent::Version* next,
             std::vector<tashkent::Writeset>* sample) {
  const tashkent::Version head = cert.head_version();
  tashkent::Version v = std::max(*next, cert.log_pruned_below() + 1);
  for (; v <= head && sample->size() < kLogSampleCap; ++v) {
    sample->push_back(cert.LogEntry(v));
  }
  *next = head + 1;
}

}  // namespace

double HostProbeNs() {
  static std::vector<uint64_t> table(kProbeTableBytes / sizeof(uint64_t), 1);
  static uint64_t x = 88172645463325252ull;
  constexpr int kOps = 4096;
  const Clock::time_point start = Clock::now();
  uint64_t acc = 0;
  for (int i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x & (table.size() - 1)];
    acc += slot;
    slot = acc * 0x9e3779b97f4a7c15ull + x;
  }
  const double ns = 1e9 * SecondsSince(start) / kOps;
  table[0] += acc;  // keeps the loop's result observable
  return ns;
}

void RegisterMeteredPolicy() {
  tashkent::PolicyRegistry::Instance().Register(
      kMeteredPolicy, [](tashkent::BalancerContext context, const ClusterConfig& config) {
        tashkent::MalbConfig mc = config.malb;
        mc.method = tashkent::EstimationMethod::kSizeContent;
        return std::make_unique<MeteredMalb>(std::move(context), mc);
      });
}

std::vector<std::pair<std::string, double>> Counters::Fields() const {
  std::vector<std::pair<std::string, double>> out;
#define PERFBENCH_FIELD(name) out.emplace_back(#name, name);
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
  return out;
}

uint64_t Counters::Digest() const {
  uint64_t h = 1469598103934665603ull;
  for (const auto& field : Fields()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &field.second, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  return h;
}

RepResult RunRep(const Script& script, uint64_t seed, const RepOptions& options,
                 Clock::time_point setup_origin) {
  RepResult out;
  RouteMeter& meter = Meter();
  meter = RouteMeter{};

  // --- set-up ----------------------------------------------------------------
  Clock::time_point mark = Clock::now();
  const tashkent::Workload workload = script.build();
  out.build_s = SecondsSince(mark);

  mark = Clock::now();
  ClusterConfig config = tashkent::MakeClusterConfig(script.ram, script.replicas, seed);
  config.fluid_clients = script.fluid_clients;
  config.mean_think = script.think;
  config.malb.update_filtering = script.update_filtering;
  // Calibration runs against the canonical standalone config (as the
  // campaigns' cached CalibratedClients does), with no cache and fan-out 1.
  config.clients_per_replica =
      script.calibrate
          ? tashkent::CalibrateClientsPerReplica(workload, script.mix,
                                                 tashkent::MakeClusterConfig(script.ram),
                                                 tashkent::Seconds(40.0),
                                                 tashkent::Seconds(80.0), 1)
                .clients_per_replica
          : script.clients_per_replica;
  out.clients_per_replica = config.clients_per_replica;
  out.calibrate_s = SecondsSince(mark);

  mark = Clock::now();
  Cluster cluster(workload, script.mix, options.traced ? kMeteredPolicy : kStockPolicy, config);
  tashkent::ClusterMutator mutator(&cluster);
  if (script.churn) {
    const SimDuration kill_at = script.length / 3;
    mutator.KillReplicaAt(kill_at, script.victim);
    mutator.RecoverReplicaAt(kill_at + script.outage, script.victim);
  }
  if (script.population_step > 0) {
    cluster.sim().ScheduleAt(script.length / 2, [c = &cluster, n = script.population_step]() {
      c->SetPopulation(n);
    });
  }
  out.construct_s = SecondsSince(mark);
  out.setup_s = SecondsSince(setup_origin);

  // --- run -------------------------------------------------------------------
  // The run phase is the time spent inside Cluster::Advance; boundary reads
  // and probes are simbench's own work and stay outside it.
  if (!options.sliced) {
    const Clock::time_point start = Clock::now();
    cluster.Advance(script.length);
    out.run_s = SecondsSince(start);
  } else {
    tashkent::Version next_logged = 1;
    for (SimDuration done = 0; done < script.length;) {
      const SimDuration step = std::min(script.slice, script.length - done);
      const Clock::time_point slice_start = Clock::now();
      cluster.Advance(step);
      const double slice_s = SecondsSince(slice_start);
      done += step;
      out.run_s += slice_s;
      out.slice_ms.push_back(1e3 * slice_s);
      out.probe_ns.push_back(HostProbeNs());
      const Counters c = ReadCounters(cluster);
      out.pending_max = std::max(out.pending_max, c.sim_pending);
      out.log_chunks_max = std::max(out.log_chunks_max, c.log_chunks);
      out.arena_bytes_max = std::max(out.arena_bytes_max, c.arena_bytes);
      if (options.log_sample != nullptr) {
        CopyLog(cluster.certifier(), &next_logged, options.log_sample);
      }
    }
  }
  out.end = ReadCounters(cluster);
  out.routes = static_cast<double>(meter.routes);
  out.route_s = std::chrono::duration<double>(meter.time).count();
  return out;
}

}  // namespace perfbench
