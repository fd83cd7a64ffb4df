#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <variant>

#include <cmath>

#include "src/balancer/registry.h"
#include "src/storage/checkpoint.h"
#include "src/workload/fluid_pool.h"

namespace tashkent {

namespace {

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

}  // namespace

Cluster::Cluster(const Workload& workload, std::string mix_name, std::string policy,
                 ClusterConfig config)
    : workload_(&workload),
      mix_name_(std::move(mix_name)),
      policy_name_(std::move(policy)),
      config_(config),
      certifier_channel_(&sim_),
      timeline_(kTimelineBucket) {
  if (config_.checkpoint.auto_prune && !config_.checkpoint.checkpoint_join) {
    // Pruning drops the log prefix a legacy join replays from version 0: the
    // first join after an effective prune would throw from inside the
    // simulation instead of here.
    throw std::invalid_argument(
        "ClusterConfig.checkpoint: auto_prune requires checkpoint_join (turn both off for "
        "legacy joins)");
  }
  if (config_.faults.armed()) {
    // A lossy/partitioned channel without retries silently loses
    // transactions; arming a plan implies the retry protocol. Normalised
    // before the proxies copy config_.proxy.
    config_.proxy.retry.enabled = true;
  }
  Rng root(config_.seed);

  if (workload.skew) {
    // Workload-specified key popularity overrides the read-path skew of every
    // replica (including ones added at runtime, which copy config_.replica).
    config_.replica.skew = *workload.skew;
  }
  if (config_.replicas == 0) {
    // Every balancer routes over a non-empty proxy list (LeastConnections
    // would divide by zero, RoundRobin index an empty one).
    throw std::invalid_argument("ClusterConfig.replicas must be at least 1, got 0");
  }
  if (!config_.replica_memory.empty() && config_.replica_memory.size() != config_.replicas) {
    throw std::invalid_argument(
        "ClusterConfig.replica_memory has " + std::to_string(config_.replica_memory.size()) +
        " entries but the cluster has " + std::to_string(config_.replicas) + " replicas");
  }
  for (size_t r = 0; r < config_.replicas; ++r) {
    ReplicaConfig rc = config_.replica;
    if (!config_.replica_memory.empty()) {
      rc.memory = config_.replica_memory[r];
    }
    AddReplicaAndProxy(rc, root.Fork());
  }
  certifier_.SetProdCallback([this](ReplicaId r) {
    if (r < proxies_.size()) {
      proxies_[r]->OnProd();
    }
  });

  BalancerContext ctx;
  ctx.sim = &sim_;
  ctx.registry = &workload.registry;
  ctx.schema = &workload.schema;
  for (auto& p : proxies_) {
    ctx.proxies.push_back(p.get());
  }

  balancer_ = PolicyRegistry::Instance().Create(policy_name_, std::move(ctx), config_);
  malb_ = dynamic_cast<MalbBalancer*>(balancer_.get());

  const size_t n_clients = static_cast<size_t>(config_.clients_per_replica) * config_.replicas;
  // Both models fork the client stream from the same root position, so
  // switching models never perturbs the replica or topology seed streams.
  if (config_.fluid_clients) {
    clients_ = std::make_unique<FluidClientPool>(&sim_, workload_,
                                                 &workload_->MixByName(mix_name_), n_clients,
                                                 config_.mean_think, root.Fork());
  } else {
    clients_ = std::make_unique<ClientPool>(&sim_, workload_, &workload_->MixByName(mix_name_),
                                            n_clients, config_.mean_think, root.Fork());
  }
  clients_->SetDispatch([this](const TxnType& type, uint32_t token) {
    const auto idx = static_cast<uint32_t>(balancer_->Route(type));
    auto done = [this, idx, token, &type](bool committed) {
      balancer_->OnComplete(idx, type);
      clients_->Complete(token, committed);
    };
    // The one continuation a transaction carries down the path: no client
    // state rides in it, only the token the client source resolves.
    static_assert(sizeof(done) <= Proxy::TxnDone::capacity(),
                  "the dispatch continuation must fit Proxy::TxnDone");
    proxies_[idx]->SubmitTransaction(type, std::move(done));
  });
  clients_->SetOnCommit([this](const TxnType& type, SimDuration response) {
    (void)type;
    ++committed_;
    if (measuring_) {
      responses_.Add(response);
    }
    timeline_.Record(sim_.Now(), 1.0);
    if (awaiting_failover_commit_) {
      // First commit after a certifier failover: the client-visible takeover
      // latency ends here.
      awaiting_failover_commit_ = false;
      failover_recovery_accum_s_ += ToSeconds(sim_.Now() - failover_at_);
    }
  });
  clients_->SetOnAbort([this](const TxnType& type) {
    (void)type;
    ++aborted_;
  });

  topology_rng_ = root.Fork();

  // Fault wiring comes LAST and forks from the root only when armed, so a
  // fault-capable build with the knobs off replays every pre-fault seed
  // stream (replicas, clients, topology) bit for bit. An armed plan has
  // already enabled retry above.
  if (config_.proxy.retry.enabled) {
    faults_rng_ = root.Fork();
    if (config_.faults.armed()) {
      certifier_channel_.ArmFaults(config_.faults, faults_rng_.Fork());
    }
    for (auto& p : proxies_) {
      p->ArmRetry(faults_rng_.Fork());
    }
  }
}

void Cluster::Advance(SimDuration d) {
  if (!started_) {
    started_ = true;
    for (auto& r : replicas_) {
      r->StartDaemons();
    }
    for (auto& p : proxies_) {
      p->StartDaemons();
    }
    balancer_->Start();
    clients_->Start();
    if (config_.checkpoint.auto_prune) {
      const SimDuration period = config_.checkpoint.prune_period;
      sim_.SchedulePeriodic(sim_.Now() + period, period, [this]() { AutoPrune(); });
    }
  }
  sim_.RunUntil(sim_.Now() + d);
}

void Cluster::Apply(const Verb& verb) {
  std::visit(
      Overloaded{
          [&](const KillReplica& v) { proxies_.at(v.replica)->Crash(); },
          [&](const RecoverReplica& v) { proxies_.at(v.replica)->Recover(); },
          [&](const AddReplica& v) { JoinNewReplica(v.memory); },
          [&](const ResizeMemory& v) {
            replicas_.at(v.replica)->ResizeMemory(v.memory);
            balancer_->OnTopologyChange();
          },
          [&](const CrashCertifier&) {
            RequireRetry("CrashCertifier");
            if (certifier_.serving()) {
              certifier_.Crash();
              cert_down_mark_ = sim_.Now();
            }
          },
          [&](const FailoverCertifier&) {
            if (!certifier_.serving()) {
              cert_downtime_accum_s_ += ToSeconds(sim_.Now() - cert_down_mark_);
            }
            certifier_.Failover();
            awaiting_failover_commit_ = true;
            failover_at_ = sim_.Now();
          },
          [&](const PartitionProxy& v) {
            RequireRetry("PartitionProxy");
            (void)proxies_.at(v.replica);  // bounds check; the window keys on the replica id
            certifier_channel_.AddPartition(static_cast<uint32_t>(v.replica), sim_.Now(),
                                            sim_.Now() + v.duration);
          },
          [&](const SwitchMix& v) {
            clients_->SetMix(&workload_->MixByName(v.mix));
            mix_name_ = v.mix;
          },
          [&](const tashkent::SetPopulation& v) { clients_->SetPopulation(v.population); },
          [&](const FreezeAllocation&) {
            // Stops MALB reallocation ticks from changing anything further.
            if (malb_ != nullptr) {
              malb_->Freeze();
            }
          },
      },
      verb);
}

void Cluster::At(SimDuration delay, Verb verb) {
  if (delay <= 0) {
    Apply(verb);
    return;
  }
  sim_.ScheduleAfter(delay, [this, verb = std::move(verb)]() { Apply(verb); });
}

void Cluster::JoinNewReplica(Bytes memory) {
  ReplicaConfig rc = config_.replica;
  if (memory > 0) {
    rc.memory = memory;
  }
  Proxy* proxy = AddReplicaAndProxy(rc, topology_rng_.Fork());
  if (started_) {
    replicas_.back()->StartDaemons();
    proxy->StartDaemons();
  }
  // The balancer learns about the proxy before it joins, so routing state is
  // ready the moment recovery completes.
  balancer_->OnReplicaAdded(proxy);
  if (config_.proxy.retry.enabled) {
    proxy->ArmRetry(faults_rng_.Fork());
  }
  // A new replica starts from an empty database: with checkpoint joins it
  // installs the cluster's checkpoint image and replays only the suffix;
  // otherwise it replays the entire certifier log (filtered by any
  // subscription) before serving.
  proxy->JoinAsNew();
}

Proxy* Cluster::AddReplicaAndProxy(const ReplicaConfig& rc, Rng rng) {
  const ReplicaId id = static_cast<ReplicaId>(replicas_.size());
  replicas_.push_back(std::make_unique<Replica>(&sim_, &workload_->schema, id, rc, rng));
  proxies_.push_back(std::make_unique<Proxy>(&sim_, replicas_.back().get(), &certifier_,
                                             config_.proxy, &certifier_channel_));
  if (config_.checkpoint.checkpoint_join) {
    proxies_.back()->SetCheckpointSource([this]() { return BuildCheckpointImage(); });
  }
  return proxies_.back().get();
}

void Cluster::RequireRetry(const char* verb) const {
  if (!config_.proxy.retry.enabled) {
    throw std::logic_error(std::string(verb) +
                           " needs ProxyConfig::retry enabled (or an armed FaultPlan): without "
                           "retry, the messages it loses wait for a timeout that is never "
                           "scheduled");
  }
}

ClusterCheckpoint Cluster::BuildCheckpointImage() const {
  // Any up replica can donate: its on-disk state is the complete database at
  // its applied version (replicas never hold partial prefixes). The image
  // version is the freshest the cluster can serve — at least the prune line
  // (the recipient cannot replay versions that no longer exist), at best the
  // most advanced up replica.
  Version v = certifier_.log_pruned_below();
  for (const auto& p : proxies_) {
    if (p->lifecycle() == ReplicaLifecycle::kUp && p->applied_version() > v) {
      v = p->applied_version();
    }
  }
  return BuildCheckpoint(workload_->schema, v);
}

void Cluster::SampleCertifierHwm() {
  log_chunks_hwm_ =
      std::max(log_chunks_hwm_, static_cast<uint64_t>(certifier_.log_chunk_count()));
  arena_bytes_hwm_ = std::max(arena_bytes_hwm_, certifier_.arena().allocated_bytes());
  conflict_rows_hwm_ =
      std::max(conflict_rows_hwm_, static_cast<uint64_t>(certifier_.conflict_rows()));
}

void Cluster::AutoPrune() {
  // Sample memory high-water marks BEFORE pruning so the window's metrics
  // reflect the worst the log and conflict index grew to, not the post-prune
  // residue.
  SampleCertifierHwm();
  // Safe floor: every replica — up, down, or recovering — has durably applied
  // through its applied_version and resumes log reads above it; a replica
  // mid-install resumes above its image version instead. Down replicas pin
  // the floor (their durable prefix must stay replayable), so pruning is
  // provably inert: no log read below the floor can ever happen.
  //
  // The conflict index prunes at the GSI-safe point instead: the minimum over
  // proxies of the applied version and the snapshot of every certification
  // still parked (in flight or backing off, across crashes). A parked
  // certification can hold a snapshot older than its replica's applied
  // version, and rows written after that snapshot must still abort it.
  Version floor = certifier_.head_version();
  Version snapshot_floor = certifier_.head_version();
  for (const auto& p : proxies_) {
    const Version v = p->installing_checkpoint().value_or(p->applied_version());
    floor = std::min(floor, v);
    snapshot_floor = std::min(snapshot_floor, p->snapshot_floor());
  }
  assert(floor <= certifier_.head_version());
  certifier_.PruneBelow(snapshot_floor);
  if (floor <= certifier_.log_pruned_below()) {
    // Nothing new to reclaim. Also covers a floor "regression": a joiner that
    // crashed mid-install reports its stale applied version (possibly below
    // the prune line) — safe, because its recovery installs a fresh
    // checkpoint rather than reading pruned entries (WritesetLog::Get asserts
    // every read is above the prune line as the backstop).
    return;
  }
  certifier_.PruneLogBelow(floor);
  ++prunes_;
}

void Cluster::ResetMetrics() {
  // Opening a window zeroes every counter it reports: one reset per
  // component (see the metric lists in cluster.h).
  committed_ = 0;
  aborted_ = 0;
  responses_.Reset();
  measuring_ = true;
  for (auto& r : replicas_) {
    r->ResetStats();
  }
  for (auto& p : proxies_) {
    p->ResetStats();
  }
  certifier_channel_.ResetFaultStats();
  certifier_.ResetFaultStats();
  if (malb_ != nullptr) {
    malb_->ResetMoveCount();
  }
  cert_downtime_accum_s_ = 0.0;
  failover_recovery_accum_s_ = 0.0;
  if (!certifier_.serving()) {
    cert_down_mark_ = sim_.Now();  // an outage spanning the window boundary
  }
  // The certifier-memory HWMs start from the current live footprint.
  log_chunks_hwm_ = 0;
  arena_bytes_hwm_ = 0;
  conflict_rows_hwm_ = 0;
  SampleCertifierHwm();
}

ExperimentResult Cluster::Measure(SimDuration measure) {
  ResetMetrics();
  Advance(measure);
  return Collect(measure);
}

ExperimentResult Cluster::Run(SimDuration warmup, SimDuration measure) {
  Advance(warmup);
  return Measure(measure);
}

ExperimentResult Cluster::Collect(SimDuration measure_window) {
  measuring_ = false;
  ExperimentResult out;
  out.committed = committed_;
  out.aborted = aborted_;
  out.tps = static_cast<double>(committed_) / ToSeconds(measure_window);
  out.mean_response_s = responses_.Mean();
  out.p95_response_s = responses_.Percentile(0.95);  // selects; reorders the samples

  Bytes reads = 0;
  Bytes writes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  std::vector<double> executed;
  executed.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    reads += r->stats().disk_read_bytes + r->stats().apply_read_bytes;
    writes += r->stats().disk_write_bytes;
    pool_hits += r->pool().stats().hits;
    pool_misses += r->pool().stats().misses;
    executed.push_back(static_cast<double>(r->stats().txns_executed));
  }

  double recovery_time_s = 0.0;
  double join_time_s = 0.0;
  for (const auto& p : proxies_) {
    out.rejected += p->stats().rejected;
    out.recoveries += p->stats().recoveries;
    recovery_time_s += p->stats().recovery_time_s;
    out.replay_applied += p->stats().replay_applied;
    out.replay_filtered += p->stats().replay_filtered;
    out.joins += p->stats().joins;
    join_time_s += p->stats().join_time_s;
    out.cert_timeouts += p->stats().cert_timeouts + p->stats().pull_timeouts;
    out.cert_retries += p->stats().cert_retries;
    out.pull_retries += p->stats().pull_retries;
    out.fenced += p->stats().fenced;
    out.stale_responses += p->stats().stale_responses;
    out.write_queue_hwm = std::max(out.write_queue_hwm, p->stats().write_queue_hwm);
  }
  const ChannelFaultStats& ch = certifier_channel_.fault_stats();
  out.msgs_dropped = ch.dropped + ch.partition_dropped;
  out.msgs_duplicated = ch.duplicated;
  out.msgs_delayed = ch.delayed;
  out.dedup_hits = certifier_.dedup_hits();
  out.cert_crashes = certifier_.crashes();
  out.cert_failovers = certifier_.failovers();
  out.cert_downtime_s = cert_downtime_accum_s_ +
                        (certifier_.serving() ? 0.0 : ToSeconds(sim_.Now() - cert_down_mark_));
  out.failover_recovery_s = failover_recovery_accum_s_;
  out.join_latency_s = out.joins > 0 ? join_time_s / static_cast<double>(out.joins) : 0.0;
  SampleCertifierHwm();
  out.log_chunks_hwm = log_chunks_hwm_;
  out.arena_bytes_hwm = arena_bytes_hwm_;
  out.conflict_rows_hwm = conflict_rows_hwm_;
  // Client-visible attempts = commits + aborts (the abort count includes the
  // rejections, since a refused submission reports as an abort to its client).
  const double attempts = static_cast<double>(committed_ + aborted_);
  out.availability = attempts > 0 ? 1.0 - static_cast<double>(out.rejected) / attempts : 1.0;
  out.recovery_lag_s =
      out.recoveries > 0 ? recovery_time_s / static_cast<double>(out.recoveries) : 0.0;
  if (committed_ > 0) {
    const double denom =
        static_cast<double>(committed_) * static_cast<double>(replicas_.size());
    out.read_kb_per_txn = static_cast<double>(reads) / denom / 1024.0;
    out.write_kb_per_txn = static_cast<double>(writes) / denom / 1024.0;
  }

  // Unevenness: coefficient of variation of per-replica executed
  // transactions over the window. Includes down replicas — an outage IS
  // uneven load.
  if (!executed.empty()) {
    double sum = 0.0;
    for (const double x : executed) {
      sum += x;
    }
    const double mean = sum / static_cast<double>(executed.size());
    if (mean > 0.0) {
      double var = 0.0;
      for (const double x : executed) {
        const double d = x - mean;
        var += d * d;
      }
      out.unevenness = std::sqrt(var / static_cast<double>(executed.size())) / mean;
    }
  }
  out.miss_rate = (pool_hits + pool_misses) > 0
                      ? static_cast<double>(pool_misses) /
                            static_cast<double>(pool_hits + pool_misses)
                      : 0.0;
  out.realloc_moves = malb_ != nullptr ? malb_->replica_moves() : 0;
  out.clients_modeled = static_cast<uint64_t>(clients_->population());
  out.fluid = config_.fluid_clients;

  if (malb_ != nullptr) {
    const auto ids = malb_->GroupTypeIds();
    const auto counts = malb_->GroupReplicaCounts();
    for (size_t g = 0; g < ids.size(); ++g) {
      GroupReport gr;
      for (TxnTypeId t : ids[g]) {
        gr.types.push_back(workload_->registry.Get(t).name);
      }
      gr.replicas = counts[g];
      out.groups.push_back(std::move(gr));
    }
  }
  return out;
}

std::vector<std::string> DifferingMetrics(const ExperimentResult& a, const ExperimentResult& b) {
  std::vector<std::string> out;
#define TASHKENT_COMPARE_METRIC(type, name, init) \
  if (a.name != b.name) out.emplace_back(#name);
  TASHKENT_RUN_METRICS(TASHKENT_COMPARE_METRIC)
  TASHKENT_FAULT_METRICS(TASHKENT_COMPARE_METRIC)
#undef TASHKENT_COMPARE_METRIC
  if (a.joins != b.joins) out.emplace_back("joins");
  if (a.groups != b.groups) out.emplace_back("groups");
  return out;
}

}  // namespace tashkent
