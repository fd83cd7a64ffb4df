#include "src/replica/replica.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace tashkent {

namespace {

Bytes CheckedUsableMemory(ReplicaId id, const ReplicaConfig& config) {
  if (config.memory <= config.reserved) {
    throw std::invalid_argument(
        "replica " + std::to_string(id) + ": memory " +
        std::to_string(config.memory / kMiB) + " MB must exceed the reserved " +
        std::to_string(config.reserved / kMiB) + " MB (no cache would remain)");
  }
  return config.memory - config.reserved;
}

// An out-of-range skew samples pages past a relation's end, so every skew
// the pool will sample with is checked once, here, not per page.
void CheckSkew(ReplicaId id, const char* field, const AccessSkew& skew) {
  auto fail = [&](const char* name, double value, const char* range) {
    throw std::invalid_argument("replica " + std::to_string(id) + ": " + field + "." + name +
                                " " + std::to_string(value) + " outside " + range);
  };
  // Written so NaN fails every comparison and is rejected.
  if (!(skew.hot_fraction >= 0.0 && skew.hot_fraction <= 1.0)) {
    fail("hot_fraction", skew.hot_fraction, "[0, 1]");
  }
  if (!(skew.hot_weight >= 0.0 && skew.hot_weight <= 1.0)) {
    fail("hot_weight", skew.hot_weight, "[0, 1]");
  }
  if (!(skew.zipf_s >= 0.0 && std::isfinite(skew.zipf_s))) {
    fail("zipf_s", skew.zipf_s, "[0, inf)");
  }
}

const ReplicaConfig& CheckedSkews(ReplicaId id, const ReplicaConfig& config) {
  CheckSkew(id, "skew", config.skew);
  CheckSkew(id, "write_skew", config.write_skew);
  return config;
}

}  // namespace

Replica::Replica(Simulator* sim, const Schema* schema, ReplicaId id, ReplicaConfig config, Rng rng)
    : sim_(sim),
      schema_(schema),
      id_(id),
      config_(CheckedSkews(id, config)),
      rng_(rng),
      pool_(CheckedUsableMemory(id, config), config.chunk_pages),
      cpu_(sim, "cpu/" + std::to_string(id)),
      disk_(sim, "disk/" + std::to_string(id)),
      cpu_ewma_(kMonitorAlpha),
      disk_ewma_(kMonitorAlpha) {}

void Replica::ResizeMemory(Bytes memory) {
  ReplicaConfig resized = config_;
  resized.memory = memory;
  pool_.Resize(CheckedUsableMemory(id_, resized));
  config_.memory = memory;
}

void Replica::Execute(const TxnType& type, ExecDone done) {
  ExecOutcome outcome;
  SimDuration disk_time = 0;
  SimDuration cpu_time = type.base_cpu;

  for (const auto& step : type.plan.steps) {
    const RelationMeta& rel = schema_->Get(step.relation);
    if (step.access == AccessKind::kSequentialScan) {
      const Pages window =
          step.window_pages > 0 ? std::min(step.window_pages, rel.pages) : rel.pages;
      const PoolAccess access = pool_.TouchScanWindow(rel, window, rng_, config_.skew);
      disk_time += DiskModel::SequentialReadTime(access.pages_missed);
      cpu_time += window * kCpuPerScanPage;
      outcome.pages_read_seq += access.pages_missed;
      outcome.pages_touched += window;
    } else {
      const PoolAccess access = pool_.TouchRandom(rel, step.pages_per_exec, rng_, config_.skew);
      disk_time += DiskModel::RandomReadTime(access.pages_missed);
      cpu_time += step.pages_per_exec * kCpuPerRandomPage;
      outcome.pages_read_rand += access.pages_missed;
      outcome.pages_touched += step.pages_per_exec;
    }
    if (step.write_pages > 0) {
      const BufferPool::DirtyResult dirt =
          pool_.DirtyRandom(rel, step.write_pages, rng_, config_.write_skew);
      disk_time += DiskModel::RandomReadTime(dirt.access.pages_missed);
      cpu_time += step.write_pages * kCpuPerRandomPage;
      outcome.pages_read_rand += dirt.access.pages_missed;
      outcome.pages_touched += step.write_pages;
    }
  }

  stats_.disk_read_bytes += PagesToBytes(outcome.pages_read_seq + outcome.pages_read_rand);

  outcome.is_update = type.is_update();
  if (outcome.is_update) {
    outcome.writeset = BuildWriteset(type);
  }

  const uint32_t slot = in_flight_.Alloc();
  InFlight& txn = in_flight_[slot];
  txn.outcome = std::move(outcome);
  txn.cpu_time = cpu_time;
  txn.done = std::move(done);
  if (disk_time > 0) {
    disk_.Submit(disk_time, [this, slot]() { RunCpuPhase(slot); });
  } else {
    RunCpuPhase(slot);
  }
}

void Replica::RunCpuPhase(uint32_t slot) {
  cpu_.Submit(in_flight_[slot].cpu_time, [this, slot]() { FinishExecution(slot); });
}

void Replica::FinishExecution(uint32_t slot) {
  // Move out and free before invoking: `done` may execute the next
  // transaction, which can reuse this slot or grow the slab.
  InFlight& txn = in_flight_[slot];
  ExecOutcome outcome = std::move(txn.outcome);
  ExecDone done = std::move(txn.done);
  in_flight_.Free(slot);
  ++stats_.txns_executed;
  done(std::move(outcome));
}

Writeset Replica::BuildWriteset(const TxnType& type) {
  Writeset ws;
  ws.origin = id_;
  ws.type = type.id;
  ws.bytes = type.writeset_bytes;
  for (const auto& step : type.plan.steps) {
    if (step.write_pages <= 0) {
      continue;
    }
    ws.table_pages.emplace_back(step.relation, step.write_pages);
    const RelationMeta& rel = schema_->Get(step.relation);
    // Logical row identifiers for conflict detection: ~16 rows per page.
    const uint64_t keyspace = std::max<uint64_t>(static_cast<uint64_t>(rel.pages) * 16, 1);
    for (int i = 0; i < step.write_pages; ++i) {
      ws.items.push_back(WritesetItem{step.relation, rng_.NextBelow(keyspace)});
    }
  }
  return ws;
}

void Replica::StageApply(const Writeset& ws, ApplyBatch& batch) {
  for (const auto& [rel_id, pages] : ws.table_pages) {
    const RelationMeta& rel = schema_->Get(rel_id);
    const BufferPool::DirtyResult dirt =
        pool_.DirtyRandom(rel, pages, rng_, config_.write_skew);
    batch.missed += dirt.access.pages_missed;
    batch.touched += pages;
  }
  ++batch.count;
}

void Replica::SubmitApplyBatch(const ApplyBatch& batch, ApplyDone done) {
  const SimDuration disk_time = DiskModel::RandomReadTime(batch.missed);
  const SimDuration cpu_time = batch.touched * kCpuPerApplyPage;
  stats_.apply_read_bytes += PagesToBytes(batch.missed);
  stats_.writesets_applied += batch.count;
  SubmitDiskThenCpu(disk_time, cpu_time, std::move(done));
}

void Replica::InstallCheckpoint(const ClusterCheckpoint& ckpt, ApplyDone done) {
  ++stats_.checkpoint_installs;
  stats_.checkpoint_bytes += ckpt.bytes();
  const SimDuration disk_time = DiskModel::SequentialReadTime(ckpt.total_pages);
  const SimDuration cpu_time = ckpt.total_pages * kCpuPerApplyPage;
  SubmitDiskThenCpu(disk_time, cpu_time, std::move(done));
}

void Replica::SubmitDiskThenCpu(SimDuration disk_time, SimDuration cpu_time, ApplyDone done) {
  auto cpu_stage = [this, cpu_time, done = std::move(done)]() mutable {
    cpu_.Submit(cpu_time, [done = std::move(done)]() {
      if (done) {
        done();
      }
    });
  };
  if (disk_time > 0) {
    disk_.Submit(disk_time, std::move(cpu_stage));
  } else {
    cpu_stage();
  }
}

void Replica::StartDaemons() {
  if (daemons_started_) {
    return;
  }
  daemons_started_ = true;
  // Stagger daemon phases across replicas so 16 monitors do not tick in
  // lockstep.
  const SimDuration flush_phase = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(kFlushPeriod)));
  const SimDuration monitor_phase = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(kMonitorPeriod)));
  sim_->SchedulePeriodic(sim_->Now() + flush_phase, kFlushPeriod,
                         [this]() { FlushRound(); });
  sim_->SchedulePeriodic(sim_->Now() + monitor_phase, kMonitorPeriod,
                         [this]() { MonitorRound(); });
}

void Replica::FlushRound() {
  const Pages flushed = pool_.TakeDirtyForFlush(config_.flush_batch_pages);
  if (flushed <= 0) {
    return;
  }
  stats_.disk_write_bytes += PagesToBytes(flushed);
  disk_.Submit(DiskModel::WriteTime(flushed), nullptr);
}

void Replica::MonitorRound() {
  cpu_ewma_.Add(cpu_.SampleUtilization());
  disk_ewma_.Add(disk_.SampleUtilization());
}

}  // namespace tashkent
