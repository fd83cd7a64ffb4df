// A database replica: buffer pool + CPU + disk channel + background writer.
//
// Transactions execute in phases against the chunked-LRU buffer pool: plan
// steps are resolved to page hits and misses, misses are charged to the disk
// channel (sequential bandwidth for scans, per-page cost for random access),
// then a CPU burst proportional to pages processed runs, then the transaction
// reports back with its draft writeset (updates only). Remote writesets from
// the certifier are applied through the same machinery, dirtying pages that
// the background writer later flushes through the shared disk channel — the
// write/read competition that update filtering removes.
//
// The replica mirrors Tashkent's I/O discipline: no fsync on commit
// (durability lives in the certifier log), so the only writes are lazy
// dirty-page write-back.
//
// Hot-path layout: a running transaction is parked once, in a replica-owned
// slab of in-flight records (outcome, CPU time, continuation). The disk and
// CPU stage closures it queues on the FifoServers capture only `{this,
// slot}`, so the servers' job rings hold no payload.
#ifndef SRC_REPLICA_REPLICA_H_
#define SRC_REPLICA_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/inline_callback.h"
#include "src/common/rng.h"
#include "src/common/slab_list.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/engine/txn_type.h"
#include "src/gsi/writeset.h"
#include "src/sim/fifo_server.h"
#include "src/sim/simulator.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/checkpoint.h"
#include "src/storage/disk_model.h"
#include "src/storage/schema.h"

namespace tashkent {

// CPU cost per page processed, by access style. Sequential pages stream
// through tuple-at-a-time processing cheaply; random pages pay lookup
// overhead.
inline constexpr SimDuration kCpuPerScanPage = Micros(9);
inline constexpr SimDuration kCpuPerRandomPage = Micros(60);
// CPU cost to apply one remote writeset page (read-modify-write, no
// planning).
inline constexpr SimDuration kCpuPerApplyPage = Micros(25);
// Background writer cadence; each round flushes at most
// ReplicaConfig::flush_batch_pages.
inline constexpr SimDuration kFlushPeriod = Millis(500);
// Monitor daemon sampling and smoothing (EWMA weight of a new sample).
inline constexpr SimDuration kMonitorPeriod = Seconds(1.0);
inline constexpr double kMonitorAlpha = 0.30;

struct ReplicaConfig {
  // Physical RAM of the machine (the paper sweeps 256 MB / 512 MB / 1 GB).
  Bytes memory = 512 * kMiB;
  // Memory reserved for OS, PostgreSQL processes, proxy and monitoring
  // daemons (the paper subtracts 70 MB).
  Bytes reserved = 70 * kMiB;
  // Scan granularity of the buffer pool: a power of two in [1, 2^15), or the
  // pool's constructor throws std::invalid_argument.
  Pages chunk_pages = 32;
  // Dirty pages the background writer flushes per kFlushPeriod round.
  Pages flush_batch_pages = 512;
  // Hot/cold access skew for random pages and scan-window placement. The
  // constructor throws std::invalid_argument unless both skews' hot_fraction
  // and hot_weight lie in [0, 1] and zipf_s is finite and non-negative.
  AccessSkew skew;
  // Write skew: inserts append and updates hit recent rows, so writes
  // concentrate on a small leading region of each table. This keeps
  // writeset-application reads mostly cached and lets dirty pages coalesce,
  // matching the paper's per-transaction write volumes.
  AccessSkew write_skew{0.03, 0.95};
};

// What one local execution produced.
struct ExecOutcome {
  bool is_update = false;
  Writeset writeset;  // populated when is_update
  Pages pages_read_seq = 0;
  Pages pages_read_rand = 0;
  Pages pages_touched = 0;
};

struct ReplicaStats {
  uint64_t txns_executed = 0;
  uint64_t writesets_applied = 0;
  Bytes disk_read_bytes = 0;     // transaction reads (seq + random misses)
  Bytes disk_write_bytes = 0;    // background write-back of dirty pages
  Bytes apply_read_bytes = 0;    // reads caused by remote writeset application
  // Checkpoint installs (state-transfer joins) and the image bytes they
  // streamed in; tracked apart from disk_read_bytes so the per-transaction
  // I/O metrics keep their steady-state meaning across a join.
  uint64_t checkpoint_installs = 0;
  Bytes checkpoint_bytes = 0;
};

class Replica {
 public:
  // Per-transaction execution-done continuation. The proxy's captures only
  // {proxy, slot}: the transaction's client side stays parked in the proxy.
  using ExecDone = InlineCallback<void(ExecOutcome), 24>;
  // Apply-batch (and checkpoint-install) done continuation (the proxy's
  // applier pump).
  using ApplyDone = InlineCallback<void(), 32>;

  // Throws std::invalid_argument when config.memory <= config.reserved: a
  // replica with no usable cache would silently thrash instead of failing the
  // configuration.
  Replica(Simulator* sim, const Schema* schema, ReplicaId id, ReplicaConfig config, Rng rng);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Executes one transaction of `type` to completion (disk phase, CPU phase),
  // then invokes `done`. For update types the outcome carries the draft
  // writeset; certification is the proxy's job. The buffer-pool work, the
  // outcome and the writeset happen now; the outcome and `done` are then
  // parked in an in-flight slot until the CPU stage completes, when they are
  // moved out and the slot is freed before `done` runs (so `done` may call
  // Execute again).
  void Execute(const TxnType& type, ExecDone done);

  // --- Writeset apply -------------------------------------------------------
  // Remote writesets apply in two steps. StageApply performs one writeset's
  // buffer-pool work now (reading and dirtying the pages it touches, drawing
  // from the replica's stream) and adds its cost to `batch`;
  // SubmitApplyBatch then charges the disk once with the combined
  // random-read time and the CPU once with the combined apply burst, and
  // fires `done` when both are processed. An up replica's proxy submits one
  // writeset per batch; recovery replay stages a whole log run into one. The
  // staged draws and costs are the same either way; only the event
  // interleaving (and thus the replay's wall time) differs.
  struct ApplyBatch {
    Pages missed = 0;   // pool misses staged so far (disk random reads)
    Pages touched = 0;  // pages dirtied so far (CPU apply burst)
    uint64_t count = 0;  // writesets staged
  };
  void StageApply(const Writeset& ws, ApplyBatch& batch);
  void SubmitApplyBatch(const ApplyBatch& batch, ApplyDone done);

  // Installs a checkpoint image: one sequential-bandwidth disk transfer of
  // the whole image plus one CPU pass over its pages, after which `done`
  // fires. The cache stays cold (the image lands on disk; pages warm through
  // ordinary use), so install cost depends on database size only.
  void InstallCheckpoint(const ClusterCheckpoint& ckpt, ApplyDone done);

  // Starts the background writer and the monitor daemon.
  void StartDaemons();

  // Smoothed utilizations reported by the monitor daemon (Section 2.4).
  double smoothed_cpu() const { return cpu_ewma_.value(); }
  double smoothed_disk() const { return disk_ewma_.value(); }
  // Instantaneous disk queue depth (queued jobs plus the one in service).
  size_t disk_queue() const { return disk_.queue_length(); }

  ReplicaId id() const { return id_; }
  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }
  const ReplicaStats& stats() const { return stats_; }
  // Zeroes this replica's counters and its buffer pool's.
  void ResetStats() {
    stats_ = ReplicaStats{};
    pool_.ResetStats();
  }
  const ReplicaConfig& config() const { return config_; }

  // Drops a relation from cache entirely (update filtering lets unused tables
  // go stale; dropping models reclaiming their buffer space).
  void DropRelation(RelationId rel) { pool_.DropRelation(rel); }

  // Elastic memory resizing (the ClusterMutator ResizeMemory verb): changes
  // the machine's RAM at runtime. Shrinking evicts cache down to the new
  // size. Throws std::invalid_argument when memory <= reserved.
  void ResizeMemory(Bytes memory);

 private:
  // A transaction between Execute and its completion. Slots are reused, so
  // a record is valid only from Execute's Alloc until FinishExecution's Free.
  struct InFlight {
    ExecOutcome outcome;
    SimDuration cpu_time = 0;
    ExecDone done;
  };

  void RunCpuPhase(uint32_t slot);
  void FinishExecution(uint32_t slot);
  // Queues `disk_time` on the disk channel, then `cpu_time` on the CPU, then
  // fires `done` (a zero disk time goes straight to the CPU). The writeset
  // apply and the checkpoint install both submit through it.
  void SubmitDiskThenCpu(SimDuration disk_time, SimDuration cpu_time, ApplyDone done);
  Writeset BuildWriteset(const TxnType& type);
  void FlushRound();
  void MonitorRound();

  Simulator* sim_;
  const Schema* schema_;
  ReplicaId id_;
  ReplicaConfig config_;
  Rng rng_;
  BufferPool pool_;
  FifoServer cpu_;
  FifoServer disk_;
  Slab<InFlight> in_flight_;
  Ewma cpu_ewma_;
  Ewma disk_ewma_;
  ReplicaStats stats_;
  bool daemons_started_ = false;
};

}  // namespace tashkent

#endif  // SRC_REPLICA_REPLICA_H_
