// CertifierChannel: the proxy->certifier message channel, with group-commit
// event batching.
//
// Every certification or pull is one network round trip; the simulator models
// it by scheduling the *arrival* (request processing + response handling) one
// RTT after submission. Without batching each arrival is its own simulator
// event. The paper's certifier amortizes its log write across concurrent
// commits (group commit); the simulation counterpart is amortizing the
// *event*: arrivals landing on the same simulated tick share one scheduled
// event and are processed back-to-back in submission order — exactly the
// order the per-arrival events would have fired in, since same-tick events
// fire in schedule order. Verdicts, commit order, response contents, and
// timing are therefore bit-identical to the unbatched channel; only the
// kernel's event count drops (tests/certifier_test.cc proves the equivalence
// differentially, and the golden digest pins it end to end).
//
// Equivalence caveat: the shared event carries the FIRST submission's
// sequence number, so a NON-channel event scheduled for the same tick
// between two channel submissions would, under batching, run after the
// whole batch instead of between its members. No component schedules work
// that collides with a certification arrival tick this way (arrivals land
// RTT after their submission tick; a foreign event would need the exact
// same microsecond), and when batching landed every campaign cell of the
// time was byte-identical with batching on vs off. The property is
// empirical, not structural, so the unbatched channel survives as
// `batch_arrivals = false`: tests/certifier_test.cc runs it as the
// differential reference, and a scenario that ever breaks the equivalence
// can be bisected against it.
// Clusters and standalone proxies always batch.
//
// Re-entrancy: an arrival handler may submit again (a recovery pull chases
// the log head with zero think time). If the new arrival lands on the tick
// that is currently firing, it gets its own event — the currently-firing
// batch was already detached — which again matches the unbatched order (a
// same-tick event scheduled mid-tick fires after the events already queued).
//
// Fault injection: ArmFaults installs a FaultPlan — per-message drop /
// extra-delay / duplication probabilities and scheduled per-proxy link
// partitions — whose draws come from a seeded per-cell stream (never wall
// clock), so a fault schedule is a pure function of the cell's grid
// coordinates. Every message names its sender (the submitting replica), so
// a partition window can target any proxy's traffic. An unarmed plan is
// byte-inert: ScheduleArrival delivers straight away, performs zero RNG
// draws, and schedules the same events, so fault-capable builds reproduce
// the golden digest bit-for-bit.
//
// One channel is shared by every proxy of a cluster (Cluster owns it), so
// concurrent certifications from different replicas batch together; a Proxy
// constructed without a cluster (unit tests) owns a private one.
#ifndef SRC_CERTIFIER_CHANNEL_H_
#define SRC_CERTIFIER_CHANNEL_H_

#include <deque>
#include <vector>

#include "src/common/inline_callback.h"
#include "src/common/rng.h"
#include "src/common/slab_list.h"
#include "src/sim/simulator.h"

namespace tashkent {

// Deterministic message-fault schedule for a CertifierChannel. Probabilities
// apply per message, drawn in a fixed order (partition check, drop, delay,
// duplicate, duplicate's delay) from the channel's seeded fault stream, so a
// seed fully determines which messages are lost, late, or doubled.
struct FaultPlan {
  // P(message silently lost). The sender's timeout/retry machinery is the
  // only recovery — arm ProxyConfig::retry alongside any nonzero drop.
  double drop = 0.0;
  // P(message delivered twice). Both copies are real deliveries (each may
  // additionally be delayed); the certifier's dedup window absorbs them.
  double duplicate = 0.0;
  // P(extra delay added) and the mean of the exponential extra delay.
  double delay_probability = 0.0;
  SimDuration delay_mean = 0;
  // Scheduled link partitions: a message submitted by `sender` (a replica
  // index) inside [from, to) is dropped deterministically, no draw spent.
  struct PartitionWindow {
    uint32_t sender = 0;
    SimTime from = 0;
    SimTime to = 0;
  };
  std::vector<PartitionWindow> partitions;

  bool armed() const {
    return drop > 0.0 || duplicate > 0.0 ||
           (delay_probability > 0.0 && delay_mean > 0) || !partitions.empty();
  }
};

// Message-level fault accounting (cumulative; Cluster window-scopes with
// snapshots).
struct ChannelFaultStats {
  uint64_t dropped = 0;            // lost to the drop probability
  uint64_t partition_dropped = 0;  // lost to a partition window
  uint64_t duplicated = 0;         // messages delivered twice
  uint64_t delayed = 0;            // deliveries that drew extra delay
};

class CertifierChannel {
 public:
  // Arrival handler; the proxy packs {proxy, txn_seq, slot, generation}
  // into its 24 bytes — see Proxy.
  using Arrival = InlineCallback<void(), 24>;

  CertifierChannel(Simulator* sim, bool batch_arrivals)
      : sim_(sim), batch_(batch_arrivals) {}

  CertifierChannel(const CertifierChannel&) = delete;
  CertifierChannel& operator=(const CertifierChannel&) = delete;

  // Schedules `fn` to run `delay` from now. With batching on, arrivals for
  // the same tick share one simulator event; with it off, every arrival is
  // its own event (the pre-batching behavior). `sender` is the submitting
  // replica's index; with faults armed, the message may be dropped (by the
  // plan's draws or by a partition window on `sender`), delayed, or
  // duplicated first.
  void ScheduleArrival(SimDuration delay, Arrival fn, uint32_t sender);

  // Installs the fault plan and its seeded draw stream. A plan that is not
  // armed() leaves the channel byte-inert.
  void ArmFaults(FaultPlan plan, Rng rng);
  // Adds one partition window (arming the channel if needed). No draws are
  // ever spent on partitions, so this is usable on any cluster mid-run.
  void AddPartition(uint32_t sender, SimTime from, SimTime to);
  bool faults_armed() const { return faulty_; }
  const ChannelFaultStats& fault_stats() const { return fault_stats_; }

  // Events actually scheduled vs arrivals submitted; the difference is the
  // group-commit saving. Dropped messages count as neither; a duplicate
  // counts as a second arrival.
  uint64_t arrivals() const { return arrivals_; }
  uint64_t events_scheduled() const { return events_; }

 private:
  struct Batch {
    SimTime when = 0;
    std::vector<Arrival> fns;
  };
  // A duplicated message parks its (move-only) handler here; two scheduled
  // deliveries invoke it through the slot, the second one frees it.
  struct DupSlot {
    Arrival fn;
    int remaining = 0;
  };

  // Delivery of a surviving message (batching or per-arrival event).
  void Deliver(SimDuration delay, Arrival fn);
  // Applies the armed plan to one message, then Delivers the survivors.
  void InjectFaults(SimDuration delay, Arrival fn, uint32_t sender);
  bool InPartition(uint32_t sender, SimTime now) const;
  SimDuration MaybeExtraDelay();
  void FireDup(uint32_t slot);
  void Fire();

  Simulator* sim_;
  bool batch_;
  // Batches with a scheduled event, earliest first (arrival ticks are
  // non-decreasing: submissions use a fixed RTT and simulated time is
  // monotonic; a clock-order violation simply opens a fresh batch).
  std::deque<Batch> open_;
  std::vector<std::vector<Arrival>> spare_;  // recycled capture vectors
  uint64_t arrivals_ = 0;
  uint64_t events_ = 0;

  bool faulty_ = false;
  FaultPlan plan_;
  Rng fault_rng_{0};
  Slab<DupSlot> dup_slab_;
  ChannelFaultStats fault_stats_;
};

}  // namespace tashkent

#endif  // SRC_CERTIFIER_CHANNEL_H_
