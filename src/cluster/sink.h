// Structured experiment output: ResultSink records, two renderers read.
//
// Every campaign report records its results as structured events — runs (one
// policy on one configuration), ratios, scalars, groupings, timelines,
// free-form notes — against a ResultSink, which appends each call to one
// ordered event list. Two free functions render that list: PrintConsole
// prints the paper-vs-measured tables the reproduction is judged on, in call
// order; ToJson builds the BENCH_<name>.json document that the perf harness
// tracks across PRs.
//
// Document schema (one JSON object per campaign; every event type maps to one
// top-level key, arrays in call order; written by json::Value::Dump(2)):
//
//   {
//     "bench":  <first Begin's title>,                               // later Begins open
//     "setup":  <first Begin's setup line>,                          // console sections
//     "runs":   [{"label", "policy", "workload", "mix",
//                 "paper_tps", "paper_write_kb", "paper_read_kb",   // 0 = no reference
//                 <TASHKENT_RUN_METRICS columns>,                    // src/cluster/cluster.h,
//                                                                    // in list order (glossary:
//                                                                    // docs/OPERATIONS.md)
//                 "groups": [{"replicas": N, "types": [name...]}]}],
//     "ratios": [{"label", "paper", "measured"}],
//     "scalars": {<key>: <value>, ...},                              // AddScalar calls, one per key
//     "groupings": [{"label", "groups": [{"replicas", "types"}]}],
//     "timelines": [{"label", "bucket_s",
//                    "buckets": [committed-per-bucket...]}],         // divide by bucket_s for tps
//     "notes":  [<string>...]
//   }
//
// Every key is simulated, so a build writes the same bytes for the same seed
// at any --jobs. Host timing (wall seconds and events per cell) lives only in
// the campaign manifest, BENCH_campaign.json (see campaign.h).
//
// Numbers go through json::Value: doubles render with max_digits10, so the
// document parses back to exactly the measured values; uint64_t metrics are
// stored as doubles (exact below 2^53); non-finite values render as null.
// Consumers should tolerate new keys appearing in future PRs.
#ifndef SRC_CLUSTER_SINK_H_
#define SRC_CLUSTER_SINK_H_

#include <set>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "src/common/json.h"
#include "src/cluster/cluster.h"

namespace tashkent {

// One experiment run: a label (the table row), the configuration coordinates
// (policy / workload / mix), optional paper reference numbers, and the
// measured result.
struct RunRecord {
  std::string label;
  std::string policy;    // PolicyRegistry name; empty when not policy-driven
  std::string workload;  // e.g. "TPC-W"
  std::string mix;       // e.g. "ordering"
  double paper_tps = 0.0;       // 0 = no published reference
  double paper_write_kb = 0.0;  // 0/0 = no published disk I/O reference
  double paper_read_kb = 0.0;
  ExperimentResult result;
};

// The recorded events, one kind per ResultSink call (AddRun records the
// RunRecord itself).
struct HeaderEvent {
  std::string bench;
  std::string setup;
};
struct RatioEvent {
  std::string label;
  double paper;
  double measured;
};
struct ScalarEvent {
  std::string key;
  double value;
};
struct GroupsEvent {
  std::string label;
  std::vector<GroupReport> groups;
};
// Committed transactions per kTimelineBucket.
struct TimelineEvent {
  std::string label;
  std::vector<double> buckets;
};
struct NoteEvent {
  std::string text;
};
using SinkEvent = std::variant<HeaderEvent, RunRecord, RatioEvent, ScalarEvent, GroupsEvent,
                               TimelineEvent, NoteEvent>;

class ResultSink {
 public:
  // Starts a bench section (title + setup line). The first one names the
  // document; a later one opens a console section of the same document.
  void Begin(const std::string& bench, const std::string& setup) {
    events_.push_back(HeaderEvent{bench, setup});
  }
  void AddRun(const RunRecord& record) { events_.push_back(record); }
  void AddRatio(const std::string& label, double paper, double measured) {
    events_.push_back(RatioEvent{label, paper, measured});
  }
  // Free-form named numeric result (sweep cells, group counts, speedups).
  // Throws std::logic_error when `key` was already added: the document keys
  // scalars by name, so a second value would silently replace the first.
  void AddScalar(const std::string& key, double value) {
    if (!scalar_keys_.insert(key).second) {
      throw std::logic_error("ResultSink: duplicate scalar key '" + key + "'");
    }
    events_.push_back(ScalarEvent{key, value});
  }
  void AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
    events_.push_back(GroupsEvent{label, groups});
  }
  void AddTimeline(const std::string& label, const std::vector<double>& buckets) {
    events_.push_back(TimelineEvent{label, buckets});
  }
  void Note(const std::string& text) { events_.push_back(NoteEvent{text}); }

  // Every recorded call, in call order.
  const std::vector<SinkEvent>& events() const { return events_; }

 private:
  std::vector<SinkEvent> events_;
  std::set<std::string> scalar_keys_;
};

// Prints the events to stdout in call order: a header per Begin, a
// paper-vs-measured row per run (plus disk I/O and churn rows when the run
// has them), ratio / scalar lines, grouping tables, timelines and notes.
void PrintConsole(const ResultSink& sink);

// The result document of the schema above.
json::Value ToJson(const ResultSink& sink);

}  // namespace tashkent

#endif  // SRC_CLUSTER_SINK_H_
