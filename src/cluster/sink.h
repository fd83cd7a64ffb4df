// Structured experiment output: ResultSink and its Console / JSON backends.
//
// Every bench records its results as structured events — runs (one policy on
// one configuration), ratios, scalars, groupings, timelines, free-form notes
// — against a ResultSink. ConsoleSink renders them through the report.h
// table printers (the paper-vs-measured tables the reproduction is judged
// on); JsonSink accumulates everything and writes a BENCH_<name>.json record
// that the perf harness tracks across PRs. SinkList fans out to several
// sinks so a bench emits the console table and the JSON file from the same
// calls.
//
// JsonSink document schema (one JSON object per bench/campaign; every event
// type maps to one top-level key, arrays in emission order):
//
//   {
//     "bench":  <Begin title>,
//     "setup":  <Begin setup line>,
//     "runs":   [{"label", "policy", "workload", "mix",
//                 "paper_tps", "paper_write_kb", "paper_read_kb",   // 0 = no reference
//                 <TASHKENT_RUN_METRICS columns>,                    // src/cluster/cluster.h,
//                                                                    // in list order (glossary:
//                                                                    // docs/OPERATIONS.md)
//                 "groups": [{"replicas": N, "types": [name...]}]}],
//     "ratios": [{"label", "paper", "measured"}],
//     "scalars": {<key>: <value>, ...},                              // AddScalar calls
//     "groupings": [{"label", "groups": [{"replicas", "types"}]}],
//     "timelines": [{"label", "bucket_s",
//                    "buckets": [committed-per-bucket...]}],         // divide by bucket_s for tps
//     "notes":  [<string>...],
//     "cells":  [{"id", "seed", "ok", "wall_s", "executed_events",   // host-side per-cell
//                 "events_per_s"}]                                   // timing (campaign runs
//   }                                                                // only; see below)
//
// The "cells" block is host-side timing metadata injected by the campaign
// runner (SetCells): wall-clock seconds and simulator-event counts per cell.
// Unlike every other key it is NOT deterministic across hosts or runs, so
// determinism comparisons (tests/golden_digest_test.cc, REPRODUCING.md's
// byte-identity claim) strip it before diffing documents.
//
// Doubles are rendered with max_digits10, so the document parses back to
// exactly the measured values (src/common/json.h round-trips it); strings
// are escaped per JSON with control characters as \u00XX. Consumers should
// tolerate new keys appearing in future PRs.
#ifndef SRC_CLUSTER_SINK_H_
#define SRC_CLUSTER_SINK_H_

#include <memory>
#include <string>
#include <utility>
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

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  // Starts a bench section (title + setup line).
  virtual void Begin(const std::string& bench, const std::string& setup) {
    (void)bench;
    (void)setup;
  }
  virtual void AddRun(const RunRecord& record) = 0;
  virtual void AddRatio(const std::string& label, double paper, double measured) {
    (void)label;
    (void)paper;
    (void)measured;
  }
  // Free-form named numeric result (sweep cells, group counts, speedups).
  virtual void AddScalar(const std::string& key, double value) {
    (void)key;
    (void)value;
  }
  virtual void AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
    (void)label;
    (void)groups;
  }
  virtual void AddTimeline(const std::string& label, const std::vector<double>& buckets,
                           SimDuration bucket_width) {
    (void)label;
    (void)buckets;
    (void)bucket_width;
  }
  virtual void Note(const std::string& text) { (void)text; }
  // Flushes the sink (JsonSink writes its file here). Idempotent.
  virtual void Finish() {}
};

// Renders events through the report.h console printers.
class ConsoleSink : public ResultSink {
 public:
  void Begin(const std::string& bench, const std::string& setup) override;
  void AddRun(const RunRecord& record) override;
  void AddRatio(const std::string& label, double paper, double measured) override;
  void AddScalar(const std::string& key, double value) override;
  void AddGroups(const std::string& label, const std::vector<GroupReport>& groups) override;
  void AddTimeline(const std::string& label, const std::vector<double>& buckets,
                   SimDuration bucket_width) override;
  void Note(const std::string& text) override;
};

// Accumulates events and writes one JSON document on Finish().
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(std::string path) : path_(std::move(path)) {}
  ~JsonSink() override { Finish(); }

  void Begin(const std::string& bench, const std::string& setup) override;
  void AddRun(const RunRecord& record) override;
  void AddRatio(const std::string& label, double paper, double measured) override;
  void AddScalar(const std::string& key, double value) override;
  void AddGroups(const std::string& label, const std::vector<GroupReport>& groups) override;
  void AddTimeline(const std::string& label, const std::vector<double>& buckets,
                   SimDuration bucket_width) override;
  void Note(const std::string& text) override;
  void Finish() override;

  // Installs the host-side per-cell timing block ("cells" key; campaign
  // runner only). Must be a json array; rendered verbatim at the end of the
  // document so the deterministic prefix stays byte-stable.
  void SetCells(json::Value cells) { cells_ = std::move(cells); }

  const std::string& path() const { return path_; }
  // True once Finish() has written the file successfully.
  bool write_ok() const { return written_ && write_ok_; }
  // The document that Finish() writes (exposed for tests).
  std::string Render() const;

 private:
  struct Ratio {
    std::string label;
    double paper;
    double measured;
  };
  struct Timeline {
    std::string label;
    std::vector<double> buckets;
    double bucket_s;
  };

  std::string path_;
  std::string bench_;
  std::string setup_;
  std::vector<RunRecord> runs_;
  std::vector<Ratio> ratios_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::vector<GroupReport>>> groups_;
  std::vector<Timeline> timelines_;
  std::vector<std::string> notes_;
  json::Value cells_;  // null until SetCells; then the "cells" array
  bool written_ = false;
  bool write_ok_ = false;
};

// Forwards every event to each registered sink.
class SinkList : public ResultSink {
 public:
  void Add(std::unique_ptr<ResultSink> sink) { sinks_.push_back(std::move(sink)); }
  size_t size() const { return sinks_.size(); }

  void Begin(const std::string& bench, const std::string& setup) override;
  void AddRun(const RunRecord& record) override;
  void AddRatio(const std::string& label, double paper, double measured) override;
  void AddScalar(const std::string& key, double value) override;
  void AddGroups(const std::string& label, const std::vector<GroupReport>& groups) override;
  void AddTimeline(const std::string& label, const std::vector<double>& buckets,
                   SimDuration bucket_width) override;
  void Note(const std::string& text) override;
  void Finish() override;

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_SINK_H_
