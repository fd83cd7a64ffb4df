#include "src/cluster/sink.h"

#include <cstdio>
#include <utility>

namespace tashkent {

namespace {

// --- Console -----------------------------------------------------------------

struct ConsolePrinter {
  void operator()(const HeaderEvent& e) const {
    std::printf("\n== %s ==\n", e.bench.c_str());
    if (!e.setup.empty()) {
      std::printf("   %s\n", e.setup.c_str());
    }
    std::printf("%-28s %12s %12s %12s\n", "method", "paper(tps)", "measured", "resp(s)");
  }

  void operator()(const RunRecord& r) const {
    const ExperimentResult& m = r.result;
    std::printf("%-28s %12.1f %12.1f %12.2f\n", r.label.c_str(), r.paper_tps, m.tps,
                m.mean_response_s);
    if (r.paper_write_kb > 0.0 || r.paper_read_kb > 0.0) {
      std::printf("%-28s  paper(W/R) %5.1f/%6.1f KB   measured %5.1f/%6.1f KB\n",
                  r.label.c_str(), r.paper_write_kb, r.paper_read_kb, m.write_kb_per_txn,
                  m.read_kb_per_txn);
    }
    // Churn row (glossary: docs/OPERATIONS.md), only for runs that saw
    // rejections or completed recoveries.
    if (m.rejected > 0 || m.recoveries > 0) {
      std::printf(
          "%-28s  avail %6.2f%%   recovery lag %6.1f s   replay %llu applied / %llu filtered\n",
          r.label.c_str(), m.availability * 100.0, m.recovery_lag_s,
          static_cast<unsigned long long>(m.replay_applied),
          static_cast<unsigned long long>(m.replay_filtered));
    }
  }

  void operator()(const RatioEvent& e) const {
    std::printf("   ratio %-36s paper %5.2fx   measured %5.2fx\n", e.label.c_str(), e.paper,
                e.measured);
  }

  void operator()(const ScalarEvent& e) const {
    std::printf("   %-40s %10.2f\n", e.key.c_str(), e.value);
  }

  void operator()(const GroupsEvent& e) const {
    std::printf("\n%s:\n", e.label.c_str());
    std::printf("%-70s %s\n", "transaction group", "replicas");
    for (const GroupReport& g : e.groups) {
      std::string types = "[";
      for (size_t i = 0; i < g.types.size(); ++i) {
        if (i > 0) {
          types += ", ";
        }
        types += g.types[i];
      }
      types += "]";
      std::printf("%-70s %8d\n", types.c_str(), g.replicas);
    }
  }

  void operator()(const TimelineEvent& e) const {
    const double width_s = ToSeconds(kTimelineBucket);
    std::printf("\n%s (%.0f s buckets, tps):\n", e.label.c_str(), width_s);
    for (size_t i = 0; i < e.buckets.size(); i += 4) {
      std::printf("  t=%5.0fs  %6.1f tps\n", static_cast<double>(i) * width_s,
                  e.buckets[i] / width_s);
    }
  }

  void operator()(const NoteEvent& e) const { std::printf("%s\n", e.text.c_str()); }
};

// --- JSON --------------------------------------------------------------------

json::Value GroupsJson(const std::vector<GroupReport>& groups) {
  json::Value out = json::Value::Array();
  for (const GroupReport& g : groups) {
    json::Value types = json::Value::Array();
    for (const std::string& t : g.types) {
      types.Append(t);
    }
    json::Value group = json::Value::Object();
    group.Set("replicas", g.replicas);
    group.Set("types", std::move(types));
    out.Append(std::move(group));
  }
  return out;
}

// One run-record column value, by metric type.
json::Value MetricJson(double v) { return v; }
json::Value MetricJson(uint64_t v) { return static_cast<double>(v); }
json::Value MetricJson(bool v) { return v; }

// Collects each event kind under its top-level key.
struct JsonCollector {
  bool begun = false;
  std::string bench;
  std::string setup;
  json::Value runs = json::Value::Array();
  json::Value ratios = json::Value::Array();
  json::Value scalars = json::Value::Object();
  json::Value groupings = json::Value::Array();
  json::Value timelines = json::Value::Array();
  json::Value notes = json::Value::Array();

  void operator()(const HeaderEvent& e) {
    if (!begun) {
      begun = true;
      bench = e.bench;
      setup = e.setup;
    }
  }

  void operator()(const RunRecord& r) {
    json::Value run = json::Value::Object();
    run.Set("label", r.label);
    run.Set("policy", r.policy);
    run.Set("workload", r.workload);
    run.Set("mix", r.mix);
    run.Set("paper_tps", r.paper_tps);
    run.Set("paper_write_kb", r.paper_write_kb);
    run.Set("paper_read_kb", r.paper_read_kb);
#define TASHKENT_SET_METRIC(type, name, init) run.Set(#name, MetricJson(r.result.name));
    TASHKENT_RUN_METRICS(TASHKENT_SET_METRIC)
#undef TASHKENT_SET_METRIC
    run.Set("groups", GroupsJson(r.result.groups));
    runs.Append(std::move(run));
  }

  void operator()(const RatioEvent& e) {
    json::Value ratio = json::Value::Object();
    ratio.Set("label", e.label);
    ratio.Set("paper", e.paper);
    ratio.Set("measured", e.measured);
    ratios.Append(std::move(ratio));
  }

  void operator()(const ScalarEvent& e) { scalars.Set(e.key, e.value); }

  void operator()(const GroupsEvent& e) {
    json::Value grouping = json::Value::Object();
    grouping.Set("label", e.label);
    grouping.Set("groups", GroupsJson(e.groups));
    groupings.Append(std::move(grouping));
  }

  void operator()(const TimelineEvent& e) {
    json::Value buckets = json::Value::Array();
    for (double b : e.buckets) {
      buckets.Append(b);
    }
    json::Value timeline = json::Value::Object();
    timeline.Set("label", e.label);
    timeline.Set("bucket_s", ToSeconds(kTimelineBucket));
    timeline.Set("buckets", std::move(buckets));
    timelines.Append(std::move(timeline));
  }

  void operator()(const NoteEvent& e) { notes.Append(e.text); }
};

}  // namespace

void PrintConsole(const ResultSink& sink) {
  for (const SinkEvent& event : sink.events()) {
    std::visit(ConsolePrinter{}, event);
  }
}

json::Value ToJson(const ResultSink& sink) {
  JsonCollector c;
  for (const SinkEvent& event : sink.events()) {
    std::visit(c, event);
  }
  json::Value doc = json::Value::Object();
  doc.Set("bench", c.bench);
  doc.Set("setup", c.setup);
  doc.Set("runs", std::move(c.runs));
  doc.Set("ratios", std::move(c.ratios));
  doc.Set("scalars", std::move(c.scalars));
  doc.Set("groupings", std::move(c.groupings));
  doc.Set("timelines", std::move(c.timelines));
  doc.Set("notes", std::move(c.notes));
  return doc;
}

}  // namespace tashkent
