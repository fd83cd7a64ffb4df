#include "src/cluster/sink.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/cluster/report.h"

namespace tashkent {

// --- ConsoleSink -------------------------------------------------------------

void ConsoleSink::Begin(const std::string& bench, const std::string& setup) {
  PrintHeader(bench, setup);
}

void ConsoleSink::AddRun(const RunRecord& record) {
  PrintTpsRow(record.label, record.paper_tps, record.result.tps,
              record.result.mean_response_s);
  if (record.paper_write_kb > 0.0 || record.paper_read_kb > 0.0) {
    PrintIoRow(record.label, record.paper_write_kb, record.paper_read_kb,
               record.result.write_kb_per_txn, record.result.read_kb_per_txn);
  }
  if (record.result.rejected > 0 || record.result.recoveries > 0) {
    PrintAvailabilityRow(record.label, record.result.availability,
                         record.result.recovery_lag_s, record.result.replay_applied,
                         record.result.replay_filtered);
  }
}

void ConsoleSink::AddRatio(const std::string& label, double paper, double measured) {
  PrintRatio(label, paper, measured);
}

void ConsoleSink::AddScalar(const std::string& key, double value) {
  std::printf("   %-40s %10.2f\n", key.c_str(), value);
}

void ConsoleSink::AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
  std::printf("\n%s:\n", label.c_str());
  PrintGroups(groups);
}

void ConsoleSink::AddTimeline(const std::string& label, const std::vector<double>& buckets,
                              SimDuration bucket_width) {
  const double width_s = ToSeconds(bucket_width);
  std::printf("\n%s (%.0f s buckets, tps):\n", label.c_str(), width_s);
  for (size_t i = 0; i < buckets.size(); i += 4) {
    std::printf("  t=%5.0fs  %6.1f tps\n", static_cast<double>(i) * width_s,
                buckets[i] / width_s);
  }
}

void ConsoleSink::Note(const std::string& text) { std::printf("%s\n", text.c_str()); }

// --- JsonSink ----------------------------------------------------------------

namespace {

void AppendEscaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

// max_digits10 so every double round-trips through the text exactly.
void AppendNumber(std::ostringstream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10, v);
  out << buf;
}

// One run-record column value, by metric type.
void AppendMetric(std::ostringstream& out, double v) { AppendNumber(out, v); }
void AppendMetric(std::ostringstream& out, uint64_t v) { out << v; }
void AppendMetric(std::ostringstream& out, bool v) { out << (v ? "true" : "false"); }

void AppendGroups(std::ostringstream& out, const std::vector<GroupReport>& groups) {
  out << '[';
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) {
      out << ',';
    }
    out << "{\"replicas\":" << groups[g].replicas << ",\"types\":[";
    for (size_t t = 0; t < groups[g].types.size(); ++t) {
      if (t > 0) {
        out << ',';
      }
      AppendEscaped(out, groups[g].types[t]);
    }
    out << "]}";
  }
  out << ']';
}

}  // namespace

void JsonSink::Begin(const std::string& bench, const std::string& setup) {
  bench_ = bench;
  setup_ = setup;
}

void JsonSink::AddRun(const RunRecord& record) { runs_.push_back(record); }

void JsonSink::AddRatio(const std::string& label, double paper, double measured) {
  ratios_.push_back({label, paper, measured});
}

void JsonSink::AddScalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

void JsonSink::AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
  groups_.emplace_back(label, groups);
}

void JsonSink::AddTimeline(const std::string& label, const std::vector<double>& buckets,
                           SimDuration bucket_width) {
  timelines_.push_back({label, buckets, ToSeconds(bucket_width)});
}

void JsonSink::Note(const std::string& text) { notes_.push_back(text); }

std::string JsonSink::Render() const {
  std::ostringstream out;
  out << "{\n  \"bench\": ";
  AppendEscaped(out, bench_);
  out << ",\n  \"setup\": ";
  AppendEscaped(out, setup_);
  out << ",\n  \"runs\": [";
  for (size_t i = 0; i < runs_.size(); ++i) {
    const RunRecord& r = runs_[i];
    out << (i > 0 ? ",\n    {" : "\n    {");
    out << "\"label\": ";
    AppendEscaped(out, r.label);
    out << ", \"policy\": ";
    AppendEscaped(out, r.policy);
    out << ", \"workload\": ";
    AppendEscaped(out, r.workload);
    out << ", \"mix\": ";
    AppendEscaped(out, r.mix);
    out << ", \"paper_tps\": ";
    AppendNumber(out, r.paper_tps);
    out << ", \"paper_write_kb\": ";
    AppendNumber(out, r.paper_write_kb);
    out << ", \"paper_read_kb\": ";
    AppendNumber(out, r.paper_read_kb);
#define TASHKENT_RENDER_METRIC(type, name, init) \
  out << ", \"" #name "\": ";                    \
  AppendMetric(out, r.result.name);
    TASHKENT_RUN_METRICS(TASHKENT_RENDER_METRIC)
#undef TASHKENT_RENDER_METRIC
    out << ", \"groups\": ";
    AppendGroups(out, r.result.groups);
    out << '}';
  }
  out << "\n  ],\n  \"ratios\": [";
  for (size_t i = 0; i < ratios_.size(); ++i) {
    out << (i > 0 ? ", {" : "{") << "\"label\": ";
    AppendEscaped(out, ratios_[i].label);
    out << ", \"paper\": ";
    AppendNumber(out, ratios_[i].paper);
    out << ", \"measured\": ";
    AppendNumber(out, ratios_[i].measured);
    out << '}';
  }
  out << "],\n  \"scalars\": {";
  for (size_t i = 0; i < scalars_.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    AppendEscaped(out, scalars_[i].first);
    out << ": ";
    AppendNumber(out, scalars_[i].second);
  }
  out << "},\n  \"groupings\": [";
  for (size_t i = 0; i < groups_.size(); ++i) {
    out << (i > 0 ? ", {" : "{") << "\"label\": ";
    AppendEscaped(out, groups_[i].first);
    out << ", \"groups\": ";
    AppendGroups(out, groups_[i].second);
    out << '}';
  }
  out << "],\n  \"timelines\": [";
  for (size_t i = 0; i < timelines_.size(); ++i) {
    out << (i > 0 ? ", {" : "{") << "\"label\": ";
    AppendEscaped(out, timelines_[i].label);
    out << ", \"bucket_s\": ";
    AppendNumber(out, timelines_[i].bucket_s);
    out << ", \"buckets\": [";
    for (size_t b = 0; b < timelines_[i].buckets.size(); ++b) {
      if (b > 0) {
        out << ',';
      }
      AppendNumber(out, timelines_[i].buckets[b]);
    }
    out << "]}";
  }
  out << "],\n  \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    AppendEscaped(out, notes_[i]);
  }
  out << "]";
  if (cells_.is_array()) {
    // Host-side timing block, appended last so the deterministic prefix of
    // the document is unchanged by its presence (see the schema note in
    // sink.h).
    out << ",\n  \"cells\": " << cells_.Dump(0);
  }
  out << "\n}\n";
  return out.str();
}

void JsonSink::Finish() {
  if (written_) {
    return;
  }
  written_ = true;
  std::ofstream file(path_);
  file << Render();
  file.flush();
  write_ok_ = static_cast<bool>(file);
  if (!write_ok_) {
    std::fprintf(stderr, "JsonSink: failed to write %s\n", path_.c_str());
  }
}

// --- SinkList ----------------------------------------------------------------

void SinkList::Begin(const std::string& bench, const std::string& setup) {
  for (auto& s : sinks_) {
    s->Begin(bench, setup);
  }
}

void SinkList::AddRun(const RunRecord& record) {
  for (auto& s : sinks_) {
    s->AddRun(record);
  }
}

void SinkList::AddRatio(const std::string& label, double paper, double measured) {
  for (auto& s : sinks_) {
    s->AddRatio(label, paper, measured);
  }
}

void SinkList::AddScalar(const std::string& key, double value) {
  for (auto& s : sinks_) {
    s->AddScalar(key, value);
  }
}

void SinkList::AddGroups(const std::string& label, const std::vector<GroupReport>& groups) {
  for (auto& s : sinks_) {
    s->AddGroups(label, groups);
  }
}

void SinkList::AddTimeline(const std::string& label, const std::vector<double>& buckets,
                           SimDuration bucket_width) {
  for (auto& s : sinks_) {
    s->AddTimeline(label, buckets, bucket_width);
  }
}

void SinkList::Note(const std::string& text) {
  for (auto& s : sinks_) {
    s->Note(text);
  }
}

void SinkList::Finish() {
  for (auto& s : sinks_) {
    s->Finish();
  }
}

}  // namespace tashkent
