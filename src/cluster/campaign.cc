#include "src/cluster/campaign.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/common/worker_pool.h"

namespace tashkent {

namespace {

double SinceSeconds(std::chrono::steady_clock::time_point start) {
  // lint: allow(wall-clock) host wall_s measurement only; never feeds simulation state
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Writes `doc` pretty-printed to `path`; returns the path, or "" (with a
// note on stderr) when the write failed.
std::string WriteJson(const std::string& path, const json::Value& doc) {
  std::ofstream file(path);
  file << doc.Dump(2);
  if (!file.flush()) {
    std::fprintf(stderr, "campaign: failed to write %s\n", path.c_str());
    return "";
  }
  return path;
}

}  // namespace

uint64_t CellSeed(const std::string& campaign, const std::string& cell_id,
                  uint64_t base_seed) {
  // FNV-1a 64 over the two coordinates, each length-prefixed: cell ids may
  // themselves contain '/', so a flat "campaign/cell_id" join would collide
  // ("a", "b/c") with ("a/b", "c").
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    uint64_t len = s.size();
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(len >> (8 * i));
      h *= 1099511628211ull;
    }
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(campaign);
  mix(cell_id);
  // splitmix64 finalizer over hash + base seed: decorrelates nearby seeds.
  uint64_t z = h + 0x9e3779b97f4a7c15ull * (base_seed + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- CampaignOutputs ---------------------------------------------------------

CampaignOutputs::CampaignOutputs(const std::vector<CellRecord>& cells) {
  for (const CellRecord& cell : cells) {
    by_id_.emplace(cell.id, &cell);
  }
}

const CellOutput& CampaignOutputs::Get(const std::string& id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    throw std::invalid_argument("campaign has no cell '" + id + "'");
  }
  if (!it->second->ok) {
    throw std::runtime_error("cell '" + id + "' failed: " + it->second->error);
  }
  return it->second->output;
}

bool CampaignOutputs::Ok(const std::string& id) const {
  auto it = by_id_.find(id);
  return it != by_id_.end() && it->second->ok;
}

// --- Runner ------------------------------------------------------------------

namespace {

// A cell tagged with the campaign it belongs to, flattened into the shared
// work list.
struct FlatCell {
  size_t campaign_index;
  size_t cell_index;  // within the campaign, expansion order
  CampaignCell cell;
};

void ValidateUniqueIds(const Campaign& campaign, const std::vector<CampaignCell>& cells) {
  std::map<std::string, size_t> seen;
  for (const CampaignCell& cell : cells) {
    if (cell.id.empty()) {
      throw std::invalid_argument("campaign '" + campaign.name + "' has a cell with an empty id");
    }
    if (!seen.emplace(cell.id, 1).second) {
      throw std::invalid_argument("campaign '" + campaign.name + "' expands duplicate cell id '" +
                                  cell.id + "'");
    }
  }
}

// mkdir -p: creates the output directory (and parents) so `--json out/` works
// without a prior manual mkdir. Errors surface later as file-write failures.
void MakeDirs(const std::string& dir) {
  if (dir.empty() || dir == ".") {
    return;
  }
  std::string partial;
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      if (!partial.empty()) {
        ::mkdir(partial.c_str(), 0755);  // EEXIST is the common, fine case
      }
    }
    if (i < dir.size()) {
      partial.push_back(dir[i]);
    }
  }
}

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty() || dir == ".") {
    return file;
  }
  if (dir.back() == '/') {
    return dir + file;
  }
  return dir + "/" + file;
}

// Events/sec guarded against zero wall time (instant cells).
double EventRate(uint64_t events, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
}

}  // namespace

json::Value ManifestJson(const CampaignRunSummary& summary) {
  json::Value doc = json::Value::Object();
  doc.Set("schema", "tashkent-campaign-manifest-v1");
  doc.Set("jobs", static_cast<double>(summary.jobs));
  doc.Set("base_seed", std::to_string(summary.base_seed));
  doc.Set("wall_s", summary.wall_s);
  doc.Set("failed_cells", static_cast<double>(summary.failed_cells));
  uint64_t total_events = 0;
  double total_cell_wall = 0.0;
  json::Value campaigns = json::Value::Array();
  for (const CampaignRunRecord& run : summary.campaigns) {
    json::Value c = json::Value::Object();
    c.Set("name", run.campaign->name);
    c.Set("figure", run.campaign->figure);
    c.Set("title", run.campaign->title);
    if (!run.json_path.empty()) {
      // Relative to the manifest's own directory, where every document is
      // written, so the manifest does not depend on the --json argument.
      c.Set("json", run.json_path.substr(run.json_path.find_last_of('/') + 1));
    }
    if (!run.report_error.empty()) {
      c.Set("report_error", run.report_error);
    }
    c.Set("wall_s", run.wall_s);
    uint64_t campaign_events = 0;
    json::Value cells = json::Value::Array();
    for (const CellRecord& cell : run.cells) {
      json::Value j = json::Value::Object();
      j.Set("id", cell.id);
      // Decimal string: uint64 seeds don't fit a JSON double exactly.
      j.Set("seed", std::to_string(cell.seed));
      j.Set("ok", cell.ok);
      if (!cell.ok) {
        j.Set("error", cell.error);
      }
      j.Set("wall_s", cell.wall_s);
      j.Set("executed_events", static_cast<double>(cell.output.executed_events));
      j.Set("events_per_s", EventRate(cell.output.executed_events, cell.wall_s));
      campaign_events += cell.output.executed_events;
      cells.Append(std::move(j));
    }
    c.Set("executed_events", static_cast<double>(campaign_events));
    c.Set("events_per_s", EventRate(campaign_events, run.wall_s));
    c.Set("cells", std::move(cells));
    total_events += campaign_events;
    total_cell_wall += run.wall_s;
    campaigns.Append(std::move(c));
  }
  // Run-wide kernel throughput: simulated events per host CPU-second summed
  // over cells (jobs-independent), the number future PRs track for perf
  // regressions.
  doc.Set("executed_events", static_cast<double>(total_events));
  doc.Set("events_per_s", EventRate(total_events, total_cell_wall));
  doc.Set("campaigns", std::move(campaigns));
  return doc;
}

CampaignRunSummary RunCampaigns(const std::vector<const Campaign*>& campaigns,
                                const CampaignRunOptions& options) {
  // lint: allow(wall-clock) run wall_s measurement only; never feeds simulation state
  const auto run_start = std::chrono::steady_clock::now();

  CampaignRunSummary summary;
  summary.jobs = options.jobs;
  summary.base_seed = options.base_seed;
  summary.campaigns.resize(campaigns.size());
  if (!options.json_dir.empty()) {
    MakeDirs(options.json_dir);
  }
  // Expand every campaign's grid up front (and fail fast on duplicate ids)
  // so the pool sees one flat, globally parallel work list.
  std::vector<FlatCell> work;
  for (size_t ci = 0; ci < campaigns.size(); ++ci) {
    const Campaign& campaign = *campaigns[ci];
    std::vector<CampaignCell> cells = campaign.cells ? campaign.cells() : std::vector<CampaignCell>{};
    ValidateUniqueIds(campaign, cells);
    CampaignRunRecord& record = summary.campaigns[ci];
    record.campaign = &campaign;
    record.cells.resize(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      record.cells[i].id = cells[i].id;
      record.cells[i].seed = CellSeed(campaign.name, cells[i].id, options.base_seed);
      work.push_back(FlatCell{ci, i, std::move(cells[i])});
    }
  }

  // Execute. Each worker writes only its own pre-sized record slot; the
  // progress line is the one shared write, behind a mutex.
  std::mutex progress_mu;
  size_t done = 0;
  ParallelFor(options.jobs, work.size(), [&](size_t w) {
    const FlatCell& flat = work[w];
    CellRecord& record = summary.campaigns[flat.campaign_index].cells[flat.cell_index];
    // lint: allow(wall-clock) cell wall_s measurement only; never feeds simulation state
    const auto cell_start = std::chrono::steady_clock::now();
    try {
      record.output = flat.cell.run(record.seed);
      record.ok = true;
    } catch (const std::exception& e) {
      record.error = e.what();
    } catch (...) {
      record.error = "unknown exception";
    }
    record.wall_s = SinceSeconds(cell_start);
    if (options.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++done;
      std::fprintf(stderr, "[%3zu/%3zu] %s/%s %s (%.1fs)\n", done, work.size(),
                   summary.campaigns[flat.campaign_index].campaign->name.c_str(),
                   record.id.c_str(), record.ok ? "ok" : "FAILED", record.wall_s);
      if (!record.ok) {
        std::fprintf(stderr, "          %s\n", record.error.c_str());
      }
    }
  });

  // Report stage: main thread, selection order — byte-stable output.
  for (CampaignRunRecord& record : summary.campaigns) {
    const Campaign& campaign = *record.campaign;
    double cells_wall = 0.0;
    int campaign_failed_cells = 0;
    for (const CellRecord& cell : record.cells) {
      cells_wall += cell.wall_s;
      if (!cell.ok) {
        ++campaign_failed_cells;
      }
    }
    record.wall_s = cells_wall;
    summary.failed_cells += campaign_failed_cells;

    ResultSink sink;
    if (campaign.report) {
      try {
        campaign.report(CampaignOutputs(record.cells), sink);
      } catch (const std::exception& e) {
        record.report_error = e.what();
        sink.Note(std::string("report aborted: ") + record.report_error);
        // A report that aborts because CampaignOutputs::Get hit a failed
        // cell is already accounted for above; only a report that throws
        // with every cell green is a new failure.
        if (campaign_failed_cells == 0) {
          ++summary.failed_cells;
        }
      }
    }
    PrintConsole(sink);
    if (!options.json_dir.empty()) {
      const std::string path = JoinPath(options.json_dir, "BENCH_" + campaign.name + ".json");
      record.json_path = WriteJson(path, ToJson(sink));
    }
  }

  summary.wall_s = SinceSeconds(run_start);

  if (!options.json_dir.empty()) {
    summary.manifest_path =
        WriteJson(JoinPath(options.json_dir, "BENCH_campaign.json"), ManifestJson(summary));
  }
  return summary;
}

CampaignRunRecord RunCampaign(const Campaign& campaign, const CampaignRunOptions& options) {
  CampaignRunSummary summary = RunCampaigns({&campaign}, options);
  return std::move(summary.campaigns.front());
}

// --- CampaignRegistry --------------------------------------------------------

CampaignRegistry& CampaignRegistry::Instance() {
  static CampaignRegistry registry;
  return registry;
}

void CampaignRegistry::Register(Campaign campaign) {
  if (campaign.name.empty()) {
    throw std::invalid_argument("campaign name must not be empty");
  }
  campaigns_[campaign.name] = std::move(campaign);
}

const Campaign* CampaignRegistry::Find(const std::string& name) const {
  auto it = campaigns_.find(name);
  return it == campaigns_.end() ? nullptr : &it->second;
}

std::vector<std::string> CampaignRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(campaigns_.size());
  for (const auto& [name, campaign] : campaigns_) {
    (void)campaign;
    names.push_back(name);
  }
  return names;
}

}  // namespace tashkent
