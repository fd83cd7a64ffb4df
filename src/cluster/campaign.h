// Campaign layer: declarative benchmark grids executed on a worker pool.
//
// The paper's evaluation is a grid — policy x workload x memory size x mix
// (Figures 3-10, Tables 1-5) — and each Cluster owns its own Simulator, so
// the grid is embarrassingly parallel. A Campaign declares that grid as a
// list of independent cells plus a report stage:
//
//   cells():  expands the sweep into CampaignCells. Each cell is one
//             self-contained unit of work (typically one ScenarioBuilder run)
//             identified by its grid coordinates ("malb-sc/ordering/512MB").
//   report(): runs on the main thread after every cell has finished and
//             renders the merged outputs through a ResultSink — cross-cell
//             ratios, paper-vs-measured tables, groupings.
//
// RunCampaigns executes the cells of all selected campaigns on one bounded
// std::thread pool (CampaignRunOptions::jobs) and then renders the reports
// in selection order.
//
// Determinism contract (tests/campaign_test.cc enforces it):
//   * Each cell receives a seed from CellSeed(campaign, cell_id, base_seed) —
//     a pure function of the grid coordinates. Execution order and thread
//     count never enter, so `--jobs N` and `--jobs 1` produce bit-identical
//     per-cell results.
//   * Cells must not share mutable state. The shared services they may touch
//     are individually thread-safe: CalibratedClients (mutex-guarded,
//     seed-normalized cache; see experiment.h) and PolicyRegistry /
//     CampaignRegistry reads (immutable after registration; register only
//     before RunCampaigns).
//   * Cell outputs are merged in expansion order, not completion order, so
//     reports and JSON files are byte-stable across thread schedules.
#ifndef SRC_CLUSTER_CAMPAIGN_H_
#define SRC_CLUSTER_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/cluster/scenario.h"
#include "src/cluster/sink.h"

namespace tashkent {

// Deterministic per-cell seed: FNV-1a over "campaign/cell_id" mixed with the
// base seed (splitmix64 finalizer). Distinct coordinates get decorrelated
// streams; the same coordinates always get the same seed.
uint64_t CellSeed(const std::string& campaign, const std::string& cell_id, uint64_t base_seed);

// Everything one grid cell produces. Built on a worker thread; read by the
// report stage on the main thread after the pool has joined.
struct CellOutput {
  // Display coordinates for RunRecord rows (filled by the bench helpers).
  std::string workload;  // e.g. "TPC-W"
  std::string mix;       // e.g. "ordering"
  std::string policy;    // PolicyRegistry name; "" for standalone runs

  // Labeled measure windows plus the whole-run timeline. Single-window cells
  // use the conventional label "measure".
  ScenarioResult scenario;
  // Free-form named numbers (working-set knees, group counts, speedups).
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::string> notes;
  // Simulator events the cell executed (the bench helpers fill it from the
  // scenario/standalone result); feeds the perf accounting in the manifest.
  uint64_t executed_events = 0;

  const ExperimentResult& Result(const std::string& label = "measure") const {
    return scenario.ByLabel(label);
  }
};

// One independent unit of work. `run` executes on a worker thread: it must
// derive all randomness from `seed` and touch no shared mutable state.
struct CampaignCell {
  std::string id;  // unique within the campaign; slash-joined grid coordinates
  std::function<CellOutput(uint64_t seed)> run;
};

// A cell after execution: output or error, plus timing for the manifest.
// wall_s and executed_events feed the manifest's per-cell perf rows, the one
// place host timing is written, so perf regressions can be tracked from the
// manifest alone across PRs.
struct CellRecord {
  std::string id;
  uint64_t seed = 0;
  bool ok = false;
  std::string error;   // what() of the escaped exception when !ok
  double wall_s = 0.0; // host wall-clock, not simulated time
  CellOutput output;
};

// Read-side view handed to Campaign::report: cell outputs keyed by id.
class CampaignOutputs {
 public:
  explicit CampaignOutputs(const std::vector<CellRecord>& cells);

  // The output of the named cell; throws std::invalid_argument when the id
  // is unknown and std::runtime_error (with the cell's error) when it failed.
  const CellOutput& Get(const std::string& id) const;
  // Shorthand for Get(id).Result(label).
  const ExperimentResult& Result(const std::string& id,
                                 const std::string& label = "measure") const {
    return Get(id).Result(label);
  }
  bool Ok(const std::string& id) const;

 private:
  std::map<std::string, const CellRecord*> by_id_;
};

// A named, registered benchmark campaign.
struct Campaign {
  std::string name;    // registry key and CLI name, e.g. "fig3"
  std::string figure;  // paper anchor: "Figure 3", "Table 1", "" for extras
  std::string title;   // console heading
  std::string setup;   // configuration line under the heading
  // Grid expansion; called once per run so cells can capture fresh state.
  std::function<std::vector<CampaignCell>()> cells;
  // Renders the merged outputs. Main thread, after all cells completed.
  std::function<void(const CampaignOutputs&, ResultSink&)> report;
};

struct CampaignRunOptions {
  int jobs = 1;            // worker threads for the shared cell pool
  uint64_t base_seed = 42; // mixed into every CellSeed
  std::string json_dir;    // when set: BENCH_<name>.json per campaign + manifest
  bool progress = true;    // per-cell progress lines on stderr
};

// One executed campaign: its cells in expansion order plus the JSON path.
struct CampaignRunRecord {
  const Campaign* campaign = nullptr;
  std::vector<CellRecord> cells;
  std::string json_path;      // empty when json_dir was not set or the write failed
  std::string report_error;   // what() when the report stage itself threw
  double wall_s = 0.0;
};

struct CampaignRunSummary {
  std::vector<CampaignRunRecord> campaigns;
  int jobs = 1;
  uint64_t base_seed = 42;
  double wall_s = 0.0;
  // Cells whose run threw, plus report stages that threw for any OTHER
  // reason (a report aborting on an already-failed cell is not re-counted).
  int failed_cells = 0;
  std::string manifest_path;  // BENCH_campaign.json when json_dir was set
};

// The manifest document (what BENCH_campaign.json contains): campaign ->
// cells with id/seed/status/wall time plus run-wide totals. Exposed so tests
// can round-trip it through json::Value::Parse.
json::Value ManifestJson(const CampaignRunSummary& summary);

// Expands every campaign's cells (validating id uniqueness per campaign —
// duplicates throw std::invalid_argument), executes all cells of all
// campaigns on one shared worker pool, records each campaign's report into a
// ResultSink and prints it (PrintConsole). When json_dir is set it also
// writes each report (ToJson) and the merged manifest. Cell failures are
// contained: they mark the record failed and the summary counts them, but
// other cells and campaigns still run.
CampaignRunSummary RunCampaigns(const std::vector<const Campaign*>& campaigns,
                                const CampaignRunOptions& options);

// As above for a single campaign.
CampaignRunRecord RunCampaign(const Campaign& campaign, const CampaignRunOptions& options);

// Process-wide campaign registry. Same lifecycle rules as PolicyRegistry:
// register at static-init time (RegisterCampaign at namespace scope) or at
// runtime before RunCampaigns; reads are lock-free and must not race writes.
class CampaignRegistry {
 public:
  static CampaignRegistry& Instance();

  // Registers (or replaces) a campaign under campaign.name.
  void Register(Campaign campaign);

  // nullptr when unknown.
  const Campaign* Find(const std::string& name) const;

  // Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Campaign> campaigns_;
};

// Static registration convenience:
//   static RegisterCampaign fig3{{ "fig3", "Figure 3", ..., Cells, Report }};
struct RegisterCampaign {
  explicit RegisterCampaign(Campaign campaign) {
    CampaignRegistry::Instance().Register(std::move(campaign));
  }
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_CAMPAIGN_H_
