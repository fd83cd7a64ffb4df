// tashkent_bench: the one benchmark binary.
//
// Every paper figure/table campaign registers itself (see the other files in
// bench/); this main just resolves names and drives the campaign runner:
//
//   tashkent_bench list [--names]
//   tashkent_bench run <campaign...|all> [--jobs N] [--json [DIR]] [--seed S]
//                      [--no-progress]
//
// `run all` executes every registered campaign on one shared worker pool —
// the full paper grid is embarrassingly parallel, so `--jobs $(nproc)`
// approaches linear speedup. Per-cell seeds derive from the grid coordinates
// (campaign.h), so `--jobs N` output is bit-identical to `--jobs 1`.
// With `--json DIR` each campaign writes BENCH_<name>.json into DIR and the
// runner writes a merged BENCH_campaign.json manifest.
// docs/REPRODUCING.md maps each figure/table to its campaign command.
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/cluster/campaign.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [args]\n"
               "\n"
               "commands:\n"
               "  list [--names]           list registered campaigns (--names: bare names)\n"
               "  run <name...|all>        run campaigns\n"
               "      --jobs N             worker threads (default 1)\n"
               "      --json [DIR]         write BENCH_<name>.json per campaign plus the\n"
               "                           BENCH_campaign.json manifest into DIR (default .)\n"
               "      --seed S             base seed mixed into every cell seed (default 42)\n"
               "      --no-progress        suppress per-cell progress lines on stderr\n",
               argv0);
  return 2;
}

// Parses all of `text` as a decimal integer in [lo, hi]. strtoull would take
// "-1" as 2^64-1, so a sign is refused outright.
bool ParseInteger(const char* text, unsigned long long lo, unsigned long long hi,
                  unsigned long long* value) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *value = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0' && *value >= lo && *value <= hi;
}

int RunList(int argc, char** argv) {
  bool names_only = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--names") == 0) {
      names_only = true;
    } else {
      return Usage("tashkent_bench");
    }
  }
  auto& registry = tashkent::CampaignRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    const tashkent::Campaign* campaign = registry.Find(name);
    if (names_only) {
      std::printf("%s\n", name.c_str());
    } else {
      std::printf("%-12s %-10s %s\n", name.c_str(),
                  campaign->figure.empty() ? "-" : campaign->figure.c_str(),
                  campaign->title.c_str());
    }
  }
  return 0;
}

int RunRun(int argc, char** argv) {
  tashkent::CampaignRunOptions options;
  std::vector<std::string> names;
  bool all = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc) {
        return Usage("tashkent_bench");
      }
      unsigned long long jobs = 0;
      if (!ParseInteger(argv[++i], 1, INT_MAX, &jobs)) {
        std::fprintf(stderr, "tashkent_bench: --jobs takes an integer from 1 to %d, got '%s'\n",
                     INT_MAX, argv[i]);
        return 2;
      }
      options.jobs = static_cast<int>(jobs);
    } else if (arg == "--json") {
      options.json_dir = ".";
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        options.json_dir = argv[++i];
      }
    } else if (arg == "--seed") {
      if (i + 1 >= argc) {
        return Usage("tashkent_bench");
      }
      unsigned long long seed = 0;
      if (!ParseInteger(argv[++i], 0, ULLONG_MAX, &seed)) {
        std::fprintf(stderr,
                     "tashkent_bench: --seed takes an integer from 0 to %llu, got '%s'\n",
                     ULLONG_MAX, argv[i]);
        return 2;
      }
      options.base_seed = seed;
    } else if (arg == "--no-progress") {
      options.progress = false;
    } else if (arg == "all") {
      all = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tashkent_bench: unknown flag '%s'\n", arg.c_str());
      return Usage("tashkent_bench");
    } else {
      names.push_back(arg);
    }
  }

  auto& registry = tashkent::CampaignRegistry::Instance();
  if (all) {
    names = registry.Names();
  }
  if (names.empty()) {
    std::fprintf(stderr, "tashkent_bench: no campaign named; try 'run all' or 'list'\n");
    return Usage("tashkent_bench");
  }

  std::vector<const tashkent::Campaign*> campaigns;
  for (const std::string& name : names) {
    const tashkent::Campaign* campaign = registry.Find(name);
    if (campaign == nullptr) {
      std::fprintf(stderr, "tashkent_bench: unknown campaign '%s'; registered:\n",
                   name.c_str());
      for (const std::string& known : registry.Names()) {
        std::fprintf(stderr, "  %s\n", known.c_str());
      }
      return 2;
    }
    campaigns.push_back(campaign);
  }

  const tashkent::CampaignRunSummary summary = tashkent::RunCampaigns(campaigns, options);

  std::printf("\n=== campaign summary (%d job%s) ===\n", summary.jobs,
              summary.jobs == 1 ? "" : "s");
  for (const tashkent::CampaignRunRecord& run : summary.campaigns) {
    size_t failed = 0;
    for (const tashkent::CellRecord& cell : run.cells) {
      if (!cell.ok) {
        ++failed;
      }
    }
    std::printf("  %-12s %3zu cells  %s  cpu %.1fs%s%s\n", run.campaign->name.c_str(),
                run.cells.size(), failed == 0 ? "ok    " : "FAILED", run.wall_s,
                run.json_path.empty() ? "" : "  -> ", run.json_path.c_str());
  }
  std::printf("  total wall-clock %.1fs, %d failed cell%s\n", summary.wall_s,
              summary.failed_cells, summary.failed_cells == 1 ? "" : "s");
  if (!summary.manifest_path.empty()) {
    std::printf("  manifest: %s\n", summary.manifest_path.c_str());
  }
  return summary.failed_cells == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage(argv[0]);
  }
  const std::string command = argv[1];
  if (command == "list") {
    return RunList(argc - 2, argv + 2);
  }
  if (command == "run") {
    return RunRun(argc - 2, argv + 2);
  }
  return Usage(argv[0]);
}
