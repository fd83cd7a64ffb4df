#include "src/core/allocation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace tashkent {

double GroupLoad::FutureLoadIfRemoved() const {
  if (replicas <= 1) {
    return std::numeric_limits<double>::infinity();
  }
  return Load() * static_cast<double>(replicas) / static_cast<double>(replicas - 1);
}

std::optional<ReallocationMove> PickRebalanceMove(const std::vector<GroupLoad>& groups) {
  if (groups.size() < 2) {
    return std::nullopt;
  }
  size_t most_loaded = 0;
  size_t donor = 0;
  double max_load = -1.0;
  double min_future = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < groups.size(); ++i) {
    const double load = groups[i].Load();
    if (load > max_load) {
      max_load = load;
      most_loaded = i;
    }
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    if (i == most_loaded) {
      continue;
    }
    const double future = groups[i].FutureLoadIfRemoved();
    if (future < min_future) {
      min_future = future;
      donor = i;
    }
  }
  if (!std::isfinite(min_future)) {
    return std::nullopt;  // every other group is at one replica
  }
  if (max_load <= 1e-9) {
    return std::nullopt;  // no load signal at all: nothing to balance
  }
  if (max_load < kHysteresis * min_future) {
    return std::nullopt;  // within hysteresis band: leave the allocation alone
  }
  return ReallocationMove{donor, most_loaded};
}

std::vector<int> ComputeFastTargets(const std::vector<GroupLoad>& groups, int total_replicas) {
  const size_t n = groups.size();
  std::vector<int> targets(n, 1);
  if (n == 0) {
    return targets;
  }
  if (total_replicas < static_cast<int>(n)) {
    // Degenerate: fewer replicas than groups; callers avoid this by merging
    // first, but stay safe and hand out what exists.
    std::fill(targets.begin(), targets.end(), 0);
    for (int i = 0; i < total_replicas; ++i) {
      targets[static_cast<size_t>(i)] = 1;
    }
    return targets;
  }

  double total_demand = 0.0;
  for (const auto& g : groups) {
    total_demand += g.TotalDemand();
  }
  if (total_demand <= 0.0) {
    // No load information: spread evenly.
    int left = total_replicas - static_cast<int>(n);
    size_t i = 0;
    while (left > 0) {
      ++targets[i];
      --left;
      i = (i + 1) % n;
    }
    return targets;
  }

  // Proportional shares with a floor of one replica per group.
  struct Share {
    size_t index;
    double ideal;  // unrounded proportional replica count
  };
  std::vector<Share> shares(n);
  int assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double ideal = groups[i].TotalDemand() / total_demand * static_cast<double>(total_replicas);
    const int floor_val = std::max(1, static_cast<int>(std::floor(ideal)));
    targets[i] = floor_val;
    shares[i] = Share{i, ideal};
    assigned += floor_val;
  }

  // Too many handed out via the 1-replica floors: reclaim from the groups
  // whose target most exceeds their ideal share.
  while (assigned > total_replicas) {
    size_t victim = n;
    double worst_excess = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (targets[i] <= 1) {
        continue;
      }
      const double excess = static_cast<double>(targets[i]) - shares[i].ideal;
      if (excess > worst_excess) {
        worst_excess = excess;
        victim = i;
      }
    }
    if (victim == n) {
      break;  // everything at the floor; nothing to reclaim
    }
    --targets[victim];
    --assigned;
  }

  // Conservative rounding of the leftovers: largest fractional remainder
  // first; on ties the smaller allocation is topped up (the paper rounds
  // 7.5/2.5 to 7/3). This keeps targets monotone in demand.
  while (assigned < total_replicas) {
    size_t pick = n;
    double best_rem = -1.0;
    for (size_t i = 0; i < n; ++i) {
      const double rem = shares[i].ideal - static_cast<double>(targets[i]);
      const bool better =
          pick == n || rem > best_rem + 1e-12 ||
          (rem > best_rem - 1e-12 && targets[i] < targets[pick]);
      if (better) {
        pick = i;
        best_rem = rem;
      }
    }
    ++targets[pick];
    ++assigned;
  }
  return targets;
}

bool ShouldFastReallocate(const std::vector<GroupLoad>& groups, int total_replicas) {
  if (groups.size() < 2) {
    return false;
  }
  if (!PickRebalanceMove(groups)) {
    return false;
  }
  const std::vector<int> targets = ComputeFastTargets(groups, total_replicas);
  for (size_t i = 0; i < groups.size(); ++i) {
    if (std::abs(targets[i] - groups[i].replicas) > kFastTriggerDelta) {
      return true;
    }
  }
  return false;
}

std::optional<std::pair<size_t, size_t>> PickMergeCandidates(const std::vector<GroupLoad>& groups) {
  size_t first = groups.size();
  size_t second = groups.size();
  double first_load = std::numeric_limits<double>::infinity();
  double second_load = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].replicas != 1) {
      continue;
    }
    const double load = groups[i].Load();
    if (load >= kMergeThreshold) {
      continue;
    }
    if (load < first_load) {
      second = first;
      second_load = first_load;
      first = i;
      first_load = load;
    } else if (load < second_load) {
      second = i;
      second_load = load;
    }
  }
  if (second == groups.size()) {
    return std::nullopt;
  }
  return std::make_pair(first, second);
}

}  // namespace tashkent
