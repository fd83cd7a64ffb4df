#include "src/balancer/lard.h"

#include <algorithm>

namespace tashkent {

size_t LardBalancer::GloballyLeastLoaded() const {
  size_t best = 0;
  size_t best_out = SIZE_MAX;
  for (size_t i = 0; i < context_.proxies.size(); ++i) {
    if (!context_.proxies[i]->available()) {
      continue;
    }
    const size_t out = context_.proxies[i]->outstanding();
    if (out < best_out) {
      best = i;
      best_out = out;
    }
  }
  return best;
}

void LardBalancer::DecaySet(std::vector<Member>& set) {
  if (set.size() <= 1) {
    return;  // keep at least one member for locality
  }
  // A decay may drop every member, emptying the set; Route() re-seeds it.
  const SimTime now = context_.sim->Now();
  set.erase(std::remove_if(set.begin(), set.end(),
                           [&](const Member& m) { return now - m.last_used > kLardSetDecay; }),
            set.end());
}

size_t LardBalancer::Route(const TxnType& type) {
  std::vector<Member>& set = sets_[type.id];
  DecaySet(set);
  const SimTime now = context_.sim->Now();

  if (set.empty()) {
    const size_t pick = GloballyLeastLoaded();
    set.push_back(Member{pick, now});
    return pick;
  }

  // Least-loaded available member of the set.
  size_t member_idx = set.size();
  size_t member_out = SIZE_MAX;
  for (size_t i = 0; i < set.size(); ++i) {
    if (!context_.proxies[set[i].replica]->available()) {
      continue;
    }
    const size_t out = context_.proxies[set[i].replica]->outstanding();
    if (out < member_out) {
      member_idx = i;
      member_out = out;
    }
  }
  if (member_idx == set.size()) {
    // Every member crashed: rebind the type.
    set.clear();
    const size_t pick = GloballyLeastLoaded();
    set.push_back(Member{pick, now});
    return pick;
  }

  if (member_out > kLardTHigh) {
    // The set is overloaded; recruit a lightly loaded replica if one exists.
    // Past 2*T_high the imbalance is severe and the original LARD recruits
    // the globally least-loaded node unconditionally — the spreading dynamic
    // Section 5.2 shows wiping caches for large frequent transactions.
    const size_t candidate = GloballyLeastLoaded();
    const bool already_member =
        std::any_of(set.begin(), set.end(),
                    [candidate](const Member& m) { return m.replica == candidate; });
    if (!already_member && (context_.proxies[candidate]->outstanding() < kLardTLow ||
                            member_out >= 2 * kLardTHigh)) {
      set.push_back(Member{candidate, now});
      return candidate;
    }
  }

  set[member_idx].last_used = now;
  return set[member_idx].replica;
}

const std::vector<size_t>& LardBalancer::ReplicaSet(TxnTypeId type) const {
  scratch_set_.clear();
  auto it = sets_.find(type);
  if (it != sets_.end()) {
    for (const Member& m : it->second) {
      scratch_set_.push_back(m.replica);
    }
  }
  return scratch_set_;
}

}  // namespace tashkent
