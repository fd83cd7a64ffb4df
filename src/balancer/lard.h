// LARD with replica sets [PAB+98, ZBCS99], targeting transaction types.
//
// The algorithm knows only the transaction type: it dispatches to a replica
// where the same type recently ran, hoping its data is still memory resident.
// Following the original LARD/R design:
//   * an unassigned type is bound to the globally least-loaded replica;
//   * within a type's replica set the least-loaded member serves;
//   * if that member is overloaded (> T_high outstanding) while some replica
//     is lightly loaded (< T_low), the light replica joins the set — this is
//     precisely the spreading behaviour Section 5.2 shows going wrong for
//     frequent large transactions;
//   * set members idle for longer than the decay timeout are dropped.
// LARD has no working-set information and no update handling.
#ifndef SRC_BALANCER_LARD_H_
#define SRC_BALANCER_LARD_H_

#include <unordered_map>
#include <vector>

#include "src/balancer/balancer.h"

namespace tashkent {

inline constexpr size_t kLardTLow = 2;   // outstanding connections considered "lightly loaded"
inline constexpr size_t kLardTHigh = 5;  // outstanding connections considered "overloaded"
inline constexpr SimDuration kLardSetDecay = Seconds(30.0);  // drop set members unused this long

class LardBalancer : public LoadBalancer {
 public:
  explicit LardBalancer(BalancerContext context) : LoadBalancer(std::move(context)) {}

  size_t Route(const TxnType& type) override;
  std::string name() const override { return "LARD"; }

  // Exposed for tests and the grouping report benches.
  const std::vector<size_t>& ReplicaSet(TxnTypeId type) const;

 private:
  struct Member {
    size_t replica;
    SimTime last_used;
  };

  size_t GloballyLeastLoaded() const;
  void DecaySet(std::vector<Member>& set);

  std::unordered_map<TxnTypeId, std::vector<Member>> sets_;
  mutable std::vector<size_t> scratch_set_;
};

}  // namespace tashkent

#endif  // SRC_BALANCER_LARD_H_
