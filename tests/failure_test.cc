// Failure injection: replica crash and recovery under each policy.
//
// The paper treats recovery as standard (restore from other copies or from
// the certifier's persistent log) and focuses on availability constraints;
// these tests verify the cluster keeps serving through a fail-stop, the
// balancers route around the dead replica, and a restarted replica catches up
// through the normal pull/prod propagation path.
#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/cluster.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

ClusterConfig Config(uint64_t seed = 42) {
  ClusterConfig c;
  c.replicas = 8;
  c.clients_per_replica = 4;
  c.seed = seed;
  return c;
}

class FailureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FailureTest, ClusterSurvivesCrash) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, GetParam(), Config());
  cluster.Advance(Seconds(120.0));
  const ExperimentResult before = cluster.Measure(Seconds(120.0));
  ASSERT_GT(before.tps, 1.0);

  cluster.Apply(KillReplica{3});
  cluster.Advance(Seconds(60.0));  // failover transient
  const ExperimentResult after = cluster.Measure(Seconds(120.0));
  // Seven replicas keep the system alive at a meaningful fraction of the
  // original throughput.
  EXPECT_GT(after.tps, 0.4 * before.tps);
}

TEST_P(FailureTest, RestartedReplicaCatchesUp) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, GetParam(), Config());
  cluster.Advance(Seconds(120.0));
  cluster.Apply(KillReplica{2});
  cluster.Advance(Seconds(120.0));
  cluster.Apply(RecoverReplica{2});
  cluster.Advance(Seconds(60.0));
  // The restarted replica's applied version converges to the certifier head
  // through pulls and prods (within the propagation window).
  const auto& replicas = cluster.replicas();
  ASSERT_GT(replicas.size(), 2u);
  const Proxy& restarted = *cluster.proxies()[2];
  EXPECT_EQ(restarted.lifecycle(), ReplicaLifecycle::kUp);
  EXPECT_EQ(restarted.stats().recoveries, 1u);
  // Head moves continuously; we only require the gap to be inside the prod
  // threshold + one pull period of commits.
  const Version head_before = cluster.certifier().head_version();
  cluster.Advance(Seconds(10.0));
  const Version head = cluster.certifier().head_version();
  const double commits_per_pull =
      static_cast<double>(head - head_before) * ToSeconds(kPullPeriod) / 10.0;
  EXPECT_LE(static_cast<double>(head - restarted.applied_version()),
            static_cast<double>(kProdThreshold) + std::ceil(commits_per_pull));
}

INSTANTIATE_TEST_SUITE_P(Policies, FailureTest,
                         ::testing::Values("LeastConnections", "LARD", "MALB-SC"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(Failure, CrashedProxyRejectsWork) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config());
  cluster.Advance(Seconds(10.0));
  cluster.Apply(KillReplica{0});
  // Crash all but one and verify progress continues on the survivor.
  for (size_t r = 1; r < 7; ++r) {
    cluster.Apply(KillReplica{r});
  }
  const ExperimentResult res = cluster.Measure(Seconds(60.0));
  EXPECT_GT(res.committed, 0u);  // the single survivor still commits
}

TEST(Failure, RestartStartsCold) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwShopping, "LeastConnections", Config());
  cluster.Advance(Seconds(180.0));
  const Pages warm = cluster.replicas()[1]->pool().used_pages();
  EXPECT_GT(warm, 0);
  cluster.Apply(KillReplica{1});
  cluster.Apply(RecoverReplica{1});
  // The pool was cleared on restart; warmed again only by new traffic.
  EXPECT_EQ(cluster.replicas()[1]->pool().dirty_pages(), 0);
}

}  // namespace
}  // namespace tashkent
