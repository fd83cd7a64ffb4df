// The proxy lifecycle table in docs/OPERATIONS.md, driven row by row. For
// each (state, event) row that can occur, a standalone proxy is put in the
// state with the event pending, the event fires, and the test compares what
// it did with the row: the lifecycle afterwards, the counter deltas of that
// one simulated microsecond, and whether the client's `done` fired.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/proxy/proxy.h"
#include "src/storage/disk_model.h"

namespace tashkent {
namespace {

// One row of the table, backticks stripped.
struct Row {
  std::string state, event, action, after, counts, done;
};

// Names a row in gtest's messages.
void PrintTo(const Row& row, std::ostream* os) {
  *os << "(" << row.state << ", " << row.event << ")";
}

std::string Strip(std::string cell) {
  std::string out;
  for (char c : cell) {
    if (c != '`') {
      out += c;
    }
  }
  const size_t b = out.find_first_not_of(' ');
  const size_t e = out.find_last_not_of(' ');
  return b == std::string::npos ? std::string() : out.substr(b, e - b + 1);
}

// The first markdown table after the "### Lifecycle table" heading.
std::vector<Row> ReadTable() {
  std::ifstream in(OPERATIONS_MD);
  std::string line;
  while (std::getline(in, line) && line != "### Lifecycle table") {
  }
  std::vector<Row> rows;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.rfind('|', 0) != 0) {
      if (!rows.empty() || !header) {
        break;
      }
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line.substr(1));
    std::string cell;
    while (std::getline(ss, cell, '|')) {
      cells.push_back(Strip(cell));
    }
    if (header || cells.at(0).rfind("---", 0) == 0) {
      header = false;
      continue;
    }
    rows.push_back(Row{cells.at(0), cells.at(1), cells.at(2), cells.at(3), cells.at(4),
                       cells.at(5)});
  }
  return rows;
}

const char* Name(ReplicaLifecycle s) {
  switch (s) {
    case ReplicaLifecycle::kUp:
      return "kUp";
    case ReplicaLifecycle::kRecovering:
      return "kRecovering";
    case ReplicaLifecycle::kInstalling:
      return "kInstalling";
    case ReplicaLifecycle::kDown:
      return "kDown";
  }
  return "?";
}

constexpr ReplicaLifecycle kStates[] = {ReplicaLifecycle::kUp, ReplicaLifecycle::kRecovering,
                                        ReplicaLifecycle::kInstalling, ReplicaLifecycle::kDown};

// Writer proxy 0 commits a backlog of two bulk writesets that subject proxy 1
// has not applied, so the subject's replay after a crash keeps it recovering
// for about a second, and its checkpoint image (every table, 72 MiB) takes
// about as long to install. The subject has retry armed without jitter, its
// own channel (whose arrivals count the messages it sends) and a checkpoint
// source at the log head.
class ProxyLifecycle : public ::testing::TestWithParam<Row> {
 protected:
  ProxyLifecycle() : channel_(&sim_) {
    table_a_ = schema_.AddTable("a", MiB(8));
    bulk_ = schema_.AddTable("bulk", MiB(64));
    ReplicaConfig rc;
    rc.memory = 64 * kMiB;
    rc.reserved = 0;
    ProxyConfig pc{4, {}};
    for (ReplicaId r = 0; r < 2; ++r) {
      replicas_.push_back(std::make_unique<Replica>(&sim_, &schema_, r, rc, Rng(r + 1)));
    }
    writer_ = std::make_unique<Proxy>(&sim_, replicas_[0].get(), &certifier_, pc);
    pc.retry.enabled = true;
    pc.retry.jitter = 0.0;
    subject_ = std::make_unique<Proxy>(&sim_, replicas_[1].get(), &certifier_, pc, &channel_);
    subject_->ArmRetry(Rng(7));
    subject_->SetCheckpointSource(
        [this]() { return BuildCheckpoint(schema_, certifier_.head_version()); });

    read_.name = "read";
    read_.base_cpu = Millis(1);
    read_.plan.steps = {Random(table_a_, 2)};
    update_.name = "update";
    update_.id = 1;
    update_.base_cpu = Millis(1);
    update_.writeset_bytes = 275;
    update_.plan.steps = {Write(table_a_, 1, 2)};
    bulk_update_.name = "bulk_update";
    bulk_update_.id = 2;
    bulk_update_.base_cpu = Millis(1);
    bulk_update_.writeset_bytes = 4096;
    bulk_update_.plan.steps = {Write(bulk_, 0, 40)};
    for (int i = 0; i < 2; ++i) {
      writer_->SubmitTransaction(bulk_update_, [](bool) {});
    }
    sim_.RunAll();
  }

  Proxy::TxnDone Done() {
    return [this](bool) { done_ = true; };
  }

  // Every counter a row can name, in the table's order.
  std::vector<std::pair<const char*, uint64_t>> Counters() const {
    const ProxyStats& s = subject_->stats();
    return {{"rejected", s.rejected},
            {"prods", s.prods},
            {"pulls", s.pulls},
            {"sent", channel_.arrivals()},
            {"cert_timeouts", s.cert_timeouts},
            {"cert_retries", s.cert_retries},
            {"pull_timeouts", s.pull_timeouts},
            {"pull_retries", s.pull_retries},
            {"certified", certifier_.certified_count()},
            {"committed", s.committed},
            {"aborted", s.aborted},
            {"writesets_applied", s.writesets_applied},
            {"replay_applied", s.replay_applied},
            {"replay_filtered", s.replay_filtered}};
  }

  // Puts the subject in `state` from kUp. Recovering waits for the recovery
  // pull (when Recover sent one) to land, so the replay is under way and no
  // pull is in flight.
  void Enter(ReplicaLifecycle state) {
    const uint64_t pulls = subject_->stats().pulls;
    switch (state) {
      case ReplicaLifecycle::kUp:
        break;
      case ReplicaLifecycle::kDown:
        subject_->Crash();
        break;
      case ReplicaLifecycle::kRecovering:
        subject_->Crash();
        subject_->Recover();
        if (subject_->stats().pulls > pulls) {
          sim_.RunUntil(sim_.Now() + kCertificationRtt);
        }
        break;
      case ReplicaLifecycle::kInstalling:
        subject_->JoinAsNew();
        break;
    }
    ASSERT_EQ(Name(subject_->lifecycle()), std::string(Name(state)));
  }

  // Starts the observed window: the counters and the `done` flag. The
  // subject must still be in the row's state.
  void Open() {
    ASSERT_EQ(Name(subject_->lifecycle()), std::string(Name(state_)));
    before_ = Counters();
    done_ = false;
  }
  // Fires whatever is scheduled at `t`, observing that microsecond only.
  void FireAt(SimTime t) {
    ASSERT_GT(t, sim_.Now());
    sim_.RunUntil(t - 1);
    Open();
    sim_.RunUntil(t);
  }
  // Steps one microsecond at a time until `fired` holds, observing the last.
  void FireWhen(const std::function<bool()>& fired) {
    const SimTime limit = sim_.Now() + Seconds(10.0);
    do {
      ASSERT_LT(sim_.Now(), limit) << "the event never fired";
      Open();
      sim_.RunUntil(sim_.Now() + 1);
    } while (!fired());
  }
  // Runs until the subject's next certifier message leaves; returns its time.
  SimTime UntilSent() {
    const uint64_t sent = channel_.arrivals();
    const SimTime limit = sim_.Now() + Seconds(10.0);
    while (channel_.arrivals() == sent && sim_.Now() < limit) {
      sim_.RunUntil(sim_.Now() + 1);
    }
    return sim_.Now();
  }

  // Stages `event` with the subject in `state` and fires it.
  void Drive(const std::string& event, ReplicaLifecycle state) {
    Proxy& p = *subject_;
    state_ = state;
    const SimDuration timeout = RetryPolicy{}.timeout;
    const SimDuration backoff = RetryPolicy{}.backoff_base;
    const bool pulls = state == ReplicaLifecycle::kUp || state == ReplicaLifecycle::kRecovering;
    if (event == "submit") {
      Enter(state);
      Open();
      p.SubmitTransaction(read_, Done());
    } else if (event == "execute-done") {
      p.SubmitTransaction(read_, Done());
      Enter(state);
      const uint64_t executed = replicas_[1]->stats().txns_executed;
      FireWhen([&] { return replicas_[1]->stats().txns_executed > executed; });
    } else if (event == "cert-response") {
      p.SubmitTransaction(update_, Done());
      Enter(state);
      FireAt(UntilSent() + kCertificationRtt);
    } else if (event == "cert-timeout") {
      p.SubmitTransaction(update_, Done());
      Enter(state);
      const SimTime sent = UntilSent();
      certifier_.Crash();  // the response goes unanswered
      FireAt(sent + timeout);
    } else if (event == "cert-resend") {
      p.SubmitTransaction(update_, Done());
      const SimTime sent = UntilSent();
      certifier_.Crash();
      sim_.RunUntil(sent + timeout);  // times out while up: backs off
      Enter(state);
      FireAt(sent + timeout + backoff);
    } else if (event == "prod") {
      Enter(state);
      Open();
      p.OnProd();
    } else if (event == "pull-tick") {
      Enter(state);
      p.StartDaemons();
      FireAt(sim_.Now() + kPullPeriod);
    } else if (event == "pull") {
      // The prod's pull follows it by one network hop; a prod acts only
      // where pulls do, so it is sent before entering the other states.
      if (pulls) {
        Enter(state);
      }
      p.OnProd();
      const SimTime at = sim_.Now() + kNetworkOneWay;
      if (!pulls) {
        Enter(state);
      }
      FireAt(at);
    } else if (event == "pull-response") {
      p.OnProd();
      const SimTime sent = UntilSent();
      Enter(state);
      FireAt(sent + kCertificationRtt);
    } else if (event == "pull-timeout") {
      certifier_.Crash();
      p.OnProd();
      const SimTime sent = UntilSent();
      Enter(state);
      FireAt(sent + timeout);
    } else if (event == "pull-resend") {
      certifier_.Crash();
      p.OnProd();
      const SimTime sent = UntilSent();
      sim_.RunUntil(sent + timeout);  // times out while up: backs off
      Enter(state);
      FireAt(sent + timeout + backoff);
    } else if (event == "apply-done") {
      p.OnProd();
      sim_.RunUntil(UntilSent() + kCertificationRtt);  // up: applies version 1
      Enter(state);
      FireWhen([&] { return p.applied_version() > 0; });
    } else if (event == "install-done") {
      Enter(state);
      FireWhen([&] { return p.lifecycle() != ReplicaLifecycle::kInstalling; });
    } else if (event == "torn-install") {
      // The image lands one disk read plus one CPU pass after the install
      // started; a crash in between tears it. Recovering again queues a
      // second install behind it on the FIFO disk.
      Enter(ReplicaLifecycle::kInstalling);
      const Pages pages = BuildCheckpoint(schema_, 0).total_pages;
      const SimTime lands =
          sim_.Now() + DiskModel::SequentialReadTime(pages) + pages * kCpuPerApplyPage;
      p.Crash();
      if (state == ReplicaLifecycle::kInstalling) {
        p.Recover();
      }
      ASSERT_EQ(Name(p.lifecycle()), std::string(Name(state)));
      FireAt(lands);
    } else if (event == "crash") {
      Enter(state);
      Open();
      p.Crash();
    } else if (event == "recover") {
      Enter(state);
      Open();
      p.Recover();
    } else {
      FAIL() << "no scenario for event '" << event << "'";
    }
  }

  // The counters that moved since Open(), as the table writes them.
  std::string Deltas() const {
    const auto now = Counters();
    std::string out;
    for (size_t i = 0; i < now.size(); ++i) {
      if (now[i].second != before_[i].second) {
        out += (out.empty() ? "" : ", ") + std::string(now[i].first) + " +" +
               std::to_string(now[i].second - before_[i].second);
      }
    }
    return out.empty() ? "—" : out;
  }

  Simulator sim_;
  Schema schema_;
  RelationId table_a_ = 0, bulk_ = 0;
  Certifier certifier_;
  CertifierChannel channel_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<Proxy> writer_, subject_;
  TxnType read_, update_, bulk_update_;
  std::vector<std::pair<const char*, uint64_t>> before_;
  ReplicaLifecycle state_ = ReplicaLifecycle::kUp;
  bool done_ = false;
};

// The table has one row per (state, event) pair, for every state.
TEST(ProxyLifecycleTable, OneRowPerStateAndEvent) {
  const std::vector<Row> rows = ReadTable();
  ASSERT_FALSE(rows.empty()) << "no lifecycle table in " << OPERATIONS_MD;
  std::set<std::string> events;
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Row& row : rows) {
    events.insert(row.event);
    EXPECT_TRUE(pairs.insert({row.state, row.event}).second)
        << "two rows for (" << row.state << ", " << row.event << ")";
  }
  for (const std::string& event : events) {
    for (ReplicaLifecycle state : kStates) {
      EXPECT_EQ(pairs.count({Name(state), event}), 1u)
          << "no row for (" << Name(state) << ", " << event << ")";
    }
  }
  EXPECT_EQ(pairs.size(), events.size() * std::size(kStates));
}

TEST_P(ProxyLifecycle, RowHolds) {
  const Row& row = GetParam();
  if (row.action.rfind("Cannot occur", 0) == 0) {
    GTEST_SKIP() << row.action;
  }
  const ReplicaLifecycle* state =
      std::find_if(std::begin(kStates), std::end(kStates),
                   [&](ReplicaLifecycle s) { return row.state == Name(s); });
  ASSERT_NE(state, std::end(kStates)) << "unknown state " << row.state;
  Drive(row.event, *state);
  if (HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(Name(subject_->lifecycle()), row.after);
  EXPECT_EQ(Deltas(), row.counts);
  EXPECT_EQ(done_ ? "yes" : "no", row.done);
}

// The (kDown, pull-resend) row drops the pull. Had the resend left it marked
// in flight, the pull of the later `recover`, and every prod and tick after
// it, would do nothing, and the replica would stay kRecovering for good.
class ProxyLifecycleAfterRow : public ProxyLifecycle {};

TEST_F(ProxyLifecycleAfterRow, CrashInPullBackoffStillRecoversToTheHead) {
  Drive("pull-resend", ReplicaLifecycle::kDown);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(Name(subject_->lifecycle()), std::string(Name(ReplicaLifecycle::kDown)));
  certifier_.Failover();
  subject_->Recover();
  sim_.RunUntil(sim_.Now() + Seconds(30.0));
  EXPECT_EQ(Name(subject_->lifecycle()), std::string(Name(ReplicaLifecycle::kUp)));
  EXPECT_EQ(subject_->applied_version(), certifier_.head_version());
  EXPECT_EQ(certifier_.head_version(), 2u);
}

INSTANTIATE_TEST_SUITE_P(OperationsTable, ProxyLifecycle, ::testing::ValuesIn(ReadTable()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           std::string name = info.param.state + "_" + info.param.event;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace tashkent
