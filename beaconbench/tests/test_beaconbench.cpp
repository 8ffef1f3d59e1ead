// The benchmark's own tests: the tail-percentile rule, verdict-digest
// determinism, and that a broken gate fails the command.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "gates.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace {

TEST(TailRule, NearestRankIndex) {
  EXPECT_EQ(bb::rank_index(1, 50), 0u);
  EXPECT_EQ(bb::rank_index(10, 50), 4u);
  EXPECT_EQ(bb::rank_index(10, 100), 9u);
  EXPECT_EQ(bb::rank_index(1000, 99), 989u);
}

TEST(TailRule, TenSamplesAboveTheReportedPercentile) {
  EXPECT_EQ(bb::samples_above(1000, 99), 10u);
  EXPECT_TRUE(bb::tail_supported(1000, 99));
  EXPECT_FALSE(bb::tail_supported(999, 99));
  EXPECT_EQ(bb::min_samples_for(99), 1000u);
  EXPECT_EQ(bb::min_samples_for(75), 40u);
  EXPECT_EQ(bb::samples_above(40, 75), 10u);
  EXPECT_FALSE(bb::tail_supported(10, 1));
  EXPECT_TRUE(bb::tail_supported(110, 90));
  EXPECT_FALSE(bb::tail_supported(110, 91));
  // Every workload's fixed tail percentile is reachable.
  for (const bb::WorkloadSpec& spec : bb::workload_specs()) {
    EXPECT_TRUE(bb::tail_supported(bb::min_samples_for(spec.tail_percentile),
                                   spec.tail_percentile))
        << spec.name;
  }
}

TEST(TailRule, PercentilesAreOrderStatistics) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i * 1.5);
  EXPECT_EQ(bb::median(samples), 75.0);
  EXPECT_EQ(bb::percentile(samples, 90), 135.0);
  EXPECT_EQ(bb::percentile(samples, 100), 150.0);
}

TEST(TailRule, GroupedPercentileIsTheMedianOfGroupStatistics) {
  const std::vector<std::vector<double>> passes = {
      {1, 2, 3}, {10, 20, 30}, {100, 200, 300}};
  // Groups of >= 3 samples: one per pass, medians 2, 20 and 200.
  EXPECT_EQ(bb::grouped_percentile(passes, 3, 50), 20.0);
  // Groups of >= 4: the short last pass folds into the first group.
  EXPECT_EQ(bb::grouped_percentile(passes, 4, 100), 300.0);
  EXPECT_EQ(bb::grouped_percentile(passes, 4, 50), 20.0);
}

TEST(Digest, IndependentOfDeliveryOrderButNotOfVerdicts) {
  std::vector<bb::DeliveredRound> rounds = {
      {7, 0, {3, 1}, {1, 2, 3}}, {2, 1, {}, {4, 5}}, {2, 0, {5}, {4, 5}}};
  const std::uint64_t digest = bb::verdict_digest(rounds, {});
  std::swap(rounds[0], rounds[2]);
  std::reverse(rounds[2].suspects.begin(), rounds[2].suspects.end());
  EXPECT_EQ(bb::verdict_digest(rounds, {}), digest);
  rounds[1].suspects = {1, 3, 9};
  EXPECT_NE(bb::verdict_digest(rounds, {}), digest);
}

TEST(Digest, ReplaysOfOneSeedAgreeAndDamageDoesNotMoveIt) {
  const bb::WorkloadSpec& spec = *bb::find_spec("fanin");
  const bb::Part damaged = bb::generate(spec, 11).parts.at(0);
  const bb::Part again = bb::generate(spec, 11).parts.at(0);
  ASSERT_EQ(damaged.connections.size(), again.connections.size());
  for (std::size_t c = 0; c < damaged.connections.size(); ++c) {
    EXPECT_EQ(damaged.connections[c].bytes, again.connections[c].bytes);
  }
  EXPECT_GT(damaged.injected.junk_runs, 0u);
  EXPECT_GT(damaged.injected.replayed, 0u);
  EXPECT_GT(damaged.injected.flipped, 0u);
  EXPECT_GT(damaged.injected.invalid_rssi, 0u);

  const bb::Part clean = bb::generate(spec, 11, /*damaged=*/false).parts.at(0);
  const bb::ReplayResult a = bb::replay(damaged, false);
  const bb::ReplayResult b = bb::replay(damaged, true);
  const bb::ReplayResult c = bb::replay(clean, false);
  bb::check_laws(bb::law_inputs(a));
  bb::check_flow(a, damaged);
  bb::check_injected(a, damaged.injected);
  const std::uint64_t digest = bb::verdict_digest(a.rounds, a.epochs);
  EXPECT_EQ(bb::verdict_digest(b.rounds, b.epochs), digest);
  EXPECT_EQ(bb::verdict_digest(c.rounds, c.epochs), digest);
  EXPECT_FALSE(a.epochs.empty());
}

TEST(Gates, UnbalancedLawFails) {
  const bb::Part part = bb::generate(*bb::find_spec("fanin"), 5).parts.at(0);
  const bb::ReplayResult r = bb::replay(part, false);
  std::map<std::string, double> inputs = bb::law_inputs(r);
  EXPECT_NO_THROW(bb::check_laws(inputs));
  inputs["service.rounds_executed"] -= 1;
  EXPECT_THROW(bb::check_laws(inputs), bb::GateFailure);
}

struct Command {
  int exit_code = -1;
  std::string out;
};

Command run_command(const std::string& extra) {
  const std::string cmd = std::string(BEACONBENCH_BIN) +
                          " --workload fanin --seed 3 --seconds 1 " + extra +
                          " 2>/dev/null";
  Command result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.out += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(Command, CleanRunPrintsAResult) {
  const Command c = run_command("--trace 0");
  EXPECT_EQ(c.exit_code, 0);
  EXPECT_NE(c.out.find("{\"correct\": true"), std::string::npos);
}

TEST(Command, CorruptedDigestExitsNonZeroWithoutResult) {
  const Command c = run_command("--trace 0 --inject digest");
  EXPECT_EQ(c.exit_code, 3);
  EXPECT_EQ(c.out.find("\"correct\""), std::string::npos);
}

TEST(Command, UnbalancedLawExitsNonZeroWithoutResult) {
  const Command c = run_command("--trace 1 --inject law");
  EXPECT_EQ(c.exit_code, 3);
  EXPECT_EQ(c.out.find("\"correct\""), std::string::npos);
}

}  // namespace
