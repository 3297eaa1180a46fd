// The benchmark's own tests: the percentile helper, and a tiny-shape run of
// every workload through every correctness gate, which on the cluster also
// shows the timing transport decorator to be transparent.
#include <gtest/gtest.h>

#include <numeric>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(1, 50), 1u);
  EXPECT_EQ(nearest_rank(10, 50), 5u);
  EXPECT_EQ(nearest_rank(11, 50), 6u);
  EXPECT_EQ(nearest_rank(100, 90), 90u);
  EXPECT_EQ(nearest_rank(101, 90), 91u);
  EXPECT_THROW(nearest_rank(0, 50), std::invalid_argument);
  EXPECT_THROW(nearest_rank(10, 0), std::invalid_argument);
}

TEST(Percentile, ValuesAndCounts) {
  std::vector<double> samples = one_to(100);
  std::reverse(samples.begin(), samples.end());  // order must not matter
  const Percentile p50 = percentile(samples, 50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p90 = percentile(samples, 90);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50).value, 2.0);
  EXPECT_EQ(p50_or_zero({}), 0.0);
}

TEST(Percentile, TenBeyondRule) {
  EXPECT_EQ(min_samples_for(90), 100u);
  EXPECT_EQ(min_samples_for(50), 20u);
  EXPECT_NO_THROW(require_tail_samples(percentile(one_to(100), 90), "p90"));
  EXPECT_THROW(require_tail_samples(percentile(one_to(99), 90), "p90"),
               std::runtime_error);
}

TEST(Percentile, WindowedRate) {
  // Ten windows of two 100 ms gaps, but one window takes 1 s per gap:
  // the median window still reads 10/s.
  std::vector<double> gaps(20, 100.0);
  gaps[4] = gaps[5] = 1000.0;
  EXPECT_DOUBLE_EQ(windowed_rate_per_s(gaps, 10), 10.0);
  // The last window takes the remainder.
  EXPECT_DOUBLE_EQ(windowed_rate_per_s({100.0, 100.0, 50.0}, 1), 12.0);
  EXPECT_DOUBLE_EQ(windowed_rate_per_s({100.0, 50.0, 50.0, 50.0}, 3), 20.0);
  EXPECT_THROW(windowed_rate_per_s({1.0}, 2), std::invalid_argument);
}

TEST(Workloads, RoundsCoverTheTail) {
  for (const WorkloadSpec& spec : workloads()) {
    // Round 1 is set-up and the warm-up gaps are left out; the remaining
    // gaps must support a p90.
    const std::size_t shortest = rounds_for(spec, 0.1);
    EXPECT_EQ(warmup_rounds(shortest), kWarmupRounds) << spec.name;
    EXPECT_GE(shortest - 1 - kWarmupRounds, min_samples_for(90)) << spec.name;
    EXPECT_EQ(rounds_for(spec, 100.0),
              static_cast<std::size_t>(100.0 * spec.nominal_rounds_per_s));
  }
  EXPECT_THROW(find_workload("nope"), std::invalid_argument);
}

constexpr std::size_t kTinyRounds = 6;
static_assert(kCheckRound < kTinyRounds);

RunConfig tiny_config(const WorkloadSpec& spec, Mode mode, std::uint64_t seed = 11) {
  RunConfig config;
  config.spec = tiny(spec);
  config.seed = seed;
  config.rounds = kTinyRounds;
  config.mode = mode;
  config.require_tail = false;
  return config;
}

void expect_gates_pass(const RunResult& result, const std::string& what) {
  for (const Gate& gate : result.gates) {
    EXPECT_TRUE(gate.ok) << what << ": " << gate.name << ": " << gate.detail;
  }
  EXPECT_TRUE(result.ok()) << what;
}

void expect_same_hashes(const RunResult& a, const RunResult& b, const std::string& what) {
  std::size_t compared = 0;
  for (const auto& [round, hash] : a.hashes) {
    const auto it = b.hashes.find(round);
    if (it == b.hashes.end()) continue;
    EXPECT_EQ(hash, it->second) << what << " after round " << round;
    ++compared;
  }
  EXPECT_GT(compared, 0u) << what;
}

class TinyWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkload, PassesEveryGate) {
  const WorkloadSpec& spec = find_workload(GetParam());
  const RunResult untraced = run_workload(tiny_config(spec, Mode::kUntraced));
  expect_gates_pass(untraced, "untraced");
  EXPECT_EQ(untraced.rounds_completed, kTinyRounds);
  EXPECT_EQ(untraced.failed_rounds, 0u);
  EXPECT_EQ(untraced.hashes.count(kCheckRound), 1u);
  EXPECT_EQ(untraced.round_gaps_ms.size(), kTinyRounds - 1);
  for (const char* name : {"setup_s", "rounds_per_s", "round_ms_p50", "round_ms_p90",
                           "peak_rss_mb", "ok_round_share", "final_accuracy"}) {
    ASSERT_TRUE(untraced.metrics.count(name)) << name;
    EXPECT_GT(untraced.metrics.at(name), 0.0) << name;
  }
  EXPECT_EQ(untraced.metrics.at("ok_round_share"), 1.0);
  EXPECT_EQ(untraced.metrics.at("setup_s"), untraced.setup_s);

  const RunResult setup = run_workload(tiny_config(spec, Mode::kSetup));
  EXPECT_GT(setup.metrics.at("setup_s"), 0.0);
  EXPECT_EQ(setup.rounds_completed, 1u);

  const RunResult traced = run_workload(tiny_config(spec, Mode::kTraced));
  expect_gates_pass(traced, "traced");
  expect_same_hashes(untraced, traced, "untraced vs traced");
  EXPECT_EQ(untraced.hashes.at(kTinyRounds), traced.hashes.at(kTinyRounds));
  EXPECT_GT(traced.metrics.at("data.synthesize_ms"), 0.0);

  if (spec.cluster) {
    const RunResult replay = run_workload(tiny_config(spec, Mode::kReplay));
    expect_gates_pass(replay, "replay");
    ASSERT_EQ(replay.hashes.size(), kTinyRounds);
    EXPECT_EQ(replay.hashes, untraced.hashes);
    // The timing decorator is transparent: the plain run and the one
    // through the decorator (which also records round traces, locally
    // only) reach the same hashes above and put the same bytes on the
    // wire. Two sizes depend on timing, decorator or not: the count of
    // timer heartbeats, and audit proofs, which carry only the headers
    // the worker had not verified when it asked. Every other message is
    // fixed by the protocol.
    EXPECT_EQ(traced.hashes, untraced.hashes);
    EXPECT_GT(untraced.wire_bytes.at("gradient_upload"), 0u);
    for (const auto& [type, bytes] : untraced.wire_bytes) {
      if (type == "heartbeat" || type == "audit_proof" || type == "total") continue;
      EXPECT_EQ(bytes, traced.wire_bytes.at(type)) << type;
    }
    for (const char* name : {"net.bytes_per_round.gradient_upload",
                             "net.bytes_per_round.audit_proof", "net.msgs_per_round",
                             "net.send_us.gradient_upload", "net.decode_us.block_proposal",
                             "net.decode_us.audit_proof", "node.worker.train_ms",
                             "node.lead.commit_ms", "node.worker.audit_ms",
                             "node.worker.idle_share", "chain.records_per_block"}) {
      ASSERT_TRUE(traced.metrics.count(name)) << name;
      EXPECT_GT(traced.metrics.at(name), 0.0) << name;
    }
    return;
  }
  // The re-run children and the self time account for process_round.
  const auto& m = traced.metrics;
  for (const char* name : {"fl.collect_ms", "fl.apply_ms", "core.process_round_ms",
                           "core.detect_ms", "core.aggregate_ms", "core.contribution_ms",
                           "core.incentive_ms", "chain.seal_ms"}) {
    EXPECT_GT(m.at(name), 0.0) << name;
  }
  EXPECT_EQ(m.at("chain.records_per_block"), 4.0 * static_cast<double>(tiny(spec).workers));
}

INSTANTIATE_TEST_SUITE_P(All, TinyWorkload,
                         ::testing::Values("sim-train", "sim-swarm", "cluster-audit"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Refusal, TracingEnvironmentBlocksUntracedRuns) {
  // Traced runs ignore the environment, so only a sanitizer build refuses
  // them; such a build refuses every mode.
  if (const std::string reason = refusal_reason(Mode::kTraced); !reason.empty()) {
    GTEST_SKIP() << reason;
  }
  ASSERT_EQ(refusal_reason(Mode::kUntraced), "");
  setenv("FIFL_KERNEL_ISA", "scalar", 1);
  EXPECT_NE(refusal_reason(Mode::kUntraced), "");
  EXPECT_EQ(refusal_reason(Mode::kTraced), "");
  unsetenv("FIFL_KERNEL_ISA");
  EXPECT_EQ(refusal_reason(Mode::kUntraced), "");
}

}  // namespace
}  // namespace perfbench
