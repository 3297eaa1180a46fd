// The benchmark's workloads and the runs that measure them.
//
// Every run is a closed loop: FL is synchronous, so round r+1 starts only
// after round r is committed. A run drives public entry points only:
//   - sim-train / sim-swarm: fl::Simulator + core::FiflEngine, through
//     core::FederatedTrainer (untraced), or through the benchmark's own
//     copy of the trainer's round loop with spans around each call
//     (traced);
//   - cluster-audit: net::Cluster over loopback with a replicated ledger;
//     traced runs go through the TimingTransport decorator
//     (ClusterConfig::transport_override).
// All inputs come from the seed; the program receives only those inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hpp"

namespace perfbench {

enum class Model {
  kLeNet28,  // LeNet on 28x28 MNIST-like images
  kLinear8,  // one linear layer 64 -> 10 on 8x8 images
};

struct WorkloadSpec {
  std::string name;
  bool cluster = false;
  std::size_t workers = 0;
  std::size_t servers = 0;
  std::size_t flippers = 0;  // the last `flippers` workers sign-flip (scale 6)
  Model model = Model::kLeNet28;
  std::size_t samples_per_worker = 0;
  std::size_t test_samples = 0;
  /// Pixel noise of the synthetic data and Eq. 3's global step; see
  /// workloads() for how they are chosen.
  double data_noise = 0.0;
  double global_learning_rate = 0.0;
  /// Rounds per second of the build the benchmark was sized on; a run of
  /// --seconds s drives round(s * rate) rounds, so two builds measured
  /// with the same --seconds do the same work.
  double nominal_rounds_per_s = 0.0;
};

const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& find_workload(std::string_view name);
/// Rounds a run of `seconds` drives: enough for a p90 over the round gaps
/// left after warm-up.
std::size_t rounds_for(const WorkloadSpec& spec, double seconds);
/// A seed can start slowly: on sim-train, seed 1 runs its first 5-8
/// rounds after set-up 3-4x slower than the rest. A run's round timings
/// leave out the gaps of this many rounds after round 1.
inline constexpr std::size_t kWarmupRounds = 20;
/// Warm-up rounds of a run of `rounds` rounds: kWarmupRounds when a p90
/// remains after them, 0 for the short check and test runs.
std::size_t warmup_rounds(std::size_t rounds);
/// A shrunken copy for the benchmark's own tests: same code paths,
/// fewer workers and samples.
WorkloadSpec tiny(const WorkloadSpec& spec);

/// Untraced in-process runs record the model hash after this many rounds,
/// besides the final one; a traced run of this length checks it.
inline constexpr std::size_t kCheckRound = 3;

enum class Mode {
  kUntraced,  // end-to-end metrics, no spans
  kTraced,    // per-layer metrics from spans and the wire decorator
  kReplay,    // cluster only: the in-process Simulator+FiflEngine reference,
              // the untraced in-process run with a hash after every round
  kSetup,     // one set-up only (synthesis through round 1), for setup_s
};

struct RunConfig {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  std::size_t rounds = 0;
  Mode mode = Mode::kUntraced;
  /// Refuse a p90 with fewer than kMinBeyond samples beyond it. Short
  /// check runs and the benchmark's tiny-shape tests turn this off.
  bool require_tail = true;
};

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunResult {
  std::size_t rounds_attempted = 0;
  std::size_t rounds_completed = 0;
  std::size_t failed_rounds = 0;
  /// Gaps between consecutive round completions, round 1 excluded.
  std::vector<double> round_gaps_ms;
  /// Synthesis through the first completed round, the first thing the
  /// process does, so it includes one-time costs such as pool start-up.
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double final_accuracy = 0.0;
  /// Model hash (net::parameter_hash) after k rounds, by k.
  std::map<std::uint64_t, std::string> hashes;
  std::vector<Gate> gates;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::map<std::string, double> metrics;
  /// Cluster runs: NetMetrics sent-bytes deltas over the measured run, in
  /// total and per message type name.
  std::map<std::string, std::uint64_t> wire_bytes;

  bool ok() const;
};

/// Runs one workload in this process. Throws on a failure that leaves no
/// result (bad configuration, a node failure, a violated tail rule). Only
/// the first run in a process measures a cold set-up.
RunResult run_workload(const RunConfig& config);

/// Build and host facts printed next to the numbers.
std::map<std::string, std::string> environment_stamp();

/// Non-empty reason when this build or environment must not be measured:
/// a sanitizer build, or (for untraced runs) program-side tracing or a
/// forced kernel ISA switched on through the environment.
std::string refusal_reason(Mode mode);

}  // namespace perfbench
