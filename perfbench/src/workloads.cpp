#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/round_common.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "fl/simulator.hpp"
#include "net/cluster.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "tensor/kernels/kernels.hpp"

namespace perfbench {

using namespace fifl;
using Clock = std::chrono::steady_clock;

namespace {

/// Local batch size and sign-flip scale of every workload.
constexpr std::size_t kBatchSize = 32;
constexpr double kFlipScale = 6.0;

/// Stretches of a run whose median throughput is its rounds_per_s.
constexpr std::size_t kRateWindows = 10;

/// Payload copies kept per message type for the decode measurement, and
/// how often each is decoded.
constexpr std::size_t kCapturePerType = 24;
constexpr std::size_t kDecodeReps = 5;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

fl::ModelFactory model_factory(Model model) {
  if (model == Model::kLeNet28) {
    return [](util::Rng& rng) {
      return nn::make_lenet({.channels = 1, .image_size = 28, .classes = 10}, rng);
    };
  }
  return [](util::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Linear>(64, 10, rng);
    return net;
  };
}

struct Inputs {
  data::TrainTestSplit split;
  std::vector<fl::WorkerSetup> setups;
  double synthesize_ms = 0.0;
};

/// Everything a run feeds the program, generated from the seed alone.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  auto data_spec = data::mnist_like(spec.samples_per_worker * spec.workers, seed);
  if (spec.model == Model::kLinear8) data_spec.image_size = 8;
  data_spec.noise = spec.data_noise;
  Inputs in;
  const auto start = Clock::now();
  in.split = data::make_synthetic_split(data_spec, spec.test_samples);
  in.synthesize_ms = ms_between(start, Clock::now());

  std::vector<fl::BehaviourPtr> behaviours;
  for (std::size_t i = 0; i < spec.workers; ++i) {
    if (i + spec.flippers >= spec.workers) {
      behaviours.push_back(std::make_unique<fl::SignFlipBehaviour>(kFlipScale));
    } else {
      behaviours.push_back(std::make_unique<fl::HonestBehaviour>());
    }
  }
  util::Rng rng(seed ^ 0x5eedc0deULL);
  in.setups = fl::make_worker_setups(in.split.train, std::move(behaviours), rng);
  return in;
}

fl::SimulatorConfig sim_config(const WorkloadSpec& spec, std::uint64_t seed) {
  fl::SimulatorConfig cfg;
  cfg.batch_size = kBatchSize;
  cfg.global_learning_rate = spec.global_learning_rate;
  cfg.seed = seed;
  return cfg;
}

core::FiflConfig fifl_config(const WorkloadSpec& spec, std::uint64_t seed) {
  core::FiflConfig cfg;
  cfg.servers = spec.servers;
  cfg.key_seed = 0x51f7u ^ seed;
  return cfg;
}

net::ClusterConfig cluster_config(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::size_t rounds) {
  net::ClusterConfig cfg;
  cfg.sim = sim_config(spec, seed);
  cfg.fifl = fifl_config(spec, seed);
  cfg.rounds = rounds;
  cfg.transport = net::TransportKind::kLoopback;
  // Generous phase limits: a clean run never waits on them, and a loaded
  // host must not turn into degraded rounds.
  cfg.timeouts.join = std::chrono::milliseconds(30000);
  cfg.timeouts.phase = std::chrono::milliseconds(30000);
  cfg.replicate_ledger = true;
  return cfg;
}

std::string model_hash(fl::Simulator& sim) {
  return net::parameter_hash(sim.global_model().flatten_parameters());
}

/// Round completion times of one run. Time the benchmark spends between
/// rounds on its own checks is recorded as a pause and left out of the
/// following gap, and so are the gaps of the run's warm-up rounds.
class RoundClock {
 public:
  RoundClock(Clock::time_point start, std::size_t rounds)
      : start_(start), warmup_(warmup_rounds(rounds)) {
    done_.reserve(rounds);
    paused_ms_.reserve(rounds);
  }

  void complete() {
    done_.push_back(Clock::now());
    paused_ms_.push_back(0.0);
  }
  void pause_since(Clock::time_point since) {
    paused_ms_.back() += ms_between(since, Clock::now());
  }
  std::size_t completed() const noexcept { return done_.size(); }

  double setup_s() const { return ms_between(start_, done_.at(0)) / 1e3; }
  std::vector<double> gaps_ms() const {
    std::vector<double> gaps;
    for (std::size_t k = 1 + warmup_; k < done_.size(); ++k) {
      gaps.push_back(ms_between(done_[k - 1], done_[k]) - paused_ms_[k - 1]);
    }
    return gaps;
  }

 private:
  Clock::time_point start_;
  std::size_t warmup_;
  std::vector<Clock::time_point> done_;
  std::vector<double> paused_ms_;
};

/// Counts rounds in which a sign-flipper was accepted without the round
/// having degraded.
class FlipperCheck {
 public:
  explicit FlipperCheck(const WorkloadSpec& spec)
      : first_flipper_(spec.workers - spec.flippers), workers_(spec.workers) {}

  bool is_flipper(std::size_t worker) const noexcept {
    return worker >= first_flipper_ && worker < workers_;
  }
  void check(const core::RoundReport& report) {
    if (report.degraded) return;
    for (std::size_t i = first_flipper_; i < workers_; ++i) {
      if (report.detection.accepted.at(i) != 0) {
        record(report.round);
        return;
      }
    }
  }
  void record(std::uint64_t round) {
    if (violations_++ == 0) first_round_ = round;
  }
  Gate gate(std::string name) const {
    std::string detail =
        std::to_string(violations_) + " non-degraded rounds accepted a sign-flipper";
    if (violations_ != 0) detail += ", the first in round " + std::to_string(first_round_);
    return {std::move(name), violations_ == 0, std::move(detail)};
  }

 private:
  std::size_t first_flipper_;
  std::size_t workers_;
  std::size_t violations_ = 0;
  std::uint64_t first_round_ = 0;
};

void add_gate(RunResult& result, std::string name, bool ok, std::string detail) {
  result.gates.push_back({std::move(name), ok, std::move(detail)});
}

void add_counted_rounds_gate(RunResult& result, std::uint64_t counted,
                             std::uint64_t expected) {
  add_gate(result, "counted_rounds", counted == expected,
           "fifl.rounds grew by " + std::to_string(counted) + ", expected " +
               std::to_string(expected));
}

/// End-to-end metrics from a run's round clock and outcome counts.
void fill_end_to_end(RunResult& result, const RoundClock& clock,
                     bool require_tail) {
  result.round_gaps_ms = clock.gaps_ms();
  if (result.round_gaps_ms.empty()) {
    throw std::runtime_error("a run needs at least two rounds");
  }
  const Percentile p50 = percentile(result.round_gaps_ms, 50);
  const Percentile p90 = percentile(result.round_gaps_ms, 90);
  if (require_tail) require_tail_samples(p90, "round_ms_p90");
  auto& m = result.metrics;
  m["setup_s"] = result.setup_s;
  m["rounds_per_s"] = windowed_rate_per_s(
      result.round_gaps_ms, std::min(kRateWindows, result.round_gaps_ms.size()));
  m["round_ms_p50"] = p50.value;
  m["round_ms_p90"] = p90.value;
  m["round_samples"] = static_cast<double>(p90.samples);
  m["round_p90_beyond"] = static_cast<double>(p90.beyond);
  m["peak_rss_mb"] = result.peak_rss_mb;
  m["ok_round_share"] =
      static_cast<double>(result.rounds_attempted - result.failed_rounds) /
      static_cast<double>(result.rounds_attempted);
  m["final_accuracy"] = result.final_accuracy;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}
bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_detection(const core::DetectionResult& a, const core::DetectionResult& b) {
  if (!same_bits(a.scores, b.scores) || a.accepted != b.accepted ||
      a.uncertain != b.uncertain || a.server_scores.size() != b.server_scores.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.server_scores.size(); ++j) {
    if (!same_bits(a.server_scores[j], b.server_scores[j])) return false;
  }
  return true;
}

bool same_contribution(const core::ContributionResult& a,
                       const core::ContributionResult& b) {
  return same_bits(a.distances, b.distances) &&
         same_bits(std::span<const double>(&a.threshold, 1),
                   std::span<const double>(&b.threshold, 1)) &&
         same_bits(a.contributions, b.contributions);
}

// ---------------------------------------------------------------------------
// In-process workloads.

struct SimFederation {
  explicit SimFederation(const WorkloadSpec& spec, std::uint64_t seed)
      : inputs(make_inputs(spec, seed)),
        sim(sim_config(spec, seed), model_factory(spec.model),
            std::move(inputs.setups), std::move(inputs.split.test)),
        engine(fifl_config(spec, seed), sim.worker_count(), sim.parameter_count()) {}

  Inputs inputs;
  fl::Simulator sim;
  core::FiflEngine engine;
};

core::TrainerConfig trainer_config() {
  core::TrainerConfig cfg;
  cfg.eval_every = 0;  // evaluate once, after the last round
  return cfg;
}

/// The untraced in-process run, through FederatedTrainer. A replay is the
/// same run with the model hash recorded after every round: the reference
/// a cluster run must reproduce bit for bit.
RunResult run_sim_untraced(const RunConfig& config) {
  const bool hash_every_round = config.mode == Mode::kReplay;
  RunResult result;
  const auto start = Clock::now();
  SimFederation fed(config.spec, config.seed);
  core::FederatedTrainer trainer(&fed.sim, &fed.engine, trainer_config());
  RoundClock clock(start, config.rounds);
  FlipperCheck flips(config.spec);
  trainer.set_report_observer(
      [&](const core::RoundReport& report, std::span<const fl::Upload>) {
        clock.complete();
        flips.check(report);
        if (hash_every_round || clock.completed() == kCheckRound) {
          const auto pause = Clock::now();
          result.hashes[clock.completed()] = model_hash(fed.sim);
          clock.pause_since(pause);
        }
      });
  const std::uint64_t counted_before = counter_value("fifl.rounds");
  std::size_t failed = 0;
  const std::size_t executed =
      trainer.run(config.rounds, [&failed](const core::RoundRecord& record) {
        if (record.degraded || record.uncertain > 0) ++failed;
      });
  result.peak_rss_mb = peak_rss_mb();
  result.rounds_attempted = config.rounds;
  result.rounds_completed = executed;
  result.failed_rounds = failed + (config.rounds - executed);
  result.setup_s = clock.setup_s();
  result.final_accuracy = trainer.final_evaluation().accuracy;
  result.hashes[executed] = model_hash(fed.sim);

  add_gate(result, "rounds_completed", executed == config.rounds,
           std::to_string(executed) + " of " + std::to_string(config.rounds) +
               " rounds ran (crash stop)");
  add_counted_rounds_gate(result, counter_value("fifl.rounds") - counted_before,
                          config.rounds);
  result.gates.push_back(flips.gate("flippers_rejected"));
  fill_end_to_end(result, clock, config.require_tail);
  return result;
}

/// Per-round time of each re-run child of process_round.
struct ChildTimes {
  std::vector<double> detect, aggregate, contribution, incentive, seal, other;
  std::vector<double> records;
};

/// Re-runs the children of one process_round call on the same inputs,
/// timing each and checking its result against the engine's report bit for
/// bit; the ledger child replays the engine's newest block on `scratch`.
/// Returns the number of mismatches. Consumes the uploads' gradients.
std::size_t replay_children(core::FiflEngine& engine, const core::RoundReport& report,
                            std::vector<fl::Upload>& uploads, chain::Ledger& scratch,
                            double process_ms, SpanRecorder& spans, ChildTimes& times) {
  std::size_t mismatches = 0;
  double children_ms = 0.0;
  const auto timed = [&](const char* name, std::vector<double>& out, auto&& body) {
    const std::int64_t id = spans.open(name);
    body();
    spans.close(id);
    const double ms = spans.duration_ms(id);
    out.push_back(ms);
    children_ms += ms;
  };

  if (!report.degraded) {
    core::DetectionResult detection;
    timed("core.detect", times.detect, [&] {
      detection = engine.detection().run(
          uploads, fl::ServerCluster(report.servers, engine.plan()));
    });
    if (!same_detection(detection, report.detection)) ++mismatches;

    core::ContributionResult contribution;
    timed("core.contribution", times.contribution, [&] {
      contribution = core::ContributionModule(engine.config().contribution)
                         .run(uploads, report.global_gradient);
    });
    if (!same_contribution(contribution, report.contribution)) ++mismatches;

    std::vector<double> rewards;
    timed("core.incentive", times.incentive, [&] {
      rewards = core::IncentiveModule(engine.config().incentive)
                    .rewards(report.reputations, report.contribution.contributions);
    });
    if (!same_bits(rewards, report.rewards)) ++mismatches;

    std::vector<fl::Gradient> gradients;
    std::vector<double> weights;
    bool any_accepted = false;
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      const bool accepted = uploads[i].arrived && report.detection.accepted[i];
      any_accepted = any_accepted || accepted;
      weights.push_back(accepted ? static_cast<double>(uploads[i].samples) : 0.0);
      gradients.push_back(std::move(uploads[i].gradient));
    }
    if (any_accepted) {
      fl::Gradient aggregate;
      timed("core.aggregate", times.aggregate, [&] {
        aggregate = fl::weighted_aggregate(gradients, weights);
      });
      if (!same_bits(aggregate.flat(), report.global_gradient.flat())) ++mismatches;
    }
  }

  const chain::Ledger& ledger = engine.ledger();
  if (ledger.block_count() > 0) {
    const chain::Block& block = ledger.block(ledger.block_count() - 1);
    std::uint64_t sealed = 0;
    timed("chain.seal", times.seal, [&] {
      for (const chain::AuditRecord& rec : block.records) {
        scratch.append(rec.kind, rec.round, rec.subject, rec.executor, rec.value);
      }
      sealed = scratch.seal_block();
    });
    if (sealed != block.index || scratch.block(sealed).block_hash != block.block_hash) {
      ++mismatches;
    }
    times.records.push_back(static_cast<double>(block.records.size()));
  }
  times.other.push_back(process_ms - children_ms);
  return mismatches;
}

/// The traced in-process run: FederatedTrainer's round loop for full
/// participation, written out with a span around each public call.
RunResult run_sim_traced(const RunConfig& config) {
  RunResult result;
  SpanRecorder spans;
  const auto start = Clock::now();
  SimFederation fed(config.spec, config.seed);

  chain::KeyRegistry registry(fed.engine.config().key_seed);
  for (std::size_t i = 0; i <= config.spec.workers; ++i) {
    registry.register_node(static_cast<chain::NodeId>(i));
  }
  chain::Ledger scratch(&registry);
  obs::RoundTraceRecorder recorder;  // in memory
  RoundClock clock(start, config.rounds);
  FlipperCheck flips(config.spec);
  ChildTimes children;
  std::size_t mismatches = 0, failed = 0, executed = 0;
  bool crashed = false;
  const std::uint64_t counted_before = counter_value("fifl.rounds");

  for (std::uint64_t r = 0; r < config.rounds; ++r) {
    const std::int64_t collect_id = spans.open("fl.collect");
    std::vector<fl::Upload> uploads = fed.sim.collect_uploads();
    spans.close(collect_id);
    const std::int64_t process_id = spans.open("core.process_round");
    const core::RoundReport report = fed.engine.process_round(uploads);
    spans.close(process_id);
    const std::int64_t apply_id = spans.open("fl.apply");
    fed.sim.apply_round(uploads, report.detection.accepted);
    spans.close(apply_id);
    core::RoundRecord record;
    record.round = fed.sim.round() - 1;
    core::summarize_report(report, uploads, record);
    obs::RoundTrace trace = core::make_round_trace(record.round, report, uploads);
    const fl::SimPhaseTimes& sim_times = fed.sim.last_phase_times();
    trace.phases.local_train_ms = sim_times.local_train_ms;
    trace.phases.channel_ms = sim_times.channel_ms;
    trace.phases.detect_ms = report.detect_ms;
    trace.phases.aggregate_ms = report.aggregate_ms;
    trace.phases.ledger_ms = report.ledger_ms;
    recorder.record(trace);
    crashed = fed.sim.model_crashed();
    clock.complete();
    ++executed;

    const auto pause = Clock::now();
    if (record.degraded || record.uncertain > 0) ++failed;
    flips.check(report);
    mismatches += replay_children(fed.engine, report, uploads, scratch,
                                  spans.duration_ms(process_id), spans, children);
    result.hashes[r + 1] = model_hash(fed.sim);
    clock.pause_since(pause);
    if (crashed) break;
  }
  result.peak_rss_mb = peak_rss_mb();
  result.rounds_attempted = config.rounds;
  result.rounds_completed = executed;
  result.failed_rounds = failed + (config.rounds - executed);
  result.final_accuracy = fed.sim.evaluate().accuracy;

  add_gate(result, "rounds_completed", executed == config.rounds && !crashed,
           std::to_string(executed) + " of " + std::to_string(config.rounds) +
               " rounds ran");
  add_counted_rounds_gate(result, counter_value("fifl.rounds") - counted_before,
                          config.rounds);
  result.gates.push_back(flips.gate("flippers_rejected"));
  add_gate(result, "replayed_children_match", mismatches == 0,
           std::to_string(mismatches) +
               " re-run results differ from the round report or block hash");
  add_gate(result, "round_traces_recorded", recorder.size() == executed,
           std::to_string(recorder.size()) + " traces for " +
               std::to_string(executed) + " rounds");

  result.round_gaps_ms = clock.gaps_ms();
  const std::vector<double> collect = spans.durations_ms("fl.collect");
  const Percentile collect_p90 = percentile(collect, 90);
  if (config.require_tail) require_tail_samples(collect_p90, "fl.collect_ms_p90");
  auto& m = result.metrics;
  m["data.synthesize_ms"] = fed.inputs.synthesize_ms;
  m["fl.collect_ms"] = p50_or_zero(collect);
  m["fl.collect_ms_p90"] = collect_p90.value;
  m["fl.apply_ms"] = p50_or_zero(spans.durations_ms("fl.apply"));
  m["core.process_round_ms"] = p50_or_zero(spans.durations_ms("core.process_round"));
  m["core.detect_ms"] = p50_or_zero(children.detect);
  m["core.aggregate_ms"] = p50_or_zero(children.aggregate);
  m["core.contribution_ms"] = p50_or_zero(children.contribution);
  m["core.incentive_ms"] = p50_or_zero(children.incentive);
  m["core.other_ms"] = p50_or_zero(children.other);
  m["chain.seal_ms"] = p50_or_zero(children.seal);
  m["chain.records_per_block"] = p50_or_zero(children.records);
  m["round_ms_p50"] = p50_or_zero(result.round_gaps_ms);
  return result;
}

// ---------------------------------------------------------------------------
// The networked workload.

struct WireCounters {
  std::uint64_t bytes = 0, msgs = 0, frame_errors = 0, late = 0, dead = 0;
  std::uint64_t dropped = 0, fifl_rounds = 0;
  std::array<std::uint64_t, net::kMessageTypeCount> by_type{};

  static WireCounters now() {
    net::NetMetrics& m = net::NetMetrics::global();
    WireCounters c;
    c.bytes = m.bytes_tx->value();
    c.msgs = m.msgs_tx->value();
    c.frame_errors = m.frame_errors->value();
    c.late = m.late_uploads->value();
    c.dead = m.dead_uploads->value();
    c.dropped = m.dropped_workers->value();
    c.fifl_rounds = counter_value("fifl.rounds");
    for (std::size_t i = 0; i < c.by_type.size(); ++i) c.by_type[i] = m.bytes_tx_type[i]->value();
    return c;
  }
};

struct ClusterRun {
  ClusterRun(const RunConfig& config, std::size_t rounds, Clock::time_point start,
             bool traced)
      : inputs(make_inputs(config.spec, config.seed)), clock(start, rounds) {
    net::ClusterConfig cfg = cluster_config(config.spec, config.seed, rounds);
    if (traced) {
      timing = std::make_shared<TimingTransport>(
          std::make_shared<net::LoopbackTransport>(), kCapturePerType);
      cfg.transport_override = timing;
    }
    cluster = std::make_unique<net::Cluster>(cfg, model_factory(config.spec.model),
                                             std::move(inputs.setups),
                                             std::move(inputs.split.test));
    cluster->set_round_callback(
        [this](const net::NetRoundResult&, std::span<const float>) { clock.complete(); });
  }
  // The round callback holds `this`.
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  Inputs inputs;
  RoundClock clock;
  std::shared_ptr<TimingTransport> timing;
  std::unique_ptr<net::Cluster> cluster;
};

RunResult run_cluster(const RunConfig& config) {
  const bool traced = config.mode == Mode::kTraced;
  RunResult result;
  const auto start = Clock::now();
  ClusterRun run(config, config.rounds, start, traced);
  obs::RoundTraceRecorder recorder;  // in memory, traced runs only
  if (traced) run.cluster->set_trace_recorder(&recorder);

  const WireCounters before = WireCounters::now();
  const std::vector<net::NetRoundResult>& rows = run.cluster->run();
  result.peak_rss_mb = peak_rss_mb();
  const WireCounters after = WireCounters::now();

  const WorkloadSpec& spec = config.spec;
  result.rounds_attempted = config.rounds;
  result.rounds_completed = rows.size();
  std::set<std::uint64_t> failed;
  FlipperCheck flips(spec);
  for (const net::NetRoundResult& row : rows) {
    result.hashes[row.round + 1] = row.model_hash;
    if (row.degraded || row.uncertain > 0 || row.counted < spec.workers) {
      failed.insert(row.round);
    } else if (row.rejected < spec.flippers) {
      // The row has counts only, so this catches an accepted flipper only
      // when no honest worker was rejected with it. The exact per-worker
      // check is the in-process replay's, whose decisions the per-round
      // hash comparison ties to this run's.
      flips.record(row.round);
    }
  }
  std::size_t audits = 0, unverified = 0;
  bool audit_counts_ok = true;
  for (std::size_t i = 0; i < run.cluster->worker_count(); ++i) {
    const auto& outcomes = run.cluster->worker_node(i).audit_outcomes();
    // Every round but the last is audited (its answer would race Leave).
    audit_counts_ok = audit_counts_ok && outcomes.size() + 1 == config.rounds;
    for (const net::WorkerAuditOutcome& outcome : outcomes) {
      ++audits;
      if (!outcome.verified) {
        ++unverified;
        failed.insert(outcome.round);
      }
    }
  }
  const std::uint64_t wire_faults = (after.frame_errors - before.frame_errors) +
                                    (after.late - before.late) +
                                    (after.dead - before.dead) +
                                    (after.dropped - before.dropped);
  result.failed_rounds = std::min<std::size_t>(
      config.rounds, failed.size() + wire_faults + (config.rounds - rows.size()));
  result.setup_s = run.clock.setup_s();
  result.final_accuracy = run.cluster->final_evaluation().accuracy;

  result.wire_bytes["total"] = after.bytes - before.bytes;
  for (std::size_t i = 0; i < after.by_type.size(); ++i) {
    const auto type = static_cast<net::MessageType>(i + 1);
    result.wire_bytes[net::message_type_name(type)] = after.by_type[i] - before.by_type[i];
  }

  add_gate(result, "rounds_completed", rows.size() == config.rounds,
           std::to_string(rows.size()) + " of " + std::to_string(config.rounds) +
               " rounds committed");
  add_counted_rounds_gate(result, after.fifl_rounds - before.fifl_rounds,
                          config.rounds * spec.servers);
  result.gates.push_back(flips.gate("flippers_rejected"));
  add_gate(result, "audits_verified", unverified == 0 && audit_counts_ok,
           std::to_string(unverified) + " of " + std::to_string(audits) +
               " worker audits failed to verify" +
               (audit_counts_ok ? "" : "; a worker missed an audit"));
  add_gate(result, "wire_clean", wire_faults == 0,
           std::to_string(wire_faults) +
               " frame errors, late or dead uploads, or dropped workers");

  auto& m = result.metrics;
  m["wire_bytes_per_round"] =
      static_cast<double>(after.bytes - before.bytes) / static_cast<double>(config.rounds);
  m["wire_msgs_per_round"] =
      static_cast<double>(after.msgs - before.msgs) / static_cast<double>(config.rounds);
  if (!traced) {
    fill_end_to_end(result, run.clock, config.require_tail);
    return result;
  }

  // Per-worker acceptance from the lead's round traces.
  FlipperCheck traced_flips(spec);
  for (const obs::RoundTrace& trace : recorder.traces()) {
    for (const auto& w : trace.workers) {
      if (traced_flips.is_flipper(w.id) && w.accepted) {
        traced_flips.record(trace.round);
        break;
      }
    }
  }
  result.gates.push_back(traced_flips.gate("flippers_rejected_per_worker"));

  const auto logs = run.timing->logs();
  const WireTotals totals = wire_totals(logs);
  add_gate(result, "decorator_counts_match", totals.bytes == after.bytes - before.bytes &&
                                                 totals.msgs == after.msgs - before.msgs,
           "decorator saw " + std::to_string(totals.bytes) + " B in " +
               std::to_string(totals.msgs) + " messages; NetMetrics " +
               std::to_string(after.bytes - before.bytes) + " B in " +
               std::to_string(after.msgs - before.msgs));

  result.round_gaps_ms = run.clock.gaps_ms();
  m["data.synthesize_ms"] = run.inputs.synthesize_ms;
  for (const auto& [name, value] : wire_metrics(logs, config.rounds)) m[name] = value;
  for (const auto& [name, value] : node_metrics(logs, spec.workers, spec.servers)) {
    m[name] = value;
  }
  for (const auto& [name, value] : decode_metrics(*run.timing, kDecodeReps)) m[name] = value;
  m["round_ms_p50"] = p50_or_zero(result.round_gaps_ms);
  return result;
}

/// One set-up, synthesis through the first completed round, and nothing
/// else. run.py takes setup_s as the median over fresh processes, each
/// set-up as cold as a user's.
RunResult run_setup(const RunConfig& config) {
  RunResult result;
  const auto start = Clock::now();
  if (config.spec.cluster) {
    ClusterRun run(config, 1, start, false);
    run.cluster->run();
    result.setup_s = run.clock.setup_s();
  } else {
    SimFederation fed(config.spec, config.seed);
    core::FederatedTrainer trainer(&fed.sim, &fed.engine, trainer_config());
    RoundClock clock(start, 1);
    trainer.set_report_observer(
        [&clock](const core::RoundReport&, std::span<const fl::Upload>) {
          clock.complete();
        });
    trainer.run(1);
    result.setup_s = clock.setup_s();
  }
  result.rounds_attempted = result.rounds_completed = 1;
  result.metrics["setup_s"] = result.setup_s;
  return result;
}

}  // namespace

// Data noise and the global step (Eq. 3) keep every run inside the regime
// where the gate "every flipper is rejected" holds. Detection scores a
// cosine (Eq. 11-12), and a flipper slips through in a round where its
// own honest gradient points away from the servers' benchmark. On the
// LeNet workloads at the synthetic data's default noise of 0.35 that
// happened in 4 of 1,120 rounds (7 seeds); at noise 0.15 in none of 4,640
// rounds (29 seeds), with every flipper scoring -0.075 or lower. The
// one-layer sim-swarm model is clean while it still learns: at a step of
// 0.002 the worst of ~20 seeds first accepted a flipper in round ~780, at
// 0.001 in round 1,568, with 1,000 rounds in a 10 s run. A smaller step
// leaves the final accuracy too seed-dependent (0.82-0.96 at 0.0007).
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "sim-train",
       .cluster = false,
       .workers = 8,
       .servers = 2,
       .flippers = 2,
       .model = Model::kLeNet28,
       .samples_per_worker = 128,
       .test_samples = 256,
       .data_noise = 0.15,
       .global_learning_rate = 0.05,
       .nominal_rounds_per_s = 24.0},
      {.name = "sim-swarm",
       .cluster = false,
       .workers = 256,
       .servers = 3,
       .flippers = 64,
       .model = Model::kLinear8,
       .samples_per_worker = 32,
       .test_samples = 512,
       .data_noise = 0.35,
       .global_learning_rate = 0.001,
       .nominal_rounds_per_s = 100.0},
      {.name = "cluster-audit",
       .cluster = true,
       .workers = 4,
       .servers = 3,
       .flippers = 1,
       .model = Model::kLeNet28,
       .samples_per_worker = 128,
       .test_samples = 256,
       .data_noise = 0.15,
       .global_learning_rate = 0.05,
       .nominal_rounds_per_s = 22.0},
  };
  return all;
}

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::size_t rounds_for(const WorkloadSpec& spec, double seconds) {
  const auto wanted = static_cast<std::size_t>(std::llround(seconds * spec.nominal_rounds_per_s));
  // Round 1 is set-up and the warm-up gaps are left out, so p90 over the
  // remaining gaps needs that many rounds more.
  return std::max(wanted, kWarmupRounds + min_samples_for(90) + 1);
}

std::size_t warmup_rounds(std::size_t rounds) {
  return rounds >= kWarmupRounds + min_samples_for(90) + 1 ? kWarmupRounds : 0;
}

WorkloadSpec tiny(const WorkloadSpec& spec) {
  WorkloadSpec out = spec;
  out.name = spec.name + "-tiny";
  out.workers = std::max<std::size_t>(spec.servers + 2, spec.workers / 8);
  out.flippers = std::max<std::size_t>(1, out.workers / 4);
  out.samples_per_worker = 40;
  out.test_samples = 64;
  return out;
}

bool RunResult::ok() const {
  return std::all_of(gates.begin(), gates.end(), [](const Gate& g) { return g.ok; });
}

RunResult run_workload(const RunConfig& config) {
  if (config.mode == Mode::kSetup) return run_setup(config);
  if (config.rounds < 2) throw std::invalid_argument("a run needs at least two rounds");
  if (config.mode == Mode::kReplay) return run_sim_untraced(config);
  if (config.spec.cluster) return run_cluster(config);
  return config.mode == Mode::kTraced ? run_sim_traced(config) : run_sim_untraced(config);
}

std::map<std::string, std::string> environment_stamp() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", compiler},
      {"kernel_isa", tensor::kernels::isa_name(tensor::kernels::active_isa())},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
  };
}

std::string refusal_reason(Mode mode) {
  if (std::strlen(PERFBENCH_FIFL_SANITIZE) != 0) {
    return std::string("the fifl libraries are a sanitizer build (FIFL_SANITIZE=") +
           PERFBENCH_FIFL_SANITIZE + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark is a sanitizer build";
#endif
  if (mode != Mode::kTraced) {
    for (const char* var : {"FIFL_TRACE_OUT", "FIFL_TRACE_DIR", "FIFL_KERNEL_ISA"}) {
      const char* value = std::getenv(var);
      if (value != nullptr && *value != '\0') {
        return std::string(var) +
               " is set: program-side tracing or a forced kernel ISA would "
               "enter the end-to-end numbers";
      }
    }
  }
  return "";
}

}  // namespace perfbench
