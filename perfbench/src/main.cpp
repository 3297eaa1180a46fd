// fifl_perfbench: runs one workload once and prints its result as one JSON
// line. run.py starts one process per run, so process-global metrics and
// peak RSS never mix across runs.
//
//   fifl_perfbench --workload sim-train --seed 7 --seconds 10 --mode untraced
//       [--rounds N] [--require-tail 0]
//
// Modes: untraced, traced, replay (cluster workloads), setup (one cold
// set-up through round 1).
//
// Exit codes: 0 every correctness gate passed, 1 a gate failed (the JSON
// line says which), 2 bad arguments or a failed run, 3 refused set-up.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::size_t rounds = 0;
  bool require_tail = true;
  std::string mode = "untraced";
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--rounds") {
      args.rounds = std::stoul(value);
    } else if (flag == "--require-tail") {
      args.require_tail = value != "0";
    } else if (flag == "--mode") {
      args.mode = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.rounds == 0 && args.seconds <= 0.0) {
    throw std::invalid_argument("give --rounds or --seconds");
  }
  return args;
}

Mode parse_mode(const std::string& mode) {
  if (mode == "untraced") return Mode::kUntraced;
  if (mode == "traced") return Mode::kTraced;
  if (mode == "replay") return Mode::kReplay;
  if (mode == "setup") return Mode::kSetup;
  throw std::invalid_argument("--mode must be untraced, traced, replay or setup");
}

std::string to_json(const Args& args, const RunConfig& config, const RunResult& result) {
  fifl::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("mode").value(args.mode);
  w.key("seed").value(args.seed);
  w.key("rounds").value(static_cast<std::uint64_t>(config.rounds));
  w.key("check_round").value(static_cast<std::uint64_t>(kCheckRound));
  w.key("env").begin_object();
  for (const auto& [key, value] : environment_stamp()) w.key(key).value(value);
  w.end_object();
  w.key("attempted").value(static_cast<std::uint64_t>(result.rounds_attempted));
  w.key("completed").value(static_cast<std::uint64_t>(result.rounds_completed));
  w.key("failed").value(static_cast<std::uint64_t>(result.failed_rounds));
  w.key("ok").value(result.ok());
  w.key("gates").begin_array();
  for (const Gate& gate : result.gates) {
    w.begin_object();
    w.key("name").value(gate.name);
    w.key("ok").value(gate.ok);
    w.key("detail").value(gate.detail);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, value] : result.metrics) w.key(name).value(value);
  w.end_object();
  w.key("hashes").begin_object();
  for (const auto& [round, hash] : result.hashes) w.key(std::to_string(round)).value(hash);
  w.end_object();
  w.key("wire_bytes").begin_object();
  for (const auto& [type, bytes] : result.wire_bytes) w.key(type).value(bytes);
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  RunConfig config;
  try {
    args = parse(argc, argv);
    config.spec = find_workload(args.workload);
    config.seed = args.seed;
    config.rounds = args.rounds != 0 ? args.rounds : rounds_for(config.spec, args.seconds);
    config.require_tail = args.require_tail;
    config.mode = parse_mode(args.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fifl_perfbench: %s\n", e.what());
    return 2;
  }
  if (const std::string reason = refusal_reason(config.mode); !reason.empty()) {
    std::fprintf(stderr, "fifl_perfbench: refusing to measure: %s\n", reason.c_str());
    return 3;
  }
  try {
    const RunResult result = run_workload(config);
    std::cout << to_json(args, config, result) << std::endl;
    return result.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fifl_perfbench: %s run of %s failed: %s\n", args.mode.c_str(),
                 args.workload.c_str(), e.what());
    return 2;
  }
}
