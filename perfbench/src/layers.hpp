// Per-layer measurement for the traced runs: the span recorder the
// benchmark's own round loop writes to, and the derivation of wire and
// node metrics from a TimingTransport's logs after a cluster run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "timing_transport.hpp"

namespace perfbench {

/// Per-layer metric values by name (BENCHMARK.json per_layer names).
using LayerMetrics = std::map<std::string, double>;

/// One timed call of a layer.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store of a traced run.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span now and returns its id for close().
  std::int64_t open(const char* name);
  void close(std::int64_t id);

  double duration_ms(std::int64_t id) const;
  /// Durations in milliseconds of every span called `name`, in record order.
  std::vector<double> durations_ms(std::string_view name) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Wire metrics of a cluster run from the decorator's logs: bytes and
/// messages sent per round, per type and in total, and p50 send time of
/// the two bulk types. `rounds` is the number of rounds the run drove.
LayerMetrics wire_metrics(const std::map<fifl::net::NodeKey, EndpointLog>& logs,
                          std::size_t rounds);

/// Total frame bytes and messages the decorated endpoints sent.
struct WireTotals {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;
};
WireTotals wire_totals(const std::map<fifl::net::NodeKey, EndpointLog>& logs);

/// Node spans of a cluster with `workers` worker nodes and `servers`
/// servers (server 0 the fixed lead), derived from send/recv timestamps:
/// worker train and audit round trips, the lead's collect wait, assess
/// and commit phases, and each role's share of time blocked in recv.
LayerMetrics node_metrics(const std::map<fifl::net::NodeKey, EndpointLog>& logs,
                          std::size_t workers, std::size_t servers);

/// Decode cost of captured payloads: each is decoded `reps` times with
/// net::decode_payload; reports the p50 in microseconds per type, and the
/// records per proposed block.
LayerMetrics decode_metrics(const TimingTransport& transport, std::size_t reps);

}  // namespace perfbench
