// TimingTransport: a net::Transport decorator that times every send and
// recv of the endpoints it hands out and forwards them unchanged to the
// wrapped transport. Installed through ClusterConfig::transport_override,
// it is the benchmark's only view into a running cluster: message counts
// and frame bytes per type, send durations, time blocked in recv, and the
// send/recv timestamps the node spans are derived from. It also keeps
// copies of a few payloads per type so decode cost can be measured after
// the run, away from the round path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

/// One send or recv seen by a decorated endpoint. Times are steady_clock
/// nanoseconds since the transport was made.
struct WireEvent {
  std::int64_t t_ns = 0;    // send: call start; recv: return
  std::int64_t dur_ns = 0;  // send: inner send; recv: time blocked in recv
  /// Round number leading the payload (0 for types that carry none).
  std::uint64_t round = 0;
  fifl::net::MessageType type = fifl::net::MessageType::kHeartbeat;
  bool is_send = false;
  std::uint32_t frame_bytes = 0;  // header + payload (+ trace extension)
};

/// Everything one endpoint recorded. `blocked_ns` includes recv calls
/// that timed out without a message.
struct EndpointLog {
  std::vector<WireEvent> events;
  std::int64_t blocked_ns = 0;
  std::int64_t first_ns = -1;  // start of the first call
  std::int64_t last_ns = -1;   // end of the last call
};

/// One endpoint's log behind its own lock; shared by the endpoint and the
/// transport, so the log outlives the endpoint the cluster destroys.
struct EndpointSlot {
  std::mutex mutex;  // guards log
  EndpointLog log;
};

class TimingTransport final : public fifl::net::Transport {
 public:
  /// Keeps up to `capture_per_type` payload copies of each message type,
  /// taken from rounds >= 1 so join-time traffic is not sampled.
  TimingTransport(std::shared_ptr<fifl::net::Transport> inner,
                  std::size_t capture_per_type);

  std::unique_ptr<fifl::net::Endpoint> open(fifl::net::NodeKey address) override;

  /// Snapshot of every endpoint's log, by address. Read after the cluster
  /// run has joined its node threads.
  std::map<fifl::net::NodeKey, EndpointLog> logs() const;

  /// Captured payloads of one message type.
  std::vector<std::vector<std::uint8_t>> captured(fifl::net::MessageType type) const;

  /// Implementation hooks for the decorated endpoints.
  std::int64_t now_ns() const;
  void capture(fifl::net::MessageType type, std::uint64_t round,
               std::span<const std::uint8_t> payload);

 private:
  std::shared_ptr<fifl::net::Transport> inner_;
  std::size_t capture_per_type_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards slots_ and captured_
  std::map<fifl::net::NodeKey, std::shared_ptr<EndpointSlot>> slots_;
  std::array<std::vector<std::vector<std::uint8_t>>, fifl::net::kMessageTypeCount>
      captured_;
  /// Set once a type's captures are complete, so sends skip the lock.
  std::array<std::atomic<bool>, fifl::net::kMessageTypeCount> capture_full_{};
};

}  // namespace perfbench
