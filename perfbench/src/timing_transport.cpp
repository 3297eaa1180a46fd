#include "timing_transport.hpp"

#include <utility>

#include "net/frame.hpp"
#include "util/serialize.hpp"

namespace perfbench {

using fifl::net::Envelope;
using fifl::net::MessageType;
using fifl::net::NodeKey;

namespace {

/// True for the message types whose payload starts with the round number.
bool leads_with_round(MessageType type) {
  switch (type) {
    case MessageType::kModelBroadcast:
    case MessageType::kGradientUpload:
    case MessageType::kSliceAggregate:
    case MessageType::kAssessmentResult:
    case MessageType::kRoundSummary:
    case MessageType::kBlockProposal:
    case MessageType::kBlockVote:
    case MessageType::kAuditQuery:
    case MessageType::kAuditProof:
      return true;
    default:
      return false;
  }
}

std::uint64_t peek_round(MessageType type, std::span<const std::uint8_t> payload) {
  if (!leads_with_round(type) || payload.size() < sizeof(std::uint64_t)) return 0;
  fifl::util::ByteReader reader(payload);
  return reader.read_u64();
}

std::uint32_t frame_bytes(std::size_t payload, bool traced) {
  return static_cast<std::uint32_t>(fifl::net::kFrameHeaderSize + payload +
                                    (traced ? fifl::net::kTraceExtSize : 0));
}

class TimingEndpoint final : public fifl::net::Endpoint {
 public:
  TimingEndpoint(TimingTransport* transport, std::unique_ptr<Endpoint> inner,
                 std::shared_ptr<EndpointSlot> slot)
      : transport_(transport), inner_(std::move(inner)), slot_(std::move(slot)) {}

  NodeKey address() const noexcept override { return inner_->address(); }

  void send(NodeKey to, MessageType type, std::span<const std::uint8_t> payload,
            const fifl::obs::TraceContext* trace) override {
    const std::int64_t start = transport_->now_ns();
    inner_->send(to, type, payload, trace);
    const std::int64_t end = transport_->now_ns();
    const std::uint64_t round = peek_round(type, payload);
    log({start, end - start, round, type, true,
         frame_bytes(payload.size(), trace != nullptr)},
        start, end, 0);
    transport_->capture(type, round, payload);
  }

  std::optional<Envelope> recv(std::chrono::milliseconds timeout) override {
    const std::int64_t start = transport_->now_ns();
    std::optional<Envelope> envelope = inner_->recv(timeout);
    const std::int64_t end = transport_->now_ns();
    if (envelope) {
      log({end, end - start, peek_round(envelope->type, envelope->payload),
           envelope->type, false,
           frame_bytes(envelope->payload.size(), envelope->has_trace)},
          start, end, end - start);
    } else {
      std::lock_guard lock(slot_->mutex);
      note_call(start, end, end - start);
    }
    return envelope;
  }

  void close() override { inner_->close(); }

 private:
  void log(const WireEvent& event, std::int64_t start, std::int64_t end,
           std::int64_t blocked) {
    std::lock_guard lock(slot_->mutex);
    slot_->log.events.push_back(event);
    note_call(start, end, blocked);
  }

  // Caller holds slot_->mutex.
  void note_call(std::int64_t start, std::int64_t end, std::int64_t blocked) {
    EndpointLog& log = slot_->log;
    if (log.first_ns < 0) log.first_ns = start;
    log.last_ns = end;
    log.blocked_ns += blocked;
  }

  TimingTransport* transport_;
  std::unique_ptr<Endpoint> inner_;
  std::shared_ptr<EndpointSlot> slot_;
};

}  // namespace

TimingTransport::TimingTransport(std::shared_ptr<fifl::net::Transport> inner,
                                 std::size_t capture_per_type)
    : inner_(std::move(inner)),
      capture_per_type_(capture_per_type),
      origin_(std::chrono::steady_clock::now()) {}

std::unique_ptr<fifl::net::Endpoint> TimingTransport::open(NodeKey address) {
  auto slot = std::make_shared<EndpointSlot>();
  {
    std::lock_guard lock(mutex_);
    slots_[address] = slot;
  }
  return std::make_unique<TimingEndpoint>(this, inner_->open(address),
                                          std::move(slot));
}

std::int64_t TimingTransport::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void TimingTransport::capture(MessageType type, std::uint64_t round,
                              std::span<const std::uint8_t> payload) {
  if (round == 0) return;
  const auto index = static_cast<std::size_t>(type) - 1;
  if (index >= captured_.size() || capture_full_[index].load()) return;
  std::lock_guard lock(mutex_);
  auto& kept = captured_[index];
  if (kept.size() < capture_per_type_) kept.emplace_back(payload.begin(), payload.end());
  if (kept.size() >= capture_per_type_) capture_full_[index].store(true);
}

std::map<NodeKey, EndpointLog> TimingTransport::logs() const {
  std::map<NodeKey, std::shared_ptr<EndpointSlot>> slots;
  {
    std::lock_guard lock(mutex_);
    slots = slots_;
  }
  std::map<NodeKey, EndpointLog> out;
  for (const auto& [address, slot] : slots) {
    std::lock_guard lock(slot->mutex);
    out[address] = slot->log;
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> TimingTransport::captured(
    MessageType type) const {
  const auto index = static_cast<std::size_t>(type) - 1;
  std::lock_guard lock(mutex_);
  return index < captured_.size() ? captured_[index]
                                  : std::vector<std::vector<std::uint8_t>>{};
}

}  // namespace perfbench
