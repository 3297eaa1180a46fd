#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/messages.hpp"
#include "stats.hpp"

namespace perfbench {

using fifl::net::MessageType;
using fifl::net::NodeKey;

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 14);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int64_t SpanRecorder::open(const char* name) {
  const std::int64_t now = now_ns();
  spans_.push_back(Span{name, now, now});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int64_t id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = now_ns();
}

double SpanRecorder::duration_ms(std::int64_t id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

namespace {

constexpr MessageType kPerRoundTypes[] = {
    MessageType::kGradientUpload, MessageType::kModelBroadcast,
    MessageType::kAssessmentResult, MessageType::kSliceAggregate,
    MessageType::kBlockProposal, MessageType::kBlockVote,
    MessageType::kAuditQuery, MessageType::kAuditProof,
    MessageType::kHeartbeat};

constexpr MessageType kSendTimedTypes[] = {MessageType::kGradientUpload,
                                           MessageType::kModelBroadcast};

std::string type_name(MessageType type) {
  return fifl::net::message_type_name(type);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Written with every decoded message so the decode cannot be elided.
volatile std::uint64_t g_decode_sink = 0;

/// Mean over a role's nodes of (time blocked in recv) / (wall time).
double idle_share(const std::vector<const EndpointLog*>& nodes) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const EndpointLog* log : nodes) {
    const std::int64_t wall = log->last_ns - log->first_ns;
    if (log->first_ns < 0 || wall <= 0) continue;
    sum += static_cast<double>(log->blocked_ns) / static_cast<double>(wall);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

template <typename Msg>
std::vector<double> decode_times_us(const std::vector<std::vector<std::uint8_t>>& payloads,
                                    std::size_t reps, std::vector<double>* records) {
  std::vector<double> times;
  for (const auto& payload : payloads) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const Msg msg = fifl::net::decode_payload<Msg>(payload);
      const auto end = std::chrono::steady_clock::now();
      g_decode_sink = g_decode_sink + msg.round;
      times.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
      if constexpr (requires { msg.records; }) {
        if (records && rep == 0) {
          records->push_back(static_cast<double>(msg.records.size()));
        }
      }
    }
  }
  return times;
}

}  // namespace

WireTotals wire_totals(const std::map<NodeKey, EndpointLog>& logs) {
  WireTotals totals;
  for (const auto& [address, log] : logs) {
    for (const WireEvent& event : log.events) {
      if (!event.is_send) continue;
      totals.bytes += event.frame_bytes;
      ++totals.msgs;
    }
  }
  return totals;
}

LayerMetrics wire_metrics(const std::map<NodeKey, EndpointLog>& logs,
                          std::size_t rounds) {
  if (rounds == 0) throw std::invalid_argument("wire_metrics: zero rounds");
  std::map<MessageType, std::uint64_t> bytes;
  std::map<MessageType, std::vector<double>> send_us;
  std::uint64_t msgs = 0;
  for (const auto& [address, log] : logs) {
    for (const WireEvent& event : log.events) {
      if (!event.is_send) continue;
      bytes[event.type] += event.frame_bytes;
      send_us[event.type].push_back(static_cast<double>(event.dur_ns) / 1e3);
      ++msgs;
    }
  }
  const auto per_round = [rounds](double total) {
    return total / static_cast<double>(rounds);
  };
  LayerMetrics out;
  for (MessageType type : kPerRoundTypes) {
    out["net.bytes_per_round." + type_name(type)] =
        per_round(static_cast<double>(bytes[type]));
  }
  out["net.msgs_per_round"] = per_round(static_cast<double>(msgs));
  for (MessageType type : kSendTimedTypes) {
    out["net.send_us." + type_name(type)] = p50_or_zero(send_us[type]);
  }
  return out;
}

LayerMetrics node_metrics(const std::map<NodeKey, EndpointLog>& logs,
                          std::size_t workers, std::size_t servers) {
  const auto lead_key = static_cast<NodeKey>(workers);
  // A block commits on a strict majority of servers, the lead's own
  // signature included, so the lead waits for quorum - 1 votes.
  const std::size_t votes_needed = servers / 2;

  std::vector<double> train_ms, audit_ms, collect_ms, assess_ms, commit_ms;
  std::vector<const EndpointLog*> lead_nodes, follower_nodes, worker_nodes;

  for (const auto& [address, log] : logs) {
    if (address < lead_key) {
      worker_nodes.push_back(&log);
      std::map<std::uint64_t, std::int64_t> broadcast_at, query_at;
      for (const WireEvent& e : log.events) {
        if (!e.is_send && e.type == MessageType::kModelBroadcast) {
          broadcast_at.emplace(e.round, e.t_ns);
        } else if (e.is_send && e.type == MessageType::kGradientUpload) {
          const auto it = broadcast_at.find(e.round);
          if (it == broadcast_at.end()) continue;
          train_ms.push_back(ms(e.t_ns - it->second));
          broadcast_at.erase(it);
        } else if (e.is_send && e.type == MessageType::kAuditQuery) {
          query_at.emplace(e.round, e.t_ns);
        } else if (!e.is_send && e.type == MessageType::kAuditProof) {
          const auto it = query_at.find(e.round);
          if (it == query_at.end()) continue;
          audit_ms.push_back(ms(e.t_ns - it->second));
          query_at.erase(it);
        }
      }
      continue;
    }
    if (address != lead_key) {
      follower_nodes.push_back(&log);
      continue;
    }
    lead_nodes.push_back(&log);
    struct LeadRound {
      std::int64_t broadcast_end = -1;
      std::int64_t last_upload = -1;
      std::int64_t proposal = -1;
      std::vector<std::int64_t> votes;
    };
    std::map<std::uint64_t, LeadRound> rounds;
    for (const WireEvent& e : log.events) {
      if (e.is_send && e.type == MessageType::kModelBroadcast) {
        auto& r = rounds[e.round];
        r.broadcast_end = std::max(r.broadcast_end, e.t_ns + e.dur_ns);
      } else if (!e.is_send && e.type == MessageType::kGradientUpload) {
        auto& r = rounds[e.round];
        r.last_upload = std::max(r.last_upload, e.t_ns);
      } else if (e.is_send && e.type == MessageType::kBlockProposal) {
        auto& r = rounds[e.round];
        if (r.proposal < 0) r.proposal = e.t_ns;
      } else if (!e.is_send && e.type == MessageType::kBlockVote) {
        rounds[e.round].votes.push_back(e.t_ns);
      }
    }
    for (auto& [round, r] : rounds) {
      if (r.broadcast_end < 0 || r.last_upload < 0 || r.proposal < 0) continue;
      collect_ms.push_back(ms(r.last_upload - r.broadcast_end));
      assess_ms.push_back(ms(r.proposal - r.last_upload));
      if (votes_needed == 0 || r.votes.size() < votes_needed) continue;
      std::sort(r.votes.begin(), r.votes.end());
      const std::int64_t committed = r.votes[votes_needed - 1];
      commit_ms.push_back(ms(committed - r.proposal));
    }
  }

  return {
      {"node.worker.train_ms", p50_or_zero(train_ms)},
      {"node.worker.audit_ms", p50_or_zero(audit_ms)},
      {"node.lead.collect_wait_ms", p50_or_zero(collect_ms)},
      {"node.lead.assess_ms", p50_or_zero(assess_ms)},
      {"node.lead.commit_ms", p50_or_zero(commit_ms)},
      {"node.lead.idle_share", idle_share(lead_nodes)},
      {"node.follower.idle_share", idle_share(follower_nodes)},
      {"node.worker.idle_share", idle_share(worker_nodes)},
  };
}

LayerMetrics decode_metrics(const TimingTransport& transport, std::size_t reps) {
  using namespace fifl::net;
  std::vector<double> records;
  LayerMetrics out;
  out["net.decode_us.gradient_upload"] = p50_or_zero(decode_times_us<GradientUploadMsg>(
      transport.captured(MessageType::kGradientUpload), reps, nullptr));
  out["net.decode_us.model_broadcast"] = p50_or_zero(decode_times_us<ModelBroadcastMsg>(
      transport.captured(MessageType::kModelBroadcast), reps, nullptr));
  out["net.decode_us.block_proposal"] = p50_or_zero(decode_times_us<BlockProposalMsg>(
      transport.captured(MessageType::kBlockProposal), reps, &records));
  out["net.decode_us.audit_proof"] = p50_or_zero(decode_times_us<AuditProofMsg>(
      transport.captured(MessageType::kAuditProof), reps, nullptr));
  out["chain.records_per_block"] = p50_or_zero(records);
  return out;
}

}  // namespace perfbench
