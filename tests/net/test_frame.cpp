// Frame codec: round-trips under arbitrary stream chunking, plus the
// malformed-input properties the transports rely on — every truncated or
// corrupted frame must end in FrameError or "need more bytes", never in a
// silently accepted message.
#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "net/frame.hpp"
#include "net/messages.hpp"
#include "util/rng.hpp"

namespace fifl::net {
namespace {

/// The bytewise CRC-32 the wire started with: one table lookup per byte.
/// net::crc32 folds eight bytes per step and must agree with it exactly.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data,
                             std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_payload(util::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> payload(size);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  }
  return payload;
}

TEST(Frame, Crc32KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32({p, s.size()}), 0xCBF43926u);
}

TEST(Frame, Crc32Chains) {
  util::Rng rng(7);
  const auto bytes = random_payload(rng, 200);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = crc32_bytewise(all);
  ASSERT_EQ(crc32(all), whole);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split at " << split;
  }
}

TEST(Frame, Crc32MatchesBytewiseOracle) {
  // Every tail length 0..64 and a full LeNet upload frame (277,498 bytes),
  // each from start offsets 0..7 so the 8-byte steps meet every alignment.
  constexpr std::size_t kUploadFrame = 277'498;
  util::Rng rng(19);
  const auto bytes = random_payload(rng, kUploadFrame + 8);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto part = all.subspan(offset, len);
      EXPECT_EQ(crc32(part), crc32_bytewise(part))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(crc32(part, 0x12345678u), crc32_bytewise(part, 0x12345678u))
          << "seeded, offset " << offset << " length " << len;
    }
    const auto frame = all.subspan(offset, kUploadFrame);
    EXPECT_EQ(crc32(frame), crc32_bytewise(frame)) << "offset " << offset;
  }
}

TEST(Frame, GoldenGradientUploadFrame) {
  // A dense LeNet-sized upload (69,362 floats) must keep its exact wire
  // bytes: the frame length, header and CRC field are pinned, and the
  // payload floats are little-endian IEEE bits from offset 30.
  GradientUploadMsg msg;
  msg.round = 7;
  msg.worker = 3;
  msg.samples = 120;
  msg.gradient.resize(69'362);
  for (std::size_t i = 0; i < msg.gradient.size(); ++i) {
    const std::uint32_t k =
        (static_cast<std::uint32_t>(i) * 2654435761u) % 20001u;
    msg.gradient[i] = (static_cast<float>(k) - 10000.0f) / 1024.0f;
  }
  msg.gradient[0] = -0.0f;
  msg.gradient.back() = std::bit_cast<float>(0x7FC0BEEFu);  // NaN payload
  const auto payload = encode_payload(msg);
  const auto wire = encode_frame(
      static_cast<std::uint8_t>(MessageType::kGradientUpload), 2, payload);

  ASSERT_EQ(payload.size(), 277'478u);
  ASSERT_EQ(wire.size(), 277'498u);
  const std::vector<std::uint8_t> header(wire.begin(), wire.begin() + 16);
  const std::vector<std::uint8_t> expected_header{
      0x46, 0x4E, 0x45, 0x54,  // magic "FNET"
      0x01, 0x06, 0x00, 0x00,  // version, type, flags
      0x02, 0x00, 0x00, 0x00,  // from
      0xE6, 0x3B, 0x04, 0x00,  // payload length 277,478
  };
  EXPECT_EQ(header, expected_header);
  const std::uint32_t crc_field =
      static_cast<std::uint32_t>(wire[16]) |
      (static_cast<std::uint32_t>(wire[17]) << 8) |
      (static_cast<std::uint32_t>(wire[18]) << 16) |
      (static_cast<std::uint32_t>(wire[19]) << 24);
  EXPECT_EQ(crc_field, 0xF02634D0u);
  const std::span<const std::uint8_t> all(wire);
  EXPECT_EQ(crc_field, crc32_bytewise(all.subspan(kFrameHeaderSize),
                                      crc32_bytewise(all.subspan(4, 12))));
  // Offset 30 of the payload: the first float (-0.0f), then the last one.
  const std::vector<std::uint8_t> first(wire.begin() + 50, wire.begin() + 54);
  EXPECT_EQ(first, (std::vector<std::uint8_t>{0x00, 0x00, 0x00, 0x80}));
  const std::vector<std::uint8_t> last(wire.end() - 4, wire.end());
  EXPECT_EQ(last, (std::vector<std::uint8_t>{0xEF, 0xBE, 0xC0, 0x7F}));
}

TEST(Frame, RoundTripWholeBuffer) {
  util::Rng rng(11);
  const auto payload = random_payload(rng, 1000);
  const auto wire = encode_frame(5, 42, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 5);
  EXPECT_EQ(frame->from, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, RoundTripEmptyPayload) {
  const auto wire = encode_frame(1, 0, {});
  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Frame, RoundTripUnderRandomChunking) {
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> stream;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int f = 0; f < 5; ++f) {
      payloads.push_back(random_payload(rng, 1 + static_cast<std::size_t>(
                                                    rng.uniform(0.0, 200.0))));
      const auto wire = encode_frame(static_cast<std::uint8_t>(f + 1),
                                     static_cast<std::uint32_t>(f), payloads[f]);
      stream.insert(stream.end(), wire.begin(), wire.end());
    }

    FrameDecoder decoder;
    std::vector<Frame> decoded;
    std::size_t cursor = 0;
    while (cursor < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          stream.size() - cursor,
          1 + static_cast<std::size_t>(rng.uniform(0.0, 37.0)));
      decoder.feed(std::span(stream).subspan(cursor, chunk));
      cursor += chunk;
      while (auto frame = decoder.next()) decoded.push_back(std::move(*frame));
    }
    ASSERT_EQ(decoded.size(), payloads.size());
    for (std::size_t f = 0; f < payloads.size(); ++f) {
      EXPECT_EQ(decoded[f].from, f);
      EXPECT_EQ(decoded[f].payload, payloads[f]);
    }
  }
}

TEST(Frame, EveryTruncationYieldsNoFrame) {
  util::Rng rng(17);
  const auto payload = random_payload(rng, 64);
  const auto wire = encode_frame(6, 9, payload);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.feed(std::span(wire).first(len));
    // A strict prefix can never produce a frame: either the decoder waits
    // for more bytes or (corrupting nothing) keeps waiting.
    std::optional<Frame> frame;
    EXPECT_NO_THROW(frame = decoder.next()) << "prefix length " << len;
    EXPECT_FALSE(frame.has_value()) << "prefix length " << len;
  }
}

TEST(Frame, EverySingleByteFlipIsRejected) {
  util::Rng rng(19);
  const auto payload = random_payload(rng, 48);
  const auto wire = encode_frame(7, 3, payload);
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      auto corrupted = wire;
      corrupted[pos] = static_cast<std::uint8_t>(corrupted[pos] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.feed(corrupted);
      // Everything but the length field is CRC-protected or checked
      // directly, so the flip must throw; a flip that grows the length
      // field may instead leave the decoder waiting for bytes that never
      // come. Both outcomes are safe; delivering a frame is not.
      try {
        const auto frame = decoder.next();
        EXPECT_FALSE(frame.has_value())
            << "flip at byte " << pos << " bit " << int(bit)
            << " produced a frame";
      } catch (const FrameError&) {
        // expected for the vast majority of flips
      }
    }
  }
}

TEST(Frame, OversizedLengthFieldThrows) {
  auto wire = encode_frame(2, 1, std::vector<std::uint8_t>(8, 0xab));
  // Length field lives at bytes [12, 16); write kMaxPayload + 1.
  const std::uint32_t bad = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    wire[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bad >> (8 * i));
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(Frame, RandomGarbageNeverDecodes) {
  util::Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto garbage = random_payload(
        rng, 1 + static_cast<std::size_t>(rng.uniform(0.0, 128.0)));
    FrameDecoder decoder;
    decoder.feed(garbage);
    try {
      const auto frame = decoder.next();
      // A frame from random bytes would need a valid magic AND a valid
      // CRC — astronomically unlikely; treat it as a failure.
      EXPECT_FALSE(frame.has_value());
    } catch (const FrameError&) {
    }
  }
}

TEST(Frame, RejectsOversizedPayloadAtEncode) {
  EXPECT_THROW(
      encode_frame(1, 0, std::vector<std::uint8_t>(kMaxPayload + 1, 0)),
      FrameError);
}

TEST(Frame, TraceContextRoundTrips) {
  util::Rng rng(29);
  const auto payload = random_payload(rng, 96);
  const obs::TraceContext ctx{7, (9ull << 40) | 123, (1ull << 40) | 7};
  const auto wire = encode_frame(4, 8, payload, &ctx);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + kTraceExtSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 4);
  EXPECT_EQ(frame->from, 8u);
  EXPECT_TRUE(frame->has_trace);
  EXPECT_EQ(frame->trace, ctx);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, UntracedWireBytesAreLegacyIdentical) {
  // Sending with trace == nullptr must produce byte-for-byte the frame an
  // old peer expects: no flag bit, no extension, same CRC.
  util::Rng rng(31);
  const auto payload = random_payload(rng, 64);
  const auto legacy = encode_frame(5, 3, payload);
  const auto untraced = encode_frame(5, 3, payload, nullptr);
  EXPECT_EQ(legacy, untraced);

  FrameDecoder decoder;
  decoder.feed(untraced);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->has_trace);
  EXPECT_EQ(frame->trace, obs::TraceContext{});
}

TEST(Frame, TracedFrameSurvivesChunkingAndFlipRejection) {
  util::Rng rng(37);
  const auto payload = random_payload(rng, 40);
  const obs::TraceContext ctx{2, 99, 0};
  const auto wire = encode_frame(6, 1, payload, &ctx);

  // Byte-at-a-time feed must still deliver exactly one traced frame.
  FrameDecoder slow;
  std::vector<Frame> decoded;
  for (const std::uint8_t b : wire) {
    slow.feed(std::span(&b, 1));
    while (auto f = slow.next()) decoded.push_back(std::move(*f));
  }
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0].has_trace);
  EXPECT_EQ(decoded[0].trace, ctx);

  // The extension rides inside the CRC: every single-bit flip in the
  // trace bytes must be rejected, never mis-delivered as a clean frame.
  for (std::size_t pos = kFrameHeaderSize;
       pos < kFrameHeaderSize + kTraceExtSize; ++pos) {
    auto corrupted = wire;
    corrupted[pos] = static_cast<std::uint8_t>(corrupted[pos] ^ 0x10);
    FrameDecoder decoder;
    decoder.feed(corrupted);
    EXPECT_THROW(decoder.next(), FrameError) << "flip at byte " << pos;
  }
}

TEST(Frame, UnknownFlagBitsAreRejected) {
  auto wire = encode_frame(3, 2, std::vector<std::uint8_t>(8, 0x5a));
  wire[6] = 0x02;  // flags low byte: an undefined bit
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.next(), FrameError);
}

}  // namespace
}  // namespace fifl::net
