#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace fifl::util {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_f32(3.14f);
  w.write_f64(-2.718281828);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.14f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.718281828);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.write_string("hello, fifl");
  w.write_string("");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_string(), "hello, fifl");
  EXPECT_EQ(r.read_string(), "");
}

TEST(Serialize, FloatArrayRoundTrip) {
  ByteWriter w;
  const std::vector<float> xs{1.0f, -2.5f, 1e-30f, 1e30f};
  w.write_f32_array(xs);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_f32_array(), xs);
}

TEST(Serialize, SpecialFloatsPreserveBits) {
  ByteWriter w;
  w.write_f32(std::numeric_limits<float>::quiet_NaN());
  w.write_f32(std::numeric_limits<float>::infinity());
  w.write_f32(-0.0f);
  ByteReader r(w.buffer());
  EXPECT_TRUE(std::isnan(r.read_f32()));
  EXPECT_TRUE(std::isinf(r.read_f32()));
  const float neg_zero = r.read_f32();
  EXPECT_EQ(std::signbit(neg_zero), true);
}

// Bit patterns the bulk f32 path must carry untouched: NaNs with
// payloads, both zeros, the denormal extremes, both infinities, 1.0 and
// the smallest normal.
const std::vector<std::uint32_t> kSpecialBits{
    0x7FC0BEEFu, 0xFFC00001u, 0x00000000u, 0x80000000u, 0x00000001u,
    0x807FFFFFu, 0x7F800000u, 0xFF800000u, 0x3F800000u, 0x00800000u,
};

std::vector<float> special_floats() {
  std::vector<float> xs;
  for (std::uint32_t bits : kSpecialBits) xs.push_back(std::bit_cast<float>(bits));
  return xs;
}

TEST(Serialize, BulkFloatArrayMatchesPerElementWrites) {
  const std::vector<float> special = special_floats();
  for (const std::span<const float> xs :
       {std::span<const float>(special), std::span<const float>()}) {
    ByteWriter bulk;
    bulk.write_f32_array(xs);
    ByteWriter per_element;
    per_element.write_u64(xs.size());
    for (float x : xs) per_element.write_f32(x);
    EXPECT_EQ(bulk.buffer(), per_element.buffer()) << xs.size() << " floats";
  }
  // Little-endian on the wire, whatever the host order.
  ByteWriter w;
  w.write_f32_array(special);
  EXPECT_EQ(w.buffer()[8], 0xEF);
  EXPECT_EQ(w.buffer()[11], 0x7F);
}

TEST(Serialize, BulkFloatArrayReadsBitsFromUnalignedCursor) {
  // Offsets 0..8 cover every alignment; 22 is where a GradientUploadMsg
  // puts its count, so its floats start at payload offset 30.
  const std::vector<float> special = special_floats();
  for (std::size_t prefix : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 22u}) {
    ByteWriter w;
    for (std::size_t i = 0; i < prefix; ++i) w.write_u8(0xA5);
    w.write_f32_array(special);
    w.write_f32_array({});
    w.write_u8(0x5A);
    ByteReader r(w.buffer());
    for (std::size_t i = 0; i < prefix; ++i) (void)r.read_u8();
    const std::vector<float> back = r.read_f32_array();
    ASSERT_EQ(back.size(), kSpecialBits.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]), kSpecialBits[i])
          << "prefix " << prefix << " element " << i;
    }
    EXPECT_TRUE(r.read_f32_array().empty());
    EXPECT_EQ(r.read_u8(), 0x5A);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Serialize, TruncatedReadThrows) {
  ByteWriter w;
  w.write_u32(7);
  ByteReader r(w.buffer());
  (void)r.read_u32();
  EXPECT_THROW((void)r.read_u8(), SerializeError);
}

TEST(Serialize, TruncatedArrayThrows) {
  // 1000 floats with none present; counts whose byte size wraps
  // (2^62 * 4 == 0 mod 2^64) or saturates; three floats in room for two.
  for (std::uint64_t count : {std::uint64_t{1000}, std::uint64_t{1} << 62,
                              ~std::uint64_t{0}, std::uint64_t{3}}) {
    ByteWriter w;
    w.write_u64(count);
    if (count == 3) {
      w.write_f32(1.0f);
      w.write_f32(2.0f);
    }
    ByteReader r(w.buffer());
    EXPECT_THROW((void)r.read_f32_array(), SerializeError) << count;
  }
  // One byte short of the last float.
  ByteWriter w;
  w.write_f32_array(std::vector<float>{1.0f, 2.0f});
  std::vector<std::uint8_t> cut = w.take();
  cut.pop_back();
  ByteReader r(cut);
  EXPECT_THROW((void)r.read_f32_array(), SerializeError);
}

TEST(Serialize, TruncatedStringThrows) {
  ByteWriter w;
  w.write_u64(50);
  w.write_u8('x');
  ByteReader r(w.buffer());
  EXPECT_THROW((void)r.read_string(), SerializeError);
}

TEST(Serialize, RemainingTracksCursor) {
  ByteWriter w;
  w.write_u32(1);
  w.write_u32(2);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "fifl_serialize_test.bin";
  ByteWriter w;
  w.write_string("persisted");
  w.save(path);
  const auto bytes = ByteReader::load(path);
  ByteReader r(bytes);
  EXPECT_EQ(r.read_string(), "persisted");
  std::remove(path.c_str());
}

TEST(Serialize, FileErrorsThrow) {
  ByteWriter w;
  EXPECT_THROW(w.save("/nonexistent_zzz/f.bin"), SerializeError);
  EXPECT_THROW((void)ByteReader::load("/nonexistent_zzz/f.bin"), SerializeError);
}

TEST(Serialize, ReadBytesExact) {
  ByteWriter w;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  w.write_bytes(payload);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_bytes(4), payload);
  EXPECT_THROW((void)r.read_bytes(1), SerializeError);
}

}  // namespace
}  // namespace fifl::util
