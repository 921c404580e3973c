#include <gtest/gtest.h>

#include "common/rng.h"
#include "serialize/encoder.h"
#include "serialize/framing.h"

namespace webdis::serialize {
namespace {

// -- Encoder / Decoder --------------------------------------------------------

TEST(EncoderTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFULL);
  enc.PutBool(true);
  enc.PutBool(false);

  Decoder dec(enc.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  bool b1, b2;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU16(&u16).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetBool(&b1).ok());
  ASSERT_TRUE(dec.GetBool(&b2).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(EncoderTest, VarintBoundaries) {
  for (uint64_t v : std::initializer_list<uint64_t>{
           0, 1, 127, 128, 16383, 16384, UINT64_MAX}) {
    Encoder enc;
    enc.PutVarint(v);
    Decoder dec(enc.data());
    uint64_t out = 0;
    ASSERT_TRUE(dec.GetVarint(&out).ok()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(EncoderTest, VarintSizeIsMinimal) {
  Encoder enc;
  enc.PutVarint(127);
  EXPECT_EQ(enc.size(), 1u);
  Encoder enc2;
  enc2.PutVarint(128);
  EXPECT_EQ(enc2.size(), 2u);
}

TEST(EncoderTest, StringRoundTrip) {
  Encoder enc;
  enc.PutString("");
  enc.PutString("hello");
  std::string binary("\x00\x01\xff", 3);
  enc.PutString(binary);
  Decoder dec(enc.data());
  std::string a, b, c;
  ASSERT_TRUE(dec.GetString(&a).ok());
  ASSERT_TRUE(dec.GetString(&b).ok());
  ASSERT_TRUE(dec.GetString(&c).ok());
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello");
  EXPECT_EQ(c, binary);
}

TEST(DecoderTest, TruncationIsError) {
  Encoder enc;
  enc.PutU32(7);
  Decoder dec(enc.data().data(), 2);  // cut short
  uint32_t v;
  const Status s = dec.GetU32(&v);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(DecoderTest, StringLengthBeyondBufferIsError) {
  Encoder enc;
  enc.PutVarint(1000);  // claims 1000 bytes follow
  enc.PutRaw("abc", 3);
  Decoder dec(enc.data());
  std::string s;
  EXPECT_EQ(dec.GetString(&s).code(), StatusCode::kCorruption);
}

TEST(DecoderTest, OverlongVarintIsError) {
  std::vector<uint8_t> bytes(11, 0x80);  // never terminates within 64 bits
  Decoder dec(bytes.data(), bytes.size());
  uint64_t v;
  EXPECT_EQ(dec.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(DecoderTest, BadBoolByteIsError) {
  const uint8_t byte = 7;
  Decoder dec(&byte, 1);
  bool b;
  EXPECT_EQ(dec.GetBool(&b).code(), StatusCode::kCorruption);
}

TEST(DecoderTest, GetCountAcceptsFeasiblePrefix) {
  Encoder enc;
  enc.PutVarint(3);
  enc.PutRaw("abcdef", 6);  // 2 bytes per item available
  Decoder dec(enc.data());
  uint64_t count = 0;
  ASSERT_TRUE(dec.GetCount("item", 10, /*min_bytes_per_item=*/2, &count).ok());
  EXPECT_EQ(count, 3u);
}

TEST(DecoderTest, GetCountRejectsOverCap) {
  Encoder enc;
  enc.PutVarint(11);
  enc.PutRaw(std::string(64, 'x').data(), 64);  // plenty of bytes: cap decides
  Decoder dec(enc.data());
  uint64_t count = 0;
  const Status s = dec.GetCount("item", 10, /*min_bytes_per_item=*/1, &count);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("item"), std::string::npos);
}

TEST(DecoderTest, GetCountRejectsInfeasibleCount) {
  // Claims 5 items needing >= 4 bytes each, but only 6 bytes remain. The
  // truncation must be detected before any allocation or decode loop.
  Encoder enc;
  enc.PutVarint(5);
  enc.PutRaw("abcdef", 6);
  Decoder dec(enc.data());
  uint64_t count = 0;
  const Status s = dec.GetCount("item", 1000, /*min_bytes_per_item=*/4,
                                &count);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(DecoderTest, GetCountHugeCountDoesNotOverflow) {
  // count * min_bytes_per_item would wrap a u64; the division-phrased
  // feasibility gate must still reject.
  Encoder enc;
  enc.PutVarint(UINT64_MAX);
  enc.PutRaw("abcdefgh", 8);
  Decoder dec(enc.data());
  uint64_t count = 0;
  const Status s = dec.GetCount("item", UINT64_MAX,
                                /*min_bytes_per_item=*/8, &count);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(DecoderTest, GetCountZeroMinBytesSkipsFeasibilityGate) {
  Encoder enc;
  enc.PutVarint(4);  // nothing follows; items may be zero-width
  Decoder dec(enc.data());
  uint64_t count = 0;
  ASSERT_TRUE(dec.GetCount("item", 10, /*min_bytes_per_item=*/0, &count).ok());
  EXPECT_EQ(count, 4u);
}

TEST(DecoderTest, ExpectAtEndDetectsTrailingGarbage) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutU8(0xEE);  // trailing byte
  Decoder dec(enc.data());
  uint32_t v = 0;
  ASSERT_TRUE(dec.GetU32(&v).ok());
  const Status s = dec.ExpectAtEnd("test message");
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("test message"), std::string::npos);
}

TEST(DecoderTest, ExpectAtEndPassesWhenConsumed) {
  Encoder enc;
  enc.PutU32(7);
  Decoder dec(enc.data());
  uint32_t v = 0;
  ASSERT_TRUE(dec.GetU32(&v).ok());
  EXPECT_TRUE(dec.ExpectAtEnd("test message").ok());
}

TEST(EncoderTest, FuzzRoundTripMixedFields) {
  // Property: any sequence of typed puts decodes back identically.
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    Encoder enc;
    std::vector<int> kinds;
    std::vector<uint64_t> ints;
    std::vector<std::string> strings;
    const int n = 1 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < n; ++i) {
      const int kind = static_cast<int>(rng.Uniform(3));
      kinds.push_back(kind);
      if (kind == 0) {
        const uint64_t v = rng.Next();
        ints.push_back(v);
        enc.PutU64(v);
      } else if (kind == 1) {
        const uint64_t v = rng.Next() >> rng.Uniform(64);
        ints.push_back(v);
        enc.PutVarint(v);
      } else {
        std::string s;
        const size_t len = rng.Uniform(50);
        for (size_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>(rng.Uniform(256)));
        }
        strings.push_back(s);
        enc.PutString(s);
      }
    }
    Decoder dec(enc.data());
    size_t ii = 0, si = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        uint64_t v;
        ASSERT_TRUE(dec.GetU64(&v).ok());
        EXPECT_EQ(v, ints[ii++]);
      } else if (kind == 1) {
        uint64_t v;
        ASSERT_TRUE(dec.GetVarint(&v).ok());
        EXPECT_EQ(v, ints[ii++]);
      } else {
        std::string s;
        ASSERT_TRUE(dec.GetString(&s).ok());
        EXPECT_EQ(s, strings[si++]);
      }
    }
    EXPECT_TRUE(dec.AtEnd());
  }
}

// -- Framing --------------------------------------------------------------------

TEST(FramingTest, EncodeDecodeRoundTrip) {
  const std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame = EncodeFrame(9, payload);
  EXPECT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, 9);
  EXPECT_EQ(decoded->payload, payload);
}

// The CRC-32 definition one bit at a time: the specification the table
// driven Crc32 must reproduce for every length and alignment.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(FramingTest, Crc32MatchesBitwiseReference) {
  constexpr size_t kMaxLength = 64 * 1024;
  constexpr size_t kMaxOffset = 7;
  Rng rng(32);
  std::vector<uint8_t> buffer(kMaxLength + kMaxOffset);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Uniform(256));
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  for (int i = 0; i < 16; ++i) {
    lengths.push_back(rng.UniformRange(65, kMaxLength));
  }
  lengths.push_back(kMaxLength);
  // Every start offset 0-7 shifts which bytes land in the 8-byte steps
  // and which in the tail loop.
  for (const size_t len : lengths) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(data, len), BitwiseCrc32(data, len))
          << "length " << len << " offset " << offset;
    }
  }
}

TEST(FramingTest, EmptyPayload) {
  const std::vector<uint8_t> frame = EncodeFrame(1, {});
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FramingTest, BadMagicRejected) {
  std::vector<uint8_t> frame = EncodeFrame(1, {1, 2});
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeFrame(frame).status().code(), StatusCode::kCorruption);
}

TEST(FramingTest, BadVersionRejected) {
  std::vector<uint8_t> frame = EncodeFrame(1, {1, 2});
  frame[4] = 99;
  EXPECT_EQ(DecodeFrame(frame).status().code(), StatusCode::kCorruption);
}

TEST(FramingTest, LengthMismatchRejected) {
  std::vector<uint8_t> frame = EncodeFrame(1, {1, 2, 3});
  frame.push_back(0);  // trailing garbage
  EXPECT_EQ(DecodeFrame(frame).status().code(), StatusCode::kCorruption);
}

TEST(FramingTest, ShortFrameRejected) {
  const std::vector<uint8_t> tiny{1, 2, 3};
  EXPECT_EQ(DecodeFrame(tiny).status().code(), StatusCode::kCorruption);
}

TEST(FrameReaderTest, ReassemblesAcrossArbitraryChunks) {
  const std::vector<uint8_t> f1 = EncodeFrame(1, {10, 20});
  const std::vector<uint8_t> f2 = EncodeFrame(2, {30});
  std::vector<uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  // Feed one byte at a time — worst-case fragmentation.
  FrameReader reader;
  std::vector<Frame> frames;
  for (uint8_t byte : stream) {
    reader.Feed(&byte, 1);
    Frame frame;
    auto next = reader.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (next.value()) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, 1);
  EXPECT_EQ(frames[0].payload, (std::vector<uint8_t>{10, 20}));
  EXPECT_EQ(frames[1].type, 2);
  EXPECT_EQ(frames[1].payload, (std::vector<uint8_t>{30}));
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, CorruptStreamSurfacesError) {
  FrameReader reader;
  std::vector<uint8_t> garbage(kFrameHeaderSize, 0x42);
  reader.Feed(garbage.data(), garbage.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame).status().code(), StatusCode::kCorruption);
}

TEST(FramingTest, OversizedLengthRejectedBeforeAllocation) {
  // A frame header claiming > kMaxFrameLength must be treated as corrupt
  // rather than honoured with a giant allocation.
  Encoder enc;
  enc.PutU32(kFrameMagic);
  enc.PutU8(kWireVersion);
  enc.PutU8(1);
  enc.PutU32(kMaxFrameLength + 1);
  std::vector<uint8_t> bogus = enc.Release();
  bogus.resize(kFrameHeaderSize + 4);  // a few payload bytes
  EXPECT_EQ(DecodeFrame(bogus).status().code(), StatusCode::kCorruption);

  FrameReader reader;
  reader.Feed(bogus.data(), bogus.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame).status().code(), StatusCode::kCorruption);
}

TEST(FrameReaderTest, PartialFrameNeedsMoreBytes) {
  const std::vector<uint8_t> f = EncodeFrame(1, {1, 2, 3});
  FrameReader reader;
  reader.Feed(f.data(), f.size() - 1);
  Frame frame;
  auto next = reader.Next(&frame);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value());
}

}  // namespace
}  // namespace webdis::serialize
