#include "serialize/framing.h"

#include <array>
#include <cstring>

#include "serialize/encoder.h"

namespace webdis::serialize {

namespace {

// Slicing-by-8 tables for the reflected polynomial: kCrcTables[0] is the
// classic byte table, and kCrcTables[k][b] advances kCrcTables[0][b] by k
// more zero bytes, so eight table lookups fold eight input bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}();

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  const auto& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  // Eight bytes per step. The CRC folds into the first four through
  // byte loads, so the loop reads nothing unaligned and runs the same on
  // any byte order.
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(data[0]) |
                               static_cast<uint32_t>(data[1]) << 8 |
                               static_cast<uint32_t>(data[2]) << 16 |
                               static_cast<uint32_t>(data[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> EncodeFrame(uint8_t type,
                                 const std::vector<uint8_t>& payload) {
  Encoder enc;
  enc.PutU32(kFrameMagic);
  enc.PutU8(kWireVersion);
  enc.PutU8(type);
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutRaw(payload.data(), payload.size());
  return enc.Release();
}

namespace {

/// Parses a header from at least kFrameHeaderSize bytes. Returns the payload
/// length via *length.
Status ParseHeader(const uint8_t* data, uint8_t* type, uint32_t* length) {
  Decoder dec(data, kFrameHeaderSize);
  uint32_t magic = 0;
  WEBDIS_RETURN_IF_ERROR(dec.GetU32(&magic));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  uint8_t version = 0;
  WEBDIS_RETURN_IF_ERROR(dec.GetU8(&version));
  if (version != kWireVersion) {
    return Status::Corruption("unsupported wire version");
  }
  WEBDIS_RETURN_IF_ERROR(dec.GetU8(type));
  WEBDIS_RETURN_IF_ERROR(dec.GetU32(length));
  if (*length > kMaxFrameLength) {
    return Status::Corruption("frame length exceeds limit");
  }
  return Status::OK();
}

}  // namespace

Result<Frame> DecodeFrame(const std::vector<uint8_t>& data) {
  if (data.size() < kFrameHeaderSize) {
    return Status::Corruption("frame shorter than header");
  }
  uint8_t type = 0;
  uint32_t length = 0;
  WEBDIS_RETURN_IF_ERROR(ParseHeader(data.data(), &type, &length));
  if (data.size() != kFrameHeaderSize + length) {
    return Status::Corruption("frame length mismatch");
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(data.begin() + kFrameHeaderSize, data.end());
  return frame;
}

void FrameReader::Feed(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Result<bool> FrameReader::Next(Frame* out) {
  if (buf_.size() < kFrameHeaderSize) return false;
  uint8_t type = 0;
  uint32_t length = 0;
  WEBDIS_RETURN_IF_ERROR(ParseHeader(buf_.data(), &type, &length));
  const size_t total = kFrameHeaderSize + length;
  if (buf_.size() < total) return false;
  out->type = type;
  out->payload.assign(buf_.begin() + kFrameHeaderSize, buf_.begin() + total);
  buf_.erase(buf_.begin(), buf_.begin() + total);
  return true;
}

}  // namespace webdis::serialize
