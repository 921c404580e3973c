#include "server/persist.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "serialize/encoder.h"
#include "serialize/framing.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace webdis::server {

const char* WalRecordTypeToString(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCloneCompleted:
      return "CloneCompleted";
    case WalRecordType::kTransferSeen:
      return "TransferSeen";
    case WalRecordType::kQueryTerminated:
      return "QueryTerminated";
    case WalRecordType::kBatchAdmitted:
      return "BatchAdmitted";
  }
  return "Unknown";
}

// -- WAL record payloads -----------------------------------------------------

void WalBatchAdmitted::EncodeFields(uint64_t first_record_id,
                                    const net::Endpoint& from, bool tracked,
                                    uint64_t seq,
                                    const std::vector<query::WebQuery>& clones,
                                    serialize::Encoder* enc) {
  enc->PutU64(first_record_id);
  enc->PutString(from.host);
  enc->PutU16(from.port);
  enc->PutBool(tracked);
  enc->PutU64(seq);
  enc->PutVarint(clones.size());
  for (const query::WebQuery& clone : clones) {
    clone.EncodeTo(enc);
  }
}

Status WalBatchAdmitted::DecodeFrom(serialize::Decoder* dec,
                                    WalBatchAdmitted* out) {
  WEBDIS_RETURN_IF_ERROR(dec->GetU64(&out->first_record_id));
  WEBDIS_RETURN_IF_ERROR(dec->GetString(&out->from.host));
  WEBDIS_RETURN_IF_ERROR(dec->GetU16(&out->from.port));
  WEBDIS_RETURN_IF_ERROR(dec->GetBool(&out->tracked));
  WEBDIS_RETURN_IF_ERROR(dec->GetU64(&out->seq));
  uint64_t count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("admitted-batch member", 1024, /*min_bytes_per_item=*/8,
                    &count));
  if (count == 0) return Status::Corruption("empty admitted batch");
  out->clones.clear();
  for (uint64_t i = 0; i < count; ++i) {
    query::WebQuery clone;
    WEBDIS_RETURN_IF_ERROR(query::WebQuery::DecodeFrom(dec, &clone));
    out->clones.push_back(std::move(clone));
  }
  return Status::OK();
}

void WalCloneCompleted::EncodeTo(serialize::Encoder* enc) const {
  enc->PutU64(record_id);
}

Status WalCloneCompleted::DecodeFrom(serialize::Decoder* dec,
                                     WalCloneCompleted* out) {
  return dec->GetU64(&out->record_id);
}

void WalTransferSeen::EncodeTo(serialize::Encoder* enc) const {
  enc->PutString(from.host);
  enc->PutU16(from.port);
  enc->PutU64(seq);
}

Status WalTransferSeen::DecodeFrom(serialize::Decoder* dec,
                                   WalTransferSeen* out) {
  WEBDIS_RETURN_IF_ERROR(dec->GetString(&out->from.host));
  WEBDIS_RETURN_IF_ERROR(dec->GetU16(&out->from.port));
  return dec->GetU64(&out->seq);
}

void WalQueryTerminated::EncodeTo(serialize::Encoder* enc) const {
  enc->PutString(query_key);
}

Status WalQueryTerminated::DecodeFrom(serialize::Decoder* dec,
                                      WalQueryTerminated* out) {
  return dec->GetString(&out->query_key);
}

// -- WAL framing -------------------------------------------------------------

std::vector<uint8_t> EncodeWalRecord(WalRecordType type,
                                     const std::vector<uint8_t>& payload) {
  serialize::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU32(serialize::Crc32(payload));
  enc.PutRaw(payload.data(), payload.size());
  return enc.Release();
}

WalReadResult DecodeWal(const std::vector<uint8_t>& bytes) {
  constexpr size_t kRecordHeader = 9;  // u8 type + u32 length + u32 crc
  WalReadResult result;
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeader) break;  // torn header
    serialize::Decoder dec(bytes.data() + pos, kRecordHeader);
    uint8_t type = 0;
    uint32_t length = 0;
    uint32_t crc = 0;
    (void)dec.GetU8(&type);
    (void)dec.GetU32(&length);
    (void)dec.GetU32(&crc);
    if (type < static_cast<uint8_t>(WalRecordType::kCloneCompleted) ||
        type > static_cast<uint8_t>(WalRecordType::kBatchAdmitted)) {
      break;  // corrupt, or the retired type 1: unknown record type
    }
    if (bytes.size() - pos - kRecordHeader < length) break;  // torn payload
    const uint8_t* payload = bytes.data() + pos + kRecordHeader;
    if (serialize::Crc32(payload, length) != crc) break;  // torn/bit-rotted
    WalRecord record;
    record.type = static_cast<WalRecordType>(type);
    record.payload.assign(payload, payload + length);
    result.records.push_back(std::move(record));
    pos += kRecordHeader + length;
  }
  if (pos < bytes.size()) {
    // Everything from the first unreadable record on is discarded: record
    // boundaries beyond it are unknowable. The ack-after-append rule makes
    // this safe only for the *final* (torn) record — hence fsync-per-append
    // is the default policy.
    result.discarded_records = 1;
    result.discarded_bytes = bytes.size() - pos;
  }
  return result;
}

// -- Snapshot codec ----------------------------------------------------------

SnapshotWriter::SnapshotWriter(uint64_t last_wal_id,
                               const LogTable& log_table) {
  // Header first, with its length and CRC left zero until Finish: the body
  // is encoded in place behind it, never copied.
  enc_.PutU32(kSnapshotMagic);
  enc_.PutU8(kSnapshotVersion);
  enc_.PutU32(0);
  enc_.PutU32(0);
  enc_.PutU64(last_wal_id);
  log_table.EncodeTo(&enc_);
}

void SnapshotWriter::Begin(Section next, size_t count) {
  WEBDIS_CHECK(static_cast<int>(next) == static_cast<int>(section_) + 1 &&
               items_left_ == 0)
      << "snapshot section out of order";
  section_ = next;
  items_left_ = count;
  enc_.PutVarint(count);
}

void SnapshotWriter::Take(Section section) {
  WEBDIS_CHECK(section == section_ && items_left_ > 0)
      << "snapshot item outside its section";
  --items_left_;
}

void SnapshotWriter::BeginTerminatedQueries(size_t count) {
  Begin(Section::kTerminated, count);
}

void SnapshotWriter::AddTerminatedQuery(const std::string& query_key) {
  Take(Section::kTerminated);
  enc_.PutString(query_key);
}

void SnapshotWriter::BeginSeenTransfers(size_t count) {
  Begin(Section::kSeen, count);
}

void SnapshotWriter::AddSeenTransfer(const net::Endpoint& from,
                                     uint64_t seq) {
  Take(Section::kSeen);
  enc_.PutString(from.host);
  enc_.PutU16(from.port);
  enc_.PutVarint(seq);
}

void SnapshotWriter::BeginPendingClones(size_t count) {
  Begin(Section::kPending, count);
}

void SnapshotWriter::AddPendingClone(uint64_t record_id,
                                     const net::Endpoint& from, bool tracked,
                                     uint64_t seq,
                                     const query::WebQuery& clone) {
  Take(Section::kPending);
  enc_.PutU64(record_id);
  enc_.PutString(from.host);
  enc_.PutU16(from.port);
  enc_.PutBool(tracked);
  enc_.PutU64(seq);
  clone.EncodeTo(&enc_);
}

std::vector<uint8_t> SnapshotWriter::Finish() && {
  WEBDIS_CHECK(section_ == Section::kPending && items_left_ == 0)
      << "snapshot finished before its last section";
  std::vector<uint8_t> image = enc_.Release();
  const size_t body_length = image.size() - kSnapshotHeaderSize;
  const uint32_t crc =
      serialize::Crc32(image.data() + kSnapshotHeaderSize, body_length);
  // Little-endian u32s at offsets 5 (length) and 9 (crc), as PutU32 writes.
  for (int i = 0; i < 4; ++i) {
    image[5 + i] = static_cast<uint8_t>(body_length >> (8 * i));
    image[9 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return image;
}

std::vector<uint8_t> EncodeSnapshot(const DurableServerState& state) {
  SnapshotWriter writer(state.last_wal_id, state.log_table);
  writer.BeginTerminatedQueries(state.terminated_queries.size());
  for (const std::string& key : state.terminated_queries) {
    writer.AddTerminatedQuery(key);
  }
  writer.BeginSeenTransfers(state.seen_transfers.size());
  for (const auto& [from, seq] : state.seen_transfers) {
    writer.AddSeenTransfer(from, seq);
  }
  writer.BeginPendingClones(state.pending_clones.size());
  for (const DurablePendingClone& pending : state.pending_clones) {
    writer.AddPendingClone(pending.record_id, pending.from, pending.tracked,
                           pending.seq, pending.clone);
  }
  return std::move(writer).Finish();
}

Status DecodeSnapshot(const std::vector<uint8_t>& bytes,
                      DurableServerState* out) {
  if (bytes.size() < kSnapshotHeaderSize) {
    return Status::Corruption("snapshot shorter than header");
  }
  serialize::Decoder header(bytes.data(), kSnapshotHeaderSize);
  uint32_t magic = 0;
  WEBDIS_RETURN_IF_ERROR(header.GetU32(&magic));
  if (magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic");
  }
  uint8_t version = 0;
  WEBDIS_RETURN_IF_ERROR(header.GetU8(&version));
  if (version != kSnapshotVersion) {
    // Explicit rejection, never a silent misread: there is exactly one
    // version so far, so there is no migration path to apply. When
    // kSnapshotVersion is bumped, add the migration here and keep rejecting
    // versions newer than the binary.
    return Status::Corruption(
        "unsupported snapshot version " + std::to_string(version) +
        " (expected " + std::to_string(kSnapshotVersion) + ")");
  }
  uint32_t length = 0;
  uint32_t crc = 0;
  WEBDIS_RETURN_IF_ERROR(header.GetU32(&length));
  WEBDIS_RETURN_IF_ERROR(header.GetU32(&crc));
  if (length > kMaxSnapshotLength) {
    return Status::Corruption("snapshot length exceeds limit");
  }
  if (bytes.size() != kSnapshotHeaderSize + length) {
    return Status::Corruption("snapshot length mismatch");
  }
  const uint8_t* body = bytes.data() + kSnapshotHeaderSize;
  if (serialize::Crc32(body, length) != crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }

  DurableServerState state;
  serialize::Decoder dec(body, length);
  WEBDIS_RETURN_IF_ERROR(dec.GetU64(&state.last_wal_id));
  WEBDIS_RETURN_IF_ERROR(LogTable::DecodeFrom(&dec, &state.log_table));
  uint64_t count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec.GetCount("terminated query", 10000000, /*min_bytes_per_item=*/1,
                   &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    WEBDIS_RETURN_IF_ERROR(dec.GetString(&key));
    state.terminated_queries.push_back(std::move(key));
  }
  WEBDIS_RETURN_IF_ERROR(
      dec.GetCount("seen transfer", 10000000, /*min_bytes_per_item=*/4,
                   &count));
  for (uint64_t i = 0; i < count; ++i) {
    net::Endpoint from;
    uint64_t seq = 0;
    WEBDIS_RETURN_IF_ERROR(dec.GetString(&from.host));
    WEBDIS_RETURN_IF_ERROR(dec.GetU16(&from.port));
    WEBDIS_RETURN_IF_ERROR(dec.GetVarint(&seq));
    state.seen_transfers.emplace_back(std::move(from), seq);
  }
  WEBDIS_RETURN_IF_ERROR(
      dec.GetCount("pending clone", 1000000, /*min_bytes_per_item=*/15,
                   &count));
  for (uint64_t i = 0; i < count; ++i) {
    DurablePendingClone pending;
    WEBDIS_RETURN_IF_ERROR(dec.GetU64(&pending.record_id));
    WEBDIS_RETURN_IF_ERROR(dec.GetString(&pending.from.host));
    WEBDIS_RETURN_IF_ERROR(dec.GetU16(&pending.from.port));
    WEBDIS_RETURN_IF_ERROR(dec.GetBool(&pending.tracked));
    WEBDIS_RETURN_IF_ERROR(dec.GetU64(&pending.seq));
    WEBDIS_RETURN_IF_ERROR(
        query::WebQuery::DecodeFrom(&dec, &pending.clone));
    state.pending_clones.push_back(std::move(pending));
  }
  WEBDIS_RETURN_IF_ERROR(dec.ExpectAtEnd("snapshot body"));
  *out = std::move(state);
  return Status::OK();
}

// -- MemoryPersistBackend ----------------------------------------------------

Status MemoryPersistBackend::WriteSnapshot(const std::vector<uint8_t>& bytes) {
  snapshot_ = bytes;
  has_snapshot_ = true;
  ++stats_.snapshots;
  return Status::OK();
}

Result<std::vector<uint8_t>> MemoryPersistBackend::ReadSnapshot() {
  if (!has_snapshot_) return Status::NotFound("no snapshot");
  if (rules_.short_read_prob > 0 && rng_.Bernoulli(rules_.short_read_prob) &&
      !snapshot_.empty()) {
    ++stats_.short_reads;
    const uint64_t lost = rng_.UniformRange(1, snapshot_.size());
    return std::vector<uint8_t>(
        snapshot_.begin(),
        snapshot_.end() - static_cast<ptrdiff_t>(lost));
  }
  return snapshot_;
}

Status MemoryPersistBackend::AppendWal(const std::vector<uint8_t>& bytes) {
  wal_buffer_.insert(wal_buffer_.end(), bytes.begin(), bytes.end());
  ++stats_.appends;
  return Status::OK();
}

Status MemoryPersistBackend::SyncWal() {
  wal_.insert(wal_.end(), wal_buffer_.begin(), wal_buffer_.end());
  wal_buffer_.clear();
  ++stats_.syncs;
  return Status::OK();
}

Result<std::vector<uint8_t>> MemoryPersistBackend::ReadWal() { return wal_; }

Status MemoryPersistBackend::TruncateWal() {
  wal_.clear();
  wal_buffer_.clear();
  ++stats_.truncations;
  return Status::OK();
}

uint64_t MemoryPersistBackend::WalBytes() const {
  return wal_.size() + wal_buffer_.size();
}

void MemoryPersistBackend::OnCrash() {
  ++stats_.crashes;
  // Power-loss model: bytes never synced are simply gone.
  stats_.unsynced_bytes_lost += wal_buffer_.size();
  wal_buffer_.clear();
  // Seeded torn-write rules (all detectable by checksum on recovery).
  if (rules_.torn_wal_tail_prob > 0 && !wal_.empty() &&
      rng_.Bernoulli(rules_.torn_wal_tail_prob)) {
    ++stats_.torn_wal_tails;
    const uint64_t lost = rng_.UniformRange(
        1, std::min<uint64_t>(rules_.max_torn_bytes, wal_.size()));
    wal_.resize(wal_.size() - lost);
  }
  if (rules_.torn_snapshot_prob > 0 && has_snapshot_ &&
      !snapshot_.empty() && rng_.Bernoulli(rules_.torn_snapshot_prob)) {
    ++stats_.torn_snapshots;
    const uint64_t lost = rng_.UniformRange(1, snapshot_.size());
    snapshot_.resize(snapshot_.size() - lost);
  }
}

// -- FilePersistBackend ------------------------------------------------------

namespace {

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no file: " + path);
  out->clear();
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read failed: " + path);
  return Status::OK();
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) return Status::IoError("open failed: " + path);
  Status status = Status::OK();
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    status = Status::IoError("write failed: " + path);
  }
  if (status.ok() && std::fflush(f) != 0) {
    status = Status::IoError("flush failed: " + path);
  }
#ifdef __unix__
  if (status.ok() && ::fsync(fileno(f)) != 0) {
    status = Status::IoError("fsync failed: " + path);
  }
#endif
  std::fclose(f);
  return status;
}

}  // namespace

FilePersistBackend::FilePersistBackend(std::string dir)
    : dir_(std::move(dir)) {
  std::vector<uint8_t> existing;
  if (ReadFileBytes(WalPath(), &existing).ok()) {
    wal_file_bytes_ = existing.size();
  }
}

Status FilePersistBackend::WriteSnapshot(const std::vector<uint8_t>& bytes) {
  // Write-to-temp + rename: a crash mid-write leaves the old snapshot
  // intact; rename is atomic on POSIX filesystems.
  const std::string tmp = SnapshotPath() + ".tmp";
  WEBDIS_RETURN_IF_ERROR(WriteFileBytes(tmp, bytes, /*append=*/false));
  if (std::rename(tmp.c_str(), SnapshotPath().c_str()) != 0) {
    return Status::IoError("rename failed: " + tmp);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> FilePersistBackend::ReadSnapshot() {
  std::vector<uint8_t> bytes;
  WEBDIS_RETURN_IF_ERROR(ReadFileBytes(SnapshotPath(), &bytes));
  return bytes;
}

Status FilePersistBackend::AppendWal(const std::vector<uint8_t>& bytes) {
  wal_buffer_.insert(wal_buffer_.end(), bytes.begin(), bytes.end());
  return Status::OK();
}

Status FilePersistBackend::SyncWal() {
  if (wal_buffer_.empty()) return Status::OK();
  WEBDIS_RETURN_IF_ERROR(
      WriteFileBytes(WalPath(), wal_buffer_, /*append=*/true));
  wal_file_bytes_ += wal_buffer_.size();
  wal_buffer_.clear();
  return Status::OK();
}

Result<std::vector<uint8_t>> FilePersistBackend::ReadWal() {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(WalPath(), &bytes).ok()) {
    bytes.clear();  // no WAL yet: an empty log, not an error
  }
  return bytes;
}

Status FilePersistBackend::TruncateWal() {
  wal_buffer_.clear();
  wal_file_bytes_ = 0;
  return WriteFileBytes(WalPath(), {}, /*append=*/false);
}

uint64_t FilePersistBackend::WalBytes() const {
  return wal_file_bytes_ + wal_buffer_.size();
}

}  // namespace webdis::server
