#ifndef WEBDIS_SERVER_PERSIST_H_
#define WEBDIS_SERVER_PERSIST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/transport.h"
#include "query/web_query.h"
#include "serialize/encoder.h"
#include "server/log_table.h"

namespace webdis::server {

/// Durable server state (PROTOCOL.md §8): snapshots + write-ahead log.
///
/// A crashed QueryServer loses its volatile protocol state — the log table,
/// the delivery-dedup history and the pending-clone admission queue — and
/// recovery then leans on sender retries and CHT deadline GC, which degrades
/// in-flight queries to explicit partial results. The persistence layer
/// records that state durably so Restart() brings the server back as a
/// first-class participant:
///
///   * a *snapshot* captures the full durable state at one instant, and
///   * the *WAL* records every accepted-but-unprocessed clone transfer (and
///     dedup-state commit) between snapshots, appended BEFORE the delivery
///     ack goes out (the ack-after-append rule: once a sender has seen the
///     ack and stopped retrying, the clone must be recoverable from storage
///     or it is silently lost).
///
/// Replaying the WAL on top of the latest snapshot is idempotent
/// (at-least-once): records the snapshot already folded in are skipped by
/// record id, and re-enqueued clones that were in fact processed just before
/// the crash re-report results the user site's CHT absorbs as duplicates.

// -- On-disk snapshot format -------------------------------------------------
//
//   magic    u32  'SNAP'
//   version  u8   kSnapshotVersion
//   length   u32  body byte count
//   crc      u32  CRC-32 of the body bytes
//   body     length bytes (see DurableServerState codec)
//
// A reader MUST validate magic, version and checksum before decoding: an
// unknown version or a failed checksum is an explicit rejection (the server
// falls back to cold start + WAL replay), never a silent misread.
constexpr uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP" little-endian
constexpr uint8_t kSnapshotVersion = 1;
constexpr size_t kSnapshotHeaderSize = 13;
/// Defensive cap, mirroring serialize::kMaxFrameLength: a snapshot body
/// larger than this is corruption, not an allocation request.
constexpr uint32_t kMaxSnapshotLength = 256u * 1024u * 1024u;

// -- WAL record types --------------------------------------------------------
// Each record is framed as `u8 type, u32 length, u32 crc, payload` (see
// EncodeWalRecord). The payload annotations below are machine-checked by
// tools/webdis_lint.py (wal-parity): every type must keep its codec pair,
// golden byte image and PROTOCOL.md §8 entry in lockstep.
enum class WalRecordType : uint8_t {
  // 1 is retired: it was a single-clone admission record, which is now a
  // one-member kBatchAdmitted. DecodeWal rejects it like any unknown type.
  /// The admitted clone with this record id finished terminal processing
  /// (evaluated, shed with reports, expired, or dropped as terminated);
  /// replay must not re-enqueue it.
  kCloneCompleted = 2,  // payload: struct server::WalCloneCompleted
  /// A transfer seq was committed to the dedup history without an admitted
  /// clone (e.g. a malformed payload acked to stop the sender). Restoring
  /// it on replay keeps post-restart retransmissions re-acked, not
  /// reprocessed.
  kTransferSeen = 3,  // payload: struct server::WalTransferSeen
  /// The query was terminated (kTerminate received); a restarted server
  /// must not resurrect it from recovered clones.
  kQueryTerminated = 4,  // payload: struct server::WalQueryTerminated
  /// A clone transfer was admitted (queued or about to be processed)
  /// atomically: one record covering every member — one for a kWebQuery,
  /// all of a kCloneBatch (PROTOCOL.md §9.2) — appended, and under
  /// WalFsyncPolicy::kEveryAppend synced, before the transfer's single
  /// delivery ack. Members take record ids first_record_id ..
  /// first_record_id+n-1, so per-member kCloneCompleted records match
  /// individually on replay.
  kBatchAdmitted = 5,  // payload: struct server::WalBatchAdmitted
};

const char* WalRecordTypeToString(WalRecordType type);

// -- WAL record payloads -----------------------------------------------------

/// Payload of WalRecordType::kBatchAdmitted. One atomic admission covering
/// every member of a clone transfer: member i owns record id
/// `first_record_id + i`. The members share one delivery envelope, so one
/// (from, seq) pair covers the whole unit.
struct WalBatchAdmitted {
  uint64_t first_record_id = 0;  // per-server, monotonically increasing
  net::Endpoint from;            // sender, for the recovered dedup history
  bool tracked = false;          // carried a delivery envelope
  uint64_t seq = 0;              // transfer seq (meaningful iff tracked)
  std::vector<query::WebQuery> clones;

  void EncodeTo(serialize::Encoder* enc) const {
    EncodeFields(first_record_id, from, tracked, seq, clones, enc);
  }
  /// Field-wise encoder so the hot path can log members it does not own.
  static void EncodeFields(uint64_t first_record_id, const net::Endpoint& from,
                           bool tracked, uint64_t seq,
                           const std::vector<query::WebQuery>& clones,
                           serialize::Encoder* enc);
  static Status DecodeFrom(serialize::Decoder* dec, WalBatchAdmitted* out);
};

/// Payload of WalRecordType::kCloneCompleted.
struct WalCloneCompleted {
  uint64_t record_id = 0;  // the admitted member this completes

  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, WalCloneCompleted* out);
};

/// Payload of WalRecordType::kTransferSeen.
struct WalTransferSeen {
  net::Endpoint from;
  uint64_t seq = 0;

  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, WalTransferSeen* out);
};

/// Payload of WalRecordType::kQueryTerminated.
struct WalQueryTerminated {
  std::string query_key;  // query::QueryId::Key()

  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, WalQueryTerminated* out);
};

// -- WAL framing -------------------------------------------------------------

/// Frames one record: `u8 type, u32 payload length, u32 payload CRC-32,
/// payload`. The per-record checksum is what makes a torn tail detectable.
std::vector<uint8_t> EncodeWalRecord(WalRecordType type,
                                     const std::vector<uint8_t>& payload);

struct WalRecord {
  WalRecordType type = WalRecordType::kCloneCompleted;
  std::vector<uint8_t> payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  /// Torn or corrupt suffix: parsing stops at the first record whose frame
  /// is truncated or whose checksum fails (later offsets are unknowable).
  uint64_t discarded_records = 0;
  uint64_t discarded_bytes = 0;
};

/// Parses a raw WAL byte stream into records, tolerating a torn tail.
WalReadResult DecodeWal(const std::vector<uint8_t>& bytes);

// -- Durable state + snapshot codec ------------------------------------------

/// One admitted-but-unprocessed clone, as stored in a snapshot. Keeps its
/// WAL record id so a later kCloneCompleted still matches after the WAL was
/// compacted away beneath it.
struct DurablePendingClone {
  uint64_t record_id = 0;
  net::Endpoint from;
  bool tracked = false;
  uint64_t seq = 0;
  query::WebQuery clone;
};

/// Everything durable about one QueryServer, as moved to/from storage.
struct DurableServerState {
  /// Highest WAL record id folded into this snapshot; replay skips admitted
  /// records at or below it (they are either pending below or completed).
  uint64_t last_wal_id = 0;
  LogTable log_table;
  std::vector<std::string> terminated_queries;           // QueryId::Key()s
  std::vector<std::pair<net::Endpoint, uint64_t>> seen_transfers;
  std::vector<DurablePendingClone> pending_clones;
};

/// Writes one snapshot image (header + checksummed body) straight from
/// whoever holds the durable state, section by section in format order:
/// last_wal_id and the log table at construction, then the terminated
/// query keys, the seen transfers and the pending clones. Each list
/// section opens with its item count and then takes exactly that many
/// items. EncodeSnapshot and QueryServer's live snapshot both write
/// through it, so the format has one encoder and a server never copies
/// its state just to persist it.
class SnapshotWriter {
 public:
  SnapshotWriter(uint64_t last_wal_id, const LogTable& log_table);

  void BeginTerminatedQueries(size_t count);
  void AddTerminatedQuery(const std::string& query_key);
  void BeginSeenTransfers(size_t count);
  void AddSeenTransfer(const net::Endpoint& from, uint64_t seq);
  void BeginPendingClones(size_t count);
  void AddPendingClone(uint64_t record_id, const net::Endpoint& from,
                       bool tracked, uint64_t seq,
                       const query::WebQuery& clone);

  /// Fills in the header's body length and CRC-32 and returns the image.
  std::vector<uint8_t> Finish() &&;

 private:
  enum class Section : uint8_t { kHead, kTerminated, kSeen, kPending };
  /// Opens `next`, which must follow the current section, once the current
  /// one has all its items.
  void Begin(Section next, size_t count);
  /// Counts one item against the open section `section`.
  void Take(Section section);

  serialize::Encoder enc_;
  Section section_ = Section::kHead;
  size_t items_left_ = 0;
};

/// Serializes state into a full snapshot image (header + checksummed body).
std::vector<uint8_t> EncodeSnapshot(const DurableServerState& state);

/// Validates and decodes a snapshot image. Magic/version/length/checksum
/// failures return Corruption (version mismatch names the versions) and
/// leave *out untouched.
Status DecodeSnapshot(const std::vector<uint8_t>& bytes,
                      DurableServerState* out);

// -- Storage backends --------------------------------------------------------

/// Storage abstraction the server persists through. One backend instance
/// belongs to one server and, like the server's other state, is only
/// touched from that server's handlers (endpoint confinement) — backends
/// need no locking.
class PersistBackend {
 public:
  virtual ~PersistBackend() = default;

  /// Atomically replaces the stored snapshot (all-or-nothing on crash).
  virtual Status WriteSnapshot(const std::vector<uint8_t>& bytes) = 0;
  /// NotFound when no snapshot has been written.
  virtual Result<std::vector<uint8_t>> ReadSnapshot() = 0;
  /// Appends bytes to the WAL buffer; durable only after SyncWal (fsync).
  virtual Status AppendWal(const std::vector<uint8_t>& bytes) = 0;
  /// Makes all appended WAL bytes durable.
  virtual Status SyncWal() = 0;
  /// Reads the durable WAL bytes, possibly ending in a torn record.
  virtual Result<std::vector<uint8_t>> ReadWal() = 0;
  /// Drops the WAL (after its contents were folded into a snapshot).
  virtual Status TruncateWal() = 0;
  /// Appended WAL bytes (synced + unsynced), for size-triggered compaction.
  virtual uint64_t WalBytes() const = 0;
  /// Crash notification: models power loss (unsynced bytes vanish; seeded
  /// fault rules may additionally tear stored state). No-op by default.
  virtual void OnCrash() {}
};

/// Seeded storage-fault rules for the in-memory backend: deterministic under
/// SimNetwork, so every crash-point schedule replays byte-identically.
struct PersistFaultRules {
  uint64_t seed = 1;
  /// On crash: probability that the *synced* WAL loses 1..max_torn_bytes
  /// from its tail (a torn final write, detected by the record checksum).
  double torn_wal_tail_prob = 0.0;
  uint64_t max_torn_bytes = 24;
  /// On crash: probability that the stored snapshot loses bytes from its
  /// tail (a non-atomic snapshot writer caught mid-replace; the checksum
  /// rejects it and recovery falls back to cold start + WAL replay).
  double torn_snapshot_prob = 0.0;
  /// On read: probability that ReadSnapshot returns a truncated view (a
  /// short read; rejected by the checksum like a torn write).
  double short_read_prob = 0.0;
};

/// In-memory backend for the simulator: deterministic, fault-injectable.
class MemoryPersistBackend : public PersistBackend {
 public:
  explicit MemoryPersistBackend(PersistFaultRules rules = PersistFaultRules())
      : rules_(rules), rng_(rules.seed) {}

  Status WriteSnapshot(const std::vector<uint8_t>& bytes) override;
  Result<std::vector<uint8_t>> ReadSnapshot() override;
  Status AppendWal(const std::vector<uint8_t>& bytes) override;
  Status SyncWal() override;
  Result<std::vector<uint8_t>> ReadWal() override;
  Status TruncateWal() override;
  uint64_t WalBytes() const override;
  void OnCrash() override;

  struct Stats {
    uint64_t appends = 0;
    uint64_t syncs = 0;
    uint64_t snapshots = 0;
    uint64_t truncations = 0;
    uint64_t crashes = 0;
    uint64_t unsynced_bytes_lost = 0;  // dropped WAL-buffer bytes on crash
    uint64_t torn_wal_tails = 0;
    uint64_t torn_snapshots = 0;
    uint64_t short_reads = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  PersistFaultRules rules_;
  Rng rng_;
  bool has_snapshot_ = false;
  std::vector<uint8_t> snapshot_;
  std::vector<uint8_t> wal_;         // synced (durable) bytes
  std::vector<uint8_t> wal_buffer_;  // appended since the last sync
  Stats stats_;
};

/// File-backed backend for TCP-mode deployments: `<dir>/snapshot.bin`
/// replaced via write-to-temp + rename, `<dir>/wal.bin` appended on sync.
/// The directory must exist; existing files are picked up on construction
/// (that is the point — state outlives the process).
class FilePersistBackend : public PersistBackend {
 public:
  explicit FilePersistBackend(std::string dir);

  Status WriteSnapshot(const std::vector<uint8_t>& bytes) override;
  Result<std::vector<uint8_t>> ReadSnapshot() override;
  Status AppendWal(const std::vector<uint8_t>& bytes) override;
  Status SyncWal() override;
  Result<std::vector<uint8_t>> ReadWal() override;
  Status TruncateWal() override;
  uint64_t WalBytes() const override;
  /// A real process crash loses the user-space buffer for free; OnCrash
  /// models the same for in-process tests.
  void OnCrash() override { wal_buffer_.clear(); }

 private:
  std::string SnapshotPath() const { return dir_ + "/snapshot.bin"; }
  std::string WalPath() const { return dir_ + "/wal.bin"; }

  std::string dir_;
  std::vector<uint8_t> wal_buffer_;  // appended since the last sync
  uint64_t wal_file_bytes_ = 0;      // bytes already synced to wal.bin
};

// -- Server-facing knobs -----------------------------------------------------

enum class WalFsyncPolicy : uint8_t {
  /// Sync before every delivery ack (the ack-after-append rule holds even
  /// against power loss). The default.
  kEveryAppend,
  /// Sync only at snapshot time: cheaper, but a crash can lose acked clones
  /// appended since the last snapshot — acceptable only where the CHT
  /// deadline sweep is an acceptable backstop.
  kOnSnapshot,
};

/// Durability knobs, carried in QueryServerOptions (and so configurable
/// per-host through EngineOptions::server_overrides).
struct PersistOptions {
  /// Master switch; also requires a backend via QueryServer::SetPersistence.
  bool enabled = false;
  /// Write the WAL (ack-after-append). Off = snapshot-only mode: recovery
  /// rolls back to the last snapshot and the retry/GC layers absorb the gap.
  bool wal_enabled = true;
  /// Snapshot after this many terminally processed clones (0 = never by
  /// cadence).
  uint64_t snapshot_every_clones = 64;
  /// Snapshot (and truncate the WAL) when it exceeds this size (0 = never
  /// by size).
  uint64_t wal_compact_bytes = 256 * 1024;
  WalFsyncPolicy fsync = WalFsyncPolicy::kEveryAppend;
};

}  // namespace webdis::server

#endif  // WEBDIS_SERVER_PERSIST_H_
