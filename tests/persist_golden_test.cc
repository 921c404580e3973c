// Golden durability-format tests: serialize canonical snapshots and WAL
// records and compare against frozen byte images. A failure here means the
// storage format changed — bump server::kSnapshotVersion (adding a
// migration in DecodeSnapshot) and regenerate the goldens deliberately,
// never accidentally: a server must be able to recover from state written
// by its previous version, or reject it explicitly. The wal-parity lint
// (tools/webdis_lint.py) requires every WalRecordType to have an image
// here. See PROTOCOL.md §8.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "disql/compiler.h"
#include "pre/log_equivalence.h"
#include "pre/pre.h"
#include "query/web_query.h"
#include "serialize/encoder.h"
#include "serialize/framing.h"
#include "server/persist.h"

namespace webdis {
namespace {

using server::DurablePendingClone;
using server::DurableServerState;
using server::MemoryPersistBackend;
using server::PersistFaultRules;
using server::WalRecordType;

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// The same canonical single-stage clone as wire_golden_test.cc, with the
// identical frozen payload image: the WAL reuses the wire codec, so the two
// goldens must drift (or not) together.
const char kMinimalCloneHex[] =
    "0175" "0168" "0100" "01000000" "01" "0164" "01"
    "08646f63756d656e74" "0164" "00" "01" "0164" "0375726c" "01" "00"
    "0201" "01" "09687474703a2f2f612f" "00" "00";

query::WebQuery MinimalClone() {
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://a/\" L d");
  EXPECT_TRUE(compiled.ok());
  query::WebQuery clone = compiled->web_query.Clone();
  clone.id.user = "u";
  clone.id.reply_host = "h";
  clone.id.reply_port = 1;
  clone.id.query_number = 1;
  clone.dest_urls = {"http://a/"};
  return clone;
}

// -- CRC-32 ------------------------------------------------------------------

TEST(PersistGoldenTest, Crc32CheckValue) {
  // The standard CRC-32 (IEEE 802.3, reflected) check value: any change to
  // the polynomial or bit order breaks every stored checksum.
  const std::string s = "123456789";
  EXPECT_EQ(serialize::Crc32(
                reinterpret_cast<const uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
}

// -- WAL record images -------------------------------------------------------

TEST(PersistGoldenTest, CloneCompletedImageIsStable) {
  serialize::Encoder payload;
  server::WalCloneCompleted{0x0102030405060708ull}.EncodeTo(&payload);
  const std::vector<uint8_t> record =
      EncodeWalRecord(WalRecordType::kCloneCompleted, payload.data());
  EXPECT_EQ(Hex(record), "02"                /* type kCloneCompleted */
                         "08000000"          /* payload length 8 */
                         "25edcca5"          /* payload crc */
                         "0807060504030201"  /* record_id (LE) */);

  serialize::Decoder dec(payload.data());
  server::WalCloneCompleted out;
  ASSERT_TRUE(server::WalCloneCompleted::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.record_id, 0x0102030405060708ull);
}

TEST(PersistGoldenTest, TransferSeenImageIsStable) {
  serialize::Encoder payload;
  server::WalTransferSeen{net::Endpoint{"h", 1}, 7}.EncodeTo(&payload);
  const std::vector<uint8_t> record =
      EncodeWalRecord(WalRecordType::kTransferSeen, payload.data());
  EXPECT_EQ(Hex(record), "03"                /* type kTransferSeen */
                         "0c000000"          /* payload length 12 */
                         "5a9f60ef"          /* payload crc */
                         "0168"              /* from.host "h" */
                         "0100"              /* from.port 1 */
                         "0700000000000000"  /* seq 7 */);

  serialize::Decoder dec(payload.data());
  server::WalTransferSeen out;
  ASSERT_TRUE(server::WalTransferSeen::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.from, (net::Endpoint{"h", 1}));
  EXPECT_EQ(out.seq, 7u);
}

TEST(PersistGoldenTest, QueryTerminatedImageIsStable) {
  serialize::Encoder payload;
  server::WalQueryTerminated{"k"}.EncodeTo(&payload);
  const std::vector<uint8_t> record =
      EncodeWalRecord(WalRecordType::kQueryTerminated, payload.data());
  EXPECT_EQ(Hex(record), "04"        /* type kQueryTerminated */
                         "02000000"  /* payload length 2 */
                         "6e9ba282"  /* payload crc */
                         "016b"      /* query_key "k" */);

  serialize::Decoder dec(payload.data());
  server::WalQueryTerminated out;
  ASSERT_TRUE(server::WalQueryTerminated::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.query_key, "k");
}

TEST(PersistGoldenTest, BatchAdmittedImageIsStable) {
  // Cross-query sharing (PROTOCOL.md §9.2): one append covers every member
  // of an admitted clone batch. Members own the contiguous record ids
  // first_record_id .. first_record_id + n - 1.
  serialize::Encoder payload;
  std::vector<query::WebQuery> members;
  members.push_back(MinimalClone());
  server::WalBatchAdmitted::EncodeFields(
      /*first_record_id=*/1, net::Endpoint{"s", 2}, /*tracked=*/true,
      /*seq=*/9, members, &payload);
  const std::vector<uint8_t> record =
      EncodeWalRecord(WalRecordType::kBatchAdmitted, payload.data());
  EXPECT_EQ(Hex(record),
            std::string("05"               /* type kBatchAdmitted */
                        "48000000"         /* payload length 72 */
                        "90d04ccc")        /* payload crc */
                + "0100000000000000"       /* first_record_id 1 */
                  "0173"                   /* from.host "s" */
                  "0200"                   /* from.port 2 */
                  "01"                     /* tracked */
                  "0900000000000000"       /* seq 9 */
                  "01"                     /* 1 member: */
                + kMinimalCloneHex);

  // Round-trip through the decoder.
  serialize::Decoder dec(payload.data());
  server::WalBatchAdmitted out;
  ASSERT_TRUE(server::WalBatchAdmitted::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.first_record_id, 1u);
  EXPECT_EQ(out.from, (net::Endpoint{"s", 2}));
  EXPECT_TRUE(out.tracked);
  EXPECT_EQ(out.seq, 9u);
  ASSERT_EQ(out.clones.size(), 1u);
  EXPECT_EQ(out.clones[0].id.Key(), MinimalClone().id.Key());
}

TEST(PersistGoldenTest, BatchAdmittedEmptyRejected) {
  // A zero-member batch record can never be replayed meaningfully; the
  // decoder rejects it as corruption rather than admitting nothing.
  serialize::Encoder payload;
  payload.PutU64(1);
  payload.PutString("s");
  payload.PutU16(2);
  payload.PutBool(true);
  payload.PutU64(9);
  payload.PutVarint(0);
  serialize::Decoder dec(payload.data());
  server::WalBatchAdmitted out;
  EXPECT_EQ(server::WalBatchAdmitted::DecodeFrom(&dec, &out).code(),
            StatusCode::kCorruption);
}

// -- WAL stream parsing ------------------------------------------------------

TEST(PersistGoldenTest, DecodeWalParsesConcatenatedRecords) {
  serialize::Encoder completed;
  server::WalCloneCompleted{5}.EncodeTo(&completed);
  serialize::Encoder terminated;
  server::WalQueryTerminated{"k"}.EncodeTo(&terminated);

  std::vector<uint8_t> wal =
      EncodeWalRecord(WalRecordType::kCloneCompleted, completed.data());
  const std::vector<uint8_t> second =
      EncodeWalRecord(WalRecordType::kQueryTerminated, terminated.data());
  wal.insert(wal.end(), second.begin(), second.end());

  const server::WalReadResult result = server::DecodeWal(wal);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].type, WalRecordType::kCloneCompleted);
  EXPECT_EQ(result.records[1].type, WalRecordType::kQueryTerminated);
  EXPECT_EQ(result.discarded_records, 0u);
  EXPECT_EQ(result.discarded_bytes, 0u);
}

TEST(PersistGoldenTest, DecodeWalStopsAtTornTail) {
  serialize::Encoder completed;
  server::WalCloneCompleted{5}.EncodeTo(&completed);
  std::vector<uint8_t> wal =
      EncodeWalRecord(WalRecordType::kCloneCompleted, completed.data());
  const size_t intact = wal.size();
  serialize::Encoder terminated;
  server::WalQueryTerminated{"k"}.EncodeTo(&terminated);
  const std::vector<uint8_t> second =
      EncodeWalRecord(WalRecordType::kQueryTerminated, terminated.data());
  wal.insert(wal.end(), second.begin(), second.end());
  wal.resize(wal.size() - 1);  // tear one byte off the final record

  const server::WalReadResult result = server::DecodeWal(wal);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, WalRecordType::kCloneCompleted);
  EXPECT_EQ(result.discarded_records, 1u);
  EXPECT_EQ(result.discarded_bytes, wal.size() - intact);
}

TEST(PersistGoldenTest, DecodeWalRejectsCorruptPayload) {
  serialize::Encoder completed;
  server::WalCloneCompleted{5}.EncodeTo(&completed);
  std::vector<uint8_t> wal =
      EncodeWalRecord(WalRecordType::kCloneCompleted, completed.data());
  wal.back() ^= 0xFF;  // bit-rot inside the payload: checksum must catch it

  const server::WalReadResult result = server::DecodeWal(wal);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.discarded_records, 1u);
  EXPECT_EQ(result.discarded_bytes, wal.size());
}

TEST(PersistGoldenTest, DecodeWalRejectsUnknownRecordType) {
  // 0x77 was never declared; 0x01 is the retired single-clone admission
  // record, which replay must reject rather than misread.
  for (const uint8_t type : {uint8_t{0x77}, uint8_t{0x01}}) {
    SCOPED_TRACE("record type " + std::to_string(type));
    serialize::Encoder completed;
    server::WalCloneCompleted{5}.EncodeTo(&completed);
    std::vector<uint8_t> wal =
        EncodeWalRecord(WalRecordType::kCloneCompleted, completed.data());
    wal[0] = type;  // a well-framed record of an undeclared type

    const server::WalReadResult result = server::DecodeWal(wal);
    EXPECT_TRUE(result.records.empty());
    EXPECT_EQ(result.discarded_records, 1u);
  }
}

// -- Snapshot images ---------------------------------------------------------

DurableServerState CanonicalState() {
  DurableServerState state;
  state.last_wal_id = 3;
  state.terminated_queries = {"k"};
  state.seen_transfers.emplace_back(net::Endpoint{"h", 1}, 7);
  DurablePendingClone pending;
  pending.record_id = 2;
  pending.from = net::Endpoint{"s", 2};
  pending.tracked = true;
  pending.seq = 9;
  pending.clone = MinimalClone();
  state.pending_clones.push_back(std::move(pending));
  return state;
}

// Frozen full-image hex of CanonicalState(): header then body.
std::string CanonicalSnapshotHex() {
  return std::string("534e4150"          /* magic "SNAP" (LE) */
                     "01"                /* version */
                     "5a000000"          /* body length 90+clone */
                     "1ddd5820")         /* body crc */
         + "0300000000000000"            /* last_wal_id 3 */
           "00"                          /* log table: 0 groups */
           "01" "016b"                   /* terminated ["k"] */
           "01" "0168" "0100" "07"       /* seen [("h",1) seq 7] */
           "01"                          /* 1 pending clone: */
           "0200000000000000"            /*   record_id 2 */
           "0173" "0200"                 /*   from ("s",2) */
           "01"                          /*   tracked */
           "0900000000000000"            /*   seq 9 */
         + kMinimalCloneHex;
}

TEST(PersistGoldenTest, SnapshotImageIsStable) {
  EXPECT_EQ(Hex(EncodeSnapshot(CanonicalState())), CanonicalSnapshotHex());
}

// CanonicalState() plus a log table filled through the arrival rules: one
// (node, query, num_q) group logs two unrelated PREs, the other a bounded
// star. A server snapshots its live table, so this pins the group keys,
// num_q and PRE bytes that the canonical image leaves empty.
DurableServerState LoggedState() {
  DurableServerState state = CanonicalState();
  const auto arrive = [&state](const char* node, uint32_t num_q,
                               const char* pre_text) {
    const query::CloneState arrival{num_q, pre::Pre::Parse(pre_text).value()};
    EXPECT_EQ(state.log_table.Check(node, "u@h:1#1", arrival).comparison,
              pre::LogComparison::kUnrelated)
        << pre_text;
  };
  arrive("http://a/", 1, "L");
  arrive("http://a/", 1, "G.L");
  arrive("http://a/b", 2, "L*2.G");
  EXPECT_EQ(state.log_table.size(), 3u);
  return state;
}

// Frozen full-image hex of LoggedState(): CanonicalSnapshotHex() with the
// two groups in place of the empty table.
std::string LoggedSnapshotHex() {
  return std::string("534e4150"             /* magic "SNAP" (LE) */
                     "01"                   /* version */
                     "9d000000"             /* body length 157 */
                     "d54a3016")            /* body crc */
         + "0300000000000000"               /* last_wal_id 3 */
           "02"                             /* log table: 2 groups */
           "09687474703a2f2f612f"           /* node "http://a/" */
           "077540683a312331"               /* query "u@h:1#1" */
           "01000000"                       /* num_q 1 */
           "02"                             /* 2 PREs: */
           "0201"                           /*   L */
           "03" "02" "0202" "0201"          /*   G.L */
           "0a687474703a2f2f612f62"         /* node "http://a/b" */
           "077540683a312331"               /* query "u@h:1#1" */
           "02000000"                       /* num_q 2 */
           "01"                             /* 1 PRE: L*2.G = */
           "03" "02"                        /*   concat of 2: */
           "05" "00" "02000000" "0201"      /*   L, at most 2 times */
           "0202"                           /*   G */
           "01" "016b"                      /* terminated ["k"] */
           "01" "0168" "0100" "07"          /* seen [("h",1) seq 7] */
           "01"                             /* 1 pending clone: */
           "0200000000000000"               /*   record_id 2 */
           "0173" "0200"                    /*   from ("s",2) */
           "01"                             /*   tracked */
           "0900000000000000"               /*   seq 9 */
         + kMinimalCloneHex;
}

TEST(PersistGoldenTest, LoggedSnapshotImageIsStable) {
  const std::vector<uint8_t> bytes = EncodeSnapshot(LoggedState());
  EXPECT_EQ(Hex(bytes), LoggedSnapshotHex());

  // The decoder rebuilds the same groups: re-encoding the decoded state
  // reproduces the image.
  DurableServerState out;
  ASSERT_TRUE(DecodeSnapshot(bytes, &out).ok());
  EXPECT_EQ(out.log_table.size(), 3u);
  EXPECT_EQ(EncodeSnapshot(out), bytes);
}

TEST(PersistGoldenTest, SnapshotRoundTrip) {
  const std::vector<uint8_t> bytes = EncodeSnapshot(CanonicalState());
  DurableServerState out;
  ASSERT_TRUE(DecodeSnapshot(bytes, &out).ok());
  EXPECT_EQ(out.last_wal_id, 3u);
  EXPECT_EQ(out.terminated_queries, std::vector<std::string>{"k"});
  ASSERT_EQ(out.seen_transfers.size(), 1u);
  EXPECT_EQ(out.seen_transfers[0].first, (net::Endpoint{"h", 1}));
  EXPECT_EQ(out.seen_transfers[0].second, 7u);
  ASSERT_EQ(out.pending_clones.size(), 1u);
  EXPECT_EQ(out.pending_clones[0].record_id, 2u);
  EXPECT_TRUE(out.pending_clones[0].tracked);
  EXPECT_EQ(out.pending_clones[0].clone.dest_urls,
            std::vector<std::string>{"http://a/"});
}

TEST(PersistGoldenTest, SnapshotVersionBumpIsExplicitlyRejected) {
  // There is exactly one snapshot version so far, so there is no migration
  // to apply: an image stamped with a future version must be *rejected by
  // name*, never silently misread. When kSnapshotVersion is bumped, this
  // test is the reminder to either migrate version-1 images or keep
  // rejecting them explicitly.
  std::vector<uint8_t> bytes = EncodeSnapshot(CanonicalState());
  bytes[4] = server::kSnapshotVersion + 1;  // the version byte
  DurableServerState out;
  const Status status = DecodeSnapshot(bytes, &out);
  ASSERT_TRUE((status.code() == StatusCode::kCorruption)) << status.ToString();
  EXPECT_NE(status.ToString().find("unsupported snapshot version 2"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("expected 1"), std::string::npos);
}

TEST(PersistGoldenTest, SnapshotChecksumMismatchIsRejected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(CanonicalState());
  bytes.back() ^= 0x01;  // flip one body bit
  DurableServerState out;
  const Status status = DecodeSnapshot(bytes, &out);
  ASSERT_TRUE((status.code() == StatusCode::kCorruption));
  EXPECT_NE(status.ToString().find("checksum"), std::string::npos);
}

TEST(PersistGoldenTest, SnapshotTornTailIsRejected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(CanonicalState());
  bytes.resize(bytes.size() - 5);
  DurableServerState out;
  EXPECT_TRUE(DecodeSnapshot(bytes, &out).code() == StatusCode::kCorruption);
}

TEST(PersistGoldenTest, SnapshotBadMagicIsRejected) {
  std::vector<uint8_t> bytes = EncodeSnapshot(CanonicalState());
  bytes[0] ^= 0xFF;
  DurableServerState out;
  EXPECT_TRUE(DecodeSnapshot(bytes, &out).code() == StatusCode::kCorruption);
}

TEST(PersistGoldenTest, EmptyStateSnapshotRoundTrips) {
  const std::vector<uint8_t> bytes = EncodeSnapshot(DurableServerState());
  DurableServerState out;
  ASSERT_TRUE(DecodeSnapshot(bytes, &out).ok());
  EXPECT_EQ(out.last_wal_id, 0u);
  EXPECT_TRUE(out.terminated_queries.empty());
  EXPECT_TRUE(out.seen_transfers.empty());
  EXPECT_TRUE(out.pending_clones.empty());
}

// -- Memory backend crash semantics ------------------------------------------

TEST(PersistGoldenTest, MemoryBackendLosesUnsyncedBytesOnCrash) {
  MemoryPersistBackend backend;
  ASSERT_TRUE(backend.AppendWal({1, 2, 3}).ok());
  ASSERT_TRUE(backend.SyncWal().ok());
  ASSERT_TRUE(backend.AppendWal({4, 5}).ok());  // never synced
  EXPECT_EQ(backend.WalBytes(), 5u);

  backend.OnCrash();
  auto wal = backend.ReadWal();
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(Hex(*wal), "010203");
  EXPECT_EQ(backend.stats().unsynced_bytes_lost, 2u);
}

TEST(PersistGoldenTest, MemoryBackendTornRulesAreSeededAndDetected) {
  PersistFaultRules rules;
  rules.seed = 42;
  rules.torn_wal_tail_prob = 1.0;
  rules.torn_snapshot_prob = 1.0;
  MemoryPersistBackend backend(rules);

  const std::vector<uint8_t> snapshot = EncodeSnapshot(CanonicalState());
  ASSERT_TRUE(backend.WriteSnapshot(snapshot).ok());
  serialize::Encoder completed;
  server::WalCloneCompleted{5}.EncodeTo(&completed);
  ASSERT_TRUE(
      backend
          .AppendWal(EncodeWalRecord(WalRecordType::kCloneCompleted,
                                     completed.data()))
          .ok());
  ASSERT_TRUE(backend.SyncWal().ok());

  backend.OnCrash();
  EXPECT_EQ(backend.stats().torn_wal_tails, 1u);
  EXPECT_EQ(backend.stats().torn_snapshots, 1u);

  // Both tears are detected, not misread: the torn snapshot fails its
  // checksum and the torn WAL parses to zero records plus a discard count.
  auto torn_snapshot = backend.ReadSnapshot();
  ASSERT_TRUE(torn_snapshot.ok());
  DurableServerState out;
  EXPECT_TRUE(DecodeSnapshot(*torn_snapshot, &out).code() == StatusCode::kCorruption);
  auto torn_wal = backend.ReadWal();
  ASSERT_TRUE(torn_wal.ok());
  const server::WalReadResult result = server::DecodeWal(*torn_wal);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.discarded_records, 1u);
}

TEST(PersistGoldenTest, MemoryBackendShortReadIsDetected) {
  PersistFaultRules rules;
  rules.seed = 7;
  rules.short_read_prob = 1.0;
  MemoryPersistBackend backend(rules);
  ASSERT_TRUE(backend.WriteSnapshot(EncodeSnapshot(CanonicalState())).ok());

  auto bytes = backend.ReadSnapshot();
  ASSERT_TRUE(bytes.ok());
  DurableServerState out;
  EXPECT_TRUE(DecodeSnapshot(*bytes, &out).code() == StatusCode::kCorruption);
  EXPECT_EQ(backend.stats().short_reads, 1u);
}

TEST(PersistGoldenTest, MemoryBackendReadSnapshotIsNotFoundWhenEmpty) {
  MemoryPersistBackend backend;
  EXPECT_TRUE(backend.ReadSnapshot().status().code() == StatusCode::kNotFound);
}

// -- File backend ------------------------------------------------------------

TEST(PersistGoldenTest, FileBackendStateOutlivesTheInstance) {
  const std::string dir = ::testing::TempDir() + "webdis_persist_golden";
  std::remove((dir + "/snapshot.bin").c_str());
  std::remove((dir + "/wal.bin").c_str());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

  const std::vector<uint8_t> snapshot = EncodeSnapshot(CanonicalState());
  serialize::Encoder completed;
  server::WalCloneCompleted{5}.EncodeTo(&completed);
  const std::vector<uint8_t> record =
      EncodeWalRecord(WalRecordType::kCloneCompleted, completed.data());
  {
    server::FilePersistBackend backend(dir);
    ASSERT_TRUE(backend.WriteSnapshot(snapshot).ok());
    ASSERT_TRUE(backend.AppendWal(record).ok());
    ASSERT_TRUE(backend.SyncWal().ok());
    EXPECT_EQ(backend.WalBytes(), record.size());
  }
  {
    // A fresh instance over the same directory sees the durable state —
    // that is the point of the file backend.
    server::FilePersistBackend backend(dir);
    EXPECT_EQ(backend.WalBytes(), record.size());
    auto read_snapshot = backend.ReadSnapshot();
    ASSERT_TRUE(read_snapshot.ok());
    EXPECT_EQ(Hex(*read_snapshot), CanonicalSnapshotHex());
    auto wal = backend.ReadWal();
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(Hex(*wal), Hex(record));
    ASSERT_TRUE(backend.TruncateWal().ok());
    EXPECT_EQ(backend.WalBytes(), 0u);
  }
  {
    server::FilePersistBackend backend(dir);
    auto wal = backend.ReadWal();
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal->empty());
  }
}

TEST(PersistGoldenTest, FileBackendUnsyncedAppendsAreLostOnCrash) {
  const std::string dir = ::testing::TempDir() + "webdis_persist_crash";
  std::remove((dir + "/snapshot.bin").c_str());
  std::remove((dir + "/wal.bin").c_str());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

  server::FilePersistBackend backend(dir);
  ASSERT_TRUE(backend.AppendWal({1, 2, 3}).ok());
  backend.OnCrash();
  auto wal = backend.ReadWal();
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->empty());
}

}  // namespace
}  // namespace webdis
