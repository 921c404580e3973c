#include "fuzz/fuzz_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/strings.h"
#include "disql/compiler.h"
#include "html/parser.h"
#include "net/transport.h"
#include "query/report.h"
#include "query/web_query.h"
#include "serialize/encoder.h"
#include "serialize/framing.h"
#include "server/db_constructor.h"
#include "server/http_server.h"
#include "server/persist.h"
#include "tests/html_reference.h"
#include "web/synth.h"
#include "web/university.h"

namespace webdis::fuzz {
namespace {

// A failed check is a finding: abort so libFuzzer saves the input and the
// replay driver fails the ctest run. The message names the violated
// property, not just the file/line.
[[noreturn]] void Fail(const char* property) {
  std::fprintf(stderr, "webdis-fuzz: property violated: %s\n", property);
  std::abort();
}

void Check(bool ok, const char* property) {
  if (!ok) Fail(property);
}

// Decodes `payload` as the given wire message type and, on success, writes
// its canonical re-encoding. Returns false when the payload is rejected
// (which must always be an explicit Status, never a crash) or the type is
// unknown to the dispatcher.
bool CanonicalizeWirePayload(uint8_t raw_type,
                             const std::vector<uint8_t>& payload,
                             std::vector<uint8_t>* canonical) {
  serialize::Decoder dec(payload);
  serialize::Encoder enc;
  switch (static_cast<net::MessageType>(raw_type)) {
    case net::MessageType::kWebQuery: {
      query::WebQuery msg;
      if (!query::WebQuery::DecodeFrom(&dec, &msg).ok()) return false;
      if (!dec.ExpectAtEnd("clone payload").ok()) return false;
      msg.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kReport: {
      query::QueryReport msg;
      if (!query::QueryReport::DecodeFrom(&dec, &msg).ok()) return false;
      if (!dec.ExpectAtEnd("report payload").ok()) return false;
      msg.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kTerminate: {
      query::QueryId msg;
      if (!query::QueryId::DecodeFrom(&dec, &msg).ok()) return false;
      if (!dec.ExpectAtEnd("terminate payload").ok()) return false;
      msg.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kFetchRequest: {
      std::string url;
      if (!server::HttpServer::DecodeFetchRequest(payload, &url).ok()) {
        return false;
      }
      *canonical = server::HttpServer::EncodeFetchRequest(url);
      return true;
    }
    case net::MessageType::kFetchResponse: {
      server::HttpServer::FetchResponse resp;
      if (!server::HttpServer::DecodeFetchResponse(payload, &resp).ok()) {
        return false;
      }
      *canonical = server::HttpServer::EncodeFetchResponse(resp);
      return true;
    }
    case net::MessageType::kAck:
    case net::MessageType::kDeliveryAck:
    case net::MessageType::kOverloaded:
    case net::MessageType::kSiteRetired: {
      uint64_t v = 0;
      if (!dec.GetU64(&v).ok()) return false;
      if (!dec.ExpectAtEnd("u64 payload").ok()) return false;
      enc.PutU64(v);
      break;
    }
    case net::MessageType::kCloneBatch: {
      query::CloneBatch msg;
      if (!query::CloneBatch::DecodeFrom(&dec, &msg).ok()) return false;
      if (!dec.ExpectAtEnd("clone-batch payload").ok()) return false;
      msg.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kReportBatch: {
      query::ReportBatch msg;
      if (!query::ReportBatch::DecodeFrom(&dec, &msg).ok()) return false;
      if (!dec.ExpectAtEnd("report-batch payload").ok()) return false;
      msg.EncodeTo(&enc);
      break;
    }
    default:
      return false;  // type unknown to the application layer
  }
  *canonical = enc.Release();
  return true;
}

// WAL-record equivalent of CanonicalizeWirePayload.
bool CanonicalizeWalPayload(server::WalRecordType type,
                            const std::vector<uint8_t>& payload,
                            std::vector<uint8_t>* canonical) {
  serialize::Decoder dec(payload);
  serialize::Encoder enc;
  switch (type) {
    case server::WalRecordType::kCloneCompleted: {
      server::WalCloneCompleted rec;
      if (!server::WalCloneCompleted::DecodeFrom(&dec, &rec).ok()) {
        return false;
      }
      if (!dec.ExpectAtEnd("WAL clone-completed record").ok()) return false;
      rec.EncodeTo(&enc);
      break;
    }
    case server::WalRecordType::kTransferSeen: {
      server::WalTransferSeen rec;
      if (!server::WalTransferSeen::DecodeFrom(&dec, &rec).ok()) {
        return false;
      }
      if (!dec.ExpectAtEnd("WAL transfer-seen record").ok()) return false;
      rec.EncodeTo(&enc);
      break;
    }
    case server::WalRecordType::kQueryTerminated: {
      server::WalQueryTerminated rec;
      if (!server::WalQueryTerminated::DecodeFrom(&dec, &rec).ok()) {
        return false;
      }
      if (!dec.ExpectAtEnd("WAL query-terminated record").ok()) return false;
      rec.EncodeTo(&enc);
      break;
    }
    case server::WalRecordType::kBatchAdmitted: {
      server::WalBatchAdmitted rec;
      if (!server::WalBatchAdmitted::DecodeFrom(&dec, &rec).ok()) {
        return false;
      }
      if (!dec.ExpectAtEnd("WAL batch-admitted record").ok()) return false;
      rec.EncodeTo(&enc);
      break;
    }
    default:
      return false;
  }
  *canonical = enc.Release();
  return true;
}

}  // namespace

int FuzzWireFrame(const uint8_t* data, size_t size) {
  const std::vector<uint8_t> input(data, data + size);
  auto frame = serialize::DecodeFrame(input);
  if (!frame.ok()) return 0;  // rejected at the frame layer: fine
  std::vector<uint8_t> c1;
  if (!CanonicalizeWirePayload(frame->type, frame->payload, &c1)) return 0;
  const std::vector<uint8_t> framed1 = serialize::EncodeFrame(frame->type, c1);
  auto again = serialize::DecodeFrame(framed1);
  Check(again.ok(), "re-encoded wire frame must decode");
  std::vector<uint8_t> c2;
  Check(CanonicalizeWirePayload(again->type, again->payload, &c2),
        "re-encoded wire payload must decode");
  Check(c1 == c2, "wire payload re-encoding must be a fixpoint");
  return 0;
}

int FuzzWalStream(const uint8_t* data, size_t size) {
  const std::vector<uint8_t> input(data, data + size);
  const server::WalReadResult first = server::DecodeWal(input);
  // Re-frame every record whose payload parses; replay skips the rest, so
  // the canonical stream contains exactly the replayable records.
  std::vector<uint8_t> stream1;
  size_t replayable = 0;
  for (const server::WalRecord& record : first.records) {
    std::vector<uint8_t> canonical;
    if (!CanonicalizeWalPayload(record.type, record.payload, &canonical)) {
      continue;
    }
    const std::vector<uint8_t> framed =
        server::EncodeWalRecord(record.type, canonical);
    stream1.insert(stream1.end(), framed.begin(), framed.end());
    ++replayable;
  }
  const server::WalReadResult second = server::DecodeWal(stream1);
  Check(second.records.size() == replayable,
        "canonical WAL stream must parse completely");
  Check(second.discarded_records == 0 && second.discarded_bytes == 0,
        "canonical WAL stream must have no torn tail");
  std::vector<uint8_t> stream2;
  for (const server::WalRecord& record : second.records) {
    std::vector<uint8_t> canonical;
    Check(CanonicalizeWalPayload(record.type, record.payload, &canonical),
          "canonical WAL payload must decode");
    const std::vector<uint8_t> framed =
        server::EncodeWalRecord(record.type, canonical);
    stream2.insert(stream2.end(), framed.begin(), framed.end());
  }
  Check(stream1 == stream2, "WAL stream re-encoding must be a fixpoint");
  return 0;
}

int FuzzSnapshot(const uint8_t* data, size_t size) {
  const std::vector<uint8_t> input(data, data + size);
  server::DurableServerState state;
  if (!server::DecodeSnapshot(input, &state).ok()) return 0;
  const std::vector<uint8_t> image1 = server::EncodeSnapshot(state);
  server::DurableServerState state2;
  Check(server::DecodeSnapshot(image1, &state2).ok(),
        "re-encoded snapshot must decode");
  const std::vector<uint8_t> image2 = server::EncodeSnapshot(state2);
  Check(image1 == image2, "snapshot re-encoding must be a fixpoint");
  return 0;
}

int FuzzHtml(const uint8_t* data, size_t size) {
  static const html::Url kBase =
      html::ParseUrl("http://host.example/dir/page").value();
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const std::string difference = html::reference::FirstDifference(
      html::ParseDocument(kBase, input),
      html::reference::ParseDocument(kBase, input));
  if (!difference.empty()) {
    std::fprintf(stderr, "webdis-fuzz: %s\n", difference.c_str());
    Fail("html parse must equal the reference parse");
  }
  return 0;
}

int FuzzEval(const uint8_t* data, size_t size) {
  serialize::Decoder dec(data, size);
  std::string page;
  query::NodeQuery nq;
  if (!dec.GetString(&page).ok() ||
      !query::NodeQuery::DecodeFrom(&dec, &nq).ok() ||
      !dec.ExpectAtEnd("eval input").ok()) {
    return 0;
  }
  static const html::Url kBase =
      html::ParseUrl("http://host.example/dir/page").value();
  const html::ParsedDocument doc = html::ParseDocument(kBase, page);
  const relational::Database owned = server::BuildNodeDatabase(doc);
  // The nested-loop join is the specification, not a bounded algorithm:
  // skip cross products too large to enumerate per input.
  size_t product = 1;
  for (const relational::TableRef& ref : nq.select.from) {
    const relational::Table* table = owned.Find(ref.relation);
    product *= std::max<size_t>(1, table == nullptr ? 0 : table->num_rows());
    if (product > 100000) return 0;
  }
  // One storage for every input, as a query server keeps one for all its
  // visits: each input refills what the previous one left behind.
  static server::NodeRelations relations;
  relations.Visit(doc);
  const auto in_place =
      relational::Execute(nq.select, relations.Fill(nq.select.from));
  const auto reference = relational::Execute(nq.select, owned);
  Check(in_place.status() == reference.status(),
        "in-place evaluation status must equal the owned database's");
  if (!in_place.ok()) return 0;
  Check(in_place->column_labels == reference->column_labels &&
            in_place->rows == reference->rows,
        "in-place evaluation rows must equal the owned database's");
  for (const relational::Tuple& row : in_place->rows) {
    for (const relational::Value& cell : row) {
      Check(!cell.borrowed(), "result cells must own their bytes");
    }
  }
  return 0;
}

// -- Seed + regression corpus ------------------------------------------------

namespace {

bool WriteFile(const std::filesystem::path& path,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

// The canonical single-stage clone, mirroring MinimalClone() in
// tests/wire_golden_test.cc (whose frozen hex image golden-tests the same
// bytes these seeds carry).
bool MinimalClone(query::WebQuery* out) {
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://a/\" L d");
  if (!compiled.ok()) return false;
  *out = compiled->web_query.Clone();
  out->id.user = "u";
  out->id.reply_host = "h";
  out->id.reply_port = 1;
  out->id.query_number = 1;
  out->dest_urls = {"http://a/"};
  return true;
}

std::vector<uint8_t> Encoded(const query::WebQuery& clone) {
  serialize::Encoder enc;
  clone.EncodeTo(&enc);
  return enc.Release();
}

// An eval input: the page, then the node-query's wire bytes.
std::vector<uint8_t> EvalInput(std::string_view page,
                               const query::NodeQuery& nq) {
  serialize::Encoder enc;
  enc.PutString(page);
  nq.EncodeTo(&enc);
  return enc.Release();
}

// Hand-framed snapshot image: header + CRC over an arbitrary body, for
// regression inputs whose *body* is malformed (the header must check out or
// the body decoder is never reached).
std::vector<uint8_t> FrameSnapshotBody(const std::vector<uint8_t>& body) {
  serialize::Encoder out;
  out.PutU32(server::kSnapshotMagic);
  out.PutU8(server::kSnapshotVersion);
  out.PutU32(static_cast<uint32_t>(body.size()));
  out.PutU32(serialize::Crc32(body));
  out.PutRaw(body.data(), body.size());
  return out.Release();
}

}  // namespace

int WriteSeedCorpus(const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const char* sub : {"wire", "wal", "snapshot", "html", "eval"}) {
    fs::create_directories(fs::path(root) / sub, ec);
    if (ec) return -1;
  }
  query::WebQuery clone;
  if (!MinimalClone(&clone)) return -1;
  const std::vector<uint8_t> clone_bytes = Encoded(clone);

  int written = 0;
  auto put = [&](const char* sub, const char* name,
                 const std::vector<uint8_t>& bytes) {
    if (written < 0) return;
    if (WriteFile(fs::path(root) / sub / name, bytes)) {
      ++written;
    } else {
      written = -1;
    }
  };
  auto frame = [](net::MessageType type, const std::vector<uint8_t>& payload) {
    return serialize::EncodeFrame(static_cast<uint8_t>(type), payload);
  };

  // --- wire seeds: one golden frame per MessageType ---
  put("wire", "seed-webquery.bin",
      frame(net::MessageType::kWebQuery, clone_bytes));
  {
    query::QueryReport report;
    report.id = clone.id;
    query::NodeReport nr;
    nr.node_url = "http://a/";
    nr.received_state = {1, clone.rem_pre};
    nr.next_entries.push_back(query::ChtEntry{"http://b/", {2, clone.rem_pre}});
    relational::ResultSet rs;
    rs.column_labels = {"url"};
    rs.rows.push_back({relational::Value(std::string("http://a/"))});
    nr.result_sets.push_back(std::move(rs));
    report.node_reports.push_back(std::move(nr));
    serialize::Encoder enc;
    report.EncodeTo(&enc);
    put("wire", "seed-report.bin",
        frame(net::MessageType::kReport, enc.data()));
    query::ReportBatch batch;
    batch.reports.push_back(report);
    batch.reports.push_back(std::move(report));
    batch.reports[1].id.query_number = 2;
    serialize::Encoder batch_enc;
    batch.EncodeTo(&batch_enc);
    put("wire", "seed-reportbatch.bin",
        frame(net::MessageType::kReportBatch, batch_enc.data()));
  }
  {
    // §10 version-stamped report: nonzero doc_version + non-normal
    // visibility, so the fuzzer starts from the new trailing fields too.
    query::QueryReport report;
    report.id = clone.id;
    query::NodeReport nr;
    nr.node_url = "http://a/";
    nr.received_state = {1, clone.rem_pre};
    nr.doc_version = 5;
    nr.visibility = query::NodeReport::kVisibilityEpochGated;
    report.node_reports.push_back(std::move(nr));
    serialize::Encoder enc;
    report.EncodeTo(&enc);
    put("wire", "seed-report-stamped.bin",
        frame(net::MessageType::kReport, enc.data()));
  }
  {
    // §10.1 epoch-pinned clone: budget flags bit 4 + varint epoch.
    query::WebQuery pinned = clone.Clone();
    pinned.budget.pinned_epoch = 3;
    put("wire", "seed-webquery-epoch.bin",
        frame(net::MessageType::kWebQuery, Encoded(pinned)));
  }
  {
    serialize::Encoder enc;
    clone.id.EncodeTo(&enc);
    put("wire", "seed-terminate.bin",
        frame(net::MessageType::kTerminate, enc.data()));
  }
  put("wire", "seed-fetchrequest.bin",
      frame(net::MessageType::kFetchRequest,
            server::HttpServer::EncodeFetchRequest("http://a/")));
  {
    server::HttpServer::FetchResponse resp;
    resp.url = "http://a/";
    resp.found = true;
    resp.html = "<a href=\"http://b/\">b</a>";
    put("wire", "seed-fetchresponse.bin",
        frame(net::MessageType::kFetchResponse,
              server::HttpServer::EncodeFetchResponse(resp)));
  }
  for (const auto& [type, name] :
       {std::pair{net::MessageType::kAck, "seed-ack.bin"},
        std::pair{net::MessageType::kDeliveryAck, "seed-deliveryack.bin"},
        std::pair{net::MessageType::kOverloaded, "seed-overloaded.bin"},
        std::pair{net::MessageType::kSiteRetired, "seed-siteretired.bin"}}) {
    serialize::Encoder enc;
    enc.PutU64(42);
    put("wire", name, frame(type, enc.data()));
  }
  {
    query::CloneBatch batch;
    batch.clones.push_back(clone.Clone());
    batch.clones.push_back(clone.Clone());
    batch.clones[1].id.query_number = 2;
    serialize::Encoder enc;
    batch.EncodeTo(&enc);
    put("wire", "seed-clonebatch.bin",
        frame(net::MessageType::kCloneBatch, enc.data()));
  }

  // --- wire regression entries: one per hardening fix ---
  {
    // Batch claims 3 members but carries 1: the member loop must hit clean
    // truncation Corruption, never a partial 1-member batch.
    serialize::Encoder payload;
    payload.PutVarint(3);
    payload.PutRaw(clone_bytes.data(), clone_bytes.size());
    put("wire", "regress-clonebatch-truncated-members.bin",
        frame(net::MessageType::kCloneBatch, payload.Release()));
  }
  {
    // Member-count/length mismatch the other way: count 1, two members'
    // bytes. The frame-layer trailing-garbage check must reject it.
    serialize::Encoder payload;
    payload.PutVarint(1);
    payload.PutRaw(clone_bytes.data(), clone_bytes.size());
    payload.PutRaw(clone_bytes.data(), clone_bytes.size());
    put("wire", "regress-clonebatch-count-mismatch.bin",
        frame(net::MessageType::kCloneBatch, payload.Release()));
  }
  {
    // Trailing garbage after a valid clone: ExpectAtEnd regression.
    serialize::Encoder payload;
    payload.PutRaw(clone_bytes.data(), clone_bytes.size());
    payload.PutU8(0xEE);
    put("wire", "regress-webquery-trailing-garbage.bin",
        frame(net::MessageType::kWebQuery, payload.Release()));
  }
  {
    // Huge node-query count with no bytes behind it: GetCount regression
    // (pre-hardening this span a long decode loop to the truncation error).
    serialize::Encoder payload;
    clone.id.EncodeTo(&payload);
    payload.PutVarint(0xFFFFFF);
    put("wire", "regress-webquery-huge-query-count.bin",
        frame(net::MessageType::kWebQuery, payload.Release()));
  }

  // --- WAL seeds + regressions ---
  std::vector<uint8_t> wal_all;
  auto append_record = [&wal_all](server::WalRecordType type,
                                  const serialize::Encoder& enc) {
    const std::vector<uint8_t> framed =
        server::EncodeWalRecord(type, enc.data());
    wal_all.insert(wal_all.end(), framed.begin(), framed.end());
  };
  {
    serialize::Encoder enc;
    server::WalCloneCompleted{7}.EncodeTo(&enc);
    append_record(server::WalRecordType::kCloneCompleted, enc);
  }
  {
    serialize::Encoder enc;
    server::WalTransferSeen{{"h", 1}, 4}.EncodeTo(&enc);
    append_record(server::WalRecordType::kTransferSeen, enc);
  }
  {
    serialize::Encoder enc;
    server::WalQueryTerminated{clone.id.Key()}.EncodeTo(&enc);
    append_record(server::WalRecordType::kQueryTerminated, enc);
  }
  {
    serialize::Encoder enc;
    server::WalBatchAdmitted batch;
    batch.first_record_id = 8;
    batch.from = {"h", 1};
    batch.tracked = true;
    batch.seq = 5;
    batch.clones.push_back(clone.Clone());
    batch.clones.push_back(clone.Clone());
    batch.clones[1].id.query_number = 2;
    batch.EncodeTo(&enc);
    append_record(server::WalRecordType::kBatchAdmitted, enc);
  }
  put("wal", "seed-all-types.bin", wal_all);
  {
    // Torn tail: all records plus half a header. DecodeWal must surface the
    // parsed prefix and count the discard, never read past the buffer.
    std::vector<uint8_t> torn = wal_all;
    torn.insert(torn.end(), {static_cast<uint8_t>(1), 0xFF, 0xFF});
    put("wal", "regress-torn-tail.bin", torn);
  }
  {
    // Nested-member CRC damage: flip one byte inside the kBatchAdmitted
    // record's second member. The record checksum must reject the whole
    // record — replay sees no partial batch.
    std::vector<uint8_t> damaged = wal_all;
    damaged[damaged.size() - 4] ^= 0x01;
    put("wal", "regress-batch-member-crc-damage.bin", damaged);
  }
  {
    // A well-framed record of the retired type 1 (a single-clone admission
    // whose payload was record id, sender, tracked, seq, clone): DecodeWal
    // must reject it as an unknown type, never misread it as another one.
    serialize::Encoder payload;
    payload.PutU64(7);
    payload.PutString("h");
    payload.PutU16(1);
    payload.PutBool(true);
    payload.PutU64(3);
    clone.EncodeTo(&payload);
    put("wal", "regress-retired-clone-admitted.bin",
        server::EncodeWalRecord(static_cast<server::WalRecordType>(1),
                                payload.data()));
  }
  {
    // Valid record frame (CRC passes) whose payload claims 2000 batch
    // members: the payload decoder's GetCount must reject explicitly.
    serialize::Encoder payload;
    payload.PutU64(8);
    payload.PutString("h");
    payload.PutU16(1);
    payload.PutBool(false);
    payload.PutU64(5);
    payload.PutVarint(2000);
    put("wal", "regress-batchadmitted-huge-count.bin",
        server::EncodeWalRecord(server::WalRecordType::kBatchAdmitted,
                                payload.data()));
  }

  // --- snapshot seeds + regressions ---
  {
    server::DurableServerState state;
    state.last_wal_id = 7;
    state.terminated_queries = {clone.id.Key()};
    state.seen_transfers.emplace_back(net::Endpoint{"h", 1}, 3);
    server::DurablePendingClone pending;
    pending.record_id = 9;
    pending.from = {"h", 1};
    pending.tracked = true;
    pending.seq = 4;
    pending.clone = clone.Clone();
    state.pending_clones.push_back(std::move(pending));
    put("snapshot", "seed-state.bin", server::EncodeSnapshot(state));
  }
  {
    server::DurableServerState empty;
    put("snapshot", "seed-empty.bin", server::EncodeSnapshot(empty));
  }
  {
    // The LogTable reserve bug: a checksummed body whose log table claims a
    // multi-exabyte pre count. Pre-hardening, LogTable::DecodeFrom passed
    // the raw count to vector::reserve and std::length_error aborted the
    // server; it must be Corruption.
    serialize::Encoder body;
    body.PutU64(0);           // last_wal_id
    body.PutVarint(1);        // 1 log-table group
    body.PutString("n");      // node_url
    body.PutString("q");      // query_key
    body.PutU32(1);           // num_q
    body.PutVarint(0xFFFFFFFFFFFFull);  // pre_count: absurd
    put("snapshot", "regress-logtable-huge-pre-count.bin",
        FrameSnapshotBody(body.data()));
  }
  {
    // Trailing bytes after a fully decoded body: ExpectAtEnd regression.
    server::DurableServerState empty;
    std::vector<uint8_t> image = server::EncodeSnapshot(empty);
    serialize::Encoder body;
    body.PutRaw(image.data() + server::kSnapshotHeaderSize,
                image.size() - server::kSnapshotHeaderSize);
    body.PutU8(0xEE);
    put("snapshot", "regress-trailing-bytes.bin",
        FrameSnapshotBody(body.data()));
  }

  // --- html seeds: the parser's hand-picked edge cases ---
  const std::vector<std::string> documents =
      html::reference::EdgeCaseDocuments();
  for (size_t i = 0; i < documents.size(); ++i) {
    const std::string name = StringPrintf("seed-edge-%02zu.html", i);
    put("html", name.c_str(),
        std::vector<uint8_t>(documents[i].begin(), documents[i].end()));
  }

  // --- eval seeds: each benchmark page shape under each workload's
  // node-queries, at reduced web size ---
  web::SynthWebOptions wide;
  wide.seed = 1;
  wide.num_sites = 2;
  wide.docs_per_site = 2;
  wide.filler_paragraphs = 6;
  wide.words_per_paragraph = 60;
  wide.lazy_pages = true;
  web::SynthWebOptions shared;
  shared.seed = 1;
  shared.num_sites = 2;
  shared.docs_per_site = 2;
  web::UniversityOptions campus;
  campus.seed = 1;
  campus.departments = 1;
  campus.labs_per_department = 1;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(campus);
  const std::string synth_url = web::SynthUrl(0, 0);
  const std::vector<std::pair<const char*, std::string>> pages = {
      {"wide", web::GenerateSynthWeb(wide).Find(synth_url)->raw_html},
      {"shared", web::GenerateSynthWeb(shared).Find(synth_url)->raw_html},
      {"campus", uni.web.Find(uni.conveners.at(0).first)->raw_html},
  };
  const std::string from =
      "from document d such that \"" + synth_url + "\" (L|G)*3 d where ";
  const std::vector<std::pair<const char*, std::string>> queries = {
      {"wide", "select d.url, d.title " + from + "d.title contains \"alpha\""},
      {"shared-a", "select d.url " + from + "d.title contains \"document\""},
      {"shared-b", "select d.url " + from + "d.title contains \"on site\""},
      {"shared-c", "select d.url " + from + "d.length > 321"},
      {"campus", uni.convener_disql},
  };
  for (const auto& [query_name, disql] : queries) {
    auto compiled = disql::CompileDisql(disql);
    if (!compiled.ok()) return -1;
    const std::vector<query::NodeQuery>& stages =
        compiled->web_query.remaining_queries;
    for (size_t k = 0; k < stages.size(); ++k) {
      for (const auto& [page_name, page] : pages) {
        const std::string name = StringPrintf(
            "seed-%s-stage%zu-on-%s.bin", query_name, k + 1, page_name);
        put("eval", name.c_str(), EvalInput(page, stages[k]));
      }
    }
  }
  // Rows that render alike when joined with a \x1e separator. They sort
  // after the campus seeds, so their one-row RELINFON refill follows the
  // wide page's many rows.
  auto separator = disql::CompileDisql(
      "select d.title, d.text, r.delimiter from document d such that "
      "\"http://h/\" N d, relinfon r");
  if (!separator.ok()) return -1;
  const query::NodeQuery& title_text =
      separator->web_query.remaining_queries[0];
  put("eval", "seed-separator-1.bin",
      EvalInput("<title>A\x1e" "B</title><p>C</p>", title_text));
  put("eval", "seed-separator-2.bin",
      EvalInput("<title>A</title><p>B\x1e" "C</p>", title_text));
  return written;
}

}  // namespace webdis::fuzz
