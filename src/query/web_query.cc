#include "query/web_query.h"

#include "common/strings.h"
#include "serialize/encoder.h"

namespace webdis::query {

std::string CloneState::ToString() const {
  return StringPrintf("(%u, %s)", static_cast<unsigned>(num_q),
                      rem_pre.ToString().c_str());
}

void CloneState::EncodeTo(serialize::Encoder* enc) const {
  enc->PutU32(num_q);
  rem_pre.EncodeTo(enc);
}

Status CloneState::DecodeFrom(serialize::Decoder* dec, CloneState* out) {
  WEBDIS_RETURN_IF_ERROR(dec->GetU32(&out->num_q));
  WEBDIS_ASSIGN_OR_RETURN(out->rem_pre, pre::Pre::DecodeFrom(dec));
  return Status::OK();
}

namespace {
constexpr uint8_t kBudgetDeadlineBit = 1 << 0;
constexpr uint8_t kBudgetHopBit = 1 << 1;
constexpr uint8_t kBudgetCloneBit = 1 << 2;
constexpr uint8_t kBudgetRowBit = 1 << 3;
constexpr uint8_t kBudgetEpochBit = 1 << 4;
}  // namespace

void QueryBudget::EncodeTo(serialize::Encoder* enc) const {
  uint8_t flags = 0;
  if (has_deadline) flags |= kBudgetDeadlineBit;
  if (has_hop_limit) flags |= kBudgetHopBit;
  if (has_clone_limit) flags |= kBudgetCloneBit;
  if (has_row_limit) flags |= kBudgetRowBit;
  if (pinned_epoch != 0) flags |= kBudgetEpochBit;
  enc->PutU8(flags);
  if (has_deadline) enc->PutU64(deadline);
  if (has_hop_limit) enc->PutU32(hops_left);
  if (has_clone_limit) enc->PutVarint(clones_left);
  if (has_row_limit) enc->PutVarint(max_rows_per_visit);
  if (pinned_epoch != 0) enc->PutVarint(pinned_epoch);
}

Status QueryBudget::DecodeFrom(serialize::Decoder* dec, QueryBudget* out) {
  uint8_t flags = 0;
  WEBDIS_RETURN_IF_ERROR(dec->GetU8(&flags));
  if ((flags & ~(kBudgetDeadlineBit | kBudgetHopBit | kBudgetCloneBit |
                 kBudgetRowBit | kBudgetEpochBit)) != 0) {
    return Status::Corruption("unknown budget flags");
  }
  out->has_deadline = (flags & kBudgetDeadlineBit) != 0;
  out->has_hop_limit = (flags & kBudgetHopBit) != 0;
  out->has_clone_limit = (flags & kBudgetCloneBit) != 0;
  out->has_row_limit = (flags & kBudgetRowBit) != 0;
  if (out->has_deadline) WEBDIS_RETURN_IF_ERROR(dec->GetU64(&out->deadline));
  if (out->has_hop_limit) WEBDIS_RETURN_IF_ERROR(dec->GetU32(&out->hops_left));
  if (out->has_clone_limit) {
    WEBDIS_RETURN_IF_ERROR(dec->GetVarint(&out->clones_left));
  }
  if (out->has_row_limit) {
    WEBDIS_RETURN_IF_ERROR(dec->GetVarint(&out->max_rows_per_visit));
  }
  if ((flags & kBudgetEpochBit) != 0) {
    WEBDIS_RETURN_IF_ERROR(dec->GetVarint(&out->pinned_epoch));
    if (out->pinned_epoch == 0) {
      return Status::Corruption("epoch-pin flag with zero epoch");
    }
  } else {
    out->pinned_epoch = 0;
  }
  return Status::OK();
}

Status WebQuery::Validate() const {
  if (remaining_queries.empty()) {
    return Status::InvalidArgument("clone with no remaining node-queries");
  }
  if (future_pres.size() + 1 != remaining_queries.size()) {
    return Status::InvalidArgument(StringPrintf(
        "clone pipeline mismatch: %zu queries vs %zu future PREs",
        remaining_queries.size(), future_pres.size()));
  }
  if (dest_urls.empty()) {
    return Status::InvalidArgument("clone with no destination nodes");
  }
  return Status::OK();
}

WebQuery WebQuery::Clone() const {
  WebQuery out;
  out.id = id;
  out.remaining_queries.reserve(remaining_queries.size());
  for (const NodeQuery& q : remaining_queries) {
    out.remaining_queries.push_back(q.Clone());
  }
  out.future_pres = future_pres;
  out.rem_pre = rem_pre;
  out.dest_urls = dest_urls;
  out.ack_mode = ack_mode;
  out.ack_parent_host = ack_parent_host;
  out.ack_parent_port = ack_parent_port;
  out.ack_token = ack_token;
  out.budget = budget;
  return out;
}

void WebQuery::EncodeTo(serialize::Encoder* enc) const {
  id.EncodeTo(enc);
  enc->PutVarint(remaining_queries.size());
  for (const NodeQuery& q : remaining_queries) {
    q.EncodeTo(enc);
  }
  enc->PutVarint(future_pres.size());
  for (const pre::Pre& p : future_pres) {
    p.EncodeTo(enc);
  }
  rem_pre.EncodeTo(enc);
  enc->PutVarint(dest_urls.size());
  for (const std::string& url : dest_urls) {
    enc->PutString(url);
  }
  enc->PutBool(ack_mode);
  if (ack_mode) {
    enc->PutString(ack_parent_host);
    enc->PutU16(ack_parent_port);
    enc->PutU64(ack_token);
  }
  budget.EncodeTo(enc);
}

Status WebQuery::DecodeFrom(serialize::Decoder* dec, WebQuery* out) {
  WEBDIS_RETURN_IF_ERROR(QueryId::DecodeFrom(dec, &out->id));
  uint64_t query_count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("node-query", 1024, /*min_bytes_per_item=*/4,
                    &query_count));
  out->remaining_queries.clear();
  for (uint64_t i = 0; i < query_count; ++i) {
    NodeQuery q;
    WEBDIS_RETURN_IF_ERROR(NodeQuery::DecodeFrom(dec, &q));
    out->remaining_queries.push_back(std::move(q));
  }
  uint64_t pre_count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("future PRE", 1024, /*min_bytes_per_item=*/1,
                    &pre_count));
  out->future_pres.clear();
  for (uint64_t i = 0; i < pre_count; ++i) {
    pre::Pre p;
    WEBDIS_ASSIGN_OR_RETURN(p, pre::Pre::DecodeFrom(dec));
    out->future_pres.push_back(std::move(p));
  }
  WEBDIS_ASSIGN_OR_RETURN(out->rem_pre, pre::Pre::DecodeFrom(dec));
  uint64_t dest_count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("destination", 100000, /*min_bytes_per_item=*/1,
                    &dest_count));
  out->dest_urls.clear();
  for (uint64_t i = 0; i < dest_count; ++i) {
    std::string url;
    WEBDIS_RETURN_IF_ERROR(dec->GetString(&url));
    out->dest_urls.push_back(std::move(url));
  }
  WEBDIS_RETURN_IF_ERROR(dec->GetBool(&out->ack_mode));
  if (out->ack_mode) {
    WEBDIS_RETURN_IF_ERROR(dec->GetString(&out->ack_parent_host));
    WEBDIS_RETURN_IF_ERROR(dec->GetU16(&out->ack_parent_port));
    WEBDIS_RETURN_IF_ERROR(dec->GetU64(&out->ack_token));
  }
  WEBDIS_RETURN_IF_ERROR(QueryBudget::DecodeFrom(dec, &out->budget));
  // Decode-side structural failures are wire corruption, not a caller
  // argument error: a clone that parses but violates the pipeline invariant
  // can only come from a damaged or hostile frame.
  if (const Status status = out->Validate(); !status.ok()) {
    return Status::Corruption(status.message());
  }
  return Status::OK();
}

size_t WebQuery::WireSize() const {
  serialize::Encoder enc;
  EncodeTo(&enc);
  return enc.size();
}

void CloneBatch::EncodeTo(serialize::Encoder* enc) const {
  EncodeMembers(clones, enc);
}

void CloneBatch::EncodeMembers(std::span<const WebQuery> members,
                               serialize::Encoder* enc) {
  enc->PutVarint(members.size());
  for (const WebQuery& clone : members) {
    clone.EncodeTo(enc);
  }
}

Status CloneBatch::DecodeFrom(serialize::Decoder* dec, CloneBatch* out) {
  uint64_t count = 0;
  WEBDIS_RETURN_IF_ERROR(
      dec->GetCount("clone-batch member", 1024, /*min_bytes_per_item=*/8,
                    &count));
  if (count == 0) return Status::Corruption("empty clone batch");
  out->clones.clear();
  for (uint64_t i = 0; i < count; ++i) {
    WebQuery clone;
    WEBDIS_RETURN_IF_ERROR(WebQuery::DecodeFrom(dec, &clone));
    out->clones.push_back(std::move(clone));
  }
  return Status::OK();
}

}  // namespace webdis::query
