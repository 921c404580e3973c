#include "query/query_id.h"

#include <charconv>
#include <iterator>
#include <limits>

#include "serialize/encoder.h"

namespace webdis::query {

std::string QueryId::Key() const {
  // Appended, not formatted: every byte of user and reply_host lands in the
  // key, embedded NULs included, so distinct ids never share one.
  char port[std::numeric_limits<uint16_t>::digits10 + 1];
  char number[std::numeric_limits<uint32_t>::digits10 + 1];
  char* const port_end = std::to_chars(port, std::end(port), reply_port).ptr;
  char* const number_end =
      std::to_chars(number, std::end(number), query_number).ptr;
  std::string key;
  key.reserve(user.size() + reply_host.size() + (port_end - port) +
              (number_end - number) + 3);
  key.append(user);
  key.push_back('@');
  key.append(reply_host);
  key.push_back(':');
  key.append(port, port_end);
  key.push_back('#');
  key.append(number, number_end);
  return key;
}

void QueryId::EncodeTo(serialize::Encoder* enc) const {
  enc->PutString(user);
  enc->PutString(reply_host);
  enc->PutU16(reply_port);
  enc->PutU32(query_number);
}

Status QueryId::DecodeFrom(serialize::Decoder* dec, QueryId* out) {
  WEBDIS_RETURN_IF_ERROR(dec->GetString(&out->user));
  WEBDIS_RETURN_IF_ERROR(dec->GetString(&out->reply_host));
  WEBDIS_RETURN_IF_ERROR(dec->GetU16(&out->reply_port));
  WEBDIS_RETURN_IF_ERROR(dec->GetU32(&out->query_number));
  return Status::OK();
}

}  // namespace webdis::query
