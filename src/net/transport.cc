#include "net/transport.h"

#include "common/strings.h"

namespace webdis::net {

std::string_view MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kWebQuery:
      return "WebQuery";
    case MessageType::kReport:
      return "Report";
    case MessageType::kTerminate:
      return "Terminate";
    case MessageType::kFetchRequest:
      return "FetchRequest";
    case MessageType::kFetchResponse:
      return "FetchResponse";
    case MessageType::kAck:
      return "Ack";
    case MessageType::kDeliveryAck:
      return "DeliveryAck";
    case MessageType::kOverloaded:
      return "Overloaded";
    case MessageType::kCloneBatch:
      return "CloneBatch";
    case MessageType::kReportBatch:
      return "ReportBatch";
    case MessageType::kSiteRetired:
      return "SiteRetired";
  }
  return "Unknown";
}

std::string Endpoint::ToString() const {
  return StringPrintf("%s:%u", host.c_str(), static_cast<unsigned>(port));
}

}  // namespace webdis::net
