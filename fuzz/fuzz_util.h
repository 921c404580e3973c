#ifndef WEBDIS_FUZZ_FUZZ_UTIL_H_
#define WEBDIS_FUZZ_FUZZ_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace webdis::fuzz {

/// Shared fuzz dispatchers — one per untrusted-byte surface. Each feeds the
/// input to the production decoder and, when the input parses, asserts the
/// round-trip fixpoint property: re-encoding the decoded value yields a
/// canonical byte image that decodes back and re-encodes byte-identically.
/// (The input itself need not be canonical — LEB128 varints accept redundant
/// continuation bytes — but one re-encoding must reach a fixed point.)
/// Malformed input must produce an explicit Corruption status; any crash,
/// sanitizer report, or fixpoint violation aborts the process, which is how
/// both libFuzzer and the plain corpus-replay driver report a finding.
///
/// FuzzHtml feeds the input to html::ParseDocument as an HTML document and
/// asserts that every field equals the reference parse
/// (tests/html_reference.h) — HTML is untrusted, and the reference is the
/// parser's specification.
///
/// FuzzEval reads a page's HTML (a length-prefixed string) followed by a
/// node-query's wire bytes, and skips input that does not decode. It
/// evaluates the node-query as a query server does, in place over
/// relations refilled from the parsed page (server::NodeRelations, one
/// storage for every input, as a server keeps one for every visit), and
/// over the page's owned database (server::BuildNodeDatabase); statuses,
/// labels and rows must be equal, and no result cell may borrow.
///
/// All five return 0 (the libFuzzer convention for "input consumed").
int FuzzWireFrame(const uint8_t* data, size_t size);
int FuzzWalStream(const uint8_t* data, size_t size);
int FuzzSnapshot(const uint8_t* data, size_t size);
int FuzzHtml(const uint8_t* data, size_t size);
int FuzzEval(const uint8_t* data, size_t size);

/// Writes the mechanical seed corpus under
/// `root`/{wire,wal,snapshot,html,eval}:
/// one well-formed input per wire message type / WAL record type / snapshot
/// image (mirroring the golden objects in tests/wire_golden_test.cc and
/// tests/persist_golden_test.cc), plus the checked-in regression entries —
/// one malformed input per decoder hardening fix, kept so the bug class
/// stays covered by plain ctest replay forever — and one HTML document per
/// parser edge case (html::reference::EdgeCaseDocuments), and one eval
/// input per benchmark page shape and workload node-query, plus pages whose
/// rows hold the bytes a separator-joined row key would confuse. Returns
/// the number of files written, or -1 on I/O failure.
int WriteSeedCorpus(const std::string& root);

}  // namespace webdis::fuzz

#endif  // WEBDIS_FUZZ_FUZZ_UTIL_H_
