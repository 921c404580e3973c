#ifndef WEBDIS_QUERY_WEB_QUERY_H_
#define WEBDIS_QUERY_WEB_QUERY_H_

#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "pre/pre.h"
#include "query/node_query.h"
#include "query/query_id.h"

namespace webdis::query {

/// Per-query resource budget (PROTOCOL.md §7.1), attached at the user site
/// and carried in every clone. The language bounds closure with `*k`, but a
/// dense site can still multiply one clone into thousands; the budget is the
/// runtime defense. Every limit is optional (its `has_` flag gates it), and
/// every QueryServer enforces the carried limits *before* node-query
/// evaluation and before each forward — exhaustion is reported to the CHT as
/// an explicit BudgetExceeded outcome, never a silent stall.
struct QueryBudget {
  /// Absolute virtual-time deadline: a clone arriving after it is not
  /// processed (its visit is reported budget-exceeded so the CHT settles).
  bool has_deadline = false;
  SimTime deadline = 0;
  /// Remaining forward hops along any path. A clone carrying hops_left == 1
  /// is on its last hop: it is processed locally but forwards nothing;
  /// children carry hops_left - 1.
  bool has_hop_limit = false;
  uint32_t hops_left = 0;
  /// Remaining clone dispatches allowed in this clone's entire forwarding
  /// subtree. Each dispatch costs 1; the remainder is split across the
  /// dispatched children, so the global clone count is bounded by the value
  /// the user site stamped.
  bool has_clone_limit = false;
  uint64_t clones_left = 0;
  /// Cap on result rows reported per node visit (cheap local degradation;
  /// the user site's row_limit remains the global cap).
  bool has_row_limit = false;
  uint64_t max_rows_per_visit = 0;
  /// §10.1: the WebGraph epoch the query was submitted under, or 0 when the
  /// web is treated as frozen (every pre-§10 query). Servers use the pin to
  /// gate *spawned* sites: a document whose born_epoch exceeds the pin is
  /// invisible to this run (reported kVisibilityEpochGated), so an already-
  /// running query never half-sees a site that appeared mid-flight.
  uint64_t pinned_epoch = 0;

  /// True if any limit is armed. The epoch pin is a visibility stamp, not a
  /// resource limit, so it does not participate.
  bool Any() const {
    return has_deadline || has_hop_limit || has_clone_limit || has_row_limit;
  }

  /// Wire: `u8 flags` (bit 0 deadline, 1 hop, 2 clone, 3 row, 4 epoch pin)
  /// followed by the present fields in that order. Flags 0 = no budget — the
  /// encoding the seed's budget-less clones now carry as a single trailing
  /// byte. The epoch pin is present iff nonzero, keeping every pre-§10
  /// encoding byte-identical.
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, QueryBudget* out);
};

/// The processing state of a clone (Section 2.7.1): the number of
/// node-queries still to be evaluated and the remaining part of the current
/// PRE. This is what the CHT and the server log tables compare.
struct CloneState {
  uint32_t num_q = 0;
  pre::Pre rem_pre;

  /// e.g. "(2, G.L*1)" — matches the paper's State(Q_clone) notation.
  std::string ToString() const;

  bool Equals(const CloneState& other) const {
    return num_q == other.num_q && rem_pre.Equals(other.rem_pre);
  }

  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, CloneState* out);
};

/// The Web-Query Object (Section 4.1): the unit that migrates from site to
/// site. A clone carries only the *remaining* work:
///
///   remaining_queries[0]           — next node-query, guarded by rem_pre
///   future_pres[k]                 — PRE p guarding remaining_queries[k+1]
///   rem_pre                        — rem(p_current) after traversal so far
///   dest_urls                      — destination nodes, all on one site
///                                    (optimization §3.2(4): one clone per
///                                    site carries every target node there)
///
/// Invariant: future_pres.size() + 1 == remaining_queries.size() whenever
/// remaining_queries is non-empty.
class WebQuery {
 public:
  WebQuery() = default;

  QueryId id;
  std::vector<NodeQuery> remaining_queries;
  std::vector<pre::Pre> future_pres;
  pre::Pre rem_pre;
  std::vector<std::string> dest_urls;

  /// Ack-tree termination mode (the Related Work [4] baseline,
  /// Dijkstra–Scholten style): when set, the processing server must send a
  /// kAck carrying `ack_token` to `ack_parent` once this clone and every
  /// clone transitively forwarded from it have been fully processed. Off in
  /// the paper's CHT design.
  bool ack_mode = false;
  std::string ack_parent_host;
  uint16_t ack_parent_port = 0;
  uint64_t ack_token = 0;

  /// Resource budget carried by this clone (PROTOCOL.md §7.1). Defaults to
  /// "no limits" (flags byte 0 on the wire).
  QueryBudget budget;

  /// State(Q_clone) = (num_q, rem(p_i)).
  CloneState State() const {
    return CloneState{static_cast<uint32_t>(remaining_queries.size()),
                      rem_pre};
  }

  /// Checks the structural invariant; servers reject malformed clones.
  Status Validate() const;

  /// Deep copy (expression trees are owned by node queries).
  WebQuery Clone() const;

  /// Full wire round-trip.
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, WebQuery* out);

  /// Serialized size in bytes (what the network meters for this clone).
  size_t WireSize() const;
};

/// A batched clone envelope (PROTOCOL.md §9.2): clones of *different*
/// queries bound for the same destination host, carried in one framed
/// kCloneBatch message. The batch is the unit of reliable delivery (one
/// transfer seq / ack for all members) and of admission (a shed batch NACKs
/// every member — never a silent partial accept).
struct CloneBatch {
  std::vector<WebQuery> clones;

  /// Wire: varint member count (must be >= 1, capped at 1024) followed by
  /// each member's WebQuery encoding. An empty batch is a protocol error
  /// and is rejected at decode time.
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, CloneBatch* out);
  /// The same wire image for members held elsewhere, without moving them
  /// into a batch first.
  static void EncodeMembers(std::span<const WebQuery> members,
                            serialize::Encoder* enc);
};

}  // namespace webdis::query

#endif  // WEBDIS_QUERY_WEB_QUERY_H_
