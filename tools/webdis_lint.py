#!/usr/bin/env python3
"""webdis-lint: repo-specific invariant checker, run in CI and under ctest.

Enforces invariants that neither the compiler nor generic linters know about,
the ones whose violation breaks distributed termination or reproducibility
(see CONTRIBUTING.md "Static analysis & sanitizers"):

  wire-parity   Every `MessageType::k<Name> = <N>` constant in
                src/net/transport.h must have (a) a `payload:` annotation
                naming its codec, (b) the named EncodeTo/DecodeFrom pair (or
                free-function codec pair) declared somewhere under src/,
                (c) a `case MessageType::k<Name>` in MessageTypeToString
                (src/net/transport.cc), (d) a golden frame referencing
                `MessageType::k<Name>` in tests/wire_golden_test.cc, and
                (e) a "<Name> (type <N>)" entry in PROTOCOL.md. A wire
                message nobody can decode — or whose bytes can drift
                unnoticed — is how one lost report stalls completion forever.

  wal-parity    Every `WalRecordType::k<Name> = <N>` constant in
                src/server/persist.h must have (a) a `payload:` annotation
                naming its codec, (b) the named EncodeTo/DecodeFrom pair
                declared somewhere under src/, (c) a
                `case WalRecordType::k<Name>` in WalRecordTypeToString
                (src/server/persist.cc), (d) a golden image referencing
                `WalRecordType::k<Name>` in tests/persist_golden_test.cc, and
                (e) a "<Name> (wal record <N>)" entry in PROTOCOL.md. A WAL
                record that cannot be replayed — or whose bytes drift
                unnoticed — silently breaks crash recovery. Skipped when
                src/server/persist.h is absent.

  clock         No direct std::chrono::{system,steady,high_resolution}_clock,
                rand()/srand(), std::random_device, or std::mt19937 outside
                src/net/tcp.cc and src/common/clock.h. Everything else goes
                through common/clock.h (SimTime) and common/rng.h, keeping
                SimNetwork schedules deterministic and fault tests
                reproducible seed-for-seed.

  naked-new     No naked `new` under src/. Ownership is unique_ptr /
                make_unique everywhere; the one sanctioned exception pattern
                (private constructor behind a factory) carries an allow
                comment.

  confinement   The parallel stepper (src/net/parallel_sim.cc) runs
                different endpoints' handlers concurrently inside a time
                slice, which is only sound while every mutable QueryServer /
                UserSite field is either WEBDIS_GUARDED_BY a mutex or
                confined to its own endpoint's handler. Confinement cannot
                be checked mechanically, so it is recorded: each audited
                field is listed in CONFINEMENT_ALLOWLIST below. A new field
                that is neither annotated nor listed fails the lint — add
                the annotation, or audit that only the owning endpoint's
                handler ever touches it and extend the allowlist. Stale
                allowlist entries (field renamed/removed) also fail, so the
                audit record cannot rot. See DESIGN.md "Parallel execution".

  lock-order    Builds the directed mutex-acquisition graph under src/ from
                two sources: WEBDIS_ACQUIRED_BEFORE annotations on
                webdis::Mutex declarations, and lexically nested MutexLock
                scopes (lock B taken while lock A's scope is still open).
                Fails when (a) two mutexes nest without a covering
                WEBDIS_ACQUIRED_BEFORE annotation on the outer mutex,
                (b) the union graph has a cycle — a latent deadlock even if
                today's schedules never interleave it — or (c) an annotation
                names a mutex that is not declared anywhere (stale audit
                record).

  iter-determinism
                Flags range-for loops over std::unordered_map /
                std::unordered_set inside functions that feed serialization
                (EncodeTo / serialize::Encoder / Put* / FormatRunStats).
                Hash-table iteration order is implementation-defined, so
                bytes produced from it drift across stdlibs and runs —
                breaking golden frames, WAL replay equivalence, and the
                bit-identical parallel-vs-sequential oracle. Materialize
                into a sorted container first, or iterate a std::map.

  web-interned-tables
                The arena-backed document tables in src/web/graph.h (the
                region between the `webdis-lint: interned-tables-begin` /
                `-end` markers) must key and store interned ids or
                string_views into the interner arena — never owning
                std::string copies. One raw std::string per document is the
                difference between ~300 bytes and ~kilobytes of table
                machinery per document at the 10^5–10^6-document scale
                bench/p1_parallel gates on. Missing markers fail too, so the
                audit region cannot silently disappear. Skipped when
                src/web/graph.h is absent.

Suppressions: a comment containing `webdis-lint: allow(<rule>)` on the same
line, or anywhere in the contiguous comment block immediately above the
flagged line, silences that rule for that line.

Exit status: 0 clean, 1 violations (printed one per line, grep-able
`file:line: [rule] message`), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".cc", ".h")

# Files allowed to touch wall clocks / raw randomness directly.
CLOCK_ALLOWLIST = {
    os.path.join("src", "net", "tcp.cc"),
    os.path.join("src", "common", "clock.h"),
}

CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
    (re.compile(r"std::chrono::steady_clock"), "std::chrono::steady_clock"),
    (re.compile(r"std::chrono::high_resolution_clock"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"(?<![:\w])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"std::mt19937"), "std::mt19937"),
]

NAKED_NEW = re.compile(r"(?<![:\w])new\s+[A-Za-z_][\w:]*(\s*[<({[]|\s*[;,)])")

# Classes whose handlers the parallel stepper may run concurrently with
# other endpoints', and the audited per-endpoint-confined fields of each.
# Trailing-underscore names only: nested helper structs (Forward, QueuedClone,
# PendingAck, CachedResult, QueryRun, ...) follow the plain-member naming
# convention and are data, not endpoint state.
CONFINEMENT_CLASSES = {
    os.path.join("src", "server", "query_server.h"): "QueryServer",
    os.path.join("src", "client", "user_site.h"): "UserSite",
}
CONFINEMENT_ALLOWLIST = {
    "QueryServer": {
        # Identity / wiring, set at construction and read-only afterwards.
        "host_", "web_", "transport_", "options_", "clock_",
        # Per-server protocol state: every mutation happens inside this
        # server's own OnMessage/timer handlers (one endpoint = one
        # partition, handlers within a partition run sequentially).
        "stats_", "sender_", "receiver_", "breakers_", "pending_clones_",
        "drain_timer_", "log_table_", "terminated_queries_", "pending_acks_",
        "next_ack_token_", "started_",
        # The visited page's relations: refilled and read only inside this
        # server's own handlers, and only within the visit that filled them.
        "node_relations_",
        # Durability (server/persist): the backend pointer is set before the
        # run starts; the WAL id counter and snapshot cadence counter are
        # mutated only inside this server's own message/timer handlers.
        "persist_", "next_wal_id_", "clones_since_snapshot_",
        # Cross-host observer sink: the engine wraps it in a mutex when
        # worker_threads > 0 (core::Engine::ObserveVisits); the field itself
        # is only assigned before the run starts.
        "visit_observer_",
        # Cross-query sharing (PROTOCOL.md §9): the result cache and the
        # batch staging buffers are per-server state, touched only from this
        # server's own OnMessage and flush-timer handlers. The cache is
        # *shared across queries* but not across endpoints — concurrent
        # queries reach one server's cache strictly through that server's
        # serialized partition.
        "result_cache_lru_", "result_cache_index_", "result_cache_bytes_",
        "staged_clones_", "staged_reports_", "flush_timer_",
        "wal_pending_flush_",
        # Dynamic web & churn (PROTOCOL.md §10): flipped only by Retire(),
        # which the engine invokes from a mutation timer — churn runs are
        # restricted to the sequential stepper (workers == 0), and under the
        # parallel stepper the flag is written by nobody.
        "retired_",
    },
    "UserSite": {
        # Identity / wiring, construction-time only.
        "host_", "transport_", "options_", "clock_",
        # Mutated from this site's result-socket / timer handlers, which
        # share the user site's single host partition, and from Submit and
        # Forget, which are called between event-loop runs.
        "sender_", "next_port_", "next_query_number_", "runs_",
        # §10.4 oracle hook: assigned before the run starts, invoked only
        # from this site's result-socket handlers (single host partition).
        "report_observer_",
    },
}
FIELD_DECL = re.compile(r"\b(\w+_)\s*(?:=\s*[^;=]*)?;\s*$")
GUARDED_FIELD = re.compile(r"\b(\w+_)\s+WEBDIS_GUARDED_BY\s*\(")

ENUM_CONSTANT = re.compile(
    r"^\s*k(?P<name>\w+)\s*=\s*(?P<num>\d+)\s*,\s*(//\s*(?P<comment>.*))?$")
PAYLOAD_ANNOTATION = re.compile(
    r"payload:\s*(?P<kind>struct|codec|u8|u16|u32|u64|string|raw|none)"
    r"(\s+(?P<detail>\S+))?")

# webdis::Mutex declaration, optionally carrying an ordering annotation:
#   Mutex mu_;
#   Mutex mu_ WEBDIS_ACQUIRED_BEFORE(log_mu_);
MUTEX_DECL = re.compile(
    r"\bMutex\s+(?P<name>\w+)\s*"
    r"(?:WEBDIS_ACQUIRED_BEFORE\s*\((?P<after>[^)]*)\))?\s*;")
# Scoped acquisition: MutexLock lock(&mu_); — the argument may be a member
# access chain (&self->mu_, &site.mu_); the trailing identifier is the mutex.
MUTEX_LOCK = re.compile(r"\bMutexLock\s+\w+\s*\(\s*&\s*(?P<target>[\w.>-]+)\s*\)")

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+"
    r"(?P<name>\w+)\s*[;={(]")
RANGE_FOR = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,*&\s\[\]]+?:\s*(?P<expr>[\w.>-]+)\s*\)")
SERIAL_MARKER = re.compile(
    r"\b(EncodeTo|serialize::Encoder|Encoder\s*[&*]|"
    r"Put(?:U8|U16|U32|U64|Varint|Bool|String|Raw|LengthPrefixed)|"
    r"FormatRunStats)\b")
# A '{' opens a function (or lambda) body when the text before it ends with
# the parameter list's ')' plus optional qualifiers. Control-flow statements
# (for/if/while/switch/catch) also match ') {' and are excluded by keyword.
CONTROL_KEYWORDS = {"for", "if", "while", "switch", "catch", "return"}
FUNC_QUALIFIER_TAIL = re.compile(
    r"\)\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>,*&\s]+)*\s*$")

# web-interned-tables: the audited region of src/web/graph.h and the raw
# owning-string pattern it must never contain. `std::string_view` does not
# match (no word boundary before the underscore).
INTERNED_TABLES_BEGIN = "webdis-lint: interned-tables-begin"
INTERNED_TABLES_END = "webdis-lint: interned-tables-end"
RAW_STD_STRING = re.compile(r"\bstd::string\b")

ALLOW = re.compile(r"webdis-lint:\s*allow\(([\w,-]+)\)")
LINE_COMMENT = re.compile(r"//.*$")
STRING_LITERAL = re.compile(r'"(\\.|[^"\\])*"')
CHAR_LITERAL = re.compile(r"'(\\.|[^'\\])*'")


class Linter:
    def __init__(self, root: str) -> None:
        self.root = root
        self.errors: list[str] = []

    def error(self, rel: str, line: int, rule: str, msg: str) -> None:
        self.errors.append(f"{rel}:{line}: [{rule}] {msg}")

    # -- helpers -------------------------------------------------------------

    def read(self, rel: str) -> str | None:
        path = os.path.join(self.root, rel)
        if not os.path.isfile(path):
            return None
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()

    def source_files(self) -> list[str]:
        out = []
        for d in SOURCE_DIRS:
            base = os.path.join(self.root, d)
            for dirpath, _, files in os.walk(base):
                for name in sorted(files):
                    if name.endswith(SOURCE_EXTS):
                        out.append(os.path.relpath(
                            os.path.join(dirpath, name), self.root))
        return sorted(out)

    @staticmethod
    def strip_code(line: str) -> str:
        """Removes string/char literals and // comments: what's left is code."""
        line = STRING_LITERAL.sub('""', line)
        line = CHAR_LITERAL.sub("''", line)
        return LINE_COMMENT.sub("", line)

    @staticmethod
    def suppressed(lines: list[str], idx: int, rule: str) -> bool:
        """True if line idx (0-based) carries or follows an allow(rule)."""
        def allows(text: str) -> bool:
            m = ALLOW.search(text)
            return m is not None and rule in m.group(1).split(",")

        if allows(lines[idx]):
            return True
        j = idx - 1
        while j >= 0 and lines[j].lstrip().startswith(("//", "///")):
            if allows(lines[j]):
                return True
            j -= 1
        return False

    # -- wire-parity ---------------------------------------------------------

    def check_wire_parity(self) -> None:
        transport_h = self.read(os.path.join("src", "net", "transport.h"))
        if transport_h is None:
            self.error("src/net/transport.h", 1, "wire-parity",
                       "file missing — cannot check MessageType parity")
            return
        m = re.search(
            r"enum\s+class\s+MessageType[^{]*\{(?P<body>.*?)\};",
            transport_h, re.DOTALL)
        if m is None:
            self.error("src/net/transport.h", 1, "wire-parity",
                       "enum class MessageType not found")
            return
        body_start_line = transport_h[:m.start("body")].count("\n") + 1

        transport_cc = self.read(os.path.join("src", "net", "transport.cc")) or ""
        golden = self.read(os.path.join("tests", "wire_golden_test.cc")) or ""
        protocol = self.read("PROTOCOL.md") or ""
        # Every header under src/, for codec symbol lookups.
        src_headers = ""
        for rel in self.source_files():
            if rel.startswith("src" + os.sep) and rel.endswith(".h"):
                src_headers += self.read(rel) or ""

        constants: list[tuple[str, int]] = []
        for off, raw in enumerate(m.group("body").splitlines()):
            em = ENUM_CONSTANT.match(raw)
            if em is None:
                continue
            name, num = em.group("name"), int(em.group("num"))
            line = body_start_line + off
            constants.append((name, num))
            rel = "src/net/transport.h"

            comment = em.group("comment") or ""
            pm = PAYLOAD_ANNOTATION.search(comment)
            if pm is None:
                self.error(rel, line, "wire-parity",
                           f"k{name} has no `// payload: ...` annotation")
            else:
                kind, detail = pm.group("kind"), pm.group("detail")
                if kind == "struct":
                    if detail is None:
                        self.error(rel, line, "wire-parity",
                                   f"k{name}: `payload: struct` needs a type")
                    else:
                        tail = detail.split("::")[-1]
                        if not re.search(
                                rf"DecodeFrom\(serialize::Decoder\*\s*\w+,\s*"
                                rf"{tail}\*", src_headers):
                            self.error(
                                rel, line, "wire-parity",
                                f"k{name}: no DecodeFrom(Decoder*, {tail}*) "
                                "declared under src/")
                        if not re.search(
                                rf"{tail}[^;]*\{{|struct\s+{tail}|class\s+{tail}",
                                src_headers) or "EncodeTo" not in src_headers:
                            self.error(
                                rel, line, "wire-parity",
                                f"k{name}: no EncodeTo for {tail} under src/")
                elif kind == "codec":
                    if detail is None or "/" not in detail:
                        self.error(rel, line, "wire-parity",
                                   f"k{name}: `payload: codec` needs Enc/Dec")
                    else:
                        for fn in detail.split("/"):
                            if not re.search(rf"\b{fn}\s*\(", src_headers):
                                self.error(
                                    rel, line, "wire-parity",
                                    f"k{name}: codec function {fn}() not "
                                    "declared under src/")
                # primitives (u64 etc.): nothing further to resolve

            if f"case MessageType::k{name}" not in transport_cc:
                self.error(rel, line, "wire-parity",
                           f"k{name} missing from MessageTypeToString "
                           "(src/net/transport.cc)")
            if f"MessageType::k{name}" not in golden:
                self.error(rel, line, "wire-parity",
                           f"k{name} has no golden frame in "
                           "tests/wire_golden_test.cc")
            if not re.search(rf"\b{name}\s*\(type\s+{num}\)", protocol):
                self.error(rel, line, "wire-parity",
                           f"k{name}: PROTOCOL.md lacks a "
                           f"\"{name} (type {num})\" entry")

        # Reverse direction: golden tests / ToString cases must not reference
        # constants that no longer exist (stale goldens pass vacuously).
        declared = {name for name, _ in constants}
        for src_rel, text in (("tests/wire_golden_test.cc", golden),
                              ("src/net/transport.cc", transport_cc)):
            for rm in re.finditer(r"MessageType::k(\w+)", text):
                if rm.group(1) not in declared:
                    line = text[:rm.start()].count("\n") + 1
                    self.error(src_rel, line, "wire-parity",
                               f"references MessageType::k{rm.group(1)}, "
                               "which is not declared in transport.h")

    # -- wal-parity ----------------------------------------------------------

    def check_wal_parity(self) -> None:
        rel = os.path.join("src", "server", "persist.h")
        persist_h = self.read(rel)
        if persist_h is None:
            return  # tree has no durability layer — nothing to check
        rel = "src/server/persist.h"
        m = re.search(
            r"enum\s+class\s+WalRecordType[^{]*\{(?P<body>.*?)\};",
            persist_h, re.DOTALL)
        if m is None:
            self.error(rel, 1, "wal-parity",
                       "enum class WalRecordType not found")
            return
        body_start_line = persist_h[:m.start("body")].count("\n") + 1

        persist_cc = self.read(os.path.join("src", "server", "persist.cc")) or ""
        golden = self.read(
            os.path.join("tests", "persist_golden_test.cc")) or ""
        protocol = self.read("PROTOCOL.md") or ""
        src_headers = ""
        for hdr in self.source_files():
            if hdr.startswith("src" + os.sep) and hdr.endswith(".h"):
                src_headers += self.read(hdr) or ""

        constants: list[tuple[str, int]] = []
        for off, raw in enumerate(m.group("body").splitlines()):
            em = ENUM_CONSTANT.match(raw)
            if em is None:
                continue
            name, num = em.group("name"), int(em.group("num"))
            line = body_start_line + off
            constants.append((name, num))

            comment = em.group("comment") or ""
            pm = PAYLOAD_ANNOTATION.search(comment)
            if pm is None:
                self.error(rel, line, "wal-parity",
                           f"k{name} has no `// payload: ...` annotation")
            elif pm.group("kind") == "struct":
                detail = pm.group("detail")
                if detail is None:
                    self.error(rel, line, "wal-parity",
                               f"k{name}: `payload: struct` needs a type")
                else:
                    tail = detail.split("::")[-1]
                    if not re.search(
                            rf"DecodeFrom\(serialize::Decoder\*\s*\w*,?\s*"
                            rf"{tail}\*", src_headers):
                        self.error(
                            rel, line, "wal-parity",
                            f"k{name}: no DecodeFrom(Decoder*, {tail}*) "
                            "declared under src/")
                    if not re.search(
                            rf"struct\s+{tail}|class\s+{tail}",
                            src_headers) or "EncodeTo" not in src_headers:
                        self.error(
                            rel, line, "wal-parity",
                            f"k{name}: no EncodeTo for {tail} under src/")

            if f"case WalRecordType::k{name}" not in persist_cc:
                self.error(rel, line, "wal-parity",
                           f"k{name} missing from WalRecordTypeToString "
                           "(src/server/persist.cc)")
            if f"WalRecordType::k{name}" not in golden:
                self.error(rel, line, "wal-parity",
                           f"k{name} has no golden image in "
                           "tests/persist_golden_test.cc")
            if not re.search(rf"\b{name}\s*\(wal\s+record\s+{num}\)",
                             protocol):
                self.error(rel, line, "wal-parity",
                           f"k{name}: PROTOCOL.md lacks a "
                           f"\"{name} (wal record {num})\" entry")

        # Reverse direction: stale golden images pass vacuously.
        declared = {name for name, _ in constants}
        for src_rel, text in (("tests/persist_golden_test.cc", golden),):
            for rm in re.finditer(r"WalRecordType::k(\w+)", text):
                if rm.group(1) not in declared:
                    line = text[:rm.start()].count("\n") + 1
                    self.error(src_rel, line, "wal-parity",
                               f"references WalRecordType::k{rm.group(1)}, "
                               "which is not declared in persist.h")

    # -- clock / rng hygiene -------------------------------------------------

    def check_clock_hygiene(self) -> None:
        for rel in self.source_files():
            if rel in CLOCK_ALLOWLIST:
                continue
            text = self.read(rel)
            if text is None:
                continue
            lines = text.splitlines()
            for idx, raw in enumerate(lines):
                code = self.strip_code(raw)
                for pattern, what in CLOCK_PATTERNS:
                    if pattern.search(code) and not self.suppressed(
                            lines, idx, "clock"):
                        self.error(
                            rel, idx + 1, "clock",
                            f"{what} outside src/net/tcp.cc & "
                            "src/common/clock.h — use common/clock.h "
                            "(SimTime) / common/rng.h (Rng) so schedules "
                            "stay deterministic")

    # -- naked new -----------------------------------------------------------

    def check_naked_new(self) -> None:
        for rel in self.source_files():
            if not rel.startswith("src" + os.sep):
                continue
            text = self.read(rel)
            if text is None:
                continue
            lines = text.splitlines()
            for idx, raw in enumerate(lines):
                code = self.strip_code(raw)
                if NAKED_NEW.search(code) and not self.suppressed(
                        lines, idx, "naked-new"):
                    self.error(rel, idx + 1, "naked-new",
                               "naked `new` — use std::make_unique (or add "
                               "a webdis-lint: allow(naked-new) comment "
                               "explaining the ownership transfer)")

    # -- endpoint confinement --------------------------------------------------

    def check_confinement(self) -> None:
        for rel, cls in CONFINEMENT_CLASSES.items():
            text = self.read(rel)
            if text is None:
                continue  # synthetic trees need not carry every class
            m = re.search(
                rf"class\s+{cls}\b.*?\{{(?P<body>.*?)^\}};",
                text, re.DOTALL | re.MULTILINE)
            if m is None:
                self.error(rel, 1, "confinement",
                           f"class {cls} not found — cannot audit fields")
                continue
            body_start_line = text[:m.start("body")].count("\n") + 1
            allow = CONFINEMENT_ALLOWLIST.get(cls, set())
            lines = text.splitlines()

            declared: dict[str, int] = {}
            guarded: set[str] = set()
            for off, raw in enumerate(m.group("body").splitlines()):
                code = self.strip_code(raw)
                gm = GUARDED_FIELD.search(code)
                if gm is not None:
                    guarded.add(gm.group(1))
                    declared.setdefault(gm.group(1), body_start_line + off)
                    continue
                fm = FIELD_DECL.search(code)
                if fm is not None:
                    declared.setdefault(fm.group(1), body_start_line + off)

            for name, line in sorted(declared.items()):
                if name in guarded or name in allow:
                    continue
                if self.suppressed(lines, line - 1, "confinement"):
                    continue
                self.error(
                    rel, line, "confinement",
                    f"{cls}::{name} is neither WEBDIS_GUARDED_BY a mutex "
                    "nor in the per-endpoint-confined allowlist "
                    "(tools/webdis_lint.py CONFINEMENT_ALLOWLIST) — the "
                    "parallel stepper runs endpoints concurrently; audit "
                    "who touches this field and record the decision")
            for name in sorted(allow - set(declared)):
                self.error(
                    rel, 1, "confinement",
                    f"allowlist entry {cls}::{name} matches no declared "
                    "field — remove it so the audit record stays accurate")

    # -- lock ordering ---------------------------------------------------------

    def check_lock_order(self) -> None:
        declared: dict[str, tuple[str, int]] = {}
        # Directed edges, (outer, inner) -> first site seen.
        annotated: dict[tuple[str, str], tuple[str, int]] = {}
        nested: dict[tuple[str, str], tuple[str, int]] = {}
        missing: list[tuple[str, str, str, int]] = []

        for rel in self.source_files():
            if not rel.startswith("src" + os.sep):
                continue
            text = self.read(rel)
            if text is None:
                continue
            lines = text.splitlines()

            for idx, raw in enumerate(lines):
                code = self.strip_code(raw)
                for dm in MUTEX_DECL.finditer(code):
                    name = dm.group("name")
                    declared.setdefault(name, (rel, idx + 1))
                    after = dm.group("after") or ""
                    for succ in re.split(r"[,\s]+", after.strip()):
                        if succ:
                            annotated.setdefault((name, succ), (rel, idx + 1))

            # Nesting scan: a MutexLock declared at brace depth d stays held
            # until depth drops below d; any lock taken meanwhile nests
            # inside it. Braces and lock statements on one line are replayed
            # in textual order so `{ MutexLock a(&x); { MutexLock b(&y); } }`
            # parses the same regardless of line breaks.
            depth = 0
            held: list[tuple[str, int]] = []  # (mutex, depth at acquisition)
            for idx, raw in enumerate(lines):
                code = self.strip_code(raw)
                events: list[tuple[int, str, str | None]] = []
                for lm in MUTEX_LOCK.finditer(code):
                    target = re.split(r"->|\.", lm.group("target"))[-1]
                    events.append((lm.start(), "lock", target))
                for pos, ch in enumerate(code):
                    if ch == "{":
                        events.append((pos, "open", None))
                    elif ch == "}":
                        events.append((pos, "close", None))
                events.sort(key=lambda e: e[0])
                for _, kind, name in events:
                    if kind == "open":
                        depth += 1
                    elif kind == "close":
                        depth -= 1
                        while held and held[-1][1] > depth:
                            held.pop()
                    else:
                        assert name is not None
                        for outer, _ in held:
                            if outer == name:
                                continue
                            pair = (outer, name)
                            nested.setdefault(pair, (rel, idx + 1))
                            if pair not in annotated and not self.suppressed(
                                    lines, idx, "lock-order"):
                                missing.append((outer, name, rel, idx + 1))
                        held.append((name, depth))

        for outer, inner, rel, line in missing:
            self.error(
                rel, line, "lock-order",
                f"{inner} acquired while {outer} is held, but {outer}'s "
                f"declaration carries no WEBDIS_ACQUIRED_BEFORE({inner}) "
                "annotation — record the ordering on the outer mutex's "
                "declaration (src/common/thread_annotations.h)")

        for (a, b), (rel, line) in sorted(annotated.items()):
            if b not in declared:
                self.error(
                    rel, line, "lock-order",
                    f"WEBDIS_ACQUIRED_BEFORE on {a} names {b}, but no "
                    f"`Mutex {b}` is declared under src/ — stale annotation; "
                    "update or remove it")

        # Cycle detection over the union graph (annotated + observed
        # nestings). An allow() on a nesting site silences the
        # missing-annotation error but never removes the edge: a cycle is a
        # deadlock whether or not each individual nesting was blessed.
        graph: dict[str, set[str]] = {}
        edge_site: dict[tuple[str, str], tuple[str, int]] = {}
        for pair, site in list(annotated.items()) + list(nested.items()):
            graph.setdefault(pair[0], set()).add(pair[1])
            edge_site.setdefault(pair, site)

        state: dict[str, int] = {}  # 1 = on the DFS path, 2 = finished

        def visit(node: str, path: list[str]) -> list[str] | None:
            state[node] = 1
            path.append(node)
            for succ in sorted(graph.get(node, ())):
                if state.get(succ) == 1:
                    return path[path.index(succ):] + [succ]
                if state.get(succ, 0) == 0:
                    cycle = visit(succ, path)
                    if cycle is not None:
                        return cycle
            path.pop()
            state[node] = 2
            return None

        for node in sorted(graph):
            if state.get(node, 0) == 0:
                cycle = visit(node, [])
                if cycle is not None:
                    rel, line = edge_site.get(
                        (cycle[0], cycle[1]), ("src", 1))
                    self.error(
                        rel, line, "lock-order",
                        "acquisition-order cycle: " + " -> ".join(cycle)
                        + " — a latent deadlock; break the cycle (or fix "
                        "the stale annotation that closes it)")
                    break  # one cycle report is enough to fail the build

    # -- web interned tables ---------------------------------------------------

    def check_web_interned_tables(self) -> None:
        rel = os.path.join("src", "web", "graph.h")
        text = self.read(rel)
        if text is None:
            return  # tree has no web layer — nothing to check
        rel = "src/web/graph.h"
        lines = text.splitlines()
        begin = end = None
        for idx, raw in enumerate(lines):
            if INTERNED_TABLES_BEGIN in raw and begin is None:
                begin = idx
            elif INTERNED_TABLES_END in raw and end is None:
                end = idx
        if begin is None or end is None or end <= begin:
            self.error(
                rel, 1, "web-interned-tables",
                "interned-tables markers missing or out of order — the "
                f"document tables must sit between `{INTERNED_TABLES_BEGIN}` "
                f"and `{INTERNED_TABLES_END}` so their memory representation "
                "stays auditable")
            return
        for idx in range(begin + 1, end):
            code = self.strip_code(lines[idx])
            if RAW_STD_STRING.search(code) and not self.suppressed(
                    lines, idx, "web-interned-tables"):
                self.error(
                    rel, idx + 1, "web-interned-tables",
                    "owning std::string inside the interned document "
                    "tables — store interned ids (uint32_t) or "
                    "std::string_view into the StringInterner arena "
                    "instead; one owning copy per document breaks the "
                    "bytes-per-document budget at 10^5+ documents")

    # -- iteration determinism -------------------------------------------------

    @staticmethod
    def _function_extents(code: str) -> list[tuple[int, int]]:
        """Offsets (open brace, close brace) of function/lambda bodies.

        A '{' opens a body when the preceding text ends with a parameter
        list's ')' (plus optional const/noexcept/etc.), and the identifier
        before the matching '(' is not a control-flow keyword. Constructor
        initializer lists resolve to the last initializer's ')', which still
        classifies the brace as a function body.
        """
        extents: list[tuple[int, int]] = []
        brace_stack: list[tuple[int, bool]] = []
        for pos, ch in enumerate(code):
            if ch == "{":
                before = code[:pos]
                is_func = False
                if FUNC_QUALIFIER_TAIL.search(before):
                    close = before.rfind(")")
                    level = 0
                    open_pos = -1
                    for i in range(close, -1, -1):
                        if before[i] == ")":
                            level += 1
                        elif before[i] == "(":
                            level -= 1
                            if level == 0:
                                open_pos = i
                                break
                    if open_pos >= 0:
                        head = re.search(r"([A-Za-z_]\w*)\s*$",
                                         before[:open_pos])
                        word = head.group(1) if head else None
                        is_func = word not in CONTROL_KEYWORDS
                brace_stack.append((pos, is_func))
            elif ch == "}":
                if brace_stack:
                    start, is_func = brace_stack.pop()
                    if is_func:
                        extents.append((start, pos))
        return extents

    def check_iter_determinism(self) -> None:
        for rel in self.source_files():
            if not rel.startswith("src" + os.sep):
                continue
            text = self.read(rel)
            if text is None:
                continue
            lines = text.splitlines()
            code = "\n".join(self.strip_code(l) for l in lines)

            unordered = {dm.group("name")
                         for dm in UNORDERED_DECL.finditer(code)}
            if not unordered:
                continue

            extents = self._function_extents(code)

            for fm in RANGE_FOR.finditer(code):
                name = re.split(r"->|\.", fm.group("expr"))[-1]
                if name not in unordered:
                    continue
                # Innermost function/lambda body containing the loop: the
                # serialization-marker test looks at exactly the code that
                # surrounds it, not the whole file.
                body = None
                for start, end in extents:
                    if start < fm.start() < end and (
                            body is None or start > body[0]):
                        body = (start, end)
                if body is None:
                    continue
                # Include the signature (back to the previous statement/brace
                # boundary): a function *named* FormatRunStats or taking an
                # Encoder* is serialization-feeding even if the marker never
                # repeats inside the braces.
                sig = max(code.rfind(";", 0, body[0]),
                          code.rfind("}", 0, body[0]),
                          code.rfind("{", 0, body[0])) + 1
                if not SERIAL_MARKER.search(code[sig:body[1] + 1]):
                    continue
                idx = code[:fm.start()].count("\n")
                if self.suppressed(lines, idx, "iter-determinism"):
                    continue
                self.error(
                    rel, idx + 1, "iter-determinism",
                    f"range-for over unordered container `{name}` in a "
                    "function that feeds serialization — hash-table "
                    "iteration order is implementation-defined, so the "
                    "encoded bytes drift across stdlibs and runs; "
                    "materialize into a sorted vector (or use std::map) "
                    "before encoding")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root to lint (default: this script's repo)")
    parser.add_argument(
        "--rules",
        default="wire-parity,wal-parity,clock,naked-new,confinement,"
                "lock-order,iter-determinism,web-interned-tables",
        help="comma-separated subset of rules to run")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.root):
        print(f"webdis-lint: no such root: {args.root}", file=sys.stderr)
        return 2

    linter = Linter(args.root)
    rules = set(args.rules.split(","))
    if "wire-parity" in rules:
        linter.check_wire_parity()
    if "wal-parity" in rules:
        linter.check_wal_parity()
    if "clock" in rules:
        linter.check_clock_hygiene()
    if "naked-new" in rules:
        linter.check_naked_new()
    if "confinement" in rules:
        linter.check_confinement()
    if "lock-order" in rules:
        linter.check_lock_order()
    if "iter-determinism" in rules:
        linter.check_iter_determinism()
    if "web-interned-tables" in rules:
        linter.check_web_interned_tables()

    for err in linter.errors:
        print(err)
    if linter.errors:
        print(f"webdis-lint: {len(linter.errors)} violation(s)",
              file=sys.stderr)
        return 1
    print("webdis-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
