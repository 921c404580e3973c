#include "web/graph.h"

#include <cctype>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"

namespace webdis::web {

WebGraph::~WebGraph() {
  for (DocEntry& entry : entries_) {
    delete entry.doc.load(std::memory_order_relaxed);
  }
}

WebGraph::WebGraph(WebGraph&& other) noexcept
    : strings_(std::move(other.strings_)),
      entries_(std::move(other.entries_)),
      by_key_(std::move(other.by_key_)),
      host_index_(std::move(other.host_index_)),
      retired_hosts_(std::move(other.retired_hosts_)),
      live_count_(other.live_count_),
      materialized_(other.materialized_.load(std::memory_order_relaxed)),
      generator_(std::move(other.generator_)),
      epoch_(other.epoch_),
      history_enabled_(other.history_enabled_),
      history_(std::move(other.history_)) {
  other.entries_.clear();  // moved-from deque is empty, but be explicit
  other.by_key_.clear();
  other.host_index_.clear();
  other.live_count_ = 0;
  other.materialized_.store(0, std::memory_order_relaxed);
}

WebGraph& WebGraph::operator=(WebGraph&& other) noexcept {
  if (this == &other) return *this;
  for (DocEntry& entry : entries_) {
    delete entry.doc.load(std::memory_order_relaxed);
  }
  strings_ = std::move(other.strings_);
  entries_ = std::move(other.entries_);
  by_key_ = std::move(other.by_key_);
  host_index_ = std::move(other.host_index_);
  retired_hosts_ = std::move(other.retired_hosts_);
  live_count_ = other.live_count_;
  materialized_.store(other.materialized_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  generator_ = std::move(other.generator_);
  epoch_ = other.epoch_;
  history_enabled_ = other.history_enabled_;
  history_ = std::move(other.history_);
  other.entries_.clear();
  other.by_key_.clear();
  other.host_index_.clear();
  other.live_count_ = 0;
  other.materialized_.store(0, std::memory_order_relaxed);
  return *this;
}

Result<WebGraph::DocEntry*> WebGraph::AddEntry(std::string_view url,
                                               html::Url* parsed_out) {
  WEBDIS_ASSIGN_OR_RETURN(*parsed_out, html::ParseUrl(url));
  const std::string key = parsed_out->ResourceKey();
  if (by_key_.find(key) != by_key_.end()) {
    return Status::InvalidArgument(
        StringPrintf("duplicate document '%s'", key.c_str()));
  }
  const uint32_t key_id = strings_.Intern(key);
  const uint32_t host_id = strings_.Intern(parsed_out->host);
  const uint32_t index = static_cast<uint32_t>(entries_.size());
  DocEntry& entry = entries_.emplace_back();
  entry.key_id = key_id;
  entry.host_id = host_id;
  entry.born_epoch = epoch_;
  by_key_.emplace(strings_.View(key_id), index);
  host_index_[strings_.View(host_id)].emplace(strings_.View(key_id), index);
  ++live_count_;
  return &entry;
}

Status WebGraph::AddDocument(std::string_view url, std::string html) {
  html::Url parsed_url;
  DocEntry* entry = nullptr;
  WEBDIS_ASSIGN_OR_RETURN(entry, AddEntry(url, &parsed_url));
  auto doc = std::make_unique<Document>();
  doc->url = std::move(parsed_url);
  doc->parsed = html::ParseDocument(doc->url, html);
  doc->raw_html = std::move(html);
  doc->born_epoch = entry->born_epoch;
  if (history_enabled_) {
    history_[{doc->url.ResourceKey(), doc->version}] = doc->raw_html;
  }
  entry->doc.store(doc.release(), std::memory_order_release);
  materialized_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void WebGraph::SetPageGenerator(PageGenerator generator) {
  generator_ = std::move(generator);
}

Status WebGraph::AddLazyDocument(std::string_view url, uint64_t aux0,
                                 uint64_t aux1) {
  html::Url parsed_url;
  DocEntry* entry = nullptr;
  WEBDIS_ASSIGN_OR_RETURN(entry, AddEntry(url, &parsed_url));
  entry->lazy = true;
  entry->aux0 = aux0;
  entry->aux1 = aux1;
  if (history_enabled_) {
    // History needs every body; a lazy add during oracle recording is
    // materialized on the spot so the (key, version) record exists.
    Document* doc = Materialize(*entry);
    history_[{doc->url.ResourceKey(), doc->version}] = doc->raw_html;
  }
  return Status::OK();
}

WebGraph::Document* WebGraph::Materialize(const DocEntry& entry) const {
  Document* existing = entry.doc.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  WEBDIS_CHECK(entry.lazy);
  WEBDIS_CHECK(generator_ != nullptr);
  const std::string_view key = strings_.View(entry.key_id);
  auto parsed = html::ParseUrl(key);
  WEBDIS_CHECK(parsed.ok());  // the key round-trips: it was parsed at add
  auto doc = std::make_unique<Document>();
  doc->url = std::move(parsed).value();
  std::string html = generator_(key, entry.aux0, entry.aux1);
  doc->parsed = html::ParseDocument(doc->url, html);
  doc->raw_html = std::move(html);
  doc->born_epoch = entry.born_epoch;
  // Publish with a compare-exchange: concurrent stepper partitions may race
  // to materialize the same document, but generation is deterministic, so
  // both candidates hold identical bytes — the loser just frees its copy.
  Document* expected = nullptr;
  Document* fresh = doc.get();
  if (entry.doc.compare_exchange_strong(expected, fresh,
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
    doc.release();
    materialized_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }
  return expected;
}

const WebGraph::DocEntry* WebGraph::EntryFor(std::string_view url) const {
  // Callers mostly pass a stored key verbatim, and a stored key is its own
  // resource key (Materialize relies on that) unless it ends in whitespace,
  // which ParseUrl would trim.
  if (!url.empty() && !std::isspace(static_cast<unsigned char>(url.back()))) {
    auto it = by_key_.find(url);
    if (it != by_key_.end()) return &entries_[it->second];
  }
  auto parsed = html::ParseUrl(url);
  if (!parsed.ok()) return nullptr;
  auto it = by_key_.find(parsed->ResourceKey());
  return it == by_key_.end() ? nullptr : &entries_[it->second];
}

void WebGraph::EraseEntry(uint32_t index) {
  DocEntry& entry = entries_[index];
  Document* doc = entry.doc.exchange(nullptr, std::memory_order_relaxed);
  if (doc != nullptr) {
    materialized_.fetch_sub(1, std::memory_order_relaxed);
    delete doc;
  }
  const std::string_view key = strings_.View(entry.key_id);
  const std::string_view host = strings_.View(entry.host_id);
  by_key_.erase(key);
  auto hit = host_index_.find(host);
  if (hit != host_index_.end()) {
    hit->second.erase(key);
    if (hit->second.empty()) host_index_.erase(hit);
  }
  entry.key_id = common::StringInterner::kInvalidId;  // tombstone
  entry.lazy = false;
  --live_count_;
}

Status WebGraph::UpdateDocument(std::string_view url, std::string html) {
  html::Url parsed_url;
  WEBDIS_ASSIGN_OR_RETURN(parsed_url, html::ParseUrl(url));
  const std::string key = parsed_url.ResourceKey();
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::InvalidArgument(
        StringPrintf("no such document '%s'", key.c_str()));
  }
  const DocEntry& entry = entries_[it->second];
  Document* doc = entry.doc.load(std::memory_order_acquire);
  if (doc == nullptr) doc = Materialize(entry);
  doc->parsed = html::ParseDocument(doc->url, html);
  doc->raw_html = std::move(html);
  ++doc->version;
  if (history_enabled_) {
    history_[{key, doc->version}] = doc->raw_html;
  }
  return Status::OK();
}

Status WebGraph::RemoveDocument(std::string_view url) {
  html::Url parsed_url;
  WEBDIS_ASSIGN_OR_RETURN(parsed_url, html::ParseUrl(url));
  const std::string key = parsed_url.ResourceKey();
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::InvalidArgument(
        StringPrintf("no such document '%s'", key.c_str()));
  }
  EraseEntry(it->second);
  return Status::OK();
}

Status WebGraph::RetireHost(std::string_view host) {
  auto hit = host_index_.find(host);
  const bool removed_any = hit != host_index_.end();
  if (!removed_any && !HostRetired(host)) {
    return Status::InvalidArgument(
        StringPrintf("no documents on host '%.*s'",
                     static_cast<int>(host.size()), host.data()));
  }
  if (removed_any) {
    // Snapshot the entry indexes first: EraseEntry rewrites the bucket and
    // drops it once empty.
    std::vector<uint32_t> indexes;
    indexes.reserve(hit->second.size());
    for (const auto& [key, index] : hit->second) indexes.push_back(index);
    for (uint32_t index : indexes) EraseEntry(index);
  }
  retired_hosts_.insert(strings_.Intern(host));
  return Status::OK();
}

bool WebGraph::HostRetired(std::string_view host) const {
  const uint32_t id = strings_.Lookup(host);
  return id != common::StringInterner::kInvalidId &&
         retired_hosts_.find(id) != retired_hosts_.end();
}

void WebGraph::EnableHistory() {
  if (history_enabled_) return;
  history_enabled_ = true;
  // Backfill current versions so every live (key, version) pair resolves —
  // materializing lazy documents, since history stores full bodies.
  for (const auto& [key, index] : by_key_) {
    const DocEntry& entry = entries_[index];
    Document* doc = entry.doc.load(std::memory_order_acquire);
    if (doc == nullptr) doc = Materialize(entry);
    history_[{std::string(key), doc->version}] = doc->raw_html;
  }
}

const std::string* WebGraph::HistoricalHtml(std::string_view url,
                                            uint64_t version) const {
  auto parsed = html::ParseUrl(url);
  if (!parsed.ok()) return nullptr;
  auto it = history_.find({parsed->ResourceKey(), version});
  return it == history_.end() ? nullptr : &it->second;
}

const WebGraph::Document* WebGraph::Find(std::string_view url) const {
  const DocEntry* entry = EntryFor(url);
  if (entry == nullptr) return nullptr;
  Document* doc = entry->doc.load(std::memory_order_acquire);
  return doc != nullptr ? doc : Materialize(*entry);
}

bool WebGraph::Has(std::string_view url) const {
  return EntryFor(url) != nullptr;
}

std::vector<std::string> WebGraph::AllUrls() const {
  std::vector<std::string> urls;
  urls.reserve(by_key_.size());
  for (const auto& [key, index] : by_key_) urls.emplace_back(key);
  return urls;
}

std::vector<std::string> WebGraph::Hosts() const {
  std::vector<std::string> hosts;
  hosts.reserve(host_index_.size());
  for (const auto& [host, bucket] : host_index_) hosts.emplace_back(host);
  return hosts;
}

std::vector<std::string> WebGraph::UrlsOnHost(std::string_view host) const {
  std::vector<std::string> urls;
  auto hit = host_index_.find(host);
  if (hit == host_index_.end()) return urls;
  urls.reserve(hit->second.size());
  for (const auto& [key, index] : hit->second) urls.emplace_back(key);
  return urls;
}

size_t WebGraph::TotalHtmlBytes() const {
  size_t total = 0;
  for (const auto& [key, index] : by_key_) {
    const DocEntry& entry = entries_[index];
    Document* doc = entry.doc.load(std::memory_order_acquire);
    if (doc == nullptr) doc = Materialize(entry);
    total += doc->raw_html.size();
  }
  return total;
}

size_t WebGraph::ApproxTableBytes() const {
  // Red-black-tree node overhead estimate, matching StringInterner's.
  constexpr size_t kNode = 40;
  size_t bytes = strings_.ApproxBytes();
  bytes += entries_.size() * sizeof(DocEntry);
  bytes += by_key_.size() *
           (sizeof(std::string_view) + sizeof(uint32_t) + kNode);
  for (const auto& [host, bucket] : host_index_) {
    bytes += sizeof(std::string_view) + kNode +
             bucket.size() * (sizeof(std::string_view) + sizeof(uint32_t) +
                              kNode);
  }
  bytes += retired_hosts_.size() * (sizeof(uint32_t) + kNode);
  return bytes;
}

}  // namespace webdis::web
