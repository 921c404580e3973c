#include "server/db_constructor.h"

#include "common/logging.h"

namespace webdis::server {

namespace {

using relational::Table;
using relational::Tuple;
using relational::Value;

/// A row of four cells (every virtual relation has four columns), moved in:
/// a braced initializer list would copy each string a second time.
Tuple Row(Value a, Value b, Value c, Value d) {
  Tuple row;
  row.reserve(4);
  row.push_back(std::move(a));
  row.push_back(std::move(b));
  row.push_back(std::move(c));
  row.push_back(std::move(d));
  return row;
}

void MustInsert(Table* table, Tuple tuple) {
  const Status status = table->Insert(std::move(tuple));
  WEBDIS_CHECK(status.ok()) << status.ToString();
}

/// The ltype cell of each link type: static bytes a borrowed cell can read.
std::string_view LinkTypeCell(html::LinkType t) {
  switch (t) {
    case html::LinkType::kInterior:
      return "I";
    case html::LinkType::kLocal:
      return "L";
    case html::LinkType::kGlobal:
      return "G";
    case html::LinkType::kNull:
      return "N";
  }
  return "?";
}

// Bits of NodeRelations::filled_.
constexpr uint8_t kDocumentFilled = 1;
constexpr uint8_t kAnchorFilled = 2;
constexpr uint8_t kRelInfonFilled = 4;

}  // namespace

relational::Database BuildNodeDatabase(const html::ParsedDocument& doc) {
  const std::string url_key = doc.url.ResourceKey();
  Table document(relational::DocumentSchema());
  MustInsert(&document, Row(Value(url_key), Value(doc.title), Value(doc.text),
                            Value(static_cast<int64_t>(doc.length))));
  Table anchor(relational::AnchorSchema());
  anchor.Reserve(doc.anchors.size());
  for (const html::ParsedAnchor& a : doc.anchors) {
    MustInsert(&anchor, Row(Value(a.label), Value(url_key),
                            Value(a.resolved.ResourceKey()),
                            Value(std::string(LinkTypeCell(a.ltype)))));
  }
  Table relinfon(relational::RelInfonSchema());
  relinfon.Reserve(doc.rel_infons.size());
  for (const html::ParsedRelInfon& r : doc.rel_infons) {
    MustInsert(&relinfon,
               Row(Value(r.delimiter), Value(url_key), Value(r.text),
                   Value(static_cast<int64_t>(r.text.size()))));
  }
  relational::Database db;
  db.Put(std::string(relational::kDocumentRelation), std::move(document));
  db.Put(std::string(relational::kAnchorRelation), std::move(anchor));
  db.Put(std::string(relational::kRelInfonRelation), std::move(relinfon));
  return db;
}

NodeRelations::NodeRelations()
    : document_(db_.Put(std::string(relational::kDocumentRelation),
                        Table(relational::DocumentSchema()))),
      anchor_(db_.Put(std::string(relational::kAnchorRelation),
                      Table(relational::AnchorSchema()))),
      relinfon_(db_.Put(std::string(relational::kRelInfonRelation),
                        Table(relational::RelInfonSchema()))) {}

void NodeRelations::Visit(const html::ParsedDocument& doc) {
  doc_ = &doc;
  url_key_ = doc.url.ResourceKey();
  filled_ = 0;
}

const relational::Database& NodeRelations::Fill(
    const std::vector<relational::TableRef>& from) {
  WEBDIS_CHECK(doc_ != nullptr) << "NodeRelations::Fill outside a visit";
  for (const relational::TableRef& ref : from) {
    if (ref.relation == relational::kDocumentRelation) {
      if (!(filled_ & kDocumentFilled)) FillDocument();
    } else if (ref.relation == relational::kAnchorRelation) {
      if (!(filled_ & kAnchorFilled)) FillAnchors();
    } else if (ref.relation == relational::kRelInfonRelation) {
      if (!(filled_ & kRelInfonFilled)) FillRelInfons();
    }
  }
  return db_;
}

void NodeRelations::FillDocument() {
  Tuple& row = document_->ResizeRows(1)[0];
  row[0] = Value::Borrow(url_key_);
  row[1] = Value::Borrow(doc_->title);
  row[2] = Value::Borrow(doc_->text);
  row[3] = Value(static_cast<int64_t>(doc_->length));
  filled_ |= kDocumentFilled;
}

void NodeRelations::FillAnchors() {
  const std::span<Tuple> rows = anchor_->ResizeRows(doc_->anchors.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const html::ParsedAnchor& a = doc_->anchors[i];
    Tuple& row = rows[i];
    row[0] = Value::Borrow(a.label);
    row[1] = Value::Borrow(url_key_);
    row[2] = Value(a.resolved.ResourceKey());  // computed, so owned
    row[3] = Value::Borrow(LinkTypeCell(a.ltype));
  }
  filled_ |= kAnchorFilled;
}

void NodeRelations::FillRelInfons() {
  const std::span<Tuple> rows = relinfon_->ResizeRows(doc_->rel_infons.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const html::ParsedRelInfon& r = doc_->rel_infons[i];
    Tuple& row = rows[i];
    row[0] = Value::Borrow(r.delimiter);
    row[1] = Value::Borrow(url_key_);
    row[2] = Value::Borrow(r.text);
    row[3] = Value(static_cast<int64_t>(r.text.size()));
  }
  filled_ |= kRelInfonFilled;
}

}  // namespace webdis::server
