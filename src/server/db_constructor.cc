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

/// Builds the virtual relation `name` of `doc`, whose url key (carried by
/// every row) is `url_key`. False for a name that is none of the three.
bool BuildRelation(const html::ParsedDocument& doc, std::string_view name,
                   const std::string& url_key, Table* out) {
  if (name == relational::kDocumentRelation) {
    *out = Table(relational::DocumentSchema());
    MustInsert(out, Row(Value(url_key), Value(doc.title), Value(doc.text),
                        Value(static_cast<int64_t>(doc.length))));
    return true;
  }
  if (name == relational::kAnchorRelation) {
    *out = Table(relational::AnchorSchema());
    out->Reserve(doc.anchors.size());
    for (const html::ParsedAnchor& a : doc.anchors) {
      const char ltype = html::LinkTypeSymbol(a.ltype);
      MustInsert(out, Row(Value(a.label), Value(url_key),
                          Value(a.resolved.ResourceKey()),
                          Value(std::string(1, ltype))));
    }
    return true;
  }
  if (name == relational::kRelInfonRelation) {
    *out = Table(relational::RelInfonSchema());
    out->Reserve(doc.rel_infons.size());
    for (const html::ParsedRelInfon& r : doc.rel_infons) {
      MustInsert(out, Row(Value(r.delimiter), Value(url_key), Value(r.text),
                          Value(static_cast<int64_t>(r.text.size()))));
    }
    return true;
  }
  return false;
}

}  // namespace

relational::Database BuildNodeDatabase(const html::ParsedDocument& doc) {
  relational::Database db;
  const std::string url_key = doc.url.ResourceKey();
  for (const std::string_view name :
       {relational::kDocumentRelation, relational::kAnchorRelation,
        relational::kRelInfonRelation}) {
    Table table;
    BuildRelation(doc, name, url_key, &table);
    db.Put(std::string(name), std::move(table));
  }
  return db;
}

size_t AddNodeRelations(const html::ParsedDocument& doc,
                        const std::vector<relational::TableRef>& from,
                        relational::Database* db) {
  std::string url_key;  // computed for the first relation built
  size_t added = 0;
  for (const relational::TableRef& ref : from) {
    if (db->Find(ref.relation) != nullptr) continue;
    if (url_key.empty()) url_key = doc.url.ResourceKey();
    Table table;
    if (!BuildRelation(doc, ref.relation, url_key, &table)) continue;
    db->Put(ref.relation, std::move(table));
    ++added;
  }
  return added;
}

}  // namespace webdis::server
