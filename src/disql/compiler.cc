#include "disql/compiler.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "relational/table.h"

namespace webdis::disql {

namespace {

using relational::Expr;
using relational::ExprPtr;
using relational::Schema;

/// Schema for a relation name, or nullptr.
const Schema* SchemaFor(std::string_view relation) {
  if (relation == relational::kDocumentRelation) {
    return &relational::DocumentSchema();
  }
  if (relation == relational::kAnchorRelation) {
    return &relational::AnchorSchema();
  }
  if (relation == relational::kRelInfonRelation) {
    return &relational::RelInfonSchema();
  }
  return nullptr;
}

/// Validates that every alias.column in `expr` resolves against the step's
/// alias->relation map and the relation schemas.
Status CheckExprColumns(const Expr* expr,
                        const std::map<std::string, std::string>& aliases) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind() == relational::ExprKind::kColumnRef) {
    auto it = aliases.find(expr->alias());
    if (it == aliases.end()) {
      return Status::InvalidArgument(StringPrintf(
          "predicate references alias '%s' that is not declared in the same "
          "step (node-queries must be locally evaluable)",
          expr->alias().c_str()));
    }
    const Schema* schema = SchemaFor(it->second);
    if (schema == nullptr || schema->IndexOf(expr->column()) < 0) {
      return Status::InvalidArgument(StringPrintf(
          "relation '%s' (alias '%s') has no column '%s'",
          it->second.c_str(), expr->alias().c_str(), expr->column().c_str()));
    }
    return Status::OK();
  }
  if (expr->left() != nullptr) {
    WEBDIS_RETURN_IF_ERROR(CheckExprColumns(expr->left(), aliases));
  }
  if (expr->right() != nullptr) {
    WEBDIS_RETURN_IF_ERROR(CheckExprColumns(expr->right(), aliases));
  }
  return Status::OK();
}

/// Appends the conjuncts of `expr`'s AND-tree to *out, in source order.
void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == relational::ExprKind::kAnd) {
    CollectConjuncts(expr->left(), out);
    CollectConjuncts(expr->right(), out);
    return;
  }
  out->push_back(expr);
}

/// Whether `expr` scans a string for a substring (`contains`) anywhere.
bool ScansText(const Expr* expr) {
  if (expr == nullptr) return false;
  if (expr->kind() == relational::ExprKind::kContains) return true;
  return ScansText(expr->left()) || ScansText(expr->right());
}

}  // namespace

std::string CompiledQuery::ToString() const {
  std::string out = "Q = {";
  for (size_t i = 0; i < start_urls.size(); ++i) {
    if (i > 0) out += ", ";
    out += start_urls[i];
  }
  out += "}";
  const query::WebQuery& wq = web_query;
  for (size_t k = 0; k < wq.remaining_queries.size(); ++k) {
    const pre::Pre& p = (k == 0) ? wq.rem_pre : wq.future_pres[k - 1];
    out += "  " + p.ToString();
    out += "  [" + wq.remaining_queries[k].ToString() + "]";
  }
  return out;
}

Result<CompiledQuery> Compile(const ParsedQuery& parsed) {
  if (parsed.steps.empty()) {
    return Status::InvalidArgument("query has no steps");
  }
  // -- Step-chain validation ----------------------------------------------
  if (parsed.steps[0].start_urls.empty()) {
    return Status::InvalidArgument(
        "first step must start from StartNode URL(s)");
  }
  for (size_t k = 1; k < parsed.steps.size(); ++k) {
    const Step& step = parsed.steps[k];
    if (!step.start_urls.empty()) {
      return Status::InvalidArgument(
          "only the first step may specify StartNode URLs");
    }
    if (step.source_alias != parsed.steps[k - 1].doc_alias) {
      return Status::InvalidArgument(StringPrintf(
          "step %zu starts from '%s' but the previous document alias is "
          "'%s' (steps must chain)",
          k + 1, step.source_alias.c_str(),
          parsed.steps[k - 1].doc_alias.c_str()));
    }
  }
  // -- Alias table ---------------------------------------------------------
  // alias -> (step index, relation name)
  std::map<std::string, std::pair<size_t, std::string>> alias_table;
  for (size_t k = 0; k < parsed.steps.size(); ++k) {
    const Step& step = parsed.steps[k];
    if (!alias_table
             .emplace(step.doc_alias,
                      std::make_pair(k, std::string(
                                            relational::kDocumentRelation)))
             .second) {
      return Status::InvalidArgument(StringPrintf(
          "duplicate alias '%s'", step.doc_alias.c_str()));
    }
    for (const AuxDecl& aux : step.aux) {
      if (SchemaFor(aux.relation) == nullptr) {
        return Status::InvalidArgument(StringPrintf(
            "unknown relation '%s'", aux.relation.c_str()));
      }
      if (!alias_table.emplace(aux.alias, std::make_pair(k, aux.relation))
               .second) {
        return Status::InvalidArgument(
            StringPrintf("duplicate alias '%s'", aux.alias.c_str()));
      }
    }
  }
  // -- Per-step node-query construction -------------------------------------
  CompiledQuery compiled;
  compiled.start_urls = parsed.steps[0].start_urls;
  for (const relational::OutputColumn& col : parsed.select) {
    compiled.select_labels.push_back(col.Label());
  }

  query::WebQuery& wq = compiled.web_query;
  for (size_t k = 0; k < parsed.steps.size(); ++k) {
    const Step& step = parsed.steps[k];
    // Local alias -> relation map for predicate checking.
    std::map<std::string, std::string> local_aliases;
    local_aliases[step.doc_alias] = std::string(relational::kDocumentRelation);
    for (const AuxDecl& aux : step.aux) {
      local_aliases[aux.alias] = aux.relation;
    }

    query::NodeQuery nq;
    nq.doc_alias = step.doc_alias;
    nq.select.from.push_back(
        {std::string(relational::kDocumentRelation), step.doc_alias});
    // The step's where clause and its aux such-that conditions form one
    // conjunction, cheap conjuncts first: the evaluator tests a row's
    // conjuncts in order and stops at the first false one, so a substring
    // scan runs only on rows the comparisons keep. Source order holds
    // otherwise. Every column is checked below, so no conjunct can fail to
    // evaluate and the order moves no error.
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(step.where.get(), &conjuncts);
    for (const AuxDecl& aux : step.aux) {
      nq.select.from.push_back({aux.relation, aux.alias});
      CollectConjuncts(aux.such_that.get(), &conjuncts);
    }
    std::stable_partition(conjuncts.begin(), conjuncts.end(),
                          [](const Expr* e) { return !ScansText(e); });
    ExprPtr where;
    for (const Expr* conjunct : conjuncts) {
      where = where == nullptr
                  ? conjunct->Clone()
                  : Expr::And(std::move(where), conjunct->Clone());
    }
    WEBDIS_RETURN_IF_ERROR(CheckExprColumns(where.get(), local_aliases));
    nq.select.where = std::move(where);

    // Split of the user-level select list (Section 2.3): the node-query
    // projects exactly the user columns whose alias is declared in this
    // step. A step with no projected columns still produces its document
    // URL so the user can see the traversal succeed (and so the
    // empty-vs-nonempty "answer found" test is meaningful).
    for (const relational::OutputColumn& col : parsed.select) {
      auto it = alias_table.find(col.alias);
      if (it == alias_table.end()) {
        return Status::InvalidArgument(StringPrintf(
            "select references undeclared alias '%s'", col.alias.c_str()));
      }
      if (it->second.first != k) continue;
      const Schema* schema = SchemaFor(it->second.second);
      if (schema->IndexOf(col.column) < 0) {
        return Status::InvalidArgument(StringPrintf(
            "relation '%s' (alias '%s') has no column '%s'",
            it->second.second.c_str(), col.alias.c_str(),
            col.column.c_str()));
      }
      nq.select.select.push_back(col);
    }
    if (nq.select.select.empty()) {
      nq.select.select.push_back({step.doc_alias, "url"});
    }
    nq.select.distinct = true;

    wq.remaining_queries.push_back(std::move(nq));
    if (k == 0) {
      wq.rem_pre = step.pre;
    } else {
      wq.future_pres.push_back(step.pre);
    }
  }
  return compiled;
}

Result<CompiledQuery> CompileDisql(std::string_view disql_text) {
  ParsedQuery parsed;
  WEBDIS_ASSIGN_OR_RETURN(parsed, ParseDisql(disql_text));
  return Compile(parsed);
}

std::string ExplainQuery(const CompiledQuery& compiled) {
  const query::WebQuery& wq = compiled.web_query;
  std::string out = "web-query plan\n";
  out += StringPrintf("  StartNodes (%zu):\n", compiled.start_urls.size());
  for (const std::string& url : compiled.start_urls) {
    out += "    " + url + "\n";
  }
  for (size_t k = 0; k < wq.remaining_queries.size(); ++k) {
    const pre::Pre& p = (k == 0) ? wq.rem_pre : wq.future_pres[k - 1];
    out += StringPrintf("  stage %zu:\n", k + 1);
    out += "    PRE: " + p.ToString() + "\n";
    out += std::string("    evaluated at traversal distance zero: ") +
           (p.ContainsNull() ? "yes" : "no") + "\n";
    std::string links;
    for (const html::LinkType t : p.FirstLinks()) {
      if (!links.empty()) links += ", ";
      links.push_back(html::LinkTypeSymbol(t));
    }
    out += "    fans out on link types: {" + links + "}\n";
    out += "    node-query: " + wq.remaining_queries[k].ToString() + "\n";
  }
  out += StringPrintf("  clone wire size: %zu bytes\n", [&wq] {
           query::WebQuery sized = wq.Clone();
           sized.dest_urls = {"http://placeholder/"};
           return sized.WireSize();
         }());
  return out;
}

}  // namespace webdis::disql
