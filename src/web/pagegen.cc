#include "web/pagegen.h"

#include <string_view>

#include "html/entities.h"

namespace webdis::web {

namespace {

/// Appends "<tag>escaped text</tag>\n".
void AppendElement(std::string_view tag, std::string_view text,
                   std::string* out) {
  out->push_back('<');
  out->append(tag);
  out->push_back('>');
  html::AppendEscaped(text, out);
  out->append("</");
  out->append(tag);
  out->append(">\n");
}

/// Text bytes plus markup: an upper bound on the rendered size unless the
/// text holds characters that need escaping.
size_t EstimateSize(const PageSpec& spec) {
  constexpr size_t kFixedMarkup = 144;  // doctype, head, body, rule, list
  constexpr size_t kPerElement = 16;    // tags around one text field
  size_t bytes = kFixedMarkup + 2 * spec.title.size();
  for (const std::string& p : spec.paragraphs) bytes += kPerElement + p.size();
  for (const PageSpec::SectionSpec& s : spec.sections) {
    bytes += 2 * kPerElement + s.heading.size() + s.body.size();
  }
  for (const std::string& b : spec.bold_notes) bytes += kPerElement + b.size();
  for (const std::string& h : spec.hr_blocks) bytes += kPerElement + h.size();
  for (const PageSpec::LinkSpec& l : spec.links) {
    bytes += 2 * kPerElement + l.href.size() + l.label.size();
  }
  return bytes;
}

}  // namespace

std::string RenderHtml(const PageSpec& spec) {
  std::string out;
  out.reserve(EstimateSize(spec));
  out += "<!DOCTYPE HTML PUBLIC \"-//IETF//DTD HTML 2.0//EN\">\n";
  out += "<html>\n<head>\n";
  AppendElement("title", spec.title, &out);
  out += "</head>\n<body>\n";
  AppendElement("h1", spec.title, &out);
  for (const std::string& p : spec.paragraphs) AppendElement("p", p, &out);
  for (const PageSpec::SectionSpec& s : spec.sections) {
    AppendElement("h2", s.heading, &out);
    AppendElement("p", s.body, &out);
  }
  for (const std::string& b : spec.bold_notes) AppendElement("b", b, &out);
  if (!spec.hr_blocks.empty()) {
    // A leading rule isolates the first block, so each hr-delimited
    // rel-infon contains exactly its own block text (cf. Figure 8, where the
    // convener rel-infon is just "CONVENER <name>").
    out += "<hr>\n";
    for (const std::string& block : spec.hr_blocks) {
      html::AppendEscaped(block, &out);
      out += "\n<hr>\n";
    }
  }
  if (!spec.links.empty()) {
    out += "<ul>\n";
    for (const PageSpec::LinkSpec& link : spec.links) {
      out += "<li><a href=\"";
      out += link.href;
      out += "\">";
      html::AppendEscaped(link.label, &out);
      out += "</a></li>\n";
    }
    out += "</ul>\n";
  }
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace webdis::web
