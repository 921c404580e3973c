#ifndef WEBDIS_HTML_ENTITIES_H_
#define WEBDIS_HTML_ENTITIES_H_

#include <string>
#include <string_view>

namespace webdis::html {

/// Appends `s` to `*out` with the HTML 2.0 character entities that appear in
/// the synthetic web decoded (&amp; &lt; &gt; &quot; &apos; &nbsp; and
/// numeric &#NN;). Unknown entities are passed through verbatim, as browsers
/// of the paper's era did.
void AppendDecoded(std::string_view s, std::string* out);

/// Appends `s` to `*out` with &, <, > and " escaped, for embedding text into
/// generated HTML.
void AppendEscaped(std::string_view s, std::string* out);

}  // namespace webdis::html

#endif  // WEBDIS_HTML_ENTITIES_H_
