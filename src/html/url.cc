#include "html/url.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"

namespace webdis::html {

char LinkTypeSymbol(LinkType t) {
  switch (t) {
    case LinkType::kInterior:
      return 'I';
    case LinkType::kLocal:
      return 'L';
    case LinkType::kGlobal:
      return 'G';
    case LinkType::kNull:
      return 'N';
  }
  return '?';
}

Result<LinkType> LinkTypeFromSymbol(char c) {
  switch (c) {
    case 'I':
      return LinkType::kInterior;
    case 'L':
      return LinkType::kLocal;
    case 'G':
      return LinkType::kGlobal;
    case 'N':
      return LinkType::kNull;
    default:
      return Status::ParseError(
          StringPrintf("unknown link symbol '%c'", c));
  }
}

std::string Url::ToString() const {
  std::string out = scheme;
  out += "://";
  out += host;
  out += path;
  if (!fragment.empty()) {
    out += "#";
    out += fragment;
  }
  return out;
}

std::string Url::ResourceKey() const {
  std::string out = scheme;
  out += "://";
  out += host;
  out += path;
  return out;
}

namespace {

/// True if `path` is already normal: absolute, with no empty, "." or ".."
/// segment (a trailing slash is fine).
bool IsNormalPath(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  size_t start = 1;
  while (start < path.size()) {
    const size_t end = std::min(path.find('/', start), path.size());
    const std::string_view segment = path.substr(start, end - start);
    if (segment.empty() || segment == "." || segment == "..") return false;
    start = end + 1;
  }
  return true;
}

/// Collapses "." and ".." segments; keeps the path absolute.
std::string NormalizePath(std::string_view path) {
  if (IsNormalPath(path)) return std::string(path);
  std::vector<std::string> stack;
  for (const std::string& seg : Split(path, '/')) {
    if (seg.empty() || seg == ".") continue;
    if (seg == "..") {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    stack.push_back(seg);
  }
  std::string out = "/";
  out += Join(stack, "/");
  // Preserve a trailing slash for directory-style paths.
  if (!stack.empty() && EndsWith(path, "/")) out += "/";
  return out;
}

}  // namespace

Result<Url> ParseUrl(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty URL");
  Url url;
  const size_t scheme_pos = s.find("://");
  if (scheme_pos != std::string_view::npos) {
    url.scheme = std::string(s.substr(0, scheme_pos));
    s = s.substr(scheme_pos + 3);
  }
  const size_t frag_pos = s.find('#');
  if (frag_pos != std::string_view::npos) {
    url.fragment = std::string(s.substr(frag_pos + 1));
    s = s.substr(0, frag_pos);
  }
  const size_t path_pos = s.find('/');
  if (path_pos == std::string_view::npos) {
    url.host = std::string(s);
    // Note: assign via a temporary to dodge a GCC 12 -Wrestrict false
    // positive (PR105329) on const char* assignment after the move above.
    url.path = std::string("/");
  } else {
    url.host = std::string(s.substr(0, path_pos));
    url.path = NormalizePath(s.substr(path_pos));
  }
  if (url.host.empty()) {
    return Status::ParseError("URL has empty host");
  }
  return url;
}

Result<Url> ResolveUrl(const Url& base, std::string_view href) {
  href = Trim(href);
  if (href.empty()) {
    return Status::ParseError("empty href");
  }
  // Pure fragment: same resource.
  if (href[0] == '#') {
    Url url = base;
    url.fragment = std::string(href.substr(1));
    return url;
  }
  // Absolute URL.
  if (href.find("://") != std::string_view::npos) {
    return ParseUrl(href);
  }
  Url url;
  url.scheme = base.scheme;
  url.host = base.host;
  std::string_view path_part = href;
  const size_t frag_pos = href.find('#');
  if (frag_pos != std::string_view::npos) {
    url.fragment = std::string(href.substr(frag_pos + 1));
    path_part = href.substr(0, frag_pos);
  }
  if (path_part.empty()) {
    url.path = base.path;
  } else if (path_part[0] == '/') {
    url.path = NormalizePath(path_part);
  } else {
    // Document-relative: resolve against the base directory.
    const size_t last_slash = base.path.rfind('/');
    std::string combined = base.path.substr(0, last_slash + 1);
    combined += std::string(path_part);
    url.path = NormalizePath(combined);
  }
  return url;
}

LinkType ClassifyLink(const Url& base, const Url& dest) {
  if (base.host == dest.host && base.path == dest.path) {
    return LinkType::kInterior;
  }
  if (base.host == dest.host) {
    return LinkType::kLocal;
  }
  return LinkType::kGlobal;
}

}  // namespace webdis::html
