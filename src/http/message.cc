#include "http/message.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace bnm::http {

bool Headers::iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool Headers::icontains(std::string_view haystack, std::string_view needle) {
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

void Headers::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void Headers::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

const std::string* Headers::find(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (iequals(n, name)) return &v;
  }
  return nullptr;
}

std::optional<std::string> Headers::get(std::string_view name) const {
  if (const std::string* v = find(name)) return *v;
  return std::nullopt;
}

void Headers::remove(std::string_view name) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const auto& e) {
                                  return iequals(e.first, name);
                                }),
                 entries_.end());
}

namespace {
bool keep_alive_from(const Headers& headers, const std::string& version) {
  if (const std::string* c = headers.find("Connection")) {
    if (Headers::icontains(*c, "close")) return false;
    if (Headers::icontains(*c, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";  // 1.1 defaults to persistent
}

bool has_framing(const Headers& headers) {
  return headers.contains("Content-Length") ||
         headers.contains("Transfer-Encoding");
}

/// The start line "a b c", the header lines, a Content-Length line when
/// `length` is set, the blank line and the body, built in one allocation.
std::string serialize_message(std::string_view a, std::string_view b,
                              std::string_view c, const Headers& headers,
                              std::optional<std::size_t> length,
                              const std::string& body) {
  // 40: "Content-Length: ", 20 digits and two CRLFs.
  std::size_t size = a.size() + b.size() + c.size() + 4 + 40 + body.size();
  for (const auto& [name, value] : headers.entries()) {
    size += name.size() + value.size() + 4;
  }
  std::string out;
  out.reserve(size);
  out += a;
  out += ' ';
  out += b;
  out += ' ';
  out += c;
  out += "\r\n";
  for (const auto& [name, value] : headers.entries()) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (length) {
    char digits[24];
    out += "Content-Length: ";
    out.append(digits, std::to_chars(digits, digits + sizeof digits, *length).ptr);
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}
}  // namespace

std::string HttpRequest::serialize() const {
  const bool add_length = !has_framing(headers) && !body.empty();
  return serialize_message(method, target, version, headers,
                           add_length ? std::optional{body.size()}
                                      : std::nullopt,
                           body);
}

bool HttpRequest::wants_keep_alive() const {
  return keep_alive_from(headers, version);
}

std::string HttpResponse::serialize() const {
  char digits[16];
  const char* end = std::to_chars(digits, digits + sizeof digits, status).ptr;
  // Responses always carry explicit framing so keep-alive works, even for
  // empty bodies.
  return serialize_message(version, std::string_view(digits, end - digits),
                           reason, headers,
                           has_framing(headers) ? std::nullopt
                                                : std::optional{body.size()},
                           body);
}

bool HttpResponse::wants_keep_alive() const {
  return keep_alive_from(headers, version);
}

HttpResponse HttpResponse::make(int status, std::string body,
                                std::string content_type) {
  HttpResponse r;
  r.status = status;
  r.reason = reason_phrase(status);
  r.headers.set("Content-Type", std::move(content_type));
  r.body = std::move(body);
  return r;
}

std::string reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 101: return "Switching Protocols";
    case 204: return "No Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    default: return "Unknown";
  }
}

std::string chunked_encode(const std::string& body, std::size_t chunk_size) {
  std::string out;
  std::size_t pos = 0;
  char size_line[32];
  while (pos < body.size()) {
    const std::size_t n = std::min(chunk_size, body.size() - pos);
    std::snprintf(size_line, sizeof size_line, "%zx\r\n", n);
    out += size_line;
    out.append(body, pos, n);
    out += "\r\n";
    pos += n;
  }
  out += "0\r\n\r\n";
  return out;
}

}  // namespace bnm::http
