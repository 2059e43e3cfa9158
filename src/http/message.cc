#include "http/message.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>

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
  // Messages carry a handful of headers: one allocation instead of the
  // 1-2-4 doubling chain.
  if (entries_.capacity() == 0) entries_.reserve(kTypicalCount);
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

/// One message's wire form: the start line "a b c", the header lines, a
/// Content-Length line when `length` is set, the blank line and the body.
struct Wire {
  std::string_view a, b, c;
  const Headers& headers;
  std::optional<std::size_t> length;
  const std::string& body;

  /// Exact byte count, so either output is built in one allocation.
  std::size_t size(char (&digits)[24], std::size_t& ndigits) const {
    std::size_t n = a.size() + b.size() + c.size() + 4 + 2 + body.size();
    for (const auto& [name, value] : headers.entries()) {
      n += name.size() + value.size() + 4;
    }
    ndigits = 0;
    if (length) {
      ndigits = static_cast<std::size_t>(
          std::to_chars(digits, digits + sizeof digits, *length).ptr - digits);
      n += 16 + ndigits + 2;  // "Content-Length: " digits CRLF
    }
    return n;
  }

  /// Emit every piece, in order, through `put(std::string_view)`.
  template <typename Put>
  void write(Put&& put, std::string_view digits) const {
    put(a);
    put(" ");
    put(b);
    put(" ");
    put(c);
    put("\r\n");
    for (const auto& [name, value] : headers.entries()) {
      put(name);
      put(": ");
      put(value);
      put("\r\n");
    }
    if (length) {
      put("Content-Length: ");
      put(digits);
      put("\r\n");
    }
    put("\r\n");
    put(body);
  }

  std::string to_string() const {
    char digits[24];
    std::size_t ndigits = 0;
    std::string out;
    out.reserve(size(digits, ndigits));
    write([&](std::string_view s) { out += s; }, {digits, ndigits});
    return out;
  }

  net::Payload to_payload() const {
    char digits[24];
    std::size_t ndigits = 0;
    std::uint8_t* out = nullptr;
    net::Payload p = net::Payload::uninitialized(size(digits, ndigits), out);
    write(
        [&](std::string_view s) {
          std::memcpy(out, s.data(), s.size());
          out += s.size();
        },
        {digits, ndigits});
    return p;
  }
};

Wire request_wire(const HttpRequest& r) {
  const bool add_length = !has_framing(r.headers) && !r.body.empty();
  return Wire{r.method, r.target, r.version, r.headers,
              add_length ? std::optional{r.body.size()} : std::nullopt,
              r.body};
}

/// `status` must outlive the Wire (it holds the digits of the status code).
Wire response_wire(const HttpResponse& r, char (&status)[16]) {
  const char* end = std::to_chars(status, status + sizeof status, r.status).ptr;
  // Responses always carry explicit framing so keep-alive works, even for
  // empty bodies.
  return Wire{r.version, std::string_view(status, end - status), r.reason,
              r.headers,
              has_framing(r.headers) ? std::nullopt
                                     : std::optional{r.body.size()},
              r.body};
}
}  // namespace

std::string HttpRequest::serialize() const {
  return request_wire(*this).to_string();
}

net::Payload HttpRequest::to_payload() const {
  return request_wire(*this).to_payload();
}

bool HttpRequest::wants_keep_alive() const {
  return keep_alive_from(headers, version);
}

std::string HttpResponse::serialize() const {
  char status[16];
  return response_wire(*this, status).to_string();
}

net::Payload HttpResponse::to_payload() const {
  char status[16];
  return response_wire(*this, status).to_payload();
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
