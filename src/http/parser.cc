#include "http/parser.h"

#include <cctype>
#include <cstdlib>

namespace bnm::http {

namespace {
// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

void MessageParser::feed(std::string_view bytes) {
  if (failed()) return;
  buffer_.erase(0, pos_);
  pos_ = 0;
  buffer_ += bytes;
  advance();
}

void MessageParser::feed(const net::Payload& bytes) {
  feed(std::string_view{reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()});
}

bool MessageParser::take_line(std::string_view& line) {
  const auto pos = buffer_.find("\r\n", pos_);
  if (pos == std::string::npos) return false;
  line = std::string_view{buffer_}.substr(pos_, pos - pos_);
  pos_ = pos + 2;
  return true;
}

void MessageParser::finish_headers() {
  has_content_length_ = false;
  chunked_ = false;
  content_length_ = 0;

  const Headers& h = headers_ref();
  if (const std::string* te = h.find("Transfer-Encoding")) {
    if (Headers::icontains(*te, "chunked")) chunked_ = true;
  }
  if (!chunked_) {
    if (const std::string* cl = h.find("Content-Length")) {
      has_content_length_ = true;
      content_length_ = static_cast<std::size_t>(std::strtoull(cl->c_str(), nullptr, 10));
      if (content_length_ > body_limit_) {
        fail(ParseError::kBodyTooLarge);
        return;
      }
    }
  }

  if (chunked_) {
    phase_ = Phase::kChunkSize;
  } else if (has_content_length_) {
    phase_ = content_length_ == 0 ? Phase::kComplete : Phase::kBody;
  } else if (length_required()) {
    // Requests without framing have no body (GET and friends).
    phase_ = Phase::kComplete;
  } else {
    // Close-delimited response body.
    phase_ = Phase::kBody;
  }
}

void MessageParser::advance() {
  std::string_view line;
  for (;;) {
    switch (phase_) {
      case Phase::kStartLine: {
        if (!take_line(line)) return;
        if (line.empty()) continue;  // tolerate leading blank lines
        if (!parse_start_line(line)) {
          fail(ParseError::kBadStartLine);
          return;
        }
        phase_ = Phase::kHeaders;
        continue;
      }
      case Phase::kHeaders: {
        if (!take_line(line)) return;
        if (line.empty()) {
          finish_headers();
          if (failed()) return;
          continue;
        }
        const auto colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
          fail(ParseError::kBadHeader);
          return;
        }
        headers_ref().add(std::string{trim(line.substr(0, colon))},
                          std::string{trim(line.substr(colon + 1))});
        continue;
      }
      case Phase::kBody: {
        const std::string_view avail = pending();
        if (has_content_length_) {
          const std::size_t need = content_length_ - body_ref().size();
          const std::size_t take = std::min(need, avail.size());
          body_ref().append(avail.data(), take);
          pos_ += take;
          if (body_ref().size() == content_length_) {
            phase_ = Phase::kComplete;
            continue;
          }
          return;  // need more bytes
        }
        // Close-delimited: absorb everything until on_connection_closed().
        body_ref() += avail;
        pos_ = buffer_.size();
        if (body_ref().size() > body_limit_) fail(ParseError::kBodyTooLarge);
        return;
      }
      case Phase::kChunkSize: {
        if (!take_line(line)) return;
        // strtoull needs a terminated string: the byte after the view is the
        // CR, which strtoull would skip as leading space on an empty line.
        const std::string size_field{line};
        char* end = nullptr;
        const unsigned long long n = std::strtoull(size_field.c_str(), &end, 16);
        if (end == size_field.c_str()) {
          fail(ParseError::kBadChunk);
          return;
        }
        chunk_remaining_ = static_cast<std::size_t>(n);
        if (body_ref().size() + chunk_remaining_ > body_limit_) {
          fail(ParseError::kBodyTooLarge);
          return;
        }
        phase_ = chunk_remaining_ == 0 ? Phase::kChunkTrailer : Phase::kChunkData;
        continue;
      }
      case Phase::kChunkData: {
        const std::string_view avail = pending();
        const std::size_t take = std::min(chunk_remaining_, avail.size());
        body_ref().append(avail.data(), take);
        pos_ += take;
        chunk_remaining_ -= take;
        if (chunk_remaining_ > 0) return;
        // Consume the CRLF after the chunk.
        if (buffer_.size() - pos_ < 2) return;
        if (buffer_[pos_] != '\r' || buffer_[pos_ + 1] != '\n') {
          fail(ParseError::kBadChunk);
          return;
        }
        pos_ += 2;
        phase_ = Phase::kChunkSize;
        continue;
      }
      case Phase::kChunkTrailer: {
        if (!take_line(line)) return;
        if (line.empty()) {
          phase_ = Phase::kComplete;
          continue;
        }
        continue;  // trailer headers ignored
      }
      case Phase::kComplete:
        return;
    }
  }
}

std::optional<HttpRequest> RequestParser::take() {
  if (failed() || phase_ != Phase::kComplete) return std::nullopt;
  HttpRequest out = std::move(current_);
  reset_message();
  phase_ = Phase::kStartLine;
  advance();  // a pipelined next message may already be buffered
  return out;
}

bool RequestParser::parse_start_line(std::string_view line) {
  const auto sp1 = line.find(' ');
  const auto sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  current_.method.assign(line.substr(0, sp1));
  current_.target.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
  current_.version.assign(line.substr(sp2 + 1));
  return !current_.method.empty() && !current_.target.empty() &&
         current_.version.starts_with("HTTP/");
}

std::optional<HttpResponse> ResponseParser::take() {
  if (failed()) return std::nullopt;
  if (phase_ != Phase::kComplete) {
    if (!(close_delimited_ && phase_ == Phase::kBody)) return std::nullopt;
  }
  HttpResponse out = std::move(current_);
  reset_message();
  close_delimited_ = false;
  phase_ = Phase::kStartLine;
  advance();
  return out;
}

void ResponseParser::on_connection_closed() {
  // Only a close-delimited body (no framing headers) completes on FIN.
  if (phase_ == Phase::kBody && !has_content_length_ && !chunked_) {
    close_delimited_ = true;
  }
}

bool ResponseParser::parse_start_line(std::string_view line) {
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  current_.version.assign(line.substr(0, sp1));
  if (!current_.version.starts_with("HTTP/")) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  // atoi needs a terminated string (see the chunk-size note above).
  const std::string code{sp2 == std::string_view::npos
                             ? line.substr(sp1 + 1)
                             : line.substr(sp1 + 1, sp2 - sp1 - 1)};
  current_.status = std::atoi(code.c_str());
  current_.reason.assign(sp2 == std::string_view::npos ? std::string_view{}
                                                       : line.substr(sp2 + 1));
  return current_.status >= 100 && current_.status <= 599;
}

}  // namespace bnm::http
