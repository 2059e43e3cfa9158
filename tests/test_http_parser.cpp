#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "http/parser.h"
#include "sim/random.h"

namespace bnm::http {
namespace {

TEST(RequestParser, SimpleGet) {
  RequestParser p;
  p.feed("GET /echo?x=1 HTTP/1.1\r\nHost: h\r\n\r\n");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/echo?x=1");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->headers.get("host"), "h");
  EXPECT_TRUE(req->body.empty());
}

TEST(RequestParser, PostWithContentLength) {
  RequestParser p;
  p.feed("POST /sink HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "hello");
}

TEST(RequestParser, IncompleteBodyWaits) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
  EXPECT_FALSE(p.take().has_value());
  p.feed("lo");
  EXPECT_TRUE(p.take().has_value());
}

TEST(RequestParser, ByteAtATime) {
  const std::string wire =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\nX-Y: z\r\n\r\nabc";
  RequestParser p;
  for (char c : wire) {
    EXPECT_FALSE(p.failed());
    p.feed(std::string(1, c));
  }
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "abc");
  EXPECT_EQ(req->headers.get("x-y"), "z");
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser p;
  p.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  const auto r1 = p.take();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->target, "/a");
  const auto r2 = p.take();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->target, "/b");
  EXPECT_FALSE(p.take().has_value());
}

TEST(RequestParser, ToleratesLeadingBlankLines) {
  RequestParser p;
  p.feed("\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(p.take().has_value());
}

TEST(RequestParser, HeaderWhitespaceTrimmed) {
  RequestParser p;
  p.feed("GET / HTTP/1.1\r\nName:   padded value  \r\n\r\n");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->headers.get("name"), "padded value");
}

TEST(RequestParser, BadStartLineFails) {
  RequestParser p;
  p.feed("NONSENSE\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadStartLine);
  EXPECT_FALSE(p.take().has_value());
}

TEST(RequestParser, NonHttpVersionFails) {
  RequestParser p;
  p.feed("GET / SPDY/3\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, BadHeaderFails) {
  RequestParser p;
  p.feed("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadHeader);
}

TEST(RequestParser, BodyLimitEnforced) {
  RequestParser p;
  p.set_body_limit(10);
  p.feed("POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBodyTooLarge);
}

TEST(RequestParser, ChunkedBody) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "abcdefg");
}

TEST(RequestParser, ChunkedByteAtATime) {
  const std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n";
  RequestParser p;
  for (char c : wire) p.feed(std::string(1, c));
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "hello");
}

TEST(RequestParser, BadChunkSizeFails) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadChunk);
}

TEST(RequestParser, ChunkMissingCrlfFails) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "3\r\nabcXX");
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, SimpleResponse) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npong");
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->reason, "OK");
  EXPECT_EQ(resp->body, "pong");
}

TEST(ResponseParser, MultiWordReason) {
  ResponseParser p;
  p.feed("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->reason, "Not Found");
}

TEST(ResponseParser, CloseDelimitedBody) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\n\r\npartial body");
  EXPECT_FALSE(p.take().has_value());  // no framing: wait for FIN
  p.feed(" more");
  p.on_connection_closed();
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "partial body more");
}

TEST(ResponseParser, ZeroLengthBodyCompletesImmediately) {
  ResponseParser p;
  p.feed("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n");
  EXPECT_TRUE(p.take().has_value());
}

TEST(ResponseParser, KeepAliveSequenceOnOneConnection) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nA"
         "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nB");
  const auto r1 = p.take();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->body, "A");
  const auto r2 = p.take();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->body, "B");
}

TEST(ResponseParser, BadStatusFails) {
  ResponseParser p;
  p.feed("HTTP/1.1 9999 Weird\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, ChunkedResponse) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         "6\r\nchunky\r\n0\r\n\r\n");
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "chunky");
}

// Property: any (method, target, body) round-trips through serialize+parse,
// fed in every possible two-way split.
class RoundTripSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTripSplit, SerializeParseAnySplit) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/path/to/resource?k=v";
  req.headers.set("Host", "10.0.0.2:80");
  req.headers.set("X-Probe", "rtt");
  req.body = "0123456789";
  const std::string wire = req.serialize();
  const std::size_t split = GetParam() % wire.size();

  RequestParser p;
  p.feed(wire.substr(0, split));
  p.feed(wire.substr(split));
  const auto out = p.take();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->method, req.method);
  EXPECT_EQ(out->target, req.target);
  EXPECT_EQ(out->body, req.body);
  EXPECT_EQ(out->headers.get("x-probe"), "rtt");
}

INSTANTIATE_TEST_SUITE_P(Splits, RoundTripSplit,
                         ::testing::Values(0, 1, 5, 17, 30, 42, 55, 70, 88));

// --- Random slicing: any way TCP cuts a pipelined stream, the parser must
// --- emit exactly the messages of a whole-buffer feed.

std::string describe(const HttpRequest& r) {
  std::string out = r.method + "|" + r.target + "|" + r.version + "|";
  for (const auto& [n, v] : r.headers.entries()) out += n + "=" + v + ";";
  return out + "|" + r.body;
}

std::string describe(const HttpResponse& r) {
  std::string out = r.version + "|" + std::to_string(r.status) + "|" +
                    r.reason + "|";
  for (const auto& [n, v] : r.headers.entries()) out += n + "=" + v + ";";
  return out + "|" + r.body;
}

/// Feed `wire` cut at `cuts` (ascending offsets), draining complete messages
/// after every slice; a response stream ends with the connection closing.
template <typename Parser>
std::vector<std::string> parse_sliced(const std::string& wire,
                                      const std::vector<std::size_t>& cuts,
                                      bool closes) {
  Parser p;
  std::vector<std::string> out;
  std::size_t at = 0;
  const auto drain = [&] {
    while (auto m = p.take()) out.push_back(describe(*m));
  };
  for (std::size_t cut : cuts) {
    p.feed(wire.substr(at, cut - at));
    drain();
    at = cut;
  }
  p.feed(wire.substr(at));
  drain();
  if constexpr (std::is_same_v<Parser, ResponseParser>) {
    if (closes) p.on_connection_closed();
    drain();
  }
  EXPECT_FALSE(p.failed());
  return out;
}

template <typename Parser>
void expect_slicing_invariant(const std::string& wire, std::size_t messages,
                              bool closes) {
  const std::vector<std::string> whole = parse_sliced<Parser>(wire, {}, closes);
  ASSERT_EQ(whole.size(), messages);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    ASSERT_EQ(parse_sliced<Parser>(wire, {split}, closes), whole)
        << "split at " << split;
  }
  sim::Rng rng{20131023};
  for (int trial = 0; trial < 200; ++trial) {
    const auto n_cuts = rng.uniform_int(1, 24);
    std::vector<std::size_t> cuts;
    for (std::int64_t i = 0; i < n_cuts; ++i) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
    }
    std::sort(cuts.begin(), cuts.end());
    ASSERT_EQ(parse_sliced<Parser>(wire, cuts, closes), whole)
        << "random slicing " << trial;
  }
}

TEST(ParserSlicing, PipelinedRequestsSurviveAnySlicing) {
  const std::string wire =
      "\r\n\r\n"  // leading blank lines
      "POST /sink?a=1 HTTP/1.1\r\nHost: 10.0.0.2\r\n"
      "Content-Length: 11\r\nX-Pad: \t padded value \t\r\n\r\nhello world"
      "PUT /chunked HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n"
      "5\r\nhello\r\n1a;ext=1\r\nabcdefghijklmnopqrstuvwxyz\r\n0\r\n"
      "Trailer-One: x\r\nTrailer-Two: y\r\n\r\n"
      "\r\n"
      "GET /echo HTTP/1.1\r\nConnection:   keep-alive  \r\n\r\n";
  expect_slicing_invariant<RequestParser>(wire, 3, /*closes=*/false);
  const auto msgs = parse_sliced<RequestParser>(wire, {}, false);
  EXPECT_EQ(msgs[0],
            "POST|/sink?a=1|HTTP/1.1|Host=10.0.0.2;Content-Length=11;"
            "X-Pad=padded value;|hello world");
  EXPECT_EQ(msgs[1],
            "PUT|/chunked|HTTP/1.1|Transfer-Encoding=Chunked;|"
            "helloabcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(msgs[2], "GET|/echo|HTTP/1.1|Connection=keep-alive;|");
}

TEST(ParserSlicing, PipelinedResponsesSurviveAnySlicing) {
  const std::string wire =
      "\r\n"
      "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nServer:  Apache  \r\n\r\npong"
      "HTTP/1.1 404 Not Found\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nnot\r\n6\r\n found\r\n0\r\nX-Trailer: t\r\n\r\n"
      "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\n"
      "close-delimited body\r\nwith a CRLF inside";
  expect_slicing_invariant<ResponseParser>(wire, 3, /*closes=*/true);
  const auto msgs = parse_sliced<ResponseParser>(wire, {}, true);
  EXPECT_EQ(msgs[0], "HTTP/1.1|200|OK|Content-Length=4;Server=Apache;|pong");
  EXPECT_EQ(msgs[1],
            "HTTP/1.1|404|Not Found|Transfer-Encoding=chunked;|not found");
  EXPECT_EQ(msgs[2],
            "HTTP/1.0|200|OK|Content-Type=text/plain;|"
            "close-delimited body\r\nwith a CRLF inside");
}

/// Bytes fed, one at a time, when the parser first reports failure (0 when
/// it never fails).
template <typename Parser>
std::size_t failure_offset(const std::string& wire, ParseError* error,
                           std::size_t body_limit = 64 * 1024 * 1024) {
  Parser p;
  p.set_body_limit(body_limit);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    p.feed(wire.substr(i, 1));
    while (p.take()) {
    }
    if (p.failed()) {
      *error = p.error();
      return i + 1;
    }
  }
  return 0;
}

TEST(ParserSlicing, ErrorsFireAtTheSameByteOffsets) {
  const std::string ok_get = "GET /a HTTP/1.1\r\n\r\n";  // 19 bytes
  const std::string chunked_head =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";  // 47 bytes
  ParseError e = ParseError::kNone;

  // Bad chunk size: fails once its line is complete.
  EXPECT_EQ(failure_offset<RequestParser>(ok_get + chunked_head + "zz\r\n9\r\n",
                                          &e),
            70u);
  EXPECT_EQ(e, ParseError::kBadChunk);
  // Empty chunk-size line (strtoull must not read past it into "5").
  EXPECT_EQ(failure_offset<RequestParser>(chunked_head + "\r\n5\r\nhello\r\n",
                                          &e),
            49u);
  EXPECT_EQ(e, ParseError::kBadChunk);
  // Chunk data not followed by CRLF: fails on the second byte after it.
  EXPECT_EQ(failure_offset<RequestParser>(chunked_head + "3\r\nabcXX", &e), 55u);
  EXPECT_EQ(e, ParseError::kBadChunk);

  // Header line without a colon: fails at its CRLF.
  EXPECT_EQ(failure_offset<RequestParser>(
                ok_get + "GET / HTTP/1.1\r\nHost: h\r\nno-colon-here\r\n\r\n",
                &e),
            59u);
  EXPECT_EQ(e, ParseError::kBadHeader);
  EXPECT_EQ(failure_offset<ResponseParser>(
                "HTTP/1.1 200 OK\r\n: empty-name\r\n", &e),
            31u);
  EXPECT_EQ(e, ParseError::kBadHeader);

  // Declared length over the limit: fails at the blank line.
  EXPECT_EQ(failure_offset<RequestParser>(
                "POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n0123456789x",
                &e, 10),
            39u);
  EXPECT_EQ(e, ParseError::kBodyTooLarge);
  // Chunk size over the limit: fails at the chunk-size line's CRLF.
  EXPECT_EQ(failure_offset<RequestParser>(
                chunked_head + "8\r\nabcdefgh\r\n3\r\nijk\r\n0\r\n\r\n", &e, 10),
            63u);
  EXPECT_EQ(e, ParseError::kBodyTooLarge);
  // Close-delimited body: fails on the first byte past the limit.
  EXPECT_EQ(failure_offset<ResponseParser>(
                "HTTP/1.1 200 OK\r\n\r\n0123456789abc", &e, 10),
            30u);
  EXPECT_EQ(e, ParseError::kBodyTooLarge);
}

}  // namespace
}  // namespace bnm::http
