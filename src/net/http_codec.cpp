#include "net/http_codec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/json_util.h"
#include "net/net_util.h"

namespace reptile {

using net_internal::Lowercase;
using net_internal::Trim;

const std::string* HttpRequest::FindHeader(const std::string& lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

HttpResponse HttpFramingError(int status, const std::string& message) {
  return HttpResponse::Json(
      status, "{\"error\":{\"code\":\"" + std::string(HttpReasonPhrase(status)) +
                  "\",\"http\":" + std::to_string(status) +
                  ",\"message\":" + JsonQuote(message) + "}}");
}

namespace {

// Parses the head (request line + headers, `head` ends with CRLFCRLF).
// Strict by design: exactly three request-line tokens, HTTP/1.0|1.1 only,
// obsolete line folding and whitespace-in-field-name rejected (RFC 9112 §5
// — lenient parsing behind a strict proxy is a request-smuggling desync).
// On failure fills `error` with the response to send before closing.
bool ParseHttpRequestHead(const std::string& head, HttpRequest* request,
                          HttpResponse* error) {
  size_t line_end = head.find("\r\n");
  REPTILE_CHECK(line_end != std::string::npos);  // head always ends in CRLFCRLF
  const std::string request_line = head.substr(0, line_end);
  size_t method_end = request_line.find(' ');
  size_t target_end =
      method_end == std::string::npos ? std::string::npos : request_line.find(' ', method_end + 1);
  if (method_end == std::string::npos || target_end == std::string::npos ||
      request_line.find(' ', target_end + 1) != std::string::npos) {
    *error = HttpFramingError(400, "malformed request line");
    return false;
  }
  request->method = request_line.substr(0, method_end);
  request->target = request_line.substr(method_end + 1, target_end - method_end - 1);
  request->http_version = request_line.substr(target_end + 1);
  if (request->method.empty() || request->target.empty() ||
      (request->http_version != "HTTP/1.1" && request->http_version != "HTTP/1.0")) {
    *error = HttpFramingError(400, "malformed request line");
    return false;
  }
  size_t query_pos = request->target.find('?');
  request->path = request->target.substr(0, query_pos);
  request->query =
      query_pos == std::string::npos ? std::string() : request->target.substr(query_pos + 1);

  size_t pos = line_end + 2;
  while (pos + 2 <= head.size()) {
    size_t end = head.find("\r\n", pos);
    REPTILE_CHECK(end != std::string::npos);
    if (end == pos) break;  // blank line: end of headers
    std::string line = head.substr(pos, end - pos);
    // RFC 9112 §5: obsolete line folding (a field line starting with
    // whitespace) and whitespace between the field name and the colon MUST
    // be rejected — a lenient reading here while a front proxy reads
    // strictly is a request-smuggling desync (e.g. "Content-Length : 4").
    if (line[0] == ' ' || line[0] == '\t') {
      *error = HttpFramingError(400, "obsolete header line folding is not supported");
      return false;
    }
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      *error = HttpFramingError(400, "malformed header line");
      return false;
    }
    std::string name = line.substr(0, colon);
    if (name.find_first_of(" \t") != std::string::npos) {
      *error = HttpFramingError(400, "whitespace in a header field name");
      return false;
    }
    request->headers.emplace_back(Lowercase(std::move(name)), Trim(line.substr(colon + 1)));
    pos = end + 2;
  }
  return true;
}

// Framing checks that need the parsed head: Transfer-Encoding on a request
// is refused (501), duplicate Content-Length headers are refused even when
// identical (400, RFC 9112 §6.3), and Content-Length must be digits only —
// strtoull would silently wrap "-1" to a huge unsigned value. Body-size
// caps are NOT applied here; they depend on how the body will be consumed
// (buffered vs streamed into a sink).
bool ValidateRequestFraming(const HttpRequest& request, size_t* content_length,
                            HttpResponse* error) {
  if (request.FindHeader("transfer-encoding") != nullptr) {
    *error = HttpFramingError(501, "transfer-encoding is not supported");
    return false;
  }
  // Exactly one Content-Length may appear: duplicates (even identical ones)
  // are the classic request-smuggling desync vector when a proxy in front
  // picks a different one than we do (RFC 9112 §6.3).
  int content_length_headers = 0;
  for (const auto& [name, value] : request.headers) {
    if (name == "content-length") ++content_length_headers;
  }
  if (content_length_headers > 1) {
    *error = HttpFramingError(400, "multiple Content-Length headers");
    return false;
  }
  *content_length = 0;
  if (const std::string* header = request.FindHeader("content-length")) {
    // Digits only: strtoull would silently wrap "-1" to a huge unsigned
    // value, turning an invalid header into a bogus 413.
    if (header->empty() ||
        header->find_first_not_of("0123456789") != std::string::npos) {
      *error = HttpFramingError(400, "malformed Content-Length");
      return false;
    }
    errno = 0;
    unsigned long long parsed = std::strtoull(header->c_str(), nullptr, 10);
    if (errno != 0) {  // ERANGE: larger than any plausible body
      *error = HttpFramingError(400, "malformed Content-Length");
      return false;
    }
    *content_length = static_cast<size_t>(parsed);
  }
  return true;
}

// The 413 for a declared body over the cap.
HttpResponse BodyTooLargeError(size_t content_length, size_t max_body_bytes) {
  return HttpFramingError(413, "request body of " + std::to_string(content_length) +
                                   " bytes exceeds the " +
                                   std::to_string(max_body_bytes) + "-byte limit");
}

}  // namespace

HttpResponse RateLimitedError(double retry_after_seconds) {
  // Integral ceiling, floored at 1: Retry-After is delta-seconds (RFC 9110
  // §10.2.3) and "0" would invite an immediate retry storm.
  long long retry_after = static_cast<long long>(retry_after_seconds);
  if (static_cast<double>(retry_after) < retry_after_seconds) ++retry_after;
  if (retry_after < 1) retry_after = 1;
  HttpResponse response = HttpResponse::Json(
      429, "{\"error\":{\"code\":\"RATE_LIMITED\",\"http\":429,\"message\":"
           "\"admission rate limit exceeded; retry after " +
               std::to_string(retry_after) + "s\"}}");
  response.extra_headers.emplace_back("Retry-After", std::to_string(retry_after));
  return response;
}

HttpResponse QueueDeadlineError(double waited_ms, int deadline_ms) {
  return HttpResponse::Json(
      503, "{\"error\":{\"code\":\"OVERLOADED\",\"http\":503,\"message\":"
           "\"request shed: queued " +
               std::to_string(static_cast<long long>(waited_ms)) +
               "ms for a compute worker, past the " + std::to_string(deadline_ms) +
               "ms deadline\"}}");
}

std::string SerializeResponseHead(const HttpResponse& response, bool keep_alive,
                                  bool chunked) {
  std::string out;
  out.reserve(256);
  out += "HTTP/1.1 " + std::to_string(response.status) + " " +
         HttpReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  if (chunked) {
    out += "Transfer-Encoding: chunked\r\n";
  } else {
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

void AppendHttpChunk(std::string* out, std::string_view piece) {
  if (piece.empty()) return;  // a zero-length chunk would end the body
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", piece.size());
  *out += size_line;
  out->append(piece.data(), piece.size());
  *out += "\r\n";
}

bool RequestKeepsAlive(const HttpRequest& request) {
  bool keep_alive = request.http_version == "HTTP/1.1";
  if (const std::string* connection = request.FindHeader("connection")) {
    std::string value = Lowercase(*connection);
    if (value == "close") keep_alive = false;
    if (value == "keep-alive") keep_alive = true;
  }
  return keep_alive;
}

HttpRequestParser::HttpRequestParser(size_t max_header_bytes)
    : max_header_bytes_(max_header_bytes) {}

void HttpRequestParser::Feed(std::string_view data) {
  buffer_.append(data.data(), data.size());
}

HttpRequestParser::Phase HttpRequestParser::Step() {
  switch (phase_) {
    case Phase::kHead: {
      // Resume 3 bytes before the new data so a CRLFCRLF split across
      // reads is still found, and apply the header cap both to an oversized
      // terminated head and to an unterminated one that already exceeds it.
      size_t pos = buffer_.find("\r\n\r\n", scanned_ >= 3 ? scanned_ - 3 : 0);
      if (pos == std::string::npos) {
        if (buffer_.size() > max_header_bytes_) {
          error_ = HttpFramingError(
              431, "header section exceeds " + std::to_string(max_header_bytes_) + " bytes");
          phase_ = Phase::kError;
          return phase_;
        }
        scanned_ = buffer_.size();
        return phase_;  // need more bytes
      }
      if (pos + 4 > max_header_bytes_) {
        error_ = HttpFramingError(
            431, "header section exceeds " + std::to_string(max_header_bytes_) + " bytes");
        phase_ = Phase::kError;
        return phase_;
      }
      std::string head = buffer_.substr(0, pos + 4);
      buffer_.erase(0, pos + 4);
      scanned_ = 0;
      if (!ParseHttpRequestHead(head, &request_, &error_)) {
        phase_ = Phase::kError;
        return phase_;
      }
      if (!ValidateRequestFraming(request_, &content_length_, &error_)) {
        phase_ = Phase::kError;
        return phase_;
      }
      phase_ = Phase::kHeadDone;
      return phase_;
    }
    case Phase::kHeadDone:
      REPTILE_CHECK(body_mode_chosen_)
          << "Step() in kHeadDone before BeginBufferedBody/BeginStreamedBody";
      phase_ = Phase::kBody;
      [[fallthrough]];
    case Phase::kBody: {
      size_t remaining = content_length_ - body_consumed_;
      size_t take = buffer_.size() < remaining ? buffer_.size() : remaining;
      if (take > 0) {
        if (sink_ != nullptr) {
          bool accepted = sink_->Append(std::string_view(buffer_.data(), take));
          buffer_.erase(0, take);
          body_consumed_ += take;
          if (!accepted) {
            phase_ = Phase::kSinkAborted;
            return phase_;
          }
        } else {
          request_.body.append(buffer_, 0, take);
          buffer_.erase(0, take);
          body_consumed_ += take;
        }
      }
      if (body_consumed_ == content_length_) phase_ = Phase::kComplete;
      return phase_;
    }
    case Phase::kComplete:
    case Phase::kSinkAborted:
    case Phase::kError:
      return phase_;
  }
  return phase_;
}

void HttpRequestParser::BeginBufferedBody(size_t max_body_bytes) {
  REPTILE_CHECK(phase_ == Phase::kHeadDone);
  REPTILE_CHECK(!body_mode_chosen_);
  body_mode_chosen_ = true;
  body_cap_ = max_body_bytes;
  sink_ = nullptr;
  if (content_length_ > max_body_bytes) {
    error_ = BodyTooLargeError(content_length_, max_body_bytes);
    phase_ = Phase::kError;
    return;
  }
  request_.body.reserve(content_length_);
}

void HttpRequestParser::BeginStreamedBody(HttpBodySink* sink, size_t max_body_bytes) {
  REPTILE_CHECK(phase_ == Phase::kHeadDone);
  REPTILE_CHECK(!body_mode_chosen_);
  REPTILE_CHECK(sink != nullptr);
  body_mode_chosen_ = true;
  body_cap_ = max_body_bytes;
  sink_ = sink;
  if (content_length_ > max_body_bytes) {
    // Reject up front, before a single body byte is read — the point of the
    // streamed path is that an oversized upload never gets buffered.
    error_ = BodyTooLargeError(content_length_, max_body_bytes);
    phase_ = Phase::kError;
  }
}

void HttpRequestParser::ResetForNextRequest() {
  phase_ = Phase::kHead;
  scanned_ = 0;
  request_ = HttpRequest();
  content_length_ = 0;
  body_consumed_ = 0;
  body_cap_ = 0;
  sink_ = nullptr;
  body_mode_chosen_ = false;
  error_ = HttpResponse();
}

}  // namespace reptile
