#include "server/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "net/net_util.h"

namespace reptile {
namespace {

using net_internal::Lowercase;
using net_internal::Trim;
using net_internal::WriteAll;

// Appends whatever is readable. When SetTimeoutMs armed SO_RCVTIMEO on the
// socket, a stalled peer surfaces as EAGAIN → kTimeout, distinct from the
// peer being gone (kClosed) so callers can map it to kDeadlineExceeded.
enum class FillResult { kData, kClosed, kTimeout };

FillResult Fill(int fd, std::string* buffer) {
  char chunk[16 * 1024];
  ssize_t n;
  do {
    n = ::recv(fd, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return FillResult::kTimeout;
  if (n <= 0) return FillResult::kClosed;
  buffer->append(chunk, static_cast<size_t>(n));
  return FillResult::kData;
}

Status TimeoutStatus(int timeout_ms, const char* what) {
  return Status::DeadlineExceeded("no data for " + std::to_string(timeout_ms) + "ms " +
                                  what);
}

}  // namespace

const std::string* HttpClientResponse::FindHeader(const std::string& lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

HttpClient::HttpClient(std::string host, int port) : host_(std::move(host)), port_(port) {}

HttpClient::~HttpClient() { Disconnect(); }

Status HttpClient::Connect() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::InvalidArgument("bad host address '" + host_ + "'");
  }
  if (timeout_ms_ > 0) {
    // Bounded connect: go non-blocking, poll for writability, then read
    // SO_ERROR for the real outcome before restoring blocking mode.
    int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) {
        Status status = Status::IoError("connect(" + host_ + ":" +
                                        std::to_string(port_) + "): " +
                                        std::strerror(errno));
        Disconnect();
        return status;
      }
      pollfd pfd{fd_, POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, timeout_ms_);
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) {
        Disconnect();
        return Status::DeadlineExceeded("connect(" + host_ + ":" +
                                        std::to_string(port_) + ") still pending after " +
                                        std::to_string(timeout_ms_) + "ms");
      }
      int err = 0;
      socklen_t err_len = sizeof(err);
      if (ready < 0 ||
          ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
        Status status = Status::IoError("connect(" + host_ + ":" +
                                        std::to_string(port_) + "): " +
                                        std::strerror(err != 0 ? err : errno));
        Disconnect();
        return status;
      }
    }
    ::fcntl(fd_, F_SETFL, flags);
    timeval tv{};
    tv.tv_sec = timeout_ms_ / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::IoError("connect(" + host_ + ":" + std::to_string(port_) +
                                   "): " + std::strerror(errno));
    Disconnect();
    return status;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void HttpClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<HttpClientResponse> HttpClient::Get(const std::string& path) {
  return Request("GET", path, std::string(), std::string());
}

Result<HttpClientResponse> HttpClient::Post(const std::string& path, const std::string& body,
                                            const std::string& content_type) {
  return Request("POST", path, body, content_type);
}

Result<HttpClientResponse> HttpClient::Delete(const std::string& path) {
  return Request("DELETE", path, std::string(), std::string());
}

void HttpClient::SetHeader(const std::string& name, const std::string& value) {
  for (auto it = default_headers_.begin(); it != default_headers_.end(); ++it) {
    if (it->first == name) {
      if (value.empty()) {
        default_headers_.erase(it);
      } else {
        it->second = value;
      }
      return;
    }
  }
  if (!value.empty()) default_headers_.emplace_back(name, value);
}

void HttpClient::SetTimeoutMs(int timeout_ms) {
  timeout_ms_ = timeout_ms > 0 ? timeout_ms : 0;
  Disconnect();  // the current socket keeps its old deadline; re-arm fresh
}

Result<HttpClientResponse> HttpClient::Request(const std::string& method,
                                               const std::string& path,
                                               const std::string& body,
                                               const std::string& content_type) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool fresh_connection = fd_ < 0;
    REPTILE_RETURN_IF_ERROR(Connect());

    std::string request = method + " " + path + " HTTP/1.1\r\n";
    request += "Host: " + host_ + ":" + std::to_string(port_) + "\r\n";
    for (const auto& [name, value] : default_headers_) {
      request += name + ": " + value + "\r\n";
    }
    if (!content_type.empty()) request += "Content-Type: " + content_type + "\r\n";
    if (method != "GET" || !body.empty()) {
      request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n";
    request += body;

    // A reused keep-alive connection may have been closed by the server
    // since the last request; retry exactly once on a fresh connection. A
    // send that stalls past SO_SNDTIMEO is a deadline miss, not a stale
    // socket — retrying would double-submit the request.
    if (!WriteAll(fd_, request)) {
      bool send_timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      Disconnect();
      if (send_timed_out) return TimeoutStatus(timeout_ms_, "while sending the request");
      if (fresh_connection) return Status::IoError("connection dropped while sending");
      continue;
    }

    std::string buffer;
    size_t head_end;
    while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      FillResult fill = Fill(fd_, &buffer);
      if (fill == FillResult::kTimeout) {
        Disconnect();
        return TimeoutStatus(timeout_ms_, "waiting for response headers");
      }
      if (fill == FillResult::kClosed) {
        Disconnect();
        if (buffer.empty() && !fresh_connection) goto retry;  // stale keep-alive
        return Status::IoError("connection closed before a full response arrived");
      }
    }

    {
      HttpClientResponse response;
      std::string head = buffer.substr(0, head_end + 4);
      size_t line_end = head.find("\r\n");
      std::string status_line = head.substr(0, line_end);
      if (status_line.rfind("HTTP/1.", 0) != 0) {
        Disconnect();
        return Status::ParseError("malformed status line: " + status_line);
      }
      size_t space = status_line.find(' ');
      if (space == std::string::npos || space + 4 > status_line.size()) {
        Disconnect();
        return Status::ParseError("malformed status line: " + status_line);
      }
      response.status = std::atoi(status_line.c_str() + space + 1);
      if (response.status < 100 || response.status > 599) {
        Disconnect();
        return Status::ParseError("implausible status code in: " + status_line);
      }

      size_t pos = line_end + 2;
      while (pos + 2 <= head.size()) {
        size_t end = head.find("\r\n", pos);
        if (end == pos) break;
        std::string line = head.substr(pos, end - pos);
        size_t colon = line.find(':');
        if (colon == std::string::npos) {
          Disconnect();
          return Status::ParseError("malformed response header: " + line);
        }
        response.headers.emplace_back(Lowercase(Trim(line.substr(0, colon))),
                                      Trim(line.substr(colon + 1)));
        pos = end + 2;
      }

      buffer.erase(0, head_end + 4);
      // Every response this client reads is framed by Content-Length; a
      // coded body would leave the connection's framing unknown.
      if (const std::string* te = response.FindHeader("transfer-encoding")) {
        Disconnect();
        return Status::ParseError("unsupported Transfer-Encoding: " + *te);
      }
      const std::string* length_header = response.FindHeader("content-length");
      if (length_header == nullptr) {
        Disconnect();
        return Status::ParseError("response has no Content-Length");
      }
      size_t length = static_cast<size_t>(std::strtoull(length_header->c_str(), nullptr, 10));
      while (buffer.size() < length) {
        FillResult fill = Fill(fd_, &buffer);
        if (fill != FillResult::kData) {
          Disconnect();
          if (fill == FillResult::kTimeout) return TimeoutStatus(timeout_ms_, "mid-body");
          return Status::IoError("connection closed mid-body");
        }
      }
      response.body = buffer.substr(0, length);
      // Anything after the body would be a pipelined response we never
      // asked for; drop the connection in that case to stay in lockstep.
      if (buffer.size() != length) Disconnect();

      const std::string* connection = response.FindHeader("connection");
      if (connection != nullptr && Lowercase(*connection) == "close") Disconnect();
      return response;
    }

  retry:
    continue;
  }
  return Status::IoError("request failed after reconnect");
}

Result<std::string> HttpClient::SendRaw(const std::string& bytes) {
  Disconnect();  // always a fresh connection: raw bytes assume clean state
  REPTILE_RETURN_IF_ERROR(Connect());
  if (!WriteAll(fd_, bytes)) {
    Disconnect();
    return Status::IoError("connection dropped while sending");
  }
  ::shutdown(fd_, SHUT_WR);  // half-close: the server sees EOF after our bytes
  std::string out;
  FillResult fill;
  while ((fill = Fill(fd_, &out)) == FillResult::kData) {
  }
  Disconnect();
  if (fill == FillResult::kTimeout) return TimeoutStatus(timeout_ms_, "draining the reply");
  return out;
}

}  // namespace reptile
