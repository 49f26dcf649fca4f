// Internal socket/string helpers shared by the HTTP framing code
// (net/http_codec.cpp) and the in-tree client (server/http_client.h), so
// fixes to send/header handling cannot silently diverge between them. Not
// part of the installed surface.

#ifndef REPTILE_NET_NET_UTIL_H_
#define REPTILE_NET_NET_UTIL_H_

#include <sys/socket.h>
#include <sys/types.h>

#include <cctype>
#include <cerrno>
#include <string>

namespace reptile {
namespace net_internal {

inline std::string Lowercase(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

inline std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return std::string();
  size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

/// Writes all of `data`; returns false when the peer is gone. MSG_NOSIGNAL
/// turns SIGPIPE into an EPIPE error the caller can handle.
inline bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n;
    do {
      n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace net_internal
}  // namespace reptile

#endif  // REPTILE_NET_NET_UTIL_H_
