// Minimal blocking HTTP/1.1 client for the loopback tests, the gateway
// bench mode and nothing else. Deliberately built on raw syscalls instead
// of net/socket.h: the server-side `net.*` fault sites count hits per
// wrapper call, and client traffic running through the same wrappers would
// shift the seeded hit indices chaos tests pin.
//
// Supports exactly what driving the gateway needs: keep-alive request /
// response exchanges with Content-Length framing, optional chunked
// *request* encoding (one chunk per element — the session-feed wire shape),
// and a raw-bytes escape hatch for malformed-request tests. Transport
// failures (refused, torn, timed out) throw NetError.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "net/socket.h"

namespace sne::net {

struct ClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  ///< lower-cased
  std::string body;

  const std::string* header(const std::string& name_lower) const {
    for (const auto& [k, v] : headers)
      if (k == name_lower) return &v;
    return nullptr;
  }
};

class HttpClient {
 public:
  /// Connects (blocking socket, `timeout_s` send/recv budget so a wedged
  /// test fails loudly instead of hanging the suite).
  HttpClient(const std::string& host, std::uint16_t port,
             double timeout_s = 30.0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw NetError(std::string("socket: ") + std::strerror(errno));
    timeval tv{};
    tv.tv_sec = static_cast<long>(timeout_s);
    tv.tv_usec = static_cast<long>((timeout_s - static_cast<double>(tv.tv_sec))
                                   * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      close();
      throw NetError("bad IPv4 address '" + host + "'");
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      const std::string err = std::strerror(errno);
      close();
      throw NetError("connect: " + err);
    }
  }

  ~HttpClient() { close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  void close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd() const { return fd_; }

  /// One keep-alive exchange with Content-Length framing.
  ClientResponse request(
      const std::string& method, const std::string& target,
      const std::vector<std::pair<std::string, std::string>>& headers = {},
      const std::string& body = {}) {
    std::string msg = method + " " + target + " HTTP/1.1\r\n";
    msg += "Host: sne\r\n";
    for (const auto& [k, v] : headers) msg += k + ": " + v + "\r\n";
    msg += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    msg += body;
    send_raw(msg);
    return read_response();
  }

  /// Same exchange with the body sent as chunked transfer-encoding, one
  /// chunk per `chunks` element (how a session feed streams its body). The
  /// framed message goes out in one send, like request(): separate small
  /// writes would let Nagle's algorithm hold the tail for a delayed ACK.
  ClientResponse request_chunked(
      const std::string& method, const std::string& target,
      const std::vector<std::string>& chunks,
      const std::vector<std::pair<std::string, std::string>>& headers = {}) {
    std::string msg = method + " " + target + " HTTP/1.1\r\n";
    msg += "Host: sne\r\n";
    for (const auto& [k, v] : headers) msg += k + ": " + v + "\r\n";
    msg += "Transfer-Encoding: chunked\r\n\r\n";
    char len[32];
    for (const std::string& c : chunks) {
      if (c.empty()) continue;  // a zero-length chunk would end the body
      std::snprintf(len, sizeof len, "%zx\r\n", c.size());
      msg += len;
      msg += c;
      msg += "\r\n";
    }
    msg += "0\r\n\r\n";
    send_raw(msg);
    return read_response();
  }

  /// Escape hatch for malformed-request tests: bytes on the wire verbatim.
  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
#ifdef MSG_NOSIGNAL
      const ssize_t put = ::send(fd_, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
#else
      const ssize_t put =
          ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
#endif
      if (put < 0) {
        if (errno == EINTR) continue;
        throw NetError(std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<std::size_t>(put);
    }
  }

  /// Reads one response (status line + headers + Content-Length body — the
  /// only framing the gateway emits). Throws NetError on a torn connection.
  ClientResponse read_response() {
    ClientResponse r;
    std::string status_line = read_line();
    // "HTTP/1.1 200 OK"
    const std::size_t sp1 = status_line.find(' ');
    if (status_line.rfind("HTTP/1.", 0) != 0 || sp1 == std::string::npos)
      throw NetError("malformed status line: " + status_line);
    r.status = std::atoi(status_line.c_str() + sp1 + 1);
    std::size_t content_length = 0;
    for (;;) {
      std::string line = read_line();
      if (line.empty()) break;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos)
        throw NetError("malformed response header: " + line);
      std::string name = line.substr(0, colon);
      for (char& ch : name)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      std::size_t vb = colon + 1;
      while (vb < line.size() && line[vb] == ' ') ++vb;
      std::string value = line.substr(vb);
      if (name == "content-length") content_length = std::stoull(value);
      r.headers.emplace_back(std::move(name), std::move(value));
    }
    while (buf_.size() < content_length) fill();
    r.body = buf_.substr(0, content_length);
    buf_.erase(0, content_length);
    return r;
  }

 private:
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        buf_.erase(0, nl + 1);
        return line;
      }
      fill();
    }
  }

  void fill() {
    char tmp[8192];
    const ssize_t got = ::recv(fd_, tmp, sizeof tmp, 0);
    if (got > 0) {
      buf_.append(tmp, static_cast<std::size_t>(got));
      return;
    }
    if (got == 0) throw NetError("connection closed by gateway");
    if (errno == EINTR) return;
    throw NetError(std::string("recv: ") + std::strerror(errno));
  }

  int fd_ = -1;
  std::string buf_;
};

}  // namespace sne::net
