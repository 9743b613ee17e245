// Copyright 2026 mpqopt authors.

#include "net/frame_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace mpqopt {
namespace {

constexpr size_t kFrameHeaderBytes = 1 + 8;  // kind + length

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

using Deadline = std::chrono::steady_clock::time_point;

/// Reads exactly `size` bytes. `at_frame_start` selects the status for a
/// clean close before the first byte (kNotFound) versus a disconnect once
/// part of a frame has arrived (kCorruption). A non-null `deadline` is an
/// absolute bound on the whole read — a peer trickling bytes cannot
/// stretch it.
Status ReadFullBytes(int fd, uint8_t* data, size_t size, bool at_frame_start,
                     const Deadline* deadline) {
  size_t got = 0;
  while (got < size) {
    if (deadline != nullptr) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(*deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return Status::Internal("recv timed out");
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(Errno("poll failed"));
      }
      if (ready == 0) return Status::Internal("recv timed out");
    }
    const ssize_t r = ::recv(fd, data + got, size - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("recv failed"));
    }
    if (r == 0) {
      if (at_frame_start && got == 0) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::Corruption("peer disconnected mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status SetNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::Internal(Errno("fcntl(F_GETFL) failed"));
  const int updated = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, updated) < 0) {
    return Status::Internal(Errno("fcntl(F_SETFL) failed"));
  }
  return Status::OK();
}

StatusOr<struct sockaddr_in> ResolveIpv4(const std::string& host, int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address '" + host + "'");
  }
  return addr;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SendFrame(int fd, uint8_t kind, const std::vector<uint8_t>& payload) {
  ConstSpan part{payload.data(), payload.size()};
  return SendFrameV(fd, kind, &part, 1);
}

Status SendFrameV(int fd, uint8_t kind, const ConstSpan* parts,
                  size_t num_parts) {
  if (num_parts > kMaxSendSpans) {
    return Status::InvalidArgument("too many frame parts");
  }
  uint64_t length = 0;
  for (size_t i = 0; i < num_parts; ++i) length += parts[i].size;
  if (length > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(length) +
                                   " bytes exceeds the frame size limit");
  }
  uint8_t header[kFrameHeaderBytes];
  header[0] = kind;
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<uint8_t>(length >> (8 * i));
  }

  struct iovec iov[1 + kMaxSendSpans];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  size_t iov_count = 1;
  for (size_t i = 0; i < num_parts; ++i) {
    if (parts[i].size == 0) continue;  // sendmsg dislikes zero-length iovecs
    iov[iov_count].iov_base =
        const_cast<uint8_t*>(parts[i].data);  // sendmsg never writes
    iov[iov_count].iov_len = parts[i].size;
    ++iov_count;
  }

  // Gathering send with partial-write resume: after a short write, skip
  // fully-sent iovecs and bump the partially-sent one. sendmsg (not
  // writev) so MSG_NOSIGNAL keeps SIGPIPE suppressed, matching send().
  size_t first = 0;
  while (first < iov_count) {
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = &iov[first];
    msg.msg_iovlen = iov_count - first;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("send failed"));
    }
    if (w == 0) return Status::Internal("send wrote zero bytes");
    size_t done = static_cast<size_t>(w);
    while (first < iov_count && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (first < iov_count && done > 0) {
      iov[first].iov_base = static_cast<uint8_t*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
  return Status::OK();
}

StatusOr<bool> WaitReadable(int fd, int timeout_ms) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("poll failed"));
    }
    return ready > 0;
  }
}

namespace {

/// Shared header stage of RecvFrame/RecvFrameSplit: reads the frame
/// header and validates the length against the frame size limit.
Status RecvFrameHeader(int fd, uint8_t* kind, uint64_t* length,
                       const Deadline* deadline) {
  uint8_t header[kFrameHeaderBytes];
  Status s = ReadFullBytes(fd, header, sizeof(header),
                           /*at_frame_start=*/true, deadline);
  if (!s.ok()) return s;
  uint64_t parsed = 0;
  for (int i = 0; i < 8; ++i) {
    parsed |= static_cast<uint64_t>(header[1 + i]) << (8 * i);
  }
  if (parsed > kMaxFramePayloadBytes) {
    return Status::Corruption("frame length " + std::to_string(parsed) +
                              " exceeds the frame size limit");
  }
  *kind = header[0];
  *length = parsed;
  return Status::OK();
}

const Deadline* MakeDeadline(int timeout_ms, Deadline* storage) {
  if (timeout_ms < 0) return nullptr;
  *storage = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeout_ms);
  return storage;
}

}  // namespace

Status RecvFrame(int fd, Frame* frame, int timeout_ms) {
  Deadline deadline;
  const Deadline* deadline_ptr = MakeDeadline(timeout_ms, &deadline);
  uint64_t length = 0;
  Status s = RecvFrameHeader(fd, &frame->kind, &length, deadline_ptr);
  if (!s.ok()) return s;
  // resize() reuses the vector's capacity — callers that keep one Frame
  // alive across a persistent connection pay no allocation in steady
  // state.
  frame->payload.resize(length);
  if (length > 0) {
    s = ReadFullBytes(fd, frame->payload.data(), length,
                      /*at_frame_start=*/false, deadline_ptr);
  }
  return s;
}

Status RecvFrameSplit(int fd, uint8_t* kind, uint8_t* header,
                      size_t header_bytes, std::vector<uint8_t>* body,
                      int timeout_ms) {
  Deadline deadline;
  const Deadline* deadline_ptr = MakeDeadline(timeout_ms, &deadline);
  uint64_t length = 0;
  Status s = RecvFrameHeader(fd, kind, &length, deadline_ptr);
  if (!s.ok()) return s;
  if (length < header_bytes) {
    return Status::Corruption("frame of " + std::to_string(length) +
                              " bytes is shorter than its " +
                              std::to_string(header_bytes) +
                              "-byte payload header");
  }
  if (header_bytes > 0) {
    s = ReadFullBytes(fd, header, header_bytes,
                      /*at_frame_start=*/false, deadline_ptr);
    if (!s.ok()) return s;
  }
  const size_t body_bytes = length - header_bytes;
  body->resize(body_bytes);
  if (body_bytes > 0) {
    s = ReadFullBytes(fd, body->data(), body_bytes,
                      /*at_frame_start=*/false, deadline_ptr);
  }
  return s;
}

Status ParseHostPort(const std::string& endpoint, std::string* host,
                     int* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("endpoint '" + endpoint +
                                   "' is not host:port");
  }
  char* end = nullptr;
  const long parsed = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || parsed < 0 || parsed > 65535) {
    return Status::InvalidArgument("endpoint '" + endpoint +
                                   "' has an invalid port");
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<int>(parsed);
  return Status::OK();
}

StatusOr<Socket> DialTcp(const std::string& endpoint, int timeout_ms) {
  std::string host;
  int port = 0;
  Status s = ParseHostPort(endpoint, &host, &port);
  if (!s.ok()) return s;
  StatusOr<struct sockaddr_in> addr = ResolveIpv4(host, port);
  if (!addr.ok()) return addr.status();

  Socket socket(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!socket.valid()) return Status::Internal(Errno("socket failed"));
  s = SetNonBlocking(socket.fd(), true);
  if (!s.ok()) return s;

  if (::connect(socket.fd(),
                reinterpret_cast<const struct sockaddr*>(&addr.value()),
                sizeof(addr.value())) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Internal("connect to " + endpoint + " failed: " +
                              std::strerror(errno));
    }
    struct pollfd pfd;
    pfd.fd = socket.fd();
    pfd.events = POLLOUT;
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) return Status::Internal(Errno("poll failed"));
    if (ready == 0) {
      return Status::Internal("connect to " + endpoint + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Status::Internal(Errno("getsockopt failed"));
    }
    if (err != 0) {
      return Status::Internal("connect to " + endpoint + " failed: " +
                              std::strerror(err));
    }
  }
  s = SetNonBlocking(socket.fd(), false);
  if (!s.ok()) return s;
  const int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Keepalive lets the kernel eventually notice a peer that vanished
  // without closing (host down, network partition) even on an otherwise
  // idle connection.
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
  return socket;
}

StatusOr<TcpListener> TcpListener::Bind(const std::string& host, int port) {
  StatusOr<struct sockaddr_in> addr = ResolveIpv4(host, port);
  if (!addr.ok()) return addr.status();

  TcpListener listener;
  listener.socket_ = Socket(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!listener.socket_.valid()) {
    return Status::Internal(Errno("socket failed"));
  }
  const int one = 1;
  ::setsockopt(listener.socket_.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  if (::bind(listener.socket_.fd(),
             reinterpret_cast<const struct sockaddr*>(&addr.value()),
             sizeof(addr.value())) != 0) {
    return Status::Internal("bind to " + host + ":" + std::to_string(port) +
                            " failed: " + std::strerror(errno));
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listener.socket_.fd(),
                    reinterpret_cast<struct sockaddr*>(&bound), &len) != 0) {
    return Status::Internal(Errno("getsockname failed"));
  }
  listener.port_ = static_cast<int>(ntohs(bound.sin_port));
  if (::listen(listener.socket_.fd(), 64) != 0) {
    return Status::Internal(Errno("listen failed"));
  }
  return listener;
}

StatusOr<Socket> TcpListener::Accept(int timeout_ms) {
  for (;;) {
    if (timeout_ms >= 0) {
      struct pollfd pfd;
      pfd.fd = socket_.fd();
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(Errno("poll failed"));
      }
      if (ready == 0) return Status::Internal("accept timed out");
    }
    const int fd = ::accept4(socket_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // A peer that aborted its own handshake is its problem, not the
      // listener's — keep accepting.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Status::Internal(Errno("accept failed"));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Mirror DialTcp: let the kernel notice a master that vanished
    // without closing, so serving threads do not block forever.
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
    return Socket(fd);
  }
}

}  // namespace mpqopt
