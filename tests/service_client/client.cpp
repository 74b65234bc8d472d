#include "service_client/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ceta::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

}  // namespace

Client Client::connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw Error("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("connect(" + path + ")");
  }
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("connect(127.0.0.1:" + std::to_string(port) + ")");
  }
  return Client(fd);
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      decoder_(std::move(other.decoder_)),
      next_id_(other.next_id_),
      pushes_(std::move(other.pushes_)) {
  other.fd_ = -1;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send_payload(std::string_view payload) {
  CETA_EXPECTS(fd_ >= 0, "Client: connection closed");
  const std::string frame = encode_frame(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw_errno("Client: write failed");
  }
}

std::optional<std::string> Client::read_frame(int timeout_ms) {
  CETA_EXPECTS(fd_ >= 0, "Client: connection closed");
  for (;;) {
    if (auto frame = decoder_.next()) {
      if (frame->oversized) {
        throw Error("Client: server sent an oversized frame (" +
                    std::to_string(frame->declared_size) + " bytes)");
      }
      return std::move(frame->payload);
    }
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc == 0) return std::nullopt;
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw_errno("Client: poll failed");
      }
    }
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw Error("Client: connection closed by server");
    if (errno == EINTR) continue;
    throw_errno("Client: read failed");
  }
}

std::uint64_t Client::send(RequestBuilder& req) {
  const std::uint64_t id = next_id_++;
  send_payload(req.build(id));
  return id;
}

JsonValue Client::call(RequestBuilder& req) { return wait_reply(send(req)); }

JsonValue Client::wait_reply(std::uint64_t id) {
  for (;;) {
    const std::optional<std::string> payload = read_frame(-1);
    CETA_ASSERT(payload.has_value(), "blocking read_frame returned nullopt");
    JsonValue doc = parse_json(*payload);
    if (doc.has("push")) {
      pushes_.push_back(std::move(doc));
      continue;
    }
    const JsonValue* rid = doc.find("id");
    if (rid == nullptr || !rid->is_number() ||
        static_cast<std::uint64_t>(rid->number) != id) {
      // A reply to an earlier fire-and-forget send; drop it.
      continue;
    }
    const JsonValue& ok = doc.at("ok");
    if (ok.is_bool() && ok.boolean) return doc.at("result");
    const JsonValue& err = doc.at("error");
    throw ServiceError(err.at("code").string, err.at("message").string);
  }
}

std::optional<JsonValue> Client::poll_push() {
  // Slurp anything already buffered on the socket without blocking.
  while (auto payload = read_frame(0)) {
    JsonValue doc = parse_json(*payload);
    if (doc.has("push")) pushes_.push_back(std::move(doc));
    // Non-push frames here are replies to abandoned ids; drop them.
  }
  if (pushes_.empty()) return std::nullopt;
  JsonValue p = std::move(pushes_.front());
  pushes_.pop_front();
  return p;
}

std::optional<JsonValue> Client::wait_push(int timeout_ms) {
  if (auto p = poll_push()) return p;
  for (;;) {
    const std::optional<std::string> payload = read_frame(timeout_ms);
    if (!payload.has_value()) return std::nullopt;  // timed out
    JsonValue doc = parse_json(*payload);
    if (doc.has("push")) return doc;
  }
}

}  // namespace ceta::service
