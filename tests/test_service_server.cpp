// End-to-end cetad socket tests: a real Server (poll loop + worker pool)
// and real Clients over loopback TCP and Unix-domain sockets.  Malformed
// and oversized frames must come back as structured error replies on a
// connection that stays up; subscription pushes must cross connections;
// concurrent clients must not trip each other (run this binary under
// -DCETA_SANITIZE=thread as well).

#include "service/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service_client/client.hpp"

namespace ceta::service {
namespace {

// Same two-sink fixture as test_service.cpp: mutating A dirties F1 (id 7)
// only, mutating D dirties F2 (id 8) only.
constexpr char kTwoSinkGraph[] =
    "task S0 0 0 10000000 0 0 -1\n"
    "task S1 0 0 12000000 0 0 -1\n"
    "task S2 0 0 15000000 0 0 -1\n"
    "task A 1000000 500000 10000000 0 0 0\n"
    "task B 1000000 500000 12000000 0 1 0\n"
    "task C 1000000 500000 12000000 0 0 1\n"
    "task D 1000000 500000 15000000 0 1 1\n"
    "task F1 2000000 1000000 30000000 0 0 2\n"
    "task F2 2000000 1000000 30000000 0 1 2\n"
    "edge S0 A\nedge S1 B\nedge S1 C\nedge S2 D\n"
    "edge A F1\nedge B F1\nedge C F2\nedge D F2\n";

Server make_tcp_server(ServiceConfig service = {}) {
  ServerConfig cfg;
  cfg.tcp_port = 0;  // ephemeral
  cfg.num_workers = 2;
  cfg.service = service;
  return Server(cfg);
}

void create_session(Client& c, const std::string& name) {
  const JsonValue r = c.call(
      RequestBuilder("create_session").str("name", name).str("graph",
                                                             kTwoSinkGraph));
  ASSERT_EQ(r.at("name").string, name);
}

// --- raw-socket helpers (for deliberately broken frames) ---------------------

int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Read exactly one frame payload off a raw fd (test-side decoder).
std::string read_frame_raw(int fd) {
  FrameDecoder dec;
  char buf[4096];
  while (true) {
    if (const auto f = dec.next()) return f->payload;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ADD_FAILURE() << "connection closed while awaiting a frame";
      return {};
    }
    dec.feed(buf, static_cast<std::size_t>(n));
  }
}

// --- transports --------------------------------------------------------------

TEST(ServerTransport, TcpRoundtrip) {
  Server server = make_tcp_server();
  server.start();
  ASSERT_GT(server.port(), 0);

  Client c = Client::connect_tcp(server.port());
  EXPECT_TRUE(c.call(RequestBuilder("ping")).at("pong").boolean);
  create_session(c, "g");
  EXPECT_EQ(server.core().session_count(), 1u);

  const JsonValue r =
      c.call(RequestBuilder("disparity").str("session", "g").str("sink", "F1"));
  EXPECT_GT(r.at("worst_case_ns").number, 0.0);
  EXPECT_EQ(r.at("sink").number, 7.0);

  // Error replies surface as ServiceError with the server's code.
  try {
    c.call(RequestBuilder("disparity").str("session", "nope").str("sink", "F1"));
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), "no_such_session");
  }
  server.stop();
}

TEST(ServerTransport, UnixSocketRoundtrip) {
  const std::string path =
      "/tmp/cetad_test_" + std::to_string(::getpid()) + ".sock";
  ServerConfig cfg;
  cfg.unix_path = path;
  cfg.num_workers = 2;
  Server server(cfg);
  server.start();

  Client c = Client::connect_unix(path);
  EXPECT_TRUE(c.call(RequestBuilder("ping")).at("pong").boolean);
  create_session(c, "g");
  const JsonValue r =
      c.call(RequestBuilder("disparity").str("session", "g").str("sink", "F2"));
  EXPECT_GT(r.at("worst_case_ns").number, 0.0);
  server.stop();
  // The socket file is unlinked on stop.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// --- hostile input -----------------------------------------------------------

TEST(ServerHardening, MalformedFrameGetsErrorReplyAndConnectionSurvives) {
  Server server = make_tcp_server();
  server.start();

  const int fd = raw_connect(server.port());
  write_all(fd, encode_frame("this is not json"));
  const JsonValue err = parse_json(read_frame_raw(fd));
  EXPECT_FALSE(err.at("ok").boolean);
  EXPECT_EQ(err.at("error").at("code").string, "bad_request");
  EXPECT_TRUE(err.at("id").is_null());

  // Same connection keeps working afterwards.
  write_all(fd, encode_frame("{\"id\":1,\"op\":\"ping\"}"));
  const JsonValue pong = parse_json(read_frame_raw(fd));
  EXPECT_TRUE(pong.at("ok").boolean);
  EXPECT_TRUE(pong.at("result").at("pong").boolean);

  ::close(fd);
  server.stop();
}

TEST(ServerHardening, OversizedFrameGetsStructuredReplyAndStreamResyncs) {
  ServiceConfig service;
  service.max_frame_bytes = 256;
  Server server = make_tcp_server(service);
  server.start();

  const int fd = raw_connect(server.port());
  // A frame declaring 1000 bytes: rejected on the header alone, then the
  // payload bytes are swallowed so the stream realigns.
  write_all(fd, encode_frame(std::string(1000, 'x')));
  const JsonValue err = parse_json(read_frame_raw(fd));
  EXPECT_FALSE(err.at("ok").boolean);
  EXPECT_EQ(err.at("error").at("code").string, "oversized_frame");

  write_all(fd, encode_frame("{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_TRUE(parse_json(read_frame_raw(fd)).at("ok").boolean);

  ::close(fd);
  server.stop();
}

TEST(ServerHardening, TruncatedFrameThenDisconnectLeavesServerAlive) {
  Server server = make_tcp_server();
  server.start();

  // Write half a header and vanish.
  {
    const int fd = raw_connect(server.port());
    write_all(fd, std::string("\x00\x00", 2));
    ::close(fd);
  }
  // Write a header promising bytes that never arrive, then vanish.
  {
    const int fd = raw_connect(server.port());
    const std::string frame = encode_frame("{\"op\":\"ping\"}");
    write_all(fd, frame.substr(0, frame.size() - 3));
    ::close(fd);
  }

  Client c = Client::connect_tcp(server.port());
  EXPECT_TRUE(c.call(RequestBuilder("ping")).at("pong").boolean);
  server.stop();
}

// --- pushes across connections ----------------------------------------------

TEST(ServerPushes, SubscriberOnOneConnectionSeesMutationsFromAnother) {
  Server server = make_tcp_server();
  server.start();

  Client subscriber = Client::connect_tcp(server.port());
  Client mutator = Client::connect_tcp(server.port());
  create_session(mutator, "g");

  const JsonValue sub = subscriber.call(
      RequestBuilder("subscribe").str("session", "g").str("sink", "F1"));
  const double baseline = sub.at("worst_case_ns").number;

  const JsonValue mut = mutator.call(
      RequestBuilder("mutate")
          .str("session", "g")
          .raw("edits",
               "[{\"kind\":\"set_wcet_range\",\"task\":\"A\","
               "\"bcet_ns\":500000,\"wcet_ns\":4000000}]"));
  EXPECT_GE(mut.at("epoch").number, 1.0);

  const auto push = subscriber.wait_push(5000);
  ASSERT_TRUE(push.has_value()) << "no push within 5s";
  EXPECT_EQ(push->at("push").string, "disparity");
  EXPECT_EQ(push->at("session").string, "g");
  EXPECT_EQ(push->at("sink").number, 7.0);
  EXPECT_EQ(push->at("epoch").number, mut.at("epoch").number);

  // The pushed value is the post-commit worst case — it matches a fresh
  // query and (the WCET grew) moved off the baseline.
  const JsonValue requery = subscriber.call(
      RequestBuilder("disparity").str("session", "g").str("sink", "F1"));
  EXPECT_EQ(push->at("worst_case_ns").number,
            requery.at("worst_case_ns").number);
  EXPECT_NE(push->at("worst_case_ns").number, baseline);

  // The mutator was not subscribed: no push pending on its connection.
  EXPECT_FALSE(mutator.poll_push().has_value());

  // Mutating D dirties only F2 — the F1 subscriber hears nothing.
  mutator.call(RequestBuilder("mutate")
                   .str("session", "g")
                   .raw("edits",
                        "[{\"kind\":\"set_wcet_range\",\"task\":\"D\","
                        "\"bcet_ns\":500000,\"wcet_ns\":4000000}]"));
  EXPECT_FALSE(subscriber.wait_push(300).has_value());

  server.stop();
}

TEST(ServerPushes, DisconnectDropsSubscriptions) {
  Server server = make_tcp_server();
  server.start();

  Client mutator = Client::connect_tcp(server.port());
  create_session(mutator, "g");
  {
    Client ephemeral = Client::connect_tcp(server.port());
    ephemeral.call(
        RequestBuilder("subscribe").str("session", "g").str("sink", "F1"));
  }  // closes the connection, which must drop the subscription

  // Wait for the loop to reap the closed connection.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const JsonValue listed = mutator.call(RequestBuilder("list_sessions"));
    if (listed.at("sessions").items()[0].at("subscriptions").number == 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const JsonValue listed = mutator.call(RequestBuilder("list_sessions"));
  EXPECT_EQ(listed.at("sessions").items()[0].at("subscriptions").number, 0.0);

  // Mutation after the disconnect must not try to deliver to the dead
  // client (and must still succeed).
  const JsonValue mut = mutator.call(
      RequestBuilder("mutate")
          .str("session", "g")
          .raw("edits",
               "[{\"kind\":\"set_wcet_range\",\"task\":\"A\","
               "\"bcet_ns\":500000,\"wcet_ns\":3000000}]"));
  EXPECT_GE(mut.at("epoch").number, 1.0);
  server.stop();
}

// --- concurrency -------------------------------------------------------------

TEST(ServerConcurrency, ParallelClientsMixReadsAndMutations) {
  Server server = make_tcp_server();
  server.start();

  {
    Client setup = Client::connect_tcp(server.port());
    for (int s = 0; s < 4; ++s) {
      create_session(setup, "s" + std::to_string(s));
    }
  }

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client c = Client::connect_tcp(server.port());
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::string session = "s" + std::to_string((t + i) % 4);
          if (i % 3 == 2) {
            c.call(RequestBuilder("mutate")
                       .str("session", session)
                       .raw("edits",
                            "[{\"kind\":\"set_wcet_range\",\"task\":\"A\","
                            "\"bcet_ns\":500000,\"wcet_ns\":" +
                                std::to_string(1'000'000 + (i % 7) * 100'000) +
                                "}]"));
          } else {
            const JsonValue r = c.call(RequestBuilder("disparity")
                                           .str("session", session)
                                           .str("sink", "F1"));
            if (!(r.at("worst_case_ns").number > 0)) failures.fetch_add(1);
          }
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client thread died: " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The server survived all of it.
  Client c = Client::connect_tcp(server.port());
  EXPECT_TRUE(c.call(RequestBuilder("ping")).at("pong").boolean);
  EXPECT_EQ(server.core().session_count(), 4u);
  server.stop();
}

}  // namespace
}  // namespace ceta::service
