// cetad — the cause-effect time-analysis daemon.
//
// Hosts many named analysis sessions behind the length-prefixed JSON
// protocol (service/service.hpp) on a Unix-domain or loopback TCP socket:
//
//   cetad --unix /tmp/cetad.sock
//   cetad --port 7341 --workers 8 --max-sessions 1024 --quota 32
//         --idle-timeout 600
//
// Prints one "listening ..." line once ready (scripts wait for it), then
// serves until SIGINT/SIGTERM.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/parse.hpp"
#include "service/server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --unix PATH        listen on a unix-domain socket\n"
      << "  --port N           listen on 127.0.0.1:N (0 = ephemeral;\n"
      << "                     default when --unix is absent)\n"
      << "  --workers N        request worker threads (default: cores,\n"
      << "                     at most 1024)\n"
      << "  --max-sessions N   session cap (default 4096)\n"
      << "  --quota N          per-session in-flight quota (default 64)\n"
      << "  --max-frame BYTES  frame payload cap (default 8 MiB)\n"
      << "  --idle-timeout S   evict sessions idle for S seconds (0 = never)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ceta::service::ServerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Numbers are whole non-negative tokens: "-1" must not wrap to a huge
    // worker count or cap.
    const auto number = [&](auto& out) {
      if (!ceta::parse_whole(next(), out)) {
        std::cerr << arg << " needs a non-negative integer in range\n";
        std::exit(2);
      }
    };
    if (arg == "--unix") {
      cfg.unix_path = next();
    } else if (arg == "--port") {
      std::uint16_t port = 0;
      number(port);
      cfg.tcp_port = port;
    } else if (arg == "--workers") {
      number(cfg.num_workers);
    } else if (arg == "--max-sessions") {
      number(cfg.service.max_sessions);
    } else if (arg == "--quota") {
      number(cfg.service.max_inflight_per_session);
    } else if (arg == "--max-frame") {
      number(cfg.service.max_frame_bytes);
    } else if (arg == "--idle-timeout") {
      number(cfg.idle_timeout_s);
    } else {
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    ceta::service::Server server(cfg);
    server.start();
    if (!cfg.unix_path.empty()) {
      std::cout << "listening unix:" << cfg.unix_path << std::endl;
    } else {
      std::cout << "listening tcp:127.0.0.1:" << server.port() << std::endl;
    }
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "cetad: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
