// ServiceCore — the transport-independent heart of cetad.
//
// One ServiceCore holds the session registry and maps each decoded frame
// payload to a reply (and possibly pushes), with no knowledge of sockets:
//
//   Outcome out = core.handle(client, payload, tick);
//   // out.reply  -> frame back to `client`
//   // out.pushes -> frames to subscribed clients (possibly others)
//
// The server (service/server.hpp) feeds it from pool workers; the tests
// and the fleet bench feed it directly, which is what makes the whole
// protocol — admission control, error mapping, subscription exactness —
// unit-testable without a single socket.
//
// Wire protocol (all frames are length-prefixed JSON, service/framing.hpp):
//
//   request  {"id": 7, "op": "disparity", "session": "s", "sink": "fuse",
//             "options": {"method": "fork_join", "keep_pairs": "top_k",
//                         "top_k": 4}}
//   reply    {"id": 7, "ok": true, "result": {...}}
//   error    {"id": 7, "ok": false,
//             "error": {"code": "no_such_session", "message": "..."}}
//   push     {"push": "disparity", "session": "s", "sink": 3, "serial": 12,
//             "epoch": 4, "worst_case_ns": 1800000, "exact": true}
//
// Ops: ping, create_session, drop_session, list_sessions, graph,
// disparity, latency (data age + reaction time), mutate, subscribe,
// unsubscribe, metrics.  Tasks are referenced by name or numeric id.
//
// Error contract: every failure a client can provoke — bad JSON, unknown
// op, missing member, unknown session/task, engine precondition or
// capacity errors, quota exhaustion, oversized frames — maps to a
// structured error reply on a live connection.  The error codes:
//
//   bad_request       malformed JSON / schema violation / unknown op
//   oversized_frame   declared frame length beyond the cap
//   no_such_session   session name not registered
//   session_exists    create_session on a taken name
//   too_many_sessions session cap reached
//   busy              per-session in-flight quota exhausted
//   invalid_argument  engine rejected the request (PreconditionError,
//                     InvalidOptionsError, unknown task, bad chain)
//   capacity          engine CapacityError (path_cap exceeded, ...)
//   rollback_failed   RollbackError — state restore failed after an error
//   internal          anything else (still carries the original message)
//
// Mutations reply with the commit epoch and the exact dirty-sink set of
// the committed transaction; subscribed dirtied sinks additionally get a
// push with the freshly recomputed worst case.  The push set is exactly
// InvalidationPlan::report_tasks ∩ subscribed sinks — no spurious pushes
// for untouched sinks, no missed pushes for dirtied ones (asserted
// against fresh-engine recomputes in tests/test_service.cpp).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "service/framing.hpp"
#include "service/json.hpp"
#include "service/session.hpp"

namespace ceta::service {

struct ServiceConfig {
  /// Session cap (create_session beyond it → "too_many_sessions").
  std::size_t max_sessions = 4096;
  /// Per-session concurrent request quota (beyond it → "busy").
  std::size_t max_inflight_per_session = 64;
  /// Frame payload cap, applied by servers to their decoders and echoed
  /// in oversized_frame diagnostics.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cap on pairs / source_pairs / chains serialized into one disparity
  /// reply (the report itself is computed in full; the reply notes
  /// `pairs_truncated` when the cap bit).
  std::size_t max_reply_pairs = 256;
  /// No effect; kept only so existing callers compile.
  std::size_t engine_threads = 1;
};

/// A push frame to deliver to a (possibly different) client.
struct Push {
  ClientId client = 0;
  std::string payload;
};

/// The result of handling one request frame.
struct Outcome {
  std::string reply;        ///< send back to the requesting client
  std::vector<Push> pushes; ///< deliver to subscribers
};

class ServiceCore {
 public:
  explicit ServiceCore(ServiceConfig cfg = {});

  /// Handle one decoded frame payload from `client`.  `tick` is the
  /// caller's monotone coarse clock, stamped on the touched session for
  /// idle eviction (0 = no eviction tracking).  Never throws on client
  /// input; any error becomes a structured reply.
  Outcome handle(ClientId client, std::string_view payload,
                 std::uint64_t tick = 0);

  /// The structured reply for an oversized frame (the decoder already
  /// swallowed the payload; the connection stays up).
  std::string oversized_reply(std::size_t declared_size) const;

  /// Client disconnected: drop its subscriptions everywhere.
  void disconnect(ClientId client);

  /// Evict idle sessions (see SessionRegistry::evict_idle).
  std::vector<std::string> evict_idle(std::uint64_t older_than_tick);

  const ServiceConfig& config() const { return cfg_; }
  std::size_t session_count() const { return sessions_.size(); }

  /// Service-level instruments: request counters per op, error counters,
  /// and the request-latency histogram the fleet bench snapshots.
  obs::MetricsRegistry& metrics_registry() { return metrics_; }

 private:
  struct Request;  // decoded header + body

  Outcome dispatch(ClientId client, const Request& req, std::uint64_t tick);

  Outcome op_ping(const Request& req);
  Outcome op_create_session(const Request& req);
  Outcome op_drop_session(const Request& req);
  Outcome op_list_sessions(const Request& req);
  Outcome op_graph(const Request& req, Session& s);
  Outcome op_disparity(const Request& req, Session& s);
  Outcome op_latency(const Request& req, Session& s);
  Outcome op_mutate(ClientId client, const Request& req, Session& s);
  Outcome op_subscribe(ClientId client, const Request& req, Session& s);
  Outcome op_unsubscribe(ClientId client, const Request& req, Session& s);
  Outcome op_metrics(const Request& req);

  ServiceConfig cfg_;
  SessionRegistry sessions_;
  /// mutable: const entry points (oversized_reply) still count errors.
  mutable obs::MetricsRegistry metrics_;
};

}  // namespace ceta::service
