#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "graph/serialize.hpp"
#include "obs/json_writer.hpp"

namespace ceta::service {

namespace {

// --- reply builders ---------------------------------------------------------

/// Requests without a parseable id echo null so the client can still
/// correlate the failure with "the one request that had no id".
struct RequestId {
  bool present = false;
  std::int64_t value = 0;
};

void write_id(obs::JsonWriter& w, const RequestId& id) {
  w.key("id");
  if (id.present) {
    w.value(id.value);
  } else {
    w.null();
  }
}

std::string error_reply(const RequestId& id, std::string_view code,
                        std::string_view message) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  write_id(w, id);
  w.member("ok", false);
  w.key("error").begin_object();
  w.member("code", code);
  w.member("message", message);
  w.end_object();
  w.end_object();
  w.done();
  return os.str();
}

/// Build `{"id":..,"ok":true,"result":{ <body> }}`.
template <typename Body>
std::string ok_reply(const RequestId& id, Body&& body) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  write_id(w, id);
  w.member("ok", true);
  w.key("result").begin_object();
  body(w);
  w.end_object();
  w.end_object();
  w.done();
  return os.str();
}

// --- request decoding -------------------------------------------------------

std::int64_t to_int64(const JsonValue& v, const char* what) {
  if (!v.is_number()) {
    throw ProtocolError(std::string(what) + " must be a number");
  }
  // Integer fields take integer tokens only, read from the token itself:
  // the double rounds above 2^53.  The JSON grammar leaves '-' and digits
  // in a token without fraction or exponent.
  if (v.string.find_first_of(".eE") != std::string::npos) {
    throw ProtocolError(std::string(what) + " must be an integer");
  }
  std::int64_t x = 0;
  if (!parse_whole(v.string, x)) {
    throw ProtocolError(std::string(what) + " out of integer range");
  }
  return x;
}

/// An int-typed field (priority, ECU, FIFO depth): range-checked, never
/// truncated to its low 32 bits.
int to_int(const JsonValue& v, const char* what) {
  const std::int64_t x = to_int64(v, what);
  if (x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max()) {
    throw ProtocolError(std::string(what) + " out of integer range");
  }
  return static_cast<int>(x);
}

std::size_t to_size(const JsonValue& v, const char* what) {
  const std::int64_t x = to_int64(v, what);
  if (x < 0) throw ProtocolError(std::string(what) + " must be >= 0");
  return static_cast<std::size_t>(x);
}

Duration to_duration(const JsonValue& v, const char* what) {
  return Duration::ns(to_int64(v, what));
}

const std::string& to_string_member(const JsonValue& v, const char* what) {
  if (!v.is_string()) {
    throw ProtocolError(std::string(what) + " must be a string");
  }
  return v.string;
}

/// Resolve a task reference — numeric id or task name — against a graph.
TaskId resolve_task(const TaskGraph& g, const JsonValue& v, const char* what) {
  if (v.is_number()) {
    const std::int64_t id = to_int64(v, what);
    if (id < 0 || static_cast<std::size_t>(id) >= g.num_tasks()) {
      throw PreconditionError(std::string(what) + ": no task with id " +
                              std::to_string(id));
    }
    return static_cast<TaskId>(id);
  }
  if (v.is_string()) {
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (g.task(t).name == v.string) return t;
    }
    throw PreconditionError(std::string(what) + ": no task named '" +
                            v.string + "'");
  }
  throw ProtocolError(std::string(what) +
                      " must be a task id (number) or name (string)");
}

// --- enum (de)serialization -------------------------------------------------

DisparityMethod parse_method(const std::string& s) {
  if (s == "independent") return DisparityMethod::kIndependent;
  if (s == "fork_join") return DisparityMethod::kForkJoin;
  throw ProtocolError("unknown method '" + s +
                      "' (want independent | fork_join)");
}

HopBoundMethod parse_hop_method(const std::string& s) {
  if (s == "nonpreemptive") return HopBoundMethod::kNonPreemptive;
  if (s == "scheduling_agnostic") return HopBoundMethod::kSchedulingAgnostic;
  throw ProtocolError("unknown hop_method '" + s +
                      "' (want nonpreemptive | scheduling_agnostic)");
}

SchedPolicy parse_policy(const std::string& s) {
  if (s == "nonpreemptive") return SchedPolicy::kNonPreemptive;
  if (s == "preemptive") return SchedPolicy::kPreemptive;
  if (s == "edf") return SchedPolicy::kEdf;
  throw ProtocolError("unknown policy '" + s +
                      "' (want nonpreemptive | preemptive | edf)");
}

JointTruncation parse_truncation(const std::string& s) {
  if (s == "auto") return JointTruncation::kAuto;
  if (s == "always") return JointTruncation::kAlways;
  if (s == "never") return JointTruncation::kNever;
  throw ProtocolError("unknown truncation '" + s +
                      "' (want auto | always | never)");
}

KeepPairs parse_keep_pairs(const std::string& s) {
  if (s == "all") return KeepPairs::kAll;
  if (s == "worst_only") return KeepPairs::kWorstOnly;
  if (s == "top_k") return KeepPairs::kTopK;
  throw ProtocolError("unknown keep_pairs '" + s +
                      "' (want all | worst_only | top_k)");
}

DisparityBackend parse_backend(const std::string& s) {
  if (s == "auto") return DisparityBackend::kAuto;
  if (s == "enumerate") return DisparityBackend::kEnumerate;
  if (s == "dag_dp") return DisparityBackend::kDagDp;
  throw ProtocolError("unknown backend '" + s +
                      "' (want auto | enumerate | dag_dp)");
}

std::string_view backend_name(DisparityBackend b) {
  switch (b) {
    case DisparityBackend::kEnumerate:
      return "enumerate";
    case DisparityBackend::kDagDp:
      return "dag_dp";
    case DisparityBackend::kAuto:
      break;
  }
  return "auto";  // unreachable for served reports
}

DisparityOptions parse_disparity_options(const JsonValue* opts) {
  DisparityOptions o;
  if (opts == nullptr) return o;
  if (!opts->is_object()) throw ProtocolError("options must be an object");
  if (const JsonValue* v = opts->find("method")) {
    o.method = parse_method(to_string_member(*v, "options.method"));
  }
  if (const JsonValue* v = opts->find("hop_method")) {
    o.hop_method = parse_hop_method(to_string_member(*v, "options.hop_method"));
  }
  if (const JsonValue* v = opts->find("path_cap")) {
    o.path_cap = to_size(*v, "options.path_cap");
  }
  if (const JsonValue* v = opts->find("truncation")) {
    o.truncation = parse_truncation(to_string_member(*v, "options.truncation"));
  }
  if (const JsonValue* v = opts->find("keep_pairs")) {
    o.keep_pairs = parse_keep_pairs(to_string_member(*v, "options.keep_pairs"));
  }
  if (const JsonValue* v = opts->find("top_k")) {
    o.top_k = to_size(*v, "options.top_k");
  }
  if (const JsonValue* v = opts->find("backend")) {
    o.backend = parse_backend(to_string_member(*v, "options.backend"));
  }
  return o;
}

/// One push payload for a dirtied, subscribed sink.
std::string push_payload(const std::string& session, TaskId sink,
                         std::uint64_t serial, std::uint64_t epoch,
                         const DisparityReport& report) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.member("push", "disparity");
  w.member("session", session);
  w.member("sink", static_cast<std::uint64_t>(sink));
  w.member("serial", serial);
  w.member("epoch", epoch);
  w.member("worst_case_ns", report.worst_case.count());
  w.member("exact", report.exact);
  w.end_object();
  w.done();
  return os.str();
}

}  // namespace

// Decoded request header + body.  The body keeps the whole parsed tree;
// op handlers pull their own members.
struct ServiceCore::Request {
  RequestId id;
  std::string op;
  JsonValue body;

  const JsonValue* find(std::string_view key) const { return body.find(key); }
  const JsonValue& at(std::string_view key) const { return body.at(key); }
};

ServiceCore::ServiceCore(ServiceConfig cfg)
    : cfg_(cfg), sessions_(cfg.max_sessions) {}

std::string ServiceCore::oversized_reply(std::size_t declared_size) const {
  metrics_.counter("service.errors.oversized_frame").add();
  return error_reply(RequestId{}, "oversized_frame",
                     "frame of " + std::to_string(declared_size) +
                         " bytes exceeds the " +
                         std::to_string(cfg_.max_frame_bytes) + "-byte cap");
}

void ServiceCore::disconnect(ClientId client) {
  sessions_.remove_client(client);
}

std::vector<std::string> ServiceCore::evict_idle(std::uint64_t older_than) {
  std::vector<std::string> evicted = sessions_.evict_idle(older_than);
  if (!evicted.empty()) {
    metrics_.counter("service.sessions.evicted").add(evicted.size());
  }
  return evicted;
}

Outcome ServiceCore::handle(ClientId client, std::string_view payload,
                            std::uint64_t tick) {
  const auto start = std::chrono::steady_clock::now();
  metrics_.counter("service.requests").add();

  Request req;
  Outcome out;
  try {
    req.body = parse_json(payload);
    if (!req.body.is_object()) {
      throw ProtocolError("request must be a JSON object");
    }
    if (const JsonValue* id = req.body.find("id")) {
      req.id = RequestId{true, to_int64(*id, "id")};
    }
    req.op = to_string_member(req.body.at("op"), "op");
    out = dispatch(client, req, tick);
  } catch (const ProtocolError& e) {
    metrics_.counter("service.errors.bad_request").add();
    out = Outcome{error_reply(req.id, "bad_request", e.what()), {}};
  } catch (const RollbackError& e) {
    metrics_.counter("service.errors.rollback_failed").add();
    out = Outcome{error_reply(req.id, "rollback_failed", e.what()), {}};
  } catch (const InvalidOptionsError& e) {
    metrics_.counter("service.errors.invalid_argument").add();
    out = Outcome{error_reply(req.id, "invalid_argument", e.what()), {}};
  } catch (const CapacityError& e) {
    metrics_.counter("service.errors.capacity").add();
    out = Outcome{error_reply(req.id, "capacity", e.what()), {}};
  } catch (const PreconditionError& e) {
    metrics_.counter("service.errors.invalid_argument").add();
    out = Outcome{error_reply(req.id, "invalid_argument", e.what()), {}};
  } catch (const std::exception& e) {
    // The message still travels to the client — this is where a
    // rolled-back transaction's original error text surfaces.
    metrics_.counter("service.errors.internal").add();
    out = Outcome{error_reply(req.id, "internal", e.what()), {}};
  }

  const auto elapsed = std::chrono::steady_clock::now() - start;
  metrics_.histogram("service.request_ns")
      .observe(Duration::ns(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
  return out;
}

Outcome ServiceCore::dispatch(ClientId client, const Request& req,
                              std::uint64_t tick) {
  metrics_.counter("service.op." + req.op).add();

  if (req.op == "ping") return op_ping(req);
  if (req.op == "create_session") return op_create_session(req);
  if (req.op == "drop_session") return op_drop_session(req);
  if (req.op == "list_sessions") return op_list_sessions(req);
  if (req.op == "metrics" && req.find("session") == nullptr) {
    return op_metrics(req);
  }

  // Every remaining op addresses one session.
  static constexpr std::string_view kSessionOps[] = {
      "graph", "disparity", "latency", "mutate",
      "subscribe", "unsubscribe", "metrics"};
  bool known = false;
  for (const std::string_view op : kSessionOps) known |= (req.op == op);
  if (!known) throw ProtocolError("unknown op '" + req.op + "'");

  const std::string& name =
      to_string_member(req.at("session"), "session");
  const std::shared_ptr<Session> session = sessions_.find(name);
  if (session == nullptr) {
    metrics_.counter("service.errors.no_such_session").add();
    return Outcome{error_reply(req.id, "no_such_session",
                               "no session named '" + name + "'"),
                   {}};
  }
  if (tick != 0) session->touch(tick);

  const InflightGuard guard(*session, cfg_.max_inflight_per_session);
  if (!guard.admitted()) {
    metrics_.counter("service.errors.busy").add();
    return Outcome{
        error_reply(req.id, "busy",
                    "session '" + name + "' has " +
                        std::to_string(session->inflight()) +
                        " requests in flight (quota " +
                        std::to_string(cfg_.max_inflight_per_session) + ")"),
        {}};
  }

  if (req.op == "graph") return op_graph(req, *session);
  if (req.op == "disparity") return op_disparity(req, *session);
  if (req.op == "latency") return op_latency(req, *session);
  if (req.op == "mutate") return op_mutate(client, req, *session);
  if (req.op == "subscribe") return op_subscribe(client, req, *session);
  if (req.op == "unsubscribe") return op_unsubscribe(client, req, *session);
  return op_metrics(req);  // per-session metrics
}

Outcome ServiceCore::op_ping(const Request& req) {
  return Outcome{ok_reply(req.id, [](obs::JsonWriter& w) {
                   w.member("pong", true);
                 }),
                 {}};
}

Outcome ServiceCore::op_create_session(const Request& req) {
  const std::string& name = to_string_member(req.at("name"), "name");
  const std::string& text = to_string_member(req.at("graph"), "graph");
  TaskGraph graph = graph_from_text(text);

  std::shared_ptr<Session> session;
  try {
    session = sessions_.create(name, std::move(graph));
  } catch (const CapacityError& e) {
    metrics_.counter("service.errors.too_many_sessions").add();
    return Outcome{error_reply(req.id, "too_many_sessions", e.what()), {}};
  } catch (const PreconditionError& e) {
    metrics_.counter("service.errors.session_exists").add();
    return Outcome{error_reply(req.id, "session_exists", e.what()), {}};
  }
  metrics_.counter("service.sessions.created").add();
  const TaskGraph& g = session->engine().graph();
  return Outcome{ok_reply(req.id,
                          [&](obs::JsonWriter& w) {
                            w.member("name", name);
                            w.member("tasks",
                                     static_cast<std::uint64_t>(g.num_tasks()));
                            w.member("edges",
                                     static_cast<std::uint64_t>(g.num_edges()));
                          }),
                 {}};
}

Outcome ServiceCore::op_drop_session(const Request& req) {
  const std::string& name = to_string_member(req.at("name"), "name");
  const bool dropped = sessions_.drop(name);
  if (!dropped) {
    metrics_.counter("service.errors.no_such_session").add();
    return Outcome{error_reply(req.id, "no_such_session",
                               "no session named '" + name + "'"),
                   {}};
  }
  metrics_.counter("service.sessions.dropped").add();
  return Outcome{ok_reply(req.id, [&](obs::JsonWriter& w) {
                   w.member("dropped", name);
                 }),
                 {}};
}

Outcome ServiceCore::op_list_sessions(const Request& req) {
  const auto all = sessions_.list();
  return Outcome{
      ok_reply(req.id,
               [&](obs::JsonWriter& w) {
                 w.key("sessions").begin_array();
                 for (const auto& s : all) {
                   const TaskGraph& g = s->engine().graph();
                   w.begin_object();
                   w.member("name", s->name());
                   w.member("tasks", static_cast<std::uint64_t>(g.num_tasks()));
                   w.member("edges", static_cast<std::uint64_t>(g.num_edges()));
                   w.member("subscriptions", static_cast<std::uint64_t>(
                                                 s->subscription_count()));
                   w.member("inflight",
                            static_cast<std::uint64_t>(s->inflight()));
                   w.end_object();
                 }
                 w.end_array();
                 w.member("count", static_cast<std::uint64_t>(all.size()));
               }),
      {}};
}

Outcome ServiceCore::op_graph(const Request& req, Session& s) {
  const auto lock = s.query_lock();
  return Outcome{ok_reply(req.id,
                          [&](obs::JsonWriter& w) {
                            w.member("text", to_text(s.engine().graph()));
                          }),
                 {}};
}

Outcome ServiceCore::op_disparity(const Request& req, Session& s) {
  const DisparityOptions opt = parse_disparity_options(req.find("options"));
  const bool include_chains = [&] {
    const JsonValue* v = req.find("include_chains");
    if (v == nullptr) return false;
    if (!v->is_bool()) throw ProtocolError("include_chains must be a bool");
    return v->boolean;
  }();

  const auto lock = s.query_lock();
  const TaskGraph& g = s.engine().graph();
  const TaskId sink = resolve_task(g, req.at("sink"), "sink");
  const DisparityReport report = s.engine().disparity(sink, opt);

  const std::size_t cap = cfg_.max_reply_pairs;
  return Outcome{
      ok_reply(req.id,
               [&](obs::JsonWriter& w) {
                 w.member("sink", static_cast<std::uint64_t>(sink));
                 w.member("worst_case_ns", report.worst_case.count());
                 w.member("exact", report.exact);
                 w.member("backend", backend_name(report.backend));
                 w.member("chain_count",
                          static_cast<std::uint64_t>(report.chain_count));
                 w.member("chain_count_saturated", report.chain_count_saturated);
                 w.member("truncated", report.truncated);
                 const std::size_t npairs = std::min(cap, report.pairs.size());
                 w.key("pairs").begin_array();
                 for (std::size_t i = 0; i < npairs; ++i) {
                   const PairDisparity& p = report.pairs[i];
                   w.begin_object();
                   w.member("chain_a", static_cast<std::uint64_t>(p.chain_a));
                   w.member("chain_b", static_cast<std::uint64_t>(p.chain_b));
                   w.member("bound_ns", p.bound.count());
                   w.end_object();
                 }
                 w.end_array();
                 const std::size_t nsrc =
                     std::min(cap, report.source_pairs.size());
                 w.key("source_pairs").begin_array();
                 for (std::size_t i = 0; i < nsrc; ++i) {
                   const SourcePairDisparity& p = report.source_pairs[i];
                   w.begin_object();
                   w.member("source_a", static_cast<std::uint64_t>(p.source_a));
                   w.member("source_b", static_cast<std::uint64_t>(p.source_b));
                   w.member("bound_ns", p.bound.count());
                   w.end_object();
                 }
                 w.end_array();
                 w.member("pairs_truncated", report.pairs.size() > npairs ||
                                                 report.source_pairs.size() >
                                                     nsrc);
                 if (include_chains) {
                   const std::size_t nchains =
                       std::min(cap, report.chains.size());
                   w.key("chains").begin_array();
                   for (std::size_t i = 0; i < nchains; ++i) {
                     w.begin_array();
                     for (const TaskId t : report.chains[i]) {
                       w.value(static_cast<std::uint64_t>(t));
                     }
                     w.end_array();
                   }
                   w.end_array();
                 }
               }),
      {}};
}

Outcome ServiceCore::op_latency(const Request& req, Session& s) {
  HopBoundMethod method = HopBoundMethod::kNonPreemptive;
  if (const JsonValue* v = req.find("hop_method")) {
    method = parse_hop_method(to_string_member(*v, "hop_method"));
  }

  const auto lock = s.query_lock();
  const TaskGraph& g = s.engine().graph();
  const JsonValue& chain_json = req.at("chain");
  Path chain;
  chain.reserve(chain_json.items().size());
  for (const JsonValue& v : chain_json.items()) {
    chain.push_back(resolve_task(g, v, "chain element"));
  }
  const LatencyReport report = s.engine().latency(chain, method);
  return Outcome{
      ok_reply(req.id,
               [&](obs::JsonWriter& w) {
                 w.member("wcbt_ns", report.backward.wcbt.count());
                 w.member("bcbt_ns", report.backward.bcbt.count());
                 w.member("max_data_age_ns", report.max_data_age.count());
                 w.member("min_data_age_ns", report.min_data_age.count());
                 w.member("max_reaction_time_ns",
                          report.max_reaction_time.count());
               }),
      {}};
}

Outcome ServiceCore::op_mutate(ClientId /*client*/, const Request& req,
                               Session& s) {
  const JsonValue& edits = req.at("edits");
  if (!edits.is_array()) throw ProtocolError("edits must be an array");

  // Exclusive access for the whole commit *and* the post-commit push
  // computation: the pushed worst cases must reflect exactly this commit,
  // not a later one that slips in between.
  const auto lock = s.mutate_lock();
  AnalysisEngine& engine = s.engine();
  const TaskGraph& g = engine.graph();

  AnalysisEngine::Transaction txn(engine);
  for (const JsonValue& e : edits.items()) {
    if (!e.is_object()) throw ProtocolError("each edit must be an object");
    const std::string& kind = to_string_member(e.at("kind"), "edit.kind");
    if (kind == "set_period") {
      txn.set_period(resolve_task(g, e.at("task"), "edit.task"),
                     to_duration(e.at("period_ns"), "edit.period_ns"));
    } else if (kind == "set_wcet_range") {
      txn.set_wcet_range(resolve_task(g, e.at("task"), "edit.task"),
                         to_duration(e.at("bcet_ns"), "edit.bcet_ns"),
                         to_duration(e.at("wcet_ns"), "edit.wcet_ns"));
    } else if (kind == "set_priority") {
      txn.set_priority(resolve_task(g, e.at("task"), "edit.task"),
                       to_int(e.at("priority"), "edit.priority"));
    } else if (kind == "set_policy") {
      txn.set_policy(
          to_int(e.at("ecu"), "edit.ecu"),
          parse_policy(to_string_member(e.at("policy"), "edit.policy")));
    } else if (kind == "set_buffer") {
      txn.set_buffer(
          resolve_task(g, e.at("from"), "edit.from"),
          resolve_task(g, e.at("to"), "edit.to"),
          to_int(e.at("buffer_size"), "edit.buffer_size"));
    } else if (kind == "set_offset") {
      txn.set_offset(resolve_task(g, e.at("task"), "edit.task"),
                     to_duration(e.at("offset_ns"), "edit.offset_ns"));
    } else if (kind == "add_edge") {
      ChannelSpec spec;
      if (const JsonValue* v = e.find("buffer_size")) {
        spec.buffer_size = to_int(*v, "edit.buffer_size");
      }
      txn.add_edge(resolve_task(g, e.at("from"), "edit.from"),
                   resolve_task(g, e.at("to"), "edit.to"), spec);
    } else if (kind == "remove_edge") {
      txn.remove_edge(resolve_task(g, e.at("from"), "edit.from"),
                      resolve_task(g, e.at("to"), "edit.to"));
    } else {
      throw ProtocolError("unknown edit kind '" + kind + "'");
    }
  }

  txn.commit();  // strong guarantee; errors propagate to the error mapper
  metrics_.counter("service.mutations.committed").add();

  const std::uint64_t epoch = s.last_commit_epoch();
  const std::vector<TaskId>& dirty = s.last_dirty_sinks();

  // Push to subscribers of exactly the dirtied sinks, with the worst case
  // recomputed under this commit.
  Outcome out;
  for (const TaskId sink : dirty) {
    const std::vector<ClientId> subs = s.subscribers(sink);
    if (subs.empty()) continue;
    const DisparityReport report = engine.disparity(sink);
    const std::uint64_t serial = s.next_push_serial();
    const std::string payload =
        push_payload(s.name(), sink, serial, epoch, report);
    for (const ClientId c : subs) {
      out.pushes.push_back(Push{c, payload});
    }
    metrics_.counter("service.pushes").add(subs.size());
  }

  out.reply = ok_reply(req.id, [&](obs::JsonWriter& w) {
    w.member("epoch", epoch);
    w.member("edits", static_cast<std::uint64_t>(edits.items().size()));
    w.key("dirty_sinks").begin_array();
    for (const TaskId t : dirty) w.value(static_cast<std::uint64_t>(t));
    w.end_array();
  });
  return out;
}

Outcome ServiceCore::op_subscribe(ClientId client, const Request& req,
                                  Session& s) {
  const auto lock = s.query_lock();
  const TaskGraph& g = s.engine().graph();
  const TaskId sink = resolve_task(g, req.at("sink"), "sink");
  // Compute the current value *before* registering: the reply carries the
  // baseline, and every push the client ever sees corresponds to a commit
  // after this point.
  const DisparityReport report = s.engine().disparity(sink);
  s.subscribe(sink, client);
  metrics_.counter("service.subscriptions").add();
  return Outcome{
      ok_reply(req.id,
               [&](obs::JsonWriter& w) {
                 w.member("sink", static_cast<std::uint64_t>(sink));
                 w.member("worst_case_ns", report.worst_case.count());
                 w.member("exact", report.exact);
               }),
      {}};
}

Outcome ServiceCore::op_unsubscribe(ClientId client, const Request& req,
                                    Session& s) {
  const auto lock = s.query_lock();
  const TaskId sink =
      resolve_task(s.engine().graph(), req.at("sink"), "sink");
  const bool removed = s.unsubscribe(sink, client);
  return Outcome{ok_reply(req.id,
                          [&](obs::JsonWriter& w) {
                            w.member("sink", static_cast<std::uint64_t>(sink));
                            w.member("removed", removed);
                          }),
                 {}};
}

Outcome ServiceCore::op_metrics(const Request& req) {
  obs::MetricsSnapshot snap;
  if (const JsonValue* name = req.find("session")) {
    const std::shared_ptr<Session> session =
        sessions_.find(to_string_member(*name, "session"));
    if (session == nullptr) {
      metrics_.counter("service.errors.no_such_session").add();
      return Outcome{error_reply(req.id, "no_such_session",
                                 "no session named '" + name->string + "'"),
                     {}};
    }
    snap = session->engine().metrics();
  } else {
    snap = metrics_.snapshot();
  }
  return Outcome{ok_reply(req.id,
                          [&](obs::JsonWriter& w) {
                            w.key("metrics");
                            snap.write_json(w);
                          }),
                 {}};
}

}  // namespace ceta::service
