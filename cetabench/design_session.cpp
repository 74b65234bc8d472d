// design_session: cetad traffic through ServiceCore::handle, in process,
// without sockets, with engine_threads = 1.
//
// S sessions each hold a 40–80-task WATERS system.  Set-up: the
// create_session requests.  Ops, interleaved across sessions by one
// closed-loop caller: half the sessions subscribe to their sink, then each
// runs four cycles of three reads (disparity of the sink, latency of a
// source chain, disparity again, as a polling client does) and one mutate
// (set_offset, set_buffer, a set_priority swap, set_wcet_range, or a batch
// of edits), then drop_session.  The analysis layers run warm and
// incrementally, so the engine's invalidation and retention and the
// service's JSON path carry the time, and writes sit beside reads.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "graph/serialize.hpp"
#include "harness.hpp"
#include "obs/json_writer.hpp"
#include "sched/npfp_rta.hpp"
#include "service/json.hpp"
#include "service/service.hpp"

namespace cetabench {
namespace {

using namespace ceta;
using service::JsonValue;

constexpr std::size_t kSessions = 96;
constexpr std::size_t kCycles = 4;
constexpr std::size_t kMaxChains = 150;

enum class OpKind { kSubscribe, kDisparity, kLatency, kMutate, kDrop };

const char* span_name(OpKind k) {
  switch (k) {
    case OpKind::kSubscribe: return "service.subscribe";
    case OpKind::kDisparity: return "service.disparity";
    case OpKind::kLatency: return "service.latency";
    case OpKind::kMutate: return "service.mutate";
    case OpKind::kDrop: return "service.drop";
  }
  return "service.other";
}

struct Op {
  std::size_t session = 0;
  OpKind kind = OpKind::kDisparity;
  std::string payload;
  Path chain;                    // kLatency
  bool last_before_drop = false; // fetch the session's engine metrics after
};

struct Session {
  std::string name;
  std::string create;  // create_session payload
  TaskId sink = 0;
  bool subscribed = false;
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += obs::JsonWriter::escape(s);
  out += '"';
  return out;
}

const char* backend_name(DisparityBackend b) {
  return b == DisparityBackend::kDagDp ? "dag_dp" : "enumerate";
}

/// Builds one session's script against a local copy of its graph, so
/// every edit is valid and keeps the system schedulable when it lands.
class ScriptBuilder {
 public:
  ScriptBuilder(TaskGraph g, TaskId sink, Rng& rng)
      : g_(std::move(g)), sink_(sink), rng_(rng) {
    for (const Edge& e : g_.edges()) {
      if (e.to == sink_ || g_.reaches(e.to, sink_)) cone_edges_.push_back(e);
    }
    for (TaskId t = 0; t < g_.num_tasks(); ++t) {
      if (t != sink_ && !g_.reaches(t, sink_)) continue;
      (g_.is_source(t) ? sources_ : workers_).push_back(t);
    }
  }

  /// The edits of one write, as a JSON array; `kind` % 5 picks the edit:
  /// offset, buffer, priority swap, WCET, or all but the swap at once.
  std::string edits(std::size_t kind) {
    std::vector<std::string> out;
    switch (kind % 5) {
      case 0: out.push_back(offset_edit()); break;
      case 1: out.push_back(buffer_edit()); break;
      case 2:
        if (!priority_swap(out)) out.push_back(offset_edit());
        break;
      case 3: out.push_back(wcet_edit()); break;
      default:
        out.push_back(offset_edit());
        out.push_back(buffer_edit());
        out.push_back(wcet_edit());
        break;
    }
    std::string s = "[";
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i) s += ',';
      s += out[i];
    }
    return s + "]";
  }

 private:
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }
  std::string task_ref(TaskId t) const { return quoted(g_.task(t).name); }

  std::string offset_edit() {
    const TaskId t = pick(sources_);
    Task& task = g_.task(t);
    const std::int64_t slots = std::max<std::int64_t>(1, task.period.count() / 1'000'000);
    task.offset = Duration::ms(rng_.uniform_int(0, slots - 1));
    return "{\"kind\":\"set_offset\",\"task\":" + task_ref(t) +
           ",\"offset_ns\":" + std::to_string(task.offset.count()) + "}";
  }

  std::string buffer_edit() {
    const Edge& e = pick(cone_edges_);
    const int size = static_cast<int>(rng_.uniform_int(1, 3));
    g_.set_buffer_size(e.from, e.to, size);
    return "{\"kind\":\"set_buffer\",\"from\":" + task_ref(e.from) +
           ",\"to\":" + task_ref(e.to) +
           ",\"buffer_size\":" + std::to_string(size) + "}";
  }

  /// WCET only ever shrinks, which keeps every ECU schedulable.
  std::string wcet_edit() {
    const TaskId t = pick(workers_);
    Task& task = g_.task(t);
    task.wcet = Duration::ns(task.wcet.count() * 4 / 5);
    task.bcet = std::min(task.bcet, task.wcet);
    return "{\"kind\":\"set_wcet_range\",\"task\":" + task_ref(t) +
           ",\"bcet_ns\":" + std::to_string(task.bcet.count()) +
           ",\"wcet_ns\":" + std::to_string(task.wcet.count()) + "}";
  }

  /// Swap the priorities of two tasks on one ECU, if some swap keeps the
  /// system schedulable.
  bool priority_swap(std::vector<std::string>& out) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const TaskId a = pick(workers_);
      std::vector<TaskId> peers;
      for (TaskId t = 0; t < g_.num_tasks(); ++t) {
        if (t != a && !g_.is_source(t) && g_.task(t).ecu == g_.task(a).ecu) {
          peers.push_back(t);
        }
      }
      if (peers.empty()) continue;
      const TaskId b = pick(peers);
      std::swap(g_.task(a).priority, g_.task(b).priority);
      if (!analyze_response_times(g_).all_schedulable) {
        std::swap(g_.task(a).priority, g_.task(b).priority);
        continue;
      }
      for (const TaskId t : {a, b}) {
        out.push_back("{\"kind\":\"set_priority\",\"task\":" + task_ref(t) +
                      ",\"priority\":" + std::to_string(g_.task(t).priority) +
                      "}");
      }
      return true;
    }
    return false;
  }

  TaskGraph g_;
  TaskId sink_;
  Rng& rng_;
  std::vector<Edge> cone_edges_;
  std::vector<TaskId> sources_;
  std::vector<TaskId> workers_;
};

class DesignSession final : public Workload {
 public:
  explicit DesignSession(std::uint64_t seed) : core_(config()) {
    std::vector<std::vector<Op>> scripts(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      Rng topo = topology_rng(4, s);
      Rng rng = item_rng(seed, 4, s);
      const std::size_t tasks = 40 + 40 * s / (kSessions - 1);
      WatersSystem sys = waters_system(topo, rng, tasks, s % 2 == 1, 4, kMaxChains);
      Session sess;
      sess.name = "s" + std::to_string(s);
      sess.sink = sys.sink;
      sess.subscribed = s % 2 == 0;
      sess.create = "{\"op\":\"create_session\",\"name\":" + quoted(sess.name) +
                    ",\"graph\":" + quoted(to_text(sys.graph)) + "}";
      const std::string at = "\"session\":" + quoted(sess.name);
      const std::string sink =
          at + ",\"sink\":" + quoted(sys.graph.task(sys.sink).name);
      const std::vector<Path> chains = enumerate_source_chains(sys.graph, sys.sink);

      std::vector<Op>& script = scripts[s];
      std::uint64_t id = 0;
      const auto add = [&](OpKind kind, const std::string& op,
                           const std::string& body) {
        Op o;
        o.session = s;
        o.kind = kind;
        o.payload = "{\"id\":" + std::to_string(++id) + ",\"op\":\"" + op +
                    "\"," + body + "}";
        script.push_back(std::move(o));
        return &script.back();
      };
      if (sess.subscribed) add(OpKind::kSubscribe, "subscribe", sink);
      ScriptBuilder builder(sys.graph, sys.sink, rng);
      for (std::size_t c = 0; c < kCycles; ++c) {
        add(OpKind::kDisparity, "disparity", sink);
        const Path& chain = chains[(c * 7 + s) % chains.size()];
        std::string names = "[";
        for (std::size_t k = 0; k < chain.size(); ++k) {
          if (k) names += ',';
          names += quoted(sys.graph.task(chain[k]).name);
        }
        add(OpKind::kLatency, "latency", at + ",\"chain\":" + names + "]")
            ->chain = chain;
        add(OpKind::kDisparity, "disparity", sink);
        add(OpKind::kMutate, "mutate", at + ",\"edits\":" + builder.edits(s + c));
      }
      script.back().last_before_drop = true;
      add(OpKind::kDrop, "drop_session", "\"name\":" + quoted(sess.name));
      sessions_.push_back(std::move(sess));
    }
    // One caller interleaves the sessions: step k of every session, then
    // step k + 1.
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const std::vector<Op>& script : scripts) {
        if (k < script.size()) {
          ops_.push_back(script[k]);
          any = true;
        }
      }
      if (!any) break;
    }
    outcomes_.resize(ops_.size());
  }

  std::size_t num_setup_steps() const override { return sessions_.size(); }
  std::size_t num_ops() const override { return ops_.size(); }

  void begin_round() override {
    if (core_.session_count() != 0) throw Error("sessions left over from the last round");
  }

  void setup_step(std::size_t i, StepContext& ctx) override {
    const service::Outcome out = ctx.span(
        "service.create", [&] { return core_.handle(i + 1, sessions_[i].create); });
    if (!service::parse_json(out.reply).at("ok").boolean) {
      throw Error("create_session failed: " + out.reply);
    }
  }

  void run_op(std::size_t i, StepContext& ctx) override {
    const Op& op = ops_[i];
    const auto call = [&] {
      outcomes_[i] = ctx.span(span_name(op.kind), [&] {
        return core_.handle(op.session + 1, op.payload);
      });
    };
    if (op.kind == OpKind::kMutate) {
      ctx.write(call);
    } else {
      call();
    }
  }

  OpOutcome observe_op(std::size_t i, Counts& counts, bool check) override {
    const Op& op = ops_[i];
    const Session& sess = sessions_[op.session];
    service::Outcome res = std::move(outcomes_[i]);
    outcomes_[i] = service::Outcome{};

    OpOutcome out;
    Digest d;
    d.add(res.reply);
    counts["service.reply_bytes"] += static_cast<double>(res.reply.size());
    counts["service.pushes"] += static_cast<double>(res.pushes.size());
    for (const service::Push& p : res.pushes) d.add(p.client).add(p.payload);
    out.digest = d.h;
    const JsonValue reply = service::parse_json(res.reply);
    if (!reply.at("ok").boolean) {
      counts["service.errors"] += 1;
      out.ok = false;
      out.failure = "error reply: " + res.reply;
      return out;
    }
    if (op.last_before_drop) add_engine_counts(sess, counts);
    if (check && op.kind != OpKind::kDrop) {
      out.failure = check_against_fresh_engine(op, sess, reply.at("result"), res);
      out.ok = out.failure.empty();
    }
    return out;
  }

 private:
  static service::ServiceConfig config() {
    service::ServiceConfig cfg;
    cfg.engine_threads = 1;
    return cfg;
  }

  JsonValue request(const std::string& payload) {
    const JsonValue doc = service::parse_json(core_.handle(0, payload).reply);
    if (!doc.at("ok").boolean) throw Error("request failed: " + payload);
    return doc.at("result");
  }

  void add_engine_counts(const Session& sess, Counts& counts) {
    const JsonValue m = request("{\"op\":\"metrics\",\"session\":" +
                                quoted(sess.name) + "}")
                            .at("metrics")
                            .at("counters");
    const auto c = [&](const char* name) {
      const JsonValue* v = m.find(name);
      return v == nullptr ? 0.0 : v->number;
    };
    counts["engine.report_hits"] += c("engine.reports.hits");
    counts["engine.report_misses"] += c("engine.reports.misses");
    counts["engine.stale_evictions"] += c("engine.hop.stale") +
                                        c("engine.chain_bounds.stale") +
                                        c("engine.chain_sets.stale") +
                                        c("engine.reports.stale");
    counts["engine.survived_hits"] += c("engine.cache.survived_hits");
    counts["engine.commits"] += c("engine.mutate.commits");
    counts["engine.rta_refreshed_tasks"] += c("engine.rta.refreshed_tasks");
  }

  /// Compare a reply (and its pushes) with a fresh AnalysisEngine built
  /// from the session's `graph` dump.  Returns "" on agreement.
  std::string check_against_fresh_engine(const Op& op, const Session& sess,
                                         const JsonValue& result,
                                         const service::Outcome& res) {
    const std::string text =
        request("{\"op\":\"graph\",\"session\":" + quoted(sess.name) + "}")
            .at("text")
            .string;
    EngineOptions eopt;
    eopt.num_threads = 1;
    const AnalysisEngine fresh(graph_from_text(text), eopt);
    const auto num = [](const JsonValue& v, const char* k) {
      return static_cast<std::int64_t>(v.at(k).number);
    };
    switch (op.kind) {
      case OpKind::kSubscribe:
        if (num(result, "worst_case_ns") != fresh.disparity(sess.sink).worst_case.count()) {
          return "subscribe baseline differs from a fresh engine";
        }
        return "";
      case OpKind::kDisparity: {
        const DisparityReport r = fresh.disparity(sess.sink);
        if (num(result, "worst_case_ns") != r.worst_case.count() ||
            result.at("exact").boolean != r.exact ||
            result.at("backend").string != backend_name(r.backend) ||
            num(result, "chain_count") != static_cast<std::int64_t>(r.chain_count)) {
          return "disparity reply differs from a fresh engine";
        }
        const service::JsonArray& pairs = result.at("pairs").items();
        if (pairs.size() > r.pairs.size()) return "disparity reply has extra pairs";
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          if (num(pairs[k], "bound_ns") != r.pairs[k].bound.count()) {
            return "disparity pair bound differs from a fresh engine";
          }
        }
        return "";
      }
      case OpKind::kLatency: {
        const LatencyReport r = fresh.latency(op.chain);
        if (num(result, "wcbt_ns") != r.backward.wcbt.count() ||
            num(result, "bcbt_ns") != r.backward.bcbt.count() ||
            num(result, "max_data_age_ns") != r.max_data_age.count() ||
            num(result, "min_data_age_ns") != r.min_data_age.count() ||
            num(result, "max_reaction_time_ns") != r.max_reaction_time.count()) {
          return "latency reply differs from a fresh engine";
        }
        return "";
      }
      case OpKind::kMutate: {
        bool sink_dirty = false;
        for (const JsonValue& t : result.at("dirty_sinks").items()) {
          sink_dirty |= static_cast<TaskId>(t.number) == sess.sink;
        }
        const std::size_t want = sess.subscribed && sink_dirty ? 1 : 0;
        if (res.pushes.size() != want) return "wrong number of pushes";
        for (const service::Push& p : res.pushes) {
          const JsonValue push = service::parse_json(p.payload);
          if (num(push, "worst_case_ns") != fresh.disparity(sess.sink).worst_case.count()) {
            return "pushed worst case differs from a fresh engine";
          }
        }
        return "";
      }
      case OpKind::kDrop: return "";
    }
    return "";
  }

  service::ServiceCore core_;
  std::vector<Session> sessions_;
  std::vector<Op> ops_;
  std::vector<service::Outcome> outcomes_;
};

}  // namespace

std::unique_ptr<Workload> make_design_session(std::uint64_t seed) {
  return std::make_unique<DesignSession>(seed);
}

}  // namespace cetabench
