// served_mixed: a closed-loop client of hilog_server over its Unix socket,
// and the in-process replay of the same deltas that the traced run uses
// to split a publish into its layers.

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>

#include "bench.h"
#include "model.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

namespace hlbench {
namespace {

using hilog::obs::Counter;
using hilog::service::JsonQuote;
using hilog::service::JsonValue;

// 32 HiLog games of 25 positions and 38 moves, and 24 first-order games
// (relations fm*) of 100 positions and 150 moves: about 4,800 EDB facts,
// which every query preloads. A publish re-solves the one scheduler
// component that holds every HiLog game, and of the first-order games only
// the touched one. Many small HiLog games keep that re-solve's cost
// nearly the same for every seed.
constexpr int kHilogGames = 32;
constexpr int kFoGames = 24;

Instance ServedInstance(uint64_t seed) {
  Rng rng(seed ^ 0x736572766564ull);
  Instance instance;
  for (int g = 0; g < kHilogGames; ++g) {
    instance.hilog_games.push_back(
        RandomGame(rng, "mv" + std::to_string(g), 25, 38));
  }
  for (int g = 0; g < kFoGames; ++g) {
    instance.fo_games.push_back(
        RandomGame(rng, "fm" + std::to_string(g), 100, 150));
  }
  return instance;
}

// One line-protocol connection. Every read has a timeout, so a server
// that stops answering fails the run instead of hanging it.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  std::string Open(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return "socket: " + std::string(std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return "socket path too long";
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return "connect: " + std::string(std::strerror(errno));
    }
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return "";
  }
  /// Sends one request line; returns false when no full reply line came.
  bool Call(const std::string& request, std::string* reply) {
    std::string line = request + "\n";
    size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        reply->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Runs the reference task in a child process forked before the client
// builds anything that depends on the seed. In the client itself the
// task's time depended on the seed (its heap holds the seed's model,
// plan and reply strings), so calibration added spread; the child's heap
// is the same in every run. The child exits when its pipe closes, also
// when the client dies.
class ReferenceHelper {
 public:
  ReferenceHelper() = default;
  ReferenceHelper(const ReferenceHelper&) = delete;
  ReferenceHelper& operator=(const ReferenceHelper&) = delete;
  ~ReferenceHelper() {
    if (to_child_ >= 0) ::close(to_child_);
    if (from_child_ >= 0) ::close(from_child_);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
  }

  bool Start() {
    int down[2], up[2];
    if (::pipe(down) != 0) return false;
    if (::pipe(up) != 0) {
      ::close(down[0]);
      ::close(down[1]);
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(down[1]);
      ::close(up[0]);
      ReferenceTask task;
      char go = 0;
      while (::read(down[0], &go, 1) == 1) {
        const double ms = task.RunMs();
        if (::write(up[1], &ms, sizeof(ms)) != sizeof(ms)) break;
      }
      // The exit status carries the task's result, so its work is kept.
      ::_exit(static_cast<int>(task.sink() & 1));
    }
    ::close(down[0]);
    ::close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
    return true;
  }

  /// One run of the task in the child; its wall time in ms, or -1.
  double RunMs() {
    const char go = 1;
    double ms = -1;
    if (::write(to_child_, &go, 1) != 1) return -1;
    size_t got = 0;
    char* out = reinterpret_cast<char*>(&ms);
    while (got < sizeof(ms)) {
      ssize_t n = ::read(from_child_, out + got, sizeof(ms) - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return -1;
      got += static_cast<size_t>(n);
    }
    return ms;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// The client's own copy of the base: edge sets and game outcomes, kept
// in step with every delta it publishes.
struct ClientModel {
  Instance instance;
  std::vector<std::vector<Outcome>> hilog_outcomes, fo_outcomes;
  size_t true_atoms = 0, undefined_atoms = 0;

  void Refresh() {
    hilog_outcomes.clear();
    fo_outcomes.clear();
    for (const Game& g : instance.hilog_games) {
      hilog_outcomes.push_back(SolveGame(g));
    }
    for (const Game& g : instance.fo_games) fo_outcomes.push_back(SolveGame(g));
    std::tie(true_atoms, undefined_atoms) = CountModel(instance);
  }
};

// A delta adds one move to one HiLog game and one to one first-order
// game, each from a queried sink to another sink, so the queried
// position turns from lost to won; the following delta retracts both.
struct DeltaPlan {
  int hilog_game, fo_game;
  std::pair<uint32_t, uint32_t> hilog_move, fo_move;
};

struct QueryPlan {
  bool hilog;  // winning(mvG)(pX), else w_fmG(pX).
  int game;
  uint32_t position;
};

// One round: for each delta, publish the addition, query, publish the
// retraction, query. kQueriesPerPublish queries follow each publish, the
// first of them on the HiLog position the delta changed: that query pays
// the worker session's catch-up. So publishes are 1/6 of the operations,
// and catch-up queries 1/5 of the queries: the queries' 90th percentile
// falls in the middle of the catch-up cluster and their median well
// inside the plain queries, away from either cluster's edge.
constexpr int kDeltasPerRound = 3;
constexpr int kQueriesPerPublish = 5;

struct RoundPlan {
  std::vector<DeltaPlan> deltas;
  std::vector<std::vector<QueryPlan>> queries;  // One list per delta.
};

// The positions of `game` that reach at most `max_reach` others.
std::vector<uint32_t> SmallPositions(const Game& game, size_t max_reach) {
  std::vector<uint32_t> out;
  for (uint32_t p = 0; p < game.positions; ++p) {
    if (Reachable(game, p).size() <= max_reach) out.push_back(p);
  }
  return out;
}

template <typename T>
const T& Choose(Rng& rng, const std::vector<T>& items) {
  return items[rng.Below(static_cast<uint32_t>(items.size()))];
}

// Deltas go to games with at least two sinks; queries to positions that
// reach at most one other. RandomGame leaves two sinks in every game, so
// neither list is ever empty.
RoundPlan PlanRound(const Instance& instance, uint64_t seed) {
  Rng rng(seed ^ 0x726f756e64ull);
  auto games_with_sinks = [](const std::vector<Game>& games) {
    std::vector<int> out;
    for (size_t g = 0; g < games.size(); ++g) {
      if (SmallPositions(games[g], 0).size() >= 2) {
        out.push_back(static_cast<int>(g));
      }
    }
    return out;
  };
  const std::vector<int> hilog_targets = games_with_sinks(instance.hilog_games);
  const std::vector<int> fo_targets = games_with_sinks(instance.fo_games);
  auto sink_pair = [&](const Game& game) {
    const std::vector<uint32_t> sinks = SmallPositions(game, 0);
    uint32_t from = Choose(rng, sinks);
    uint32_t to = from;
    while (to == from) to = Choose(rng, sinks);
    return std::make_pair(from, to);
  };
  RoundPlan plan;
  for (int d = 0; d < kDeltasPerRound; ++d) {
    DeltaPlan delta;
    delta.hilog_game = Choose(rng, hilog_targets);
    delta.fo_game = Choose(rng, fo_targets);
    delta.hilog_move = sink_pair(instance.hilog_games[delta.hilog_game]);
    delta.fo_move = sink_pair(instance.fo_games[delta.fo_game]);
    std::vector<QueryPlan> queries = {
        {true, delta.hilog_game, delta.hilog_move.first},
        {false, delta.fo_game, delta.fo_move.first}};
    while (queries.size() < kQueriesPerPublish) {
      bool hilog = queries.size() % 3 == 2;
      int g = static_cast<int>(rng.Below(hilog ? kHilogGames : kFoGames));
      const Game& game =
          hilog ? instance.hilog_games[g] : instance.fo_games[g];
      queries.push_back({hilog, g, Choose(rng, SmallPositions(game, 1))});
    }
    plan.deltas.push_back(delta);
    plan.queries.push_back(queries);
  }
  return plan;
}

std::string DeltaText(const DeltaPlan& d) {
  return MoveFact("mv" + std::to_string(d.hilog_game), d.hilog_move.first,
                  d.hilog_move.second) +
         ".\n" +
         MoveFact("fm" + std::to_string(d.fo_game), d.fo_move.first,
                  d.fo_move.second) +
         ".\n";
}

void ApplyToModel(const DeltaPlan& d, bool add, ClientModel* model) {
  auto& hm = model->instance.hilog_games[d.hilog_game].moves;
  auto& fm = model->instance.fo_games[d.fo_game].moves;
  if (add) {
    hm.insert(d.hilog_move);
    fm.insert(d.fo_move);
  } else {
    hm.erase(d.hilog_move);
    fm.erase(d.fo_move);
  }
  // Only the two touched games change; the totals are recounted whole
  // so they stay an independent path to the server's wfs counts.
  model->hilog_outcomes[d.hilog_game] =
      SolveGame(model->instance.hilog_games[d.hilog_game]);
  model->fo_outcomes[d.fo_game] =
      SolveGame(model->instance.fo_games[d.fo_game]);
  std::tie(model->true_atoms, model->undefined_atoms) =
      CountModel(model->instance);
}

ExpectedQuery Expect(const ClientModel& model, const QueryPlan& q) {
  if (q.hilog) {
    return ExpectWinning(model.instance.hilog_games[q.game],
                         model.hilog_outcomes[q.game], q.position);
  }
  return ExpectTwin(model.instance.fo_games[q.game],
                    model.fo_outcomes[q.game], q.position);
}

bool ParseReply(const std::string& line, JsonValue* out) {
  std::string error;
  return hilog::service::ParseJson(line, out, &error) && out->IsObject();
}

// Server-side totals read through the stats op.
struct ServerStats {
  uint64_t completed = 0, queue_wait_ns = 0, eval_ns = 0;
  uint64_t counters[static_cast<size_t>(Counter::kCount)] = {};

  void AddDifference(const ServerStats& from, const ServerStats& to) {
    completed += to.completed - from.completed;
    queue_wait_ns += to.queue_wait_ns - from.queue_wait_ns;
    eval_ns += to.eval_ns - from.eval_ns;
    for (size_t i = 0; i < static_cast<size_t>(Counter::kCount); ++i) {
      counters[i] += to.counters[i] - from.counters[i];
    }
  }
};

bool ReadStats(Connection* conn, ServerStats* out) {
  std::string line;
  JsonValue reply;
  if (!conn->Call("{\"op\":\"stats\"}", &line) || !ParseReply(line, &reply)) {
    return false;
  }
  out->completed = reply.GetUint("completed");
  out->queue_wait_ns = reply.GetUint("queue_wait_ns");
  out->eval_ns = reply.GetUint("eval_ns");
  const JsonValue* metrics = reply.Get("metrics");
  const JsonValue* counters = metrics ? metrics->Get("counters") : nullptr;
  if (counters == nullptr) return false;
  for (size_t i = 0; i < static_cast<size_t>(Counter::kCount); ++i) {
    out->counters[i] =
        counters->GetUint(hilog::obs::CounterName(static_cast<Counter>(i)));
  }
  return true;
}

struct ReplayTimes {
  double fork = 0, apply = 0, dred = 0, publish = 0, materialize = 0;
  uint64_t resolved = 0, skipped = 0;
  int deltas = 0;
};

// Replays one round's deltas in-process, timing each public call a
// publish and the following session catch-up consist of.
std::string ReplayInProcess(const std::string& base, const RoundPlan& plan,
                            ReplayTimes* t) {
  hilog::service::SnapshotStore store;
  if (std::string e = store.Publish(base, false, true); !e.empty()) return e;
  hilog::service::EngineSession session;
  if (std::string e = session.Materialize(*store.Current()); !e.empty()) {
    return e;
  }
  for (const DeltaPlan& d : plan.deltas) {
    for (bool add : {true, false}) {
      const std::string text = DeltaText(d);
      const std::string additions = add ? text : "";
      const std::string retractions = add ? "" : text;
      {
        auto previous = store.Current();
        int64_t mark = NowNs();
        std::unique_ptr<hilog::Engine> fork = previous->prototype().Fork();
        t->fork += MsSince(mark);
        mark = NowNs();
        std::string e = fork->ApplyDelta(additions, retractions);
        t->apply += MsSince(mark);
        if (!e.empty()) return e;
        mark = NowNs();
        fork->SolveWellFounded();
        t->dred += MsSince(mark);
        t->resolved += fork->metrics().value(Counter::kIncComponentsResolved);
        t->skipped += fork->metrics().value(Counter::kIncComponentsSkipped);
      }
      int64_t mark = NowNs();
      std::string e = store.PublishDelta(additions, retractions, true);
      t->publish += MsSince(mark);
      if (!e.empty()) return e;
      mark = NowNs();
      e = session.Materialize(*store.Current());
      t->materialize += MsSince(mark);
      if (!e.empty()) return e;
      ++t->deltas;
    }
  }
  return "";
}

}  // namespace

bool WriteServedBase(const Options& opts) {
  std::ofstream out(opts.out);
  out << ProgramText(ServedInstance(opts.seed));
  return static_cast<bool>(out.flush());
}

void RunServedMixed(const Options& opts, RunResult* result) {
  enum { kQuery = 0, kPublish = 1 };
  ReferenceHelper helper;
  if (!helper.Start()) {
    result->Fail("served_mixed: cannot start the reference process");
    return;
  }
  ClientModel model;
  model.instance = ServedInstance(opts.seed);
  model.Refresh();
  const size_t base_true = model.true_atoms;
  const size_t base_undefined = model.undefined_atoms;
  const std::string base_text = ProgramText(model.instance);
  const RoundPlan plan = PlanRound(model.instance, opts.seed);
  // Two spellings of the base, used by turns: a load whose text extends
  // the session's current text takes the session's append path and keeps
  // its warm engine, and the text composed after an add-then-retract pair
  // can be a prefix of the base's own text.
  const std::string load_requests[2] = {
      "{\"op\":\"load\",\"program\":" + JsonQuote("% a\n" + base_text) + "}",
      "{\"op\":\"load\",\"program\":" + JsonQuote("% b\n" + base_text) + "}"};
  uint64_t rounds = 0;

  Connection conn;
  if (std::string e = conn.Open(opts.socket); !e.empty()) {
    result->Fail("served_mixed: " + e);
    return;
  }

  // Checks one query reply against the client's model.
  auto check_query = [&](const QueryPlan& q, const std::string& line) {
    JsonValue reply;
    if (!ParseReply(line, &reply) || reply.GetString("status") != "ok") {
      return false;
    }
    QueryReply got;
    got.ground_status = reply.GetString("ground_status");
    if (const JsonValue* answers = reply.Get("answers")) {
      for (const JsonValue& a : answers->array) got.answers.push_back(a.string);
    }
    std::string diff = CompareQuery(Expect(model, q), got);
    if (!diff.empty()) result->Fail("served_mixed: " + diff);
    return true;
  };
  auto check_wfs = [&](size_t want_true, size_t want_undefined) {
    std::string line;
    JsonValue reply;
    if (!conn.Call("{\"op\":\"wfs\"}", &line) || !ParseReply(line, &reply) ||
        !reply.GetBool("has_wfs")) {
      result->Fail("served_mixed: wfs op failed: " + line);
      return;
    }
    if (reply.GetUint("true_atoms") != want_true ||
        reply.GetUint("undefined_atoms") != want_undefined) {
      result->Fail("served_mixed: wfs counts " +
                   std::to_string(reply.GetUint("true_atoms")) + "/" +
                   std::to_string(reply.GetUint("undefined_atoms")) +
                   ", want " + std::to_string(want_true) + "/" +
                   std::to_string(want_undefined));
    }
  };

  // One round. It starts by reloading the base, which rebuilds the
  // worker's session: every query interns terms that stay in the
  // session's store (README.md), so without the reload a run's latency
  // and memory would depend on how many queries came before. The reload
  // and the warm query after it are not timed. With `served`, the round
  // adds the server's totals over its timed part.
  auto round = [&](OpLog* log, ServerStats* served) {
    std::string line;
    // The reference task runs after a ping has come back, so the server
    // has finished with the previous request (its connection thread frees
    // the request's state after writing the reply) and the task does not
    // share the host with it.
    auto reference = [&] {
      conn.Call("{\"op\":\"ping\"}", &line);
      const double ms = helper.RunMs();
      if (ms < 0) result->Fail("served_mixed: the reference process died");
      log->AddReference(ms);
    };
    if (!conn.Call(load_requests[rounds++ % 2], &line) ||
        line.find("\"status\":\"ok\"") == std::string::npos) {
      result->Fail("served_mixed: reload failed: " + line);
      return false;
    }
    const QueryPlan& warm = plan.queries[0][2];
    std::string q = "{\"op\":\"query\",\"q\":" +
                    JsonQuote(Expect(model, warm).query) + "}";
    if (!conn.Call(q, &line) || !check_query(warm, line)) {
      result->Fail("served_mixed: warm query failed: " + line);
      return false;
    }
    ServerStats at_start, at_end;
    if (served != nullptr && !ReadStats(&conn, &at_start)) {
      result->Fail("served_mixed: stats op failed");
      return false;
    }
    for (size_t d = 0; d < plan.deltas.size(); ++d) {
      for (bool add : {true, false}) {
        const std::string text = DeltaText(plan.deltas[d]);
        const std::string request =
            "{\"op\":\"publish_delta\",\"add\":" + JsonQuote(add ? text : "") +
            ",\"retract\":" + JsonQuote(add ? "" : text) + "}";
        if (log != nullptr) reference();
        int64_t start = NowNs();
        bool ok = conn.Call(request, &line);
        const double ms = MsSince(start);
        if (log != nullptr) {
          ++result->attempted;
          log->Record(kPublish, ms);
        }
        if (!ok || line.find("\"status\":\"ok\"") == std::string::npos) {
          if (log != nullptr) ++result->failed;
          result->Fail("served_mixed: publish failed: " + line);
          return false;
        }
        ApplyToModel(plan.deltas[d], add, &model);
        check_wfs(model.true_atoms, model.undefined_atoms);
        if (!add && (model.true_atoms != base_true ||
                     model.undefined_atoms != base_undefined)) {
          result->Fail("served_mixed: client counts did not return to base");
        }
        for (const QueryPlan& qp : plan.queries[d]) {
          q = "{\"op\":\"query\",\"q\":" + JsonQuote(Expect(model, qp).query) +
              "}";
          if (log != nullptr) reference();
          start = NowNs();
          ok = conn.Call(q, &line);
          const double qms = MsSince(start);
          if (log != nullptr) {
            ++result->attempted;
            log->Record(kQuery, qms);
          }
          if (!ok) {
            result->Fail("served_mixed: no reply to " + q);
            return false;
          }
          if (!check_query(qp, line)) {
            if (log != nullptr) ++result->failed;
            result->Fail("served_mixed: query failed: " + line);
          }
        }
      }
    }
    if (served != nullptr) {
      if (!ReadStats(&conn, &at_end)) {
        result->Fail("served_mixed: stats op failed");
        return false;
      }
      served->AddDifference(at_start, at_end);
    }
    return true;
  };

  if (!round(nullptr, nullptr)) return;  // Warm-up, checked.
  check_wfs(base_true, base_undefined);
  result->end_to_end["setup_s"] = {MsSince(opts.t0_ns) / 1000.0, "s"};

  OpLog log;
  ServerStats served;
  const int64_t start = NowNs();
  while (MsSince(start) < opts.seconds * 1000.0) {
    if (!round(&log, opts.trace ? &served : nullptr)) break;
  }
  log.AddReference(helper.RunMs());
  ReportTimes(log, kQuery, /*calibrated=*/true, result);
  result->end_to_end["peak_rss_mb"] = {PeakRssMb(opts.server_pid), "MB"};

  // Shut the server down. A lost reply is tolerated (the server may
  // close the connection before writing it); run.py waits for the
  // process to exit and kills it if it does not.
  std::string line;
  conn.Call("{\"op\":\"shutdown\"}", &line);

  if (opts.trace) {
    auto& layer = result->per_layer;
    const double queries = static_cast<double>(served.completed);
    if (queries > 0) {
      layer["service.queue_wait_ms"] =
          static_cast<double>(served.queue_wait_ns) / 1e6 / queries;
      layer["service.eval_ms"] =
          static_cast<double>(served.eval_ns) / 1e6 / queries;
      layer["wire.overhead_ms"] = Mean(log.Raw(kQuery)) -
                                  layer["service.queue_wait_ms"] -
                                  layer["service.eval_ms"];
      hilog::obs::MetricsRegistry counters;
      for (size_t i = 0; i < static_cast<size_t>(Counter::kCount); ++i) {
        counters.Add(static_cast<Counter>(i), served.counters[i]);
      }
      AddCounters(counters, queries, result);
    }
    ReplayTimes t;
    if (std::string e = ReplayInProcess(base_text, plan, &t); !e.empty()) {
      result->Fail("served_mixed: in-process replay: " + e);
    } else if (t.deltas > 0) {
      const double n = t.deltas;
      layer["maint.fork_ms"] = t.fork / n;
      layer["maint.apply_delta_ms"] = t.apply / n;
      layer["maint.dred_solve_ms"] = t.dred / n;
      layer["service.publish_in_process_ms"] = t.publish / n;
      layer["service.materialize_ms"] = t.materialize / n;
      layer["publish.wire_overhead_ms"] =
          Mean(log.Raw(kPublish)) - t.publish / n;
      layer["inc.components_resolved"] = static_cast<double>(t.resolved) / n;
      layer["inc.components_skipped"] = static_cast<double>(t.skipped) / n;
      layer["inc.skip_ratio"] =
          t.resolved + t.skipped == 0
              ? 0
              : static_cast<double>(t.skipped) /
                    static_cast<double>(t.resolved + t.skipped);
    }
    layer["publish.round_trip_ms"] = Mean(log.Raw(kPublish));
  }
}

}  // namespace hlbench
