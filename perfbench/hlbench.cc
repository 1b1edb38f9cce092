// hlbench — the repository benchmark runner (see README.md).
//
//   hlbench run --workload <wfs_solve|magic_query|served_mixed>
//               --seed N --seconds S --trace 0|1 [--t0-ns NS]
//               [--socket PATH --server-pid PID]
//   hlbench gen --workload served_mixed --seed N --out FILE
//
// `run` prints one JSON result object as the last line of stdout. run.py
// builds this binary, starts hilog_server for served_mixed, and is the
// entry point the benchmark is normally launched through.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>

#include "bench.h"
#include "model.h"
#include "src/core/engine.h"
#include "src/ground/grounder.h"
#include "src/lang/parser.h"
#include "src/wfs/wfs.h"

namespace hlbench {

std::vector<double> OpLog::Calibrated(int cls) const {
  std::vector<double> out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (cls >= 0 && ops_[i].cls != cls) continue;
    const double after = i + 1 < refs_.size() ? refs_[i + 1] : refs_[i];
    const double ref = (refs_[i] + after) / 2;
    out.push_back(ops_[i].ms / ref * ReferenceTask::kNominalMs);
  }
  return out;
}

std::vector<double> OpLog::Raw(int cls) const {
  std::vector<double> out;
  for (const Op& op : ops_) {
    if (cls < 0 || op.cls == cls) out.push_back(op.ms);
  }
  return out;
}

double OpLog::MeanReferenceMs() const { return Mean(refs_); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

void ReportTimes(const OpLog& log, int cls, bool calibrated,
                 RunResult* result) {
  const std::vector<double> times =
      calibrated ? log.Calibrated(cls) : log.Raw(cls);
  const std::vector<double> all =
      calibrated ? log.Calibrated(-1) : log.Raw(-1);
  result->end_to_end["op_ms"] = {Quantile(times, 0.5), "ms"};
  result->end_to_end["op_ms_p90"] = {Quantile(times, 0.9), "ms"};
  result->end_to_end["ops_per_s"] = {1000.0 / Mean(all), "ops/s"};
  result->per_layer["host.calib_ms"] = log.MeanReferenceMs();
  std::printf("raw: op_ms=%.4f op_ms_p90=%.4f calibrated: op_ms=%.4f "
              "op_ms_p90=%.4f ops=%zu ref_ms=%.4f ref_hits=%llu\n",
              Quantile(log.Raw(cls), 0.5), Quantile(log.Raw(cls), 0.9),
              Quantile(log.Calibrated(cls), 0.5),
              Quantile(log.Calibrated(cls), 0.9), times.size(),
              log.MeanReferenceMs(),
              static_cast<unsigned long long>(log.ReferenceHits()));
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "lang.load_ms", "analysis.analyze_ms", "core.solve_wfs_ms",
      "ground.ground_ms", "wfs.solve_phase_ms", "solve.unattributed_ms",
      "ground.rules", "sched.components", "sched.cyclic_sccs",
      "wfs.gamma_applications", "kernel.ops_executed",
      "kernel.cache_hit_ratio", "col.batch_joins", "col.fallback_tuples",
      "term.interned", "term.intern_hit_ratio",
      "transform.magic_rewrite_ms", "eval.magic_eval_ms",
      "query.unattributed_ms", "query.head_ms", "query.tail_ms",
      "magic.facts_derived", "magic.magic_facts", "magic.edb_preloaded",
      "term.unifications", "term.unify_success_ratio",
      "service.queue_wait_ms", "service.eval_ms", "wire.overhead_ms",
      "service.materialize_ms", "maint.fork_ms", "maint.apply_delta_ms",
      "maint.dred_solve_ms", "service.publish_in_process_ms",
      "publish.round_trip_ms", "publish.wire_overhead_ms",
      "inc.components_resolved", "inc.components_skipped", "inc.skip_ratio",
      "host.calib_ms"};
  return names;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double PhaseMs(const hilog::obs::MetricsRegistry& m, hilog::obs::Phase p) {
  return static_cast<double>(m.phase(p).total_ns) / 1e6;
}

namespace {

using hilog::obs::Counter;
using hilog::obs::Phase;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<std::string> Strings(const hilog::TermStore& store,
                                 const std::vector<hilog::TermId>& atoms) {
  std::vector<std::string> out;
  out.reserve(atoms.size());
  for (hilog::TermId atom : atoms) out.push_back(store.ToString(atom));
  return out;
}

QueryReply ReplyOf(const hilog::Engine& engine,
                   const hilog::Engine::QueryAnswer& answer) {
  QueryReply reply;
  switch (answer.ground_status) {
    case hilog::QueryStatus::kTrue: reply.ground_status = "true"; break;
    case hilog::QueryStatus::kSettledFalse:
      reply.ground_status = "false";
      break;
    case hilog::QueryStatus::kUnsettled:
      reply.ground_status = "unsettled";
      break;
  }
  reply.answers = Strings(engine.store(), answer.answers);
  return reply;
}

// ---------------------------------------------------------------- wfs_solve

// Sizes: 40 games of 30 positions and 45 moves (mean out-degree 1.5: a
// fifth or so of the positions are sinks, and the cycles leave some
// drawn), the generic closure over 8 denser graphs of 25 positions and 75
// moves (nearly every node reaches nearly every other, so the closure's
// size hardly depends on the seed), and a 20-layer stack over 150
// elements. Many small games rather than a few large ones keep the work
// nearly the same for every seed. One operation takes 60-90 ms here.
Instance WfsInstance(uint64_t seed) {
  Rng rng(seed);
  Instance instance;
  for (int g = 0; g < 40; ++g) {
    instance.hilog_games.push_back(
        RandomGame(rng, "mv" + std::to_string(g), 30, 45));
  }
  for (int g = 0; g < 8; ++g) {
    instance.tc_graphs.push_back(
        RandomGame(rng, "tg" + std::to_string(g), 25, 75));
  }
  instance.layers = 20;
  for (int i = 0; i < 150; ++i) instance.stack_base.push_back(rng.Below(2));
  return instance;
}

}  // namespace

void AddCounters(const hilog::obs::MetricsRegistry& m, double ops,
                 RunResult* result) {
  auto per_op = [&](Counter c) {
    return static_cast<double>(m.value(c)) / ops;
  };
  auto& layer = result->per_layer;
  layer["sched.components"] = per_op(Counter::kSchedComponents);
  layer["sched.cyclic_sccs"] = per_op(Counter::kSchedCyclicSccs);
  layer["wfs.gamma_applications"] = per_op(Counter::kGammaApplications);
  layer["kernel.ops_executed"] = per_op(Counter::kKernelOpsExecuted);
  layer["kernel.cache_hit_ratio"] =
      Ratio(m.value(Counter::kKernelCacheHits),
            m.value(Counter::kKernelCacheHits) +
                m.value(Counter::kKernelProgramsCompiled));
  layer["col.batch_joins"] = per_op(Counter::kColBatchJoins);
  layer["col.fallback_tuples"] = per_op(Counter::kColFallbackTuples);
  layer["term.interned"] = per_op(Counter::kTermsInterned);
  layer["term.intern_hit_ratio"] =
      Ratio(m.value(Counter::kTermInternHits),
            m.value(Counter::kTermInternHits) +
                m.value(Counter::kTermsInterned));
  layer["magic.facts_derived"] = per_op(Counter::kMagicFactsDerived);
  layer["magic.magic_facts"] = per_op(Counter::kMagicFacts);
  layer["magic.edb_preloaded"] = per_op(Counter::kMagicEdbPreloaded);
  layer["term.unifications"] = per_op(Counter::kUnifyCalls);
  layer["term.unify_success_ratio"] =
      m.value(Counter::kUnifyCalls) == 0
          ? 0
          : 1.0 - Ratio(m.value(Counter::kUnifyFailures),
                        m.value(Counter::kUnifyCalls));
}

std::string CheckAgainstReference() {
  // Every program part on a small instance: the HiLog game with its
  // first-order twin, the closure, and the stack.
  Rng rng(7);
  Instance instance;
  Game cycle;  // p0 <-> p1 is a draw whatever the random games hold.
  cycle.name = "mv2";
  cycle.positions = 3;
  cycle.moves = {{0, 1}, {1, 0}};
  instance.hilog_games = {RandomGame(rng, "mv0", 12, 18),
                          RandomGame(rng, "mv1", 12, 18), cycle};
  instance.fo_games = {instance.hilog_games[0]};
  instance.tc_graphs = {RandomGame(rng, "tg0", 8, 16),
                        instance.hilog_games[1]};
  instance.layers = 3;
  instance.stack_base = {true, false, true};
  const std::string text = ProgramText(instance);
  const ExpectedModel want = ExpectModel(instance);

  hilog::TermStore store;
  hilog::ParseResult<hilog::Program> parsed = hilog::ParseProgram(store, text);
  if (!parsed.ok()) return "reference: parse error " + parsed.error;
  hilog::RelevanceGroundingResult ground =
      hilog::GroundWithRelevance(store, *parsed, hilog::BottomUpOptions());
  if (!ground.ok) return "reference: grounding failed " + ground.error;
  hilog::WfsResult literal = hilog::ComputeWfsViaOperator(ground.program);
  std::string diff =
      CompareModel(want, Strings(store, literal.model.TrueAtoms()),
                   Strings(store, literal.model.UndefinedAtoms()));
  if (!diff.empty()) return "oracle vs literal W_P: " + diff;

  hilog::Engine engine;
  if (std::string e = engine.Load(text); !e.empty()) return "load: " + e;
  hilog::Engine::WfsAnswer answer = engine.SolveWellFounded();
  diff = CompareModel(want, Strings(engine.store(), answer.model.TrueAtoms()),
                      Strings(engine.store(), answer.model.UndefinedAtoms()));
  if (!diff.empty()) return "engine vs literal W_P: " + diff;
  if (want.undefined_atoms.empty()) return "reference instance has no draw";
  return "";
}

void RunWfsSolve(const Options& opts, RunResult* result) {
  const Instance instance = WfsInstance(opts.seed);
  const std::string text = ProgramText(instance);
  const ExpectedModel want = ExpectModel(instance);

  // One operation: a fresh engine, Load, Analyze (which runs Figure 1),
  // SolveWellFounded. The engine is checked and destroyed untimed; in a
  // traced run its registry is kept in `counters` (one operation's worth:
  // every operation makes the same calls on a fresh engine).
  struct Timing {
    double total = 0, load = 0, analyze = 0, solve = 0, ground = 0,
           solve_phase = 0;
  };
  hilog::obs::MetricsRegistry counters;
  auto solve_once = [&](Timing* t) {
    const int64_t start = NowNs();
    auto engine = std::make_unique<hilog::Engine>();
    int64_t mark = NowNs();
    std::string error = engine->Load(text);
    if (opts.trace) t->load = MsSince(mark), mark = NowNs();
    hilog::AnalysisReport report = engine->Analyze();
    if (opts.trace) t->analyze = MsSince(mark), mark = NowNs();
    hilog::Engine::WfsAnswer answer = engine->SolveWellFounded();
    if (opts.trace) t->solve = MsSince(mark);
    t->total = MsSince(start);
    if (!error.empty() || !answer.ok || !answer.exact) {
      result->Fail("wfs_solve: " + error + answer.notes);
      return false;
    }
    if (!report.strongly_range_restricted || report.modularly_stratified) {
      result->Fail("wfs_solve: unexpected program classification");
    }
    std::string diff =
        CompareModel(want, Strings(engine->store(), answer.model.TrueAtoms()),
                     Strings(engine->store(), answer.model.UndefinedAtoms()));
    if (!diff.empty()) result->Fail("wfs_solve: " + diff);
    if (opts.trace) {
      t->ground = PhaseMs(engine->metrics(), Phase::kGround);
      t->solve_phase = PhaseMs(engine->metrics(), Phase::kSolveWfs);
      counters.Reset();
      engine->metrics().MergeInto(&counters);
    }
    return true;
  };

  for (int i = 0; i < 3; ++i) {
    Timing warm;
    solve_once(&warm);
  }
  result->end_to_end["setup_s"] = {MsSince(opts.t0_ns) / 1000.0, "s"};

  OpLog log;
  Timing sum;
  const int64_t start = NowNs();
  while (MsSince(start) < opts.seconds * 1000.0) {
    log.Reference();
    Timing t;
    ++result->attempted;
    if (!solve_once(&t)) ++result->failed;
    log.Record(0, t.total);
    sum.total += t.total, sum.load += t.load, sum.analyze += t.analyze;
    sum.solve += t.solve, sum.ground += t.ground;
    sum.solve_phase += t.solve_phase;
  }
  log.Reference();
  ReportTimes(log, 0, /*calibrated=*/true, result);
  result->end_to_end["peak_rss_mb"] = {PeakRssMb(0), "MB"};

  if (opts.trace) {
    const double n = static_cast<double>(result->attempted);
    auto& layer = result->per_layer;
    layer["lang.load_ms"] = sum.load / n;
    layer["analysis.analyze_ms"] = sum.analyze / n;
    layer["core.solve_wfs_ms"] = sum.solve / n;
    layer["ground.ground_ms"] = sum.ground / n;
    layer["wfs.solve_phase_ms"] = sum.solve_phase / n;
    layer["solve.unattributed_ms"] =
        (sum.total - sum.load - sum.analyze - sum.solve) / n;
    layer["ground.rules"] =
        static_cast<double>(counters.gauge(hilog::obs::Gauge::kGroundRules));
    AddCounters(counters, 1, result);
  }
}

// -------------------------------------------------------------- magic_query

namespace {

// The query classes of magic_query, in increasing cost.
enum QueryClass { kTail = 0, kMid = 1, kHead = 2 };

struct PlannedQuery {
  ExpectedQuery expected;
  QueryClass cls;
};

// 16 games of 100 positions and 150 moves, each also with its first-order
// twin, and the closure over 4 of them: about 2,400 EDB facts (the twins
// share the games' relations), which every query preloads.
Instance MagicInstance(uint64_t seed) {
  Rng rng(seed ^ 0x6d61676963ull);
  Instance instance;
  for (int g = 0; g < 16; ++g) {
    instance.hilog_games.push_back(
        RandomGame(rng, "mv" + std::to_string(g), 100, 150));
  }
  instance.fo_games = instance.hilog_games;
  for (int g = 0; g < 4; ++g) instance.tc_graphs.push_back(instance.hilog_games[g]);
  return instance;
}

// The query lists of one round. Tail queries ask about positions whose
// relevant set (the position and those it reaches) has at most 2
// positions, so their cost is the per-query work that does not depend on
// it; head queries about relevant sets of 49 to 53 positions with 72 to
// 78 moves. The closure's magic evaluation grows much faster with the
// relevant set than the games' (README.md), so its larger query has a
// relevant set of only 6 or 7. Each list has, in increasing cost:
//   6 first-order tails, 8 HiLog tails, 1 closure query, 1 first-order
//   head, 4 HiLog heads.
// By share that is 30 % + 40 % + 10 % + 20 %, so the median lands in the
// middle of the HiLog tails and the 90th percentile in the middle of the
// HiLog heads, each well away from the edge of its cluster. The two
// lists differ (the closure query's relevant set has at most 2 positions
// in the first and 6 or 7 in the second), so each run measures 8
// distinct HiLog heads.
std::vector<std::vector<PlannedQuery>> PlanQueries(const Instance& instance,
                                                   uint64_t seed) {
  Rng rng(seed ^ 0x717565727973ull);
  // A random (game, position) among the first `games` games whose
  // relevant set — the position and those it reaches — has a size in
  // [lo, hi] and has between `moves` and `moves` + 6 moves out of it (the
  // magic evaluation's work follows the relevant moves). The bands widen
  // until some position qualifies.
  auto pick = [&](size_t games, size_t lo, size_t hi, size_t moves) {
    std::vector<std::pair<const Game*, uint32_t>> candidates;
    for (size_t slack = 0; candidates.empty(); ++slack) {
      for (size_t g = 0; g < games; ++g) {
        const Game& game = instance.hilog_games[g];
        for (uint32_t p = 0; p < game.positions; ++p) {
          std::vector<uint32_t> relevant = Reachable(game, p);
          relevant.push_back(p);
          std::sort(relevant.begin(), relevant.end());
          relevant.erase(std::unique(relevant.begin(), relevant.end()),
                         relevant.end());
          size_t out = 0;
          for (const auto& [from, to] : game.moves) {
            out += std::binary_search(relevant.begin(), relevant.end(), from);
          }
          if (relevant.size() + slack >= lo && relevant.size() <= hi + slack &&
              (moves == 0 || (out + slack >= moves && out <= moves + 6 + slack))) {
            candidates.emplace_back(&game, p);
          }
        }
      }
    }
    return candidates[rng.Below(static_cast<uint32_t>(candidates.size()))];
  };
  const size_t games = instance.hilog_games.size();
  const size_t graphs = instance.tc_graphs.size();
  std::vector<std::vector<PlannedQuery>> lists;
  for (int list = 0; list < 2; ++list) {
    std::vector<PlannedQuery> tails, rest;
    for (int i = 0; i < 6; ++i) {
      auto [g, p] = pick(games, 1, 2, 0);
      tails.push_back({ExpectTwin(*g, SolveGame(*g), p), kTail});
    }
    for (int i = 0; i < 8; ++i) {
      auto [g, p] = pick(games, 1, 2, 0);
      tails.push_back({ExpectWinning(*g, SolveGame(*g), p), kTail});
    }
    {
      auto [g, p] = list == 0 ? pick(graphs, 1, 2, 0) : pick(graphs, 6, 7, 0);
      rest.push_back({ExpectClosure(*g, p), kMid});
      std::tie(g, p) = pick(games, 49, 53, 72);
      rest.push_back({ExpectTwin(*g, SolveGame(*g), p), kMid});
    }
    for (int i = 0; i < 4; ++i) {
      auto [g, p] = pick(games, 49, 53, 72);
      rest.push_back({ExpectWinning(*g, SolveGame(*g), p), kHead});
    }
    // A fixed interleaving of the classes.
    std::vector<PlannedQuery> mixed;
    size_t t = 0, r = 0;
    while (t < tails.size() || r < rest.size()) {
      for (int k = 0; k < 2 && t < tails.size(); ++k) {
        mixed.push_back(tails[t++]);
      }
      if (r < rest.size()) mixed.push_back(rest[r++]);
    }
    lists.push_back(std::move(mixed));
  }
  return lists;
}

}  // namespace

void RunMagicQuery(const Options& opts, RunResult* result) {
  const Instance instance = MagicInstance(opts.seed);
  const std::vector<std::vector<PlannedQuery>> lists =
      PlanQueries(instance, opts.seed);
  hilog::Engine base;
  if (std::string e = base.Load(ProgramText(instance)); !e.empty()) {
    result->Fail("magic_query: load: " + e);
    return;
  }

  // Each query runs on its own fork of the loaded engine (forked untimed):
  // every query interns terms that stay in the store (README.md), so on a
  // shared engine a query's cost would depend on how many came before.
  struct Totals {
    double total = 0, rewrite = 0, eval = 0;
    hilog::obs::MetricsRegistry metrics;
    size_t queries = 0;
  };
  auto run_list = [&](const std::vector<PlannedQuery>& list, OpLog* log,
                      Totals* totals) {
    for (const PlannedQuery& q : list) {
      std::unique_ptr<hilog::Engine> engine = base.Fork();
      if (log != nullptr) log->Reference();
      const int64_t start = NowNs();
      hilog::Engine::QueryAnswer answer = engine->Query(q.expected.query);
      const double ms = MsSince(start);
      if (log != nullptr) {
        ++result->attempted;
        log->Record(q.cls, ms);
      }
      if (!answer.ok) {
        if (log != nullptr) ++result->failed;
        result->Fail("magic_query: " + q.expected.query + ": " + answer.error);
        continue;
      }
      std::string diff = CompareQuery(q.expected, ReplyOf(*engine, answer));
      if (!diff.empty()) result->Fail("magic_query: " + diff);
      if (totals != nullptr) {
        totals->total += ms;
        totals->queries += 1;
        totals->rewrite += PhaseMs(engine->metrics(), Phase::kMagicRewrite);
        totals->eval += PhaseMs(engine->metrics(), Phase::kMagicEval);
        engine->metrics().MergeInto(&totals->metrics);
      }
    }
  };
  auto round = [&](OpLog* log, Totals* totals) {
    for (const auto& list : lists) run_list(list, log, totals);
  };

  round(nullptr, nullptr);  // Warm-up, checked.
  result->end_to_end["setup_s"] = {MsSince(opts.t0_ns) / 1000.0, "s"};

  OpLog log;
  Totals totals;
  const int64_t start = NowNs();
  while (MsSince(start) < opts.seconds * 1000.0) {
    round(&log, opts.trace ? &totals : nullptr);
  }
  log.Reference();
  ReportTimes(log, -1, /*calibrated=*/true, result);
  result->end_to_end["peak_rss_mb"] = {PeakRssMb(0), "MB"};

  if (opts.trace && totals.queries > 0) {
    const double n = static_cast<double>(totals.queries);
    auto& layer = result->per_layer;
    layer["transform.magic_rewrite_ms"] = totals.rewrite / n;
    layer["eval.magic_eval_ms"] = totals.eval / n;
    layer["query.unattributed_ms"] =
        (totals.total - totals.rewrite - totals.eval) / n;
    layer["query.head_ms"] = Mean(log.Raw(kHead));
    layer["query.tail_ms"] = Mean(log.Raw(kTail));
    AddCounters(totals.metrics, n, result);
  }
}

}  // namespace hlbench

namespace {

bool ParseArgs(int argc, char** argv, hlbench::Options* opts,
               std::string* mode) {
  if (argc < 2) return false;
  *mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--t0-ns") {
      opts->t0_ns = std::strtoll(value, nullptr, 10);
    } else if (flag == "--socket") {
      opts->socket = value;
    } else if (flag == "--server-pid") {
      opts->server_pid = std::atoi(value);
    } else if (flag == "--out") {
      opts->out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 0 && !opts->workload.empty() && opts->seconds > 0;
}

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("0");
  }
}

}  // namespace

int main(int argc, char** argv) {
  hlbench::Options opts;
  std::string mode;
  if (!ParseArgs(argc, argv, &opts, &mode)) {
    std::fprintf(stderr, "usage: see the comment at the top of hlbench.cc\n");
    return 2;
  }
  if (opts.t0_ns < 0) opts.t0_ns = hlbench::NowNs();
  if (mode == "gen") {
    return opts.workload == "served_mixed" && hlbench::WriteServedBase(opts)
               ? 0
               : 1;
  }
  if (mode != "run") return 2;

  hlbench::RunResult result;
  for (const std::string& name : hlbench::PerLayerNames()) {
    result.per_layer[name] = 0;
  }
  if (std::string e = hlbench::SelfTestOracles(); !e.empty()) {
    result.Fail("oracle self-test: " + e);
  } else if (std::string r = hlbench::CheckAgainstReference(); !r.empty()) {
    result.Fail(r);
  } else if (opts.workload == "wfs_solve") {
    hlbench::RunWfsSolve(opts, &result);
  } else if (opts.workload == "magic_query") {
    hlbench::RunMagicQuery(opts, &result);
  } else if (opts.workload == "served_mixed") {
    hlbench::RunServedMixed(opts, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
    return 2;
  }
  if (!result.correct) {
    std::fprintf(stderr, "check failed: %s\n", result.error.c_str());
  }
  if (result.attempted == 0) return 1;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  if (opts.trace) {
    for (const auto& [name, value] : result.per_layer) {
      std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
      PrintNumber(value);
      const bool is_ms = name.size() > 3 &&
                         name.compare(name.size() - 3, 3, "_ms") == 0;
      const bool is_ratio = name.find("ratio") != std::string::npos;
      std::printf(", \"unit\": \"%s\"}",
                  is_ms ? "ms" : is_ratio ? "ratio" : "count");
      first = false;
    }
  } else {
    for (const auto& [name, value] : result.end_to_end) {
      std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
      PrintNumber(value.first);
      std::printf(", \"unit\": \"%s\"}", value.second.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
