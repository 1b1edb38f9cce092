// Seeded input generation and the independent answer oracles.
//
// Nothing here calls into the engine: the programs are emitted as text,
// and the expected answers come from plain graph algorithms (retrograde
// game analysis, BFS) and a closed form, so a check compares two
// computations that share no code.
#ifndef HILOG_PERFBENCH_MODEL_H_
#define HILOG_PERFBENCH_MODEL_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hlbench {

/// SplitMix64: fixed output for a fixed seed on every platform (the
/// standard library's distributions are not portable across versions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n), n > 0.
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// A move graph over positions p0..p{n-1}, stored as the relation
/// `name(pU,pV)`.
struct Game {
  std::string name;
  uint32_t positions = 0;
  std::set<std::pair<uint32_t, uint32_t>> moves;
};

/// Exactly `moves` distinct non-loop edges drawn uniformly, except that
/// the last two positions never move, so every game has at least two
/// sinks. Mean out-degree moves/positions: there are sinks (lost
/// positions), cycles (drawn positions) and won positions.
Game RandomGame(Rng& rng, std::string name, uint32_t positions,
                uint32_t moves);

/// The outcome of one position under optimal play, where a player who
/// cannot move loses — in the well-founded model of
/// `win(X) :- move(X,Y), ~win(Y)` won is true, lost is false and drawn is
/// undefined.
enum class Outcome : uint8_t { kLost, kWon, kDrawn };

/// Retrograde analysis: sinks are lost; a position with a move to a lost
/// position is won; a position all of whose moves reach won positions is
/// lost; whatever is never labelled is drawn.
std::vector<Outcome> SolveGame(const Game& game);

/// BFS: the positions reachable from `from` in one or more moves.
std::vector<uint32_t> Reachable(const Game& game, uint32_t from);

/// A generated program together with the facts it was built from. Which
/// parts are present depends on the workload.
struct Instance {
  /// Games of the Example 6.3 rule
  ///   winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).
  std::vector<Game> hilog_games;
  /// Games with one first-order rule each:
  ///   w_<name>(X) :- <name>(X,Y), ~w_<name>(Y).
  /// A game may appear both here and in hilog_games (the twin).
  std::vector<Game> fo_games;
  /// Graphs registered as `graph(G)` for the guarded generic closure
  /// (Examples 2.1 and 5.3); a graph may share its name (and facts) with
  /// a game above:
  ///   tc(G)(X,Y) :- graph(G), G(X,Y).
  ///   tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y).
  std::vector<Game> tc_graphs;
  /// The layered-negation stack over d(c0..c{domain-1}), b ⊆ d:
  ///   s0(X) :- b(X).   sK(X) :- d(X), ~s{K-1}(X).   for K = 1..layers
  uint32_t layers = 0;
  std::vector<bool> stack_base;  // b(cI) iff stack_base[I].
};

std::string ProgramText(const Instance& instance);

std::string MoveFact(const std::string& game, uint32_t from, uint32_t to);
std::string Position(uint32_t p);

/// The well-founded model the oracles predict, as sorted atom strings in
/// the engine's printed form.
struct ExpectedModel {
  std::vector<std::string> true_atoms;
  std::vector<std::string> undefined_atoms;
};

ExpectedModel ExpectModel(const Instance& instance);

/// The sizes of ExpectModel's two lists, counted without building them.
std::pair<size_t, size_t> CountModel(const Instance& instance);

/// "" when `got` (true atoms, undefined atoms; any order) is exactly
/// `want`, else a description of the first difference.
std::string CompareModel(const ExpectedModel& want,
                         std::vector<std::string> got_true,
                         std::vector<std::string> got_undefined);

/// The answer a bound query should produce.
struct ExpectedQuery {
  std::string query;
  /// For ground queries (winning(g)(x), w_g(x)): the outcome.
  bool ground = true;
  Outcome outcome = Outcome::kLost;
  /// For open queries (tc(g)(x,Y)): the sorted answer atoms.
  std::vector<std::string> answers;
};

/// How the engine reported a query, in engine-independent terms.
struct QueryReply {
  std::string ground_status;  // "true", "false" or "unsettled".
  std::vector<std::string> answers;
};

/// "" when `got` matches `want`, else the difference. A ground query
/// matches when won ↔ "true" with the query as its single answer,
/// lost ↔ "false" and drawn ↔ "unsettled", both with no answers.
std::string CompareQuery(const ExpectedQuery& want, QueryReply got);

ExpectedQuery ExpectWinning(const Game& game,
                            const std::vector<Outcome>& outcomes,
                            uint32_t position);
ExpectedQuery ExpectTwin(const Game& game,
                         const std::vector<Outcome>& outcomes,
                         uint32_t position);
ExpectedQuery ExpectClosure(const Game& game, uint32_t from);

/// Runs every oracle on small hand-made cases with known answers, and
/// checks that each comparison rejects a deliberately corrupted
/// expectation. Returns "" or the first failure.
std::string SelfTestOracles();

}  // namespace hlbench

#endif  // HILOG_PERFBENCH_MODEL_H_
