#include "model.h"

#include <algorithm>
#include <deque>

namespace hlbench {

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Game RandomGame(Rng& rng, std::string name, uint32_t positions,
                uint32_t moves) {
  Game game;
  game.name = std::move(name);
  game.positions = positions;
  while (game.moves.size() < moves) {
    uint32_t from = rng.Below(positions - 2);
    uint32_t to = rng.Below(positions);
    if (from != to) game.moves.emplace(from, to);
  }
  return game;
}

std::vector<Outcome> SolveGame(const Game& game) {
  const uint32_t n = game.positions;
  std::vector<std::vector<uint32_t>> preds(n);
  std::vector<uint32_t> open_moves(n, 0);
  for (const auto& [from, to] : game.moves) {
    preds[to].push_back(from);
    ++open_moves[from];
  }
  std::vector<Outcome> outcome(n, Outcome::kDrawn);
  std::deque<uint32_t> settled;
  for (uint32_t p = 0; p < n; ++p) {
    if (open_moves[p] == 0) {
      outcome[p] = Outcome::kLost;
      settled.push_back(p);
    }
  }
  while (!settled.empty()) {
    uint32_t p = settled.front();
    settled.pop_front();
    for (uint32_t q : preds[p]) {
      if (outcome[q] != Outcome::kDrawn) continue;
      if (outcome[p] == Outcome::kLost) {
        outcome[q] = Outcome::kWon;
        settled.push_back(q);
      } else if (--open_moves[q] == 0) {
        outcome[q] = Outcome::kLost;
        settled.push_back(q);
      }
    }
  }
  return outcome;
}

std::vector<uint32_t> Reachable(const Game& game, uint32_t from) {
  std::vector<std::vector<uint32_t>> succ(game.positions);
  for (const auto& [u, v] : game.moves) succ[u].push_back(v);
  std::vector<char> seen(game.positions, 0);
  std::deque<uint32_t> frontier(succ[from].begin(), succ[from].end());
  std::vector<uint32_t> out;
  while (!frontier.empty()) {
    uint32_t p = frontier.front();
    frontier.pop_front();
    if (seen[p]) continue;
    seen[p] = 1;
    out.push_back(p);
    for (uint32_t q : succ[p]) {
      if (!seen[q]) frontier.push_back(q);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Position(uint32_t p) { return "p" + std::to_string(p); }

std::string MoveFact(const std::string& game, uint32_t from, uint32_t to) {
  return game + "(" + Position(from) + "," + Position(to) + ")";
}

namespace {

std::string StackAtom(uint32_t layer, uint32_t element) {
  return "s" + std::to_string(layer) + "(c" + std::to_string(element) + ")";
}

std::string Element(const char* pred, uint32_t element) {
  return std::string(pred) + "(c" + std::to_string(element) + ")";
}

void AddGameFacts(const Game& game, std::string* text) {
  for (const auto& [from, to] : game.moves) {
    *text += MoveFact(game.name, from, to);
    *text += ".\n";
  }
}

}  // namespace

std::string ProgramText(const Instance& instance) {
  std::string text;
  std::set<std::string> emitted;  // A twin game's facts are written once.
  if (!instance.hilog_games.empty()) {
    text += "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
    for (const Game& game : instance.hilog_games) {
      text += "game(" + game.name + ").\n";
      if (emitted.insert(game.name).second) AddGameFacts(game, &text);
    }
  }
  for (const Game& game : instance.fo_games) {
    const std::string w = "w_" + game.name;
    text += w + "(X) :- " + game.name + "(X,Y), ~" + w + "(Y).\n";
    if (emitted.insert(game.name).second) AddGameFacts(game, &text);
  }
  if (!instance.tc_graphs.empty()) {
    text += "tc(G)(X,Y) :- graph(G), G(X,Y).\n";
    text += "tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y).\n";
    for (const Game& graph : instance.tc_graphs) {
      text += "graph(" + graph.name + ").\n";
      if (emitted.insert(graph.name).second) AddGameFacts(graph, &text);
    }
  }
  if (instance.layers > 0) {
    text += "s0(X) :- b(X).\n";
    for (uint32_t k = 1; k <= instance.layers; ++k) {
      text += "s" + std::to_string(k) + "(X) :- d(X), ~s" +
              std::to_string(k - 1) + "(X).\n";
    }
    for (uint32_t i = 0; i < instance.stack_base.size(); ++i) {
      text += Element("d", i) + ".\n";
      if (instance.stack_base[i]) text += Element("b", i) + ".\n";
    }
  }
  return text;
}

namespace {

void AddOutcomes(const Game& game, const std::string& pred_prefix,
                 const std::string& pred_suffix, ExpectedModel* model) {
  std::vector<Outcome> outcomes = SolveGame(game);
  for (uint32_t p = 0; p < game.positions; ++p) {
    std::string atom = pred_prefix + Position(p) + pred_suffix;
    if (outcomes[p] == Outcome::kWon) model->true_atoms.push_back(atom);
    if (outcomes[p] == Outcome::kDrawn) {
      model->undefined_atoms.push_back(atom);
    }
  }
}

}  // namespace

ExpectedModel ExpectModel(const Instance& instance) {
  ExpectedModel model;
  std::set<std::string> fact_games;
  auto add_facts = [&](const Game& game) {
    if (!fact_games.insert(game.name).second) return;
    for (const auto& [from, to] : game.moves) {
      model.true_atoms.push_back(MoveFact(game.name, from, to));
    }
  };
  for (const Game& game : instance.hilog_games) {
    model.true_atoms.push_back("game(" + game.name + ")");
    add_facts(game);
    AddOutcomes(game, "winning(" + game.name + ")(", ")", &model);
  }
  for (const Game& game : instance.fo_games) {
    add_facts(game);
    AddOutcomes(game, "w_" + game.name + "(", ")", &model);
  }
  for (const Game& graph : instance.tc_graphs) {
    model.true_atoms.push_back("graph(" + graph.name + ")");
    add_facts(graph);
    for (uint32_t x = 0; x < graph.positions; ++x) {
      for (uint32_t y : Reachable(graph, x)) {
        model.true_atoms.push_back("tc(" + graph.name + ")(" + Position(x) +
                                   "," + Position(y) + ")");
      }
    }
  }
  // Closed form of the stack: for c in d, sK(c) holds iff b(c) holds and
  // K is even, or b(c) fails and K is odd. s0 needs only b.
  for (uint32_t i = 0; i < instance.stack_base.size(); ++i) {
    const bool base = instance.stack_base[i];
    model.true_atoms.push_back(Element("d", i));
    if (base) model.true_atoms.push_back(Element("b", i));
    for (uint32_t k = 0; k <= instance.layers; ++k) {
      if (base == (k % 2 == 0)) model.true_atoms.push_back(StackAtom(k, i));
    }
  }
  std::sort(model.true_atoms.begin(), model.true_atoms.end());
  std::sort(model.undefined_atoms.begin(), model.undefined_atoms.end());
  return model;
}

std::pair<size_t, size_t> CountModel(const Instance& instance) {
  size_t true_atoms = 0, undefined_atoms = 0;
  std::set<std::string> fact_games;
  auto count = [&](const Game& game, bool facts) {
    if (facts && fact_games.insert(game.name).second) {
      true_atoms += game.moves.size();
    }
    for (Outcome o : SolveGame(game)) {
      true_atoms += o == Outcome::kWon;
      undefined_atoms += o == Outcome::kDrawn;
    }
  };
  for (const Game& game : instance.hilog_games) {
    ++true_atoms;  // game(name)
    count(game, true);
  }
  for (const Game& game : instance.fo_games) count(game, true);
  for (const Game& graph : instance.tc_graphs) {
    ++true_atoms;  // graph(name)
    if (fact_games.insert(graph.name).second) true_atoms += graph.moves.size();
    for (uint32_t x = 0; x < graph.positions; ++x) {
      true_atoms += Reachable(graph, x).size();
    }
  }
  for (bool base : instance.stack_base) {
    true_atoms += 1 + base;  // d(c), b(c)
    for (uint32_t k = 0; k <= instance.layers; ++k) {
      true_atoms += base == (k % 2 == 0);
    }
  }
  return {true_atoms, undefined_atoms};
}

namespace {

std::string FirstDifference(const std::vector<std::string>& want,
                            const std::vector<std::string>& got,
                            const char* what) {
  std::vector<std::string> missing;
  std::vector<std::string> extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  if (!missing.empty()) {
    return std::string(what) + " atom missing: " + missing.front() + " (" +
           std::to_string(missing.size()) + " missing, " +
           std::to_string(extra.size()) + " extra)";
  }
  if (!extra.empty()) {
    return std::string(what) + " atom unexpected: " + extra.front() + " (" +
           std::to_string(extra.size()) + " extra)";
  }
  if (want.size() != got.size()) {
    return std::string(what) + " atoms repeated";
  }
  return "";
}

}  // namespace

std::string CompareModel(const ExpectedModel& want,
                         std::vector<std::string> got_true,
                         std::vector<std::string> got_undefined) {
  std::sort(got_true.begin(), got_true.end());
  std::sort(got_undefined.begin(), got_undefined.end());
  std::string diff = FirstDifference(want.true_atoms, got_true, "true");
  if (diff.empty()) {
    diff = FirstDifference(want.undefined_atoms, got_undefined, "undefined");
  }
  return diff;
}

std::string CompareQuery(const ExpectedQuery& want, QueryReply got) {
  std::sort(got.answers.begin(), got.answers.end());
  if (!want.ground) {
    std::string diff = FirstDifference(want.answers, got.answers, "answer");
    return diff.empty() ? "" : want.query + ": " + diff;
  }
  const char* status = want.outcome == Outcome::kWon    ? "true"
                       : want.outcome == Outcome::kLost ? "false"
                                                        : "unsettled";
  std::vector<std::string> answers;
  if (want.outcome == Outcome::kWon) answers.push_back(want.query);
  if (got.ground_status != status) {
    return want.query + ": status " + got.ground_status + ", want " + status;
  }
  std::string diff = FirstDifference(answers, got.answers, "answer");
  return diff.empty() ? "" : want.query + ": " + diff;
}

ExpectedQuery ExpectWinning(const Game& game,
                            const std::vector<Outcome>& outcomes,
                            uint32_t position) {
  ExpectedQuery q;
  q.query = "winning(" + game.name + ")(" + Position(position) + ")";
  q.outcome = outcomes[position];
  return q;
}

ExpectedQuery ExpectTwin(const Game& game,
                         const std::vector<Outcome>& outcomes,
                         uint32_t position) {
  ExpectedQuery q;
  q.query = "w_" + game.name + "(" + Position(position) + ")";
  q.outcome = outcomes[position];
  return q;
}

ExpectedQuery ExpectClosure(const Game& game, uint32_t from) {
  ExpectedQuery q;
  const std::string head = "tc(" + game.name + ")(" + Position(from) + ",";
  q.query = head + "Y)";
  q.ground = false;
  for (uint32_t y : Reachable(game, from)) {
    q.answers.push_back(head + Position(y) + ")");
  }
  std::sort(q.answers.begin(), q.answers.end());
  return q;
}

std::string SelfTestOracles() {
  // p0 -> p1 -> p2 (sink); p3 <-> p4 (a draw), p4 -> p5 -> p6 (sink),
  // p7 -> p3. Outcomes: p2 lost, p1 won, p0 lost; p6 lost, p5 won;
  // p4 moves to p3 or p5 (won), so it depends on p3; p3 only moves to p4:
  // p3 and p4 are drawn; p7 moves only to the drawn p3, so it is drawn.
  Game game;
  game.name = "mv";
  game.positions = 8;
  game.moves = {{0, 1}, {1, 2}, {3, 4}, {4, 3}, {4, 5}, {5, 6}, {7, 3}};
  const std::vector<Outcome> want = {
      Outcome::kLost,  Outcome::kWon,   Outcome::kLost, Outcome::kDrawn,
      Outcome::kDrawn, Outcome::kWon,   Outcome::kLost, Outcome::kDrawn};
  if (SolveGame(game) != want) return "retrograde analysis: wrong outcomes";
  // Adding p3 -> p6 makes p3 won (a move to a lost sink), so p4, whose
  // moves both reach won positions, is lost, and p7 (to p3) is lost.
  Game more = game;
  more.moves.emplace(3, 6);
  const std::vector<Outcome> want_more = {
      Outcome::kLost, Outcome::kWon, Outcome::kLost, Outcome::kWon,
      Outcome::kLost, Outcome::kWon, Outcome::kLost, Outcome::kLost};
  if (SolveGame(more) != want_more) {
    return "retrograde analysis: wrong outcomes after an added move";
  }
  if (Reachable(game, 7) != std::vector<uint32_t>{3, 4, 5, 6}) {
    return "BFS reachability: wrong set from p7";
  }
  if (!Reachable(game, 6).empty()) return "BFS reachability: sink reaches";

  // Model check over all three parts; then corrupt one expected atom of
  // each kind and require a rejection.
  Instance instance;
  instance.hilog_games = {game};
  instance.tc_graphs = {game};
  instance.layers = 3;
  instance.stack_base = {true, false};
  ExpectedModel model = ExpectModel(instance);
  auto has = [](const std::vector<std::string>& v, const std::string& a) {
    return std::binary_search(v.begin(), v.end(), a);
  };
  // Layer closed form: s1(c1), s3(c1) from the odd layers over ~b(c1).
  for (const char* atom : {"winning(mv)(p1)", "winning(mv)(p5)",
                           "tc(mv)(p7,p6)", "s0(c0)", "s2(c0)", "s1(c1)",
                           "s3(c1)", "mv(p3,p4)", "game(mv)", "graph(mv)",
                           "b(c0)", "d(c1)"}) {
    if (!has(model.true_atoms, atom)) {
      return std::string("expected model lacks ") + atom;
    }
  }
  for (const char* atom : {"winning(mv)(p0)", "tc(mv)(p6,p0)", "s1(c0)",
                           "s0(c1)", "s2(c1)", "b(c1)"}) {
    if (has(model.true_atoms, atom)) {
      return std::string("expected model wrongly holds ") + atom;
    }
  }
  if (model.undefined_atoms !=
      std::vector<std::string>{"winning(mv)(p3)", "winning(mv)(p4)",
                               "winning(mv)(p7)"}) {
    return "expected model: wrong undefined atoms";
  }
  if (!CompareModel(model, model.true_atoms, model.undefined_atoms)
           .empty()) {
    return "model comparison rejects a correct model";
  }
  // The counts must match the lists, also with a first-order game beside.
  Game twin = more;
  twin.name = "fm";
  instance.fo_games = {twin};
  model = ExpectModel(instance);
  if (CountModel(instance) !=
      std::make_pair(model.true_atoms.size(), model.undefined_atoms.size())) {
    return "model counts differ from the model's lists";
  }
  instance.fo_games.clear();
  model = ExpectModel(instance);
  const std::pair<const char*, const char*> corruptions[] = {
      {"winning(mv)(p1)", "winning(mv)(p0)"},
      {"tc(mv)(p7,p6)", "tc(mv)(p6,p7)"},
      {"s3(c1)", "s3(c0)"}};
  for (const auto& [right, wrong] : corruptions) {
    ExpectedModel bad = model;
    *std::find(bad.true_atoms.begin(), bad.true_atoms.end(), right) = wrong;
    std::sort(bad.true_atoms.begin(), bad.true_atoms.end());
    if (CompareModel(bad, model.true_atoms, model.undefined_atoms).empty()) {
      return std::string("model comparison accepts ") + wrong + " for " +
             right;
    }
  }
  {
    ExpectedModel bad = model;
    bad.undefined_atoms.pop_back();
    bad.true_atoms.push_back("winning(mv)(p7)");
    std::sort(bad.true_atoms.begin(), bad.true_atoms.end());
    if (CompareModel(bad, model.true_atoms, model.undefined_atoms).empty()) {
      return "model comparison accepts a drawn position taken as won";
    }
  }

  // Query comparisons: one correct reply per kind, then a corrupted
  // expectation of each kind must be rejected.
  std::vector<Outcome> outcomes = SolveGame(game);
  struct Case {
    ExpectedQuery want;
    QueryReply reply;
  };
  std::vector<Case> cases = {
      {ExpectWinning(game, outcomes, 1), {"true", {"winning(mv)(p1)"}}},
      {ExpectWinning(game, outcomes, 0), {"false", {}}},
      {ExpectWinning(game, outcomes, 3), {"unsettled", {}}},
      {ExpectTwin(game, outcomes, 5), {"true", {"w_mv(p5)"}}},
      {ExpectClosure(game, 4),
       {"unsettled",
        {"tc(mv)(p4,p6)", "tc(mv)(p4,p3)", "tc(mv)(p4,p5)",
         "tc(mv)(p4,p4)"}}},
  };
  for (const Case& c : cases) {
    std::string diff = CompareQuery(c.want, c.reply);
    if (!diff.empty()) return "query comparison rejects a correct reply: " + diff;
    ExpectedQuery bad = c.want;
    if (bad.ground) {
      bad.outcome = bad.outcome == Outcome::kWon ? Outcome::kLost
                                                 : Outcome::kWon;
    } else {
      bad.answers.back() = "tc(mv)(p4,p7)";
      std::sort(bad.answers.begin(), bad.answers.end());
    }
    if (CompareQuery(bad, c.reply).empty()) {
      return "query comparison accepts a corrupted " + c.want.query;
    }
  }
  return "";
}

}  // namespace hlbench
