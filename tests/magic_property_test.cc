// E25: randomized agreement between query-directed magic evaluation and
// the full well-founded model, on modularly stratified (left-to-right)
// game programs — the correctness content of Section 6.1's method.

#include <gtest/gtest.h>

#include <set>

#include "random_programs.h"
#include "src/core/engine.h"
#include "src/ground/grounder.h"
#include "src/lang/parser.h"
#include "src/term/unify.h"
#include "src/wfs/alternating.h"
#include "src/wfs/wfs.h"

namespace hilog {
namespace {

class MagicPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MagicPropertyTest, MagicAgreesWithWfsOnEveryGroundAtom) {
  Engine engine;
  std::string text = testing::RandomGameProgram(GetParam(), false, 6);
  ASSERT_EQ(engine.Load(text), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok);

  // Query every winning(...) atom of the ground base and compare.
  for (TermId atom : wfs.model.atoms().atoms()) {
    if (engine.store().OutermostFunctor(atom) !=
        engine.store().MakeSymbol("winning")) {
      continue;
    }
    Engine::QueryAnswer answer =
        engine.Query(engine.store().ToString(atom));
    ASSERT_TRUE(answer.ok) << answer.error;
    TruthValue expected = wfs.model.Value(atom);
    switch (answer.ground_status) {
      case QueryStatus::kTrue:
        EXPECT_EQ(expected, TruthValue::kTrue)
            << text << "\n" << engine.store().ToString(atom);
        break;
      case QueryStatus::kSettledFalse:
        EXPECT_EQ(expected, TruthValue::kFalse)
            << text << "\n" << engine.store().ToString(atom);
        break;
      case QueryStatus::kUnsettled:
        ADD_FAILURE() << text << "\nunsettled on modularly stratified input: "
                      << engine.store().ToString(atom);
        break;
    }
  }
}

TEST_P(MagicPropertyTest, OpenQueryEnumeratesExactlyWfsTrueAtoms) {
  Engine engine;
  std::string text = testing::RandomGameProgram(GetParam() + 100, false, 5);
  ASSERT_EQ(engine.Load(text), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok);

  Engine::QueryAnswer open = engine.Query("winning(G)(X)");
  ASSERT_TRUE(open.ok) << open.error;
  std::vector<TermId> got = open.answers;
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());

  std::vector<TermId> expected;
  TermId winning = engine.store().MakeSymbol("winning");
  for (TermId atom : wfs.model.TrueAtoms()) {
    if (engine.store().OutermostFunctor(atom) == winning) {
      expected.push_back(atom);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected) << text;
}

TEST_P(MagicPropertyTest, QueryTouchesOnlyReachableFragment) {
  // Two disjoint games; a query about game 0 must not derive answer or
  // magic facts about game 1's positions beyond the EDB copy.
  Engine engine;
  std::string text = testing::RandomGameProgram(GetParam(), false, 6);
  if (text.find("mv1") == std::string::npos) return;  // One-game seed.
  ASSERT_EQ(engine.Load(text), "");
  Engine::QueryAnswer answer = engine.Query("winning(mv0)(n0)");
  ASSERT_TRUE(answer.ok);
  for (TermId atom : answer.answers) {
    EXPECT_EQ(engine.store().ToString(atom).find("winning(mv1)"),
              std::string::npos)
        << engine.store().ToString(atom);
  }
}

// Magic queries on every kind of relation a variable-named call M(X,Y)
// can bind to (RandomMoveKindsGameProgram), checked against the literal
// W_P operator over the relevance grounding, itself cross-checked with
// the alternating fixpoint. The magic evaluator drops calls that no IDB
// rule head can take; a wrong drop shows up here as a missing answer.
TEST_P(MagicPropertyTest, MoveRelationOfEveryKindAgreesWithWp) {
  const int positions = 5;
  const std::string text =
      testing::RandomMoveKindsGameProgram(GetParam(), positions);

  TermStore ref_store;
  ParseResult<Program> parsed = ParseProgram(ref_store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  RelevanceGroundingResult ground =
      GroundWithRelevance(ref_store, *parsed, BottomUpOptions());
  ASSERT_TRUE(ground.ok) << ground.error;
  WfsResult wp = ComputeWfsViaOperator(ground.program);
  WfsResult alternating = ComputeWfsAlternating(ground.program);
  auto reference = [&](const std::string& atom_text) {
    ParseResult<TermId> atom = ParseTerm(ref_store, atom_text);
    EXPECT_TRUE(atom.ok()) << atom.error;
    TruthValue value = wp.model.Value(*atom);
    EXPECT_EQ(value, alternating.model.Value(*atom)) << atom_text;
    return value;
  };

  Engine engine;
  ASSERT_EQ(engine.Load(text), "");
  std::vector<std::string> relations = {"g0", "g1", "g2", "d(k)"};
  if (text.find("game(g3)") != std::string::npos) relations.push_back("g3");
  std::vector<std::string> ground_queries;
  for (int i = 0; i <= positions; ++i) {
    const std::string p = "n" + std::to_string(i);
    for (const std::string& m : relations) {
      ground_queries.push_back("winning(" + m + ")(" + p + ")");
    }
    for (const char* g : {"g0", "g1", "g2"}) {
      ground_queries.push_back(std::string("w_") + g + "(" + p + ")");
    }
  }
  for (const std::string& q : ground_queries) {
    Engine::QueryAnswer answer = engine.Query(q);
    ASSERT_TRUE(answer.ok) << q << ": " << answer.error;
    const TruthValue expected = reference(q);
    ASSERT_NE(expected, TruthValue::kUndefined) << text << "\n" << q;
    const QueryStatus want = expected == TruthValue::kTrue
                                 ? QueryStatus::kTrue
                                 : QueryStatus::kSettledFalse;
    EXPECT_EQ(answer.ground_status, want) << text << "\n" << q;
  }

  // Open queries: winning over every game, and each move relation.
  std::vector<std::string> open_queries = {"winning(G)(X)"};
  for (const std::string& m : relations) open_queries.push_back(m + "(X,Y)");
  for (const std::string& q : open_queries) {
    Engine::QueryAnswer answer = engine.Query(q);
    ASSERT_TRUE(answer.ok) << q << ": " << answer.error;
    std::set<std::string> got;
    for (TermId atom : answer.answers) {
      got.insert(engine.store().ToString(atom));
    }
    ParseResult<TermId> pattern = ParseTerm(ref_store, q);
    ASSERT_TRUE(pattern.ok());
    std::set<std::string> expected;
    for (TermId atom : wp.model.TrueAtoms()) {
      Substitution subst;
      if (MatchInto(ref_store, *pattern, atom, &subst)) {
        expected.insert(ref_store.ToString(atom));
      }
    }
    EXPECT_EQ(got, expected) << text << "\n" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicPropertyTest,
                         ::testing::Range(1u, 31u));

}  // namespace
}  // namespace hilog
