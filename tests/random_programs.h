// Random program generators shared by the property-test suites.
#ifndef HILOG_TESTS_RANDOM_PROGRAMS_H_
#define HILOG_TESTS_RANDOM_PROGRAMS_H_

#include <random>
#include <string>
#include <vector>

namespace hilog::testing {

// A random range-restricted normal program (Definition 4.1) over a small
// vocabulary: facts over constants, rules whose head and negative
// variables are bound by positive body literals.
inline std::string RandomRangeRestrictedNormalProgram(unsigned seed) {
  std::mt19937 rng(seed);
  const char* preds[] = {"p", "q", "r", "s"};
  const char* consts[] = {"a", "b", "c"};
  std::string text;
  // Facts.
  int facts = 2 + rng() % 4;
  for (int i = 0; i < facts; ++i) {
    text += std::string(preds[rng() % 4]) + "(" + consts[rng() % 3] + ").\n";
  }
  // Rules: head(X) :- base(X) [, ~other(X)].
  int rules = 1 + rng() % 4;
  for (int i = 0; i < rules; ++i) {
    std::string head = preds[rng() % 4];
    std::string pos = preds[rng() % 4];
    text += head + "(X) :- " + pos + "(X)";
    if (rng() % 2 == 0) {
      text += ", ~" + std::string(preds[rng() % 4]) + "(X)";
    }
    text += ".\n";
  }
  return text;
}

// A random *strongly range-restricted* HiLog game program: the
// parameterized win/move rule plus acyclic move relations (Example 6.3
// family). `cyclic` injects a back edge making it non-modularly
// stratified.
inline std::string RandomGameProgram(unsigned seed, bool cyclic = false,
                                     int positions = 5) {
  std::mt19937 rng(seed);
  std::string text =
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
  int games = 1 + rng() % 2;
  for (int g = 0; g < games; ++g) {
    std::string mv = "mv" + std::to_string(g);
    text += "game(" + mv + ").\n";
    for (int i = 0; i < positions; ++i) {
      // Forward edges only: acyclic.
      int from = i;
      int to = i + 1 + static_cast<int>(rng() % 2);
      if (to > positions) to = positions;
      text += mv + "(n" + std::to_string(from) + ",n" + std::to_string(to) +
              ").\n";
    }
    if (cyclic && g == 0) {
      text += mv + "(n" + std::to_string(positions) + ",n0).\n";
    }
  }
  return text;
}

// A random HiLog game program whose parameterized rule calls its move
// relation through a variable name, M(X,Y), with game(M) binding M to
// relations of every kind a magic rewrite must tell apart:
//   g0       facts only (EDB);
//   g1       rules only, over e1 with a negated guard (IDB);
//   g2       both facts and a rule;
//   d(k)     a rule whose head name d(G) is not ground;
//   g3       (odd seeds) the bare variable-named head G(X,Y), which
//            through made(g0) also adds moves to g0.
// First-order twins w_gK(X) call g0..g2 by their ground names. Moves go
// forward only, so the program is modularly stratified left to right.
inline std::string RandomMoveKindsGameProgram(unsigned seed,
                                              int positions = 5) {
  std::mt19937 rng(seed);
  const bool bare_head = seed % 2 == 1;
  std::string text =
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
      "g1(X,Y) :- e1(X,Y), ~blocked(X).\n"
      "g2(X,Y) :- e2(X,Y).\n"
      "d(G)(X,Y) :- dmade(G), dedge(G,X,Y).\n"
      "dmade(k).\n"
      "game(g0).\ngame(g1).\ngame(g2).\ngame(d(k)).\n";
  for (const char* g : {"g0", "g1", "g2"}) {
    text += std::string("w_") + g + "(X) :- " + g + "(X,Y), ~w_" + g +
            "(Y).\n";
  }
  if (bare_head) {
    text += "G(X,Y) :- made(G), edge(G,X,Y).\nmade(g3).\nmade(g0).\n"
            "game(g3).\n";
  }
  auto pos = [](int i) { return "n" + std::to_string(i); };
  for (int i = 0; i < positions; ++i) {
    // One or two forward moves per position and relation.
    auto move = [&]() {
      int to = i + 1 + static_cast<int>(rng() % 2);
      if (to > positions) to = positions;
      return "(" + pos(i) + "," + pos(to) + ")";
    };
    if (rng() % 4 != 0) text += "g0" + move() + ".\n";
    if (rng() % 4 != 0) text += "e1" + move() + ".\n";
    if (rng() % 4 == 0) text += "blocked(" + pos(i) + ").\n";
    if (rng() % 4 != 0) {
      text += std::string(rng() % 2 == 0 ? "g2" : "e2") + move() + ".\n";
    }
    if (rng() % 4 != 0) {
      std::string m = move();
      text += "dedge(k," + m.substr(1) + ".\n";
    }
    if (bare_head && rng() % 3 == 0) {
      std::string m = move();
      text += "edge(" + std::string(rng() % 2 == 0 ? "g3," : "g0,") +
              m.substr(1) + ".\n";
    }
  }
  return text;
}

// A random pool of ground HiLog facts over plain and compound predicate
// names (p, winning(move1), f(g)) with symbol and nested-application
// arguments — the workload for index-vs-full-scan equivalence checks.
inline std::vector<std::string> RandomHiLogFacts(unsigned seed, int count) {
  std::mt19937 rng(seed);
  const char* names[] = {"p", "q", "winning(move1)", "winning(move2)",
                         "f(g)"};
  const char* consts[] = {"a", "b", "c", "d"};
  std::vector<std::string> facts;
  facts.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string atom = names[rng() % 5];
    int arity = rng() % 3;  // 0-ary through binary.
    if (arity == 0) {
      // A bare symbol atom only for non-compound names.
      if (atom.find('(') != std::string::npos) atom += "()";
    } else {
      atom += "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) atom += ",";
        if (rng() % 4 == 0) {
          atom += std::string("h(") + consts[rng() % 4] + ")";
        } else {
          atom += consts[rng() % 4];
        }
      }
      atom += ")";
    }
    facts.push_back(atom);
  }
  return facts;
}

// Random query patterns over the RandomHiLogFacts vocabulary: constants,
// compound arguments, variables in any position, and variable predicate
// names (the HiLog case that must fall back to a full scan).
inline std::vector<std::string> RandomHiLogPatterns(unsigned seed,
                                                    int count) {
  std::mt19937 rng(seed);
  const char* names[] = {"p", "q", "winning(move1)", "winning(move2)",
                         "f(g)", "G"};
  const char* args[] = {"a", "b", "c", "d", "X", "Y", "h(a)", "h(X)",
                        "h(d)"};
  std::vector<std::string> patterns;
  patterns.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string pattern = names[rng() % 6];
    int arity = rng() % 3;
    if (arity == 0) {
      if (pattern.find('(') != std::string::npos) pattern += "()";
    } else {
      pattern += "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) pattern += ",";
        pattern += args[rng() % 9];
      }
      pattern += ")";
    }
    patterns.push_back(pattern);
  }
  return patterns;
}

// A random ground normal program with negation (for WFS engine
// cross-checks): atoms a0..a{n-1}, random rules.
inline std::string RandomGroundProgram(unsigned seed, int atoms = 8,
                                       int rules = 12) {
  std::mt19937 rng(seed);
  auto atom = [&](int i) { return "a" + std::to_string(i); };
  std::string text;
  for (int r = 0; r < rules; ++r) {
    text += atom(rng() % atoms);
    int body = rng() % 3;
    if (body > 0) {
      text += " :- ";
      for (int b = 0; b < body; ++b) {
        if (b > 0) text += ", ";
        if (rng() % 3 == 0) text += "~";
        text += atom(rng() % atoms);
      }
    }
    text += ".\n";
  }
  return text;
}

}  // namespace hilog::testing

#endif  // HILOG_TESTS_RANDOM_PROGRAMS_H_
