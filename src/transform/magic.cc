#include "src/transform/magic.h"

#include <algorithm>
#include <unordered_map>

namespace hilog {
namespace {

// The supplementary-variable lists: V_i = (vars of head and B_1..B_i) that
// are still needed by (head or B_{i+1}..B_n), in first-occurrence order.
std::vector<std::vector<TermId>> SupplementaryVars(const TermStore& store,
                                                   const Rule& rule) {
  std::vector<TermId> head_vars;
  store.CollectVariables(rule.head, &head_vars);
  std::vector<std::vector<TermId>> lit_vars(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    CollectLiteralVariables(store, rule.body[i], &lit_vars[i]);
  }
  std::vector<std::vector<TermId>> sup(rule.body.size() + 1);
  for (size_t i = 0; i <= rule.body.size(); ++i) {
    // Seen: head plus body prefix.
    std::vector<TermId> seen = head_vars;
    auto push_unique = [](std::vector<TermId>* v, TermId x) {
      for (TermId y : *v) {
        if (y == x) return;
      }
      v->push_back(x);
    };
    for (size_t j = 0; j < i; ++j) {
      for (TermId v : lit_vars[j]) push_unique(&seen, v);
    }
    // Needed: head plus body suffix.
    std::vector<TermId> needed = head_vars;
    for (size_t j = i; j < rule.body.size(); ++j) {
      for (TermId v : lit_vars[j]) push_unique(&needed, v);
    }
    for (TermId v : seen) {
      for (TermId w : needed) {
        if (v == w) {
          sup[i].push_back(v);
          break;
        }
      }
    }
  }
  return sup;
}

uint64_t HeadKey(TermId name, size_t arity) {
  return uint64_t{name} << 32 | static_cast<uint32_t>(arity);
}

// Unifiability over-approximated without a substitution: a variable
// matches anything and repeated variables are not tied together, so
// false is a proof that `a` and `b` do not unify while true may be
// spurious. Past `depth` levels it gives up and answers true.
constexpr int kMayUnifyDepth = 32;

bool MayUnify(const TermStore& store, TermId a, TermId b, int depth) {
  if (a == b || store.IsVariable(a) || store.IsVariable(b)) return true;
  // Hash-consing: distinct ground terms are distinct terms.
  if (store.IsGround(a) && store.IsGround(b)) return false;
  if (!store.IsApply(a) || !store.IsApply(b)) return false;
  if (store.arity(a) != store.arity(b)) return false;
  if (depth == 0) return true;
  if (!MayUnify(store, store.apply_name(a), store.apply_name(b), depth - 1)) {
    return false;
  }
  auto args_a = store.apply_args(a);
  auto args_b = store.apply_args(b);
  for (size_t i = 0; i < args_a.size(); ++i) {
    if (!MayUnify(store, args_a[i], args_b[i], depth - 1)) return false;
  }
  return true;
}

}  // namespace

bool MagicProgram::MayCallIdb(const TermStore& store, TermId atom) const {
  TermId name = store.PredName(atom);
  if (!store.IsGround(name)) return true;
  if (ground_head_keys.count(HeadKey(name, store.arity(atom))) > 0) {
    return true;
  }
  for (TermId head : open_heads) {
    if (MayUnify(store, atom, head, kMayUnifyDepth)) return true;
  }
  return false;
}

std::string MagicProgram::BoxRuleDescription(const TermStore& store) const {
  return std::string(store.text(box_sym)) +
         "(P) <- magic(P,'-'), forall Q (dn(P,Q) -> dns(Q)), ~P";
}

std::unordered_set<TermId> FactOnlyPredicates(const TermStore& store,
                                              const Program& program) {
  std::unordered_map<TermId, bool> has_rule_body;
  std::vector<TermId> open_names;
  for (const Rule& rule : program.rules) {
    TermId name = store.PredName(rule.head);
    if (!store.IsGround(name)) {
      open_names.push_back(name);
      continue;
    }
    // A non-ground fact such as p(X) is a rule for the EDB's purposes:
    // the engine's EDB base holds ground facts only.
    const bool ruled = !rule.body.empty() || !store.IsGround(rule.head);
    auto [it, inserted] = has_rule_body.emplace(name, ruled);
    if (!inserted) it->second = it->second || ruled;
  }
  std::unordered_set<TermId> edb;
  for (const auto& [name, ruled] : has_rule_body) {
    if (ruled) continue;
    // A head whose name is not ground, such as G(X,Y), may derive atoms
    // of this name as well: then its facts are not the whole relation.
    bool open = false;
    for (TermId open_name : open_names) {
      if (MayUnify(store, open_name, name, kMayUnifyDepth)) {
        open = true;
        break;
      }
    }
    if (!open) edb.insert(name);
  }
  return edb;
}

MagicProgram MagicRewrite(TermStore& store, const Program& program,
                          TermId query, const MagicRewriteOptions& options) {
  MagicProgram out;
  out.query = query;
  out.magic_sym = store.MakeSymbol("magic");
  out.plus_sym = store.MakeSymbol("+");
  out.minus_sym = store.MakeSymbol("-");
  out.box_sym = store.MakeSymbol("box");
  out.dp_sym = store.MakeSymbol("dp");
  out.dn_sym = store.MakeSymbol("dn");
  out.dns_sym = store.MakeSymbol("dns");

  auto magic_atom = [&](TermId atom, TermId sign) {
    return store.MakeApply(out.magic_sym, {atom, sign});
  };
  auto is_edb_subgoal = [&](TermId atom) {
    TermId name = store.PredName(atom);
    return store.IsGround(name) && options.edb_names.count(name) > 0;
  };

  // Seed: magic(Q, '+'). We additionally seed magic(Q, '-') so that a
  // ground query that *fails* is actively settled false by the box
  // machinery (giving the query a definite status); for non-ground
  // queries the '-' seed is inert (box only fires on ground calls).
  {
    Rule seed;
    seed.head = magic_atom(query, out.plus_sym);
    out.rules.Add(std::move(seed));
    Rule seed_minus;
    seed_minus.head = magic_atom(query, out.minus_sym);
    out.rules.Add(std::move(seed_minus));
  }

  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& rule = program.rules[ri];
    TermId head_name = store.PredName(rule.head);
    bool head_edb =
        store.IsGround(head_name) && options.edb_names.count(head_name) > 0;
    if (head_edb) {
      // EDB relations are copied verbatim (they are facts) — unless the
      // evaluator probes the caller's EDB base in place instead.
      if (options.include_edb_facts) out.rules.Add(rule);
      continue;
    }

    if (store.IsGround(head_name)) {
      out.ground_head_keys.insert(HeadKey(head_name, store.arity(rule.head)));
    } else if (std::find(out.open_heads.begin(), out.open_heads.end(),
                         rule.head) == out.open_heads.end()) {
      out.open_heads.push_back(rule.head);
    }

    std::vector<std::vector<TermId>> sup_vars = SupplementaryVars(store, rule);
    std::vector<TermId> sup_atoms(rule.body.size() + 1);
    for (size_t i = 0; i <= rule.body.size(); ++i) {
      TermId sup_name = store.MakeSymbol(
          "sup_" + std::to_string(ri) + "_" + std::to_string(i));
      sup_atoms[i] = store.MakeApply(sup_name, sup_vars[i]);
    }

    // sup_{r,0} <- magic(H, S).
    {
      Rule r0;
      r0.head = sup_atoms[0];
      TermId sign_var = store.MakeVariable("#Sign" + std::to_string(ri));
      r0.body.push_back(Literal::Pos(magic_atom(rule.head, sign_var)));
      out.rules.Add(std::move(r0));
    }

    TermId magic_head_minus = magic_atom(rule.head, out.minus_sym);
    TermId dep_var = store.MakeVariable("#P" + std::to_string(ri));

    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      Rule step;
      step.head = sup_atoms[i + 1];
      step.body.push_back(Literal::Pos(sup_atoms[i]));
      if (lit.positive()) {
        if (!is_edb_subgoal(lit.atom)) {
          // magic(A,'+') <- sup_{r,i}.
          Rule m;
          m.head = magic_atom(lit.atom, out.plus_sym);
          m.body.push_back(Literal::Pos(sup_atoms[i]));
          out.rules.Add(std::move(m));
          // dp bookkeeping: dp(H,A) <- magic(H,'-'), sup_{r,i};
          //                 dp(P,A) <- dp(P,H), sup_{r,i}.
          Rule dp1;
          dp1.head = store.MakeApply(out.dp_sym, {rule.head, lit.atom});
          dp1.body.push_back(Literal::Pos(magic_head_minus));
          dp1.body.push_back(Literal::Pos(sup_atoms[i]));
          out.rules.Add(std::move(dp1));
          Rule dp2;
          dp2.head = store.MakeApply(out.dp_sym, {dep_var, lit.atom});
          dp2.body.push_back(
              Literal::Pos(store.MakeApply(out.dp_sym, {dep_var, rule.head})));
          dp2.body.push_back(Literal::Pos(sup_atoms[i]));
          out.rules.Add(std::move(dp2));
        }
        step.body.push_back(Literal::Pos(lit.atom));
      } else if (lit.negative()) {
        // magic(A,'-') <- sup_{r,i}.
        Rule m;
        m.head = magic_atom(lit.atom, out.minus_sym);
        m.body.push_back(Literal::Pos(sup_atoms[i]));
        out.rules.Add(std::move(m));
        // dn bookkeeping.
        Rule dn1;
        dn1.head = store.MakeApply(out.dn_sym, {rule.head, lit.atom});
        dn1.body.push_back(Literal::Pos(magic_head_minus));
        dn1.body.push_back(Literal::Pos(sup_atoms[i]));
        out.rules.Add(std::move(dn1));
        Rule dn2;
        dn2.head = store.MakeApply(out.dn_sym, {dep_var, lit.atom});
        dn2.body.push_back(
            Literal::Pos(store.MakeApply(out.dp_sym, {dep_var, rule.head})));
        dn2.body.push_back(Literal::Pos(sup_atoms[i]));
        out.rules.Add(std::move(dn2));
        // The negative subgoal is consumed as box(A): A settled false.
        step.body.push_back(
            Literal::Pos(store.MakeApply(out.box_sym, {lit.atom})));
      } else {
        // Aggregates/builtins pass through unmodified.
        step.body.push_back(lit);
      }
      out.rules.Add(std::move(step));
    }

    // Answer rule: H <- sup_{r,n}.
    Rule answer;
    answer.head = rule.head;
    answer.body.push_back(Literal::Pos(sup_atoms[rule.body.size()]));
    out.rules.Add(std::move(answer));
  }

  // Settledness rules: dns(Q) <- magic(Q,'-'), Q
  //                    dns(Q) <- magic(Q,'-'), box(Q).
  TermId q_var = store.MakeVariable("#Q");
  {
    Rule s1;
    s1.head = store.MakeApply(out.dns_sym, {q_var});
    s1.body.push_back(Literal::Pos(magic_atom(q_var, out.minus_sym)));
    s1.body.push_back(Literal::Pos(q_var));
    out.rules.Add(std::move(s1));
    Rule s2;
    s2.head = store.MakeApply(out.dns_sym, {q_var});
    s2.body.push_back(Literal::Pos(magic_atom(q_var, out.minus_sym)));
    s2.body.push_back(Literal::Pos(store.MakeApply(out.box_sym, {q_var})));
    out.rules.Add(std::move(s2));
  }

  return out;
}

}  // namespace hilog
