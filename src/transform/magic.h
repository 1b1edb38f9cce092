#ifndef HILOG_TRANSFORM_MAGIC_H_
#define HILOG_TRANSFORM_MAGIC_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/lang/ast.h"
#include "src/term/term_store.h"

namespace hilog {

/// Options for the magic-sets rewriting of Section 6.1.
struct MagicRewriteOptions {
  /// Predicate names known to be EDB (defined by facts only). Subgoals on
  /// a *ground* EDB name are evaluated directly: no magic seed, no
  /// dependency bookkeeping. Subgoals whose name is a variable are always
  /// treated as IDB — the paper: "we have to assume (unless further
  /// information is given) that all predicates are IDB predicates".
  std::unordered_set<TermId> edb_names;

  /// When false, facts of EDB predicates are *not* copied into the
  /// rewritten program; the evaluator probes the caller's fact base in
  /// place instead (EvaluateMagic's `edb` argument). This makes per-query
  /// cost independent of the EDB size.
  bool include_edb_facts = true;
};

/// The rewritten program. All rewritten rules are *definite* (negation is
/// compiled away into the box/settledness machinery): a negative subgoal
/// ~A of the source program becomes the positive subgoal box(A), where
/// box(A) asserts that A has been settled false. The one non-Horn step —
///
///   box(P) <- magic(P,'-'), forall Q (dn(P,Q) -> dn'(Q)), ~P
///
/// — is evaluated natively by MagicEvaluator (eval/magic_eval.h).
struct MagicProgram {
  Program rules;
  /// The (possibly non-ground) query atom; answers are its true instances.
  TermId query = kNoTerm;

  // Special vocabulary.
  TermId magic_sym = kNoTerm;   // magic(Atom, Sign)
  TermId plus_sym = kNoTerm;    // '+': called positively
  TermId minus_sym = kNoTerm;   // '-': called negatively
  TermId box_sym = kNoTerm;     // box(Atom): settled false
  TermId dp_sym = kNoTerm;      // dp(P,Q): Q depends positively on P's call
  TermId dn_sym = kNoTerm;      // dn(P,Q): negative dependency
  TermId dns_sym = kNoTerm;     // dns(Q) = dn'(Q): Q settled

  /// Heads of the rewritten source IDB rules: (name, arity) keys of the
  /// heads with a ground predicate name, and the heads whose name is not
  /// ground. These are the only atoms a positive call can reach: the
  /// consumers of magic(A,'+') are the sup_{r,0} rules' magic(H_r,S), and
  /// those of dp(P,A) the dp/dn rules' dp(P,H_r).
  std::unordered_set<uint64_t> ground_head_keys;
  std::vector<TermId> open_heads;

  /// False only if `atom` provably unifies with no source IDB head, so a
  /// magic(atom,'+') or dp(P,atom) fact could feed no rule. A call on an
  /// EDB relation through a variable name, M(X,Y) with M bound to an EDB
  /// name, is the common case. Conservative: any doubt answers true.
  bool MayCallIdb(const TermStore& store, TermId atom) const;

  /// Human-readable rendition of the native box rule, for documentation
  /// and the Example 6.6 comparison.
  std::string BoxRuleDescription(const TermStore& store) const;
};

/// Rewrites `program` for the query atom `query` following Ross's
/// magic-sets method for modularly stratified programs, generalized to
/// HiLog as in Section 6.1 / Example 6.6:
///  - each rule r gets supplementary predicates sup_{r,0..n} threading the
///    relevant bindings left to right (variables in names and in arguments
///    are treated the same);
///  - positive IDB subgoals A emit  magic(A,'+') <- sup_{r,i-1}  and are
///    consumed directly; negative subgoals ~A emit  magic(A,'-') <- sup
///    and are consumed as box(A);
///  - dp/dn rules record the (transitive) positive/negative dependencies
///    of negatively-called atoms; dn'(Q) records settledness.
///
/// The program should be strongly range restricted, modularly stratified
/// left-to-right, and non-floundering for the evaluation to be complete;
/// the rewrite itself is defined regardless.
MagicProgram MagicRewrite(TermStore& store, const Program& program,
                          TermId query, const MagicRewriteOptions& options);

/// Collects the predicate names of `program` that are defined only by
/// ground facts and that no rule head with a non-ground name, such as
/// G(X,Y), could also define (a sound default for
/// MagicRewriteOptions::edb_names).
std::unordered_set<TermId> FactOnlyPredicates(const TermStore& store,
                                              const Program& program);

}  // namespace hilog

#endif  // HILOG_TRANSFORM_MAGIC_H_
