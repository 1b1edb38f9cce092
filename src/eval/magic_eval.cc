#include "src/eval/magic_eval.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "src/eval/cancel.h"
#include "src/eval/fact_base.h"
#include "src/eval/kernel.h"
#include "src/eval/plan.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

// Fact store that admits non-ground facts, deduplicating up to variable
// renaming. Derived ground facts live in an argument-indexed FactBase (the
// same discrimination index the bottom-up evaluators join through),
// layered over the caller's EDB base, which is probed in place and never
// copied or mutated; non-ground facts — rare, produced only by unsafe
// rewritten rules — stay in small per-name side buckets.
class VariantFactStore {
 public:
  VariantFactStore(TermStore& store, const FactBase* edb)
      : store_(store), edb_(edb) {}

  bool Insert(TermId fact) {
    if (store_.IsGround(fact)) {
      if (edb_ != nullptr && edb_->Contains(fact)) return false;
      if (!ground_.Insert(store_, fact)) return false;
      ordered_.push_back(fact);
      return true;
    }
    // Variant dedup scans only the non-ground bucket for this name:
    // ground duplicates are an O(1) membership check in the index above,
    // so the scan no longer walks every ground fact of the predicate.
    TermId name = store_.PredName(fact);
    if (!store_.IsGround(name)) name = kNoTerm;
    std::vector<TermId>& bucket = nonground_by_name_[name];
    for (TermId existing : bucket) {
      if (IsVariant(store_, existing, fact)) return false;
    }
    bucket.push_back(fact);
    ordered_.push_back(fact);
    return true;
  }

  bool ContainsGround(TermId fact) const {
    return (edb_ != nullptr && edb_->Contains(fact)) || ground_.Contains(fact);
  }

  // Candidate facts for joining against `pattern`: index-pruned ground
  // facts — the EDB's first, then the derived ones, each through a frozen
  // columnar probe — plus the non-ground facts sharing the pattern's
  // ground name. The result is copied into `*out` (a per-join-depth
  // reusable buffer), a snapshot safe under concurrent Derive()
  // insertions; `*probe` is the probes' own scratch.
  std::span<const TermId> CandidatesBatch(TermId pattern,
                                          std::vector<TermId>* out,
                                          std::vector<TermId>* probe) const {
    out->clear();
    TermId name = store_.PredName(pattern);
    if (!store_.IsGround(name)) {
      if (edb_ != nullptr) {
        out->assign(edb_->facts().begin(), edb_->facts().end());
      }
      out->insert(out->end(), ordered_.begin(), ordered_.end());
      return *out;
    }
    const std::vector<TermId>& nonground = NonGroundWithName(name);
    size_t baseline = ground_.NameBucketSize(store_, pattern) + nonground.size();
    if (edb_ != nullptr) {
      baseline += edb_->NameBucketSize(store_, pattern);
      std::span<const TermId> edb =
          edb_->CandidatesBatch(store_, pattern, probe, /*frozen=*/true);
      out->assign(edb.begin(), edb.end());
    }
    std::span<const TermId> derived =
        ground_.CandidatesBatch(store_, pattern, probe, /*frozen=*/true);
    out->insert(out->end(), derived.begin(), derived.end());
    out->insert(out->end(), nonground.begin(), nonground.end());
    if (baseline > out->size()) {
      obs::Count(obs::Counter::kUnificationsAvoided, baseline - out->size());
    }
    return *out;
  }

  /// Non-ground facts sharing the pattern's ground name (the only facts a
  /// fully ground pattern can match besides itself and unnamed ones).
  const std::vector<TermId>& NonGroundWithName(TermId name) const {
    auto it = nonground_by_name_.find(name);
    return it == nonground_by_name_.end() ? kEmpty : it->second;
  }

  /// Non-ground facts whose predicate name is itself non-ground (e.g. a
  /// bare-variable head); these can subsume atoms of any name.
  const std::vector<TermId>& NonGroundUnnamed() const {
    auto it = nonground_by_name_.find(kNoTerm);
    return it == nonground_by_name_.end() ? kEmpty : it->second;
  }

  std::vector<TermId> WithName(TermId name) const {
    std::vector<TermId> out;
    if (edb_ != nullptr) out = edb_->WithName(name);
    const std::vector<TermId>& derived = ground_.WithName(name);
    out.insert(out.end(), derived.begin(), derived.end());
    const std::vector<TermId>& nonground = NonGroundWithName(name);
    out.insert(out.end(), nonground.begin(), nonground.end());
    return out;
  }

  /// Derived facts only: the EDB is visible in place, not counted.
  size_t derived_size() const { return ordered_.size(); }

  /// Relation-size estimate for the shared join planner: the pattern's
  /// name bucket (EDB + derived ground + non-ground + unnamed) or, for a
  /// variable predicate name, the whole store.
  size_t EstimateForPattern(TermId pattern) const {
    const size_t edb_size = edb_ != nullptr ? edb_->size() : 0;
    TermId name = store_.PredName(pattern);
    if (!store_.IsGround(name)) return edb_size + ordered_.size();
    size_t estimate = ground_.WithName(name).size() +
                      NonGroundWithName(name).size() +
                      NonGroundUnnamed().size();
    if (edb_ != nullptr) estimate += edb_->WithName(name).size();
    return estimate;
  }

 private:
  TermStore& store_;
  const FactBase* edb_;
  FactBase ground_;
  std::vector<TermId> ordered_;
  std::unordered_map<TermId, std::vector<TermId>> nonground_by_name_;
  static const std::vector<TermId> kEmpty;
};

const std::vector<TermId> VariantFactStore::kEmpty;

class Evaluator {
 public:
  Evaluator(TermStore& store, const MagicProgram& magic,
            const MagicEvalOptions& options, const FactBase* edb)
      : store_(store),
        magic_(magic),
        options_(options),
        facts_(store, edb),
        kcache_(options.kernel_cache != nullptr ? options.kernel_cache
                                                : &local_kernel_cache_) {
    // EDB facts join as candidates in place; they never need to *trigger*
    // rules (all rewritten rules are driven by magic/sup deltas), so they
    // never enter the worklist.
    if (edb != nullptr) {
      obs::Count(obs::Counter::kMagicEdbPreloaded, edb->size());
    }
  }

  MagicEvalResult Run() {
    // Index rule bodies: (rule, position) keyed by the literal's ground
    // predicate name; wildcard list for variable-named literals.
    for (size_t r = 0; r < magic_.rules.rules.size(); ++r) {
      const Rule& rule = magic_.rules.rules[r];
      for (const Literal& lit : rule.body) {
        if (!lit.positive()) {
          result_.error = "magic evaluator expects definite rewritten rules";
          return result_;
        }
      }
      if (rule.body.empty()) {
        Derive(rule.head);
        continue;
      }
      for (size_t i = 0; i < rule.body.size(); ++i) {
        TermId name = store_.PredName(rule.body[i].atom);
        if (store_.IsGround(name)) {
          by_name_[name].emplace_back(r, i);
        } else {
          wildcard_.emplace_back(r, i);
        }
      }
    }

    Propagate();
    while (!result_.truncated && FireEligibleBoxes() > 0) {
      Propagate();
    }

    if (result_.cancelled) {
      result_.error = CancelReasonMessage(
          CurrentCancelToken() != nullptr ? CurrentCancelToken()->reason()
                                          : CancelReason::kCancelled);
      return result_;
    }
    CollectAnswers();
    return result_;
  }

 private:
  // Box-firing state of one negatively-called atom (see neg_calls_).
  static constexpr size_t kNotCalled = SIZE_MAX;
  struct NegativeCall {
    size_t seq = kNotCalled;  // Order of magic(P,'-'); kNotCalled before.
    size_t unsettled = 0;
    bool ready = false;  // Listed in ready_.
  };

  void Derive(TermId fact) {
    if (result_.truncated) return;
    if (IsDeadCall(fact)) return;
    // Cooperative cancellation, polled per derivation attempt; setting
    // `truncated` too makes every existing unwind guard stop the join.
    if (CancelRequested()) {
      result_.cancelled = true;
      result_.truncated = true;
      return;
    }
    if (!facts_.Insert(fact)) return;
    ++result_.facts_derived;
    obs::Count(obs::Counter::kMagicFactsDerived);
    if (facts_.derived_size() > options_.max_facts) {
      result_.truncated = true;
      return;
    }
    // Incremental indices for the box machinery.
    TermId name = store_.PredName(fact);
    if (name == magic_.magic_sym) {
      obs::Count(obs::Counter::kMagicFacts);
    }
    if (name == magic_.dn_sym && store_.arity(fact) == 2) {
      // A dependency on a non-ground Q never settles: dns(Q) is only
      // ever tracked for ground Q.
      auto args = store_.apply_args(fact);
      if (!store_.IsGround(args[1]) || settled_.count(args[1]) == 0) {
        ++neg_calls_[args[0]].unsettled;
        if (store_.IsGround(args[1])) waiters_[args[1]].push_back(args[0]);
      }
    } else if (name == magic_.dns_sym && store_.arity(fact) == 1 &&
               store_.IsGround(fact)) {
      TermId q = store_.apply_args(fact)[0];
      settled_.insert(q);
      auto it = waiters_.find(q);
      if (it != waiters_.end()) {
        for (TermId p : it->second) {
          NegativeCall& call = neg_calls_[p];
          if (--call.unsettled == 0) MarkReady(p, &call);
        }
        waiters_.erase(it);
      }
    } else if (name == magic_.magic_sym && store_.arity(fact) == 2) {
      auto args = store_.apply_args(fact);
      if (args[1] == magic_.minus_sym && store_.IsGround(args[0])) {
        NegativeCall& call = neg_calls_[args[0]];
        call.seq = next_call_seq_++;
        if (call.unsettled == 0) MarkReady(args[0], &call);
      }
    }
    worklist_.push_back(fact);
  }

  void MarkReady(TermId p, NegativeCall* call) {
    if (call->seq == kNotCalled || call->ready) return;
    call->ready = true;
    ready_.push_back(p);
  }

  // magic(A,'+') and dp(P,A) facts are consumed only by rules whose body
  // holds a source IDB head in A's place; when A can unify with none
  // (typically M(X,Y) with M bound to an EDB name), no rule can use them.
  bool IsDeadCall(TermId fact) const {
    if (store_.arity(fact) != 2) return false;
    TermId name = store_.PredName(fact);
    auto args = store_.apply_args(fact);
    if (name == magic_.magic_sym) {
      return args[1] == magic_.plus_sym && !magic_.MayCallIdb(store_, args[0]);
    }
    if (name == magic_.dp_sym) return !magic_.MayCallIdb(store_, args[1]);
    return false;
  }

  // Joins the body positions `order[depth..]` of `rule` (order[0] is the
  // already-unified trigger position), extending `subst`; derives head
  // instances.
  void JoinFrom(const Rule& rule, const std::vector<size_t>& order,
                size_t depth, Substitution subst) {
    if (result_.truncated) return;
    if (depth == order.size()) {
      Derive(subst.Apply(store_, rule.head));
      return;
    }
    TermId pattern = subst.Apply(store_, rule.body[order[depth]].atom);
    if (store_.IsGround(pattern)) {
      // Fast path: a ground subgoal is satisfied by the identical fact or
      // by a non-ground fact subsuming it — no bucket scan. Subsumption is
      // one-way matching into a throwaway substitution: the goal is
      // ground, so the witness binds none of the rule's variables.
      if (facts_.ContainsGround(pattern)) {
        JoinFrom(rule, order, depth + 1, subst);
        if (result_.truncated) return;
      }
      for (const std::vector<TermId>* bucket :
           {&facts_.NonGroundWithName(store_.PredName(pattern)),
            &facts_.NonGroundUnnamed()}) {
        for (TermId fact : *bucket) {
          Substitution witness;
          if (MatchInto(store_, fact, pattern, &witness)) {
            JoinFrom(rule, order, depth + 1, subst);
            break;  // One subsumption witness suffices for a ground goal.
          }
        }
        if (result_.truncated) return;
      }
      return;
    }
    // Snapshot into this depth's scratch frame: new facts derived below
    // re-trigger via the worklist. Deeper recursion uses deeper frames,
    // so the span stays stable across the whole candidate walk.
    Frame& frame = frames_[depth];
    std::span<const TermId> candidates =
        facts_.CandidatesBatch(pattern, &frame.candidates, &frame.probe);
    for (TermId fact : candidates) {
      TermId target = fact;
      if (!store_.IsGround(fact)) {
        target = RenameApart(store_, fact, nullptr);
      }
      Substitution extended = subst;
      if (UnifyInto(store_, pattern, target, &extended)) {
        JoinFrom(rule, order, depth + 1, std::move(extended));
      }
      if (result_.truncated) return;
    }
  }

  // Unifies body position `position` of the rule with `fact` and joins
  // the rest. The rule's own variables are used as they are: `fact` and
  // every non-ground join candidate are renamed apart before unifying, so
  // nothing they carry can collide with them. (Derived facts may keep a
  // rule's unbound variables; the renaming covers them too.)
  void TriggerAt(size_t rule_index, size_t position, TermId fact) {
    const Rule& rule = magic_.rules.rules[rule_index];
    Substitution subst;
    if (!UnifyInto(store_, rule.body[position].atom, fact, &subst)) return;
    // Remaining positions joined in shared-planner order, with the
    // trigger position pinned first (its variables are already bound).
    // With rule compilation on, the order comes from the compiled rule,
    // whose cached analysis skips the per-trigger variable traversals.
    // The join itself keeps the unification machinery: variant facts may
    // be non-ground, which MatchResolvedInto's ground-binding
    // precondition rules out.
    std::vector<size_t> order;
    if (RuleCompilationEnabled()) {
      std::shared_ptr<const KernelProgram> program = kcache_->Get(
          store_, rule,
          [&](TermId atom) { return facts_.EstimateForPattern(atom); },
          position);
      order = program->order;
    } else {
      std::vector<TermId> body_atoms;
      body_atoms.reserve(rule.body.size());
      for (const Literal& lit : rule.body) body_atoms.push_back(lit.atom);
      order = PlanJoinOrder(
          store_, body_atoms,
          [&](TermId atom) { return facts_.EstimateForPattern(atom); },
          position);
    }
    // One scratch frame per join depth, sized up-front so JoinFrom never
    // reallocates the frame array mid-recursion.
    if (frames_.size() < order.size() + 1) frames_.resize(order.size() + 1);
    JoinFrom(rule, order, 1, std::move(subst));
  }

  void Propagate() {
    while (!worklist_.empty() && !result_.truncated) {
      if (CancelRequested()) {
        result_.cancelled = true;
        result_.truncated = true;
        return;
      }
      TermId fact = worklist_.front();
      worklist_.pop_front();
      TermId name = store_.PredName(fact);
      // A non-ground fact is renamed apart once for all its triggers:
      // each trigger unifies into its own substitution.
      if (!store_.IsGround(fact)) fact = RenameApart(store_, fact, nullptr);
      auto it = by_name_.find(name);
      if (it != by_name_.end()) {
        for (const auto& [r, i] : it->second) TriggerAt(r, i, fact);
      }
      for (const auto& [r, i] : wildcard_) TriggerAt(r, i, fact);
    }
  }

  // True if some fact subsumes the ground atom (i.e. the atom is
  // "currently true").
  bool CurrentlyTrue(TermId ground_atom) {
    if (facts_.ContainsGround(ground_atom)) return true;
    for (const std::vector<TermId>* bucket :
         {&facts_.NonGroundWithName(store_.PredName(ground_atom)),
          &facts_.NonGroundUnnamed()}) {
      for (TermId fact : *bucket) {
        Substitution subst;
        if (MatchInto(store_, fact, ground_atom, &subst)) return true;
      }
    }
    return false;
  }

  // Fires box(P) for every currently eligible negatively-called P and
  // returns how many fired. Batch firing is sound: a candidate is
  // eligible only when all of its recorded (transitively complete)
  // negative dependencies are settled, so no other box in the same batch
  // can change its truth. Only the calls whose unsettled count reached 0
  // since the last batch are examined, and they fire in call order.
  size_t FireEligibleBoxes() {
    std::vector<std::pair<size_t, TermId>> batch;
    for (TermId p : ready_) {
      NegativeCall& call = neg_calls_[p];
      call.ready = false;
      // A dependency recorded since it became ready puts it back on
      // hold; reaching 0 again re-marks it.
      if (call.unsettled > 0) continue;
      TermId box_p = store_.MakeApply(magic_.box_sym, {p});
      if (facts_.ContainsGround(box_p) || CurrentlyTrue(p)) continue;
      batch.emplace_back(call.seq, box_p);
    }
    ready_.clear();
    std::sort(batch.begin(), batch.end());
    size_t fired = 0;
    for (const auto& [seq, box_p] : batch) {
      if (result_.box_firings >= options_.max_box_firings) {
        result_.truncated = true;
        break;
      }
      ++result_.box_firings;
      obs::Count(obs::Counter::kMagicBoxFirings);
      ++fired;
      Derive(box_p);
    }
    return fired;
  }

  void CollectAnswers() {
    // Answers: ground facts that are instances of the query.
    std::vector<TermId> scratch;
    std::vector<TermId> probe;
    for (TermId fact : facts_.CandidatesBatch(magic_.query, &scratch, &probe)) {
      if (!store_.IsGround(fact)) continue;
      if (store_.PredName(fact) == magic_.magic_sym ||
          store_.PredName(fact) == magic_.box_sym) {
        continue;
      }
      Substitution subst;
      if (MatchInto(store_, magic_.query, fact, &subst)) {
        result_.answers.push_back(fact);
      }
    }
    // Settled-false query instances.
    for (TermId fact : facts_.WithName(magic_.box_sym)) {
      TermId inner = store_.apply_args(fact)[0];
      Substitution subst;
      if (MatchInto(store_, magic_.query, inner, &subst)) {
        result_.settled_false.push_back(inner);
      }
    }
    // Unsettled negative calls.
    for (TermId fact : facts_.WithName(magic_.magic_sym)) {
      auto args = store_.apply_args(fact);
      if (args.size() != 2 || args[1] != magic_.minus_sym) continue;
      TermId p = args[0];
      if (!store_.IsGround(p)) continue;
      TermId box_p = store_.MakeApply(magic_.box_sym, {p});
      if (!facts_.ContainsGround(box_p) && !CurrentlyTrue(p)) {
        result_.unsettled_negative_calls.push_back(p);
      }
    }
    if (store_.IsGround(magic_.query)) {
      if (CurrentlyTrue(magic_.query)) {
        result_.ground_status = QueryStatus::kTrue;
      } else if (facts_.ContainsGround(
                     store_.MakeApply(magic_.box_sym, {magic_.query}))) {
        result_.ground_status = QueryStatus::kSettledFalse;
      } else {
        result_.ground_status = QueryStatus::kUnsettled;
      }
    }
  }

  TermStore& store_;
  const MagicProgram& magic_;
  MagicEvalOptions options_;
  VariantFactStore facts_;
  // Compiled-rule cache for the join orders; the fallback is per-run, so
  // triggers still amortize within one evaluation. Declared before
  // kcache_, which may point at it.
  KernelCache local_kernel_cache_;
  KernelCache* kcache_;
  std::deque<TermId> worklist_;
  std::unordered_map<TermId, std::vector<std::pair<size_t, size_t>>> by_name_;
  std::vector<std::pair<size_t, size_t>> wildcard_;
  // Incremental indices for box firing. Per negatively-called P: when
  // magic(P,'-') was derived and how many of its recorded negative
  // dependencies dn(P,Q) are unsettled (no dns(Q) yet). Per unsettled
  // ground Q: the callers waiting on it. `ready_` holds the called P
  // whose count reached 0 since the last batch.
  std::unordered_map<TermId, NegativeCall> neg_calls_;
  std::unordered_map<TermId, std::vector<TermId>> waiters_;
  std::unordered_set<TermId> settled_;
  std::vector<TermId> ready_;
  size_t next_call_seq_ = 0;
  // Per-join-depth candidate buffers reused across every trigger and
  // semi-naive propagation (see CandidatesBatch).
  struct Frame {
    std::vector<TermId> candidates;
    std::vector<TermId> probe;
  };
  std::vector<Frame> frames_;
  MagicEvalResult result_;
};

}  // namespace

MagicEvalResult EvaluateMagic(TermStore& store, const MagicProgram& magic,
                              const MagicEvalOptions& options,
                              const FactBase* edb) {
  obs::ScopedPhaseTimer timer(obs::Phase::kMagicEval);
  Evaluator evaluator(store, magic, options, edb);
  return evaluator.Run();
}

}  // namespace hilog
