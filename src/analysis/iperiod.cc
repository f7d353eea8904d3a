#include "analysis/iperiod.h"

#include <numeric>
#include <vector>

namespace chronolog {

namespace {

/// lcm with saturation to UINT64_MAX.
uint64_t SaturatingLcm(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  uint64_t g = std::gcd(a, b);
  uint64_t a_div = a / g;
  if (a_div > UINT64_MAX / b) return UINT64_MAX;
  return a_div * b;
}

/// lcm(1..n) with saturation (saturates for n >= 43).
uint64_t SaturatingLcmRange(uint64_t n) {
  uint64_t acc = 1;
  for (uint64_t i = 2; i <= n; ++i) {
    acc = SaturatingLcm(acc, i);
    if (acc == UINT64_MAX) return UINT64_MAX;
  }
  return acc;
}

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return (a > UINT64_MAX - b) ? UINT64_MAX : a + b;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

/// 2^g with saturation.
uint64_t SaturatingPow2(uint64_t g) {
  return g >= 64 ? UINT64_MAX : (uint64_t{1} << g);
}

}  // namespace

Result<IPeriodResult> ComputeIPeriod(const Program& program,
                                     const IPeriodOptions& options) {
  const Vocabulary& vocab = program.vocab();
  DependencyGraph graph(program);
  SeparabilityReport separability = CheckSeparability(program, graph);
  if (!separability.multi_separable) {
    return FailedPreconditionError("ComputeIPeriod: program is not "
                                   "multi-separable: " + separability.reason);
  }
  ProgressivityReport progressive = CheckProgressive(program);
  if (!progressive.progressive) {
    return FailedPreconditionError("ComputeIPeriod: program is not "
                                   "progressive: " + progressive.reason);
  }

  // Entity-locality: single generic constant suffices.
  std::vector<PredicateId> temporal_preds;
  for (PredicateId p : vocab.AllPredicates()) {
    const PredicateInfo& info = vocab.predicate(p);
    if (!info.is_temporal) continue;
    if (info.arity > 1) {
      return FailedPreconditionError(
          "ComputeIPeriod: temporal predicate '" + info.name +
          "' has non-temporal arity > 1; the exact enumeration only covers "
          "single-entity schemas");
    }
    temporal_preds.push_back(p);
  }
  for (const Rule& rule : program.rules()) {
    std::vector<VarId> head_vars = rule.HeadVars();
    for (VarId v : rule.BodyVars()) {
      bool in_head = false;
      for (VarId h : head_vars) in_head |= (h == v);
      if (!in_head) {
        return FailedPreconditionError(
            "ComputeIPeriod: rule variables escape the head; entities would "
            "interact and the single-constant enumeration would be unsound");
      }
    }
    auto no_constants = [](const Atom& a) {
      for (const NtTerm& t : a.args) {
        if (t.is_constant()) return false;
      }
      return true;
    };
    if (!no_constants(rule.head)) {
      return FailedPreconditionError(
          "ComputeIPeriod: rules must not mention constants");
    }
    for (const Atom& a : rule.body) {
      if (!no_constants(a)) {
        return FailedPreconditionError(
            "ComputeIPeriod: rules must not mention constants");
      }
    }
  }

  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());
  const uint64_t bits =
      static_cast<uint64_t>(temporal_preds.size()) * static_cast<uint64_t>(g);
  if (bits > static_cast<uint64_t>(options.max_bits)) {
    return ResourceExhaustedError(
        "ComputeIPeriod: " + std::to_string(temporal_preds.size()) +
        " temporal predicates x look-back " + std::to_string(g) + " = " +
        std::to_string(bits) + " bits exceeds max_bits = " +
        std::to_string(options.max_bits));
  }

  // Enumerate every initial window: bit (i, tau) decides whether
  // temporal_preds[i] holds of the generic entity at time tau.
  IPeriodResult result;
  int64_t max_abs_start = 0;  // max over runs of (b_i + c_i)
  uint64_t p_lcm = 1;
  const uint64_t total = uint64_t{1} << bits;
  for (uint64_t mask = 0; mask < total; ++mask) {
    Database db(program.vocab_ptr());
    SymbolId entity = program.vocab_ptr()->InternConstant("$iperiod_entity");
    uint64_t bit = 0;
    for (PredicateId pred : temporal_preds) {
      for (int64_t tau = 0; tau < g; ++tau, ++bit) {
        if ((mask >> bit) & 1) {
          GroundAtom fact;
          fact.pred = pred;
          fact.time = tau;
          if (vocab.predicate(pred).arity == 1) fact.args.push_back(entity);
          db.AddFact(fact);
        }
      }
    }
    PeriodDetectionOptions fwd;
    fwd.max_horizon = options.max_horizon;
    CHRONOLOG_ASSIGN_OR_RETURN(PeriodDetection run,
                               ForwardSimulate(program, db, fwd));
    ++result.simulations;
    max_abs_start =
        std::max(max_abs_start, run.period.b + db.MaxTemporalDepth());
    p_lcm = SaturatingLcm(p_lcm, static_cast<uint64_t>(run.period.p));
  }
  if (p_lcm == UINT64_MAX) {
    return InternalError("ComputeIPeriod: lcm of cycle lengths overflowed");
  }

  // Sound I-period: every database's evolution past its own horizon c
  // enters (a closure of) one of the enumerated windows within g steps.
  result.period.b = max_abs_start + g + 1;
  result.period.p = static_cast<int64_t>(p_lcm);
  return result;
}

Result<IPeriodBound> IPeriodUpperBound(const Program& program) {
  const Vocabulary& vocab = program.vocab();
  DependencyGraph graph(program);
  SeparabilityReport separability = CheckSeparability(program, graph);
  if (!separability.multi_separable) {
    return FailedPreconditionError("IPeriodUpperBound: program is not "
                                   "multi-separable: " + separability.reason);
  }

  // Per-predicate bounds (b, p), computed in stratum order.
  std::vector<IPeriodBound> bound(vocab.num_predicates());
  std::vector<PredicateId> derived = program.DerivedPredicates();
  auto is_derived = [&derived](PredicateId p) {
    for (PredicateId d : derived) {
      if (d == p) return true;
    }
    return false;
  };

  // EDB temporal predicates: empty past the database horizon.
  for (PredicateId p : vocab.AllPredicates()) {
    bound[p] = IPeriodBound{vocab.predicate(p).is_temporal && !is_derived(p)
                                ? uint64_t{1}
                                : uint64_t{0},
                            1, false};
  }

  for (PredicateId pred : graph.TopologicalOrder()) {
    if (!is_derived(pred)) continue;
    uint64_t b_in = 0;
    uint64_t p_in = 1;
    uint64_t rule_depth = 0;
    bool time_only = false;
    bool autonomous_single_delay = true;
    uint64_t delay_lcm = 1;
    for (const Rule& rule : program.rules()) {
      if (rule.head.pred != pred) continue;
      rule_depth = std::max(rule_depth,
                            static_cast<uint64_t>(rule.MaxTemporalDepth()));
      bool recursive = IsRecursiveRule(rule);
      if (recursive && IsTimeOnlyRule(rule) && !IsDataOnlyRule(rule)) {
        time_only = true;
        int temporal_nonself = 0;
        for (const Atom& a : rule.body) {
          if (a.temporal() && a.pred != pred) ++temporal_nonself;
        }
        if (temporal_nonself > 0) autonomous_single_delay = false;
        delay_lcm = SaturatingLcm(
            delay_lcm, std::max<uint64_t>(
                           1, static_cast<uint64_t>(rule.head.temporal_depth())));
      }
      for (const Atom& a : rule.body) {
        if (a.pred == pred) continue;
        b_in = std::max(b_in, bound[a.pred].b);
        p_in = SaturatingLcm(p_in, bound[a.pred].p);
      }
    }
    IPeriodBound out;
    if (!time_only) {
      // Non-recursive or data-only stratum: inputs pass through, shifted by
      // the rule depth.
      out.b = SaturatingAdd(b_in, rule_depth);
      out.p = p_in;
    } else if (autonomous_single_delay && p_in == 1) {
      // Pure delay lines gated by eventually-constant inputs: every cycle
      // length divides one of the delays.
      out.b = SaturatingAdd(b_in, SaturatingMul(2, delay_lcm));
      out.p = delay_lcm;
    } else {
      // General driven stratum (Theorem 6.5): the per-entity automaton has
      // at most 2^g * P states, so cycle lengths are bounded by that and the
      // stratum period divides lcm(1 ... 2^g * P).
      uint64_t states = SaturatingMul(SaturatingPow2(rule_depth), p_in);
      out.b = SaturatingAdd(b_in, states);
      out.p = states == UINT64_MAX ? UINT64_MAX : SaturatingLcmRange(states);
    }
    out.saturated = (out.b == UINT64_MAX || out.p == UINT64_MAX);
    bound[pred] = out;
  }

  IPeriodBound total;
  for (PredicateId p : vocab.AllPredicates()) {
    total.b = std::max(total.b, bound[p].b);
    total.p = SaturatingLcm(total.p, bound[p].p);
  }
  total.saturated = (total.b == UINT64_MAX || total.p == UINT64_MAX);
  return total;
}

}  // namespace chronolog
