#include "analysis/dataflow.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/string_util.h"

namespace chronolog {

namespace {

/// Saturating addition on the time lattice: bottom and top are absorbing,
/// finite overflow clamps toward the sign of the drift.
int64_t SatAdd(int64_t a, int64_t b) {
  if (a == kTimeBottom || b == kTimeBottom) return kTimeBottom;
  if (a == kTimeUnbounded || b == kTimeUnbounded) return kTimeUnbounded;
  int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return (a > 0) == (b > 0) && a > 0 ? kTimeUnbounded : kTimeBottom;
  }
  return sum;
}

int64_t Gcd(int64_t a, int64_t b) { return std::gcd(a, b); }

std::string PredicateList(const Vocabulary& vocab,
                          const std::vector<PredicateId>& preds) {
  std::string out;
  for (PredicateId p : preds) {
    if (!out.empty()) out += ", ";
    out += "'" + vocab.predicate(p).name + "'";
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Framework
// ---------------------------------------------------------------------------

SccRulePartition::SccRulePartition(const Program& program,
                                   const DependencyGraph& graph)
    : rules_of_component_(graph.num_components()) {
  const auto& rules = program.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const PredicateId head = rules[i].head.pred;
    if (head >= graph.num_predicates()) continue;
    rules_of_component_[graph.ComponentOf(head)].push_back(
        static_cast<int>(i));
  }
}

SccFixpointStats SolveSccFixpoint(
    const DependencyGraph& graph, const SccRulePartition& partition,
    const std::function<bool(int rule_index)>& apply_rule,
    const std::function<bool(PredicateId)>& widen,
    const std::function<void(int component)>& narrow_component) {
  SccFixpointStats stats;
  const auto& members = graph.components();
  for (int comp = 0; comp < partition.num_components(); ++comp) {
    const std::vector<int>& rules = partition.RulesOfComponent(comp);
    if (rules.empty()) continue;
    // Structural round bound: values that keep rising past it are climbing
    // a cycle and will never converge on their own.
    const int bound =
        2 * static_cast<int>(rules.size() + members[comp].size()) + 4;
    bool widened = false;
    bool changed = true;
    int round = 0;
    while (changed) {
      changed = false;
      ++round;
      ++stats.rounds;
      for (int r : rules) {
        if (apply_rule(r)) changed = true;
      }
      if (changed && round % bound == 0) {
        // Widen the whole component; the top is absorbing, and re-widening
        // at every bound multiple catches members that only started rising
        // after the previous widening, so the loop terminates.
        if (!widened) ++stats.widened_sccs;
        widened = true;
        for (PredicateId p : members[comp]) widen(p);
      }
    }
    if (widened && narrow_component != nullptr) narrow_component(comp);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Temporal-offset analysis
// ---------------------------------------------------------------------------

namespace {

/// The head-time upper bound rule `r` can contribute under per-predicate
/// bounds `last`, or kTimeBottom when the rule provably cannot fire. Sound
/// over-approximation: a fact `Q(t, ...)` requires `t <= last[Q]`, so every
/// temporal variable `v` is bounded by `min_i (last[Q_i] - b_i)` over the
/// body atoms `Q_i(v + b_i, ...)` that use it, and temporal terms never go
/// negative.
int64_t RuleCandidate(const Rule& rule, const std::vector<int64_t>& last) {
  for (const Atom& atom : rule.body) {
    if (last[atom.pred] == kTimeBottom) return kTimeBottom;
    if (atom.temporal() && atom.time->ground() &&
        last[atom.pred] != kTimeUnbounded &&
        last[atom.pred] < atom.time->offset) {
      return kTimeBottom;  // needs a fact at a time the predicate never holds
    }
  }
  std::unordered_map<VarId, int64_t> ub;  // per temporal variable
  for (const Atom& atom : rule.body) {
    if (!atom.temporal() || atom.time->ground()) continue;
    const int64_t bound = last[atom.pred] == kTimeUnbounded
                              ? kTimeUnbounded
                              : SatAdd(last[atom.pred], -atom.time->offset);
    auto [it, inserted] = ub.emplace(atom.time->var, bound);
    if (!inserted) it->second = std::min(it->second, bound);
  }
  for (const auto& [v, b] : ub) {
    if (b != kTimeUnbounded && b < 0) return kTimeBottom;
  }
  if (!rule.head.temporal()) return 0;
  if (rule.head.time->ground()) return rule.head.time->offset;
  const auto it = ub.find(rule.head.time->var);
  // An unconstrained head variable (unsafe rule — lint rejects it, but the
  // analysis must stay total) is unbounded.
  if (it == ub.end() || it->second == kTimeUnbounded) return kTimeUnbounded;
  return SatAdd(it->second, rule.head.time->offset);
}

/// gcd of the net temporal offsets around every directed cycle of a
/// strongly connected component, by the potential method: any spanning
/// assignment `pot` over the undirected closure makes every edge residual
/// `|pot[u] + w - pot[v]|` a combination of cycle sums, and their gcd is
/// exactly the cycle gcd. `edges` are (head, body, head_off - body_off).
int64_t ComponentCycleGcd(
    const std::vector<PredicateId>& members,
    const std::vector<std::tuple<PredicateId, PredicateId, int64_t>>& edges) {
  if (edges.empty()) return 0;
  std::unordered_map<PredicateId, int> local;
  for (std::size_t i = 0; i < members.size(); ++i) {
    local[members[i]] = static_cast<int>(i);
  }
  // Undirected adjacency with signed weights.
  std::vector<std::vector<std::pair<int, int64_t>>> adj(members.size());
  for (const auto& [u, v, w] : edges) {
    const int lu = local.at(u);
    const int lv = local.at(v);
    adj[lu].push_back({lv, w});
    adj[lv].push_back({lu, -w});
  }
  std::vector<int64_t> pot(members.size(), 0);
  std::vector<char> visited(members.size(), 0);
  std::vector<int> stack;
  stack.push_back(0);
  visited[0] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (const auto& [v, w] : adj[u]) {
      if (visited[v]) continue;
      visited[v] = 1;
      pot[v] = pot[u] + w;
      stack.push_back(v);
    }
  }
  int64_t g = 0;
  for (const auto& [u, v, w] : edges) {
    g = Gcd(g, std::llabs(pot[local.at(u)] + w - pot[local.at(v)]));
  }
  return g;
}

/// Exact eventual period of an EDB-seeded pure self-delay component, or 0
/// when the component does not qualify. Qualifying shape: a single temporal
/// predicate `P` whose every rule is `P(T + a, args) :- P(T + b, args)`
/// (identical argument lists, one shared temporal variable, nothing else in
/// the body), with at least one forward delta `a - b > 0`. Then each entity
/// (argument tuple) evolves independently: for large `t` it holds at
/// exactly the times congruent to one of its seed residues mod the delta
/// gcd, so the eventual pattern's minimal period is the smallest divisor
/// `q` of the gcd that maps every entity's residue set to itself — and the
/// model's minimal period is a multiple of it.
int64_t SelfDelayPeriod(const Program& program, const Database& db,
                        const std::vector<PredicateId>& members,
                        const std::vector<int>& rule_indices) {
  if (members.size() != 1) return 0;
  const PredicateId pred = members[0];
  if (!program.vocab().predicate(pred).is_temporal) return 0;
  int64_t g = 0;
  bool forward = false;
  for (int r : rule_indices) {
    const Rule& rule = program.rules()[r];
    if (rule.body.size() != 1) return 0;
    const Atom& body = rule.body[0];
    if (body.pred != pred || rule.head.pred != pred) return 0;
    if (!rule.head.temporal() || !body.temporal()) return 0;
    if (rule.head.time->ground() || body.time->ground()) return 0;
    if (rule.head.time->var != body.time->var) return 0;
    if (body.args != rule.head.args) return 0;
    const int64_t delta = rule.head.time->offset - body.time->offset;
    if (delta == 0) continue;  // tautological step, derives nothing new
    if (delta > 0) forward = true;
    g = Gcd(g, std::llabs(delta));
  }
  if (g == 0 || !forward) return 0;
  // Seed residues per entity (argument tuple), straight from the database —
  // the component has no other incoming derivation by construction.
  std::map<std::vector<SymbolId>, std::set<int64_t>> residues;
  bool seeded = false;
  for (const GroundAtom& fact : db.facts()) {
    if (fact.pred != pred) continue;
    residues[fact.args].insert(fact.time % g);
    seeded = true;
  }
  if (!seeded) return 0;  // empty predicate: nothing to claim
  for (int64_t q = 1; q <= g; ++q) {
    if (g % q != 0) continue;
    bool invariant = true;
    for (const auto& [entity, set] : residues) {
      for (int64_t s : set) {
        if (set.count((s + q) % g) == 0) {
          invariant = false;
          break;
        }
      }
      if (!invariant) break;
    }
    if (invariant) return q;
  }
  return g;
}

TemporalOffsetResult RunOffsetAnalysis(const Program& program,
                                       const Database& db,
                                       const DependencyGraph& graph,
                                       const SccRulePartition& partition,
                                       SccFixpointStats* stats) {
  const Vocabulary& vocab = program.vocab();
  const std::size_t num_preds = vocab.num_predicates();
  TemporalOffsetResult result;

  std::vector<int64_t> seed(num_preds, kTimeBottom);
  for (const GroundAtom& fact : db.facts()) {
    if (fact.pred >= num_preds) continue;
    const int64_t t = vocab.predicate(fact.pred).is_temporal ? fact.time : 0;
    seed[fact.pred] = std::max(seed[fact.pred], t);
  }
  result.last_time = seed;
  std::vector<int64_t>& last = result.last_time;

  const auto apply = [&](int r) {
    const Rule& rule = program.rules()[r];
    const int64_t candidate = RuleCandidate(rule, last);
    if (candidate == kTimeBottom || candidate <= last[rule.head.pred]) {
      return false;
    }
    last[rule.head.pred] = candidate;
    return true;
  };
  const auto widen = [&](PredicateId p) {
    // Only temporal predicates can climb; a bottom stays bottom until a
    // rule actually fires for it (a later re-widening catches it then).
    if (!vocab.predicate(p).is_temporal) return false;
    if (last[p] == kTimeBottom || last[p] == kTimeUnbounded) return false;
    last[p] = kTimeUnbounded;
    return true;
  };
  // Narrowing: Jacobi descent from the widened solution. Starting above the
  // least fixpoint and applying the (monotone) transfer simultaneously to
  // the whole component keeps every intermediate above it, so stopping at
  // any pass is sound — and one pass typically recovers the finite bound a
  // component inherits from a lower stratum.
  const auto narrow = [&](int comp) {
    const std::vector<int>& rules = partition.RulesOfComponent(comp);
    const std::vector<PredicateId>& members = graph.components()[comp];
    for (int pass = 0; pass < 3; ++pass) {
      std::unordered_map<PredicateId, int64_t> fresh;
      for (PredicateId p : members) fresh[p] = seed[p];
      for (int r : rules) {
        const Rule& rule = program.rules()[r];
        const int64_t candidate = RuleCandidate(rule, last);
        auto& slot = fresh[rule.head.pred];
        slot = std::max(slot, candidate);
      }
      bool changed = false;
      for (const auto& [p, v] : fresh) {
        if (v != last[p]) changed = true;
        last[p] = v;
      }
      if (!changed) break;
    }
  };
  *stats = SolveSccFixpoint(graph, partition, apply, widen, narrow);

  // Per-component structure: cycle gcds and self-delay periods.
  result.period_divisor = 1;
  for (int comp = 0; comp < partition.num_components(); ++comp) {
    const std::vector<int>& rules = partition.RulesOfComponent(comp);
    if (rules.empty()) continue;
    SccOffsetInfo info;
    info.component = comp;
    info.predicates = graph.components()[comp];
    std::vector<std::tuple<PredicateId, PredicateId, int64_t>> edges;
    for (int r : rules) {
      const Rule& rule = program.rules()[r];
      for (const Atom& atom : rule.body) {
        if (atom.pred >= num_preds ||
            graph.ComponentOf(atom.pred) != comp) {
          continue;
        }
        const bool uniform = rule.head.temporal() && atom.temporal() &&
                             !rule.head.time->ground() &&
                             !atom.time->ground() &&
                             rule.head.time->var == atom.time->var;
        if (uniform) {
          edges.push_back({rule.head.pred, atom.pred,
                           rule.head.time->offset - atom.time->offset});
        } else {
          info.has_nonuniform_edge = true;
        }
      }
    }
    info.cycle_gcd =
        info.has_nonuniform_edge ? 0 : ComponentCycleGcd(info.predicates, edges);
    info.bounded = true;
    for (PredicateId p : info.predicates) {
      if (last[p] == kTimeUnbounded) info.bounded = false;
    }
    if (!info.bounded) {
      info.self_delay_period =
          SelfDelayPeriod(program, db, info.predicates, rules);
      if (info.self_delay_period > 1) {
        const int64_t lcm = std::lcm(result.period_divisor,
                                     info.self_delay_period);
        // Dropping a factor keeps a divisor of the true period, so the
        // claim stays sound if the lcm would grow absurd.
        if (lcm > 0 && lcm < (int64_t{1} << 40)) {
          result.period_divisor = lcm;
        }
      }
    }
    result.sccs.push_back(std::move(info));
  }

  result.bounded = true;
  result.static_horizon = 0;
  for (std::size_t p = 0; p < num_preds; ++p) {
    if (last[p] == kTimeUnbounded) result.bounded = false;
    if (last[p] != kTimeBottom && last[p] != kTimeUnbounded) {
      result.static_horizon = std::max(result.static_horizon, last[p]);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Polynomial degree analysis
// ---------------------------------------------------------------------------

DegreeResult RunDegreeAnalysis(const Program& program, const Database& db,
                               const DependencyGraph& graph,
                               const SccRulePartition& partition) {
  const Vocabulary& vocab = program.vocab();
  const std::size_t num_preds = vocab.num_predicates();
  DegreeResult result;
  result.degree.assign(num_preds, 0);
  std::vector<int>& deg = result.degree;

  // Base: a predicate with database facts holds at most n tuples per time
  // point (and at most n^arity always).
  for (const GroundAtom& fact : db.facts()) {
    if (fact.pred >= num_preds) continue;
    deg[fact.pred] = std::max(
        deg[fact.pred],
        static_cast<int>(std::min<uint32_t>(1, vocab.predicate(fact.pred).arity)));
  }

  const auto apply = [&](int r) {
    const Rule& rule = program.rules()[r];
    const uint32_t head_arity = vocab.predicate(rule.head.pred).arity;
    int sum = 0;
    for (const Atom& atom : rule.body) {
      int d = atom.pred < num_preds ? deg[atom.pred] : 0;
      // A body atom whose time is not pinned to the head's temporal
      // variable ranges over the whole timeline: one extra factor of n.
      if (atom.temporal() && !atom.time->ground()) {
        const bool pinned = rule.head.temporal() &&
                            !rule.head.time->ground() &&
                            rule.head.time->var == atom.time->var;
        if (!pinned) d += 1;
      }
      sum += d;
      if (sum > static_cast<int>(head_arity)) break;  // cap reached
    }
    const int capped = std::min(sum, static_cast<int>(head_arity));
    if (capped <= deg[rule.head.pred]) return false;
    deg[rule.head.pred] = capped;
    return true;
  };
  // Degrees are capped at the arity, so the lattice is finite and the
  // fixpoint converges without widening.
  SolveSccFixpoint(graph, partition, apply, [](PredicateId) { return false; });

  for (const Rule& rule : program.rules()) {
    if (rule.head.pred < num_preds) {
      result.program_degree =
          std::max(result.program_degree, deg[rule.head.pred]);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Combined run and diagnostics
// ---------------------------------------------------------------------------

std::string TimeBoundToString(int64_t v) {
  if (v == kTimeBottom) return "empty";
  if (v == kTimeUnbounded) return "unbounded";
  return std::to_string(v);
}

}  // namespace

FlowAnalysis AnalyzeProgram(const Program& program, const Database& database,
                            const FlowOptions& options) {
  FlowAnalysis analysis;
  DependencyGraph graph(program);
  SccRulePartition partition(program, graph);
  const Vocabulary& vocab = program.vocab();

  analysis.offsets =
      RunOffsetAnalysis(program, database, graph, partition, &analysis.stats);
  analysis.degrees = RunDegreeAnalysis(program, database, graph, partition);

  // A-series diagnostics.
  std::vector<Diagnostic>& out = analysis.diagnostics;
  for (const SccOffsetInfo& scc : analysis.offsets.sccs) {
    const bool recursive =
        scc.predicates.size() > 1 ||
        (scc.predicates.size() == 1 && graph.IsRecursive(scc.predicates[0]));
    if (!recursive) continue;
    if (scc.cycle_gcd > 0) {
      out.push_back(MakeProgramDiagnostic(
          Severity::kNote, flow_code::kOffsetCycle,
          "SCC {" + PredicateList(vocab, scc.predicates) +
              "} advances time around its cycles in multiples of " +
              std::to_string(scc.cycle_gcd) +
              (scc.bounded ? " but stabilises (no net forward cycle fires "
                             "unboundedly)"
                           : "")));
    }
    if (!scc.bounded && scc.self_delay_period == 0) {
      out.push_back(MakeProgramDiagnostic(
          Severity::kWarning, flow_code::kUnboundedGrowth,
          "SCC {" + PredicateList(vocab, scc.predicates) +
              "} derives facts at unboundedly large times with no certified "
              "periodic structure; the minimal period may be exponential in "
              "the database (Theorem 3.1)"));
    }
  }
  if (analysis.offsets.bounded) {
    out.push_back(MakeProgramDiagnostic(
        Severity::kNote, flow_code::kStaticHorizon,
        "program is temporally bounded: no fact beyond time " +
            std::to_string(analysis.offsets.static_horizon) +
            "; the minimal period is 1 and stabilization ends by time " +
            std::to_string(SatAdd(analysis.offsets.static_horizon, 1))));
  }
  if (analysis.offsets.period_divisor > 1) {
    out.push_back(MakeProgramDiagnostic(
        Severity::kNote, flow_code::kPeriodDivisor,
        "the minimal period is a multiple of " +
            std::to_string(analysis.offsets.period_divisor) +
            " (lcm of the exact eventual periods of the EDB-seeded "
            "self-delay components)"));
  }
  for (std::size_t p = 0; p < vocab.num_predicates(); ++p) {
    if (analysis.degrees.degree[p] > options.degree_budget) {
      out.push_back(MakeProgramDiagnostic(
          Severity::kWarning, flow_code::kDegreeBudget,
          "predicate '" + vocab.predicate(p).name +
              "' has worst-case degree " +
              std::to_string(analysis.degrees.degree[p]) +
              ", above the budget of " +
              std::to_string(options.degree_budget)));
    }
  }
  out.push_back(MakeProgramDiagnostic(
      Severity::kNote, flow_code::kProgramDegree,
      "per-timestep least-model size is O(n^" +
          std::to_string(analysis.degrees.program_degree) +
          ") in the database size measure n"));
  SortDiagnostics(&out);
  return analysis;
}

const std::vector<LintPassInfo>& FlowPassRegistry() {
  static const std::vector<LintPassInfo> kPasses = {
      {"flow-offsets", "A001,A002,A003,A004",
       "SCC temporal-offset dataflow: static horizon and period-divisor "
       "bounds"},
      {"flow-degree", "A005,A006",
       "worst-case polynomial degree per predicate (per-timestep O(n^k))"},
  };
  return kPasses;
}

std::string FlowAnalysis::Summary(const Program& program) const {
  const Vocabulary& vocab = program.vocab();
  std::string out = "chronolog_flow analysis\n";
  out += "  bounded: ";
  out += offsets.bounded ? "yes" : "no";
  out += "\n  static horizon: " + std::to_string(offsets.static_horizon);
  out += "\n  period divisor: " + std::to_string(offsets.period_divisor);
  out += "\n  program degree: O(n^" + std::to_string(degrees.program_degree) +
         ")\n  predicates:\n";
  for (std::size_t p = 0; p < vocab.num_predicates(); ++p) {
    const PredicateInfo& info = vocab.predicate(p);
    out += "    " + info.name + ": last_time=" +
           TimeBoundToString(offsets.last_time[p]) +
           " degree=" + std::to_string(degrees.degree[p]) + "\n";
  }
  return out;
}

std::string FlowAnalysis::ToJson(const Program& program) const {
  const Vocabulary& vocab = program.vocab();
  std::string out = "{";
  out += "\"bounded\":";
  out += offsets.bounded ? "true" : "false";
  out += ",\"static_horizon\":" + std::to_string(offsets.static_horizon);
  out += ",\"period_divisor\":" + std::to_string(offsets.period_divisor);
  out += ",\"program_degree\":" + std::to_string(degrees.program_degree);
  out += ",\"predicates\":[";
  for (std::size_t p = 0; p < vocab.num_predicates(); ++p) {
    const PredicateInfo& info = vocab.predicate(p);
    if (p > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(info.name) + "\"";
    out += ",\"temporal\":";
    out += info.is_temporal ? "true" : "false";
    out += ",\"last_time\":";
    if (offsets.last_time[p] == kTimeBottom) {
      out += "null";
    } else if (offsets.last_time[p] == kTimeUnbounded) {
      out += "\"unbounded\"";
    } else {
      out += std::to_string(offsets.last_time[p]);
    }
    out += ",\"degree\":" + std::to_string(degrees.degree[p]) + "}";
  }
  out += "],\"sccs\":[";
  for (std::size_t i = 0; i < offsets.sccs.size(); ++i) {
    const SccOffsetInfo& scc = offsets.sccs[i];
    if (i > 0) out += ",";
    out += "{\"predicates\":[";
    for (std::size_t k = 0; k < scc.predicates.size(); ++k) {
      if (k > 0) out += ",";
      out += '"';
      out += JsonEscape(vocab.predicate(scc.predicates[k]).name);
      out += '"';
    }
    out += "],\"cycle_gcd\":" + std::to_string(scc.cycle_gcd);
    out += ",\"bounded\":";
    out += scc.bounded ? "true" : "false";
    out += ",\"self_delay_period\":" + std::to_string(scc.self_delay_period);
    out += "}";
  }
  out += "],\"diagnostics\":" + DiagnosticsToJson(diagnostics) + "}";
  return out;
}

}  // namespace chronolog
