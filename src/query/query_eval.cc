#include "query/query_eval.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <set>

#include "util/metrics.h"
#include "util/trace.h"

namespace chronolog {

namespace {

/// Shared closed-formula evaluator, parameterised by the atom oracle
/// (`bool(const GroundAtom&)`) and the two quantification domains. The
/// temporal domain is the range `[0, num_times)`; the constant domain is
/// borrowed and must outlive the evaluator. Every lookup reuses one scratch
/// atom, so evaluation allocates nothing per lookup.
template <typename Oracle>
class Evaluator {
 public:
  Evaluator(const Query& query, Oracle oracle, int64_t num_times,
            const std::vector<SymbolId>& constant_domain, bool allow_equality,
            std::optional<std::chrono::steady_clock::time_point> deadline =
                std::nullopt)
      : query_(query),
        oracle_(std::move(oracle)),
        num_times_(num_times),
        constant_domain_(constant_domain),
        allow_equality_(allow_equality),
        deadline_(deadline),
        values_(query.var_names.size()) {}

  const Status& error() const { return error_; }

  /// The deadline fired: evaluation results since then are meaningless
  /// (every atom reports false) and enumeration must stop.
  bool aborted() const { return aborted_; }

  /// Binds a free variable before evaluation (row enumeration).
  void Bind(VarId v, QueryValue value) { values_[v] = value; }

  bool Eval(const QueryNode& node) {
    switch (node.kind) {
      case QueryKind::kAtom: {
        // Deadline enforcement lives here, in the oracle-lookup loop: every
        // connective and quantifier bottoms out in atoms, so an amortised
        // clock check per lookup bounds how far past the deadline a runaway
        // query can run. Once `aborted_`, atoms answer false immediately and
        // the quantifier loops below bail out.
        if (deadline_.has_value() && !aborted_ &&
            (++lookup_ticks_ & 0x3F) == 0 &&
            std::chrono::steady_clock::now() >= *deadline_) {
          aborted_ = true;
        }
        if (aborted_) return false;
        scratch_.pred = node.atom.pred;
        scratch_.time = 0;
        if (node.atom.temporal()) {
          const TemporalTerm& tt = *node.atom.time;
          scratch_.time = tt.ground() ? tt.offset
                                      : values_[tt.var].time + tt.offset;
        }
        scratch_.args.clear();
        for (const NtTerm& t : node.atom.args) {
          scratch_.args.push_back(t.is_constant() ? t.id
                                                  : values_[t.id].constant);
        }
        return oracle_(scratch_);
      }
      case QueryKind::kEqual: {
        if (!allow_equality_) {
          if (error_.ok()) {
            error_ = UnimplementedError(
                "equality is not invariant w.r.t. relational specifications "
                "(paper, Section 8): distinct ground terms can share a "
                "representative; evaluate equality queries against a "
                "materialised model instead");
          }
          return false;
        }
        return SideValue(node.eq_lhs) == SideValue(node.eq_rhs);
      }
      case QueryKind::kNot:
        return !Eval(*node.left);  // Closed World Assumption
      case QueryKind::kAnd:
        return Eval(*node.left) && Eval(*node.right);
      case QueryKind::kOr:
        return Eval(*node.left) || Eval(*node.right);
      case QueryKind::kExists:
      case QueryKind::kForall: {
        const bool exists = node.kind == QueryKind::kExists;
        if (query_.temporal_vars[node.var]) {
          for (int64_t t = 0; t < num_times_; ++t) {
            values_[node.var] = QueryValue{true, t, 0};
            if (Eval(*node.left) == exists) return exists;
            if (aborted_) return false;
          }
        } else {
          for (SymbolId c : constant_domain_) {
            values_[node.var] = QueryValue{false, 0, c};
            if (Eval(*node.left) == exists) return exists;
            if (aborted_) return false;
          }
        }
        return !exists;
      }
    }
    return false;
  }

  int64_t num_times() const { return num_times_; }
  const std::vector<SymbolId>& constant_domain() const {
    return constant_domain_;
  }

 private:
  QueryValue SideValue(const EqualitySide& side) {
    if (side.temporal) {
      int64_t t = side.time.ground()
                      ? side.time.offset
                      : values_[side.time.var].time + side.time.offset;
      return QueryValue{true, t, 0};
    }
    if (side.nt.is_constant()) return QueryValue{false, 0, side.nt.id};
    return values_[side.nt.id];
  }

  const Query& query_;
  Oracle oracle_;
  int64_t num_times_;
  const std::vector<SymbolId>& constant_domain_;
  bool allow_equality_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  uint32_t lookup_ticks_ = 0;
  bool aborted_ = false;
  std::vector<QueryValue> values_;
  GroundAtom scratch_;
  Status error_;
};

/// True when some variable of `query` (free or quantified) ranges over
/// constants; otherwise no constant domain is needed at all.
bool QuantifiesConstants(const Query& query) {
  return std::find(query.temporal_vars.begin(), query.temporal_vars.end(),
                   false) != query.temporal_vars.end();
}

/// The constants `query` mentions (its vocabulary constants and its
/// query-local ones), ascending and distinct.
std::vector<SymbolId> QueryConstants(const Query& query) {
  std::vector<SymbolId> constants;
  std::vector<const QueryNode*> stack = {query.root.get()};
  while (!stack.empty()) {
    const QueryNode* node = stack.back();
    stack.pop_back();
    if (node->kind == QueryKind::kAtom) {
      for (const NtTerm& t : node->atom.args) {
        if (t.is_constant()) constants.push_back(t.id);
      }
    }
    if (node->left != nullptr) stack.push_back(node->left.get());
    if (node->right != nullptr) stack.push_back(node->right.get());
  }
  std::sort(constants.begin(), constants.end());
  constants.erase(std::unique(constants.begin(), constants.end()),
                  constants.end());
  return constants;
}

/// Active constants: every constant in the interpretation plus every
/// constant mentioned by the query.
std::vector<SymbolId> ActiveConstants(const Query& query,
                                      const Interpretation& interp) {
  std::set<SymbolId> constants;
  interp.ForEach([&](PredicateId, int64_t, const Tuple& args) {
    for (SymbolId c : args) constants.insert(c);
  });
  for (SymbolId c : QueryConstants(query)) constants.insert(c);
  return {constants.begin(), constants.end()};
}

template <typename Oracle>
Result<QueryAnswer> Run(const Query& query, Evaluator<Oracle>& evaluator,
                        int64_t rewrite_lhs, int64_t rewrite_p,
                        uint64_t max_rows = 0) {
  QueryAnswer answer;
  answer.rewrite_lhs = rewrite_lhs;
  answer.rewrite_p = rewrite_p;
  answer.local_constants = query.local_constants;
  for (VarId v : query.free_vars) {
    answer.free_var_names.push_back(query.var_names[v]);
    answer.free_var_temporal.push_back(query.temporal_vars[v]);
  }
  if (query.closed()) {
    answer.boolean = evaluator.Eval(*query.root);
    if (!evaluator.error().ok()) return evaluator.error();
    if (evaluator.aborted()) {
      answer.boolean = false;
      answer.partial = true;
    }
    return answer;
  }

  // Enumerate assignments of the free variables (product of the domains).
  // `stop` short-circuits the recursion on a deadline abort or once the row
  // cap is reached — rows already collected stay valid either way.
  bool stop = false;
  std::vector<QueryValue> row(query.free_vars.size());
  std::function<void(std::size_t)> enumerate = [&](std::size_t i) {
    if (stop) return;
    if (i == query.free_vars.size()) {
      const bool satisfied = evaluator.Eval(*query.root);
      if (evaluator.aborted()) {
        stop = true;
        return;  // the in-flight row was cut short; discard it
      }
      if (satisfied) {
        answer.rows.push_back(row);
        if (max_rows != 0 && answer.rows.size() >= max_rows) {
          answer.truncated = true;
          stop = true;
        }
      }
      return;
    }
    VarId v = query.free_vars[i];
    if (query.temporal_vars[v]) {
      for (int64_t t = 0; t < evaluator.num_times(); ++t) {
        if (stop) return;
        row[i] = QueryValue{true, t, 0};
        evaluator.Bind(v, row[i]);
        enumerate(i + 1);
      }
    } else {
      for (SymbolId c : evaluator.constant_domain()) {
        if (stop) return;
        row[i] = QueryValue{false, 0, c};
        evaluator.Bind(v, row[i]);
        enumerate(i + 1);
      }
    }
  };
  enumerate(0);
  if (!evaluator.error().ok()) return evaluator.error();
  answer.partial = evaluator.aborted();
  answer.boolean = !answer.rows.empty();
  return answer;
}

}  // namespace

std::string QueryAnswer::ToString(const Vocabulary& vocab) const {
  std::string out;
  if (free_var_names.empty()) {
    return boolean ? "yes" : "no";
  }
  if (rows.empty()) return "no answers";
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      out += free_var_names[i] + " = ";
      out += row[i].temporal
                 ? std::to_string(row[i].time)
                 : vocab.ConstantName(row[i].constant, local_constants);
    }
    out += "\n";
  }
  if (rewrite_lhs >= 0) {
    out += "(with rewrite rule " + std::to_string(rewrite_lhs) + " -> " +
           std::to_string(rewrite_lhs - rewrite_p) +
           ": temporal answer t >= " + std::to_string(rewrite_lhs - rewrite_p) +
           " also stands for t + " + std::to_string(rewrite_p) + "k)\n";
  }
  return out;
}

std::optional<std::chrono::steady_clock::time_point> DeadlineAfter(
    std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  if (timeout.count() <= 0) return std::nullopt;
  const Clock::time_point now = Clock::now();
  // Compare in milliseconds, where neither side can overflow; one
  // millisecond of slack absorbs the truncation of the headroom.
  const auto headroom =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::time_point::max() - now) -
      std::chrono::milliseconds(1);
  return timeout < headroom ? now + timeout : Clock::time_point::max();
}

Result<QueryAnswer> EvaluateQueryOverSpec(
    const Query& query, const RelationalSpecification& spec,
    const QueryEvalOptions& options) {
  // Instruments are fetched at entry (chronolog_obs convention: an
  // instrument still empty after a metered run flags dead instrumentation).
  Counter* evaluations = nullptr;
  Histogram* latency_hist = nullptr;
  Histogram* answers_hist = nullptr;
  Counter* lookups = nullptr;
  Counter* rewrite_steps = nullptr;
  Counter* deadline_exceeded = nullptr;
  Counter* rows_truncated = nullptr;
  if (options.metrics != nullptr) {
    evaluations = options.metrics->counter("query.evaluations");
    latency_hist = options.metrics->histogram("query.latency_ns");
    answers_hist = options.metrics->histogram("query.answers");
    lookups = options.metrics->counter("query.oracle_lookups");
    rewrite_steps = options.metrics->counter("query.rewrite_steps");
    deadline_exceeded = options.metrics->counter("query.deadline_exceeded");
    rows_truncated = options.metrics->counter("query.rows_truncated");
  }
  if (evaluations != nullptr) evaluations->Add();
  // The request scope wraps the whole evaluation so every span it records
  // (query.eval and anything nested) is sliceable by request id.
  TraceScope scope(options.trace, options.request_id);
  TraceSpan span(options.trace, "query.eval");
  PhaseTimer latency_timer(latency_hist != nullptr, nullptr, latency_hist);

  // Per-request counters accumulate unconditionally (the statement store
  // and slow-query log consume them even when no registry is attached); the
  // global `query.*` counters ride along when metrics are on.
  uint64_t local_lookups = 0;
  uint64_t local_rewrites = 0;
  auto oracle = [&spec, &local_lookups, &local_rewrites, lookups,
                 rewrite_steps](const GroundAtom& atom) {
    ++local_lookups;
    if (lookups != nullptr) lookups->Add();
    if (spec.primary().IsTemporal(atom.pred) &&
        atom.time >= spec.rewrite_lhs()) {
      // Number of `lhs -> lhs - p` applications Canonicalize folds to bring
      // `t` below the rewrite threshold.
      const uint64_t steps = static_cast<uint64_t>(
          (atom.time - spec.rewrite_lhs()) / spec.period().p + 1);
      local_rewrites += steps;
      if (rewrite_steps != nullptr) rewrite_steps->Add(steps);
    }
    return spec.Ask(atom);
  };
  // Non-temporal variables range over the constants of `B` (cached by the
  // spec) plus the query's own; the merge copies only when the query
  // mentions a constant `B` lacks.
  std::vector<SymbolId> merged;
  const std::vector<SymbolId>* domain = &merged;
  if (QuantifiesConstants(query)) {
    const std::vector<SymbolId>& base = spec.primary().constants();
    const std::vector<SymbolId> own = QueryConstants(query);
    if (std::includes(base.begin(), base.end(), own.begin(), own.end())) {
      domain = &base;
    } else {
      std::set_union(base.begin(), base.end(), own.begin(), own.end(),
                     std::back_inserter(merged));
    }
  }
  Evaluator evaluator(query, oracle, spec.num_representatives(), *domain,
                      /*allow_equality=*/false, options.deadline);
  Result<QueryAnswer> answer = Run(query, evaluator, spec.rewrite_lhs(),
                                   spec.period().p, options.max_rows);
  if (answer.ok()) {
    answer->oracle_lookups = local_lookups;
    answer->rewrite_steps = local_rewrites;
    if (answers_hist != nullptr) {
      answers_hist->RecordValue(answer->free_var_names.empty()
                                    ? (answer->boolean ? 1 : 0)
                                    : answer->rows.size());
    }
    if (deadline_exceeded != nullptr && answer->partial) {
      deadline_exceeded->Add();
    }
    if (rows_truncated != nullptr && answer->truncated) rows_truncated->Add();
  }
  return answer;
}

Result<QueryAnswer> EvaluateQueryOverModel(const Query& query,
                                           const Interpretation& model,
                                           int64_t temporal_horizon) {
  // Times [0, temporal_horizon]; a negative horizon leaves the domain empty.
  const int64_t num_times = std::max<int64_t>(temporal_horizon, -1) + 1;
  const std::vector<SymbolId> domain = ActiveConstants(query, model);
  Evaluator evaluator(
      query, [&model](const GroundAtom& atom) { return model.Contains(atom); },
      num_times, domain, /*allow_equality=*/true);
  return Run(query, evaluator, /*rewrite_lhs=*/-1, /*rewrite_p=*/0);
}

}  // namespace chronolog
