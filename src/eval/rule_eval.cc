#include "eval/rule_eval.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <span>
#include <vector>

#include "util/metrics.h"

namespace chronolog {

namespace {

/// Mutable binding environment for one rule evaluation. VarIds index both
/// arrays; the rule's sort table decides which one is live for a variable.
struct Bindings {
  std::vector<int64_t> tval;
  std::vector<SymbolId> nval;
  std::vector<char> bound;

  /// Unbinds all `n` variables, keeping the arrays' capacity.
  void Reset(std::size_t n) {
    tval.assign(n, 0);
    nval.assign(n, 0);
    bound.assign(n, 0);
  }
};

/// Undo log of variables bound while matching one atom.
using Trail = std::vector<VarId>;

/// No delta range bounds a cursor: it stops at the cell's visible rows.
constexpr uint32_t kOpenEnd = ~uint32_t{0};

/// Immutable per-step facts of one evaluation, gathered from the plan
/// outside the hot loop.
struct StepInfo {
  const Atom* atom;
  bool is_delta;
  int probe_col;
};

/// One frame per join step. A frame enumerates the candidate rows of its
/// atom: a bucket (index probe) or a scan of one cell's rows `[idx, end)`,
/// clipped to the cell's visible rows, or — for an atom whose temporal
/// variable is still free — a walk over the predicate's cells (its model
/// timeline or its delta ranges), one cell at a time.
struct Frame {
  const Relation* rel = nullptr;                  // current cell, null = done
  const std::vector<uint32_t>* bucket = nullptr;  // probe rows, or null
  std::size_t idx = 0;      // cursor into bucket, or the next row to scan
  uint32_t end = kOpenEnd;  // end of the current delta range
  // Cell walk, active when `tvar` is set.
  std::map<int64_t, Relation>::const_iterator tl_it, tl_end;
  const Delta::Range* range_it = nullptr;
  const Delta::Range* range_end = nullptr;
  VarId tvar = kNoVar;  // temporal var this frame binds per cell
  std::size_t trail_mark = 0;
};

/// Matches the non-temporal argument vector of `atom` against row `row` of
/// `rel`, binding fresh variables (recorded on `trail`). Returns false on
/// mismatch (trail entries added so far must still be undone by the caller).
bool MatchRow(const Atom& atom, const Relation& rel, uint32_t row,
              Bindings* b, Trail* trail) {
  assert(atom.args.size() == rel.arity());
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    const NtTerm& t = atom.args[i];
    const SymbolId value = rel.at(row, i);
    if (t.is_constant()) {
      if (t.id != value) return false;
      continue;
    }
    VarId v = t.id;
    if (b->bound[v]) {
      if (b->nval[v] != value) return false;
    } else {
      b->bound[v] = 1;
      b->nval[v] = value;
      trail->push_back(v);
    }
  }
  return true;
}

void Unwind(const Trail& trail, std::size_t from, Bindings* b) {
  for (std::size_t i = from; i < trail.size(); ++i) b->bound[trail[i]] = 0;
}

}  // namespace

std::span<const Delta::Range> Delta::ranges(PredicateId pred) const {
  if (static_cast<std::size_t>(pred) + 1 >= pred_begin_.size()) return {};
  return std::span<const Range>(ranges_.data() + pred_begin_[pred],
                                ranges_.data() + pred_begin_[pred + 1]);
}

const Delta::Range* Delta::Find(PredicateId pred, int64_t time) const {
  const std::span<const Range> rs = ranges(pred);
  auto it = std::lower_bound(
      rs.begin(), rs.end(), time,
      [](const Range& r, int64_t t) { return r.time < t; });
  return it != rs.end() && it->time == time ? &*it : nullptr;
}

void Delta::Clear() {
  ranges_.clear();
  pred_begin_.clear();
  size_ = 0;
}

void Delta::Add(const Range& range) {
  assert(range.begin < range.end);
  ranges_.push_back(range);
  size_ += range.end - range.begin;
}

void Delta::AddCells(const Interpretation& model, int64_t from_time,
                     bool non_temporal) {
  const Vocabulary& vocab = model.vocab();
  for (PredicateId pred : vocab.AllPredicates()) {
    if (!vocab.predicate(pred).is_temporal) {
      const Relation& rel = model.NonTemporal(pred);
      if (non_temporal && !rel.empty()) {
        Add({pred, 0, static_cast<uint32_t>(rel.size()), 0, &rel});
      }
      continue;
    }
    const auto& timeline = model.Timeline(pred);
    for (auto it = timeline.lower_bound(from_time); it != timeline.end();
         ++it) {
      if (it->second.empty()) continue;
      Add({pred, 0, static_cast<uint32_t>(it->second.size()), it->first,
           &it->second});
    }
  }
}

void Delta::Index(std::size_t num_predicates) {
  std::sort(ranges_.begin(), ranges_.end(),
            [](const Range& a, const Range& b) {
              return a.pred != b.pred ? a.pred < b.pred : a.time < b.time;
            });
  pred_begin_.assign(num_predicates + 1, 0);
  for (const Range& r : ranges_) {
    assert(r.pred < num_predicates);
    ++pred_begin_[r.pred + 1];
  }
  for (std::size_t p = 0; p < num_predicates; ++p) {
    pred_begin_[p + 1] += pred_begin_[p];
  }
}

/// One cached join order for a (delta position, time-bound) configuration.
/// `steps` fixes the atom order and, per atom, the probe column the planner
/// expects to be bound when the atom is reached (-1 = scan). Estimates are
/// advisory: the matcher re-checks boundness at runtime, so a stale or wrong
/// plan can only cost time, never results.
struct RuleEvaluator::JoinPlan {
  struct Step {
    uint32_t pos;       // body-atom index in source order
    int32_t probe_col;  // planned probe column, -1 when scanning
    double est;         // estimated candidates enumerated per reach
  };
  std::vector<Step> steps;
  double est_steps_per_emit = 0;
  // Cumulative observations across evaluations, reported by ExportPlans.
  uint64_t observed_steps = 0;
  uint64_t observed_emits = 0;
};

/// Per-evaluator plan store: one plan per slot, built once.
struct RuleEvaluator::PlanCache {
  std::vector<std::unique_ptr<JoinPlan>> slots;
  Counter* plans = nullptr;
  Counter* hits = nullptr;
  Histogram* est_hist = nullptr;
  Histogram* actual_hist = nullptr;

  PlanCache(std::size_t nslots, MetricsRegistry* metrics) : slots(nslots) {
    if (metrics != nullptr) {
      plans = metrics->counter("join.plans");
      hits = metrics->counter("join.plan_cache_hits");
      est_hist = metrics->histogram("join.est_steps_per_emit");
      actual_hist = metrics->histogram("join.actual_steps_per_emit");
    }
  }
};

struct RuleEvaluator::Scratch {
  Bindings bindings;
  Trail trail;
  std::vector<StepInfo> steps;
  std::vector<Frame> frames;
  GroundAtom head;
};

RuleEvaluator::RuleEvaluator(const Rule& rule, const Vocabulary& vocab,
                             bool use_index, MetricsRegistry* metrics)
    : rule_(rule),
      vocab_(vocab),
      use_index_(use_index),
      plans_(std::make_unique<PlanCache>((rule.body.size() + 1) * 2,
                                         metrics)),
      scratch_(std::make_unique<Scratch>()) {}

RuleEvaluator::~RuleEvaluator() = default;
RuleEvaluator::RuleEvaluator(RuleEvaluator&&) noexcept = default;

std::size_t RuleEvaluator::SlotKey(int delta_pos, bool time_bound) const {
  assert(delta_pos >= -1 &&
         delta_pos < static_cast<int>(rule_.body.size()) + 1);
  return static_cast<std::size_t>(delta_pos + 1) * 2 + (time_bound ? 1 : 0);
}

std::unique_ptr<RuleEvaluator::JoinPlan> RuleEvaluator::BuildPlan(
    const Interpretation& full, const Delta* delta, int delta_pos,
    bool time_bound) const {
  auto plan = std::make_unique<JoinPlan>();
  const std::size_t n = rule_.body.size();
  plan->steps.reserve(n);
  std::vector<char> used(n, 0);
  // Variables known at each greedy step: pre-bound temporal variable first
  // (the forward simulator binds the head's temporal variable), then
  // whatever each chosen atom binds.
  std::vector<char> known(rule_.num_vars(), 0);
  if (time_bound && rule_.head.temporal() && !rule_.head.time->ground()) {
    known[rule_.head.time->var] = 1;
  }

  for (std::size_t step = 0; step < n; ++step) {
    double best_est = 0;
    int best_pos = -1;
    int best_col = -1;
    bool best_delta = false;
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (used[pos]) continue;
      const Atom& atom = rule_.body[pos];
      const bool is_delta =
          delta != nullptr && static_cast<int>(pos) == delta_pos;
      // Base cardinality: how many candidate tuples reaching this atom
      // would enumerate without a probe. Statistics come from the rows the
      // matcher will see: the delta's ranges, or the model's visible rows.
      // `stats_rel` is the largest such cell; a delta range's distinct
      // counts are sampled fresh from the range itself.
      double total = 0;
      std::size_t cells = 0;
      const Relation* stats_rel = nullptr;
      std::size_t stats_begin = 0;
      std::size_t stats_end = 0;
      auto add_cell = [&](const Relation& rel, std::size_t begin,
                          std::size_t end) {
        total += static_cast<double>(end - begin);
        ++cells;
        if (stats_rel == nullptr || end - begin > stats_end - stats_begin) {
          stats_rel = &rel;
          stats_begin = begin;
          stats_end = end;
        }
      };
      if (is_delta) {
        for (const Delta::Range& r : delta->ranges(atom.pred)) {
          add_cell(*r.cell, r.begin, r.end);
        }
      } else if (!atom.temporal()) {
        const Relation& rel = full.NonTemporal(atom.pred);
        add_cell(rel, 0, rel.visible_size());
      } else {
        for (const auto& [time, cell] : full.Timeline(atom.pred)) {
          if (cell.visible_size() > 0) add_cell(cell, 0, cell.visible_size());
        }
      }
      double rows = total;
      if (atom.temporal()) {
        const TemporalTerm& tt = *atom.time;
        const bool t_known = tt.ground() || known[tt.var];
        // Known time: one snapshot (average cell). Unknown: the whole
        // timeline is enumerated, and matching binds the temporal variable.
        if (t_known && cells > 0) rows = total / static_cast<double>(cells);
      }
      // Probe-column choice: among columns whose value will be known when
      // the atom is reached, the one with the largest fan-out (sampled
      // distinct count) shrinks the candidate set the most.
      int col = -1;
      double est = rows;
      if (use_index_ && stats_rel != nullptr && stats_end > stats_begin) {
        for (std::size_t i = 0; i < atom.args.size(); ++i) {
          const NtTerm& t = atom.args[i];
          if (!t.is_constant() && !known[t.id]) continue;
          const std::size_t distinct =
              is_delta ? stats_rel->SampleDistinct(i, stats_begin, stats_end)
                       : stats_rel->DistinctInColumn(i);
          const double fan =
              rows / static_cast<double>(std::max<std::size_t>(1, distinct));
          if (col < 0 || fan < est) {
            est = fan;
            col = static_cast<int>(i);
          }
        }
      }
      if (best_pos < 0 || est < best_est ||
          (est == best_est && is_delta && !best_delta)) {
        best_pos = static_cast<int>(pos);
        best_col = col;
        best_est = est;
        best_delta = is_delta;
      }
    }
    used[best_pos] = 1;
    const Atom& chosen = rule_.body[static_cast<std::size_t>(best_pos)];
    for (const NtTerm& t : chosen.args) {
      if (!t.is_constant()) known[t.id] = 1;
    }
    if (chosen.temporal() && !chosen.time->ground()) known[chosen.time->var] = 1;
    plan->steps.push_back(
        {static_cast<uint32_t>(best_pos), best_col, best_est});
  }

  // Frontier model: step k enumerates `est_k` candidates for each of the
  // `frontier` partial bindings that survived steps 0..k-1; emissions equal
  // the final frontier.
  double frontier = 1;
  double total_steps = 0;
  for (const JoinPlan::Step& s : plan->steps) {
    total_steps += frontier * std::max(0.0, s.est);
    frontier *= std::max(1.0, s.est);
  }
  plan->est_steps_per_emit = total_steps / std::max(1.0, frontier);
  return plan;
}

RuleEvaluator::JoinPlan* RuleEvaluator::GetOrBuildPlan(
    const Interpretation& full, const Delta* delta, int delta_pos,
    bool time_bound) const {
  PlanCache& cache = *plans_;
  std::unique_ptr<JoinPlan>& slot = cache.slots[SlotKey(delta_pos, time_bound)];
  if (slot != nullptr) {
    if (cache.hits != nullptr) cache.hits->Add();
    return slot.get();
  }
  slot = BuildPlan(full, delta, delta_pos, time_bound);
  if (cache.plans != nullptr) cache.plans->Add();
  if (cache.est_hist != nullptr) {
    cache.est_hist->RecordValue(
        static_cast<uint64_t>(slot->est_steps_per_emit));
  }
  return slot.get();
}

std::vector<uint32_t> RuleEvaluator::PlanOrderForTest(int delta_pos,
                                                      bool time_bound) const {
  const JoinPlan* plan = plans_->slots[SlotKey(delta_pos, time_bound)].get();
  std::vector<uint32_t> order;
  if (plan == nullptr) return order;
  order.reserve(plan->steps.size());
  for (const JoinPlan::Step& s : plan->steps) order.push_back(s.pos);
  return order;
}

void RuleEvaluator::ExportPlans(std::vector<PlanSlotReport>* out) const {
  for (std::size_t slot = 0; slot < plans_->slots.size(); ++slot) {
    const JoinPlan* plan = plans_->slots[slot].get();
    if (plan == nullptr) continue;
    PlanSlotReport report;
    // Inverse of SlotKey: slot = (delta_pos + 1) * 2 + time_bound.
    report.delta_pos = static_cast<int>(slot / 2) - 1;
    report.time_bound = (slot % 2) != 0;
    report.order.reserve(plan->steps.size());
    report.probe_cols.reserve(plan->steps.size());
    for (const JoinPlan::Step& s : plan->steps) {
      report.order.push_back(s.pos);
      report.probe_cols.push_back(s.probe_col);
    }
    report.est_steps_per_emit = plan->est_steps_per_emit;
    report.observed_steps = plan->observed_steps;
    report.observed_emits = plan->observed_emits;
    out->push_back(std::move(report));
  }
}

void RuleEvaluator::Evaluate(
    const Interpretation& full, const Delta* delta, int delta_pos,
    std::optional<std::pair<VarId, int64_t>> time_binding, EvalStats* stats,
    const std::function<void(GroundAtom&&)>& emit,
    std::vector<GroundAtom>* premises) const {
  Scratch& scratch = *scratch_;
  Bindings& bindings = scratch.bindings;
  bindings.Reset(rule_.num_vars());
  if (time_binding.has_value()) {
    bindings.bound[time_binding->first] = 1;
    bindings.tval[time_binding->first] = time_binding->second;
  }

  Trail& trail = scratch.trail;
  trail.clear();

  // Ground-instantiates `atom` under the current bindings into `*fact`
  // (complete for the head by range-restriction; complete for body atoms at
  // emit time), reusing the capacity of `fact->args`.
  auto instantiate_into = [&](const Atom& atom, GroundAtom* fact) {
    fact->pred = atom.pred;
    fact->time = 0;
    if (atom.temporal()) {
      const TemporalTerm& tt = *atom.time;
      if (tt.ground()) {
        fact->time = tt.offset;
      } else {
        assert(bindings.bound[tt.var]);
        fact->time = bindings.tval[tt.var] + tt.offset;
      }
    }
    fact->args.clear();
    for (const NtTerm& t : atom.args) {
      if (t.is_constant()) {
        fact->args.push_back(t.id);
      } else {
        assert(bindings.bound[t.id]);
        fact->args.push_back(bindings.nval[t.id]);
      }
    }
  };

  // Scratch head atom. Sinks that drop duplicates without moving the atom
  // leave its capacity behind, so the (dominant) duplicate-derivation case
  // allocates nothing. Sinks never retain a reference past the call, so
  // reuse is safe.
  GroundAtom& head = scratch.head;
  if (premises != nullptr) premises->resize(rule_.body.size());
  auto emit_head = [&]() {
    if (stats != nullptr) ++stats->derived;
    if (premises != nullptr) {
      for (std::size_t i = 0; i < rule_.body.size(); ++i) {
        instantiate_into(rule_.body[i], &(*premises)[i]);
      }
    }
    instantiate_into(rule_.head, &head);
    emit(std::move(head));
  };

  const std::size_t nsteps = rule_.body.size();
  uint64_t local_steps = 0;
  uint64_t local_emits = 0;

  if (nsteps == 0) {
    emit_head();
    ++local_emits;
  }

  const int norm_pos = delta == nullptr ? -1 : delta_pos;
  JoinPlan* plan = nullptr;
  if (nsteps > 0) {
    plan = GetOrBuildPlan(full, delta, norm_pos, time_binding.has_value());

    std::vector<StepInfo>& steps = scratch.steps;
    steps.clear();
    for (const JoinPlan::Step& s : plan->steps) {
      const bool is_delta = static_cast<int>(s.pos) == norm_pos;
      steps.push_back({&rule_.body[s.pos], is_delta, s.probe_col});
    }
    std::vector<Frame>& frames = scratch.frames;
    frames.resize(nsteps);

    // Points the frame at rows `[begin, end)` of one concrete relation (a
    // non-temporal predicate or one snapshot cell), clipped to its visible
    // rows, probing the planned column when its value is known, falling
    // back to the first bound column, else scanning. Leaves `f->rel` null
    // when there are no candidates.
    auto setup_cell = [&](Frame* f, const Atom& atom, const Relation& rel,
                          uint32_t begin, uint32_t end, int planned_col) {
      if (std::min<std::size_t>(end, rel.visible_size()) <= begin) return;
      f->end = end;
      if (use_index_) {
        auto known = [&](const NtTerm& t, SymbolId* out) {
          if (t.is_constant()) {
            *out = t.id;
            return true;
          }
          if (bindings.bound[t.id]) {
            *out = bindings.nval[t.id];
            return true;
          }
          return false;
        };
        int col = -1;
        SymbolId value = 0;
        if (planned_col >= 0 && known(atom.args[planned_col], &value)) {
          col = planned_col;
        } else {
          for (std::size_t i = 0; i < atom.args.size(); ++i) {
            if (known(atom.args[i], &value)) {
              col = static_cast<int>(i);
              break;
            }
          }
        }
        if (col >= 0) {
          // Buckets hold ascending row ids: skip to the range's first row.
          const std::vector<uint32_t>* bucket =
              rel.Probe(static_cast<std::size_t>(col), value);
          if (bucket != nullptr) {
            f->rel = &rel;
            f->bucket = bucket;
            f->idx = begin == 0 ? 0
                                : static_cast<std::size_t>(
                                      std::lower_bound(bucket->begin(),
                                                       bucket->end(), begin) -
                                      bucket->begin());
          }
          return;
        }
      }
      f->rel = &rel;
      f->bucket = nullptr;
      f->idx = begin;
    };

    // Points the frame at the step's cell at `time` (ignored for a
    // non-temporal atom): the delta's range there, or the model's cell.
    auto setup_at = [&](Frame* f, const StepInfo& si, int64_t time) {
      const Atom& atom = *si.atom;
      if (si.is_delta) {
        const Delta::Range* r = delta->Find(atom.pred, time);
        if (r != nullptr) {
          setup_cell(f, atom, *r->cell, r->begin, r->end, si.probe_col);
        }
        return;
      }
      const Relation& rel = atom.temporal() ? full.Snapshot(atom.pred, time)
                                            : full.NonTemporal(atom.pred);
      setup_cell(f, atom, rel, 0, kOpenEnd, si.probe_col);
    };

    auto enter = [&](std::size_t k) {
      Frame& f = frames[k];
      f.rel = nullptr;
      f.bucket = nullptr;
      f.idx = 0;
      f.end = kOpenEnd;
      f.tvar = kNoVar;
      f.trail_mark = trail.size();
      const StepInfo& si = steps[k];
      const Atom& atom = *si.atom;
      if (!atom.temporal()) {
        setup_at(&f, si, 0);
        return;
      }
      const TemporalTerm& tt = *atom.time;
      if (tt.ground()) {
        setup_at(&f, si, tt.offset);
        return;
      }
      if (bindings.bound[tt.var]) {
        setup_at(&f, si, bindings.tval[tt.var] + tt.offset);
        return;
      }
      // Unbound temporal variable: walk the cells; each usable cell binds
      // it to `time - offset` (managed by the frame, outside the trail, and
      // cleared when the frame pops).
      if (si.is_delta) {
        const std::span<const Delta::Range> rs = delta->ranges(atom.pred);
        f.range_it = rs.data();
        f.range_end = rs.data() + rs.size();
      } else {
        const auto& timeline = full.Timeline(atom.pred);
        f.tl_it = timeline.begin();
        f.tl_end = timeline.end();
      }
      f.tvar = tt.var;
    };

    // Yields the next candidate (row of *rel) of frame `f`, advancing
    // through the walked cells as the current one drains. Cursors re-read
    // the cell's visible rows and the bucket's length, so rows appended
    // behind them are visited unless a watermark hides them. The temporal
    // variable's value must be a valid (>= 0) ground term, so cells with
    // `time < offset` are skipped.
    auto next_candidate = [&](Frame* f, const StepInfo& si, uint32_t* row,
                              const Relation** rel) {
      while (true) {
        if (f->rel != nullptr) {
          const std::size_t limit =
              std::min<std::size_t>(f->end, f->rel->visible_size());
          if (f->bucket != nullptr) {
            if (f->idx < f->bucket->size() && (*f->bucket)[f->idx] < limit) {
              *row = (*f->bucket)[f->idx++];
              *rel = f->rel;
              return true;
            }
          } else if (f->idx < limit) {
            *row = static_cast<uint32_t>(f->idx++);
            *rel = f->rel;
            return true;
          }
          f->rel = nullptr;
          f->bucket = nullptr;
        }
        if (f->tvar == kNoVar) return false;
        const Atom& atom = *si.atom;
        const int64_t offset = atom.time->offset;
        bool cell_found = false;
        if (si.is_delta) {
          while (f->range_it != f->range_end) {
            const Delta::Range& r = *f->range_it++;
            if (r.time < offset) continue;
            bindings.bound[f->tvar] = 1;
            bindings.tval[f->tvar] = r.time - offset;
            setup_cell(f, atom, *r.cell, r.begin, r.end, si.probe_col);
            cell_found = true;
            break;
          }
        } else {
          while (f->tl_it != f->tl_end) {
            const int64_t time = f->tl_it->first;
            const Relation& cell = f->tl_it->second;
            ++f->tl_it;
            if (time < offset || cell.visible_size() == 0) continue;
            bindings.bound[f->tvar] = 1;
            bindings.tval[f->tvar] = time - offset;
            setup_cell(f, atom, cell, 0, kOpenEnd, si.probe_col);
            cell_found = true;
            break;
          }
        }
        if (!cell_found) return false;
        // Loop: the fresh cell's probe may have yielded no bucket, in
        // which case the next iteration advances to the following cell.
      }
    };

    // Iterative backtracking join. Loop invariant: at the top, frame `k`'s
    // previous candidate (if any) is unwound — a fresh frame's mark equals
    // the trail size, making the unwind a no-op.
    int k = 0;
    enter(0);
    while (k >= 0) {
      Frame& f = frames[static_cast<std::size_t>(k)];
      Unwind(trail, f.trail_mark, &bindings);
      trail.resize(f.trail_mark);
      const StepInfo& si = steps[static_cast<std::size_t>(k)];
      uint32_t row = 0;
      const Relation* rel = nullptr;
      if (!next_candidate(&f, si, &row, &rel)) {
        if (f.tvar != kNoVar) bindings.bound[f.tvar] = 0;
        --k;
        continue;
      }
      ++local_steps;
      if (MatchRow(*si.atom, *rel, row, &bindings, &trail)) {
        if (static_cast<std::size_t>(k) + 1 == nsteps) {
          emit_head();
          ++local_emits;
          // Loop-top unwind discards this candidate's bindings.
        } else {
          ++k;
          enter(static_cast<std::size_t>(k));
        }
      }
      // Failed match: partial trail entries are removed by the loop-top
      // unwind on the next iteration.
    }
  }

  if (stats != nullptr) stats->match_steps += local_steps;
  if (plan != nullptr) {
    plan->observed_steps += local_steps;
    plan->observed_emits += local_emits;
  }
  if (plans_->actual_hist != nullptr) {
    plans_->actual_hist->RecordValue(local_steps /
                                     std::max<uint64_t>(1, local_emits));
  }
}

void ExportPlanReport(const std::vector<RuleEvaluator>& evaluators,
                      RulePlanReport* report) {
  if (report == nullptr) return;
  report->assign(evaluators.size(), {});
  for (std::size_t i = 0; i < evaluators.size(); ++i) {
    evaluators[i].ExportPlans(&(*report)[i]);
  }
}

}  // namespace chronolog
