#include "storage/interpretation.h"

#include <cassert>

namespace chronolog {

namespace {
const Relation kEmptyRelation;
const std::map<int64_t, Relation> kEmptyTimeline;
}  // namespace

Interpretation::Interpretation(std::shared_ptr<Vocabulary> vocab)
    : vocab_(std::move(vocab)) {
  assert(vocab_ != nullptr);
  non_temporal_.resize(vocab_->num_predicates());
  temporal_.resize(vocab_->num_predicates());
}

void Interpretation::EnsurePred(PredicateId pred) {
  // The vocabulary may have grown since construction (e.g. normalization
  // introduces predicates); grow lazily.
  if (pred >= non_temporal_.size()) {
    non_temporal_.resize(vocab_->num_predicates());
    temporal_.resize(vocab_->num_predicates());
  }
}

bool Interpretation::Insert(const GroundAtom& fact) {
  return Insert(fact.pred, fact.time, fact.args.data(), fact.args.size());
}

bool Interpretation::Insert(PredicateId pred, int64_t time, const Tuple& args) {
  return Insert(pred, time, args.data(), args.size());
}

bool Interpretation::Insert(PredicateId pred, int64_t time,
                            const SymbolId* args, std::size_t n) {
  EnsurePred(pred);
  Relation* rel;
  if (vocab_->predicate(pred).is_temporal) {
    assert(time >= 0);
    // Evaluators insert mostly at the newest time: try the last cell before
    // the O(log n) lookup, and append a later time at the end.
    std::map<int64_t, Relation>& timeline = temporal_[pred];
    if (timeline.empty() || timeline.rbegin()->first < time) {
      rel = &timeline.emplace_hint(timeline.end(), time, Relation())->second;
    } else if (timeline.rbegin()->first == time) {
      rel = &timeline.rbegin()->second;
    } else {
      rel = &timeline[time];
    }
  } else {
    rel = &non_temporal_[pred];
  }
  if (!rel->Insert(args, n)) return false;
  ++size_;
  return true;
}

std::size_t Interpretation::SnapshotHash(int64_t time) const {
  std::size_t hash = 0;
  for (std::size_t p = 0; p < temporal_.size(); ++p) {
    const auto& timeline = temporal_[p];
    if (timeline.empty()) continue;
    // The forward detector hashes the newest time, so try the last cell
    // before the O(log n) lookup.
    auto it = std::prev(timeline.end());
    if (it->first != time) {
      it = timeline.find(time);
      if (it == timeline.end()) continue;
    }
    const Relation& rel = it->second;
    for (uint32_t row = 0; row < rel.size(); ++row) {
      auto arg = [&](std::size_t col) { return rel.at(row, col); };
      // `+ 1` per fact carries the fact-count term of State::Hash.
      hash += FactHash(p, rel.arity(), arg) + 1;
    }
  }
  return hash;
}

bool Interpretation::SnapshotEquals(int64_t t1, int64_t t2) const {
  if (t1 == t2) return true;
  for (const auto& timeline : temporal_) {
    auto i1 = timeline.find(t1);
    auto i2 = timeline.find(t2);
    const Relation& a = i1 == timeline.end() ? kEmptyRelation : i1->second;
    const Relation& b = i2 == timeline.end() ? kEmptyRelation : i2->second;
    if (a != b) return false;
  }
  return true;
}

void Interpretation::InsertDatabase(const Database& db) {
  for (const GroundAtom& f : db.facts()) Insert(f);
}

bool Interpretation::Contains(const GroundAtom& fact) const {
  return Contains(fact.pred, fact.time, fact.args);
}

bool Interpretation::Contains(PredicateId pred, int64_t time,
                              const Tuple& args) const {
  if (vocab_->predicate(pred).is_temporal) {
    if (pred >= temporal_.size()) return false;
    auto it = temporal_[pred].find(time);
    if (it == temporal_[pred].end()) return false;
    return it->second.Contains(args.data(), args.size());
  }
  if (pred >= non_temporal_.size()) return false;
  return non_temporal_[pred].Contains(args.data(), args.size());
}

const Relation& Interpretation::NonTemporal(PredicateId pred) const {
  assert(!vocab_->predicate(pred).is_temporal);
  if (pred >= non_temporal_.size()) return kEmptyRelation;
  return non_temporal_[pred];
}

const Relation& Interpretation::Snapshot(PredicateId pred,
                                         int64_t time) const {
  assert(vocab_->predicate(pred).is_temporal);
  if (pred >= temporal_.size()) return kEmptyRelation;
  auto it = temporal_[pred].find(time);
  if (it == temporal_[pred].end()) return kEmptyRelation;
  return it->second;
}

const std::map<int64_t, Relation>& Interpretation::Timeline(
    PredicateId pred) const {
  assert(vocab_->predicate(pred).is_temporal);
  if (pred >= temporal_.size()) return kEmptyTimeline;
  return temporal_[pred];
}

int64_t Interpretation::MaxTime() const {
  int64_t max_time = -1;
  for (std::size_t p = 0; p < temporal_.size(); ++p) {
    const auto& timeline = temporal_[p];
    if (!timeline.empty()) {
      max_time = std::max(max_time, timeline.rbegin()->first);
    }
  }
  return max_time;
}

void Interpretation::ForEach(
    const std::function<void(PredicateId, int64_t, const Tuple&)>& fn) const {
  Tuple scratch;
  for (std::size_t p = 0; p < non_temporal_.size(); ++p) {
    PredicateId pred = static_cast<PredicateId>(p);
    if (vocab_->predicate(pred).is_temporal) {
      for (const auto& [time, rel] : temporal_[p]) {
        for (uint32_t row = 0; row < rel.size(); ++row) {
          rel.CopyRow(row, &scratch);
          fn(pred, time, scratch);
        }
      }
    } else {
      const Relation& rel = non_temporal_[p];
      for (uint32_t row = 0; row < rel.size(); ++row) {
        rel.CopyRow(row, &scratch);
        fn(pred, 0, scratch);
      }
    }
  }
}

void Interpretation::TruncateInPlace(int64_t m) {
  for (auto& timeline : temporal_) {
    auto it = timeline.upper_bound(m);
    while (it != timeline.end()) {
      size_ -= it->second.size();
      it = timeline.erase(it);
    }
  }
}

bool Interpretation::NonTemporalEquals(const Interpretation& other) const {
  std::size_t n = std::max(non_temporal_.size(), other.non_temporal_.size());
  for (std::size_t p = 0; p < n; ++p) {
    const Relation& a =
        p < non_temporal_.size() ? non_temporal_[p] : kEmptyRelation;
    const Relation& b = p < other.non_temporal_.size()
                            ? other.non_temporal_[p]
                            : kEmptyRelation;
    if (a != b) return false;
  }
  return true;
}

bool Interpretation::SegmentEquals(const Interpretation& other, int64_t m,
                                   bool and_non_temporal) const {
  if (and_non_temporal && !NonTemporalEquals(other)) return false;
  std::size_t n = std::max(temporal_.size(), other.temporal_.size());
  for (std::size_t p = 0; p < n; ++p) {
    const auto& ta = p < temporal_.size() ? temporal_[p] : kEmptyTimeline;
    const auto& tb =
        p < other.temporal_.size() ? other.temporal_[p] : kEmptyTimeline;
    auto ia = ta.begin();
    auto ib = tb.begin();
    while (true) {
      // Skip empty cells (can arise from operator[] on the timeline).
      while (ia != ta.end() && (ia->first > m || ia->second.empty())) ++ia;
      while (ib != tb.end() && (ib->first > m || ib->second.empty())) ++ib;
      bool ea = (ia == ta.end() || ia->first > m);
      bool eb = (ib == tb.end() || ib->first > m);
      if (ea || eb) {
        if (ea != eb) return false;
        break;
      }
      if (ia->first != ib->first || ia->second != ib->second) return false;
      ++ia;
      ++ib;
    }
  }
  return true;
}

bool operator==(const Interpretation& a, const Interpretation& b) {
  int64_t m = std::max(a.MaxTime(), b.MaxTime());
  return a.SegmentEquals(b, m, /*and_non_temporal=*/true);
}

}  // namespace chronolog
