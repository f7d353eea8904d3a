#include "spec/primary_database.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace chronolog {

namespace {

bool RowLess(const SymbolId* a, const SymbolId* b, std::size_t k) {
  return std::lexicographical_compare(a, a + k, b, b + k);
}

/// Sorts the `n` rows of width `k >= 1` at `rows` in place; every value is
/// at most `max_value`. A large cell of dense values takes an LSD radix
/// sort, any other cell a comparison sort of row indices. Of the perfbench
/// programs only `path` has unsorted cells (15 cells of ~7.4k rows each, at
/// most 128 distinct values): radix sorts them in about 1 ms, the comparison
/// sort in about 13 ms. `tmp`, `order` and `counts` are reusable scratch.
void SortRows(SymbolId* rows, std::size_t n, std::size_t k,
              SymbolId max_value, std::vector<SymbolId>* tmp,
              std::vector<uint32_t>* order, std::vector<uint32_t>* counts) {
  tmp->resize(n * k);
  if (n >= 256 && max_value / 8 <= n) {
    // One stable counting pass per column, last column first.
    SymbolId* src = rows;
    SymbolId* dst = tmp->data();
    for (std::size_t c = k; c-- > 0;) {
      counts->assign(std::size_t{max_value} + 2, 0);
      for (std::size_t r = 0; r < n; ++r) {
        ++(*counts)[std::size_t{src[r * k + c]} + 1];
      }
      for (std::size_t v = 1; v < counts->size(); ++v) {
        (*counts)[v] += (*counts)[v - 1];
      }
      for (std::size_t r = 0; r < n; ++r) {
        const uint32_t to = (*counts)[src[r * k + c]]++;
        std::copy_n(src + r * k, k, dst + std::size_t{to} * k);
      }
      std::swap(src, dst);
    }
    if (src != rows) std::copy_n(src, n * k, rows);
    return;
  }
  order->resize(n);
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    return RowLess(rows + a * k, rows + b * k, k);
  });
  for (std::size_t r = 0; r < n; ++r) {
    std::copy_n(rows + (*order)[r] * k, k, tmp->data() + r * k);
  }
  std::copy(tmp->begin(), tmp->end(), rows);
}

}  // namespace

PrimaryDatabase::PrimaryDatabase(Interpretation model, int64_t last_time)
    : vocab_(model.vocab_ptr()) {
  preds_.resize(vocab_->num_predicates());
  std::vector<uint8_t> seen(vocab_->num_constants());
  std::vector<SymbolId> tmp;
  std::vector<uint32_t> order;
  std::vector<uint32_t> counts;
  for (std::size_t p = 0; p < preds_.size(); ++p) {
    const PredicateId pred = static_cast<PredicateId>(p);
    const PredicateInfo& info = vocab_->predicate(pred);
    Frozen& out = preds_[p];
    out.temporal = info.is_temporal;
    out.arity = info.arity;
    const std::size_t k = out.arity;
    // Row offsets are 32-bit: the fixpoint's fact budget (max_facts) keeps
    // a predicate far below 2^32 facts.
    uint32_t count = 0;

    // Copies one cell into the row array (row-major), marks its constants
    // and sorts it unless its insertion order already is sorted.
    auto append_cell = [&](int64_t time, const Relation& rel) {
      const std::size_t n = rel.size();
      if (n == 0) return;
      out.times.push_back(time);
      out.begins.push_back(count);
      const std::size_t base = out.rows.size();
      out.rows.resize(base + n * k);
      SymbolId* dst = out.rows.data() + base;
      bool sorted = true;
      SymbolId max_value = 0;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
          const SymbolId v = rel.at(r, c);
          dst[r * k + c] = v;
          max_value = std::max(max_value, v);
        }
        if (sorted && r > 0 && !RowLess(dst + (r - 1) * k, dst + r * k, k)) {
          sorted = false;
        }
      }
      if (!sorted) SortRows(dst, n, k, max_value, &tmp, &order, &counts);
      if (k > 0 && max_value >= seen.size()) seen.resize(max_value + 1);
      for (std::size_t i = 0; i < n * k; ++i) seen[dst[i]] = 1;
      assert(count + n <= UINT32_MAX);
      count += static_cast<uint32_t>(n);
    };

    if (info.is_temporal) {
      // One walk of the timeline: the row array grows as it goes (counting
      // the facts first would walk the cells twice), the directory has room
      // for every cell of the model; both are trimmed after.
      const std::map<int64_t, Relation>& timeline = model.Timeline(pred);
      out.times.reserve(timeline.size());
      out.begins.reserve(timeline.size() + 1);
      for (const auto& [time, rel] : timeline) {
        if (time > last_time) break;
        append_cell(time, rel);
      }
      out.times.shrink_to_fit();
      out.rows.shrink_to_fit();
    } else {
      const Relation& rel = model.NonTemporal(pred);
      out.rows.reserve(rel.size() * k);
      append_cell(0, rel);
    }
    if (!out.times.empty()) out.begins.push_back(count);
    out.begins.shrink_to_fit();
    size_ += count;
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    if (seen[c]) constants_.push_back(static_cast<SymbolId>(c));
  }
}

std::size_t PrimaryDatabase::FindCell(const Frozen& rel, int64_t time) {
  if (rel.times.empty()) return kNoCell;
  if (!rel.temporal) return 0;
  auto it = std::lower_bound(rel.times.begin(), rel.times.end(), time);
  if (it == rel.times.end() || *it != time) return kNoCell;
  return static_cast<std::size_t>(it - rel.times.begin());
}

bool PrimaryDatabase::Contains(PredicateId pred, int64_t time,
                               const SymbolId* args, std::size_t n) const {
  if (pred >= preds_.size()) return false;
  const Frozen& rel = preds_[pred];
  if (n != rel.arity) return false;
  const std::size_t cell = FindCell(rel, time);
  if (cell == kNoCell) return false;
  std::size_t lo = rel.begins[cell];
  std::size_t hi = rel.begins[cell + 1];
  if (n == 0) return true;  // a populated 0-ary cell holds the one fact
  const SymbolId* rows = rel.rows.data();
  // Lower bound over the rows of the cell.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (RowLess(rows + mid * n, args, n)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < rel.begins[cell + 1] &&
         std::equal(args, args + n, rows + lo * n);
}

std::size_t PrimaryDatabase::CellSize(PredicateId pred, int64_t time) const {
  if (pred >= preds_.size()) return 0;
  const Frozen& rel = preds_[pred];
  const std::size_t cell = FindCell(rel, time);
  if (cell == kNoCell) return 0;
  return rel.begins[cell + 1] - rel.begins[cell];
}

void PrimaryDatabase::ForEach(
    const std::function<void(PredicateId, int64_t, const Tuple&)>& fn) const {
  Tuple scratch;
  for (std::size_t p = 0; p < preds_.size(); ++p) {
    const Frozen& rel = preds_[p];
    const std::size_t k = rel.arity;
    for (std::size_t cell = 0; cell < rel.times.size(); ++cell) {
      for (std::size_t r = rel.begins[cell]; r < rel.begins[cell + 1]; ++r) {
        scratch.assign(rel.rows.begin() + r * k,
                       rel.rows.begin() + (r + 1) * k);
        fn(static_cast<PredicateId>(p), rel.times[cell], scratch);
      }
    }
  }
}

}  // namespace chronolog
