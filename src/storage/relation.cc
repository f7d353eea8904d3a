#include "storage/relation.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace chronolog {

namespace {

constexpr uint64_t kLowBits = 0x0101010101010101ULL;
constexpr uint64_t kHighBits = 0x8080808080808080ULL;

inline uint64_t LoadGroup(const uint8_t* p) {
  uint64_t g;
  std::memcpy(&g, p, sizeof(g));
  return g;
}

/// Bytes of `g` equal to `byte`, marked by their high bit. The SWAR
/// subtraction can report false positives for occupied slots whose tag
/// shares low bits with `byte` — harmless, every hit is verified against the
/// stored row — but never for empty slots: an empty control byte (0x80) has
/// its high bit set, which clears the corresponding bit of `~x`.
inline uint64_t MatchByte(uint64_t g, uint8_t byte) {
  const uint64_t x = g ^ (kLowBits * byte);
  return (x - kLowBits) & ~x & kHighBits;
}

inline uint8_t TagOf(std::size_t hash) {
  return static_cast<uint8_t>(hash >> 57) & 0x7f;
}

}  // namespace

void Relation::SetCtrl(std::size_t slot, uint8_t byte) {
  uint8_t* c = ctrl();
  c[slot] = byte;
  if (slot < kGroup - 1) c[cap_ + slot] = byte;  // mirrored tail
}

std::size_t Relation::HashOfRow(std::size_t row) const {
  std::size_t seed = arity_;
  for (std::size_t c = 0; c < arity_; ++c) {
    HashCombine(seed, static_cast<std::size_t>(at(row, c)));
  }
  return Mix64(seed);
}

bool Relation::RowEqualsData(std::size_t row, const SymbolId* data,
                             std::size_t n) const {
  for (std::size_t c = 0; c < n; ++c) {
    if (at(row, c) != data[c]) return false;
  }
  return true;
}

uint32_t Relation::FindRow(const SymbolId* data, std::size_t n,
                           std::size_t hash, std::size_t* insert_slot) const {
  const std::size_t mask = cap_ - 1;
  const uint8_t tag = TagOf(hash);
  std::size_t idx = hash & mask;
  while (true) {
    const uint64_t g = LoadGroup(ctrl() + idx);
    for (uint64_t m = MatchByte(g, tag); m != 0; m &= m - 1) {
      const std::size_t slot =
          (idx + (static_cast<std::size_t>(__builtin_ctzll(m)) >> 3)) & mask;
      const uint32_t row = slots()[slot];
      if (RowEqualsData(row, data, n)) return row;
    }
    const uint64_t empties = g & kHighBits;
    if (empties != 0) {
      if (insert_slot != nullptr) {
        *insert_slot =
            (idx + (static_cast<std::size_t>(__builtin_ctzll(empties)) >> 3)) &
            mask;
      }
      return kNotFound;
    }
    idx = (idx + kGroup) & mask;
  }
}

void Relation::PlaceRow(std::size_t row, std::size_t hash) {
  const std::size_t mask = cap_ - 1;
  std::size_t idx = hash & mask;
  while (true) {
    const uint64_t g = LoadGroup(ctrl() + idx);
    const uint64_t empties = g & kHighBits;
    if (empties != 0) {
      const std::size_t slot =
          (idx + (static_cast<std::size_t>(__builtin_ctzll(empties)) >> 3)) &
          mask;
      SetCtrl(slot, TagOf(hash));
      slots()[slot] = static_cast<uint32_t>(row);
      return;
    }
    idx = (idx + kGroup) & mask;
  }
}

void Relation::Grow() {
  cap_ = cap_ == 0 ? 16 : cap_ * 2;
  const std::size_t ctrl_bytes = cap_ + kGroup - 1;
  table_.assign(cap_ + (ctrl_bytes + sizeof(uint32_t) - 1) / sizeof(uint32_t),
                0);
  std::memset(ctrl(), kEmpty, ctrl_bytes);
  // Rows are unique by construction, so re-placement needs no equality
  // probes — just the first free slot on each row's probe path.
  for (std::size_t row = 0; row < num_rows_; ++row) {
    PlaceRow(row, HashOfRow(row));
  }
}

void Relation::GrowColumns() {
  const std::size_t stride = stride_ == 0 ? 4 : std::size_t{stride_} * 2;
  std::vector<SymbolId> cols(arity_ * stride);
  for (std::size_t c = 0; c < arity_; ++c) {
    std::copy_n(cols_.data() + c * stride_, num_rows_,
                cols.data() + c * stride);
  }
  cols_.swap(cols);
  stride_ = static_cast<uint32_t>(stride);
}

bool Relation::Insert(const SymbolId* data, std::size_t n) {
  if (num_rows_ == 0) arity_ = static_cast<uint32_t>(n);
  assert(n == arity_);
  const std::size_t hash = RowHash(data, n);
  std::size_t insert_slot = 0;
  if (cap_ != 0 && FindRow(data, n, hash, &insert_slot) != kNotFound) {
    return false;
  }
  // Grow at 7/8 load (keeps probe sequences short; amortised O(1)). Only a
  // new row grows the table, so callers need no membership test first.
  if (cap_ == 0 || (num_rows_ + 1) * 8 > cap_ * 7) {
    Grow();
    PlaceRow(num_rows_, hash);
  } else {
    SetCtrl(insert_slot, TagOf(hash));
    slots()[insert_slot] = num_rows_;
  }
  if (num_rows_ == stride_) GrowColumns();
  for (std::size_t c = 0; c < n; ++c) cols_[c * stride_ + num_rows_] = data[c];
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].indexed) columns_[c].index[data[c]].push_back(num_rows_);
  }
  ++num_rows_;
  return true;
}

bool Relation::Contains(const SymbolId* data, std::size_t n) const {
  if (num_rows_ == 0) return false;
  assert(n == arity_);
  return FindRow(data, n, RowHash(data, n), nullptr) != kNotFound;
}

Tuple Relation::Row(std::size_t row) const {
  Tuple out;
  CopyRow(row, &out);
  return out;
}

void Relation::CopyRow(std::size_t row, Tuple* out) const {
  out->clear();
  out->reserve(arity_);
  for (std::size_t c = 0; c < arity_; ++c) out->push_back(at(row, c));
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.num_rows_ != b.num_rows_) return false;
  if (a.num_rows_ == 0) return true;
  if (a.arity_ != b.arity_) return false;
  Tuple scratch;
  for (std::size_t row = 0; row < a.num_rows_; ++row) {
    a.CopyRow(row, &scratch);
    if (!b.Contains(scratch.data(), scratch.size())) return false;
  }
  return true;
}

Relation::ColumnSide& Relation::Side(std::size_t col) const {
  if (columns_.size() < arity_) columns_.resize(arity_);
  return columns_[col];
}

std::size_t Relation::DistinctInColumn(std::size_t col) const {
  const std::size_t rows = visible_size();
  if (rows == 0 || col >= arity_) return 1;
  ColumnSide& side = Side(col);
  if (side.distinct_rows_at != 0 &&
      rows <= 2 * static_cast<std::size_t>(side.distinct_rows_at)) {
    return side.distinct_estimate;
  }
  side.distinct_rows_at = static_cast<uint32_t>(rows);
  side.distinct_estimate =
      static_cast<uint32_t>(SampleDistinct(col, 0, rows));
  return side.distinct_estimate;
}

std::size_t Relation::SampleDistinct(std::size_t col, std::size_t begin,
                                     std::size_t end) const {
  if (begin >= end || col >= arity_) return 1;
  const std::size_t rows = end - begin;
  constexpr std::size_t kSample = 1024;
  const std::size_t step = std::max<std::size_t>(1, rows / kSample);
  std::vector<SymbolId> sample;
  sample.reserve(std::min<std::size_t>(rows, kSample + 1));
  const SymbolId* column = cols_.data() + col * stride_;
  for (std::size_t row = begin; row < end; row += step) {
    sample.push_back(column[row]);
  }
  std::sort(sample.begin(), sample.end());
  const std::size_t distinct = static_cast<std::size_t>(
      std::unique(sample.begin(), sample.end()) - sample.begin());
  std::size_t result;
  if (step == 1) {
    result = distinct;  // exact
  } else if (distinct == sample.size()) {
    // Every sampled value was fresh: treat the column as (near-)unique.
    result = rows;
  } else {
    // Constant-fan-out extrapolation: rows / (sampled / distinct).
    result = std::max<std::size_t>(1, rows * distinct / sample.size());
  }
  return std::max<std::size_t>(1, std::min<std::size_t>(result, rows));
}

const std::vector<uint32_t>* Relation::Probe(std::size_t col,
                                             SymbolId value) const {
  if (num_rows_ == 0) return nullptr;
  assert(col < arity_);
  ColumnSide& side = Side(col);
  if (!side.indexed) {
    side.indexed = true;
    const SymbolId* column = cols_.data() + col * stride_;
    for (uint32_t row = 0; row < num_rows_; ++row) {
      side.index[column[row]].push_back(row);
    }
  }
  auto bucket = side.index.find(value);
  if (bucket == side.index.end()) return nullptr;
#ifndef NDEBUG
  // Invalidation-contract check: every indexed row id addresses a live row.
  for (uint32_t row : bucket->second) assert(row < num_rows_);
#endif
  return &bucket->second;
}

}  // namespace chronolog
