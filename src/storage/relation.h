#ifndef CHRONOLOG_STORAGE_RELATION_H_
#define CHRONOLOG_STORAGE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/tuple.h"
#include "util/hash.h"
#include "util/symbol_table.h"

namespace chronolog {

/// Columnar, deduplicated set of same-arity tuples — the storage unit behind
/// every predicate (and, for temporal predicates, every snapshot cell) of an
/// Interpretation.
///
/// Layout: one column-major `SymbolId` block (each column a contiguous run
/// of `stride_` values), rows identified by their append order (`uint32_t`
/// row ids, dense `[0, size())`). Deduplication and membership run through
/// a compact open-addressing table (swiss-table style: one control byte per
/// slot holding a 7-bit tag of the row hash, probed eight slots at a time
/// with SWAR word ops), whose slots store row ids — so `Insert`/`Contains`
/// touch one contiguous control array plus the columns, never per-tuple
/// heap nodes. A relation owns two heap blocks, the columns and the table,
/// however many columns it has.
///
/// Rows are append-only: there is no erase, so row ids are stable for the
/// lifetime of the relation (truncation at the Interpretation level drops
/// whole Relations). The arity is fixed by the first insert; a
/// default-constructed relation accepts any arity once.
///
/// Each column lazily grows a side table holding its sampled distinct count
/// and its hash-join index (value -> row ids); both are built on first use
/// and the index is kept up to date by `Insert`. Copies carry the side
/// tables, so a copy answers probes from its own index.
///
/// Thread-safety: concurrent const access is safe except `DistinctInColumn`
/// and `Probe`, which fill the side tables; they, like any write, need
/// exclusive access.
class Relation {
 public:
  Relation() = default;

  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  std::size_t arity() const { return arity_; }

  /// Value of column `col` in row `row`. No bounds checks in release builds.
  SymbolId at(std::size_t row, std::size_t col) const {
    return cols_[col * stride_ + row];
  }

  /// Inserts the tuple `data[0..n)`; returns true when it was new. `n` must
  /// equal the arity fixed by the first insert.
  bool Insert(const SymbolId* data, std::size_t n);
  bool Insert(const Tuple& tuple) { return Insert(tuple.data(), tuple.size()); }

  bool Contains(const SymbolId* data, std::size_t n) const;
  bool Contains(const Tuple& tuple) const {
    return Contains(tuple.data(), tuple.size());
  }

  /// Materialises row `row` as a Tuple (gathers across the columns).
  Tuple Row(std::size_t row) const;

  /// Gathers row `row` into `*out` (cleared first; capacity is reused, so a
  /// scratch tuple makes repeated enumeration allocation-free).
  void CopyRow(std::size_t row, Tuple* out) const;

  /// Set equality (row order is irrelevant).
  friend bool operator==(const Relation& a, const Relation& b);
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }

  /// Estimated number of distinct values in column `col` (>= 1 when the
  /// relation is non-empty). Sampled over at most ~1k rows and cached; the
  /// cache refreshes once the relation doubles. Feeds the join planner's
  /// bound-column fan-out estimates.
  std::size_t DistinctInColumn(std::size_t col) const;

  /// Hash-join probe: the row ids of the rows whose column `col` equals
  /// `value`, in insertion order, or nullptr when there are none. The
  /// column's index is built on first probe and maintained by later
  /// inserts. Row ids are positional, so a returned bucket stays valid
  /// (and may grow) across inserts and moves of the relation; it dies with
  /// the relation. Debug builds assert that every returned row id is
  /// `< size()`.
  const std::vector<uint32_t>* Probe(std::size_t col, SymbolId value) const;

 private:
  static constexpr std::size_t kGroup = 8;
  static constexpr uint8_t kEmpty = 0x80;  // tags use only the low 7 bits

  static std::size_t RowHash(const SymbolId* data, std::size_t n) {
    return Mix64(HashRange(data, n, n));
  }
  std::size_t HashOfRow(std::size_t row) const;
  bool RowEqualsData(std::size_t row, const SymbolId* data,
                     std::size_t n) const;

  /// Core probe: returns the row id matching `data`, or `kNotFound` with
  /// `*insert_slot` set to the first free slot on the probe path.
  static constexpr uint32_t kNotFound = ~uint32_t{0};
  uint32_t FindRow(const SymbolId* data, std::size_t n, std::size_t hash,
                   std::size_t* insert_slot) const;

  void Grow();
  void GrowColumns();
  void PlaceRow(std::size_t row, std::size_t hash);
  void SetCtrl(std::size_t slot, uint8_t byte);

  // Column `c` holds rows `[0, num_rows_)` at `cols_[c * stride_ ...]`;
  // `stride_` doubles when a row does not fit.
  std::vector<SymbolId> cols_;
  uint32_t stride_ = 0;
  uint32_t num_rows_ = 0;
  uint32_t arity_ = 0;
  bool arity_set_ = false;

  // Open-addressing dedup table in one block: `cap_` row-id slots, then
  // `cap_ + kGroup - 1` control bytes (the tail mirrors the first kGroup-1
  // slots so unaligned 8-byte group loads never wrap). `cap_` is a power
  // of two.
  std::vector<uint32_t> table_;
  std::size_t cap_ = 0;
  uint32_t* slots() { return table_.data(); }
  const uint32_t* slots() const { return table_.data(); }
  uint8_t* ctrl() { return reinterpret_cast<uint8_t*>(table_.data() + cap_); }
  const uint8_t* ctrl() const {
    return reinterpret_cast<const uint8_t*>(table_.data() + cap_);
  }

  // Per-column side table, sized to the arity on the first DistinctInColumn
  // or Probe call; empty for relations that are only scanned.
  struct ColumnSide {
    uint32_t distinct_rows_at = 0;  // rows when sampled; 0 = never sampled
    uint32_t distinct_estimate = 0;
    bool indexed = false;           // `index` is built and maintained
    std::unordered_map<SymbolId, std::vector<uint32_t>> index;
  };
  ColumnSide& Side(std::size_t col) const;
  mutable std::vector<ColumnSide> columns_;
};

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_RELATION_H_
