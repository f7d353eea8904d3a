#ifndef CHRONOLOG_AST_VOCABULARY_H_
#define CHRONOLOG_AST_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/symbol_table.h"

namespace chronolog {

/// Dense identifier of a predicate symbol within one Vocabulary.
using PredicateId = uint32_t;

inline constexpr PredicateId kInvalidPredicate = static_cast<PredicateId>(-1);

/// Metadata of one predicate symbol. Following the paper (Section 3.1), a
/// predicate is either temporal — its first (distinguished) argument ranges
/// over temporal terms and the remaining `arity` arguments over constants —
/// or non-temporal with `arity` constant arguments.
struct PredicateInfo {
  std::string name;
  uint32_t arity = 0;        // number of NON-temporal arguments
  bool is_temporal = false;  // whether the distinguished argument is present

  /// Total number of written argument positions (`arity + 1` if temporal).
  uint32_t written_arity() const { return arity + (is_temporal ? 1u : 0u); }
};

/// Ids from here on are never a vocabulary's. A parsed query names with
/// them the constants its vocabulary does not know (query-local constants,
/// which no fact holds), so parsing never writes to a shared vocabulary.
inline constexpr SymbolId kFirstLocalConstant = SymbolId{1} << 31;

/// Shared name space of a temporal deductive database: interned constants and
/// the predicate signature table. A Program, Database and queries over them
/// all reference one Vocabulary.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Interns a database constant.
  SymbolId InternConstant(std::string_view name) {
    return constants_.Intern(name);
  }
  SymbolId FindConstant(std::string_view name) const {
    return constants_.Find(name);
  }
  /// Name of `id`: this vocabulary's constant, or from kFirstLocalConstant
  /// on the query-local constant `local[id - kFirstLocalConstant]`, where
  /// `local` is the Query/QueryAnswer::local_constants of the query that
  /// produced `id`. A local id whose names are not passed has no name here:
  /// it throws std::out_of_range instead of reading past either table.
  const std::string& ConstantName(
      SymbolId id, const std::vector<std::string>& local = {}) const {
    return id >= kFirstLocalConstant ? local.at(id - kFirstLocalConstant)
                                     : constants_.Name(id);
  }
  std::size_t num_constants() const { return constants_.size(); }

  /// Declares (or retrieves) a predicate. `written_arity` counts every
  /// argument position as written in the source, including a prospective
  /// temporal one; temporality is resolved later by sort inference (see
  /// parser.h) or an explicit declaration. Redeclaration with a different
  /// written arity is an error.
  Result<PredicateId> DeclarePredicate(std::string_view name,
                                       uint32_t written_arity);

  /// Marks `pred` as temporal, shifting one written argument into the
  /// distinguished temporal position. Idempotent.
  void SetTemporal(PredicateId pred);

  PredicateId FindPredicate(std::string_view name) const;
  const PredicateInfo& predicate(PredicateId id) const { return preds_[id]; }
  std::size_t num_predicates() const { return preds_.size(); }

  /// All predicate ids, in declaration order.
  std::vector<PredicateId> AllPredicates() const;

 private:
  SymbolTable constants_;
  std::vector<PredicateInfo> preds_;
  std::unordered_map<std::string, PredicateId> pred_ids_;
};

}  // namespace chronolog

#endif  // CHRONOLOG_AST_VOCABULARY_H_
