#include "spec/serialize.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

#include "ast/parser.h"
#include "ast/printer.h"

namespace chronolog {

std::string SerializeSpecification(const RelationalSpecification& spec) {
  std::string out = "%!chronolog-spec 1\n";
  out += "%!period b=" + std::to_string(spec.period().b) +
         " p=" + std::to_string(spec.period().p) +
         " c=" + std::to_string(spec.c()) + "\n";
  // The text depends on names only, never on the ids a vocabulary happened
  // to assign: predicates in name order, each predicate's cells in time
  // order, each cell's lines sorted as text. A loaded specification (whose
  // vocabulary numbers symbols in order of appearance) therefore
  // serialises to the same bytes.
  const Vocabulary& vocab = spec.primary().vocab();
  std::vector<PredicateId> preds = vocab.AllPredicates();
  std::sort(preds.begin(), preds.end(), [&](PredicateId a, PredicateId b) {
    return vocab.predicate(a).name < vocab.predicate(b).name;
  });
  for (PredicateId pred : preds) {
    const PredicateInfo& info = vocab.predicate(pred);
    out += (info.is_temporal ? "@temporal " : "@predicate ") + info.name +
           "/" + std::to_string(info.written_arity()) + ".\n";
  }
  std::vector<std::string> facts(vocab.num_predicates());
  std::vector<std::string> cell;
  PredicateId cell_pred = kInvalidPredicate;
  int64_t cell_time = 0;
  auto flush = [&] {
    std::sort(cell.begin(), cell.end());
    for (const std::string& line : cell) facts[cell_pred] += line;
    cell.clear();
  };
  spec.primary().ForEach([&](PredicateId pred, int64_t time,
                             const Tuple& args) {
    if (!cell.empty() && (pred != cell_pred || time != cell_time)) flush();
    cell_pred = pred;
    cell_time = time;
    cell.push_back(GroundAtomToString(GroundAtom(pred, time, args), vocab) +
                   ".\n");
  });
  if (!cell.empty()) flush();
  for (PredicateId pred : preds) out += facts[pred];
  return out;
}

Result<RelationalSpecification> DeserializeSpecification(
    std::string_view text) {
  // Locate the `%!period` header.
  int64_t b = -1;
  int64_t p = -1;
  int64_t c = -1;
  bool versioned = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.rfind("%!chronolog-spec", 0) == 0) {
      int version = 0;
      if (std::sscanf(line.c_str(), "%%!chronolog-spec %d", &version) != 1 ||
          version != 1) {
        return InvalidArgumentError("unsupported specification version: " +
                                    line);
      }
      versioned = true;
      continue;
    }
    if (line.rfind("%!period", 0) == 0) {
      if (std::sscanf(line.c_str(),
                      "%%!period b=%" SCNd64 " p=%" SCNd64 " c=%" SCNd64, &b,
                      &p, &c) != 3) {
        return InvalidArgumentError("malformed period header: " + line);
      }
      continue;
    }
  }
  if (!versioned) {
    return InvalidArgumentError(
        "missing %!chronolog-spec header; not a serialised specification");
  }
  if (b < 0 || p <= 0 || c < 0) {
    return InvalidArgumentError("missing or invalid %!period header");
  }
  // |T| = b + c + p must be representable: every rewrite and lookup of the
  // specification computes it.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (b > kMax - c || b + c > kMax - p) {
    return InvalidArgumentError("%!period header overflows b + c + p");
  }
  const int64_t num_representatives = b + c + p;

  CHRONOLOG_ASSIGN_OR_RETURN(ParsedUnit unit, Parser::Parse(text));
  if (!unit.program.rules().empty()) {
    return InvalidArgumentError(
        "serialised specification must not contain rules");
  }
  Interpretation primary(unit.database.vocab_ptr());
  primary.InsertDatabase(unit.database);
  // B holds facts at representative times 0 .. b+c+p-1 only.
  if (primary.MaxTime() >= num_representatives) {
    return InvalidArgumentError(
        "fact at time " + std::to_string(primary.MaxTime()) +
        " lies beyond the representative terms 0.." +
        std::to_string(num_representatives - 1));
  }
  return RelationalSpecification(Period{b, p}, c, std::move(primary));
}

}  // namespace chronolog
