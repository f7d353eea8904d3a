#include "query/answers.h"

#include <algorithm>
#include <functional>

#include "util/string_util.h"

namespace chronolog {

namespace {

bool ValueLess(const QueryValue& a, const QueryValue& b) {
  if (a.temporal != b.temporal) return b.temporal;
  if (a.temporal) return a.time < b.time;
  return a.constant < b.constant;
}

bool RowLess(const std::vector<QueryValue>& a,
             const std::vector<QueryValue>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      ValueLess);
}

bool RowEq(const std::vector<QueryValue>& a,
           const std::vector<QueryValue>& b) {
  return a == b;
}

}  // namespace

Result<std::vector<std::vector<QueryValue>>> UnfoldAnswers(
    const QueryAnswer& answer, int64_t max_time) {
  if (answer.rewrite_lhs < 0) {
    return FailedPreconditionError(
        "UnfoldAnswers: answer carries no rewrite rule (it was evaluated "
        "over a materialised model, not a specification)");
  }
  const int64_t p = answer.rewrite_p;
  const int64_t cycle_start = answer.rewrite_lhs - p;

  std::vector<std::vector<QueryValue>> out;
  for (const auto& row : answer.rows) {
    // Per-column expansions.
    std::vector<std::vector<QueryValue>> columns(row.size());
    bool empty = false;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const QueryValue& v = row[i];
      if (!v.temporal || v.time < cycle_start) {
        if (v.temporal && v.time > max_time) {
          empty = true;
          break;
        }
        columns[i].push_back(v);
        continue;
      }
      for (int64_t t = v.time; t <= max_time; t += p) {
        columns[i].push_back(QueryValue{true, t, 0});
      }
      if (columns[i].empty()) {
        empty = true;
        break;
      }
    }
    if (empty) continue;

    // Cartesian product.
    std::vector<QueryValue> current(row.size());
    std::function<void(std::size_t)> expand = [&](std::size_t i) {
      if (i == row.size()) {
        out.push_back(current);
        return;
      }
      for (const QueryValue& v : columns[i]) {
        current[i] = v;
        expand(i + 1);
      }
    };
    expand(0);
  }
  std::sort(out.begin(), out.end(), RowLess);
  out.erase(std::unique(out.begin(), out.end(), RowEq), out.end());
  return out;
}

std::string QueryAnswerToJson(const QueryAnswer& answer,
                              const Vocabulary& vocab) {
  std::string out = "{\"boolean\":";
  out += answer.boolean ? "true" : "false";
  out += ",\"free_vars\":[";
  for (std::size_t i = 0; i < answer.free_var_names.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(answer.free_var_names[i]) +
           "\",\"temporal\":";
    out += answer.free_var_temporal[i] ? "true}" : "false}";
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < answer.rows.size(); ++r) {
    if (r > 0) out += ",";
    out += "[";
    const auto& row = answer.rows[r];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ",";
      if (row[i].temporal) {
        out += std::to_string(row[i].time);
      } else {
        out += "\"" +
               JsonEscape(vocab.ConstantName(row[i].constant,
                                             answer.local_constants)) +
               "\"";
      }
    }
    out += "]";
  }
  out += "],\"rewrite\":";
  if (answer.rewrite_lhs >= 0) {
    out += "{\"lhs\":" + std::to_string(answer.rewrite_lhs) +
           ",\"p\":" + std::to_string(answer.rewrite_p) + "}";
  } else {
    out += "null";
  }
  out += ",\"partial\":";
  out += answer.partial ? "true" : "false";
  out += ",\"truncated\":";
  out += answer.truncated ? "true" : "false";
  out += ",\"rows_returned\":" + std::to_string(answer.rows.size()) + "}";
  return out;
}

}  // namespace chronolog
