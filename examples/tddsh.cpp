// tddsh — an interactive shell for temporal deductive databases.
//
// Usage:
//   ./build/examples/tddsh [file.tdl ...]
//
// Files (and interactive clause input) use the chronolog surface syntax.
// At the prompt:
//
//   plane(0, hunter).            adds a fact (rebuilds the engine)
//   p(T+1) :- p(T).              adds a rule
//   ?- plane(7, hunter).         ground yes-no query
//   ?- exists T (plane(T, X)).   first-order query (free vars enumerated)
//   .describe                    classification, period, spec sizes
//   .spec                        prints the relational specification (T,B,W)
//   .explain plane(7, hunter)    renders a derivation (proof tree)
//   .explain ?- plane(T, X)      EXPLAIN: shape, rewrite rule, join plans
//                                for a query — without executing it
//   .save out.spec               serialises the compiled specification
//   .timeline plane              populated snapshots of one predicate
//   .unfold 20 plane(T, X)       concrete answers up to time 20
//   .metrics [json]              chronolog_obs dump (Prometheus text / JSON)
//   .trace out.json              Chrome trace export (open in Perfetto)
//   .quit                        exit
//
// Dot-commands also accept the historical ":" prefix (`:describe` etc.).
// The engine is built with EngineOptions::collect_metrics, so `.metrics`
// and `.trace` always have the current session's instruments — see
// docs/OBSERVABILITY.md for the catalog.
//
// Demonstrates incremental use of the public API: sources accumulate and
// the engine (with its cached specification) is rebuilt on change.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ast/printer.h"
#include "core/engine.h"
#include "query/answers.h"
#include "query/query_parser.h"
#include "query/query_shape.h"
#include "spec/serialize.h"
#include "spec/specification.h"
#include "util/log.h"

namespace {

using chronolog::TemporalDatabase;

/// Rebuilds the engine from the accumulated sources. Every REPL engine
/// carries the chronolog_obs sinks so `.metrics` / `.trace` always reflect
/// the current session.
chronolog::Result<TemporalDatabase> Rebuild(
    const std::vector<std::string>& sources) {
  std::string all;
  for (const std::string& s : sources) {
    all += s;
    all += "\n";
  }
  chronolog::EngineOptions options;
  options.collect_metrics = true;
  return TemporalDatabase::FromSource(all, options);
}

void RunQuery(TemporalDatabase& tdd, const std::string& text) {
  auto answer = tdd.Query(text);
  if (!answer.ok()) {
    std::printf("error: %s\n", answer.status().ToString().c_str());
    return;
  }
  std::printf("%s", answer->ToString(tdd.vocab()).c_str());
  if (answer->free_var_names.empty()) std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> sources;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i]);
    if (!file) {
      chronolog::LogError("tddsh.open_failed").Str("path", argv[i]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    sources.push_back(buffer.str());
  }

  auto engine = Rebuild(sources);
  if (!engine.ok()) {
    chronolog::LogError("tddsh.load_failed")
        .Str("status", engine.status().ToString());
    return 1;
  }
  std::printf("chronolog tddsh — %zu file(s) loaded. .quit to exit.\n",
              sources.size());

  std::string line;
  while (true) {
    std::printf("tdd> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim.
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    line = line.substr(start);

    // Dot-commands; the historical ":" prefix stays accepted.
    if (line[0] == '.') line[0] = ':';

    if (line == ":quit" || line == ":q") break;
    if (line.rfind(":metrics", 0) == 0) {
      std::string arg = line.substr(8);
      if (arg == " json") {
        std::printf("%s\n", engine->MetricsJson().c_str());
      } else if (arg.empty()) {
        std::printf("%s", engine->metrics() != nullptr
                              ? engine->metrics()->ToPrometheusText().c_str()
                              : "(metrics collection is off)\n");
      } else {
        std::printf("usage: .metrics [json]\n");
      }
      continue;
    }
    if (line.rfind(":trace ", 0) == 0) {
      std::string path = line.substr(7);
      if (engine->trace() == nullptr) {
        std::printf("error: trace collection is off\n");
        continue;
      }
      std::ofstream out(path);
      if (!out) {
        std::printf("error: cannot open %s\n", path.c_str());
        continue;
      }
      out << engine->trace()->ToChromeTraceJson();
      std::printf("wrote %s (%zu spans, %llu dropped) — open in Perfetto\n",
                  path.c_str(), engine->trace()->size(),
                  static_cast<unsigned long long>(engine->trace()->dropped()));
      continue;
    }
    if (line == ":describe" || line == ":d") {
      std::printf("%s", engine->Describe().c_str());
      continue;
    }
    if (line == ":spec") {
      auto spec = engine->specification();
      if (!spec.ok()) {
        std::printf("error: %s\n", spec.status().ToString().c_str());
      } else {
        std::printf("%s", (*spec)->ToString().c_str());
      }
      continue;
    }
    if (line.rfind(":timeline ", 0) == 0) {
      std::string name = line.substr(10);
      auto spec = engine->specification();
      if (!spec.ok()) {
        std::printf("error: %s\n", spec.status().ToString().c_str());
        continue;
      }
      chronolog::PredicateId pred = engine->vocab().FindPredicate(name);
      if (pred == chronolog::kInvalidPredicate) {
        std::printf("error: unknown predicate '%s'\n", name.c_str());
        continue;
      }
      if (!engine->vocab().predicate(pred).is_temporal) {
        std::printf("'%s' is non-temporal (%zu tuples)\n", name.c_str(),
                    (*spec)->primary().CellSize(pred, 0));
        continue;
      }
      (*spec)->primary().ForEachCell(
          pred, [](int64_t time, std::size_t tuples) {
            std::printf("  t=%-6lld %zu tuple(s)\n",
                        static_cast<long long>(time), tuples);
          });
      std::printf("(representatives 0..%lld; rewrite %lld -> %lld)\n",
                  static_cast<long long>((*spec)->num_representatives() - 1),
                  static_cast<long long>((*spec)->rewrite_lhs()),
                  static_cast<long long>((*spec)->rewrite_lhs() -
                                         (*spec)->period().p));
      continue;
    }
    if (line.rfind(":unfold ", 0) == 0) {
      std::istringstream in(line.substr(8));
      long long horizon = 0;
      in >> horizon;
      std::string query;
      std::getline(in, query);
      auto answer = engine->Query(query);
      if (!answer.ok()) {
        std::printf("error: %s\n", answer.status().ToString().c_str());
        continue;
      }
      auto unfolded = chronolog::UnfoldAnswers(*answer, horizon);
      if (!unfolded.ok()) {
        std::printf("error: %s\n", unfolded.status().ToString().c_str());
        continue;
      }
      for (const auto& row : *unfolded) {
        for (std::size_t i = 0; i < row.size(); ++i) {
          if (i > 0) std::printf(", ");
          std::printf("%s = ", answer->free_var_names[i].c_str());
          if (row[i].temporal) {
            std::printf("%lld", static_cast<long long>(row[i].time));
          } else {
            std::printf("%s", engine->vocab()
                                  .ConstantName(row[i].constant,
                                                answer->local_constants)
                                  .c_str());
          }
        }
        std::printf("\n");
      }
      std::printf("(%zu answers up to t=%lld)\n", unfolded->size(), horizon);
      continue;
    }
    if (line.rfind(":explain ", 0) == 0) {
      std::string arg = line.substr(9);
      std::size_t arg_start = arg.find_first_not_of(' ');
      if (arg_start != std::string::npos && arg_start > 0) {
        arg = arg.substr(arg_start);
      }
      if (arg.rfind("?-", 0) == 0) {
        // Query EXPLAIN (chronolog_qstats): the plan that would answer the
        // query — shape, rewrite rule, join plans — without executing it.
        std::string query = arg.substr(2);
        if (!query.empty() && query.back() == '.') query.pop_back();
        auto spec = engine->specification();
        if (!spec.ok()) {
          std::printf("error: %s\n", spec.status().ToString().c_str());
          continue;
        }
        auto parsed = chronolog::ParseQuery(query, engine->vocab());
        if (!parsed.ok()) {
          std::printf("error: %s\n", parsed.status().ToString().c_str());
          continue;
        }
        std::printf("shape: %s\n",
                    chronolog::NormalizeQueryShape(query).c_str());
        std::printf("rewrite rule %lld -> %lld (period b=%lld p=%lld, "
                    "%lld representatives)\n",
                    static_cast<long long>((*spec)->rewrite_lhs()),
                    static_cast<long long>((*spec)->rewrite_lhs() -
                                           (*spec)->period().p),
                    static_cast<long long>((*spec)->period().b),
                    static_cast<long long>((*spec)->period().p),
                    static_cast<long long>((*spec)->num_representatives()));
        const chronolog::RulePlanReport& plans = engine->spec_info().plans;
        const auto& rules = engine->program().rules();
        for (std::size_t i = 0; i < rules.size(); ++i) {
          std::printf("rule %zu: %s\n", i,
                      chronolog::RuleToString(rules[i], engine->vocab())
                          .c_str());
          if (i >= plans.size() || plans[i].empty()) {
            std::printf("  (no cached plan — rule never drove a join)\n");
            continue;
          }
          for (const auto& slot : plans[i]) {
            std::printf("  delta=%d time_bound=%s order=[", slot.delta_pos,
                        slot.time_bound ? "yes" : "no");
            for (std::size_t k = 0; k < slot.order.size(); ++k) {
              std::printf("%s%u", k > 0 ? " " : "", slot.order[k]);
            }
            std::printf("] est=%.2f steps/emit", slot.est_steps_per_emit);
            if (slot.observed_emits > 0) {
              std::printf(" observed=%.2f",
                          static_cast<double>(slot.observed_steps) /
                              static_cast<double>(slot.observed_emits));
            }
            std::printf("\n");
          }
        }
        continue;
      }
      auto proof = engine->Explain(arg);
      if (!proof.ok()) {
        std::printf("error: %s\n", proof.status().ToString().c_str());
      } else {
        std::printf("%s", proof->c_str());
      }
      continue;
    }
    if (line.rfind(":save ", 0) == 0) {
      auto spec = engine->specification();
      if (!spec.ok()) {
        std::printf("error: %s\n", spec.status().ToString().c_str());
        continue;
      }
      std::string path = line.substr(6);
      std::ofstream out(path);
      if (!out) {
        std::printf("error: cannot open %s\n", path.c_str());
        continue;
      }
      out << chronolog::SerializeSpecification(**spec);
      std::printf("saved %s\n", path.c_str());
      continue;
    }
    if (line.rfind("?-", 0) == 0) {
      std::string query = line.substr(2);
      if (!query.empty() && query.back() == '.') query.pop_back();
      RunQuery(*engine, query);
      continue;
    }
    // Otherwise: clauses. Validate by rebuilding with the addition; on
    // error the addition is rolled back.
    sources.push_back(line);
    auto next = Rebuild(sources);
    if (!next.ok()) {
      std::printf("error: %s\n", next.status().ToString().c_str());
      sources.pop_back();
      continue;
    }
    engine = std::move(next);
    std::printf("ok\n");
  }
  return 0;
}
