#ifndef CHRONOLOG_PERFBENCH_COMMON_H_
#define CHRONOLOG_PERFBENCH_COMMON_H_

// Shared pieces of the chronolog benchmark: run options, the result record
// printed as the last output line, the in-memory span recorder of the traced
// run, the allocation counter, and the seeded inputs every workload uses.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ast/parser.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Deliberately corrupts one expected answer; the smoke test uses it to
  /// prove a wrong answer is counted as a failed operation.
  bool corrupt_oracle = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty = skip.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the operation tally and the metrics of the mode
/// it ran in (end-to-end untraced, per-layer traced).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable oracle mismatches (the first few are printed).
  std::vector<std::string> mismatches;
  /// Extra context printed before the result line (sample counts, checks).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; `error` non-empty marks it failed.
  void Check(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      if (mismatches.size() < 8) mismatches.push_back(error);
    }
  }
};

/// Allocations made by the calling thread so far (the counting operator new
/// in alloc_count.cc; linked only into this binary).
uint64_t ThreadAllocations();

double SecondsSince(Clock::time_point start);
double Median(std::vector<double> values);
double Min(const std::vector<double>& values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double PeakRssMb();

/// One closed span of the traced run: `parent` indexes the enclosing span
/// in the same recorder (-1 for a root), `request` ties the spans of one
/// request or one build together.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t request;
};

/// Spans kept in memory during the traced run, written out once at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 0) { spans_.reserve(reserve); }
  int32_t Begin(const char* name, uint32_t request, int32_t parent = -1);
  /// Closes span `id` and returns its duration in nanoseconds.
  int64_t End(int32_t id);
  void Append(const SpanRecorder& other);
  /// Chrome trace-event JSON of at most `max_spans` spans.
  bool WriteChromeTrace(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

int64_t NowNs();

// ---------------------------------------------------------------------------
// Seeded inputs. The programs are fixed (so build and BT cost do not depend
// on the seed); the seed drives the query streams and the probed atoms.
// ---------------------------------------------------------------------------

/// The `path` database of both workloads: 128 nodes, 256 random edges.
inline constexpr int kPathNodes = 128;
inline constexpr int kPathEdges = 256;
/// Token rings over the first `k` primes (|T| = their product).
std::vector<int> FirstPrimes(int k);
std::string RingsSource(int k);
std::string SkiSource();
std::string PathSource();
chronolog::ParsedUnit MustParse(const std::string& source);

/// A seeded stream of ground yes/no atoms over the three served databases,
/// depths log-uniform up to 10^12. Each entry is (database, atom text).
std::vector<std::pair<std::string, std::string>> PointStream(uint64_t seed,
                                                             std::size_t n);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

Outcome RunServeWorkload(const RunOptions& options, bool scan);
Outcome RunMaterializeWorkload(const RunOptions& options);

/// Per-layer metrics of the build side (spec, eval, storage), measured with
/// spans around each public call. `serve_programs` selects the programs the
/// server registers (path, ski, rings/6) instead of the materialize set.
void MeasureBuildLayers(bool serve_programs, uint64_t seed,
                        SpanRecorder* spans, Outcome* out);

/// Per-layer metrics of the serving side, measured on a short closed-loop
/// run of the point stream (used by workloads that do not serve).
void MeasureServeLayersProbe(const RunOptions& options, SpanRecorder* spans,
                             Outcome* out);

}  // namespace perfbench

#endif  // CHRONOLOG_PERFBENCH_COMMON_H_
