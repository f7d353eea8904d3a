// perfbench — the chronolog benchmark binary (see perfbench/run.py, which
// builds it and is the command to run).
//
//   perfbench --workload serve_point|serve_scan|materialize --seed N
//             --seconds S --trace 0|1 [--source-id ID] [--trace-out PATH]
//
// Prints one stamp line, then as the last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set of BENCHMARK.json.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>

#include "common.h"
#include "util/log.h"
#include "util/string_util.h"
#include "workload/generators.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Min(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int32_t SpanRecorder::Begin(const char* name, uint32_t request,
                            int32_t parent) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

int64_t SpanRecorder::End(int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  return span.end_ns - span.start_ns;
}

void SpanRecorder::Append(const SpanRecorder& other) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.request % 64 << ",\"ts\":"
        << chronolog::FormatDouble(static_cast<double>(s.start_ns - origin) /
                                   1e3)
        << ",\"dur\":"
        << chronolog::FormatDouble(static_cast<double>(s.end_ns - s.start_ns) /
                                   1e3)
        << ",\"args\":{\"request\":" << s.request << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "],\"spans_total\":" << spans_.size() << "}\n";
  return static_cast<bool>(out);
}

std::vector<int> FirstPrimes(int k) {
  std::vector<int> primes;
  for (int candidate = 2; static_cast<int>(primes.size()) < k; ++candidate) {
    bool prime = true;
    for (int p : primes) prime = prime && candidate % p != 0;
    if (prime) primes.push_back(candidate);
  }
  return primes;
}

std::string RingsSource(int k) {
  return chronolog::workload::TokenRingSource(FirstPrimes(k));
}

std::string SkiSource() {
  return chronolog::workload::SkiScheduleSource(4, 365, 91, 13);
}

std::string PathSource() {
  // Fixed graph seed (the one of BM_BtPathRandomGraph), so the spec and BT
  // cost of `path` is the same for every --seed.
  std::mt19937 rng(12345);
  return chronolog::workload::PathProgramSource() +
         chronolog::workload::RandomGraphFactsSource(kPathNodes, kPathEdges,
                                                     &rng);
}

chronolog::ParsedUnit MustParse(const std::string& source) {
  auto unit = chronolog::Parser::Parse(source);
  if (!unit.ok()) {
    std::fprintf(stderr, "perfbench: parse failed: %s\n",
                 unit.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(unit).value();
}

std::vector<std::pair<std::string, std::string>> PointStream(uint64_t seed,
                                                             std::size_t n) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto pick = [&](int n_choices) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n_choices));
  };
  // Log-uniform depth in [0, 10^12).
  auto depth = [&] {
    return static_cast<int64_t>(std::floor(std::pow(10.0, 12.0 * unit(rng)))) -
           1;
  };
  const std::vector<int> primes = FirstPrimes(6);
  std::vector<std::pair<std::string, std::string>> stream;
  stream.reserve(n);
  // Databases (and rings) rotate in a fixed order so every seed sends the
  // same mix; the seed picks depths and constants.
  for (std::size_t i = 0; i < n; ++i) {
    const std::string t = std::to_string(depth());
    switch (i % 3) {
      case 0: {
        const int ring = static_cast<int>(i / 3 % 6);
        stream.emplace_back("rings", "tok(" + t + ", r" + std::to_string(ring) +
                                         "_" +
                                         std::to_string(pick(primes[ring])) +
                                         ")");
        break;
      }
      case 1: {
        static const char* const kSeasons[] = {"winter", "holiday",
                                               "offseason"};
        const int kind = pick(5);
        stream.emplace_back(
            "ski", kind < 2 ? "plane(" + t + ", resort" +
                                  std::to_string(pick(4)) + ")"
                            : std::string(kSeasons[kind - 2]) + "(" + t + ")");
        break;
      }
      default:
        stream.emplace_back("path", "path(" + t + ", n" +
                                        std::to_string(pick(kPathNodes)) +
                                        ", n" +
                                        std::to_string(pick(kPathNodes)) + ")");
    }
  }
  return stream;
}

}  // namespace perfbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_point|serve_scan|materialize "
               "--seed N --seconds S --trace 0|1 [--source-id ID] "
               "[--trace-out PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--corrupt-oracle" && has_value) {
      options.corrupt_oracle = std::string(argv[++i]) == "1";
    } else if (arg == "--source-id" && has_value) {
      source_id = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    Usage();
    return 2;
  }

  // Timings from an unoptimised or assert-enabled build are not comparable
  // with any committed result: refuse to report them.
#ifdef NDEBUG
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a '%s' build "
                 "(need Release with NDEBUG)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  chronolog::SetGlobalLogLevel(chronolog::LogLevel::kError);

  const bool serve = options.workload == "serve_point" ||
                     options.workload == "serve_scan";
  if (!serve && options.workload != "materialize") {
    Usage();
    return 2;
  }
  std::printf(
      "perfbench stamp: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%ld,\"source_id\":\"%s\",\"build_type\":\"%s\","
      "\"client_threads\":%d,\"server_workers\":%d,\"engine_threads\":1}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      chronolog::FormatDouble(options.seconds).c_str(),
      options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), source_id.c_str(),
      PERFBENCH_BUILD_TYPE, serve ? 2 : 1, serve ? 2 : 0);
  std::fflush(stdout);

  perfbench::Outcome outcome =
      serve ? perfbench::RunServeWorkload(options,
                                          options.workload == "serve_scan")
            : perfbench::RunMaterializeWorkload(options);

  for (const std::string& m : outcome.mismatches) {
    std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", m.c_str());
  }
  for (const std::string& note : outcome.notes) {
    std::printf("perfbench note: %s\n", note.c_str());
  }
  std::printf("perfbench error_rate: %s (%llu failed of %llu attempted)\n",
              chronolog::FormatDouble(
                  static_cast<double>(outcome.failed) /
                  static_cast<double>(std::max<uint64_t>(outcome.attempted, 1)))
                  .c_str(),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::string json = "{\"correct\":";
  json += outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(outcome.attempted);
  json += ",\"failed\":" + std::to_string(outcome.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    if (i > 0) json += ",";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
