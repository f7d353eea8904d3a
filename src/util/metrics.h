#ifndef CHRONOLOG_UTIL_METRICS_H_
#define CHRONOLOG_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace chronolog {

/// chronolog_obs — the engine-wide metrics layer. A `MetricsRegistry` is a
/// thread-safe, name-keyed store of two instrument kinds:
///
///  * `Counter`   — monotone event counts (relaxed atomic adds);
///  * `Histogram` — log2-bucketed latency (or size) distributions with
///                  lock-free recording, built for the hot evaluation paths.
///
/// Every evaluator accepts a nullable `MetricsRegistry*` through its options
/// struct (`FixpointOptions::metrics` etc.); a null pointer disables all
/// collection at the cost of one branch per instrumentation site, which is
/// what keeps `EngineOptions::collect_metrics = false` near-zero overhead.
/// Instruments are created at the *entry* of each instrumented phase, not at
/// first record, so a registry whose histogram stays empty after a run is
/// evidence of dead instrumentation (bench/ci.sh fails on it).

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Log2-bucketed distribution. Samples are recorded in nanoseconds (or raw
/// units via RecordValue); bucket `i` holds samples whose bit width is `i`,
/// i.e. values in `[2^(i-1), 2^i)`, so 64 buckets cover the full uint64
/// range with ~2x relative resolution — the standard shape for latency
/// distributions spanning many orders of magnitude. Recording is a relaxed
/// atomic increment plus two CAS loops for min/max; safe from any thread.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Records a duration given in milliseconds (converted to ns internally).
  void RecordMs(double ms);
  /// Records a raw non-negative value (e.g. a fact count or task count).
  void RecordValue(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const;
  double mean() const;  // 0 when empty

  /// Estimated q-quantile (q in [0, 1]) from the log2 buckets: finds the
  /// bucket holding the ceil(q * count)-th sample and interpolates linearly
  /// inside its [2^(i-1), 2^i) range, clamped to the observed min/max. The
  /// ~2x bucket resolution bounds the relative error at 2x — good enough
  /// for dashboards (p50/p90/p99 in the Prometheus export), not for SLA
  /// arithmetic. 0 when empty.
  double Quantile(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// Name-keyed instrument store. `counter`/`histogram` get-or-create
/// under a mutex and return stable pointers (instruments are never removed),
/// so callers hoist the lookup out of hot loops and then record lock-free.
/// Names are dotted paths, `subsystem.phase[_unit]`:
/// `fixpoint.derive_ms`, `period.doublings`, `forward.timestep_ns`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// True when an instrument of that kind and name already exists.
  bool has_histogram(std::string_view name) const;

  /// Deterministic (name-sorted) JSON object:
  /// {"counters":{name:n,...},
  ///  "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,"mean":..,
  ///                      "buckets":[{"le":2^i,"n":..},...]},...}}
  /// Histogram values are in the unit they were recorded in (ns for the
  /// `*_ns` timers, raw counts otherwise); bucket entries list only
  /// non-empty buckets, `le` being the bucket's exclusive upper bound.
  std::string ToJson() const;

  /// Prometheus text exposition (format version 0.0.4), served by
  /// `GET /metrics` (src/serve). Dotted instrument names are sanitised to
  /// the metric-name charset (`.` -> `_`); every metric keeps a `# HELP`
  /// line naming the original dotted instrument. Mapping:
  ///
  ///  * Counter    -> `counter` sample;
  ///  * Histogram  -> `histogram` family: cumulative `_bucket{le="2^i"}`
  ///                  samples (one per log2 bucket up to the highest
  ///                  non-empty one, then `le="+Inf"`), `_sum` and `_count`,
  ///                  plus derived `_p50`/`_p90`/`_p99` gauge variants
  ///                  (Quantile()) so dashboards don't reimplement the
  ///                  bucket-interpolation math.
  ///
  /// Deterministic (name-sorted), one trailing newline per line, so the
  /// output diffs cleanly between scrapes.
  std::string ToPrometheusText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII phase timer: on destruction (or Stop) adds the elapsed wall-clock
/// milliseconds to `field` (an `EvalStats` `*_ms` slot, may be null) and
/// records the same duration into `hist` (may be null). Construct with
/// `enabled = false` to skip the clock reads entirely — the evaluators use
/// this to keep sub-microsecond rounds free of clock overhead unless a
/// registry is attached.
class PhaseTimer {
 public:
  PhaseTimer(bool enabled, double* field, Histogram* hist)
      : field_(field), hist_(hist), enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() { Stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Idempotent early stop.
  void Stop() {
    if (!enabled_) return;
    enabled_ = false;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    if (field_ != nullptr) *field_ += ms;
    if (hist_ != nullptr) hist_->RecordMs(ms);
  }

 private:
  std::chrono::steady_clock::time_point start_;
  double* field_;
  Histogram* hist_;
  bool enabled_;
};

}  // namespace chronolog

#endif  // CHRONOLOG_UTIL_METRICS_H_
