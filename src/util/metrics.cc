#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/string_util.h"

namespace chronolog {

namespace {

void AtomicMin(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; the dotted
/// instrument paths map onto it by replacing every other character with '_'.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out += '_';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void AppendFamilyHeader(std::string& out, const std::string& prom_name,
                        const std::string& dotted, const char* type) {
  out += "# HELP " + prom_name + " chronolog instrument " + dotted + "\n";
  out += "# TYPE " + prom_name + " " + type + "\n";
}

}  // namespace

void Histogram::RecordMs(double ms) {
  const double ns = ms * 1e6;
  RecordValue(ns <= 0 ? 0 : static_cast<uint64_t>(ns));
}

void Histogram::RecordValue(uint64_t value) {
  // Bucket = bit width of the value: 0 -> bucket 0, [2^(i-1), 2^i) -> i.
  const int bucket = value == 0 ? 0 : std::bit_width(value);
  buckets_[std::min(bucket, kNumBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

uint64_t Histogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

uint64_t Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; q = 0 maps to the first sample.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * n)));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = bucket(i);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // The target sample is one of `in_bucket` values in [lower, upper);
    // interpolate linearly by its rank within the bucket, then clamp to the
    // exact observed extremes so p0/p100 are honest.
    const double lower = i == 0 ? 0 : std::ldexp(1.0, i - 1);
    const double upper = i == 0 ? 0 : std::ldexp(1.0, i);
    const double frac = static_cast<double>(rank - cumulative) /
                        static_cast<double>(in_bucket);
    const double est = lower + (upper - lower) * frac;
    return std::clamp(est, static_cast<double>(min()),
                      static_cast<double>(max()));
  }
  return static_cast<double>(max());
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

bool MetricsRegistry::has_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.find(name) != histograms_.end();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(counter->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":" + std::to_string(hist->count()) +
           ",\"sum\":" + std::to_string(hist->sum()) +
           ",\"min\":" + std::to_string(hist->min()) +
           ",\"max\":" + std::to_string(hist->max()) +
           ",\"mean\":" + FormatSignificant(hist->mean()) + ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t n = hist->bucket(i);
      if (n == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      // Exclusive upper bound of bucket i is 2^i (bucket 0 holds zeros).
      const double le = i == 0 ? 0 : std::ldexp(1.0, i);
      out += "{\"le\":" + FormatSignificant(le) + ",\"n\":" + std::to_string(n) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name);
    AppendFamilyHeader(out, prom, name, "counter");
    out += prom + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string prom = PrometheusName(name);
    AppendFamilyHeader(out, prom, name, "histogram");
    // Cumulative buckets: bucket i holds values in [2^(i-1), 2^i), so the
    // running sum through bucket i is the count of samples < 2^i — emitted
    // under le="2^i" (instrument values are integers; only a sample exactly
    // at a power of two could straddle the inclusive/exclusive boundary).
    int highest = -1;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (hist->bucket(i) > 0) highest = i;
    }
    uint64_t cumulative = 0;
    for (int i = 0; i <= highest; ++i) {
      cumulative += hist->bucket(i);
      const double le = i == 0 ? 0 : std::ldexp(1.0, i);
      out += prom + "_bucket{le=\"" + FormatSignificant(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(hist->count()) +
           "\n";
    out += prom + "_sum " + std::to_string(hist->sum()) + "\n";
    out += prom + "_count " + std::to_string(hist->count()) + "\n";
    const std::pair<const char*, double> quantiles[] = {
        {"_p50", hist->Quantile(0.50)},
        {"_p90", hist->Quantile(0.90)},
        {"_p99", hist->Quantile(0.99)}};
    for (const auto& [suffix, value] : quantiles) {
      AppendFamilyHeader(out, prom + suffix, name, "gauge");
      out += prom + suffix + " " + FormatSignificant(value) + "\n";
    }
  }
  return out;
}

}  // namespace chronolog
