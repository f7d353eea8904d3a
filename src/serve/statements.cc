#include "serve/statements.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/string_util.h"

namespace chronolog {

StatementStats::Shard& StatementStats::ShardFor(std::string_view shape) {
  return shards_[std::hash<std::string_view>{}(shape) % kNumShards];
}

StatementStats::Entry* StatementStats::GetOrCreate(std::string_view shape) {
  Shard& shard = ShardFor(shape);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.live.find(shape);
  if (it == shard.live.end()) {
    auto entry = std::make_unique<Entry>(std::string(shape));
    // The map key views the entry's own shape string, whose storage is
    // stable behind the unique_ptr.
    std::string_view key = entry->shape;
    it = shard.live.emplace(key, std::move(entry)).first;
  }
  return it->second.get();
}

void StatementStats::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [key, entry] : shard.live) {
      shard.retired.push_back(std::move(entry));
    }
    shard.live.clear();
  }
}

uint64_t StatementStats::TotalCalls() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.live) {
      total += entry->calls.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::string StatementStats::ToJson() const {
  // Snapshot the live entry pointers shard by shard; entries are stable, so
  // the render below runs without any lock held. The sort key is
  // snapshotted too: writers keep recording, and a key that changes
  // mid-sort breaks std::sort's ordering contract (out-of-range reads).
  std::vector<std::pair<uint64_t, const Entry*>> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.live) {
      entries.emplace_back(entry->eval_ns.sum(), entry.get());
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->shape < b.second->shape;
            });
  std::string out = "{\"statements\":[";
  bool first = true;
  for (const auto& [eval_sum, e] : entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"shape\":\"" + JsonEscape(e->shape) + "\"";
    out += ",\"calls\":" +
           std::to_string(e->calls.load(std::memory_order_relaxed));
    out += ",\"rows\":" +
           std::to_string(e->rows.load(std::memory_order_relaxed));
    out += ",\"partial\":" +
           std::to_string(e->partial.load(std::memory_order_relaxed));
    out += ",\"truncated\":" +
           std::to_string(e->truncated.load(std::memory_order_relaxed));
    out += ",\"oracle_lookups\":" +
           std::to_string(e->oracle_lookups.load(std::memory_order_relaxed));
    out += ",\"rewrite_steps\":" +
           std::to_string(e->rewrite_steps.load(std::memory_order_relaxed));
    out += ",\"parse_ns\":" +
           std::to_string(e->parse_ns.load(std::memory_order_relaxed));
    out += ",\"eval_ns\":{\"count\":" + std::to_string(e->eval_ns.count()) +
           ",\"sum\":" + std::to_string(e->eval_ns.sum()) +
           ",\"min\":" + std::to_string(e->eval_ns.min()) +
           ",\"max\":" + std::to_string(e->eval_ns.max()) +
           ",\"mean\":" + FormatSignificant(e->eval_ns.mean()) +
           ",\"p50\":" + FormatSignificant(e->eval_ns.Quantile(0.50)) +
           ",\"p90\":" + FormatSignificant(e->eval_ns.Quantile(0.90)) +
           ",\"p99\":" + FormatSignificant(e->eval_ns.Quantile(0.99)) + "}}";
  }
  out += "]}";
  return out;
}

}  // namespace chronolog
