#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace chronolog {

namespace {

// Per-thread nesting depth. A thread-local (rather than per-buffer) counter
// is correct because a thread executes at most one buffer's spans at a time,
// and it keeps TraceSpan construction free of any shared state.
thread_local int tls_depth = 0;

// Scope id of the innermost live TraceScope on this thread (0 = none). Same
// thread-local reasoning as the depth counter: one buffer's request runs on
// one thread at a time.
thread_local uint64_t tls_scope = 0;

// Per-process thread number, assigned on the thread's first span; threads
// after the 65535th share the last number.
uint16_t ThreadNumber() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint16_t number = static_cast<uint16_t>(std::min<uint32_t>(
      next.fetch_add(1, std::memory_order_relaxed) + 1, UINT16_MAX));
  return number;
}

uint64_t ToMicros(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), capacity_(capacity) {}

void TraceBuffer::Record(const char* name, int depth,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
  const uint64_t start_us = start <= epoch_ ? 0 : ToMicros(start - epoch_);
  const uint32_t dur_us = static_cast<uint32_t>(std::min<uint64_t>(
      end <= start ? 0 : ToMicros(end - start), UINT32_MAX));
  const uint16_t tid = ThreadNumber();
  const uint64_t scope = tls_scope;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{
      name, start_us, scope, dur_us, tid,
      static_cast<uint16_t>(std::clamp<int>(depth, 0, UINT16_MAX))});
}

uint64_t TraceBuffer::OpenScope(std::string_view request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = ++next_scope_;
  scope_names_.emplace_back(id, std::string(request_id));
  if (scope_names_.size() > kMaxScopeNames) scope_names_.pop_front();
  return id;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  scope_names_.clear();
}

std::string TraceBuffer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"events\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += e.name;
    out += "\",\"depth\":" + std::to_string(e.depth) +
           ",\"start_us\":" + std::to_string(e.start_us) +
           ",\"dur_us\":" + std::to_string(e.dur_us) +
           ",\"tid\":" + std::to_string(e.tid);
    if (e.scope != 0) out += ",\"scope\":" + std::to_string(e.scope);
    out += "}";
  }
  out += "],\"dropped\":" + std::to_string(dropped_) + "}";
  return out;
}

std::string TraceBuffer::ToChromeTraceJson(
    std::string_view request_filter) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Scope id → request id, resolved once per export; with a filter, the set
  // of scope ids belonging to the requested id (one request can open several
  // scopes, e.g. on retries with the same client-supplied id).
  std::unordered_map<uint64_t, const std::string*> scope_requests;
  std::unordered_set<uint64_t> wanted;
  for (const auto& [id, request] : scope_names_) {
    scope_requests.emplace(id, &request);
    if (!request_filter.empty() && request == request_filter) {
      wanted.insert(id);
    }
  }
  const bool filtered = !request_filter.empty();
  // Dense thread ids in first-seen order: Perfetto renders one track per
  // tid, numbered from 1 within each export.
  std::unordered_map<uint16_t, uint64_t> tids;
  auto dense_tid = [&tids](uint16_t tid) {
    return tids.emplace(tid, tids.size() + 1).first->second;
  };
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" +
      std::to_string(dropped_);
  if (filtered) {
    out += ",\"request\":\"" + JsonEscape(request_filter) +
           "\",\"scopes\":" + std::to_string(wanted.size());
  }
  out += "},\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"chronolog\"}}";
  for (const TraceEvent& e : events_) {
    if (filtered && wanted.count(e.scope) == 0) continue;
    out += ",{\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"chronolog\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(dense_tid(e.tid)) +
           ",\"ts\":" + std::to_string(e.start_us) +
           ",\"dur\":" + std::to_string(e.dur_us) +
           ",\"args\":{\"depth\":" + std::to_string(e.depth);
    if (e.scope != 0) {
      if (const auto it = scope_requests.find(e.scope);
          it != scope_requests.end()) {
        out += ",\"request\":\"" + JsonEscape(*it->second) + "\"";
      }
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

TraceSpan::TraceSpan(TraceBuffer* buffer, const char* name)
    : buffer_(buffer), name_(name) {
  if (buffer_ == nullptr) return;
  depth_ = tls_depth++;
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (buffer_ == nullptr) return;
  --tls_depth;
  buffer_->Record(name_, depth_, start_, std::chrono::steady_clock::now());
}

TraceScope::TraceScope(TraceBuffer* buffer, std::string_view request_id) {
  if (buffer == nullptr || request_id.empty()) return;
  id_ = buffer->OpenScope(request_id);
  prev_ = tls_scope;
  tls_scope = id_;
  active_ = true;
}

TraceScope::~TraceScope() {
  if (active_) tls_scope = prev_;
}

}  // namespace chronolog
