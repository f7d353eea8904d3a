#ifndef CHRONOLOG_UTIL_TRACE_H_
#define CHRONOLOG_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace chronolog {

/// chronolog_obs — the tracing half of the observability layer. A
/// `TraceBuffer` is a bounded per-run event log; `TraceSpan` is the RAII
/// scope that feeds it. Spans nest through a thread-local depth counter
/// (fixpoint → round → derive/merge; period detector → doubling →
/// extend/find/verify), so the exported JSON
/// reconstructs the call tree without any interning or global state.
///
/// All evaluators take a nullable `TraceBuffer*` next to their
/// `MetricsRegistry*`; a null buffer makes TraceSpan construction a single
/// pointer test. Span names must be string literals (the buffer stores the
/// pointer, not a copy).
///
/// Request slicing (chronolog_qstats): a `TraceScope` tags every span its
/// thread records while the scope is alive with a per-request id, and the
/// buffer remembers which request string that id belongs to. The exporter
/// can then slice one query's spans out of a buffer shared by thousands of
/// requests (`GET /trace?request=ID`).

/// One completed span. Times are microseconds relative to the buffer's
/// construction (its epoch), so traces from one run share a timeline.
/// An event is 32 bytes: a busy server fills its buffers to capacity (one
/// span per query), so the event size is what a trace costs per slot.
struct TraceEvent {
  const char* name;
  uint64_t start_us;  // offset from the buffer epoch
  uint64_t scope;     // TraceScope id the span ran under; 0 = unscoped
  uint32_t dur_us;    // saturates at UINT32_MAX (about 71 minutes)
  uint16_t tid;       // per-process thread number (1, 2, ...), saturating
  uint16_t depth;     // nesting depth on the recording thread (0 = root),
                      // saturating
};
static_assert(sizeof(TraceEvent) == 32);

/// Bounded, mutex-guarded event log. Spans beyond `capacity` are counted in
/// `dropped()` instead of stored, which keeps long runs (10^5 fixpoint
/// rounds, 10^6 simulated timesteps) at a fixed memory ceiling while still
/// reporting that truncation happened.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void Record(const char* name, int depth,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  uint64_t dropped() const;
  void Clear();

  /// Registers a request id and returns the scope id (>= 1) spans recorded
  /// under it will carry. The id → request-id association is kept in a
  /// bounded FIFO (`kMaxScopeNames`); once evicted, a scope's spans survive
  /// but can no longer be sliced by request string. Prefer the TraceScope
  /// RAII wrapper over calling this directly.
  uint64_t OpenScope(std::string_view request_id);

  /// Snapshot of the recorded events, in completion order.
  std::vector<TraceEvent> events() const;

  /// {"events":[{"name":..,"depth":..,"start_us":..,"dur_us":..,"tid":..},
  ///            ...],"dropped":n}
  /// Events appear in completion order (inner spans before the scope that
  /// encloses them — the usual trace-log convention).
  std::string ToJson() const;

  /// Chrome trace-event format: every span becomes a complete ("ph":"X")
  /// event with `pid`/`tid`/`ts`/`dur` in microseconds, so the output opens
  /// directly in Perfetto (ui.perfetto.dev) or chrome://tracing. Thread
  /// numbers are remapped to dense ints in first-seen order; the
  /// span's nesting depth rides along in `args.depth`, and spans recorded
  /// under a TraceScope carry the request id in `args.request`. A
  /// `process_name` metadata event labels the single process, and `dropped`
  /// spans are reported in the top-level `otherData` object.
  ///
  /// A non-empty `request_filter` keeps only the spans recorded under a
  /// scope opened for that request id (`GET /trace?request=ID`); the
  /// matched scope count is reported in `otherData.scopes`.
  std::string ToChromeTraceJson(std::string_view request_filter = {}) const;

 private:
  /// Bound on remembered scope-id → request-id associations.
  static constexpr std::size_t kMaxScopeNames = 1024;

  const std::chrono::steady_clock::time_point epoch_;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
  uint64_t next_scope_ = 0;
  std::deque<std::pair<uint64_t, std::string>> scope_names_;  // FIFO
};

/// RAII span: records [construction, destruction) into `buffer` under
/// `name`. A null buffer disables the span entirely (no clock reads).
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buffer, const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const char* name_;
  int depth_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII request scope: spans recorded by this thread while the scope is
/// alive are tagged with a fresh scope id registered for `request_id`, so
/// the exporter can slice them out later. Scopes nest (the previous scope is
/// restored on destruction); a null buffer or empty request id disables the
/// scope entirely. Thread-bound like TraceSpan's depth counter: spans from
/// pool workers spawned inside the scope are not tagged.
class TraceScope {
 public:
  TraceScope(TraceBuffer* buffer, std::string_view request_id);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// The registered scope id; 0 when the scope is disabled.
  uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
  uint64_t prev_ = 0;
  bool active_ = false;
};

}  // namespace chronolog

#endif  // CHRONOLOG_UTIL_TRACE_H_
