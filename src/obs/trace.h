// Lock-free per-thread trace ring buffers with Chrome trace_event export.
//
// Recording model:
//  - A `TraceRecorder` owns one ring buffer (`ThreadLog`) per registered
//    thread. Threads register once (mutex) via `ThreadTraceScope`; recording a
//    span afterwards is wait-free: fill a slot with relaxed atomic stores and
//    publish it with a release store of the log head.
//  - `TraceSpan` / `RELBORG_TRACE_SPAN` read a thread_local pointer to the
//    current thread's log. When no recorder is installed the pointer is null
//    and the span is a no-op (one TLS load + branch). Compiling with
//    -DRELBORG_OBS_NO_TRACE makes the macro expand to nothing.
//  - Event slots store every field as a relaxed std::atomic so that the
//    watchdog's tolerated-racy tail read is data-race-free under TSan.
//    Exact (non-racy) export requires quiescence: call ExportChromeJson /
//    TailString only while recording threads are between spans or joined —
//    the ring head's release store pairs with the reader's acquire load, so
//    every published slot is fully visible.
//  - Rings overwrite the oldest events when full; `dropped()` counts
//    overwritten slots. Names and categories must be string literals (or
//    otherwise outlive the recorder): only the pointer is stored.
//
// Timebase: std::chrono::steady_clock nanoseconds relative to the recorder's
// construction, converted to microseconds in the Chrome export.
#ifndef RELBORG_OBS_TRACE_H_
#define RELBORG_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace relborg {
namespace obs {

struct TraceEvent {
  const char* name = nullptr;   // string literal
  const char* cat = nullptr;    // string literal ("stage", "ivm", "serve"...)
  int64_t epoch = -1;           // -1 when not epoch-scoped
  int32_t node = -1;            // -1 when not node-scoped
  uint64_t start_ns = 0;        // offset from recorder t0
  uint64_t end_ns = 0;
};

class TraceRecorder;

namespace trace_internal {

// One ring buffer, written by exactly one thread, racily readable by others.
class ThreadLog {
 public:
  explicit ThreadLog(std::string thread_name, uint32_t capacity);

  void Record(const char* name, const char* cat, int64_t epoch, int32_t node,
              uint64_t start_ns, uint64_t end_ns);

  const std::string& thread_name() const { return name_; }
  uint64_t dropped() const;

  // Copies the published slots in record order (oldest first). Exact only at
  // quiescence; see file comment.
  void Snapshot(std::vector<TraceEvent>* out) const;

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> cat{nullptr};
    std::atomic<int64_t> epoch{-1};
    std::atomic<int32_t> node{-1};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> end_ns{0};
  };

  std::string name_;
  uint32_t capacity_;                  // power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};      // next sequence number to write
};

}  // namespace trace_internal

// Owns the per-thread logs and the recording timebase.
class TraceRecorder {
 public:
  static constexpr uint32_t kDefaultCapacity = 1u << 14;

  explicit TraceRecorder(uint32_t capacity_per_thread = kDefaultCapacity);

  // Registers a ring for `thread_name` (takes the registration mutex; call
  // once per thread, normally via ThreadTraceScope). The returned log is
  // owned by the recorder and valid for its lifetime.
  trace_internal::ThreadLog* RegisterThread(const std::string& thread_name);

  // Nanoseconds since recorder construction (steady clock).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  // Chrome trace_event JSON ({"traceEvents":[...]}), loadable in
  // chrome://tracing and Perfetto. Exact only at quiescence.
  std::string ExportChromeJson() const;

  // Human-readable dump of the most recent `n` events across all threads
  // (merged by start time), for the stall watchdog. Tolerates concurrent
  // recording (may show torn or missing slots, never invalid memory).
  std::string TailString(size_t n) const;

  // Total events overwritten across all rings.
  uint64_t dropped() const;
  size_t thread_count() const;

  // Process-unique recorder id (for the thread-local registration cache:
  // an address can be reused by a later recorder, an id cannot).
  uint64_t id() const { return id_; }

 private:
  std::chrono::steady_clock::time_point t0_;
  uint64_t id_;
  uint32_t capacity_;
  mutable std::mutex mu_;  // guards logs_ registration
  std::vector<std::unique_ptr<trace_internal::ThreadLog>> logs_;
};

namespace trace_internal {
// The thread-locals below are inline with constant initializers, so every
// translation unit reads them directly instead of through the TLS wrapper
// call an `extern thread_local` needs (which UBSan's null check misreads
// as a store through a null pointer).
//
// The current thread's log, set by ThreadTraceScope. Null => tracing off.
inline thread_local ThreadLog* g_thread_log = nullptr;
inline thread_local TraceRecorder* g_thread_recorder = nullptr;
// Per-thread registration cache: a thread that repeatedly opens scopes on
// the SAME recorder (serve threads open one per read transaction) reuses
// its ring instead of registering a new one each time. Keyed by recorder id
// rather than address so a recorder reallocated at the same address cannot
// alias a stale log pointer.
struct ThreadLogCache {
  uint64_t recorder_id = 0;  // 0 = empty (ids start at 1)
  ThreadLog* log = nullptr;
};
inline thread_local ThreadLogCache g_log_cache;
}  // namespace trace_internal

// Installs `recorder` as the current thread's trace sink for the scope's
// lifetime (registering a ring named `thread_name` on first use by this
// thread; later scopes on the same recorder reuse the ring). Passing a null
// recorder leaves tracing disabled — callers do not need to branch.
class ThreadTraceScope {
 public:
  ThreadTraceScope(TraceRecorder* recorder, const char* thread_name)
      : prev_log_(trace_internal::g_thread_log),
        prev_recorder_(trace_internal::g_thread_recorder) {
    trace_internal::g_thread_recorder = recorder;
    if (recorder == nullptr) {
      trace_internal::g_thread_log = nullptr;
    } else if (trace_internal::g_log_cache.recorder_id == recorder->id()) {
      trace_internal::g_thread_log = trace_internal::g_log_cache.log;
    } else {
      trace_internal::g_thread_log = recorder->RegisterThread(thread_name);
      trace_internal::g_log_cache = {recorder->id(),
                                     trace_internal::g_thread_log};
    }
  }
  ~ThreadTraceScope() {
    trace_internal::g_thread_log = prev_log_;
    trace_internal::g_thread_recorder = prev_recorder_;
  }

  ThreadTraceScope(const ThreadTraceScope&) = delete;
  ThreadTraceScope& operator=(const ThreadTraceScope&) = delete;

 private:
  trace_internal::ThreadLog* prev_log_;
  TraceRecorder* prev_recorder_;
};

#ifndef RELBORG_OBS_NO_TRACE

// RAII span: records [construction, destruction) into the current thread's
// ring. No-op (one TLS load) when no recorder is installed on this thread.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, int64_t epoch = -1,
            int32_t node = -1)
      : log_(trace_internal::g_thread_log),
        name_(name),
        cat_(cat),
        epoch_(epoch),
        node_(node),
        start_ns_(log_ ? trace_internal::g_thread_recorder->NowNs() : 0) {}

  ~TraceSpan() { End(); }

  // Records the span now and disarms the destructor (for spans that must
  // close before the enclosing scope does).
  void End() {
    if (log_) {
      log_->Record(name_, cat_, epoch_, node_,
                   start_ns_, trace_internal::g_thread_recorder->NowNs());
      log_ = nullptr;
    }
  }

  // Adjusts the epoch/node labels after construction (for loops that learn
  // the epoch id mid-span).
  void set_epoch(int64_t epoch) { epoch_ = epoch; }
  void set_node(int32_t node) { node_ = node; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  trace_internal::ThreadLog* log_;
  const char* name_;
  const char* cat_;
  int64_t epoch_;
  int32_t node_;
  uint64_t start_ns_;
};

// Records an instantaneous (zero-length) event on the current thread.
inline void TraceInstant(const char* name, const char* cat, int64_t epoch = -1,
                         int32_t node = -1) {
  trace_internal::ThreadLog* log = trace_internal::g_thread_log;
  if (log) {
    const uint64_t now = trace_internal::g_thread_recorder->NowNs();
    log->Record(name, cat, epoch, node, now, now);
  }
}

// True when the calling thread currently has a trace sink installed.
inline bool TraceEnabledOnThisThread() {
  return trace_internal::g_thread_log != nullptr;
}

#else  // RELBORG_OBS_NO_TRACE: spans compile to nothing.

class TraceSpan {
 public:
  TraceSpan(const char*, const char*, int64_t = -1, int32_t = -1) {}
  void End() {}
  void set_epoch(int64_t) {}
  void set_node(int32_t) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

inline void TraceInstant(const char*, const char*, int64_t = -1,
                         int32_t = -1) {}
inline bool TraceEnabledOnThisThread() { return false; }

#endif  // RELBORG_OBS_NO_TRACE

}  // namespace obs
}  // namespace relborg

// Span macro with the same compile-time kill switch: -DRELBORG_OBS_NO_TRACE
// turns every RELBORG_TRACE_SPAN into nothing (no TLS load, no object).
#ifdef RELBORG_OBS_NO_TRACE
#define RELBORG_TRACE_SPAN(name, cat, epoch, node) \
  do {                                             \
  } while (0)
#define RELBORG_TRACE_INSTANT(name, cat, epoch, node) \
  do {                                                \
  } while (0)
#else
#define RELBORG_OBS_CONCAT_INNER(a, b) a##b
#define RELBORG_OBS_CONCAT(a, b) RELBORG_OBS_CONCAT_INNER(a, b)
#define RELBORG_TRACE_SPAN(name, cat, epoch, node)                     \
  ::relborg::obs::TraceSpan RELBORG_OBS_CONCAT(relborg_trace_span_,    \
                                               __LINE__)(name, cat,    \
                                                         epoch, node)
#define RELBORG_TRACE_INSTANT(name, cat, epoch, node) \
  ::relborg::obs::TraceInstant(name, cat, epoch, node)
#endif

#endif  // RELBORG_OBS_TRACE_H_
