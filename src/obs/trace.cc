#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace relborg {
namespace obs {

namespace trace_internal {

namespace {
uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

ThreadLog::ThreadLog(std::string thread_name, uint32_t capacity)
    : name_(std::move(thread_name)),
      capacity_(RoundUpPow2(capacity == 0 ? 1 : capacity)),
      slots_(new Slot[capacity_]) {}

void ThreadLog::Record(const char* name, const char* cat, int64_t epoch,
                       int32_t node, uint64_t start_ns, uint64_t end_ns) {
  const uint64_t seq = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[seq & (capacity_ - 1)];
  s.name.store(name, std::memory_order_relaxed);
  s.cat.store(cat, std::memory_order_relaxed);
  s.epoch.store(epoch, std::memory_order_relaxed);
  s.node.store(node, std::memory_order_relaxed);
  s.start_ns.store(start_ns, std::memory_order_relaxed);
  s.end_ns.store(end_ns, std::memory_order_relaxed);
  // Publish: readers that acquire head >= seq+1 see the slot's fields.
  head_.store(seq + 1, std::memory_order_release);
}

uint64_t ThreadLog::dropped() const {
  const uint64_t seq = head_.load(std::memory_order_acquire);
  return seq > capacity_ ? seq - capacity_ : 0;
}

void ThreadLog::Snapshot(std::vector<TraceEvent>* out) const {
  const uint64_t seq = head_.load(std::memory_order_acquire);
  const uint64_t first = seq > capacity_ ? seq - capacity_ : 0;
  for (uint64_t i = first; i < seq; ++i) {
    const Slot& s = slots_[i & (capacity_ - 1)];
    TraceEvent e;
    e.name = s.name.load(std::memory_order_relaxed);
    e.cat = s.cat.load(std::memory_order_relaxed);
    e.epoch = s.epoch.load(std::memory_order_relaxed);
    e.node = s.node.load(std::memory_order_relaxed);
    e.start_ns = s.start_ns.load(std::memory_order_relaxed);
    e.end_ns = s.end_ns.load(std::memory_order_relaxed);
    if (e.name == nullptr) continue;  // racy read of an unpublished slot
    out->push_back(e);
  }
}

}  // namespace trace_internal

namespace {
std::atomic<uint64_t> g_next_recorder_id{1};
}  // namespace

TraceRecorder::TraceRecorder(uint32_t capacity_per_thread)
    : t0_(std::chrono::steady_clock::now()),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity_per_thread) {}

trace_internal::ThreadLog* TraceRecorder::RegisterThread(
    const std::string& thread_name) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.emplace_back(
      new trace_internal::ThreadLog(thread_name, capacity_));
  return logs_.back().get();
}

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& log : logs_) total += log->dropped();
  return total;
}

size_t TraceRecorder::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logs_.size();
}

namespace {

void AppendEscaped(std::string* out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string TraceRecorder::ExportChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_event = true;
  char buf[256];
  std::vector<TraceEvent> events;
  for (size_t tid = 0; tid < logs_.size(); ++tid) {
    // Thread-name metadata event (Chrome "M" phase).
    if (!first_event) out.push_back(',');
    first_event = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid + 1) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendEscaped(&out, logs_[tid]->thread_name().c_str());
    out += "\"}}";

    events.clear();
    logs_[tid]->Snapshot(&events);
    for (const TraceEvent& e : events) {
      const double ts_us = static_cast<double>(e.start_ns) / 1e3;
      const double dur_us =
          static_cast<double>(e.end_ns - e.start_ns) / 1e3;
      out.push_back(',');
      out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid + 1) +
             ",\"name\":\"";
      AppendEscaped(&out, e.name);
      out += "\",\"cat\":\"";
      AppendEscaped(&out, e.cat != nullptr ? e.cat : "misc");
      out += "\"";
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", ts_us,
                    dur_us);
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    ",\"args\":{\"epoch\":%" PRId64 ",\"node\":%" PRId32 "}}",
                    e.epoch, e.node);
      out += buf;
    }
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::TailString(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Tagged {
    TraceEvent e;
    const std::string* thread;
  };
  std::vector<Tagged> all;
  std::vector<TraceEvent> events;
  for (const auto& log : logs_) {
    events.clear();
    log->Snapshot(&events);
    // Only the most recent n per thread can make the global tail.
    const size_t take = events.size() > n ? n : events.size();
    for (size_t i = events.size() - take; i < events.size(); ++i) {
      all.push_back(Tagged{events[i], &log->thread_name()});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return a.e.start_ns < b.e.start_ns;
  });
  if (all.size() > n) all.erase(all.begin(), all.end() - n);
  std::string out;
  char buf[256];
  for (const Tagged& t : all) {
    std::snprintf(buf, sizeof(buf),
                  "    [%10.3fms +%8.3fms] %-10s %s/%s epoch=%" PRId64
                  " node=%" PRId32 "\n",
                  static_cast<double>(t.e.start_ns) / 1e6,
                  static_cast<double>(t.e.end_ns - t.e.start_ns) / 1e6,
                  t.thread->c_str(), t.e.cat != nullptr ? t.e.cat : "misc",
                  t.e.name, t.e.epoch, t.e.node);
    out += buf;
  }
  return out;
}

}  // namespace obs
}  // namespace relborg
