// In-memory span recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's own calls into each layer's public functions
// (the program under test is not instrumented).  Each span records its
// name, start, end, the span that caused it and a request id shared by the
// spans of one operation.  Spans land in per-thread buffers, so recording
// takes no lock after a thread's first span, and are written out once,
// when the run ends.  A disabled recorder records nothing and costs one
// branch per span.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

struct SpanRec {
  std::uint64_t id = 0;      // unique, > 0
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t req = 0;     // request id shared by one operation's spans
  const char* name = "";     // static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other or run past their parent).  Result is parallel to `spans`.
inline std::vector<std::uint64_t> SelfTimes(const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const SpanRec& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    auto& iv = kids[i];
    for (auto& [a, b] : iv) {
      a = std::clamp(a, s.start_ns, s.end_ns);
      b = std::clamp(b, s.start_ns, s.end_ns);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t lo = 0, hi = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    self[i] = s.duration_ns() - std::min(covered, s.duration_ns());
  }
  return self;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Reserve a span id (0 when disabled).
  std::uint64_t NewId() {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Record a finished span into the calling thread's buffer.
  void Record(const SpanRec& span) {
    if (span.id == 0) return;
    Buffer().push_back(span);
  }

  /// RAII span.  Its parent defaults to the innermost open Scope on this
  /// thread; pass `parent` to link a span to one opened elsewhere.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t req,
          std::uint64_t parent = 0)
        : tracer_(tracer) {
      rec_.id = tracer.NewId();
      if (rec_.id == 0) return;
      rec_.name = name;
      rec_.req = req;
      rec_.parent = parent != 0 ? parent : Current();
      outer_ = Current();
      Current() = rec_.id;
      rec_.start_ns = NowNs();
    }
    ~Scope() {
      if (rec_.id == 0) return;
      rec_.end_ns = NowNs();
      Current() = outer_;
      tracer_.Record(rec_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return rec_.id; }

   private:
    static std::uint64_t& Current() {
      thread_local std::uint64_t current = 0;
      return current;
    }
    Tracer& tracer_;
    SpanRec rec_;
    std::uint64_t outer_ = 0;
  };

  /// Every recorded span, in id order.  Call once recording threads have
  /// stopped.
  [[nodiscard]] std::vector<SpanRec> Collect() const {
    std::vector<SpanRec> all;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      all.insert(all.end(), buf.begin(), buf.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRec& a, const SpanRec& b) { return a.id < b.id; });
    return all;
  }

  /// Write spans as tab-separated rows with their self time.
  static bool Write(const std::string& path,
                    const std::vector<SpanRec>& spans) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::uint64_t> self = SelfTimes(spans);
    std::fprintf(f, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  // The thread's buffer is keyed by the tracer's serial, not its address,
  // so a tracer built where an earlier one died never inherits its buffer.
  std::vector<SpanRec>& Buffer() {
    thread_local std::uint64_t owner = 0;
    thread_local std::vector<SpanRec>* buffer = nullptr;
    if (owner != serial_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.emplace_back();
      buffers_.back().reserve(1 << 12);
      buffer = &buffers_.back();
      owner = serial_;
    }
    return *buffer;
  }

  static std::uint64_t NextSerial() {
    static std::atomic<std::uint64_t> serial{1};
    return serial.fetch_add(1, std::memory_order_relaxed);
  }

  const std::uint64_t serial_ = NextSerial();
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::deque<std::vector<SpanRec>> buffers_;  // one per recording thread
};

/// Durations and self times of spans grouped by name, in microseconds.
struct SpanSummary {
  std::map<std::string, std::vector<double>> total_us;
  std::map<std::string, std::vector<double>> self_us;
};

inline SpanSummary SummarizeSpans(const std::vector<SpanRec>& spans) {
  SpanSummary out;
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.total_us[spans[i].name].push_back(
        static_cast<double>(spans[i].duration_ns()) / 1e3);
    out.self_us[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

}  // namespace perfbench
