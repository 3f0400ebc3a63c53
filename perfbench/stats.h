// Sample statistics for the benchmark: nearest-rank percentiles, the tail
// percentile rule, and per-op success/failure accounting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of ascending `sorted` samples; 0
/// for an empty set.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// Samples strictly beyond the nearest-rank percentile q.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return n > rank ? n - rank : 0;
}

struct TailPoint {
  double q = 0.5;
  double value = 0;
};

/// The highest percentile of {p99, p90, p50} that still has at least ten
/// samples beyond it: a tail figure that is never set by a handful of
/// samples.  Fewer than 20 samples leave no such percentile; the median is
/// reported then.
inline TailPoint Tail(const std::vector<double>& sorted) {
  for (double q : {0.99, 0.90, 0.50}) {
    if (SamplesBeyond(sorted.size(), q) >= 10) {
      return {q, Percentile(sorted, q)};
    }
  }
  return {0.5, Percentile(sorted, 0.5)};
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

/// Outcomes of one closed loop's operations.  A failed op is logged as an
/// infinite latency: it misses every latency limit, so it lands above every
/// percentile a successful op can set.
class OpLog {
 public:
  void Ok(double latency) {
    ++attempted_;
    latencies_.push_back(latency);
  }
  void Fail() {
    ++attempted_;
    ++failed_;
    latencies_.push_back(std::numeric_limits<double>::infinity());
  }
  void Merge(const OpLog& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    latencies_.insert(latencies_.end(), other.latencies_.begin(),
                      other.latencies_.end());
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t succeeded() const {
    return attempted_ - failed_;
  }
  /// Every latency (failures as +inf), ascending.
  [[nodiscard]] std::vector<double> Sorted() const {
    std::vector<double> v = latencies_;
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> latencies_;
};

/// The ops of one measurement window: a slice of wall time, one epoch or
/// one run of a fixed batch.
struct Window {
  OpLog log;
  double seconds = 0;
  double steal = 0;  // share of CPU time the hypervisor gave to others
};

/// Windows in which the hypervisor took more than this share of the CPUs
/// measure the neighbours' load rather than the program.
inline constexpr double kMaxSteal = 0.02;

/// Indices of the windows a summary uses: those at or under kMaxSteal, or,
/// when fewer than half qualify, the least-stolen half.
inline std::vector<std::size_t> QuietWindows(const std::vector<Window>& w) {
  std::vector<std::size_t> idx(w.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return w[a].steal < w[b].steal;
  });
  std::size_t keep = 0;
  while (keep < idx.size() && w[idx[keep]].steal <= kMaxSteal) ++keep;
  keep = std::max(keep, (idx.size() + 1) / 2);
  idx.resize(keep);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// A closed loop's figures over its windows.  Throughput and tail are
/// medians over the quiet windows, so a transient stall of the host moves
/// one window rather than the result; the median latency pools the quiet
/// windows' ops.  Attempted and failed count every window.
struct LoopSummary {
  double ops_s = 0;    // median over windows of successful ops / second
  double p50 = 0;      // median latency of all ops
  double tail = 0;     // median over windows of each window's Tail()
  double tail_q = 0.5; // the percentile Tail() chose in the median window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t windows = 0;
  std::size_t quiet = 0;  // windows the figures come from
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

inline LoopSummary Summarize(const std::vector<Window>& windows) {
  LoopSummary out;
  out.windows = windows.size();
  for (const Window& w : windows) {
    out.attempted += w.log.attempted();
    out.failed += w.log.failed();
  }
  OpLog quiet;
  std::vector<double> rates;
  std::vector<TailPoint> tails;
  for (std::size_t i : QuietWindows(windows)) {
    const Window& w = windows[i];
    ++out.quiet;
    quiet.Merge(w.log);
    if (w.seconds > 0) {
      rates.push_back(static_cast<double>(w.log.succeeded()) / w.seconds);
    }
    if (w.log.attempted() > 0) tails.push_back(Tail(w.log.Sorted()));
  }
  out.ops_s = Median(rates);
  out.p50 = Percentile(quiet.Sorted(), 0.5);
  std::sort(tails.begin(), tails.end(),
            [](const TailPoint& a, const TailPoint& b) {
              return a.value < b.value;
            });
  if (!tails.empty()) {
    const TailPoint mid = tails[(tails.size() - 1) / 2];
    out.tail = mid.value;
    out.tail_q = mid.q;
  }
  return out;
}

/// CPU time the hypervisor gave to other guests, from /proc/stat.
struct StealSample {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  static StealSample Now() {
    StealSample s;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return s;
    // cpu user nice system idle iowait irq softirq steal ...
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) s.total += x;
      s.steal = v[7];
    }
    std::fclose(f);
    return s;
  }
  /// Share of all CPU time since `before` that was stolen.
  [[nodiscard]] double Since(const StealSample& before) const {
    const std::uint64_t dt = total - before.total;
    return dt == 0 ? 0
                   : static_cast<double>(steal - before.steal) /
                         static_cast<double>(dt);
  }
};

}  // namespace perfbench
