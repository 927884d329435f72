#pragma once
// Statistics and span bookkeeping for the serving benchmark.
//
// Everything here is deliberately small and header-only so that
// stats_test.cpp can check it without the library: nearest-rank
// percentiles with the "ten samples beyond" support rule, Jain's
// fairness index, and in-memory spans with self time and Chrome
// trace-event export.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace tsbench {

/// Nearest-rank percentile (q in (0, 1]) of an ascending sample: the
/// smallest value with at least q * n samples at or below it.  0 for
/// an empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples that lie strictly above the nearest-rank q-th percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

/// A tail percentile is reported only when at least ten samples lie
/// beyond it; otherwise a single outlier would set it.
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

/// Per-slice statistics of a run's completions: the completions, as
/// (time ns, latency ms) in time order, are cut into `slices` runs of
/// equal count.  A slice's rate is its completions after the first per
/// second between its first and last completion (a count over a fixed
/// interval would be quantized); its p50 is its median latency.  Empty
/// when there are fewer than two completions per slice.
struct SliceStats {
  std::vector<double> rate_per_s;
  std::vector<double> p50_ms;
};

inline SliceStats slice_stats(std::vector<std::pair<std::int64_t, double>> done,
                              std::size_t slices) {
  SliceStats out;
  std::sort(done.begin(), done.end());
  if (slices == 0 || done.size() < 2 * slices) return out;
  for (std::size_t c = 0; c < slices; ++c) {
    const std::size_t lo = done.size() * c / slices;
    const std::size_t hi = done.size() * (c + 1) / slices;
    const std::int64_t span_ns = done[hi - 1].first - done[lo].first;
    out.rate_per_s.push_back(span_ns > 0 ? static_cast<double>(hi - lo - 1) /
                                               (static_cast<double>(span_ns) * 1e-9)
                                         : 0.0);
    std::vector<double> latency;
    for (std::size_t i = lo; i < hi; ++i) latency.push_back(done[i].second);
    out.p50_ms.push_back(median(std::move(latency)));
  }
  return out;
}

/// Jain's fairness index (sum x)^2 / (n * sum x^2): 1 when every
/// share is equal, 1/n when one party gets everything.  1 for an empty
/// or all-zero input (nobody is treated worse than anybody else).
inline double jain_index(const std::vector<double>& shares) {
  double sum = 0.0, sum_sq = 0.0;
  for (double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (shares.empty() || sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(shares.size()) * sum_sq);
}

/// One timed interval.  `parent` indexes the enclosing span in the same
/// trace (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent (children may
/// overlap one another, e.g. concurrent shards).
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size())
      continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(
        0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

/// Spans kept in memory (pre-sized, so recording never allocates on
/// the hot path) and written once at exit.  Spans beyond the capacity
/// are counted, not stored.
class Trace {
 public:
  explicit Trace(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Records a finished span; returns its index, or -1 when dropped.
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is filled in by close(); children recorded
  /// in between may name it as parent.
  std::int64_t open(std::string name, std::int64_t start_ns,
                    std::int64_t parent = -1, std::uint64_t request = 0) {
    return add(std::move(name), start_ns, start_ns, parent, request);
  }
  void close(std::int64_t id, std::int64_t end_ns) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  /// Request spans get one lane per request id; the rest share lane 0.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::vector<std::int64_t> self = self_times_ns(spans_);
    std::fputs("{\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"request\":%llu,\"self_us\":%.3f}}",
                   i == 0 ? "" : ",\n", s.name.c_str(),
                   static_cast<unsigned long long>(s.request),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<double>(self[i]) * 1e-3);
    }
    std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

}  // namespace tsbench
