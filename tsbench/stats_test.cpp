// Checks the benchmark's own statistics: nearest-rank percentiles and
// the ten-samples-beyond rule, Jain's index, per-slice rates and
// medians, and span self time.
// Exits nonzero on the first failed check; run.py runs it after every
// build, before any measurement.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(tsbench::percentile_sorted(v, 0.50), 50), "p50 of 1..100");
  check(near(tsbench::percentile_sorted(v, 0.90), 90), "p90 of 1..100");
  check(near(tsbench::percentile_sorted(v, 0.99), 99), "p99 of 1..100");
  check(near(tsbench::percentile_sorted(v, 1.00), 100), "p100 of 1..100");
  check(near(tsbench::percentile_sorted({7.0}, 0.99), 7), "single sample");
  check(near(tsbench::percentile_sorted({}, 0.5), 0), "empty sample");
  check(near(tsbench::percentile_sorted({1, 2, 3}, 0.5), 2), "odd median");
  check(near(tsbench::percentile_sorted({1, 2, 3, 4}, 0.5), 2),
        "even median is the lower middle (nearest rank)");
  check(near(tsbench::median({3, 1, 2}), 2), "median sorts its input");
}

void test_tail_support() {
  check(tsbench::samples_beyond(100, 0.90) == 10, "100 samples: 10 beyond p90");
  check(tsbench::tail_supported(100, 0.90), "p90 supported at n=100");
  check(!tsbench::tail_supported(99, 0.90), "p90 unsupported at n=99");
  check(!tsbench::tail_supported(999, 0.99), "p99 unsupported at n=999");
  check(tsbench::tail_supported(1000, 0.99), "p99 supported at n=1000");
  check(tsbench::samples_beyond(0, 0.5) == 0, "empty sample has none beyond");
}

void test_jain() {
  check(near(tsbench::jain_index({1, 1, 1, 1}), 1.0), "equal shares");
  check(near(tsbench::jain_index({1, 0, 0, 0}), 0.25), "one takes all");
  check(near(tsbench::jain_index({3, 1}), 16.0 / 20.0), "3:1 split");
  check(near(tsbench::jain_index({}), 1.0), "empty");
}

void test_slices() {
  // 20 completions 10 ms apart with latencies 1..20 ms, in two slices
  // of 10: each spans 90 ms, so 9 / 0.09 s = 100 per second.
  std::vector<std::pair<std::int64_t, double>> done;
  for (int i = 19; i >= 0; --i) done.emplace_back(i * 10000000LL, i + 1.0);
  const tsbench::SliceStats s = tsbench::slice_stats(done, 2);
  check(s.rate_per_s.size() == 2 && near(s.rate_per_s[0], 100.0) &&
            near(s.rate_per_s[1], 100.0),
        "slice rate from first-to-last span");
  check(s.p50_ms.size() == 2 && near(s.p50_ms[0], 5) && near(s.p50_ms[1], 15),
        "slice p50 after sorting by time");
  check(tsbench::slice_stats(done, 11).rate_per_s.empty(),
        "fewer than two completions per slice gives no slices");
}

void test_self_time() {
  using tsbench::Span;
  // root [0,100) with children [10,30) and [20,50) overlapping, plus
  // [90,120) sticking out past the root's end; a grandchild of the
  // first child must not count against the root.
  std::vector<Span> spans{
      {"root", 0, 100, -1, 0},   {"a", 10, 30, 0, 0}, {"b", 20, 50, 0, 0},
      {"c", 90, 120, 0, 0},      {"a.x", 12, 18, 1, 0},
  };
  const auto self = tsbench::self_times_ns(spans);
  check(self[0] == 100 - 40 - 10, "root self = duration - union(children)");
  check(self[1] == 20 - 6, "child self excludes its own child");
  check(self[2] == 30, "leaf self = duration");
  check(self[3] == 30, "leaf outside parent keeps its own duration");
  check(self[4] == 6, "grandchild leaf");

  tsbench::Trace trace(2);
  const auto open = trace.open("p", 5);
  trace.add("k", 6, 8, open);
  trace.close(open, 10);
  check(trace.add("dropped", 0, 1) == -1 && trace.dropped() == 1,
        "capacity drops and counts");
  check(tsbench::self_times_ns(trace.spans())[0] == 3, "open/close span");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_support();
  test_jain();
  test_slices();
  test_self_time();
  if (failures == 0) std::puts("stats_test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
