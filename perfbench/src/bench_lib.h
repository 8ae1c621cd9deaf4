// Pure logic of the benchmark, kept apart from the program under test so the
// unit tests (tests/selftest.cc) can check it on small inputs: the result
// oracle, the percentile rule, the acknowledgment window for concurrent
// inserts, span self time and the layout tiling check.
#ifndef SOCS_PERFBENCH_BENCH_LIB_H_
#define SOCS_PERFBENCH_BENCH_LIB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64 finalizer: the per-element hash of the multiset digests.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent digest of a multiset of objids: a reply and the oracle
/// agree when their digests do.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(int64_t v) {
    ++count;
    sum += Mix64(static_cast<uint64_t>(v));
  }
  bool operator==(const Digest& o) const { return count == o.count && sum == o.sum; }
};

// --- oracle ------------------------------------------------------------------

/// The benchmark's own sorted (ra, objid) copy of a table. Answers inclusive
/// range queries by binary search, independently of the strategies.
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<std::pair<double, int64_t>> rows)
      : rows_(std::move(rows)) {
    std::sort(rows_.begin(), rows_.end());
  }

  /// Rows with lo <= ra <= hi.
  uint64_t Count(double lo, double hi) const {
    return static_cast<uint64_t>(End(hi) - Begin(lo));
  }

  /// Calls f(objid) for every row with lo <= ra <= hi.
  template <typename F>
  void ForEach(double lo, double hi, F f) const {
    for (auto it = Begin(lo), end = End(hi); it < end; ++it) f(it->second);
  }

  size_t size() const { return rows_.size(); }

 private:
  using It = std::vector<std::pair<double, int64_t>>::const_iterator;
  It Begin(double lo) const {
    return std::lower_bound(
        rows_.begin(), rows_.end(), lo,
        [](const std::pair<double, int64_t>& r, double v) { return r.first < v; });
  }
  It End(double hi) const {
    return std::upper_bound(
        rows_.begin(), rows_.end(), hi,
        [](double v, const std::pair<double, int64_t>& r) { return v < r.first; });
  }

  std::vector<std::pair<double, int64_t>> rows_;
};

// --- percentiles ---------------------------------------------------------------

/// 1-based nearest rank of the p-th percentile among n samples (the
/// epsilon keeps p * n / 100 from rounding past an exact integer).
inline size_t NearestRank(double p, size_t n) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/// Nearest-rank percentile of an unsorted sample (p in (0, 100]).
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = NearestRank(p, v.size());
  return v[rank - 1];
}

/// The highest of the reported percentiles that has at least 10 samples
/// beyond it. Below 40 samples only the median is reported (returns 50).
inline double HighestSupportedPercentile(size_t n) {
  if (n < 40) return 50.0;
  double best = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Samples strictly above the nearest-rank p-th sample.
    if (n - NearestRank(p, n) >= 10) best = p;
  }
  return best;
}

// --- acknowledgment window -------------------------------------------------------

/// One inserted row as the clients saw it: `sent` and `acked` are ticks of
/// one global counter taken just before the INSERT was sent and just after
/// its reply was read.
struct InsertedRow {
  double ra = 0.0;
  uint64_t sent = 0;
  uint64_t acked = 0;
};

/// Bounds on what a concurrent count(*) over [lo, hi] may return: every row
/// acknowledged before the SELECT was sent must be counted, and no row sent
/// after its reply arrived may be. `rows` is sorted by ra; `base` is the
/// count over the rows loaded before the clients started.
struct CountWindow {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool Contains(uint64_t v) const { return lo <= v && v <= hi; }
};

inline CountWindow AckWindow(const std::vector<InsertedRow>& rows,
                             uint64_t base, double lo, double hi,
                             uint64_t select_sent, uint64_t select_replied) {
  CountWindow w{base, base};
  auto it = std::lower_bound(
      rows.begin(), rows.end(), lo,
      [](const InsertedRow& r, double v) { return r.ra < v; });
  for (; it != rows.end() && it->ra <= hi; ++it) {
    if (it->acked < select_sent) ++w.lo;
    if (it->sent < select_replied) ++w.hi;
  }
  return w;
}

// --- spans ------------------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span in the same vector
/// (-1 for a root); spans of one statement share `stmt`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t stmt = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child reaching outside its parent is clipped to it).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// --- layout ----------------------------------------------------------------------

/// One `#layout` row: the segment's value range [lo, hi) and row count.
struct LayoutSegment {
  double lo = 0.0;
  double hi = 0.0;
  uint64_t count = 0;
};

/// Empty when the segments, ordered by lower bound, are adjacent, do not
/// overlap and cover [domain_lo, domain_hi); otherwise what is wrong.
inline std::string CheckTiling(std::vector<LayoutSegment> segs,
                               double domain_lo, double domain_hi) {
  if (segs.empty()) return "no segments";
  std::sort(segs.begin(), segs.end(),
            [](const LayoutSegment& a, const LayoutSegment& b) { return a.lo < b.lo; });
  if (segs.front().lo != domain_lo) return "first segment does not start the domain";
  if (segs.back().hi != domain_hi) return "last segment does not end the domain";
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    if (segs[i].hi < segs[i + 1].lo) return "gap between segments";
    if (segs[i].hi > segs[i + 1].lo) return "overlapping segments";
  }
  return "";
}

}  // namespace perfbench

#endif  // SOCS_PERFBENCH_BENCH_LIB_H_
