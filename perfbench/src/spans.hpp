#pragma once
/// \file spans.hpp
/// In-memory span log for the traced benchmark run.
///
/// Spans are recorded by the benchmark around its calls into each layer's
/// public functions (no spans are added inside the program).  Each span has
/// a name, start and end on the steady clock, the span that was open when
/// it started (its parent), and the run id shared by every span of one
/// workload run.  The log is written once, at the end of the run, as a
/// Chrome trace that `octo_analyze` loads.
///
/// Self time is a span's duration minus the part of its interval that its
/// child spans cover (the union of the children, clipped to the parent), so
/// nested spans are never double counted.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at the top
};

/// Self time of every span in \p spans (same order), in nanoseconds.
std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans);

/// Summed self and total time per span name.
struct name_totals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
};
std::map<std::string, name_totals> totals_by_name(
    const std::vector<span>& spans);

/// Records spans from one thread (the benchmark's main thread).  A disabled
/// log records nothing, so the untraced run pays one branch per scope.
class span_log {
 public:
  span_log(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  const std::vector<span>& spans() const { return spans_; }

  /// RAII span: opens on construction, closes on destruction.
  class scope {
   public:
    scope(span_log& log, std::string name);
    ~scope();
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    span_log& log_;
    int id_ = -1;
  };

  /// Write the spans as Chrome trace JSON ({"traceEvents":[...]}): one
  /// complete ("X") event per span on one timeline, with the span id,
  /// parent id, run id and self time in its args.  Returns false on IO
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::string run_id_;
  std::vector<span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
