#pragma once
/// \file analyze.hpp
/// Offline ingestion + reporting over the observability artifacts this
/// repo emits: Chrome trace files (per-locality or merged, including the
/// cross-locality flow events) and per-step metrics JSONL.
///
/// This is the library behind `tools/octo_analyze`; it lives in apex so
/// tests can drive the exact code the CLI runs (load -> report ->
/// baseline diff) without spawning a process.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "apex/metrics.hpp"

namespace octo::apex {

/// One `ph:"X"` span from a Chrome trace.
struct trace_span {
  std::string name;
  int pid = 0;  ///< locality (0 for single-process traces)
  int tid = 0;  ///< worker timeline
  double ts_us = 0;
  double dur_us = 0;
};

/// One matched cross-locality flow: a `ph:"s"` start joined to its
/// `ph:"f"` finish by flow id.
struct trace_flow {
  std::string id;       ///< "l<link>.s<seq>"
  int src_pid = 0;      ///< sending locality
  int dst_pid = 0;      ///< receiving locality
  double send_ts_us = 0;
  double recv_ts_us = 0;
};

struct loaded_trace {
  std::vector<trace_span> spans;
  std::vector<trace_flow> flows;  ///< matched s/f pairs only
  /// (pid, tid) -> thread name from `ph:"M"` metadata.
  std::map<std::pair<int, int>, std::string> thread_names;
  std::uint64_t events = 0;          ///< total events in the file
  std::uint64_t unmatched_flows = 0; ///< s without f or vice versa
};

/// Parse a Chrome trace-event JSON file ({"traceEvents":[...]}).
/// Throws octo::error on IO or parse failure.
loaded_trace load_chrome_trace(const std::string& path);

/// Parse a metrics JSONL file into step records (unknown keys ignored,
/// missing keys zero).  Throws octo::error on IO or parse failure.
std::vector<step_record> load_metrics_jsonl(const std::string& path);

/// Busy time per (pid, tid) timeline: the union of its span intervals, so
/// nested spans count once and utilization never exceeds 1.
struct utilization_row {
  int pid = 0;
  int tid = 0;
  std::string name;
  double busy_us = 0;
  std::uint64_t spans = 0;
  double utilization = 0;  ///< busy / trace wall window
};
std::vector<utilization_row> compute_utilization(const loaded_trace& t);

/// One per-step regression found by baseline_diff.
struct regression {
  int step = 0;
  std::string column;
  double baseline = 0;
  double current = 0;
  double pct = 0;  ///< (current - baseline) / baseline * 100
};

/// Compare matching steps of two metrics series; returns every wall-time
/// column (step/exchange/gravity/hydro seconds, crit_path_us) that got
/// slower by more than \p threshold_pct percent.
std::vector<regression> baseline_diff(const std::vector<step_record>& base,
                                      const std::vector<step_record>& cur,
                                      double threshold_pct);

/// Human-readable reports (the octo_analyze output sections).
void print_trace_report(std::ostream& os, const loaded_trace& t,
                        std::size_t top_k);
void print_metrics_report(std::ostream& os,
                          const std::vector<step_record>& steps);
void print_baseline_diff(std::ostream& os,
                         const std::vector<regression>& regs,
                         double threshold_pct);

}  // namespace octo::apex
