#include "apex/analyze.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/json.hpp"

namespace octo::apex {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OCTO_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

loaded_trace load_chrome_trace(const std::string& path) {
  const json::value doc = json::parse(slurp(path));
  const json::value* events = doc.find("traceEvents");
  OCTO_CHECK_MSG(events != nullptr && events->is_array(),
                 path + ": no traceEvents array");

  loaded_trace t;
  struct half_flow {
    int pid = 0;
    double ts = 0;
    bool seen = false;
  };
  // id -> pending halves (s first in practice, but order-independent).
  std::unordered_map<std::string, std::pair<half_flow, half_flow>> halves;

  for (const json::value& ev : events->as_array()) {
    if (!ev.is_object()) continue;
    ++t.events;
    const std::string ph = ev.string_or("ph", "");
    const int pid = static_cast<int>(ev.number_or("pid", 0));
    const int tid = static_cast<int>(ev.number_or("tid", 0));
    if (ph == "X") {
      trace_span s;
      s.name = ev.string_or("name", "");
      s.pid = pid;
      s.tid = tid;
      s.ts_us = ev.number_or("ts", 0);
      s.dur_us = ev.number_or("dur", 0);
      t.spans.push_back(std::move(s));
    } else if (ph == "M" && ev.string_or("name", "") == "thread_name") {
      if (const json::value* args = ev.find("args"))
        t.thread_names[{pid, tid}] = args->string_or("name", "");
    } else if (ph == "s" || ph == "f") {
      const std::string id = ev.string_or("id", "");
      if (id.empty()) continue;
      auto& pair = halves[id];
      half_flow& h = ph == "s" ? pair.first : pair.second;
      h.pid = pid;
      h.ts = ev.number_or("ts", 0);
      h.seen = true;
    }
  }
  for (auto& [id, pair] : halves) {
    if (pair.first.seen && pair.second.seen) {
      trace_flow f;
      f.id = id;
      f.src_pid = pair.first.pid;
      f.dst_pid = pair.second.pid;
      f.send_ts_us = pair.first.ts;
      f.recv_ts_us = pair.second.ts;
      t.flows.push_back(std::move(f));
    } else {
      ++t.unmatched_flows;
    }
  }
  std::sort(t.flows.begin(), t.flows.end(),
            [](const trace_flow& a, const trace_flow& b) {
              return a.send_ts_us != b.send_ts_us ? a.send_ts_us < b.send_ts_us
                                                  : a.id < b.id;
            });
  return t;
}

std::vector<step_record> load_metrics_jsonl(const std::string& path) {
  std::ifstream in(path);
  OCTO_CHECK_MSG(in.good(), "cannot open " + path);
  std::vector<step_record> steps;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const json::value v = json::parse(line);
    step_record r;
    r.step = static_cast<int>(v.number_or("step", 0));
    r.time = v.number_or("time", 0);
    r.dt = v.number_or("dt", 0);
    r.step_seconds = v.number_or("step_seconds", 0);
    r.exchange_seconds = v.number_or("exchange_seconds", 0);
    r.gravity_seconds = v.number_or("gravity_seconds", 0);
    r.hydro_seconds = v.number_or("hydro_seconds", 0);
    r.subgrids = static_cast<std::uint64_t>(v.number_or("subgrids", 0));
    r.cells = static_cast<std::uint64_t>(v.number_or("cells", 0));
    r.cells_per_sec = v.number_or("cells_per_sec", 0);
    r.transport_retries =
        static_cast<std::uint64_t>(v.number_or("transport_retries", 0));
    r.transport_timeouts =
        static_cast<std::uint64_t>(v.number_or("transport_timeouts", 0));
    r.transport_dups_dropped =
        static_cast<std::uint64_t>(v.number_or("transport_dups_dropped", 0));
    r.localities_lost =
        static_cast<std::uint64_t>(v.number_or("localities_lost", 0));
    r.leaves_migrated =
        static_cast<std::uint64_t>(v.number_or("leaves_migrated", 0));
    r.idle_fraction = v.number_or("idle_fraction", 0);
    r.crit_path_us = v.number_or("crit_path_us", 0);
    r.crit_path_frac = v.number_or("crit_path_frac", 0);
    r.imbalance = v.number_or("imbalance", 0);
    r.rebalance_count =
        static_cast<std::uint64_t>(v.number_or("rebalance_count", 0));
    r.max_over_mean = v.number_or("max_over_mean", 0);
    r.sdc_audits = static_cast<std::uint64_t>(v.number_or("sdc_audits", 0));
    r.sdc_detected =
        static_cast<std::uint64_t>(v.number_or("sdc_detected", 0));
    r.sdc_retries = static_cast<std::uint64_t>(v.number_or("sdc_retries", 0));
    r.sdc_rollbacks =
        static_cast<std::uint64_t>(v.number_or("sdc_rollbacks", 0));
    steps.push_back(r);
  }
  return steps;
}

std::vector<utilization_row> compute_utilization(const loaded_trace& t) {
  // Busy time is the union of a timeline's span intervals: spans nest
  // (amt.task wraps gravity.m2l), so summing durations counts the nested
  // time twice and reads over 100%.
  std::map<std::pair<int, int>, utilization_row> rows;
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> ivals;
  double t_min = 0, t_max = 0;
  bool any = false;
  for (const trace_span& s : t.spans) {
    auto& row = rows[{s.pid, s.tid}];
    row.pid = s.pid;
    row.tid = s.tid;
    ++row.spans;
    ivals[{s.pid, s.tid}].emplace_back(s.ts_us, s.ts_us + s.dur_us);
    if (!any || s.ts_us < t_min) t_min = s.ts_us;
    if (!any || s.ts_us + s.dur_us > t_max) t_max = s.ts_us + s.dur_us;
    any = true;
  }
  const double window = any ? t_max - t_min : 0;
  std::vector<utilization_row> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) {
    auto& iv = ivals[key];
    std::sort(iv.begin(), iv.end());
    double end = iv.front().first;
    for (const auto& [b, e] : iv) {
      if (e <= end) continue;
      row.busy_us += e - std::max(b, end);
      end = e;
    }
    const auto name = t.thread_names.find(key);
    if (name != t.thread_names.end()) row.name = name->second;
    row.utilization = window > 0 ? row.busy_us / window : 0;
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<regression> baseline_diff(const std::vector<step_record>& base,
                                      const std::vector<step_record>& cur,
                                      double threshold_pct) {
  std::map<int, const step_record*> by_step;
  for (const step_record& r : base) by_step[r.step] = &r;

  struct column {
    const char* name;
    double step_record::*field;
  };
  static const column kColumns[] = {
      {"step_seconds", &step_record::step_seconds},
      {"exchange_seconds", &step_record::exchange_seconds},
      {"gravity_seconds", &step_record::gravity_seconds},
      {"hydro_seconds", &step_record::hydro_seconds},
      {"crit_path_us", &step_record::crit_path_us},
  };

  std::vector<regression> regs;
  for (const step_record& c : cur) {
    const auto it = by_step.find(c.step);
    if (it == by_step.end()) continue;
    const step_record& b = *it->second;
    for (const column& col : kColumns) {
      const double bv = b.*col.field;
      const double cv = c.*col.field;
      if (bv <= 0) continue;
      const double pct = (cv - bv) / bv * 100.0;
      if (pct > threshold_pct)
        regs.push_back({c.step, col.name, bv, cv, pct});
    }
  }
  // Detected silent data corruption is a regression no matter the
  // threshold: a run whose final sdc_detected counter is nonzero must
  // fail a baseline gate.  (The counters are cumulative, so the last
  // record carries the run's total.)
  if (!cur.empty() && cur.back().sdc_detected > 0) {
    const double base_detected =
        base.empty() ? 0 : static_cast<double>(base.back().sdc_detected);
    regs.push_back({cur.back().step, "sdc_detected", base_detected,
                    static_cast<double>(cur.back().sdc_detected), 0});
  }
  return regs;
}

void print_trace_report(std::ostream& os, const loaded_trace& t,
                        std::size_t top_k) {
  os << "trace: " << t.events << " events, " << t.spans.size()
     << " spans, " << t.flows.size() << " cross-locality flows";
  if (t.unmatched_flows > 0) os << " (" << t.unmatched_flows << " unmatched)";
  os << "\n";

  std::uint64_t causal = 0;
  for (const trace_flow& f : t.flows)
    if (f.recv_ts_us >= f.send_ts_us) ++causal;
  if (!t.flows.empty())
    os << "  flows causally ordered: " << causal << "/" << t.flows.size()
       << "\n";

  os << "  utilization per timeline:\n";
  for (const utilization_row& row : compute_utilization(t)) {
    os << "    loc " << row.pid << " tid " << row.tid;
    if (!row.name.empty()) os << " (" << row.name << ")";
    os << ": " << row.spans << " spans, " << row.busy_us * 1e-3
       << " ms busy, " << row.utilization * 100 << "% utilized\n";
  }

  std::vector<const trace_span*> slow;
  slow.reserve(t.spans.size());
  for (const trace_span& s : t.spans) slow.push_back(&s);
  std::sort(slow.begin(), slow.end(),
            [](const trace_span* a, const trace_span* b) {
              return a->dur_us != b->dur_us ? a->dur_us > b->dur_us
                                            : a->ts_us < b->ts_us;
            });
  if (top_k > 0 && !slow.empty()) {
    os << "  top " << std::min(top_k, slow.size())
       << " slowest task instances:\n";
    for (std::size_t i = 0; i < slow.size() && i < top_k; ++i)
      os << "    " << slow[i]->name << " (loc " << slow[i]->pid << " tid "
         << slow[i]->tid << "): " << slow[i]->dur_us * 1e-3 << " ms\n";
  }
}

void print_metrics_report(std::ostream& os,
                          const std::vector<step_record>& steps) {
  os << "metrics: " << steps.size() << " steps\n";
  if (steps.empty()) return;
  double wall = 0, cps = 0, idle = 0, crit_frac = 0, imb = 0;
  std::uint64_t crit_steps = 0;
  for (const step_record& r : steps) {
    wall += r.step_seconds;
    cps += r.cells_per_sec;
    idle += r.idle_fraction;
    if (r.crit_path_us > 0) {
      crit_frac += r.crit_path_frac;
      imb += r.imbalance;
      ++crit_steps;
    }
  }
  const double n = static_cast<double>(steps.size());
  os << "  total wall: " << wall << " s, mean cells/s: " << cps / n
     << ", mean idle fraction: " << idle / n << "\n";
  if (crit_steps > 0)
    os << "  dataflow steps: " << crit_steps
       << ", mean crit-path fraction: "
       << crit_frac / static_cast<double>(crit_steps)
       << ", mean imbalance: " << imb / static_cast<double>(crit_steps)
       << "\n";
  // SDC counters are cumulative; the final record carries the run totals.
  const step_record& last = steps.back();
  if (last.sdc_audits > 0 || last.sdc_detected > 0) {
    os << "  sdc: " << last.sdc_audits << " audits, " << last.sdc_detected
       << " detected, " << last.sdc_retries << " retries, "
       << last.sdc_rollbacks << " rollbacks";
    if (last.sdc_detected > 0)
      os << "  ** SILENT DATA CORRUPTION DETECTED **";
    os << "\n";
  }
}

void print_baseline_diff(std::ostream& os,
                         const std::vector<regression>& regs,
                         double threshold_pct) {
  if (regs.empty()) {
    os << "baseline diff: no per-step regressions > " << threshold_pct
       << "%\n";
    return;
  }
  os << "baseline diff: " << regs.size() << " regressions > "
     << threshold_pct << "%\n";
  for (const regression& r : regs)
    os << "  step " << r.step << " " << r.column << ": " << r.baseline
       << " -> " << r.current << " (+" << r.pct << "%)\n";
}

}  // namespace octo::apex
