/// \file main.cpp
/// octo_perfbench — the repository benchmark's workload process.
///
///   octo_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--trace-out FILE] [--inject digest]
///
/// One process runs one workload on one amt::runtime with four workers: it
/// builds the workload's driver several times ("set-ups": construct,
/// initialize, one warm-up step), steps each set-up in a closed loop for its
/// share of the time budget, checks the physics output, and prints a report
/// whose last line is one JSON object: {"correct", "attempted", "failed",
/// "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
/// --trace 1 every other timed step carries a span and a metrics sink (the
/// traced steps), the layer probes run afterwards, and the metrics are the
/// per-layer ones.  The spans are written as a Chrome trace to --trace-out.
///
/// Exit status: 0 when every check passed, 1 when a check failed or a step
/// threw (the JSON line is still printed), 2 on bad arguments or an
/// internal error, 3 when a registered OCTO_* variable is set.
/// `--inject digest` seeds the last set-up differently, a deliberate digest
/// mismatch that the benchmark's own tests use to show the failure path.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "amt/runtime.hpp"
#include "checks.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tree/partition.hpp"
#include "workloads.hpp"

namespace {

using namespace octo;
using namespace perfbench;
using clock_type = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed steps each set-up takes at least, whatever the budget: the digest
/// is taken after the first one.
constexpr int kMinTimedSteps = 2;
/// FMM potential tolerance against direct summation: the AMR-tree accuracy
/// gate of the gravity tests (2e-2).
constexpr double kPhiTolerance = 2e-2;
/// FMM solves per step: one per SSP-RK3 stage.
constexpr int kSolvesPerStep = 3;
/// RK stages per step (hydro leaf-stages per leaf per step).
constexpr int kStages = 3;

struct usage_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool inject_digest = false;
};

args parse_args(int argc, char** argv) {
  args a;
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw usage_error("missing value after " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') throw usage_error("bad --seed " + v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0))
        throw usage_error("bad --seconds " + v);
      have_s = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw usage_error("--trace takes 0 or 1");
      a.trace = v == "1";
      have_t = true;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--inject") {
      if (v != "digest") throw usage_error("--inject takes: digest");
      a.inject_digest = true;
    } else {
      throw usage_error("unknown argument " + k);
    }
  }
  if (!have_w || !have_seed || !have_s || !have_t)
    throw usage_error(
        "usage: octo_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trace-out FILE] [--inject digest]");
  return a;
}

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

amt::runtime_stats operator-(const amt::runtime_stats& a,
                             const amt::runtime_stats& b) {
  amt::runtime_stats d;
  d.tasks_executed = a.tasks_executed - b.tasks_executed;
  d.steals = a.steals - b.steals;
  d.failed_steals = a.failed_steals - b.failed_steals;
  d.idle_ns = a.idle_ns - b.idle_ns;
  return d;
}

void accumulate(amt::runtime_stats& acc, const amt::runtime_stats& d) {
  acc.tasks_executed += d.tasks_executed;
  acc.steals += d.steals;
  acc.failed_steals += d.failed_steals;
  acc.idle_ns += d.idle_ns;
}

/// Everything a run measured over its set-ups and timed steps.
struct measured {
  std::vector<double> setup_s;
  std::vector<double> plain_step_s;   ///< untraced timed steps
  std::vector<double> traced_step_s;  ///< trace mode: span + sink attached
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> digests;
  std::vector<std::string> checks;    ///< "[ok] ..." / "[FAIL] ..."
  bool ok = true;
  // Deltas over the timed loops.
  double loop_wall_s = 0;
  amt::runtime_stats rt;
  std::uint64_t slabs_direct = 0, slabs_all = 0, remote_msgs = 0, bytes = 0;
  std::uint64_t frames = 0, messages = 0;
  // Per-step columns of the driver's own record (barrier mode only) and
  // the traced steps' DAG profile (dataflow mode only).
  std::vector<double> exchange_s, hydro_s, gravity_s, crit_frac, imbalance;

  void check(bool pass, const std::string& what) {
    checks.push_back(std::string(pass ? "[ok]   " : "[FAIL] ") + what);
    ok = ok && pass;
  }
  /// A per-set-up check: a pass is listed once (set-up 0), every failure
  /// with its set-up.
  void check(bool pass, const std::string& what, int setup) {
    if (!pass)
      check(false, "set-up " + std::to_string(setup) + ": " + what);
    else if (setup == 0)
      check(true, what);
  }
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// One set-up: build, initialize, warm up, then step until the budget is
/// spent; checks the state it leaves.  Returns the driver for the probes.
std::unique_ptr<driver> run_setup(const workload& w, int setup,
                                  std::uint64_t seed, double budget_s,
                                  bool trace,
                                  const exec::amt_space& space,
                                  span_log& log, measured& m) {
  const auto t0 = clock_type::now();
  std::unique_ptr<driver> d;
  app::ledger l0;
  double ledger_s = 0;
  {
    const span_log::scope s(log, "setup");
    scen::scenario sc;
    {
      const span_log::scope s2(log, "scen.make");
      sc = seeded_scenario(w, seed);
    }
    d = make_driver(w, sc, space);
    {
      const span_log::scope s2(log, "app.initialize");
      d->initialize();
    }
    const auto tl = clock_type::now();
    l0 = d->measure();
    ledger_s = since(tl);
    const span_log::scope s2(log, "app.warmup_step");
    ++m.attempted;
    d->step();
  }
  m.setup_s.push_back(since(t0) - ledger_s);

  apex::metrics_sink closed_sink;  // never opened: records nothing
  const auto rt0 = space.runtime().stats();
  const auto ds0 = d->dist_stats();
  const auto loop0 = clock_type::now();
  bool have_digest = false;
  app::ledger l1;
  for (int k = 0; k < kMinTimedSteps || since(loop0) < budget_s; ++k) {
    const bool traced = trace && k % 2 == 1;
    if (traced) d->set_metrics_sink(&closed_sink);
    const auto ts = clock_type::now();
    ++m.attempted;
    {
      std::optional<span_log::scope> s;
      if (traced) s.emplace(log, "app.step");
      d->step();
    }
    const double dt = since(ts);
    d->set_metrics_sink(nullptr);
    (traced ? m.traced_step_s : m.plain_step_s).push_back(dt);
    const auto& rec = d->last_step_metrics();
    if (w.mode == app::step_mode::barrier) {
      m.exchange_s.push_back(rec.exchange_seconds);
      m.hydro_s.push_back(rec.hydro_seconds);
      m.gravity_s.push_back(rec.gravity_seconds);
    } else if (traced) {
      m.crit_frac.push_back(rec.crit_path_frac);
      m.imbalance.push_back(rec.imbalance);
    }
    if (!have_digest) {
      // Digest and ledger after the same step in every set-up, so both are
      // independent of how many steps the budget allowed.
      m.digests.push_back(state_digest(*d));
      l1 = d->measure();
      have_digest = true;
    }
  }
  m.loop_wall_s += since(loop0);
  accumulate(m.rt, space.runtime().stats() - rt0);
  const auto ds1 = d->dist_stats();
  m.slabs_direct += ds1.exchange.local_direct - ds0.exchange.local_direct;
  m.slabs_all += ds1.exchange.total_slabs() - ds0.exchange.total_slabs();
  m.remote_msgs +=
      ds1.exchange.remote_messages - ds0.exchange.remote_messages;
  m.bytes += ds1.exchange.bytes_serialized - ds0.exchange.bytes_serialized;
  m.frames += ds1.transport.frames_sent - ds0.transport.frames_sent;
  m.messages += ds1.transport.messages - ds0.transport.messages;

  // Checks on the state this set-up left.
  const std::string bad = first_bad_cell(*d);
  m.check(bad.empty(),
          bad.empty() ? "state finite, density positive"
                      : "non-finite or non-positive: " + bad,
          setup);
  const double dm = relative_drift(l0.mass, l1.mass);
  const double de = relative_drift(l0.total_energy(), l1.total_energy());
  m.check(dm <= w.mass_drift_bound,
          "mass drift after 2 steps " + fmt("%.3g", dm) + " <= " +
              fmt("%.3g", w.mass_drift_bound),
          setup);
  m.check(de <= w.energy_drift_bound,
          "energy drift after 2 steps " + fmt("%.3g", de) + " <= " +
              fmt("%.3g", w.energy_drift_bound),
          setup);
  // The reliable transport retransmits when an ack is late; every
  // retransmission must then be dropped as a duplicate of a frame that did
  // arrive.  Anything else is a lost or network-duplicated frame.  Late
  // duplicates land as tasks after the step, so give them a moment.
  auto tr = d->dist_stats().transport;
  for (int i = 0; i < 100 && tr.retries != tr.dups_dropped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tr = d->dist_stats().transport;
  }
  m.check(d->sdc_detections() == 0 && tr.retries == tr.dups_dropped,
          "sdc_detected " + std::to_string(d->sdc_detections()) +
              " (must be 0); transport retries " +
              std::to_string(tr.retries) + " == duplicates dropped " +
              std::to_string(tr.dups_dropped) + " (no frame lost)",
          setup);
  return d;
}

/// The FMM potential against direct summation on the final state: a check
/// wherever the workload solves gravity, and in trace mode also the timed
/// solves of the gravity probes.
struct gravity_result {
  std::unique_ptr<gravity::fmm_solver> fmm;  ///< null when not run
  double solve_s = 0;
  double solve_s_1w = 0;
  double phi_err = 0;
};

gravity_result check_gravity(const args& a, const workload& w,
                             const driver* d, amt::runtime& rt,
                             span_log& log, measured& m) {
  gravity_result g;
  if (d == nullptr || !(w.self_gravity || a.trace)) return g;
  const exec::amt_space space(rt);
  g.fmm = loaded_solver(
      *d, pinned_sim_options(w, scen::by_name(w.scenario)).gravity);
  // Solved from this thread, as the drivers do: it helps the workers while
  // it waits.
  if (a.trace) {
    const span_log::scope s(log, "gravity.solve");
    g.solve_s = median_pass_s([&] { g.fmm->solve(space); }, 1.0, 1);
  } else {
    g.fmm->solve(space);
  }
  {
    const span_log::scope s(log, "gravity.direct_sum");
    g.phi_err = phi_rel_err(*g.fmm, *d);
  }
  if (w.self_gravity)
    m.check(g.phi_err <= kPhiTolerance,
            "gravity.phi_rel_err " + fmt("%.3g", g.phi_err) + " <= " +
                fmt("%.3g", kPhiTolerance));
  if (a.trace) {
    // The single-worker baseline runs inside a task of a one-worker
    // runtime while this thread waits without helping it.
    amt::runtime rt1(1);
    const exec::amt_space space1(rt1);
    const span_log::scope s(log, "gravity.solve_1w");
    g.solve_s_1w = median_pass_s(
        [&] { run_on(rt1, rt, [&] { g.fmm->solve(space1); }); }, 1.0, 1);
  }
  return g;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  std::printf("}}\n");
}

void print_metrics(const char* title, const std::vector<metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& x : ms)
    std::printf("  %-26s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
}

/// End-to-end metrics of an untraced run, with the step-time distribution
/// printed beside them.
std::vector<metric> end_to_end(const measured& m, index_t leaves,
                               double rss_mb) {
  const std::vector<double>& steps = m.plain_step_s;
  const double cells = static_cast<double>(leaves) * 512;
  double sum = 0;
  for (const double s : steps) sum += s;
  std::vector<metric> out = {
      {"cells_per_s", cells * double(steps.size()) / sum, "1/s"},
      {"step_s", median(steps), "s"},
      {"setup_s", median(m.setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"}};
  std::printf("tree: %" PRId64 " leaves, %.0f cells; %zu set-ups; %zu timed "
              "steps in %.3f s\n",
              static_cast<std::int64_t>(leaves), cells, m.setup_s.size(),
              steps.size(), sum);
  print_metrics("end-to-end (untraced):", out);
  if (const auto p = supported_percentile(steps.size()))
    std::printf("  step_s p%g = %.6g s over %zu samples\n", *p,
                percentile(steps, *p), steps.size());
  else
    std::printf("  step_s: %zu samples; no percentile has ten samples "
                "beyond it\n",
                steps.size());
  if (steps.size() >= 2) {
    const auto q = quantiles(steps);
    std::printf("  step_s quartiles %.4g / %.4g / %.4g s, range %.4g - %.4g "
                "s\n",
                q[0], q[1], q[2], *std::min_element(steps.begin(), steps.end()),
                *std::max_element(steps.begin(), steps.end()));
  }
  return out;
}

/// Per-layer metrics of a traced run: the probes, the counters gathered
/// over the timed steps, the metrics defined only on some workloads, the
/// span self times, and the layer-stress claims of the workload.
std::vector<metric> per_layer(const args& a, const workload& w,
                              const driver& d, amt::runtime& rt,
                              const gravity_result& grav, span_log& log,
                              measured& m) {
  const auto& topo = d.topo();
  const double nl = static_cast<double>(topo.num_leaves());
  const scen::scenario sc = seeded_scenario(w, a.seed);
  const app::sim_options so = pinned_sim_options(w, sc);
  const double step_plain = median(m.plain_step_s);
  const double step_traced = median(m.traced_step_s);
  const double nsteps =
      double(m.plain_step_s.size() + m.traced_step_s.size());
  const double cpu_per_step = step_plain * kWorkers;

  double build_s = 0, part_s = 0, mom = 0, prep_s = 0;
  {
    const span_log::scope s(log, "tree.build");
    build_s = median_pass_s([&] { (void)sc.make_topology(w.level); }, 0.2);
  }
  {
    const auto costs = tree::static_leaf_costs(topo);
    tree::partition_result part;
    {
      const span_log::scope s(log, "tree.partition");
      part_s = median_pass_s(
          [&] { part = tree::partition_sfc(topo, kLocalities, costs); },
          0.1);
    }
    mom = tree::cost_max_over_mean(topo, part, costs);
  }
  {
    const scen::scenario fresh = seeded_scenario(w, a.seed);
    const span_log::scope s(log, "scf.prepare");
    const auto t0 = clock_type::now();
    if (fresh.prepare) fresh.prepare();
    prep_s = since(t0);
  }
  double leaf_stage_us = 0;
  {
    const span_log::scope s(log, "hydro.leaf_stage");
    leaf_stage_us = hydro_leaf_stage_us(
        d, so.hydro, w.self_gravity ? grav.fmm.get() : nullptr);
  }
  grid_probe gp;
  {
    const span_log::scope s(log, "grid.ghost");
    gp = probe_grid(d);
  }
  double ser_us = 0;
  {
    const span_log::scope s(log, "dist.serialize");
    ser_us = serialize_us(d);
  }
  double sj_us = 0;
  {
    const span_log::scope s(log, "amt.spawn_join");
    sj_us = spawn_join_us(rt);
  }
  audit_probe ap;
  {
    const span_log::scope s(log, "app.audit");
    ap = probe_audit(d, so.audit);
  }
  double pairs = 0;
  {
    const span_log::scope s(log, "gravity.m2l_pairs");
    pairs = m2l_pairs(topo);
  }

  const double solves = w.self_gravity ? kSolvesPerStep : 0;
  const double audit_per_step =
      nl * (ap.seal_us + ap.verify_us + ap.audit_us / so.audit.every) *
      1e-6;
  const double attempts = double(m.rt.steals + m.rt.failed_steals);
  // gravity.par_eff divides by the four workers; the caller thread that
  // waits on the solve also helps, so it can read slightly above 1.
  const std::vector<metric> out = {
      {"gravity.solve_s", grav.solve_s, "s"},
      {"gravity.solve_s_1w", grav.solve_s_1w, "s"},
      {"gravity.par_eff", grav.solve_s_1w / (kWorkers * grav.solve_s),
       "ratio"},
      {"gravity.ns_per_interaction", grav.solve_s_1w / pairs * 1e9, "ns"},
      {"gravity.step_share", solves * grav.solve_s / step_plain, "ratio"},
      {"gravity.phi_rel_err", grav.phi_err, "ratio"},
      {"hydro.leaf_stage_us", leaf_stage_us, "us"},
      {"hydro.cells_per_s_1t", 512 / (leaf_stage_us * 1e-6), "1/s"},
      {"hydro.step_share",
       kStages * nl * leaf_stage_us * 1e-6 / cpu_per_step, "ratio"},
      {"grid.pack_unpack_us", gp.pack_unpack_us, "us"},
      {"grid.direct_copy_us", gp.direct_copy_us, "us"},
      {"dist.bytes_per_step", double(m.bytes) / nsteps, "B"},
      {"dist.remote_msgs_per_step", double(m.remote_msgs) / nsteps,
       "count"},
      {"dist.serialize_us", ser_us, "us"},
      {"amt.tasks_per_step", double(m.rt.tasks_executed) / nsteps, "count"},
      {"amt.idle_frac", double(m.rt.idle_ns) * 1e-9 /
                            (m.loop_wall_s * kWorkers),
       "ratio"},
      {"amt.steal_ratio", attempts > 0 ? double(m.rt.steals) / attempts : 0,
       "ratio"},
      {"amt.spawn_join_us", sj_us, "us"},
      {"tree.build_s", build_s, "s"},
      {"tree.partition_s", part_s, "s"},
      {"tree.max_over_mean", mom, "ratio"},
      {"scf.prepare_s", prep_s, "s"},
      {"app.audit_us_per_leaf", ap.seal_us + ap.verify_us + ap.audit_us,
       "us"},
      {"app.audit_share", audit_per_step / cpu_per_step, "ratio"},
      {"apex.trace_overhead", step_traced / step_plain - 1, "ratio"},
  };
  print_metrics("per-layer (traced run):", out);

  // Metrics defined only where their layer or column exists.
  std::printf("per-layer, where defined:\n");
  if (m.slabs_all > 0)
    std::printf("  %-26s %14.6g ratio\n", "dist.direct_frac",
                double(m.slabs_direct) / double(m.slabs_all));
  else
    std::printf("  %-26s %14s (no distributed exchange)\n",
                "dist.direct_frac", "absent");
  if (m.messages > 0)
    std::printf("  %-26s %14.6g ratio\n", "dist.frames_per_msg",
                double(m.frames) / double(m.messages));
  else
    std::printf("  %-26s %14s (no serialized messages)\n",
                "dist.frames_per_msg", "absent");
  for (const auto& [name, col] :
       {std::pair<const char*, const std::vector<double>*>{
            "app.exchange_s", &m.exchange_s},
        {"app.hydro_s", &m.hydro_s},
        {"app.gravity_s", &m.gravity_s}}) {
    if (!col->empty())
      std::printf("  %-26s %14.6g s (median per step)\n", name,
                  median(*col));
    else
      std::printf("  %-26s %14s (dataflow mode has no phase columns)\n",
                  name, "absent");
  }
  for (const auto& [name, col] :
       {std::pair<const char*, const std::vector<double>*>{
            "apex.crit_path_frac", &m.crit_frac},
        {"apex.imbalance", &m.imbalance}}) {
    if (!col->empty())
      std::printf("  %-26s %14.6g ratio (median over traced steps)\n",
                  name, median(*col));
    else
      std::printf("  %-26s %14s (barrier mode records no task graph)\n",
                  name, "absent");
  }

  std::printf("span self time by name (s; self = span minus child "
              "coverage):\n");
  for (const auto& [name, t] : totals_by_name(log.spans()))
    std::printf("  %-26s self %10.4f  total %10.4f  n=%" PRIu64 "\n",
                name.c_str(), double(t.self_ns) * 1e-9,
                double(t.total_ns) * 1e-9, t.count);

  // Does the workload stress the layers it claims to?
  if (w.claim_gravity_share > 0) {
    const double share = solves * grav.solve_s / step_plain;
    std::printf("stress: gravity.step_share %.3f %s %.2f: %s\n", share,
                share >= w.claim_gravity_share ? ">=" : "<",
                w.claim_gravity_share,
                share >= w.claim_gravity_share ? "confirmed" : "NOT confirmed");
  }
  if (w.claim_exchange_hydro_share > 0 && !m.exchange_s.empty()) {
    // app.exchange_s covers the grid ghost copies and the dist exchange.
    const double share =
        (median(m.exchange_s) + median(m.hydro_s)) / step_plain;
    std::printf("stress: grid+dist+hydro share of step_s %.3f %s %.2f: %s\n",
                share, share > w.claim_exchange_hydro_share ? ">" : "<=",
                w.claim_exchange_hydro_share,
                share > w.claim_exchange_hydro_share ? "confirmed"
                                                     : "NOT confirmed");
  }
  if (!a.trace_out.empty()) {
    if (log.write_chrome_trace(a.trace_out))
      std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                  a.trace_out.c_str());
    else
      m.check(false, "cannot write trace " + a.trace_out);
  }
  return out;
}

int run(const args& a, const workload& w) {
  amt::runtime rt(kWorkers);
  const amt::scoped_global_runtime guard(rt);
  const exec::amt_space space(rt);
  span_log log(a.trace, w.name + ":seed" + std::to_string(a.seed));
  measured m;

  std::printf("perfbench %s: %s level %d, %s, %s mode, self-gravity %s, "
              "seed %" PRIu64 ", %u workers, trace %d\n",
              w.name.c_str(), w.scenario.c_str(), w.level,
              w.distributed ? "dist::cluster with 4 localities"
                            : "app::simulation",
              w.mode == app::step_mode::barrier ? "barrier" : "dataflow",
              w.self_gravity ? "on" : "off", a.seed, kWorkers, a.trace);

  std::unique_ptr<driver> d;
  for (int r = 0; r < kSetups; ++r) {
    d.reset();  // free the previous set-up before building the next
    const std::uint64_t seed =
        a.inject_digest && r == kSetups - 1 ? a.seed + 1 : a.seed;
    try {
      d = run_setup(w, r, seed, a.seconds / kSetups, a.trace, space, log, m);
    } catch (const std::exception& e) {
      ++m.failed;
      m.check(false, std::string("set-up ") + std::to_string(r) +
                         " threw: " + e.what());
      d.reset();
      break;
    }
  }
  // Peak memory of the set-ups and steps, before any check allocates.
  const double rss = peak_rss_mb();

  const auto mismatch = first_digest_mismatch(m.digests);
  if (m.digests.size() == static_cast<std::size_t>(kSetups)) {
    char buf[160];
    if (mismatch)
      std::snprintf(buf, sizeof buf,
                    "state digest of set-up %zu (%016" PRIx64
                    ") differs from set-up 0 (%016" PRIx64 ")",
                    *mismatch, m.digests[*mismatch], m.digests[0]);
    else
      std::snprintf(buf, sizeof buf,
                    "state digest equal over %d set-ups (%016" PRIx64 ")",
                    kSetups, m.digests[0]);
    m.check(!mismatch, buf);
  }

  const gravity_result grav = check_gravity(a, w, d.get(), rt, log, m);
  std::vector<metric> out;
  if (!a.trace && !m.plain_step_s.empty()) {
    out = end_to_end(m, d ? d->topo().num_leaves() : 0, rss);
  } else if (d) {
    out = per_layer(a, w, *d, rt, grav, log, m);
  }

  std::printf("checks:\n");
  for (const auto& c : m.checks) std::printf("  %s\n", c.c_str());
  const bool all_ok = m.ok && d != nullptr && !out.empty();
  // A failed check fails every step of the run.
  const std::uint64_t failed = all_ok ? m.failed : m.attempted;
  std::printf("fail_frac %.6g (%" PRIu64 " of %" PRIu64 " steps failed)\n",
              double(failed) / double(std::max<std::uint64_t>(m.attempted, 1)),
              failed, m.attempted);
  print_json(all_ok, m.attempted, failed, out);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const args a = parse_args(argc, argv);
    refuse_octo_env();
    const workload* w = find_workload(a.workload);
    if (w == nullptr) throw usage_error("unknown workload " + a.workload);
    return run(a, *w);
  } catch (const env_refused& e) {
    std::fprintf(stderr, "octo_perfbench: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "octo_perfbench: %s\n", e.what());
    return 2;
  }
}
