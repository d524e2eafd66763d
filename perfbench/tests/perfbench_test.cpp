/// Tests of the benchmark's own code: the order statistics, span self time
/// and trace output, the environment refusal, digest-mismatch detection,
/// and the benchmark process's exit status on each failure path.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "apex/analyze.hpp"
#include "app/invariants.hpp"
#include "checks.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Stats, QuantilesMatchPythonExclusiveMethod) {
  // Expected values from Python's statistics.quantiles(data, n=4).
  const auto q = quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // Two points extrapolate past the data, as Python does.
  const auto q2 = quantiles({2.0, 8.0});
  EXPECT_DOUBLE_EQ(q2[0], 0.5);
  EXPECT_DOUBLE_EQ(q2[1], 5.0);
  EXPECT_DOUBLE_EQ(q2[2], 9.5);
  // Unsorted input, odd count.
  const auto q3 = quantiles({5, 1, 4, 2, 3, 9, 7});
  EXPECT_DOUBLE_EQ(q3[0], 2.0);
  EXPECT_DOUBLE_EQ(q3[1], 4.0);
  EXPECT_DOUBLE_EQ(q3[2], 7.0);
  const auto q4 = quantiles({3.5, 1.25, 9.0});
  EXPECT_DOUBLE_EQ(q4[0], 1.25);
  EXPECT_DOUBLE_EQ(q4[2], 9.0);
  EXPECT_THROW(quantiles({1.0}), std::invalid_argument);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, SupportedPercentileNeedsTenSamplesBeyond) {
  EXPECT_FALSE(supported_percentile(9).has_value());
  EXPECT_FALSE(supported_percentile(19).has_value());
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(99), 50.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
  EXPECT_EQ(supported_percentile(200), 95.0);
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(10000), 99.9);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({7}, 99.9), 7);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildCoverage) {
  // root [0,100]: children [10,30] and [20,50] overlap (union 40), child
  // [90,120] is clipped to [90,100] (10): self = 100 - 50.
  // [20,50] has a grandchild [25,35] that must not reduce the root.
  const std::vector<span> s = {
      {"root", 0, 100, -1},  {"a", 10, 30, 0}, {"b", 20, 50, 0},
      {"c", 90, 120, 0},     {"b.inner", 25, 35, 2},
      {"other", 200, 260, -1},
  };
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 60);
  const auto by = totals_by_name(s);
  EXPECT_EQ(by.at("root").self_ns, 50);
  EXPECT_EQ(by.at("root").total_ns, 100);
}

TEST(Spans, ScopesNestAndTraceLoadsInAnalyzer) {
  span_log log(true, "unit:seed1");
  {
    const span_log::scope a(log, "outer");
    { const span_log::scope b(log, "inner"); }
  }
  { const span_log::scope c(log, "second"); }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, -1);
  const std::string path =
      testing::TempDir() + "perfbench_spans_test_trace.json";
  ASSERT_TRUE(log.write_chrome_trace(path));
  const auto t = octo::apex::load_chrome_trace(path);
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[1].name, "inner");
  EXPECT_EQ(t.thread_names.at({0, 0}), "perfbench main");
  std::remove(path.c_str());

  span_log off(false, "unit:off");
  { const span_log::scope a(off, "ignored"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Env, RefusesAnyRegisteredOctoVariable) {
  ASSERT_TRUE(set_octo_env().empty())
      << "run the tests without OCTO_* variables set";
  EXPECT_NO_THROW(refuse_octo_env());
  ::setenv("OCTO_AUDIT", "0", 1);
  ::setenv("OCTO_STEP_MODE", "", 1);  // set but empty still counts
  const auto set = set_octo_env();
  EXPECT_EQ(set.size(), 2u);
  try {
    refuse_octo_env();
    ADD_FAILURE() << "expected env_refused";
  } catch (const env_refused& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("OCTO_AUDIT"), std::string::npos) << what;
    EXPECT_NE(what.find("OCTO_STEP_MODE"), std::string::npos) << what;
  }
  ::unsetenv("OCTO_AUDIT");
  ::unsetenv("OCTO_STEP_MODE");
  // An unregistered name is not the program's knob; it is not refused.
  ::setenv("OCTO_NOT_A_KNOB", "1", 1);
  EXPECT_NO_THROW(refuse_octo_env());
  ::unsetenv("OCTO_NOT_A_KNOB");
}

TEST(Digest, MismatchDetection) {
  EXPECT_FALSE(first_digest_mismatch({}).has_value());
  EXPECT_FALSE(first_digest_mismatch({42}).has_value());
  EXPECT_FALSE(first_digest_mismatch({42, 42, 42}).has_value());
  EXPECT_EQ(first_digest_mismatch({42, 42, 43}), 2u);
  EXPECT_EQ(first_digest_mismatch({42, 7, 42}), 1u);
}

TEST(Digest, SeedChangesTheBitsButNotTheTree) {
  const workload& w = *find_workload("star_l3");
  const auto a = seeded_scenario(w, 1), b = seeded_scenario(w, 2),
             a2 = seeded_scenario(w, 1);
  octo::grid::subgrid ga({0.05, 0.05, 0.05}, 0.0125), gb = ga, ga2 = ga;
  a.init(ga);
  b.init(gb);
  a2.init(ga2);
  using octo::app::invariant_auditor;
  EXPECT_EQ(invariant_auditor::leaf_crc(ga), invariant_auditor::leaf_crc(ga2));
  EXPECT_NE(invariant_auditor::leaf_crc(ga), invariant_auditor::leaf_crc(gb));
  const double ra = ga.at(octo::grid::f_rho, 3, 3, 3);
  const double rb = gb.at(octo::grid::f_rho, 3, 3, 3);
  EXPECT_NEAR(ra / rb, 1.0, 2.5 * kPerturbation);
  EXPECT_EQ(a.make_topology(w.level).num_leaves(),
            b.make_topology(w.level).num_leaves());
}

TEST(Workloads, TableAndPinnedOptions) {
  ASSERT_EQ(workloads().size(), 3u);
  EXPECT_EQ(find_workload("nope"), nullptr);
  const workload& dwd = *find_workload("dwd_dist");
  const auto sc = octo::scen::by_name(dwd.scenario);
  const auto o = pinned_dist_options(dwd, sc);
  EXPECT_EQ(o.num_localities, kLocalities);
  EXPECT_EQ(o.sim.mode, octo::app::step_mode::dataflow);
  EXPECT_TRUE(o.sim.self_gravity);
  EXPECT_FALSE(o.sim.audit_races);
  const workload& sedov = *find_workload("sedov_dist");
  const auto so = pinned_sim_options(sedov, octo::scen::by_name("sedov"));
  EXPECT_FALSE(so.self_gravity);
  EXPECT_EQ(so.hydro.gas.gamma, octo::scen::by_name("sedov").gas.gamma);
}

// --- the benchmark process -------------------------------------------------

struct proc_result {
  int status = -1;
  std::string output;
  std::string last_line;
};

proc_result run_process(const std::string& env, const std::string& args) {
  const std::string cmd =
      env + " " + PERFBENCH_EXE + " " + args + " 2>&1";
  proc_result r;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, p) != nullptr) r.output += buf;
  const int st = ::pclose(p);
  r.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  std::string body = r.output;
  while (!body.empty() && body.back() == '\n') body.pop_back();
  r.last_line = body.substr(body.rfind('\n') + 1);
  return r;
}

TEST(Process, RefusesOctoEnvironmentWithNamedError) {
  const auto r = run_process(
      "OCTO_STEP_MODE=dataflow",
      "--workload star_l3 --seed 1 --seconds 1 --trace 0");
  EXPECT_EQ(r.status, 3) << r.output;
  EXPECT_NE(r.output.find("refusing to run: OCTO_STEP_MODE"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("\"correct\""), std::string::npos) << r.output;
}

TEST(Process, RejectsBadArguments) {
  EXPECT_EQ(run_process("", "--workload nope --seed 1 --seconds 1 --trace 0")
                .status,
            2);
  EXPECT_EQ(run_process("", "--workload star_l3 --seed 1 --trace 0").status,
            2);
}

TEST(Process, DigestMismatchFailsTheRunAndExitsNonzero) {
  const auto r = run_process(
      "", "--workload star_l3 --seed 7 --seconds 1 --trace 0 --inject digest");
  EXPECT_EQ(r.status, 1) << r.output;
  EXPECT_NE(r.output.find("[FAIL] state digest of set-up 2"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.last_line.rfind("{\"correct\": false", 0), 0u) << r.last_line;
  // Every attempted step counts as failed.
  const auto att = r.last_line.find("\"attempted\": ");
  const auto fail = r.last_line.find("\"failed\": ");
  ASSERT_NE(att, std::string::npos);
  ASSERT_NE(fail, std::string::npos);
  EXPECT_EQ(std::stoul(r.last_line.substr(att + 13)),
            std::stoul(r.last_line.substr(fail + 10)));
}

TEST(Process, CleanRunPassesEveryCheck) {
  const auto r =
      run_process("", "--workload star_l3 --seed 7 --seconds 1 --trace 0");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_EQ(r.output.find("[FAIL]"), std::string::npos) << r.output;
  EXPECT_EQ(r.last_line.rfind("{\"correct\": true", 0), 0u) << r.last_line;
  for (const char* m : {"cells_per_s", "step_s", "setup_s", "peak_rss_mb"})
    EXPECT_NE(r.last_line.find(std::string("\"") + m + "\""),
              std::string::npos)
        << m;
}

}  // namespace
}  // namespace perfbench
