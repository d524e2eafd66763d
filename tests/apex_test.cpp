#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apex/analyze.hpp"
#include "apex/apex.hpp"

namespace octo::apex {
namespace {

TEST(Apex, TimerRegistrationIdempotent) {
  auto& r = registry::instance();
  const auto a = r.timer("apex_test.idempotent");
  const auto b = r.timer("apex_test.idempotent");
  EXPECT_EQ(a, b);
  const auto c = r.timer("apex_test.other");
  EXPECT_NE(a, c);
}

TEST(Apex, ScopedTimerAccumulates) {
  auto& r = registry::instance();
  const auto id = r.timer("apex_test.scoped");
  const auto before = [&] {
    for (const auto& t : r.timers())
      if (t.name == "apex_test.scoped") return t.calls;
    return std::uint64_t{0};
  }();
  {
    scoped_timer t(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const auto& t : r.timers()) {
    if (t.name != "apex_test.scoped") continue;
    EXPECT_EQ(t.calls, before + 1);
    EXPECT_GT(t.max_seconds, 0.001);
    EXPECT_LE(t.min_seconds, t.max_seconds);
  }
}

TEST(Apex, CounterAdds) {
  auto& r = registry::instance();
  const auto id = r.counter("apex_test.counter");
  r.add(id, 5);
  r.add(id);
  std::uint64_t got = 0;
  for (const auto& c : r.counters())
    if (c.name == "apex_test.counter") got = c.value;
  EXPECT_GE(got, 6u);
}

TEST(Apex, DisabledIsNoOp) {
  auto& r = registry::instance();
  const auto id = r.counter("apex_test.disabled");
  r.set_enabled(false);
  r.add(id, 100);
  r.set_enabled(true);
  for (const auto& c : r.counters()) {
    if (c.name == "apex_test.disabled") {
      EXPECT_EQ(c.value, 0u);
    }
  }
}

TEST(Apex, TimedHelperReturnsValue) {
  auto& r = registry::instance();
  const auto id = r.timer("apex_test.timed");
  EXPECT_EQ(timed(id, [] { return 42; }), 42);
}

TEST(Apex, ReportRenders) {
  auto& r = registry::instance();
  const auto id = r.timer("apex_test.report");
  { scoped_timer t(id); }
  std::ostringstream os;
  r.report(os);
  EXPECT_NE(os.str().find("apex_test.report"), std::string::npos);
}

TEST(Apex, ConcurrentSamplesAllCounted) {
  auto& r = registry::instance();
  const auto id = r.timer("apex_test.concurrent");
  constexpr int per_thread = 2000;
  auto work = [&] {
    for (int i = 0; i < per_thread; ++i) r.sample(id, 1e-6);
  };
  std::thread t1(work), t2(work);
  work();
  t1.join();
  t2.join();
  for (const auto& t : r.timers()) {
    if (t.name == "apex_test.concurrent") {
      EXPECT_EQ(t.calls, 3u * per_thread);
    }
  }
}

// The seed kept slots in a std::vector, so a sample() concurrent with a
// registration could read through a reallocated buffer.  Hammer
// registration + sampling + snapshotting together; under TSan this is the
// regression test for the chunked-slot storage.
TEST(Apex, ConcurrentRegistrationSamplingSnapshot) {
  auto& r = registry::instance();
  constexpr int n_register = 300;  // crosses several 64-slot chunks
  constexpr int n_samples = 5000;
  std::atomic<bool> stop{false};

  std::thread registrar([&] {
    for (int i = 0; i < n_register; ++i) {
      const auto t = r.timer("apex_test.stress.t" + std::to_string(i));
      r.sample(t, 1e-7);
      const auto c = r.counter("apex_test.stress.c" + std::to_string(i));
      r.add(c, 1);
    }
    stop.store(true);
  });

  const auto hot_timer = r.timer("apex_test.stress.hot");
  const auto hot_counter = r.counter("apex_test.stress.hot");
  auto sampler = [&] {
    for (int i = 0; i < n_samples; ++i) {
      r.sample(hot_timer, 1e-6);
      r.add(hot_counter, 1);
    }
  };
  std::thread s1(sampler), s2(sampler);

  std::uint64_t snapshots = 0;
  do {  // at least one snapshot even if the registrar already finished
    (void)r.timers();
    (void)r.counters();
    ++snapshots;
  } while (!stop.load());

  registrar.join();
  s1.join();
  s2.join();
  EXPECT_GE(snapshots, 1u);

  std::uint64_t hot_calls = 0, hot_value = 0;
  int stress_timers = 0;
  for (const auto& t : r.timers()) {
    if (t.name == "apex_test.stress.hot") hot_calls = t.calls;
    if (t.name.rfind("apex_test.stress.t", 0) == 0) ++stress_timers;
  }
  for (const auto& c : r.counters())
    if (c.name == "apex_test.stress.hot") hot_value = c.value;
  EXPECT_EQ(hot_calls, 2u * n_samples);
  EXPECT_EQ(hot_value, 2u * n_samples);
  EXPECT_EQ(stress_timers, n_register);
}

// p50/p95 come from the log2 histogram: two well-separated populations
// must land in the right order of magnitude.
TEST(Apex, PercentilesSeparatePopulations) {
  auto& r = registry::instance();
  const auto id = r.timer("apex_test.percentile");
  // 90 fast samples (~1 us) and 10 slow ones (~16 ms): the nearest-rank
  // p95 (rank 95 of 100) must land in the slow population.
  for (int i = 0; i < 90; ++i) r.sample(id, 1e-6);
  for (int i = 0; i < 10; ++i) r.sample(id, 16e-3);
  for (const auto& t : r.timers()) {
    if (t.name != "apex_test.percentile") continue;
    EXPECT_GT(t.p50_seconds, 1e-7);  // log2 bucket around 1 us
    EXPECT_LT(t.p50_seconds, 1e-5);
    EXPECT_GT(t.p95_seconds, 1e-3);  // pulled up by the slow tail
    EXPECT_GE(t.p95_seconds, t.p50_seconds);
    EXPECT_LE(t.p50_seconds, t.max_seconds);
  }
}

// The report groups dotted names under a common header.
TEST(Apex, ReportGroupsHierarchically) {
  auto& r = registry::instance();
  { scoped_timer t(r.timer("apexgrp.alpha")); }
  { scoped_timer t(r.timer("apexgrp.beta")); }
  std::ostringstream os;
  r.report(os);
  const auto s = os.str();
  EXPECT_NE(s.find("[apexgrp]"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("p95"), std::string::npos);
}

/// Nested spans (amt.task wrapping gravity.m2l) must count their overlap
/// once: summing durations read 150% here.
TEST(Apex, UtilizationCountsNestedSpansOnce) {
  loaded_trace t;
  t.spans.push_back({"amt.task", 0, 1, 0, 100});
  t.spans.push_back({"gravity.m2l", 0, 1, 10, 50});
  t.spans.push_back({"amt.task", 0, 2, 0, 40});
  t.spans.push_back({"amt.task", 0, 2, 60, 40});
  t.spans.push_back({"gravity.m2l", 0, 2, 70, 10});
  const auto rows = compute_utilization(t);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& r : rows) {
    EXPECT_LE(r.utilization, 1.0) << "tid " << r.tid;
    EXPECT_EQ(r.busy_us, r.tid == 1 ? 100.0 : 80.0) << "tid " << r.tid;
  }
  EXPECT_EQ(rows[0].spans, 2u);
  EXPECT_DOUBLE_EQ(rows[0].utilization, 1.0);
  EXPECT_DOUBLE_EQ(rows[1].utilization, 0.8);
}

}  // namespace
}  // namespace octo::apex
