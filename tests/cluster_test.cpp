#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "apex/trace.hpp"
#include "app/simulation.hpp"
#include "dist/cluster.hpp"
#include "dist/serialize.hpp"

namespace octo::dist {
namespace {

TEST(Serialize, PodRoundTrip) {
  oarchive oa;
  oa.put(42);
  oa.put(3.5);
  oa.put(std::int64_t{-7});
  iarchive ia(oa.take());
  EXPECT_EQ(ia.get<int>(), 42);
  EXPECT_DOUBLE_EQ(ia.get<double>(), 3.5);
  EXPECT_EQ(ia.get<std::int64_t>(), -7);
  EXPECT_TRUE(ia.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  oarchive oa;
  std::vector<double> v{1.5, 2.5, -3.0};
  oa.put_vector(v);
  iarchive ia(oa.take());
  EXPECT_EQ(ia.get_vector<double>(), v);
}

TEST(Serialize, UnderrunThrows) {
  oarchive oa;
  oa.put(1);
  iarchive ia(oa.take());
  ia.get<int>();
  EXPECT_THROW(ia.get<double>(), error);
}

TEST(ClusterTraceEnv, MalformedSkewRejectedNamingVariable) {
  // OCTO_TRACE naming a directory arms the distributed trace; its skew
  // override must be a non-negative integer, not silently truncated.  The
  // trace singleton reads OCTO_TRACE once, when first built: build it now
  // so the variable set below cannot arm a process-wide trace.
  (void)apex::trace::instance();
  ::setenv("OCTO_TRACE", testing::TempDir().c_str(), 1);
  for (const char* bad : {"12x", "abc", "-5"}) {
    ::setenv("OCTO_TRACE_SKEW_US", bad, 1);
    try {
      cluster cl(scen::sedov(), dist_options{});
      ADD_FAILURE() << "accepted OCTO_TRACE_SKEW_US='" << bad << "'";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find("OCTO_TRACE_SKEW_US"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("OCTO_TRACE_SKEW_US");
  ::unsetenv("OCTO_TRACE");
}

struct ClusterEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};

  app::sim_options base_opts() {
    app::sim_options o;
    o.max_level = 2;
    o.self_gravity = true;
    return o;
  }
};

/// A multi-locality run must be bitwise identical to the single-process
/// simulation — distribution is an implementation detail.
class ClusterEquivalence : public testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

TEST_P(ClusterEquivalence, BitwiseMatchesSingleProcess) {
  const auto [nloc, optim] = GetParam();
  auto sc = scen::rotating_star();
  app::sim_options so;
  so.max_level = 2;

  app::simulation ref(sc, so);
  ref.initialize();
  ref.step();

  dist_options dopt;
  dopt.num_localities = nloc;
  dopt.local_optimization = optim;
  dopt.sim = so;
  cluster cl(sc, dopt);
  cl.initialize();
  cl.step();

  for (const index_t leaf : ref.topo().leaves()) {
    const auto& a = ref.leaf(leaf);
    const auto& b = cl.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_EQ(a.at(f, i, j, k), b.at(f, i, j, k))
                << "nloc=" << nloc << " optim=" << optim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LocalitiesAndOpt, ClusterEquivalence,
    testing::Combine(testing::Values(1, 2, 4, 7),
                     testing::Bool()));

TEST_F(ClusterEnv, OptimizationStatsDirectVsSerialized) {
  auto sc = scen::rotating_star();
  dist_options on, off;
  on.num_localities = off.num_localities = 4;
  on.local_optimization = true;
  off.local_optimization = false;
  on.sim = off.sim = base_opts();

  cluster c_on(sc, on), c_off(sc, off);
  c_on.initialize();
  c_off.initialize();
  c_on.step();
  c_off.step();

  const auto s_on = c_on.stats();
  const auto s_off = c_off.stats();
  // with the optimization every same-locality face is copied directly
  EXPECT_GT(s_on.local_direct, 0u);
  EXPECT_EQ(s_on.local_serialized, 0u);
  // without it nothing is direct
  EXPECT_EQ(s_off.local_direct, 0u);
  EXPECT_GT(s_off.local_serialized, 0u);
  // same total exchanges, fewer serialized bytes with the optimization
  EXPECT_EQ(s_on.total_slabs(), s_off.total_slabs());
  EXPECT_LT(s_on.bytes_serialized, s_off.bytes_serialized);
  // remote traffic identical
  EXPECT_EQ(s_on.remote_messages, s_off.remote_messages);
}

TEST_F(ClusterEnv, SingleLocalityHasNoRemoteTraffic) {
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 1;
  o.sim = base_opts();
  cluster cl(sc, o);
  cl.initialize();
  cl.step();
  EXPECT_EQ(cl.stats().remote_messages, 0u);
  EXPECT_GT(cl.stats().local_direct, 0u);
}

TEST_F(ClusterEnv, RepeatedStepsNoDeadlock) {
  // The §VII-B notification protocol must never deadlock; run several
  // steps across uneven localities to exercise racy orderings.
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 5;
  o.sim = base_opts();
  o.sim.max_level = 1;
  cluster cl(sc, o);
  cl.initialize();
  for (int s = 0; s < 5; ++s) cl.step();
  EXPECT_EQ(cl.steps_taken(), 5);
  const auto lg = cl.measure();
  EXPECT_TRUE(std::isfinite(lg.mass));
}

TEST_F(ClusterEnv, MassConservedAcrossLocalities) {
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 3;
  o.sim = base_opts();
  cluster cl(sc, o);
  cl.initialize();
  const auto l0 = cl.measure();
  cl.step();
  const auto l1 = cl.measure();
  EXPECT_LT(std::abs(l1.mass - l0.mass) / l0.mass, 1e-13);
}

}  // namespace
}  // namespace octo::dist
