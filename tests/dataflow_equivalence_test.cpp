/// Acceptance harness for the dependency-driven step (ISSUE: dataflow
/// refactor): OCTO_STEP_MODE=dataflow must be a bitwise drop-in for the
/// barriered pipeline.  Ten steps of the binary-SCF scenario, single
/// process and distributed (1 and 4 localities), plus one lossy-network
/// run — every leaf cell, every field, exactly equal.

#include <gtest/gtest.h>

#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/cluster.hpp"
#include "scenarios/scenarios.hpp"

namespace octo {
namespace {

constexpr int kSteps = 10;

/// One shared binary-SCF scenario: copies share the lazily-run SCF
/// backend, so the relaxation runs once for the whole suite.
scen::scenario& binary_scenario() {
  static scen::scenario sc = scen::dwd();
  return sc;
}

app::sim_options sim_opts(app::step_mode mode) {
  app::sim_options o;
  o.max_level = 2;
  o.mode = mode;
  return o;
}

template <typename A, typename B>
void expect_bitwise_equal(A& a, B& b) {
  ASSERT_EQ(a.topo().num_leaves(), b.topo().num_leaves());
  for (const index_t leaf : a.topo().leaves()) {
    const auto& ga = a.leaf(leaf);
    const auto& gb = b.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_EQ(ga.at(f, i, j, k), gb.at(f, i, j, k))
                << "leaf " << leaf << " field " << f << " cell (" << i << ","
                << j << "," << k << ")";
  }
}

struct DataflowEquivalence : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(DataflowEquivalence, SingleProcessTenStepsBitwise) {
  auto& sc = binary_scenario();
  app::simulation ref(sc, sim_opts(app::step_mode::barrier));
  app::simulation df(sc, sim_opts(app::step_mode::dataflow));
  ref.initialize();
  df.initialize();
  for (int s = 0; s < kSteps; ++s) {
    ref.step();
    df.step();
    ASSERT_EQ(df.time(), ref.time()) << "step " << s;
  }
  expect_bitwise_equal(ref, df);
}

class DataflowClusterEquivalence : public testing::TestWithParam<int> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_P(DataflowClusterEquivalence, TenStepsBitwise) {
  const int nloc = GetParam();
  auto& sc = binary_scenario();

  dist::dist_options bo;
  bo.num_localities = nloc;
  bo.sim = sim_opts(app::step_mode::barrier);
  dist::cluster ref(sc, bo);
  ref.initialize();

  dist::dist_options go = bo;
  go.sim.mode = app::step_mode::dataflow;
  dist::cluster df(sc, go);
  df.initialize();

  for (int s = 0; s < kSteps; ++s) {
    ref.step();
    df.step();
    ASSERT_EQ(df.time(), ref.time()) << "nloc=" << nloc << " step " << s;
    ASSERT_EQ(df.dt(), ref.dt()) << "nloc=" << nloc << " step " << s;
  }
  expect_bitwise_equal(ref, df);
  // Same ghost traffic, stage for stage.
  EXPECT_EQ(df.stats().total_slabs(), ref.stats().total_slabs());
}

/// Same-locality faces ride the copy kernel instead of the channels, yet
/// the exchange statistics count them as before: every ghost exchange adds
/// the partition's static same-locality leaf-leaf link count (local_direct
/// with the optimization on, local_serialized with it off) and its
/// cross-locality count (remote_messages), in both schedules.
TEST_P(DataflowClusterEquivalence, ExchangeStatsCountStaticLinks) {
  constexpr int steps = 2;
  const int nloc = GetParam();
  auto& sc = binary_scenario();
  for (const bool local_opt : {true, false}) {
    dist::dist_options bo;
    bo.num_localities = nloc;
    bo.local_optimization = local_opt;
    bo.sim = sim_opts(app::step_mode::barrier);
    dist::cluster ref(sc, bo);
    ref.initialize();
    dist::dist_options go = bo;
    go.sim.mode = app::step_mode::dataflow;
    dist::cluster df(sc, go);
    df.initialize();
    for (int s = 0; s < steps; ++s) {
      ref.step();
      df.step();
    }

    std::uint64_t same = 0, cross = 0;
    const auto& topo = ref.topo();
    for (const index_t l : topo.leaves()) {
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo.neighbor(l, d);
        if (nb == tree::invalid_node || !topo.node(nb).leaf) continue;
        ++(ref.partition().owner(l) == ref.partition().owner(nb) ? same
                                                                 : cross);
      }
    }
    ASSERT_GT(same, 0u);
    if (nloc == 1) {
      EXPECT_EQ(cross, 0u);
    }
    // initialize() exchanges once; every step once per RK stage.
    const std::uint64_t exchanges = 1 + app::rk3_stages * steps;
    const auto& a = ref.stats();
    const auto& b = df.stats();
    EXPECT_EQ(b.local_direct, a.local_direct) << "local_opt=" << local_opt;
    EXPECT_EQ(b.local_serialized, a.local_serialized)
        << "local_opt=" << local_opt;
    EXPECT_EQ(b.remote_messages, a.remote_messages)
        << "local_opt=" << local_opt;
    EXPECT_EQ(b.bytes_serialized, a.bytes_serialized)
        << "local_opt=" << local_opt;
    EXPECT_EQ(a.local_direct, local_opt ? same * exchanges : 0u);
    EXPECT_EQ(a.local_serialized, local_opt ? 0u : same * exchanges);
    EXPECT_EQ(a.remote_messages, cross * exchanges);
  }
}

INSTANTIATE_TEST_SUITE_P(Localities, DataflowClusterEquivalence,
                         testing::Values(1, 4));

/// The graph's arrival edges ride the reliable transport: with every slab
/// serialized and the network dropping frames, the dataflow run must still
/// match the fault-free barrier run bitwise.
TEST_F(DataflowEquivalence, LossyNetworkTenStepsBitwise) {
  auto& sc = binary_scenario();

  dist::dist_options o;
  o.num_localities = 4;
  o.local_optimization = false;  // every slab takes the serialized path
  o.transport.ack_timeout_ms = 2;
  o.transport.max_retries = 30;
  o.sim = sim_opts(app::step_mode::barrier);

  dist::cluster ref(sc, o);
  ref.initialize();
  for (int s = 0; s < kSteps; ++s) ref.step();

  fault::injector::instance().arm_msg_drop(0.2);
  dist::dist_options lo = o;
  lo.sim.mode = app::step_mode::dataflow;
  dist::cluster df(sc, lo);
  df.initialize();
  for (int s = 0; s < kSteps; ++s) df.step();
  fault::injector::instance().reset();

  EXPECT_EQ(df.time(), ref.time());
  expect_bitwise_equal(ref, df);
  const auto st = df.transport_statistics();
  EXPECT_GT(st.retries, 0u) << "p=0.2 drop over ten steps never retried?";
}

}  // namespace
}  // namespace octo
