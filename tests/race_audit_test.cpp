#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "amt/runtime.hpp"
#include "apex/race_audit.hpp"
#include "app/simulation.hpp"
#include "common/error.hpp"
#include "dist/cluster.hpp"
#include "gravity/solver.hpp"
#include "scenarios/scenarios.hpp"

namespace octo::apex {
namespace {

dag_node make_node(const char* cls, std::uint32_t id,
                   std::vector<std::uint32_t> deps,
                   std::vector<mem_access> fp) {
  dag_node n;
  n.cls = cls;
  n.id = id;
  n.deps = std::move(deps);
  n.footprint = std::move(fp);
  return n;
}

mem_access rd(rgn r, std::int32_t node, std::int32_t part = any_part) {
  return mem_access{r, false, node, part};
}
mem_access wr(rgn r, std::int32_t node, std::int32_t part = any_part) {
  return mem_access{r, true, node, part};
}

TEST(RaceAudit, OrderedConflictIsClean) {
  graph_profile g;
  g.nodes.push_back(make_node("write", 0, {}, {wr(rgn::field, 7)}));
  g.nodes.push_back(make_node("read", 1, {0}, {rd(rgn::field, 7)}));
  const auto res = audit_races(g);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_EQ(res.tasks, 2u);
  EXPECT_EQ(res.tasks_with_footprint, 2u);
  EXPECT_EQ(res.accesses, 2u);
  EXPECT_EQ(res.pairs_checked, 1u);
}

TEST(RaceAudit, UnorderedWriteReadIsFlaggedWithBothTasksAndRegion) {
  graph_profile g;
  g.nodes.push_back(make_node("producer", 0, {}, {wr(rgn::moment, 3)}));
  g.nodes.push_back(make_node("consumer", 1, {}, {rd(rgn::moment, 3)}));
  const auto res = audit_races(g);
  ASSERT_EQ(res.conflicts.size(), 1u);
  const auto& c = res.conflicts[0];
  EXPECT_EQ(c.first_cls, "producer");
  EXPECT_EQ(c.second_cls, "consumer");
  const std::string line = c.describe();
  EXPECT_NE(line.find("producer#0"), std::string::npos) << line;
  EXPECT_NE(line.find("consumer#1"), std::string::npos) << line;
  EXPECT_NE(line.find("moment(node 3)"), std::string::npos) << line;
  EXPECT_NE(line.find("missing edge producer#0 -> consumer#1"),
            std::string::npos)
      << line;
}

TEST(RaceAudit, ReadReadNeverConflicts) {
  graph_profile g;
  g.nodes.push_back(make_node("a", 0, {}, {rd(rgn::field, 1)}));
  g.nodes.push_back(make_node("b", 1, {}, {rd(rgn::field, 1)}));
  const auto res = audit_races(g);
  EXPECT_TRUE(res.clean());
  EXPECT_EQ(res.pairs_checked, 0u);
}

TEST(RaceAudit, DisjointPartsDoNotConflictButAnyPartDoes) {
  graph_profile g;
  g.nodes.push_back(make_node("w0", 0, {}, {wr(rgn::expansion, 5, 0)}));
  g.nodes.push_back(make_node("w1", 1, {}, {wr(rgn::expansion, 5, 1)}));
  EXPECT_TRUE(audit_races(g).clean());
  g.nodes.push_back(make_node("wall", 2, {}, {wr(rgn::expansion, 5)}));
  const auto res = audit_races(g);
  EXPECT_EQ(res.conflicts.size(), 2u);  // wall vs w0 and wall vs w1
}

TEST(RaceAudit, TransitiveOrderingThroughJoinNodeCounts) {
  // w -> join -> r: no direct edge, but the path orders the pair (this is
  // how when_all joins appear in recorded graphs).
  graph_profile g;
  g.nodes.push_back(make_node("w", 0, {}, {wr(rgn::ghost, 2, 4)}));
  g.nodes.push_back(make_node("join", 1, {0}, {}));
  g.nodes.push_back(make_node("r", 2, {1}, {rd(rgn::ghost, 2, 4)}));
  EXPECT_TRUE(audit_races(g).clean());
}

TEST(RaceAudit, DropEdgeExposesTheHiddenConflict) {
  graph_profile g;
  g.nodes.push_back(make_node("w", 0, {}, {wr(rgn::field, 9)}));
  g.nodes.push_back(make_node("r", 1, {0}, {rd(rgn::field, 9)}));
  race_audit_options opt;
  opt.drop_edge_from = "w";
  opt.drop_edge_to = "r";
  const auto res = audit_races(g, opt);
  EXPECT_EQ(res.edges_dropped, 1u);
  ASSERT_EQ(res.conflicts.size(), 1u);
  EXPECT_EQ(res.conflicts[0].first_cls, "w");
  EXPECT_EQ(res.conflicts[0].second_cls, "r");
}

TEST(RaceAudit, DumpLoadRoundTrip) {
  graph_profile g;
  g.nodes.push_back(make_node("alpha", 0, {}, {wr(rgn::stage0, 1, 2)}));
  g.nodes.push_back(make_node("beta", 1, {0}, {rd(rgn::stage0, 1, 2)}));
  std::ostringstream os;
  dump_graph_json(g, os);
  const owned_graph back = load_graph_json(os.str());
  ASSERT_EQ(back.graph.nodes.size(), 2u);
  EXPECT_STREQ(back.graph.nodes[0].cls, "alpha");
  EXPECT_STREQ(back.graph.nodes[1].cls, "beta");
  ASSERT_EQ(back.graph.nodes[1].deps.size(), 1u);
  EXPECT_EQ(back.graph.nodes[1].deps[0], 0u);
  ASSERT_EQ(back.graph.nodes[0].footprint.size(), 1u);
  EXPECT_EQ(back.graph.nodes[0].footprint[0].region, rgn::stage0);
  EXPECT_TRUE(back.graph.nodes[0].footprint[0].write);
  EXPECT_EQ(back.graph.nodes[0].footprint[0].node, 1);
  EXPECT_EQ(back.graph.nodes[0].footprint[0].part, 2);
  EXPECT_TRUE(audit_races(back.graph).clean());
}

TEST(RaceAudit, LoadRejectsMalformedGraphs) {
  EXPECT_THROW(load_graph_json("{\"nodes\":[{\"cls\":\"x\"}]}"), error);
  EXPECT_THROW(load_graph_json("{}"), error);
  // Non-dense ids.
  EXPECT_THROW(load_graph_json("{\"nodes\":[{\"cls\":\"x\",\"id\":3,"
                               "\"deps\":[],\"fp\":[]}]}"),
               error);
}

// --- End to end: a real dataflow step, audited and dumped. ---------------

struct RaceAuditSim : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

app::sim_options dataflow_options() {
  app::sim_options opt;
  opt.max_level = 1;
  opt.mode = app::step_mode::dataflow;
  opt.audit_races = true;
  return opt;
}

TEST_F(RaceAuditSim, RealStepGraphAuditsCleanAndDumps) {
  const std::string dump = "race_audit_dump_test.json";
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  {
    auto sc = scen::rotating_star();
    app::simulation sim(sc, dataflow_options());
    sim.initialize();
    // audit_races throws on any unordered conflicting pair, so two clean
    // steps are the "zero conflicts on the unmodified graph" assertion.
    sim.step();
    sim.step();
  }
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");

  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());

  const owned_graph og = load_graph_json(text.str());
  const auto res = audit_races(og.graph);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_GT(res.tasks, 0u);
  EXPECT_GT(res.tasks_with_footprint, 0u);
  EXPECT_GT(res.accesses, 0u);
  EXPECT_GT(res.pairs_checked, 0u);
}

TEST_F(RaceAuditSim, DroppedSolverFreeEdgeRegressionIsCaught) {
  // The PR-4 bug class: fmm_solver::solve_dataflow threads mom_free /
  // exp_free edges between RK substeps so substep s+1's moment/expansion
  // writers wait for substep s's readers.  Re-audit a real recorded step
  // with those edges removed from the audited view (the schedule itself is
  // untouched) and the auditor must flag the WAR on the shared region,
  // naming both tasks.
  const std::string dump = "race_audit_dropedge_test.json";
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  {
    auto sc = scen::rotating_star();
    app::simulation sim(sc, dataflow_options());
    sim.initialize();
    sim.step();
  }
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");

  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());
  const owned_graph og = load_graph_json(text.str());

  race_audit_options opt;
  opt.drop_edge_from = "evaluate";
  opt.drop_edge_to = "zero";
  const auto res = audit_races(og.graph, opt);
  EXPECT_GT(res.edges_dropped, 0u);
  ASSERT_FALSE(res.clean())
      << "dropping the evaluate->zero exp_free edges must surface the "
         "expansion WAR";
  bool saw_expansion_pair = false;
  for (const auto& c : res.conflicts) {
    if (c.first_cls == "evaluate" && c.second_cls == "zero" &&
        c.first_access.region == rgn::expansion)
      saw_expansion_pair = true;
  }
  EXPECT_TRUE(saw_expansion_pair) << res.summary();
}

TEST_F(RaceAuditSim, StandaloneSolveGraphAuditsClean) {
  // fmm_solver::solve() drains the same task graph the dataflow step
  // wires in — the graph initialize(), restore_state(), regrid() and the
  // SCF iterations run.  On a refined tree (fine-coarse pairs and applies
  // take part) its recording must audit with zero conflicts.
  const auto sc = scen::rotating_star();
  const tree::topology topo = sc.make_topology(3);
  gravity::fmm_solver solver(topo);
  for (const index_t l : topo.leaves()) {
    grid::subgrid u(topo.center(l), topo.cell_width(l));
    sc.init(u);
    solver.set_leaf_from_subgrid(l, u);
  }
  dag_recorder::instance().begin_step();
  solver.solve();
  const graph_profile graph = dag_recorder::instance().end_step();
  const auto res = audit_races(graph);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_GT(res.tasks_with_footprint, 0u);
  EXPECT_GT(res.pairs_checked, 0u);
  bool saw_fc_apply = false;
  for (const auto& n : graph.nodes)
    saw_fc_apply = saw_fc_apply || std::string(n.cls) == "fc-apply";
  EXPECT_TRUE(saw_fc_apply) << "level-3 tree without refinement boundaries?";
}

/// Per-kernel-class node counts ("cls") and dependency-edge counts
/// ("producer->consumer") of one recorded dataflow step, plus "#order": the
/// low 16 bits of a fold over every node's class and its dependency ids in
/// declaration order, so a reordered edge list (which changes which error
/// a failing task reports first) shows too.
using shape_counts = std::map<std::string, std::size_t>;

shape_counts graph_shape(const graph_profile& g) {
  shape_counts c;
  std::uint64_t order = 1469598103934665603ull;
  const auto fold = [&order](std::uint64_t v) {
    order = (order ^ v) * 1099511628211ull;
  };
  for (const auto& n : g.nodes) {
    ++c[n.cls];
    for (const char* p = n.cls; *p != '\0'; ++p)
      fold(static_cast<unsigned char>(*p));
    for (const std::uint32_t d : n.deps) {
      ++c[std::string(g.nodes[d].cls) + "->" + n.cls];
      fold(d);
    }
    fold(0xffffffffu);
  }
  c["#order"] = static_cast<std::size_t>(order & 0xffffu);
  return c;
}

std::string shape_listing(const shape_counts& c) {
  std::ostringstream os;
  for (const auto& [k, v] : c)
    os << "      {\"" << k << "\", " << v << "},\n";
  return os.str();
}

/// Run one audited dataflow step of \p driver (already initialized) and
/// return its recorded graph (read back from the OCTO_RACE_AUDIT_DUMP file
/// the auditor writes).
template <typename Driver>
owned_graph recorded_step_graph(Driver& driver, const std::string& dump) {
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  driver.step();
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");
  std::ifstream in(dump);
  EXPECT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());
  return load_graph_json(text.str());
}

template <typename Driver>
shape_counts recorded_step_shape(Driver& driver, const std::string& dump) {
  return graph_shape(recorded_step_graph(driver, dump).graph);
}

TEST_F(RaceAuditSim, DroppedSameLocalityCopyEdgeIsCaught) {
  // With the §VII-B optimization a same-locality leaf-leaf face rides the
  // copy kernel: the copy task filling leaf n's ghosts reads its neighbor
  // l's owned cells, and l's next hydro update waits on that copy (the
  // hydro task's WAR edge on each neighbor's previous copy).  Remove
  // exactly those edges between same-locality leaves from the audited
  // view of a recorded 4-locality step, and the auditor must flag the
  // copy's read of the neighbor's field against the hydro write.
  dist::dist_options o;
  o.num_localities = 4;
  o.sim = dataflow_options();
  o.sim.max_level = 2;
  dist::cluster cl(scen::rotating_star(), o);
  cl.initialize();
  owned_graph og =
      recorded_step_graph(cl, "race_audit_samelocality_test.json");
  auto& nodes = og.graph.nodes;
  const auto& part = cl.partition();

  // The leaf whose ghosts a copy task writes, or -1.
  const auto copy_target = [&](const dag_node& c) -> std::int32_t {
    if (std::string(c.cls) != "copy") return -1;
    for (const auto& a : c.footprint)
      if (a.write && a.region == rgn::ghost &&
          cl.topo().node(a.node).leaf)
        return a.node;
    return -1;
  };
  std::size_t dropped = 0;
  for (auto& h : nodes) {
    if (std::string(h.cls) != "hydro-RK") continue;
    std::int32_t l = -1;
    for (const auto& a : h.footprint)
      if (a.write && a.region == rgn::field) l = a.node;
    ASSERT_GE(l, 0);
    std::vector<std::uint32_t> kept;
    for (const std::uint32_t d : h.deps) {
      const std::int32_t n = copy_target(nodes[d]);
      const bool drop = n >= 0 && n != l && part.owner(n) == part.owner(l);
      if (drop) ++dropped;
      else kept.push_back(d);
    }
    h.deps = std::move(kept);
  }
  ASSERT_GT(dropped, 0u) << "no same-locality copy->hydro-RK WAR edge";

  const auto res = audit_races(og.graph);
  ASSERT_FALSE(res.clean()) << "dropping the same-locality copy WAR edges "
                               "must surface the copy's neighbor read";
  for (const auto& c : res.conflicts) {
    EXPECT_EQ(c.first_cls, "copy") << c.describe();
    EXPECT_EQ(c.second_cls, "hydro-RK") << c.describe();
    EXPECT_EQ(c.first_access.region, rgn::field) << c.describe();
    EXPECT_FALSE(c.first_access.write) << c.describe();
    EXPECT_TRUE(c.second_access.write) << c.describe();
    EXPECT_EQ(c.first_access.node, c.second_access.node) << c.describe();
  }
}

/// \p base with the entries of \p changes overwritten or added.
shape_counts with(shape_counts base, const shape_counts& changes) {
  for (const auto& [k, v] : changes) base[k] = v;
  return base;
}

TEST_F(RaceAuditSim, StepGraphShapeIsFrozen) {
  // The dataflow step's task graph, frozen per kernel class (node counts,
  // producer->consumer edge counts, and the edge-order fold).  A lost or
  // extra edge can leave every golden signature equal by scheduling luck;
  // this catches it.  Graphs: rotating_star in the single-process driver
  // at L2 (uniform) and L3 (refined: prolongation and fine-coarse gravity),
  // the shared-SCF dwd at L2 in a 4-locality cluster with and without the
  // same-locality direct-access optimization (same-locality faces on the
  // copy kernel vs. the fully serialized exchange), and rotating_star L3
  // in a 4-locality cluster (prolongation gated on unpacked host faces).
  // A cluster graph is written as the same-tree simulation graph plus what
  // differs: its exchanged leaf-leaf faces travel through send/unpack
  // tasks instead of copy.
  const std::string dump = "race_audit_shape_test.json";
  const auto sim_shape = [&](int level) {
    app::sim_options opt = dataflow_options();
    opt.max_level = level;
    app::simulation sim(scen::rotating_star(), opt);
    sim.initialize();
    return recorded_step_shape(sim, dump);
  };
  const auto cluster_shape = [&](const scen::scenario& sc, int level,
                                 bool local_opt) {
    dist::dist_options o;
    o.num_localities = 4;
    o.local_optimization = local_opt;
    o.sim = dataflow_options();
    o.sim.max_level = level;
    dist::cluster cl(sc, o);
    cl.initialize();
    return recorded_step_shape(cl, dump);
  };
  const auto expect_shape = [](const char* what, const shape_counts& got,
                               const shape_counts& want) {
    EXPECT_EQ(got, want) << what << " step graph changed; it now reads:\n"
                         << shape_listing(got);
  };

  const shape_counts sim_l2 = {
      {"#order", 18170}, {"L2L", 216}, {"L2L->L2L", 192},
      {"L2L->evaluate", 192}, {"L2L->join", 648}, {"M2L", 240},
      {"M2L->L2L", 216}, {"M2L->join", 3240}, {"M2M", 27}, {"M2M->M2L", 216},
      {"M2M->M2M", 24}, {"M2M->join", 216}, {"copy", 219},
      {"copy->copy", 146}, {"copy->dt-reduce", 64}, {"copy->hydro-RK", 2000},
      {"copy->restrict", 130}, {"dt-reduce", 64}, {"evaluate", 192},
      {"evaluate->hydro-RK", 128}, {"evaluate->zero", 128}, {"hydro-RK", 192},
      {"hydro-RK->copy", 3000}, {"hydro-RK->dt-reduce", 64},
      {"hydro-RK->restrict", 192}, {"hydro-RK->set-density", 192},
      {"join", 249}, {"join->L2L", 24}, {"join->M2M", 18},
      {"join->set-density", 128}, {"join->zero", 18}, {"restrict", 27},
      {"restrict->copy", 195}, {"restrict->hydro-RK", 128},
      {"restrict->restrict", 40}, {"set-density", 192},
      {"set-density->M2L", 3000}, {"set-density->M2M", 192},
      {"set-density->hydro-RK", 128}, {"snapshot", 64},
      {"snapshot->hydro-RK", 64}, {"zero", 219}, {"zero->M2L", 240},
  };
  const shape_counts sim_l3 = {
      {"#order", 56018}, {"L2L", 408}, {"L2L->L2L", 384},
      {"L2L->evaluate", 360}, {"L2L->join", 1224}, {"M2L", 432},
      {"M2L->L2L", 408}, {"M2L->fc-apply", 336}, {"M2L->join", 6240},
      {"M2M", 51}, {"M2M->M2L", 864}, {"M2M->M2M", 48}, {"M2M->join", 408},
      {"copy", 411}, {"copy->copy", 274}, {"copy->dt-reduce", 120},
      {"copy->hydro-RK", 3568}, {"copy->prolong", 888},
      {"copy->restrict", 562}, {"dt-reduce", 120}, {"evaluate", 360},
      {"evaluate->fc-pair", 704}, {"evaluate->hydro-RK", 240},
      {"evaluate->zero", 240}, {"fc-apply", 336}, {"fc-apply->L2L", 336},
      {"fc-pair", 168}, {"fc-pair->fc-apply", 1056}, {"fc-pair->join", 1056},
      {"hydro-RK", 360}, {"hydro-RK->copy", 5352},
      {"hydro-RK->dt-reduce", 120}, {"hydro-RK->prolong", 1056},
      {"hydro-RK->restrict", 360}, {"hydro-RK->set-density", 360},
      {"join", 465}, {"join->L2L", 24}, {"join->M2M", 34},
      {"join->set-density", 240}, {"join->zero", 34}, {"prolong", 168},
      {"prolong->copy", 592}, {"prolong->dt-reduce", 56},
      {"prolong->hydro-RK", 704}, {"restrict", 51}, {"restrict->copy", 843},
      {"restrict->hydro-RK", 240}, {"restrict->restrict", 80},
      {"set-density", 360}, {"set-density->M2L", 5352},
      {"set-density->M2M", 360}, {"set-density->fc-pair", 1056},
      {"set-density->hydro-RK", 240}, {"snapshot", 120},
      {"snapshot->hydro-RK", 120}, {"zero", 411}, {"zero->M2L", 432},
  };
  // With the optimization on, same-locality leaf-leaf faces stay on the
  // copy kernel (copy->hydro-RK WAR/RAW edges); only the serialized faces
  // take send/unpack tasks.
  const shape_counts cluster_l2 = with(sim_l2, {
      {"#order", 59614}, {"copy->hydro-RK", 1280}, {"hydro-RK->copy", 1920},
      {"hydro-RK->send", 144}, {"hydro-RK->unpack", 1080}, {"send", 144},
      {"send->hydro-RK", 96}, {"send->send", 96}, {"unpack", 1080},
      {"unpack->dt-reduce", 360}, {"unpack->hydro-RK", 720},
      {"unpack->unpack", 720},
  });
  const shape_counts cluster_l2_serialized = with(sim_l2, {
      {"#order", 2638}, {"copy->hydro-RK", 128}, {"hydro-RK->copy", 192},
      {"hydro-RK->send", 192}, {"hydro-RK->unpack", 2808}, {"send", 192},
      {"send->hydro-RK", 128}, {"send->send", 128}, {"unpack", 2808},
      {"unpack->dt-reduce", 936}, {"unpack->hydro-RK", 1872},
      {"unpack->unpack", 1872},
  });
  const shape_counts cluster_l3 = with(sim_l3, {
      {"#order", 57550}, {"copy->hydro-RK", 2512}, {"hydro-RK->copy", 3768},
      {"hydro-RK->send", 264}, {"hydro-RK->unpack", 1584},
      {"prolong->unpack", 2448}, {"send", 264}, {"send->hydro-RK", 176},
      {"send->send", 176}, {"unpack", 1584}, {"unpack->dt-reduce", 528},
      {"unpack->hydro-RK", 1056}, {"unpack->prolong", 3672},
      {"unpack->unpack", 1056},
  });

  expect_shape("rotating_star L2 simulation", sim_shape(2), sim_l2);
  expect_shape("rotating_star L3 simulation", sim_shape(3), sim_l3);
  // One shared binary-SCF scenario: copies share the lazily-run SCF.
  const scen::scenario dwd = scen::dwd();
  expect_shape("dwd L2 cluster (local_optimization on)",
               cluster_shape(dwd, 2, true), cluster_l2);
  expect_shape("dwd L2 cluster (local_optimization off)",
               cluster_shape(dwd, 2, false), cluster_l2_serialized);
  expect_shape("rotating_star L3 cluster",
               cluster_shape(scen::rotating_star(), 3, true), cluster_l3);
}

TEST_F(RaceAuditSim, StepModeOptionThrowsOnBrokenGraphViaSimOptions) {
  // sim_options::audit_races wiring: a clean tree must not throw (already
  // covered above) and the option must be off for barrier mode.
  app::sim_options opt = dataflow_options();
  opt.mode = app::step_mode::barrier;
  auto sc = scen::rotating_star();
  app::simulation sim(sc, opt);
  sim.initialize();
  EXPECT_NO_THROW(sim.step());  // auditing is a dataflow-mode concept
}

}  // namespace
}  // namespace octo::apex
