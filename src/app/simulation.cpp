#include "app/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace octo::app {

simulation::simulation(const scen::scenario& sc, sim_options opt,
                       exec::amt_space space)
    : step_engine(space), scenario_(sc), opt_(opt) {}

void simulation::initialize() {
  opt_.hydro.omega = scenario_.omega;
  build_mesh(std::make_unique<tree::topology>(scenario_.domain_half,
                                              opt_.max_level,
                                              scenario_.refine));
  cost_model_.reset(opt_.measure_leaf_costs ? topo_->leaves().size() : 0);
  fill_initial_data(scenario_);
  rederive();
  initialized_ = true;
  // Arm the SDC auditor: seal the initial state so the very first step can
  // already verify it was read back uncorrupted.
  arm_auditor();
}

namespace {
/// APEX step timers (registered once; see apex/apex.hpp).
struct step_timers {
  apex::metric_id step = apex::registry::instance().timer("app.step");
  apex::metric_id steps_counter = apex::registry::instance().counter("app.steps");
};
step_timers& timers() {
  static step_timers t;
  return t;
}
}  // namespace

real simulation::step() {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  const apex::scoped_timer apex_t(timers().step);
  const apex::scoped_trace_span trace_span(opt_.mode == step_mode::dataflow
                                               ? "app.step.dataflow"
                                               : "app.step");
  apex::registry::instance().add(timers().steps_counter);
  if (cost_model_.active()) cost_model_.begin_step();
  const real dt = dt_;
  const stopwatch step_watch;
  const amt::runtime_stats stats0 = space_.runtime().stats();

  contained_step(dt);

  time_ += dt;
  ++steps_;
  if (cost_model_.active()) cost_model_.end_step();

  // Structured per-step observability record (the paper's headline
  // "processed sub-grid cells per second" plus the per-phase breakdown).
  emit_step_record(base_step_record(dt, step_watch.seconds(), stats0));
  return dt;
}

bool simulation::regrid() {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");

  // Snapshot old-leaf geometry and peak density.
  struct leaf_info {
    rvec3 center;
    real hw;
    real max_rho;
    code_t code;
  };
  std::vector<leaf_info> old_leaves;
  old_leaves.reserve(static_cast<std::size_t>(topo_->num_leaves()));
  for (const index_t l : topo_->leaves()) {
    leaf_info info;
    info.center = topo_->center(l);
    info.hw = topo_->node_half_width(l);
    info.code = topo_->node(l).code;
    info.max_rho = 0;
    const auto& u = grids_[l];
    for (int i = 0; i < grid::subgrid::N; ++i)
      for (int j = 0; j < grid::subgrid::N; ++j)
        for (int k = 0; k < grid::subgrid::N; ++k)
          info.max_rho = std::max(info.max_rho, u.at(grid::f_rho, i, j, k));
    old_leaves.push_back(info);
  }

  const real threshold = opt_.rho_refine;
  const auto refine = [&old_leaves, threshold](int, const rvec3& c,
                                               real hw) {
    for (const auto& ol : old_leaves) {
      if (ol.max_rho <= threshold) continue;
      // cube-cube overlap test
      bool overlap = true;
      for (int a = 0; a < 3; ++a)
        overlap = overlap && std::abs(c[a] - ol.center[a]) <= hw + ol.hw;
      if (overlap) return true;
    }
    return false;
  };

  auto new_topo = std::make_unique<tree::topology>(
      scenario_.domain_half, opt_.max_level, refine);

  // Unchanged topology: nothing to do.
  if (new_topo->num_leaves() == topo_->num_leaves()) {
    bool same = true;
    const auto& nl = new_topo->leaves();
    const auto& ol = topo_->leaves();
    for (std::size_t i = 0; i < nl.size() && same; ++i)
      same = new_topo->node(nl[i]).code == topo_->node(ol[i]).code;
    if (same) return false;
  }

  // Transfer state into the new tree's leaves.
  std::vector<grid::subgrid> new_grids;
  new_grids.reserve(static_cast<std::size_t>(new_topo->num_nodes()));
  for (index_t n = 0; n < new_topo->num_nodes(); ++n)
    new_grids.emplace_back(new_topo->center(n), new_topo->cell_width(n));

  for (const index_t nl : new_topo->leaves()) {
    const code_t code = new_topo->node(nl).code;
    const index_t old_same = topo_->find(code);
    if (old_same != tree::invalid_node) {
      // Same region existed (leaf or interior-with-restriction): copy
      // owned cells.  Interior sub-grids hold valid restrictions from the
      // last ghost exchange.
      new_grids[nl] = grids_[old_same];
      continue;
    }
    // New leaf is finer than the old tree there: walk down from the old
    // enclosing node, prolonging one octant level at a time.  Only the
    // final grid's geometry matters (prolongation touches values, not
    // coordinates).
    const index_t host = topo_->find_enclosing(code);
    OCTO_CHECK(host != tree::invalid_node);
    const int host_level = topo_->node(host).level;
    std::vector<int> path;  // octants, deepest first
    for (code_t c = code; tree::code_level(c) > host_level;
         c = tree::code_parent(c))
      path.push_back(tree::code_octant(c));
    grid::subgrid cur = grids_[host];
    for (int step = static_cast<int>(path.size()) - 1; step >= 0; --step) {
      grid::subgrid finer(new_topo->center(nl), new_topo->cell_width(nl));
      grid::prolong_from_coarse(cur, path[static_cast<std::size_t>(step)],
                                finer);
      cur = std::move(finer);
    }
    new_grids[nl] = std::move(cur);
  }

  // Swap in the new tree and rebuild the derived structures.
  topo_ = std::move(new_topo);
  grids_ = std::move(new_grids);
  grav_ = std::make_unique<gravity::fmm_solver>(*topo_, opt_.gravity);
  rebuild_leaf_slots();

  // Leaf slots changed identity: measured history no longer lines up.
  cost_model_.reset(opt_.measure_leaf_costs ? topo_->leaves().size() : 0);

  rederive();
  // Node identities changed: rebuild the seal store over the new topology
  // (the conservative transfer is the trusted state now).
  if (auditor_.enabled()) {
    auditor_.resize(topo_->num_nodes());
    sdc_seal_all();
  }
  return true;
}

}  // namespace octo::app
