#include "app/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "amt/future.hpp"
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

void simulation::step_graph(real dt) {
  using sf = amt::shared_future<void>;
  auto& rt = space_.runtime();
  const auto nn = static_cast<std::size_t>(topo_->num_nodes());
  const auto& leaves = topo_->leaves();

  std::vector<sf> all;  // every task in build order: the step's one join
  all.reserve(nn * 16);
  const auto track = [&all](sf f) {
    all.push_back(f);
    return f;
  };

  // u0 snapshot: per-leaf tasks (step entry is a resolved point, no deps).
  std::vector<sf> snap(nn);
  for (const index_t l : leaves)
    snap[static_cast<std::size_t>(l)] = track(amt::dataflow(
        "snapshot",
        apex::access_set{}.r(apex::rgn::field, l).w(apex::rgn::stage0, l),
        [this, l] { save_stage0(l); }, std::vector<sf>{}, rt));

  // Per-stage edges of the previous RK stage (WAR/WAW hazards).
  std::vector<sf> prevH(nn), prevR(nn), prevC(nn), prevP(nn), prevD(nn);
  gravity::fmm_solver::solve_graph gprev;
  bool have_gprev = false;

  for (int s = 0; s < 3; ++s) {
    const real ca = rk3_ca[s], cb = rk3_cb[s];
    std::vector<sf> H(nn), R(nn), C(nn), P(nn), D(nn);
    // content(n): the task that produced node n's owned cells this stage.
    const auto content = [&](index_t n) {
      return topo_->node(n).leaf ? H[static_cast<std::size_t>(n)]
                                 : R[static_cast<std::size_t>(n)];
    };

    // Hydro: each leaf fires on its *own* ghost-ready and gravity edges —
    // interior leaves run while boundary work elsewhere is still in flight.
    for (const index_t l : leaves) {
      const auto li = static_cast<std::size_t>(l);
      std::vector<sf> deps;
      if (s == 0) {
        deps.push_back(snap[li]);
      } else {
        deps.push_back(prevC[li]);  // own same-level ghosts filled
        if (prevP[li].valid()) deps.push_back(prevP[li]);  // coarse faces
        if (opt_.self_gravity) deps.push_back(gprev.leaf_out[li]);
        // WAR: last stage's readers of this leaf's owned cells.
        for (int d = 0; d < NNEIGHBOR; ++d) {
          const index_t nb = topo_->neighbor(l, d);
          if (nb != tree::invalid_node)
            deps.push_back(prevC[static_cast<std::size_t>(nb)]);
        }
        const index_t par = topo_->node(l).parent;
        if (par != tree::invalid_node)
          deps.push_back(prevR[static_cast<std::size_t>(par)]);
        for (const index_t f : pclients_[li])
          deps.push_back(prevP[static_cast<std::size_t>(f)]);
        if (prevD[li].valid()) deps.push_back(prevD[li]);
      }
      H[li] = track(amt::dataflow(
          "hydro-RK", hydro_footprint(l),
          [this, l, dt, ca, cb] { hydro_leaf(l, dt, ca, cb); },
          std::move(deps), rt));
    }

    // Restriction: parent-on-children dependencies replace the per-level
    // barrier of exchange_ghosts() phase 1.
    for (int lvl = topo_->max_depth() - 1; lvl >= 0; --lvl) {
      for (const index_t n : topo_->nodes_at_level(lvl)) {
        if (topo_->node(n).leaf) continue;
        const auto ni = static_cast<std::size_t>(n);
        std::vector<sf> deps;
        for (int oct = 0; oct < NCHILD; ++oct)
          deps.push_back(content(topo_->node(n).children[oct]));
        if (s > 0) {
          // WAR: last stage's readers of this node's owned restriction.
          deps.push_back(prevC[ni]);  // own outflow fill read the interior
          for (int d = 0; d < NNEIGHBOR; ++d) {
            const index_t nb = topo_->neighbor(n, d);
            if (nb != tree::invalid_node)
              deps.push_back(prevC[static_cast<std::size_t>(nb)]);
          }
          const index_t par = topo_->node(n).parent;
          if (par != tree::invalid_node)
            deps.push_back(prevR[static_cast<std::size_t>(par)]);
          for (const index_t f : pclients_[ni])
            deps.push_back(prevP[static_cast<std::size_t>(f)]);
        }
        R[ni] = track(amt::dataflow("restrict", restrict_footprint(n),
                                    [this, n] { restrict_node(n); },
                                    std::move(deps), rt));
      }
    }

    // Same-level ghost copies + outflow fills: fire per node when the
    // sources (neighbors' owned cells) are produced and this node's ghosts
    // are no longer being read.
    for (index_t n = 0; n < topo_->num_nodes(); ++n) {
      const auto ni = static_cast<std::size_t>(n);
      std::vector<sf> deps;
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_->neighbor(n, d);
        if (nb != tree::invalid_node) deps.push_back(content(nb));
      }
      if (topo_->node(n).leaf)
        deps.push_back(H[ni]);  // WAR: hydro read these ghosts
      else
        deps.push_back(R[ni]);  // RAW: outflow reads the restricted interior
      if (s > 0) {
        if (prevC[ni].valid()) deps.push_back(prevC[ni]);  // WAW
        for (const index_t f : pclients_[ni])
          deps.push_back(prevP[static_cast<std::size_t>(f)]);  // WAR
      }
      C[ni] = track(amt::dataflow("copy", copy_footprint(n),
                                  [this, n] { copy_ghosts(n); },
                                  std::move(deps), rt));
    }

    // Coarse-to-fine prolongation: per fine leaf, gated on its hosts'
    // owned + ghost state (ascending level order makes host P edges exist).
    for (const auto& level : leaves_by_level_) {
      for (const index_t l : level) {
        const auto li = static_cast<std::size_t>(l);
        if (phosts_[li].empty()) continue;
        std::vector<sf> deps;
        deps.push_back(H[li]);  // WAR: hydro read these ghost faces
        for (const index_t h : phosts_[li]) {
          const auto hi = static_cast<std::size_t>(h);
          deps.push_back(content(h));
          deps.push_back(C[hi]);
          if (P[hi].valid()) deps.push_back(P[hi]);
        }
        if (s > 0)
          for (const index_t f : pclients_[li])
            deps.push_back(prevP[static_cast<std::size_t>(f)]);  // WAR
        P[li] = track(amt::dataflow("prolong", prolong_footprint(l),
                                    [this, l] { prolong_leaf(l); },
                                    std::move(deps), rt));
      }
    }

    // Gravity: per-leaf density refresh feeding the solver's task graph.
    if (opt_.self_gravity) {
      std::vector<sf> mom_ready(nn);
      for (const index_t l : leaves) {
        const auto li = static_cast<std::size_t>(l);
        std::vector<sf> deps;
        deps.push_back(H[li]);
        if (have_gprev) deps.push_back(gprev.mom_free[li]);
        D[li] = track(amt::dataflow(
            "set-density",
            apex::access_set{}.r(apex::rgn::field, l).w(apex::rgn::moment, l),
            [this, l] { set_density(l); }, std::move(deps), rt));
        mom_ready[li] = D[li];
      }
      gravity::fmm_solver::solve_graph g = grav_->solve_dataflow(
          space_, mom_ready, have_gprev ? &gprev : nullptr);
      for (const auto& t : g.tasks) all.push_back(t);
      gprev = std::move(g);
      have_gprev = true;
    }

    prevH = std::move(H);
    prevR = std::move(R);
    prevC = std::move(C);
    prevP = std::move(P);
    prevD = std::move(D);
  }

  // dt reduction: per-leaf signal speeds fire as each leaf's final state
  // settles; the serial max-reduce runs after the join.
  if (opt_.fixed_dt <= 0) {
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const auto li = static_cast<std::size_t>(leaves[i]);
      std::vector<sf> deps;
      deps.push_back(prevH[li]);
      deps.push_back(prevC[li]);
      if (prevP[li].valid()) deps.push_back(prevP[li]);
      all.push_back(sf(amt::dataflow(
          "dt-reduce",
          apex::access_set{}
              .r(apex::rgn::field, leaves[i])
              .r(apex::rgn::ghost, leaves[i])
              .w(apex::rgn::dtred, static_cast<index_t>(i)),
          [this, i] { store_leaf_signal(i); }, std::move(deps), rt)));
    }
  }

  // The step's only global join: drain the graph, surfacing the first
  // task error in deterministic build order.
  amt::get_all(all, rt);
}

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
