#include "app/step_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "amt/channel.hpp"
#include "amt/future.hpp"
#include "apex/apex.hpp"
#include "apex/dag.hpp"
#include "apex/trace.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"

namespace octo::app {

using grid::subgrid;

step_mode default_step_mode() {
  static const step_mode mode = [] {
    const auto v = config::env("OCTO_STEP_MODE");
    return (v && *v == "dataflow") ? step_mode::dataflow : step_mode::barrier;
  }();
  return mode;
}

bool default_audit_races() {
  static const bool on = [] {
    const auto v = config::env("OCTO_RACE_AUDIT");
    return v && *v != "0";
  }();
  return on;
}

namespace {
/// APEX phase timers for the barrier schedule (registered once; see
/// apex/apex.hpp).
struct phase_timers {
  apex::metric_id exchange = apex::registry::instance().timer("app.exchange_ghosts");
  apex::metric_id gravity = apex::registry::instance().timer("app.solve_gravity");
  apex::metric_id hydro = apex::registry::instance().timer("app.hydro_stage");
};
phase_timers& timers() {
  static phase_timers t;
  return t;
}
}  // namespace

template <typename F>
void step_engine::each_task(const std::vector<index_t>& ids, F fn) {
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  futs.reserve(ids.size());
  for (const index_t n : ids)
    futs.push_back(amt::async([&fn, n] { fn(n); }, rt));
  amt::get_all(futs, rt);
}

// ---------------------------------------------------------------------------
// mesh setup and accessors
// ---------------------------------------------------------------------------

void step_engine::build_mesh(std::unique_ptr<tree::topology> topo) {
  topo_ = std::move(topo);
  grav_ = std::make_unique<gravity::fmm_solver>(*topo_, sim_opts().gravity);
  grids_.clear();
  grids_.reserve(static_cast<std::size_t>(topo_->num_nodes()));
  for (index_t n = 0; n < topo_->num_nodes(); ++n)
    grids_.emplace_back(topo_->center(n), topo_->cell_width(n));
  rebuild_leaf_slots();
}

void step_engine::rebuild_leaf_slots() {
  const auto nn = static_cast<std::size_t>(topo_->num_nodes());
  const auto& leaves = topo_->leaves();
  leaf_slot_.assign(nn, -1);
  stage0_.clear();
  stage0_.reserve(leaves.size());
  for (std::size_t s = 0; s < leaves.size(); ++s) {
    leaf_slot_[static_cast<std::size_t>(leaves[s])] = static_cast<index_t>(s);
    stage0_.emplace_back(topo_->center(leaves[s]),
                         topo_->cell_width(leaves[s]));
  }
  leaves_by_level_.assign(static_cast<std::size_t>(topo_->max_depth()) + 1,
                          {});
  for (const index_t l : leaves)
    leaves_by_level_[static_cast<std::size_t>(topo_->node(l).level)]
        .push_back(l);
  phosts_.assign(nn, {});
  pclients_.assign(nn, {});
  for (const index_t l : leaves) {
    const auto& nd = topo_->node(l);
    for (int d = 0; d < NNEIGHBOR; ++d) {
      if (nd.neighbors[d] != tree::invalid_node) continue;
      const index_t host = topo_->neighbor_or_coarser(l, d);
      if (host == tree::invalid_node) continue;  // domain boundary
      auto& hs = phosts_[static_cast<std::size_t>(l)];
      if (std::find(hs.begin(), hs.end(), host) == hs.end()) {
        hs.push_back(host);
        pclients_[static_cast<std::size_t>(host)].push_back(l);
      }
    }
  }
  cfl_slots_.assign(leaves.size(), 0);
}

void step_engine::fill_initial_data(const scen::scenario& sc) {
  // One-time scenario preparation (e.g. the SCF solve) runs on this
  // thread, outside the task pool (see scenario::prepare).
  if (sc.prepare) sc.prepare();
  each_task(topo_->leaves(), [this, &sc](index_t l) { sc.init(grids_[l]); });
}

grid::subgrid& step_engine::leaf(index_t node) {
  OCTO_ASSERT(topo_->node(node).leaf);
  return grids_[node];
}

const grid::subgrid& step_engine::leaf(index_t node) const {
  OCTO_ASSERT(topo_->node(node).leaf);
  return grids_[node];
}

ledger step_engine::measure() const {
  ledger lg;
  for (const index_t l : topo_->leaves()) {
    const auto t = hydro::measure(grids_[l]);
    lg.mass += t.mass;
    lg.momentum += t.momentum;
    lg.ang_momentum += t.ang_momentum;
    lg.gas_energy += t.energy;
  }
  if (sim_opts().self_gravity) lg.pot_energy = grav_->potential_energy();
  return lg;
}

// ---------------------------------------------------------------------------
// per-node step kernels
// ---------------------------------------------------------------------------

void step_engine::save_stage0(index_t leaf) {
  stage0_[leaf_slot_[leaf]] = grids_[leaf];
}

void step_engine::hydro_leaf(index_t leaf, real dt, real ca, real cb) {
  const apex::scoped_trace_span span("app.hydro.leaf");
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[leaf]));
#if OCTO_EOS_GUARDS
  hydro::eos_guard().leaf = static_cast<long>(leaf);
#endif
  const hydro::hydro_options& opt = sim_opts().hydro;
  static thread_local hydro::workspace ws;
  static thread_local std::vector<real> dudt;
  dudt.assign(static_cast<std::size_t>(hydro::dudt_size), 0);
  subgrid& u = grids_[leaf];
  hydro::flux_divergence(u, opt, ws, dudt);
  if (sim_opts().self_gravity) {
    hydro::add_sources(u, opt, grav_->gx(leaf).data(), grav_->gy(leaf).data(),
                       grav_->gz(leaf).data(), dudt);
  } else {
    hydro::add_sources(u, opt, nullptr, nullptr, nullptr, dudt);
  }
  hydro::apply_dudt(u, dudt, dt);
  if (cb != 1) hydro::stage_blend(u, stage0_[leaf_slot_[leaf]], ca, cb);
  hydro::apply_floors_and_sync_tau(u, opt.gas);
}

void step_engine::restrict_node(index_t node) {
  const apex::scoped_trace_span span("app.exchange.restrict");
  const auto& nd = topo_->node(node);
  for (int oct = 0; oct < NCHILD; ++oct)
    grid::restrict_to_coarse(grids_[nd.children[oct]], oct, grids_[node]);
}

void step_engine::copy_ghosts(index_t node) {
  const apex::scoped_trace_span span("app.exchange.copy");
  const bool leaf = topo_->node(node).leaf;
  const apex::cost_scope cost(
      leaf ? cost_model_ptr() : nullptr,
      leaf ? static_cast<std::size_t>(leaf_slot_[node]) : 0);
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const index_t nb = topo_->neighbor(node, d);
    if (nb != tree::invalid_node) {
      if (!exchanged_pair(node, nb))
        grids_[node].copy_ghost_direct(d, grids_[nb]);
    } else if (!tree::code_neighbor(topo_->node(node).code,
                                    tree::directions()[d])) {
      grids_[node].fill_ghost_outflow(d);
    }
    // else: coarser neighbor, filled by prolong_leaf.
  }
}

void step_engine::prolong_leaf(index_t leaf) {
  const apex::scoped_trace_span span("app.exchange.prolong");
  const auto& nd = topo_->node(leaf);
  for (int d = 0; d < NNEIGHBOR; ++d) {
    if (nd.neighbors[d] != tree::invalid_node) continue;
    const index_t host = topo_->neighbor_or_coarser(leaf, d);
    if (host == tree::invalid_node) continue;  // domain boundary
    grid::fill_ghost_from_coarse(grids_[leaf], tree::code_coords(nd.code), d,
                                 grids_[host],
                                 tree::code_coords(topo_->node(host).code));
  }
}

void step_engine::set_density(index_t leaf) {
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[leaf]));
  grav_->set_leaf_from_subgrid(leaf, grids_[leaf]);
}

void step_engine::store_leaf_signal(std::size_t i) {
  const index_t l = topo_->leaves()[i];
  cfl_slots_[i] = hydro::max_signal_speed(grids_[l], sim_opts().hydro) /
                  topo_->cell_width(l);
}

real step_engine::reduce_dt() const {
  real vmax = 0;
  for (const real v : cfl_slots_) vmax = std::max(vmax, v);
  OCTO_CHECK_MSG(vmax > 0, "zero signal speed — uninitialized state?");
  return sim_opts().cfl / vmax;
}

apex::access_set step_engine::hydro_footprint(index_t leaf) const {
  apex::access_set fp;
  fp.w(apex::rgn::field, leaf)
      .r(apex::rgn::ghost, leaf)
      .r(apex::rgn::stage0, leaf);
  if (sim_opts().self_gravity) fp.r(apex::rgn::gout, leaf);
  return fp;
}

apex::access_set step_engine::restrict_footprint(index_t node) const {
  apex::access_set fp;
  fp.w(apex::rgn::field, node);
  for (const index_t ch : topo_->node(node).children)
    fp.r(apex::rgn::field, ch);
  return fp;
}

apex::access_set step_engine::copy_footprint(index_t node) const {
  apex::access_set fp;
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const index_t nb = topo_->neighbor(node, d);
    if (nb != tree::invalid_node) {
      if (!exchanged_pair(node, nb))
        fp.r(apex::rgn::field, nb).w(apex::rgn::ghost, node, d);
    } else if (!tree::code_neighbor(topo_->node(node).code,
                                    tree::directions()[d])) {
      // The outflow fill reads the node's own interior.
      fp.r(apex::rgn::field, node).w(apex::rgn::ghost, node, d);
    }
  }
  return fp;
}

apex::access_set step_engine::prolong_footprint(index_t leaf) const {
  apex::access_set fp;
  for (const index_t h : phosts_[static_cast<std::size_t>(leaf)])
    fp.r(apex::rgn::field, h).r(apex::rgn::ghost, h);
  for (int d = 0; d < NNEIGHBOR; ++d) {
    if (topo_->node(leaf).neighbors[d] != tree::invalid_node) continue;
    if (topo_->neighbor_or_coarser(leaf, d) != tree::invalid_node)
      fp.w(apex::rgn::ghost, leaf, d);
  }
  return fp;
}

// ---------------------------------------------------------------------------
// barrier schedule
// ---------------------------------------------------------------------------

void step_engine::exchange_ghosts() {
  const apex::scoped_timer apex_t(timers().exchange);
  const apex::scoped_trace_span trace_span("app.exchange_ghosts");
  const stopwatch phase_watch;

  // Phase 1: restrict into interior sub-grids, deepest level first.
  for (int lvl = topo_->max_depth() - 1; lvl >= 0; --lvl) {
    std::vector<index_t> interior;
    for (const index_t n : topo_->nodes_at_level(lvl))
      if (!topo_->node(n).leaf) interior.push_back(n);
    each_task(interior, [this](index_t n) { restrict_node(n); });
  }

  // Phase 2: same-level direct copies and physical boundaries, for every
  // node.  Interior sub-grids are filled too: their owned cells (from the
  // phase-1 restriction) serve as same-level ghost sources for leaves
  // adjacent to refined regions.  Leaf-leaf faces the driver exchanges
  // itself follow.
  std::vector<index_t> all(static_cast<std::size_t>(topo_->num_nodes()));
  for (index_t n = 0; n < topo_->num_nodes(); ++n)
    all[static_cast<std::size_t>(n)] = n;
  each_task(all, [this](index_t n) { copy_ghosts(n); });
  exchange_leaf_pairs();

  // Phase 3: coarse-to-fine prolongation, coarsest target level first.
  for (const auto& level : leaves_by_level_)
    each_task(level, [this](index_t l) { prolong_leaf(l); });
  phase_exchange_s_ += phase_watch.seconds();
}

void step_engine::solve_gravity() {
  const apex::scoped_timer apex_t(timers().gravity);
  const apex::scoped_trace_span trace_span("app.solve_gravity");
  const stopwatch phase_watch;
  for (const index_t l : topo_->leaves()) set_density(l);
  grav_->solve(space_);
  phase_gravity_s_ += phase_watch.seconds();
}

void step_engine::hydro_stage(real dt, real ca, real cb) {
  const apex::scoped_timer apex_t(timers().hydro);
  const apex::scoped_trace_span trace_span("app.hydro_stage");
  const stopwatch phase_watch;
  each_task(topo_->leaves(),
            [this, dt, ca, cb](index_t l) { hydro_leaf(l, dt, ca, cb); });
  phase_hydro_s_ += phase_watch.seconds();
}

real step_engine::compute_dt() {
  each_task(topo_->leaves(), [this](index_t l) {
    store_leaf_signal(static_cast<std::size_t>(leaf_slot_[l]));
  });
  return reduce_dt();
}

void step_engine::step_barrier(real dt) {
  each_task(topo_->leaves(), [this](index_t l) { save_stage0(l); });
  for (int s = 0; s < rk3_stages; ++s) {
    hydro_stage(dt, rk3_ca[s], rk3_cb[s]);
    exchange_ghosts();
    if (sim_opts().self_gravity) solve_gravity();
  }
}

void step_engine::rederive() {
  exchange_ghosts();
  if (sim_opts().self_gravity) solve_gravity();
  dt_ = sim_opts().fixed_dt > 0 ? sim_opts().fixed_dt : compute_dt();
}

// ---------------------------------------------------------------------------
// dataflow schedule
// ---------------------------------------------------------------------------

void step_engine::step_graph(real dt) {
  using sf = amt::shared_future<void>;
  auto& rt = space_.runtime();
  const sim_options& o = sim_opts();
  const auto nn = static_cast<std::size_t>(topo_->num_nodes());
  const auto& leaves = topo_->leaves();
  // Exchanged leaf-leaf faces leave the copy kernel for per-leaf send and
  // per-link unpack tasks (link = leaf slot x 26 + direction).
  const std::size_t nlinks = leaves.size() * NNEIGHBOR;
  const auto link_of = [this](index_t l, int d) {
    return static_cast<std::size_t>(leaf_slot_[l] * NNEIGHBOR + d);
  };

  // Failure latch: the first task that resolves with an exception runs the
  // driver's failure hook (the cluster closes every channel, so arrivals
  // whose message will now never be sent resolve with broken_channel and
  // the drain below cannot hang).
  struct failure_latch {
    std::atomic<bool> fired{false};
    std::function<void()> on_failure;
  };
  std::shared_ptr<failure_latch> latch;
  if (auto hook = leaf_pair_failure_hook()) {
    latch = std::make_shared<failure_latch>();
    latch->on_failure = std::move(hook);
  }

  std::vector<sf> all;  // every task in build order: the deterministic drain
  all.reserve(nn * 24);
  const auto track = [&all, &latch](sf f) {
    if (latch)
      f.state()->add_continuation([latch, st = f.state()] {
        if (st->has_exception() && !latch->fired.exchange(true))
          latch->on_failure();
      });
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
  std::vector<sf> prevH(nn), prevR(nn), prevC(nn), prevP(nn), prevD(nn),
      prevSend(nn);
  std::vector<sf> prevUnp(nlinks);
  gravity::fmm_solver::solve_graph gprev;
  bool have_gprev = false;

  for (int s = 0; s < rk3_stages; ++s) {
    const real ca = rk3_ca[s], cb = rk3_cb[s];
    std::vector<sf> H(nn), R(nn), C(nn), P(nn), D(nn), SEND(nn);
    std::vector<sf> UNP(nlinks);
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
        if (o.self_gravity) deps.push_back(gprev.leaf_out[li]);
        for (int d = 0; d < NNEIGHBOR; ++d) {
          const index_t nb = topo_->neighbor(l, d);
          if (nb == tree::invalid_node) continue;
          if (exchanged_pair(l, nb)) {
            // Own exchanged ghosts arrived and unpacked last stage.
            deps.push_back(prevUnp[link_of(l, d)]);
          } else {
            // WAR: last stage's copy into the neighbor read our cells.
            deps.push_back(prevC[static_cast<std::size_t>(nb)]);
          }
        }
        if (prevSend[li].valid()) deps.push_back(prevSend[li]);
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
        if (nb != tree::invalid_node && !exchanged_pair(n, nb))
          deps.push_back(content(nb));
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

    // Senders: one task per leaf with exchanged faces.  The edge on the
    // previous stage's send keeps every link's FIFO aligned with stage
    // order — without it a fast stage-s send could pair with the
    // receiver's stage s-1 receive.
    for (const index_t l : leaves) {
      const auto li = static_cast<std::size_t>(l);
      bool linked = false;
      for (int d = 0; d < NNEIGHBOR && !linked; ++d) {
        const index_t nb = topo_->neighbor(l, d);
        linked = nb != tree::invalid_node && exchanged_pair(l, nb);
      }
      if (!linked) continue;
      std::vector<sf> deps;
      deps.push_back(H[li]);
      if (prevSend[li].valid()) deps.push_back(prevSend[li]);
      SEND[li] = track(amt::dataflow(
          "send", apex::access_set{}.r(apex::rgn::field, l),
          [this, l] { send_leaf_pairs(l); }, std::move(deps), rt));
    }

    // Receivers: the arrival resolves a per-link future, and the unpack
    // task fires on {arrival, WAR edges} — no exchange barrier.  Receives
    // are issued in stage order here, matching the per-link FIFO.  The
    // unpack reads only the arrived bytes, so its footprint is the
    // ghost-face write.
    for (const index_t l : leaves) {
      const auto li = static_cast<std::size_t>(l);
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_->neighbor(l, d);
        if (nb == tree::invalid_node || !exchanged_pair(l, nb)) continue;
        const std::size_t link = link_of(l, d);
        leaf_pair_receive rx = receive_leaf_pair(l, d);
        std::vector<sf> deps;
        deps.push_back(std::move(rx.arrival));
        deps.push_back(H[li]);  // WAR: hydro read this ghost face
        if (s > 0) {
          if (prevUnp[link].valid()) deps.push_back(prevUnp[link]);
          for (const index_t f : pclients_[li])
            deps.push_back(prevP[static_cast<std::size_t>(f)]);
        }
        UNP[link] = track(amt::dataflow(
            "unpack", apex::access_set{}.w(apex::rgn::ghost, l, d),
            std::move(rx.unpack), std::move(deps), rt));
      }
    }

    // Coarse-to-fine prolongation: per fine leaf, gated on its hosts'
    // complete state (owned cells, copied and unpacked ghosts, and the
    // host's own coarse faces; ascending level order makes host P edges
    // exist).
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
          for (int d = 0; d < NNEIGHBOR; ++d) {
            const index_t hnb = topo_->neighbor(h, d);
            if (hnb != tree::invalid_node && exchanged_pair(h, hnb))
              deps.push_back(UNP[link_of(h, d)]);
          }
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
    if (o.self_gravity) {
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
      for (const auto& t : g.tasks) track(t);
      gprev = std::move(g);
      have_gprev = true;
    }

    prevH = std::move(H);
    prevR = std::move(R);
    prevC = std::move(C);
    prevP = std::move(P);
    prevD = std::move(D);
    prevSend = std::move(SEND);
    prevUnp = std::move(UNP);
  }

  // dt reduction: per-leaf signal speeds fire as each leaf's final state
  // settles; the serial max-reduce runs after the drain.
  if (o.fixed_dt <= 0) {
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const index_t l = leaves[i];
      const auto li = static_cast<std::size_t>(l);
      std::vector<sf> deps;
      deps.push_back(prevH[li]);
      deps.push_back(prevC[li]);
      if (prevP[li].valid()) deps.push_back(prevP[li]);
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_->neighbor(l, d);
        if (nb != tree::invalid_node && exchanged_pair(l, nb))
          deps.push_back(prevUnp[link_of(l, d)]);
      }
      track(amt::dataflow(
          "dt-reduce",
          apex::access_set{}
              .r(apex::rgn::field, l)
              .r(apex::rgn::ghost, l)
              .w(apex::rgn::dtred, static_cast<index_t>(i)),
          [this, i] { store_leaf_signal(i); }, std::move(deps), rt));
    }
  }

  // The step's only global join: drain every task (the failure latch
  // guarantees arrivals resolve), then surface the first error in build
  // order — preferring a real failure (checksum, transport) over the
  // broken_channel cascade the latch's channel close produced.
  for (const auto& f : all) f.wait(rt);
  std::exception_ptr first, first_real;
  for (const auto& f : all) {
    const std::exception_ptr e = amt::detail::stored_exception(f.state());
    if (!e) continue;
    if (!first) first = e;
    if (!first_real) {
      try {
        std::rethrow_exception(e);
      } catch (const amt::broken_channel&) {
      } catch (...) {
        first_real = e;
      }
    }
  }
  leaf_pairs_drained(first != nullptr);
  if (first) std::rethrow_exception(first_real ? first_real : first);
}

// ---------------------------------------------------------------------------
// one contained step
// ---------------------------------------------------------------------------

void step_engine::run_schedule(real dt) {
  const sim_options& o = sim_opts();
  if (o.mode == step_mode::barrier) {
    step_barrier(dt);
    if (o.fixed_dt <= 0) dt_ = compute_dt();
    return;
  }
  // Record the step's task graph only when someone is observing (a trace
  // sink, a metrics sink, or the race auditor): dataflow's hot path stays
  // one relaxed load otherwise.
  const bool record_dag =
      apex::trace::enabled() || metrics_ != nullptr || o.audit_races;
  if (record_dag) apex::dag_recorder::instance().begin_step();
  try {
    step_graph(dt);
  } catch (...) {
    // step_graph drained the graph before rethrowing; the partial
    // recording is worthless — discard it.
    if (record_dag) (void)apex::dag_recorder::instance().end_step();
    throw;
  }
  if (record_dag) {
    const apex::graph_profile graph = apex::dag_recorder::instance().end_step();
    if (o.audit_races) apex::audit_step_or_throw(graph);
    last_crit_ = apex::analyze_critical_path(graph);
    apex::export_critical_path_counters(last_crit_);
    have_crit_ = true;
  }
  if (o.fixed_dt <= 0) dt_ = reduce_dt();
}

void step_engine::step_attempt(real dt) {
  phase_exchange_s_ = phase_gravity_s_ = phase_hydro_s_ = 0;
  // Injection + pre-read verification: any at-rest flip since the last
  // step's seals — injected or real — trips here, before the state is read.
  sdc_apply_bitflips(steps_ + 1);
  if (auditor_.enabled()) {
    const apex::scoped_timer audit_t(sdc_metrics().audit_timer);
    sdc_verify_all();
  }

  run_schedule(dt);

  // Post-step audit (invariants at cadence) and fresh seals over the
  // evolved state — the seals must be retaken last, after every detector
  // has passed, so a failed attempt leaves the pre-step seals intact.
  if (auditor_.enabled()) {
    const apex::scoped_timer audit_t(sdc_metrics().audit_timer);
    sdc_audit_and_seal(dt_, steps_ + 1);
    ++sdc_audits_;
    apex::registry::instance().add(sdc_metrics().audits);
  }
}

bool step_engine::contained_step(real dt) {
  have_crit_ = false;
  if (!auditor_.enabled()) {
    step_attempt(dt);
    return false;
  }
  const sdc_snapshot snap = sdc_take_snapshot();
  const std::function<void()> extras = save_retry_extras();
  try {
    step_attempt(dt);
    return false;
  } catch (const sdc_detected&) {
    ++sdc_detected_;
    sdc_retry(snap, extras, dt);
    return true;
  }
}

void step_engine::sdc_retry(const sdc_snapshot& snap,
                            const std::function<void()>& extras, real dt) {
  ++sdc_retries_;
  apex::registry::instance().add(sdc_metrics().retries);
  try {
    // Transient-error path: restore the in-memory pre-step snapshot and
    // re-execute.  A deterministic second execution must agree bitwise
    // (dual-execution compare-vote) before the retry is trusted.
    sdc_restore(snap, extras);
    step_attempt(dt);
    const std::uint64_t ballot_a = sdc_state_signature();
    sdc_restore(snap, extras);
    step_attempt(dt);
    if (sdc_state_signature() != ballot_a)
      throw sdc_detected(
          "dual-execution compare-vote mismatch on retry — the two "
          "re-executions disagree, escalating to checkpoint rollback");
  } catch (const sdc_detected&) {
    // The audit tripped again (or the vote failed): escalate to the
    // checkpoint-rollback driver.
    ++sdc_rollbacks_;
    apex::registry::instance().add(sdc_metrics().rollbacks);
    throw;
  }
}

void step_engine::restore_clock(real time, std::int64_t step) {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  time_ = time;
  steps_ = static_cast<int>(step);
  // Derived state is not checkpointed: rebuild ghosts and gravity from the
  // restored fields, then recompute dt — bitwise identical to what the
  // uninterrupted run carried at this point.
  rederive();
  // The restored fields are the trusted state now: retake the seals (the
  // old ones described the pre-rollback state) and restart the drift
  // history's warmup.  The containment retry re-restores its own history
  // on top of this.
  reseal();
}

void step_engine::arm_auditor() {
  auditor_ = invariant_auditor(sim_opts().audit);
  sdc_audits_ = sdc_detected_ = sdc_retries_ = sdc_rollbacks_ = 0;
  if (auditor_.enabled()) {
    auditor_.resize(topo_->num_nodes());
    sdc_seal_all();
  }
}

void step_engine::reseal() {
  if (!auditor_.enabled()) return;
  auditor_.reset_history();
  sdc_seal_all();
}

apex::step_record step_engine::base_step_record(
    real dt, double step_seconds, const amt::runtime_stats& stats0) const {
  // In dataflow mode phases overlap, so the per-phase columns stay 0 and
  // idle_fraction carries the scheduler-utilization comparison instead.
  // After a retried step the phase columns describe the final attempt.
  apex::step_record rec;
  rec.step = steps_;
  rec.time = static_cast<double>(time_);
  rec.dt = static_cast<double>(dt);
  rec.step_seconds = step_seconds;
  rec.exchange_seconds = phase_exchange_s_;
  rec.gravity_seconds = phase_gravity_s_;
  rec.hydro_seconds = phase_hydro_s_;
  rec.subgrids = static_cast<std::uint64_t>(topo_->num_leaves());
  rec.cells = static_cast<std::uint64_t>(topo_->num_cells());
  const amt::runtime_stats stats1 = space_.runtime().stats();
  const double busy_ns = step_seconds * 1e9 * space_.runtime().concurrency();
  if (busy_ns > 0)
    rec.idle_fraction =
        static_cast<double>(stats1.idle_ns - stats0.idle_ns) / busy_ns;
  if (have_crit_) {
    rec.crit_path_us = static_cast<double>(last_crit_.length_ns) / 1e3;
    rec.crit_path_frac = last_crit_.crit_path_frac();
    rec.imbalance = last_crit_.imbalance;
  }
  rec.sdc_audits = sdc_audits_;
  rec.sdc_detected = sdc_detected_;
  rec.sdc_retries = sdc_retries_;
  rec.sdc_rollbacks = sdc_rollbacks_;
  return rec;
}

void step_engine::emit_step_record(apex::step_record rec) {
  rec.finalize();
  last_metrics_ = rec;
  if (metrics_ != nullptr) metrics_->emit(rec);
}

// ---------------------------------------------------------------------------
// SDC containment (see app/invariants.hpp for the detection model)
// ---------------------------------------------------------------------------

void step_engine::sdc_seal_all() {
  each_task(topo_->leaves(),
            [this](index_t l) { auditor_.seal_leaf(l, grids_[l]); });
  if (sim_opts().self_gravity) auditor_.seal_moments(grav_->moments_crc());
}

void step_engine::sdc_verify_all() {
  // each_task joins with get_all: a seal mismatch surfaces as sdc_detected.
  each_task(topo_->leaves(),
            [this](index_t l) { auditor_.verify_leaf(l, grids_[l]); });
  if (sim_opts().self_gravity && auditor_.moments_sealed())
    auditor_.verify_moments(grav_->moments_crc());
}

void step_engine::sdc_apply_bitflips(std::int64_t step) {
  auto& inj = fault::injector::instance();
  if (!inj.armed()) return;
  const auto& leaves = topo_->leaves();
  // Resolve a plan's (loc, leaf) to a concrete node: leaf index modulo the
  // target locality's owned-leaf count, so the spec stays valid across
  // partition changes (rebalance / shrink-on-failure).
  const auto pick_leaf = [&](const fault::bitflip_plan& p) {
    const int loc = static_cast<int>(
        p.loc % static_cast<std::uint64_t>(owner_count()));
    std::vector<index_t> owned;
    for (const index_t l : leaves)
      if (owner_of(l) == loc) owned.push_back(l);
    const auto& pool = owned.empty() ? leaves : owned;
    return pool[static_cast<std::size_t>(p.leaf % pool.size())];
  };
  fault::bitflip_plan plan;
  if (inj.state_bitflip_hook(static_cast<std::uint64_t>(step), &plan)) {
    const index_t l = pick_leaf(plan);
    apply_state_bitflip(grids_[l], plan.field, plan.cell, plan.bit);
    OCTO_LOG_WARN("fault: injected state bitflip at step "
                  << step << " locality " << owner_of(l) << " leaf " << l
                  << " field "
                  << plan.field % static_cast<std::uint64_t>(grid::NFIELD)
                  << " bit " << plan.bit % 64);
  }
  if (inj.moment_bitflip_hook(static_cast<std::uint64_t>(step), &plan) &&
      sim_opts().self_gravity) {
    const index_t l = pick_leaf(plan);
    grav_->apply_moment_bitflip(l, plan.field, plan.cell, plan.bit);
    OCTO_LOG_WARN("fault: injected moment bitflip at step " << step
                                                            << " node " << l);
  }
}

sdc_snapshot step_engine::sdc_take_snapshot() const {
  sdc_snapshot snap;
  const auto& leaves = topo_->leaves();
  snap.nodes.assign(leaves.begin(), leaves.end());
  snap.data.reserve(leaves.size());
  for (const index_t l : leaves) snap.data.push_back(grids_[l].raw());
  snap.time = time_;
  snap.dt = dt_;
  snap.steps = steps_;
  snap.history = auditor_.save_history();
  return snap;
}

void step_engine::sdc_restore(const sdc_snapshot& snap,
                              const std::function<void()>& extras) {
  for (std::size_t i = 0; i < snap.nodes.size(); ++i)
    grids_[snap.nodes[i]].raw() = snap.data[i];
  // Re-exchange ghosts, re-solve gravity and recompute dt from the restored
  // fields — bitwise identical to the pre-attempt state, so the clean
  // re-execution matches the original seals exactly — then roll back what
  // the driver asked for (a retried step counts its slabs once).
  restore_clock(snap.time, snap.steps);
  if (extras) extras();
  dt_ = snap.dt;
  auditor_.restore_history(snap.history);
}

std::uint64_t step_engine::sdc_state_signature() const {
  // FNV-style fold over the per-leaf seals in leaf order, plus the moment
  // seal and the next dt — the dual-execution vote's ballot.
  std::uint64_t sig = 1469598103934665603ull;
  const auto fold = [&sig](std::uint64_t v) {
    sig = (sig ^ v) * 1099511628211ull;
  };
  for (const index_t l : topo_->leaves()) fold(auditor_.seal_of(l));
  if (auditor_.moments_sealed()) fold(auditor_.moment_seal());
  std::uint64_t dt_bits = 0;
  static_assert(sizeof(real) == sizeof(dt_bits), "real must be 64-bit");
  std::memcpy(&dt_bits, &dt_, sizeof(dt_bits));
  fold(dt_bits);
  return sig;
}

void step_engine::sdc_audit_and_seal(real dt_next, std::int64_t step) {
  // NaN/Inf + positivity scans and the conservation/CFL audit run at
  // cadence; the seals are retaken every step (a stale seal cannot verify
  // legitimately evolved state).
  if (auditor_.invariants_due(step)) {
    each_task(topo_->leaves(),
              [this](index_t l) { auditor_.audit_leaf(l, grids_[l]); });
    auditor_.audit_step(measure(), dt_next, step);
  }
  sdc_seal_all();
}

}  // namespace octo::app
