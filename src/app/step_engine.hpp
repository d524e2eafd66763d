#pragma once
/// \file step_engine.hpp
/// The step machinery app::simulation and dist::cluster share.
///
/// Both drivers evolve the same mesh state — an AMR octree whose every node
/// carries a sub-grid (leaves hold the evolved state, interior nodes the
/// conservative restriction of their children), RK3 stage-0 copies of the
/// leaves, and an FMM solver — with the same per-node kernels.  This base
/// class holds that state and writes each piece once:
///
///   * the per-node step kernels (hydro RK leaf update, restriction,
///     same-level copy/outflow fill, coarse-to-fine prolongation, density
///     refresh, per-leaf CFL signal and its reduction);
///   * the barrier schedule (step_barrier: every phase fanned out and
///     joined) and the re-derivation of ghosts/gravity/dt after a restore;
///   * the dataflow schedule (step_graph: the three RK stages as one
///     per-leaf dependency graph, drained once) and its DAG record ->
///     race-audit -> critical-path block;
///   * the SDC containment path (see app/invariants.hpp): snapshot, retry,
///     dual-execution vote and escalation; seal-all, verify-all,
///     audit-and-seal; the state signature and bit-flip application.
///
/// A driver supplies only what differs: the leaf-pair hooks — which
/// leaf-leaf ghost faces leave the copy kernel and how they travel (the
/// single process copies every face; the cluster copies same-locality
/// faces too when the §VII-B optimization is on, and sends, receives and
/// unpacks the rest through its channels, in both schedules) — the leaf
/// ownership fault injection resolves against, and the extra state a
/// retried step must roll back (the cluster's exchange statistics).

#include <functional>
#include <memory>
#include <vector>

#include "amt/future.hpp"
#include "amt/runtime.hpp"
#include "apex/cost_model.hpp"
#include "apex/critical_path.hpp"
#include "apex/metrics.hpp"
#include "apex/race_audit.hpp"
#include "app/invariants.hpp"
#include "common/types.hpp"
#include "exec/execution_space.hpp"
#include "gravity/solver.hpp"
#include "grid/subgrid.hpp"
#include "hydro/kernel.hpp"
#include "scenarios/scenarios.hpp"
#include "tree/topology.hpp"

namespace octo::app {

/// How a step executes its phases (the Fig. 9 ablation, kept as an A/B
/// toggle): `barrier` fan-out/joins every phase; `dataflow` builds one
/// per-leaf dependency graph whose only global join is the end-of-substep
/// dt reduction.  Both produce bitwise-identical state.
enum class step_mode { barrier, dataflow };

/// Default mode from the environment: OCTO_STEP_MODE=barrier|dataflow
/// (unset or unrecognized -> barrier).
step_mode default_step_mode();

/// Default for sim_options::audit_races: OCTO_RACE_AUDIT=1 (anything but
/// "0" enables when set).
bool default_audit_races();

struct sim_options {
  int max_level = 2;
  real cfl = real(0.4);
  bool self_gravity = true;
  hydro::hydro_options hydro{};
  gravity::gravity_options gravity{};
  /// Fixed time step; 0 = derive from the CFL condition, re-evaluated
  /// after every step (and after regrid/restore) so dt tracks the evolving
  /// signal speeds instead of staying frozen at its initialize() value.
  real fixed_dt = 0;
  /// Density threshold for dynamic regridding ("AMR is based on the
  /// density field", §IV-C): regrid() refines every region whose density
  /// exceeds this value, up to max_level.
  real rho_refine = real(1e-3);
  /// Step execution mode (see step_mode; default honors OCTO_STEP_MODE).
  step_mode mode = default_step_mode();
  /// Dataflow-mode race auditing (see apex/race_audit.hpp): record each
  /// step's task graph + declared footprints and verify every conflicting
  /// pair is happens-before ordered, throwing on the first unordered
  /// conflict.  No effect in barrier mode.  Default honors OCTO_RACE_AUDIT.
  bool audit_races = default_audit_races();
  /// Measure per-leaf hydro wall time into a leaf_cost_model (EWMA across
  /// steps) — the single-locality view of the cost signal dist::cluster's
  /// dynamic rebalancing partitions on.  Off: the per-task overhead is one
  /// null-pointer branch.
  bool measure_leaf_costs = false;
  /// Silent-data-corruption auditing (CRC32 leaf/moment seals every step,
  /// physics invariants at `audit.every` cadence) with automatic
  /// contain-and-retry; see app/invariants.hpp.  Defaults honor OCTO_AUDIT
  /// and OCTO_AUDIT_EVERY.
  audit_options audit{};
};

/// Global conserved quantities, including gravitational energy.
struct ledger {
  real mass = 0;
  rvec3 momentum{0, 0, 0};
  rvec3 ang_momentum{0, 0, 0};
  real gas_energy = 0;   ///< kinetic + internal
  real pot_energy = 0;   ///< 1/2 sum rho phi
  real total_energy() const { return gas_energy + pot_energy; }
};

/// SSP-RK3 (Shu-Osher) stage weights: stage s sets
/// u <- rk3_ca[s] u0 + rk3_cb[s] (u + dt L(u)).  Every stage exchanges
/// ghosts once.
inline constexpr int rk3_stages = 3;
inline constexpr real rk3_ca[rk3_stages] = {0, real(0.75), real(1) / 3};
inline constexpr real rk3_cb[rk3_stages] = {1, real(0.25), real(2) / 3};

class step_engine {
 public:
  virtual ~step_engine() = default;
  step_engine(const step_engine&) = delete;
  step_engine& operator=(const step_engine&) = delete;

  const exec::amt_space& space() const { return space_; }
  const tree::topology& topo() const { return *topo_; }

  /// Evolved sub-grid of a leaf node (by topology node index).
  grid::subgrid& leaf(index_t node);
  const grid::subgrid& leaf(index_t node) const;

  /// Global conserved quantities of the current state.
  ledger measure() const;

  real time() const { return time_; }
  real dt() const { return dt_; }
  int steps_taken() const { return steps_; }

  /// Attach a metrics sink: every step() then emits one structured record
  /// (per-phase wall times, processed sub-grid cells/second).  The sink
  /// must outlive the driver; pass nullptr to detach.
  void set_metrics_sink(apex::metrics_sink* sink) { metrics_ = sink; }
  /// Observability record of the most recent step() (valid once
  /// steps_taken() > 0), whether or not a sink is attached.
  const apex::step_record& last_step_metrics() const { return last_metrics_; }

  /// Per-leaf measured-cost EWMA (slots follow topo().leaves() order).
  const apex::leaf_cost_model& cost_model() const { return cost_model_; }

  /// The SDC auditor guarding this driver (seals + physics invariants; see
  /// app/invariants.hpp).  Inactive when the audit options disable it.
  const invariant_auditor& auditor() const { return auditor_; }
  /// Cumulative SDC counters (mirrored into the metrics columns).
  std::uint64_t sdc_audits() const { return sdc_audits_; }
  std::uint64_t sdc_detections() const { return sdc_detected_; }
  std::uint64_t sdc_retries() const { return sdc_retries_; }
  std::uint64_t sdc_rollbacks() const { return sdc_rollbacks_; }

 protected:
  explicit step_engine(exec::amt_space space) : space_(space) {}

  // --- what a driver supplies ---------------------------------------------
  virtual const sim_options& sim_opts() const = 0;

  // Leaf-pair hooks.  A leaf-leaf same-level ghost face rides the copy
  // kernel unless leaf_pair_exchanged() says the driver moves it itself;
  // the exchange, send and receive hooks carry only those faces.
  /// True when the face between leaves \p l and \p nb (same level,
  /// adjacent) travels through the hooks below, in both directions,
  /// instead of the copy kernel.  Must be symmetric in (l, nb).
  virtual bool leaf_pair_exchanged(index_t /*l*/, index_t /*nb*/) const {
    return false;
  }
  /// Barrier-mode exchange of the exchanged leaf-leaf faces (called
  /// between the copy and prolongation phases of exchange_ghosts()).
  virtual void exchange_leaf_pairs() {}
  /// Dataflow send body: ship leaf \p l's exchanged faces (one task per
  /// leaf with exchanged faces and RK stage, in stage order per leaf).
  virtual void send_leaf_pairs(index_t /*l*/) {}
  /// One inbound face of one RK stage: resolves when the slab arrived, and
  /// the body that writes it into the receiver's ghost face.
  struct leaf_pair_receive {
    amt::shared_future<void> arrival;
    std::function<void()> unpack;
  };
  /// Dataflow receive of leaf \p l's exchanged face \p d, issued once per
  /// RK stage in stage order.
  virtual leaf_pair_receive receive_leaf_pair(index_t /*l*/, int /*d*/) {
    return {};
  }
  /// Taken once per dataflow step; run once, from the continuation of the
  /// step's first failing task, so pending arrivals resolve and the drain
  /// cannot hang.  Empty: nothing to run.
  virtual std::function<void()> leaf_pair_failure_hook() { return {}; }
  /// After the dataflow step's drain, before its first error is rethrown.
  virtual void leaf_pairs_drained(bool /*failed*/) {}

  /// Leaf ownership that fault-injection plans resolve against: a plan's
  /// (loc, leaf) picks leaf `leaf` modulo the owned-leaf count of locality
  /// `loc` modulo owner_count().  One owner reduces this to leaves[leaf].
  virtual int owner_count() const { return 1; }
  virtual int owner_of(index_t /*leaf*/) const { return 0; }
  /// Captured with each containment snapshot: rolls back the driver state
  /// a retried step must not count twice (empty when there is none).
  virtual std::function<void()> save_retry_extras() { return {}; }

  // --- mesh setup -----------------------------------------------------------
  /// Adopt \p topo: fresh FMM solver, one sub-grid per node, leaf slots.
  void build_mesh(std::unique_ptr<tree::topology> topo);
  /// Rebuild leaf_slot_, stage0_, leaves_by_level_ and the CFL slots from
  /// the current topology.
  void rebuild_leaf_slots();
  /// Scenario preparation on this thread, then initial data per leaf.
  void fill_initial_data(const scen::scenario& sc);

  // --- per-node step kernels (one copy for both drivers and schedules) ----
  void save_stage0(index_t leaf);
  void hydro_leaf(index_t leaf, real dt, real ca, real cb);
  void restrict_node(index_t node);
  /// Same-level ghost copies and physical-boundary outflow fills of one
  /// node (exchanged leaf-leaf faces skipped).
  void copy_ghosts(index_t node);
  void prolong_leaf(index_t leaf);
  void set_density(index_t leaf);
  /// CFL signal v/dx of leaves[i] into its reduction slot.
  void store_leaf_signal(std::size_t i);

  // --- declared task footprints of the kernels (apex/race_audit.hpp) -------
  apex::access_set hydro_footprint(index_t leaf) const;
  apex::access_set restrict_footprint(index_t node) const;
  apex::access_set copy_footprint(index_t node) const;
  apex::access_set prolong_footprint(index_t leaf) const;

  /// Derived state from the leaf fields: ghosts, gravity, dt.
  void rederive();

  // --- one contained step ---------------------------------------------------
  /// Run step `steps_ + 1` with dt \p dt under SDC containment (retry from
  /// snapshot + dual-execution vote; escalates by rethrowing sdc_detected).
  /// Returns true when a retry was needed.
  bool contained_step(real dt);
  /// Restore the clock to (\p time, \p step) over leaf fields that already
  /// hold that state, re-derive, and retake the seals.
  void restore_clock(real time, std::int64_t step);
  /// Arm a fresh auditor and seal the current state.
  void arm_auditor();
  /// Trusted new state (recovery, restore): restart the drift warmup and
  /// retake the seals.
  void reseal();
  /// Seal every leaf and (with self-gravity) the moments.
  void sdc_seal_all();
  /// Record fields every driver fills the same way.
  apex::step_record base_step_record(real dt, double step_seconds,
                                     const amt::runtime_stats& stats0) const;
  void emit_step_record(apex::step_record rec);

  /// Leaf-leaf pair whose face the driver exchanges (see
  /// leaf_pair_exchanged); false whenever either node is interior.
  bool exchanged_pair(index_t n, index_t nb) const {
    return topo_->node(n).leaf && topo_->node(nb).leaf &&
           leaf_pair_exchanged(n, nb);
  }

  apex::leaf_cost_model* cost_model_ptr() {
    return cost_model_.active() ? &cost_model_ : nullptr;
  }

  exec::amt_space space_;
  std::unique_ptr<tree::topology> topo_;
  std::unique_ptr<gravity::fmm_solver> grav_;
  std::vector<grid::subgrid> grids_;       ///< one per node (all nodes)
  std::vector<grid::subgrid> stage0_;      ///< RK3 u0 copies (leaves only)
  std::vector<index_t> leaf_slot_;         ///< node -> stage0 slot
  std::vector<std::vector<index_t>> leaves_by_level_;
  /// Prolongation relations, fixed per topology: fine leaf -> its distinct
  /// coarser leaf hosts (direction-discovery order), host -> fine clients.
  std::vector<std::vector<index_t>> phosts_, pclients_;

  real time_ = 0;
  real dt_ = 0;
  int steps_ = 0;
  bool initialized_ = false;

  apex::metrics_sink* metrics_ = nullptr;
  apex::step_record last_metrics_{};
  apex::leaf_cost_model cost_model_;
  invariant_auditor auditor_;
  std::uint64_t sdc_audits_ = 0;
  std::uint64_t sdc_detected_ = 0;
  std::uint64_t sdc_retries_ = 0;
  std::uint64_t sdc_rollbacks_ = 0;

 private:
  /// cfl / max over the CFL reduction slots.
  real reduce_dt() const;

  // --- barrier schedule -----------------------------------------------------
  void exchange_ghosts();
  void solve_gravity();
  void hydro_stage(real dt, real ca, real cb);
  real compute_dt();
  void step_barrier(real dt);
  /// The three RK stages as one per-leaf dependency graph: hydro chained
  /// on each leaf's own ghost/gravity edges, send/unpack tasks for the
  /// leaf-leaf faces the driver exchanges, gravity via solve_dataflow, and
  /// dt-reduce tasks feeding the CFL slots (run_schedule() reduces after
  /// the drain).  The drain waits on every task, then rethrows the first
  /// error in build order that is not a broken_channel, falling back to
  /// the first error.
  void step_graph(real dt);

  /// One execution attempt: apply any armed bit flip, verify the seals,
  /// run the schedule, audit the result, retake the seals.  Throws
  /// sdc_detected on a tripped detector.
  void step_attempt(real dt);
  /// The mode's schedule plus the next dt; in dataflow mode bracketed by
  /// the DAG record -> race audit -> critical-path analysis.
  void run_schedule(real dt);
  void sdc_retry(const sdc_snapshot& snap,
                 const std::function<void()>& extras, real dt);
  sdc_snapshot sdc_take_snapshot() const;
  void sdc_restore(const sdc_snapshot& snap,
                   const std::function<void()>& extras);
  void sdc_apply_bitflips(std::int64_t step);
  void sdc_verify_all();
  void sdc_audit_and_seal(real dt_next, std::int64_t step);
  /// Order-independent digest of the evolved state (leaf seals + dt), the
  /// dual-execution vote's ballot.
  std::uint64_t sdc_state_signature() const;
  /// One task per id, joined with get_all.
  template <typename F>
  void each_task(const std::vector<index_t>& ids, F fn);

  std::vector<real> cfl_slots_;  ///< per leaf slot: v/dx of the last pass
  /// Critical-path analysis of the most recent attempt's dataflow DAG.
  apex::critical_path_result last_crit_{};
  bool have_crit_ = false;
  /// Wall seconds per phase over the current attempt's RK stages.
  double phase_exchange_s_ = 0;
  double phase_gravity_s_ = 0;
  double phase_hydro_s_ = 0;
};

}  // namespace octo::app
