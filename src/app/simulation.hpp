#pragma once
/// \file simulation.hpp
/// The mini-Octo-Tiger driver: AMR octree + hydrodynamics + FMM gravity,
/// stepped with SSP-RK3 in the rotating frame, parallelized on the AMT
/// runtime with one task per sub-grid kernel (the paper's default launch
/// configuration).
///
/// Like Octo-Tiger, *every* node carries a sub-grid: leaves hold the evolved
/// state, interior nodes hold the conservative restriction of their
/// children (used as same-level ghost sources across refinement
/// boundaries).  Ghost exchange runs in three phases per RK stage:
///   1. restrict children into interior sub-grids (bottom-up),
///   2. same-level direct copies + physical-boundary outflow fills,
///   3. coarse-to-fine prolongation into leaves whose neighbor is coarser
///      (ascending level order so prolongation sources are complete).

#include "app/step_engine.hpp"

namespace octo::app {

class simulation : public step_engine {
 public:
  simulation(const scen::scenario& sc, sim_options opt,
             exec::amt_space space = exec::amt_space{});

  /// Build the tree, fill initial data, prime ghosts and gravity.
  void initialize();

  /// Advance one SSP-RK3 step; returns the dt used.
  real step();

  /// Rebuild the AMR tree from the *current* density field (refine where
  /// rho > options().rho_refine, up to max_level; 2:1 balance is restored
  /// by the tree builder) and conservatively transfer the state: regions
  /// that coarsened are restricted, regions that refined are prolonged.
  /// Returns true if the topology changed.
  bool regrid();

  /// Narrow restore hook for checkpointing: overwrite the integration
  /// clock (leaf fields must already hold the checkpointed state), then
  /// rebuild the derived state exactly as an uninterrupted run would carry
  /// it — re-exchange ghosts, re-solve gravity, recompute the CFL dt.
  void restore_state(real time, std::int64_t step) {
    restore_clock(time, step);
  }

  index_t num_leaves() const { return topo_->num_leaves(); }
  index_t num_cells() const { return topo_->num_cells(); }

  /// Gravitational acceleration/potential of the last solve.
  const gravity::fmm_solver& gravity() const { return *grav_; }

  const sim_options& options() const { return opt_; }

 private:
  const sim_options& sim_opts() const override { return opt_; }

  scen::scenario scenario_;
  sim_options opt_;
};

}  // namespace octo::app
