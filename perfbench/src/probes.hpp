#pragma once
/// \file probes.hpp
/// Per-layer probes of the traced run: each times calls into one module's
/// public functions on the workload's own tree and state, from the
/// benchmark (no spans or timers inside the program).

#include <functional>
#include <memory>

#include "amt/runtime.hpp"
#include "gravity/solver.hpp"
#include "hydro/kernel.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Run \p fn as one task on \p rt while the calling thread waits helping
/// only \p idle (a runtime with no work), so exactly rt.concurrency()
/// threads do the work.  Returns wall seconds.
double run_on(octo::amt::runtime& rt, octo::amt::runtime& idle,
              const std::function<void()>& fn);

/// Median wall seconds of one call of \p pass, repeated until at least
/// \p min_total_s seconds and \p min_passes calls have been spent.
double median_pass_s(const std::function<void()>& pass, double min_total_s,
                     int min_passes = 3);

/// A solver over \p d's tree loaded with \p d's current densities.
std::unique_ptr<octo::gravity::fmm_solver> loaded_solver(
    const driver& d, const octo::gravity::gravity_options& opt);

/// FMM potential against direct summation at \p samples leaf cells (half
/// spread over the tree, half the most massive cells): max |phi_fmm -
/// phi_direct| / max |phi_direct| over the samples.
double phi_rel_err(const octo::gravity::fmm_solver& fmm, const driver& d,
                   int samples = 48);

/// M2L cell pairs of one solve, computed (not counted at run time) from
/// the tree and the 316-offset stencil with its parity rule; the root
/// interacts all of its cell pairs at Chebyshev distance >= 2.
double m2l_pairs(const octo::tree::topology& topo);

/// One thread running flux_divergence + add_sources + max_signal_speed +
/// apply_dudt on copies of every leaf: microseconds per leaf-stage.
double hydro_leaf_stage_us(const driver& d,
                           const octo::hydro::hydro_options& opt,
                           const octo::gravity::fmm_solver* grav);

/// pack_for_neighbor + unpack_from_neighbor over 26 directions, and
/// copy_ghost_direct over 26 directions: microseconds per leaf.
struct grid_probe {
  double pack_unpack_us = 0;
  double direct_copy_us = 0;
};
grid_probe probe_grid(const driver& d);

/// One boundary slab through oarchive (put, seal, take) and iarchive
/// (unseal, get): microseconds per slab, averaged over 26 directions.
double serialize_us(const driver& d);

/// An empty amt::async plus get from the calling thread: microseconds.
double spawn_join_us(octo::amt::runtime& rt);

/// invariant_auditor seal_leaf, verify_leaf and audit_leaf: microseconds
/// per leaf each.
struct audit_probe {
  double seal_us = 0;
  double verify_us = 0;
  double audit_us = 0;
};
audit_probe probe_audit(const driver& d, const octo::app::audit_options& opt);

}  // namespace perfbench
