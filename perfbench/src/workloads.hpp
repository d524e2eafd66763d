#pragma once
/// \file workloads.hpp
/// The benchmark's workloads: which scenario, tree level, driver and step
/// engine each runs, with every driver option pinned, and the seeded
/// initial-data perturbation that makes one seed's input differ from the
/// next without changing the tree or the amount of work.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "dist/cluster.hpp"
#include "exec/execution_space.hpp"
#include "scenarios/scenarios.hpp"

namespace perfbench {

/// Worker threads of the one amt::runtime a workload process uses.
inline constexpr unsigned kWorkers = 4;
/// Localities of the distributed workloads (all in-process, sharing the
/// one runtime).
inline constexpr int kLocalities = 4;
/// Relative amplitude of the seeded density perturbation.
inline constexpr double kPerturbation = 1e-5;

struct workload {
  std::string name;
  std::string scenario;  ///< scen::by_name() key
  int level = 0;         ///< sim_options::max_level
  bool self_gravity = true;
  bool distributed = false;  ///< dist::cluster (else app::simulation)
  octo::app::step_mode mode = octo::app::step_mode::barrier;
  /// Ledger drift bounds over a set-up's steps, relative to the initial
  /// value: |M - M0| / M0 and |E - E0| / |E0| (E = gas + potential).
  double mass_drift_bound = 0;
  double energy_drift_bound = 0;
  /// Layer-stress claims the traced run confirms (0: no claim): the FMM's
  /// share of step_s is at least this, and ghost exchange plus hydro
  /// together exceed this share of step_s.
  double claim_gravity_share = 0;
  double claim_exchange_hydro_share = 0;
};

const std::vector<workload>& workloads();
/// nullptr when \p name is not a workload.
const workload* find_workload(const std::string& name);

/// Every sim_options field, set explicitly (nothing comes from defaults
/// that read the environment).
octo::app::sim_options pinned_sim_options(const workload& w,
                                          const octo::scen::scenario& sc);
/// Every dist_options field, set explicitly.
octo::dist::dist_options pinned_dist_options(const workload& w,
                                             const octo::scen::scenario& sc);

/// Multiply the density (and the species densities that sum to it) of
/// every owned cell by 1 + kPerturbation * u, u in [-1, 1) a hash of the
/// seed and the cell's position: the same seed always gives the same bits.
void perturb_density(octo::grid::subgrid& u, std::uint64_t seed);

/// The workload's scenario with its init wrapped by perturb_density.  The
/// refinement predicate is untouched, so the tree and the work per step
/// are the same for every seed.
octo::scen::scenario seeded_scenario(const workload& w, std::uint64_t seed);

/// Cumulative distributed-exchange counters (all zero for app::simulation).
struct dist_counters {
  octo::dist::exchange_stats exchange;
  octo::dist::transport_stats transport;
};

/// The calls the benchmark makes on a workload's driver, over either
/// app::simulation or dist::cluster.
class driver {
 public:
  virtual ~driver() = default;
  virtual void initialize() = 0;
  virtual void step() = 0;
  virtual const octo::tree::topology& topo() const = 0;
  virtual const octo::grid::subgrid& leaf(octo::index_t node) const = 0;
  virtual octo::app::ledger measure() const = 0;
  virtual void set_metrics_sink(octo::apex::metrics_sink* sink) = 0;
  virtual const octo::apex::step_record& last_step_metrics() const = 0;
  virtual std::uint64_t sdc_detections() const = 0;
  virtual dist_counters dist_stats() const = 0;
};

std::unique_ptr<driver> make_driver(const workload& w,
                                    const octo::scen::scenario& sc,
                                    const octo::exec::amt_space& space);

}  // namespace perfbench
