/// \file rebalance.cpp
/// Measured-cost dynamic load rebalancing with live leaf migration.
///
/// Octo-Tiger's SFC partition is computed once per regrid from structural
/// estimates; on a real machine the per-sub-grid cost drifts (deeper
/// refinement concentrates hydro work, migrated neighbors turn direct
/// copies into serialized slabs), so the measured max/mean locality load
/// creeps up while the partition stays frozen.  This driver closes the
/// loop: every `lb.every` steps the cluster re-runs the SFC split over the
/// cost model's EWMA of *measured* per-leaf wall time, and — only when the
/// hysteresis says the projected balance beats the current one by
/// `lb.min_gain` — live-migrates every leaf whose owner changes.
///
/// A migration reuses machinery proven elsewhere: the payload is the
/// checkpoint leaf record (Morton code + app::pack_leaf_fields, CRC-32
/// sealed), it travels the reliable transport on the per-slot migration
/// link (so drops/delays/dups injected by common/fault.hpp are absorbed or
/// surfaced exactly like ghost slabs), the source copy is scrubbed to NaN
/// before the send so only the migrated bytes can rebuild the leaf, and
/// the post-migration sequence — fresh channels on a new transport epoch,
/// re-exchanged ghosts, re-solved gravity, recomputed dt — is the same
/// one recover_locality_failure and restore_state run, which the
/// checkpoint tests prove bitwise identical to an uninterrupted run.
/// Rebalancing is therefore physics-transparent: the fields after a
/// rebalanced step match a never-rebalanced run bit for bit.
///
/// Observability: counters `lb.rebalances`, `lb.leaves_moved`,
/// `lb.skipped`, timer+span `lb.rebalance`; per-step metrics columns
/// `rebalance_count` and `max_over_mean`.

#include <limits>
#include <utility>
#include <vector>

#include "amt/future.hpp"
#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "app/checkpoint.hpp"
#include "common/log.hpp"
#include "dist/cluster.hpp"
#include "dist/serialize.hpp"

namespace octo::dist {

namespace {

struct lb_counters {
  apex::metric_id rebalances =
      apex::registry::instance().counter("lb.rebalances");
  apex::metric_id leaves_moved =
      apex::registry::instance().counter("lb.leaves_moved");
  apex::metric_id skipped = apex::registry::instance().counter("lb.skipped");
  apex::metric_id rebalance_timer =
      apex::registry::instance().timer("lb.rebalance");
};
lb_counters& counters() {
  static lb_counters c;
  return c;
}

}  // namespace

std::vector<real> cluster::current_leaf_costs() const {
  if (cost_model_.active() && cost_model_.steps_observed() > 0)
    return cost_model_.costs();
  return tree::static_leaf_costs(*topo_);
}

bool cluster::maybe_rebalance() {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  if (!cost_model_.active() || cost_model_.steps_observed() == 0)
    return false;
  const std::vector<real> cost = cost_model_.costs();

  // Candidate: a fresh cost-balanced SFC split over the live localities
  // (partition_shrink when some have died, so survivor ids are preserved).
  std::vector<int> dead_all;
  for (int l = 0; l < opt_.num_localities; ++l)
    if (!locality_alive_[static_cast<std::size_t>(l)]) dead_all.push_back(l);
  tree::partition_result cand =
      dead_all.empty()
          ? tree::partition_sfc(*topo_, opt_.num_localities, cost)
          : tree::partition_shrink(*topo_, part_, dead_all, cost);

  // Hysteresis: migrating churns caches, channels and replicas, so apply
  // only when the measured imbalance beats the projection by min_gain.
  const real cur = tree::cost_max_over_mean(*topo_, part_, cost);
  const real proj = tree::cost_max_over_mean(*topo_, cand, cost);
  if (!(proj > 0) || cur < proj * static_cast<real>(opt_.lb.min_gain)) {
    apex::registry::instance().add(counters().skipped);
    ++rebalances_skipped_;
    return false;
  }

  const apex::scoped_trace_span span("lb.rebalance");
  const apex::scoped_timer timer(counters().rebalance_timer);

  std::vector<index_t> moved;
  for (const index_t l : topo_->leaves())
    if (part_.owner(l) != cand.owner(l)) moved.push_back(l);

  // Live migration, one task per moving leaf: pack the checkpoint leaf
  // record on the source, scrub the source copy (only the migrated bytes
  // may rebuild the leaf — the same proof obligation as the locality-kill
  // scrub), ship it over the slot's migration link, unpack on the
  // destination.  The reliable send blocks until the unpack is acked, so
  // after get_all every moved leaf is whole again.
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  futs.reserve(moved.size());
  for (const index_t l : moved) {
    const int src = part_.owner(l);
    const int dst = cand.owner(l);
    futs.push_back(amt::async(
        [this, l, src, dst] {
          oarchive ar;
          ar.put(topo_->node(l).code);
          ar.put_vector(app::pack_leaf_fields(grids_[l]));
          ar.seal();
          std::vector<std::uint8_t> bytes = ar.take();
          grids_[l].fill_all(std::numeric_limits<real>::quiet_NaN());
          const auto unpack = [this, l](std::vector<std::uint8_t> payload) {
            iarchive in(std::move(payload));
            in.unseal("migrated leaf record");
            const auto code = in.get<code_t>();
            OCTO_CHECK_MSG(code == topo_->node(l).code,
                           "migrated leaf record code mismatch");
            app::unpack_leaf_fields(in.get_vector<real>(), grids_[l]);
          };
          if (transport_)
            transport_->send(migration_link(leaf_slot_[l]), src, dst,
                             std::move(bytes), unpack);
          else
            unpack(std::move(bytes));
        },
        rt));
  }
  amt::get_all(futs, rt);

  part_ = std::move(cand);

  // Post-migration sequence, exactly as recovery/restore run it: the next
  // heartbeat window is deliberately quiescent, every boundary channel is
  // rebuilt on a fresh transport epoch (delayed pre-rebalance frames drop
  // instead of colliding with the new generation), and the derived state —
  // ghosts, gravity, dt — is re-derived from the unchanged fields, which
  // keeps the run bitwise identical to one that never rebalanced.
  monitor_.suspend_next_window();
  rebuild_channels();
  rederive();
  update_replicas();

  ++rebalance_count_;
  auto& reg = apex::registry::instance();
  reg.add(counters().rebalances);
  reg.add(counters().leaves_moved, moved.size());
  OCTO_LOG_INFO("lb: rebalanced after step "
                << steps_ << ": moved " << moved.size() << "/"
                << topo_->num_leaves() << " leaves, measured max/mean "
                << cur << " -> projected " << proj);
  return true;
}

}  // namespace octo::dist
