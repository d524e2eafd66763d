#pragma once
/// \file cluster.hpp
/// In-process multi-locality execution of the simulation.
///
/// The octree's leaves are partitioned over `num_localities` HPX-style
/// localities along the space-filling curve (tree/partition.hpp).  A leaf's
/// same-level leaf-neighbor ghost faces travel one of two ways, like
/// Octo-Tiger's boundary communication:
///
///   * same-locality pairs with `local_optimization == true` (§VII-B):
///     the receiver reads the neighbor's memory directly, with no runtime
///     messaging — the step engine's copy kernel fills the face, ordered
///     after the neighbor's hydro update by the phase order (barrier) or
///     by the copy task's dependency edges (dataflow);
///   * remote pairs, or any pair with `local_optimization == false`:
///     the sender packs the 26-direction slab, *serializes* it (the HPX
///     action path) into a per-(leaf, direction) channel, and the receiver
///     deserializes and unpacks.
///
/// The receive side of the channels is barrier-free across leaves
/// (communication/computation overlap as in the real code): in barrier
/// mode each channel future carries its unpack as a `.then` continuation,
/// joined with the sends by `get_all`; in dataflow mode each arrival gates
/// an unpack task of the step graph (app::step_engine::step_graph, through
/// the leaf-pair hooks below).  Statistics feed the DES calibration and
/// Fig. 8's model.
///
/// Every serialized slab is sealed with a CRC-32; a slab corrupted or
/// truncated in transit (for real, or via the fault injector in
/// common/fault.hpp) is detected at unpack time and fails the whole
/// exchange loudly instead of being silently integrated — the trigger for
/// `dist::run_with_checkpoints` rollback (dist/checkpoint.hpp).
///
/// Serialized slabs additionally route through `dist::transport`
/// (transport.hpp): sequence numbers, acknowledgements, retransmission
/// with backoff, duplicate suppression — so the exchange completes
/// bitwise-identically under message drop / delay / duplication /
/// reordering, and a genuinely lost slab fails the exchange with
/// `transport_error` instead of deadlocking the receive side.  Locality
/// death is detected by a per-step heartbeat deadline and survived online
/// via `recovery.hpp`: the partition shrinks over the survivors and the
/// dead leaves are restored from in-memory buddy replicas (kept on the
/// SFC-neighbor locality) or the newest valid checkpoint.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "amt/channel.hpp"
#include "app/step_engine.hpp"
#include "dist/recovery.hpp"
#include "dist/trace_merge.hpp"
#include "dist/transport.hpp"
#include "tree/partition.hpp"

namespace octo::dist {

/// Measured-cost dynamic load rebalancing (dist/rebalance.cpp).
struct lb_options {
  /// Consider a rebalance every this many steps; 0 = never (measurement
  /// can still be on via `measure`).
  int every = 0;
  /// Measure per-leaf costs without ever rebalancing (ablation baseline:
  /// the same max_over_mean series, no migrations).
  bool measure = false;
  /// Hysteresis: apply a candidate partition only when the current
  /// measured max/mean exceeds the projected one by this factor.
  double min_gain = 1.05;
  /// EWMA weight of the newest step in the per-leaf cost model.
  double ewma_alpha = 0.3;

  bool measuring() const { return measure || every > 0; }
};

struct dist_options {
  int num_localities = 2;
  /// The paper's §VII-B same-locality direct-access optimization.
  bool local_optimization = true;
  /// Route every serialized slab through the reliable transport layer
  /// (sequencing/ack/retry).  Off = the seed's bare-channel path, kept as
  /// the baseline for measuring the robustness tax (bench_fig8).
  bool reliable_transport = true;
  transport_options transport{};
  /// Heartbeat deadline for locality-failure detection; a locality that
  /// has not beaten this long after the step opened is declared dead.
  double heartbeat_deadline_ms = 25;
  /// Keep an in-memory buddy replica of every leaf's state on the next
  /// surviving locality along the SFC — the online recovery source.
  bool buddy_replication = true;
  /// Measured-cost dynamic load rebalancing with live leaf migration.
  lb_options lb{};
  app::sim_options sim{};
};

struct exchange_stats {
  std::uint64_t local_direct = 0;      ///< faces copied within a locality
  std::uint64_t local_serialized = 0;  ///< same-locality but full path
  std::uint64_t remote_messages = 0;
  std::uint64_t bytes_serialized = 0;

  std::uint64_t total_slabs() const {
    return local_direct + local_serialized + remote_messages;
  }
};

class cluster : public app::step_engine {
 public:
  cluster(const scen::scenario& sc, dist_options opt,
          exec::amt_space space = exec::amt_space{});
  /// Writes the distributed trace bundle (see set_trace_dir) when armed.
  ~cluster();

  void initialize();
  real step();

  /// Narrow restore hook for checkpointing (dist/checkpoint.hpp): the leaf
  /// fields must already hold the checkpointed state; this overwrites the
  /// integration clock and exchange statistics, re-exchanges ghosts,
  /// re-solves gravity and recomputes the CFL dt — bitwise identical to
  /// the state an uninterrupted run carries after the same step.
  void restore_state(real time, std::int64_t step, const exchange_stats& st) {
    restore_clock(time, step);
    // Last, so the checkpointed counters win over the restore exchange.
    stats_ = st;
  }

  /// Live locality-failure recovery (implemented in recovery.cpp): mark
  /// \p dead localities dead, shrink the partition over the survivors,
  /// restore the lost leaves from buddy replicas — or roll the whole
  /// cluster back to the newest valid checkpoint in \p ckpt_dir when a
  /// replica is unavailable — rebuild channels and transport, and
  /// re-derive ghosts, gravity and dt.  Throws octo::error when neither
  /// recovery source exists.
  void recover_locality_failure(const std::vector<int>& dead,
                                const std::string& ckpt_dir = {});

  /// Measured-cost rebalance attempt (implemented in rebalance.cpp):
  /// recompute the SFC partition over the live localities from the cost
  /// model's EWMA, and — only when the measured max/mean imbalance exceeds
  /// the projection by `lb.min_gain` — live-migrate every leaf whose owner
  /// changes (checkpoint-format pack, reliable transport, unpack), rebuild
  /// channels on a fresh transport epoch, and re-derive ghosts/gravity/dt
  /// exactly as recovery does.  Returns true when a rebalance was applied.
  /// Physics-transparent: the continued run is bitwise identical to one
  /// that never rebalanced.  No-op without measurements.
  bool maybe_rebalance();

  /// Rebalances applied so far (the step_record's `rebalance_count`).
  std::uint64_t rebalance_count() const { return rebalance_count_; }
  /// Candidate partitions evaluated but skipped by hysteresis.
  std::uint64_t rebalances_skipped() const { return rebalances_skipped_; }

  /// Per-leaf costs the partitioner should balance right now: the cost
  /// model's measured EWMA once any step has been observed, the static
  /// estimate (tree::static_leaf_costs) before that.
  std::vector<real> current_leaf_costs() const;

  const tree::partition_result& partition() const { return part_; }
  const exchange_stats& stats() const { return stats_; }
  transport_stats transport_statistics() const;
  bool locality_alive(int loc) const {
    return locality_alive_[static_cast<std::size_t>(loc)] != 0;
  }
  int live_localities() const;

  /// Arm distributed tracing into \p dir: span recording plus per-locality
  /// message-flow stamps on deliberately skewed locality clocks
  /// (skew_ns_per_locality x locality index simulates independent node
  /// clocks; the merge has to undo it).  The bundle — trace.locK.json per
  /// locality, the clock-aligned trace.merged.json, cluster_report.txt —
  /// is written by write_trace_bundle(), or automatically at destruction.
  /// Also armed from the environment: OCTO_TRACE naming an existing
  /// *directory* selects this mode (OCTO_TRACE_SKEW_US overrides the
  /// per-locality skew, default 2000 us).
  void set_trace_dir(const std::string& dir,
                     std::int64_t skew_ns_per_locality = 2'000'000);

  /// Write the distributed trace bundle into \p dir (see set_trace_dir)
  /// and return the merge summary (offsets applied, flows matched).
  merge_result write_trace_bundle(const std::string& dir);

  /// Cluster-wide end-of-run report: aggregated apex counters for all
  /// localities, per-locality traffic totals, estimated clock offsets vs.
  /// the configured skews, transport statistics.
  void write_cluster_report(std::ostream& os) const;

 private:
  /// One serialized slab through a boundary channel.
  using slab_bytes = std::vector<std::uint8_t>;

  /// Serialized-slab statistics accumulated lock-free by the send tasks of
  /// one exchange (or one dataflow step), folded into stats_ afterwards.
  struct xfer_counts {
    std::atomic<std::uint64_t> ls{0}, rm{0}, by{0};
    void clear() {
      for (auto* c : {&ls, &rm, &by}) c->store(0);
    }
  };

  const app::sim_options& sim_opts() const override { return opt_.sim; }
  // Leaf-pair hooks: a face leaves the copy kernel for the boundary
  // channels unless both leaves share a locality and the §VII-B
  // optimization is on.
  bool leaf_pair_exchanged(index_t l, index_t nb) const override {
    return !opt_.local_optimization || owner(l) != owner(nb);
  }
  /// Barrier-mode exchange of the serialized faces.
  void exchange_leaf_pairs() override;
  void send_leaf_pairs(index_t l) override { send_slabs(l, graph_counts_); }
  leaf_pair_receive receive_leaf_pair(index_t l, int d) override;
  /// Closes every channel, so pending arrivals resolve.
  std::function<void()> leaf_pair_failure_hook() override;
  /// Rebuilds the channels after a failed step; folds the step's exchange
  /// counts after a successful one.
  void leaf_pairs_drained(bool failed) override;
  int owner_count() const override { return opt_.num_localities; }
  int owner_of(index_t leaf) const override { return owner(leaf); }
  /// A retried step rolls the exchange statistics back to the snapshot.
  std::function<void()> save_retry_extras() override {
    return [this, st = stats_] { stats_ = st; };
  }
  int owner(index_t node) const { return part_.owner(node); }

  /// Pack, seal, fault-hook and transport leaf \p l's slabs to every
  /// same-level leaf neighbor whose face is exchanged.
  void send_slabs(index_t l, xfer_counts& counts);
  /// Verify and write one arrived slab into leaf \p l's ghost face \p d.
  void unpack_slab(index_t l, int d, slab_bytes bytes);
  /// Fold the counts of \p exchanges ghost exchanges into stats_ and the
  /// apex counters: the serialized slabs \p counts saw, plus the
  /// copy-kernel faces, direct_links_ per exchange.
  void fold_exchange_counts(const xfer_counts& counts, int exchanges);

  /// Fresh boundary channels and a fresh transport epoch; old channels are
  /// closed first so stragglers (pending receives, delayed in-flight
  /// frames) fail or drop instead of corrupting the next exchange.  Also
  /// re-derives the partition-dependent link sets (direct_links_,
  /// linked_leaves_), so it runs after every partition change.
  void rebuild_channels();
  /// Heartbeat round at the top of step(): fires any armed locality kill,
  /// scrubs the victim's leaves, and throws locality_failure for every
  /// locality silent past the deadline.
  void detect_locality_failures();
  /// Refresh the buddy replicas (leaf state copied to the next surviving
  /// locality along the SFC) after a completed step.
  void update_replicas();
  /// Next surviving locality after \p loc on the locality ring.
  int buddy_of(int loc) const;
  /// Transport link carrying leaf slot \p s's migration payload (the range
  /// past the nleaves x 26 boundary links).
  int migration_link(index_t slot) const {
    return static_cast<int>(topo_->leaves().size()) * NNEIGHBOR +
           static_cast<int>(slot);
  }

  scen::scenario scenario_;
  dist_options opt_;
  tree::partition_result part_;

  /// channels_[leaf_slot * 26 + dir]: inbound slab from direction dir.
  /// shared_ptr so a delayed transport frame delivering after a rebuild
  /// lands in the old, closed channel (dropped) instead of freed memory.
  std::vector<std::shared_ptr<amt::channel<slab_bytes>>> channels_;
  /// Same-locality leaf-leaf links the copy kernel fills under the
  /// current partition (0 with local_optimization off): one exchange's
  /// `local_direct` count.
  std::uint64_t direct_links_ = 0;
  /// Leaves with at least one exchanged face, in leaf order.
  std::vector<index_t> linked_leaves_;
  std::unique_ptr<transport> transport_;

  /// Liveness and recovery state.
  std::vector<char> locality_alive_;
  heartbeat_monitor monitor_;
  /// Buddy replicas, indexed by leaf slot: a copy of the leaf's state and
  /// the locality "holding" it (the owner's SFC successor).
  std::vector<grid::subgrid> replicas_;
  std::vector<int> replica_holder_;
  /// Recovery totals folded into the next step_record.
  std::uint64_t pending_localities_lost_ = 0;
  std::uint64_t pending_leaves_migrated_ = 0;
  transport_stats last_transport_stats_{};

  /// Dynamic load rebalancing state (dist/rebalance.cpp).
  std::uint64_t rebalance_count_ = 0;
  std::uint64_t rebalances_skipped_ = 0;

  /// Distributed-trace state (set_trace_dir): output directory, configured
  /// per-locality skew, the live offset estimator (refined every step from
  /// new flow samples), and how many samples it has already consumed.
  std::string trace_dir_;
  std::int64_t trace_skew_ns_ = 0;
  clock_offset_estimator offset_est_;
  std::size_t flows_consumed_ = 0;

  exchange_stats stats_;
  /// The current dataflow step's exchange counts (send_leaf_pairs).
  xfer_counts graph_counts_;
};

}  // namespace octo::dist
