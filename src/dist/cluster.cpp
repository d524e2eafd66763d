#include "dist/cluster.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <utility>

#include "amt/future.hpp"
#include "apex/apex.hpp"
#include "apex/flow.hpp"
#include "apex/trace.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stopwatch.hpp"
#include "dist/serialize.hpp"

namespace octo::dist {

cluster::cluster(const scen::scenario& sc, dist_options opt,
                 exec::amt_space space)
    : step_engine(space), scenario_(sc), opt_(opt) {
  OCTO_CHECK(opt_.num_localities >= 1);
  // OCTO_TRACE naming an existing directory selects the distributed-trace
  // workflow (a file path keeps the plain single-trace behaviour the apex
  // bootstrap already handles).
  if (const auto env = config::env("OCTO_TRACE")) {
    std::error_code ec;
    if (std::filesystem::is_directory(*env, ec)) {
      // Bounded so skew_ns x locality index cannot overflow.
      const auto skew_us = config::env_long(
          "OCTO_TRACE_SKEW_US", 0, std::numeric_limits<std::int32_t>::max());
      set_trace_dir(*env, skew_us ? std::int64_t{*skew_us} * 1000 : 2'000'000);
    }
  }
}

cluster::~cluster() {
  if (trace_dir_.empty() || !initialized_) return;
  try {
    write_trace_bundle(trace_dir_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist::cluster: trace bundle failed: %s\n",
                 e.what());
  }
}

void cluster::set_trace_dir(const std::string& dir,
                            std::int64_t skew_ns_per_locality) {
  trace_dir_ = dir;
  trace_skew_ns_ = skew_ns_per_locality;
  auto& tr = apex::trace::instance();
  // Record spans, but route the single-file writer away from the
  // directory: the bundle writer below owns every file in there.
  tr.enable("");
  auto& fr = apex::flow_recorder::instance();
  for (int k = 0; k < opt_.num_localities; ++k)
    fr.set_clock_skew(static_cast<std::uint32_t>(k),
                      skew_ns_per_locality * k);
  apex::flow_recorder::set_enabled(true);
}

merge_result cluster::write_trace_bundle(const std::string& dir) {
  const auto flows = apex::flow_recorder::instance().snapshot();
  std::vector<std::string> files;
  files.reserve(static_cast<std::size_t>(opt_.num_localities));
  for (int k = 0; k < opt_.num_localities; ++k) {
    std::string path = dir + "/trace.loc" + std::to_string(k) + ".json";
    std::ofstream out(path, std::ios::trunc);
    OCTO_CHECK_MSG(out.good(), "cannot write " + path);
    // The in-process cluster shares one worker pool; its span timelines
    // are written once, under locality 0's pid.
    write_locality_trace(out, k, flows, /*include_spans=*/k == 0);
    files.push_back(std::move(path));
  }
  const merge_result res = merge_traces(files, dir + "/trace.merged.json");
  std::ofstream rep(dir + "/cluster_report.txt", std::ios::trunc);
  if (rep.good()) write_cluster_report(rep);
  return res;
}

void cluster::write_cluster_report(std::ostream& os) const {
  const auto flows = apex::flow_recorder::instance().snapshot();
  const auto nloc = static_cast<std::size_t>(opt_.num_localities);
  os << "=== cluster report (" << opt_.num_localities << " localities, "
     << live_localities() << " alive, " << steps_ << " steps) ===\n";

  struct loc_traffic {
    std::uint64_t sent = 0, received = 0, bytes_out = 0;
  };
  std::vector<loc_traffic> traffic(nloc);
  for (const auto& f : flows) {
    if (f.src_loc < nloc) {
      ++traffic[f.src_loc].sent;
      traffic[f.src_loc].bytes_out += f.bytes;
    }
    if (f.dst_loc < nloc) ++traffic[f.dst_loc].received;
  }
  const auto offsets = offset_est_.offsets(nloc);
  for (std::size_t k = 0; k < nloc; ++k) {
    os << "locality " << k << ": " << traffic[k].sent << " slabs out ("
       << traffic[k].bytes_out << " B), " << traffic[k].received
       << " in; clock skew " << trace_skew_ns_ * static_cast<std::int64_t>(k)
       << " ns, estimated offset " << offsets[k] << " ns\n";
  }
  os << "flow samples: " << flows.size() << " (" << offset_est_.samples()
     << " used for offset estimation)\n";

  const transport_stats ts = transport_statistics();
  os << "transport: " << ts.messages << " messages, " << ts.retries
     << " retries, " << ts.timeouts << " timeouts, " << ts.dups_dropped
     << " dups dropped\n";
  os << "exchange: " << stats_.local_direct << " direct / "
     << stats_.local_serialized << " local-serialized / "
     << stats_.remote_messages << " remote slabs, "
     << stats_.bytes_serialized << " B serialized\n";

  os << "--- aggregated apex counters (all localities) ---\n";
  apex::registry::instance().report(os);
}

void cluster::initialize() {
  opt_.sim.hydro.omega = scenario_.omega;
  auto topo = std::make_unique<tree::topology>(
      scenario_.domain_half, opt_.sim.max_level, scenario_.refine);
  // Seed the first partition with the static cost estimate (cells x depth)
  // rather than an empty cost vector: uniform-cost splits hand the refined
  // region's concentrated work to whichever locality the Morton curve
  // visits last, and until the first rebalance that misjudgment is the
  // whole run's balance.
  part_ = tree::partition_sfc(*topo, opt_.num_localities,
                              tree::static_leaf_costs(*topo));
  build_mesh(std::move(topo));

  locality_alive_.assign(static_cast<std::size_t>(opt_.num_localities), 1);
  monitor_.reset(opt_.num_localities);
  cost_model_.reset(opt_.lb.measuring() ? topo_->leaves().size() : 0,
                    opt_.lb.ewma_alpha);
  rebalance_count_ = 0;
  rebalances_skipped_ = 0;
  rebuild_channels();
  pending_localities_lost_ = 0;
  pending_leaves_migrated_ = 0;
  // The transport survives re-initialize() (only its epoch advances), so
  // baseline the per-step deltas on its current cumulative counters.
  last_transport_stats_ = transport_statistics();

  fill_initial_data(scenario_);

  // Reset the integration clock: re-initialize() is the from-scratch
  // restart path of run_with_checkpoints when no valid checkpoint exists.
  time_ = 0;
  steps_ = 0;
  stats_ = exchange_stats{};
  replicas_.clear();
  replica_holder_.clear();

  rederive();
  initialized_ = true;
  update_replicas();

  // Arm the SDC auditor: seal the initial state so the very first step can
  // already verify it was read back uncorrupted.
  arm_auditor();
}

void cluster::rebuild_channels() {
  // Break stragglers first: pending receives fail with broken_channel,
  // delayed in-flight frames deliver into a closed channel and drop.
  for (auto& ch : channels_)
    if (ch) ch->close();
  const auto& leaves = topo_->leaves();
  const std::size_t nleaves = leaves.size();
  const std::size_t n = nleaves * NNEIGHBOR;
  // Channels exist only on exchanged links; the copy kernel fills the
  // other leaf-leaf faces, counted once per exchange as local_direct.
  channels_.assign(n, nullptr);
  direct_links_ = 0;
  linked_leaves_.clear();
  for (const index_t l : leaves) {
    bool linked = false;
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const index_t nb = topo_->neighbor(l, d);
      if (nb == tree::invalid_node || !topo_->node(nb).leaf) continue;
      if (!leaf_pair_exchanged(l, nb)) {
        ++direct_links_;
        continue;
      }
      channels_[static_cast<std::size_t>(leaf_slot_[l]) * NNEIGHBOR +
                static_cast<std::size_t>(d)] =
          std::make_shared<amt::channel<slab_bytes>>();
      linked = true;
    }
    if (linked) linked_leaves_.push_back(l);
  }
  if (opt_.reliable_transport) {
    // One extra link per leaf slot past the boundary range carries that
    // leaf's migration payload during a rebalance.
    if (!transport_)
      transport_ = std::make_unique<transport>(
          static_cast<int>(n + nleaves), opt_.transport, space_.runtime());
    else
      // Keep the transport (and its monotonic statistics — recreating it
      // here made the per-step stats deltas wrap after a rebuild) and open
      // a fresh link generation instead: sequence numbers restart at 0 and
      // any delayed pre-rebuild frame is dropped by its stale epoch rather
      // than colliding with the new generation's seq 0.
      transport_->advance_epoch();
  }
}

transport_stats cluster::transport_statistics() const {
  return transport_ ? transport_->stats() : transport_stats{};
}

int cluster::live_localities() const {
  int n = 0;
  for (const char a : locality_alive_) n += a != 0;
  return n;
}

int cluster::buddy_of(int loc) const {
  const int nloc = opt_.num_localities;
  for (int step = 1; step < nloc; ++step) {
    const int cand = (loc + step) % nloc;
    if (locality_alive_[static_cast<std::size_t>(cand)]) return cand;
  }
  return loc;  // sole survivor: replica stays with the owner
}

void cluster::update_replicas() {
  if (!opt_.buddy_replication) return;
  const apex::scoped_trace_span span("dist.update_replicas");
  const auto& leaves = topo_->leaves();
  if (replicas_.empty()) {
    replicas_.reserve(leaves.size());
    for (const index_t l : leaves)
      replicas_.emplace_back(topo_->center(l), topo_->cell_width(l));
  }
  replica_holder_.assign(leaves.size(), 0);
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  futs.reserve(leaves.size());
  for (std::size_t s = 0; s < leaves.size(); ++s) {
    replica_holder_[s] = buddy_of(owner(leaves[s]));
    futs.push_back(amt::async(
        [this, s, l = leaves[s]] { replicas_[s] = grids_[l]; }, rt));
  }
  amt::wait_all(futs, rt);
}

namespace {
/// Apex counters mirroring exchange_stats — the measured series behind
/// Fig. 8 (serialized-vs-direct ghost-slab traffic).
struct exchange_counters {
  apex::metric_id local_direct =
      apex::registry::instance().counter("dist.local_direct_slabs");
  apex::metric_id local_serialized =
      apex::registry::instance().counter("dist.local_serialized_slabs");
  apex::metric_id remote =
      apex::registry::instance().counter("dist.remote_messages");
  apex::metric_id bytes =
      apex::registry::instance().counter("dist.bytes_serialized");
  apex::metric_id faults =
      apex::registry::instance().counter("fault.injected");
};
exchange_counters& counters() {
  static exchange_counters c;
  return c;
}
}  // namespace

void cluster::send_slabs(index_t l, xfer_counts& counts) {
  const apex::scoped_trace_span span("dist.exchange.send");
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const index_t nb = topo_->neighbor(l, d);
    if (nb == tree::invalid_node || !exchanged_pair(l, nb)) continue;
    // The receiver nb sees us in the opposite direction.
    const int rd = tree::dir_opposite(d);
    const int link = static_cast<int>(leaf_slot_[nb]) * NNEIGHBOR + rd;
    const bool same_loc = owner(l) == owner(nb);
    std::vector<real> slab;
    grids_[l].pack_for_neighbor(d, slab);
    oarchive ar;
    ar.put(static_cast<std::int32_t>(rd));
    ar.put_vector(slab);
    ar.seal();
    std::vector<std::uint8_t> bytes = ar.take();
    // Transit-corruption hook: may bit-flip or truncate the sealed buffer;
    // the receiver's unseal() must catch it.
    if (fault::injector::instance().ghost_slab_hook(bytes))
      apex::registry::instance().add(counters().faults);
    counts.by.fetch_add(bytes.size(), std::memory_order_relaxed);
    (same_loc ? counts.ls : counts.rm).fetch_add(1, std::memory_order_relaxed);
    const auto& sink = channels_[static_cast<std::size_t>(link)];
    if (transport_) {
      // Reliable path: sequence/ack/retry through the lossy network;
      // blocks (helping the scheduler) until acked.
      transport_->send(link, owner(l), owner(nb), std::move(bytes),
                       [sink](slab_bytes payload) {
                         sink->send(std::move(payload));
                       });
    } else {
      sink->send(std::move(bytes));
    }
  }
}

void cluster::unpack_slab(index_t l, int d, slab_bytes bytes) {
  const apex::scoped_trace_span span("dist.exchange.unpack");
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  iarchive ar(std::move(bytes));
  ar.unseal("serialized ghost slab");
  const auto rd = ar.get<std::int32_t>();
  OCTO_CHECK(rd == d);
  const auto slab = ar.get_vector<real>();
  grids_[l].unpack_from_neighbor(d, slab.data(),
                                 static_cast<index_t>(slab.size()));
}

void cluster::fold_exchange_counts(const xfer_counts& counts, int exchanges) {
  const std::uint64_t ld = direct_links_ * static_cast<std::uint64_t>(exchanges),
                      ls = counts.ls.load(), rm = counts.rm.load(),
                      by = counts.by.load();
  stats_.local_direct += ld;
  stats_.local_serialized += ls;
  stats_.remote_messages += rm;
  stats_.bytes_serialized += by;
  // Mirror the deltas into apex counters so the Fig. 8 traffic split is
  // visible in any registry report.
  auto& reg = apex::registry::instance();
  reg.add(counters().local_direct, ld);
  reg.add(counters().local_serialized, ls);
  reg.add(counters().remote, rm);
  reg.add(counters().bytes, by);
}

app::step_engine::leaf_pair_receive cluster::receive_leaf_pair(index_t l,
                                                               int d) {
  // The arrival stashes the slab in a per-link box the unpack consumes.
  auto box = std::make_shared<slab_bytes>();
  const auto link = static_cast<std::size_t>(leaf_slot_[l] * NNEIGHBOR + d);
  return {channels_[link]->receive().then_inline(
              [box](slab_bytes bytes) { *box = std::move(bytes); },
              space_.runtime()),
          [this, l, d, box] { unpack_slab(l, d, std::move(*box)); }};
}

std::function<void()> cluster::leaf_pair_failure_hook() {
  // Close this step's channels, held by copy so a late close hits live
  // channel objects even after rebuild_channels().
  return [channels = channels_] {
    for (const auto& ch : channels)
      if (ch) ch->close();
  };
}

void cluster::leaf_pairs_drained(bool failed) {
  if (failed)
    rebuild_channels();  // hand the next attempt fresh channels
  else
    fold_exchange_counts(graph_counts_, app::rk3_stages);
  graph_counts_.clear();  // a failed step counts no slabs
}

void cluster::exchange_leaf_pairs() {
  auto& rt = space_.runtime();
  xfer_counts counts;
  // Senders: one task per leaf with exchanged faces.
  std::vector<amt::future<void>> send_futs;
  send_futs.reserve(linked_leaves_.size());
  for (const index_t l : linked_leaves_)
    send_futs.push_back(
        amt::async([this, l, &counts] { send_slabs(l, counts); }, rt));

  // Receivers: unpack continuations chained on the channel futures.
  std::vector<amt::future<void>> recv_futs;
  for (const index_t l : linked_leaves_) {
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const auto& ch =
          channels_[static_cast<std::size_t>(leaf_slot_[l] * NNEIGHBOR + d)];
      if (!ch) continue;
      recv_futs.push_back(ch->receive().then(
          [this, l, d](slab_bytes bytes) { unpack_slab(l, d, std::move(bytes)); },
          rt));
    }
  }
  // get_all (not wait_all): an unseal() checksum failure in any unpack
  // continuation must surface here, not vanish into a dropped future.
  try {
    amt::get_all(send_futs, rt);
  } catch (...) {
    // A reliable send gave up (retries exhausted / peer dead): slabs that
    // will never arrive would leave unpack continuations pending forever —
    // the seed's lost-message deadlock.  Break every channel so the
    // pending receives fail fast, then *drain with get_all semantics*: an
    // unseal() checksum failure that already happened in an unpack
    // continuation surfaces instead of being swallowed by a bare wait;
    // only the broken_channel noise from the close above is filtered out.
    // Hand the next attempt fresh channels, then rethrow.
    for (auto& ch : channels_)
      if (ch) ch->close();
    std::exception_ptr unpack_err;
    for (auto& f : recv_futs) {
      try {
        f.get(rt);
      } catch (const amt::broken_channel&) {
      } catch (...) {
        if (!unpack_err) unpack_err = std::current_exception();
      }
    }
    rebuild_channels();
    if (unpack_err) std::rethrow_exception(unpack_err);
    throw;
  }
  amt::get_all(recv_futs, rt);
  fold_exchange_counts(counts, 1);
}

void cluster::detect_locality_failures() {
  auto& inj = fault::injector::instance();
  const int victim = inj.locality_kill_hook(
      static_cast<std::uint64_t>(steps_) + 1);
  if (victim >= 0 && victim < opt_.num_localities &&
      locality_alive_[static_cast<std::size_t>(victim)]) {
    // The node is gone and its memory with it: scrub the victim's leaves
    // so recovery provably restores them from a replica or checkpoint
    // rather than silently reusing in-process state.
    for (const index_t l :
         part_.leaves_of_locality[static_cast<std::size_t>(victim)])
      grids_[l].fill_all(std::numeric_limits<real>::quiet_NaN());
  }
  // Heartbeat round: every locality that is actually alive beats; the
  // monitor then waits out the deadline for anyone silent.
  monitor_.arm_step();
  for (int loc = 0; loc < opt_.num_localities; ++loc)
    if (locality_alive_[static_cast<std::size_t>(loc)] &&
        inj.locality_alive(loc))
      monitor_.beat(loc);
  auto dead = monitor_.overdue(opt_.heartbeat_deadline_ms);
  if (dead.empty() && monitor_.window_suspended()) {
    // A suspended window (post-rebalance/recovery quiescence) skips the
    // deadline so a slow survivor is not misdeclared — but a locality
    // whose *connections* are already refused is known dead, not slow;
    // letting the step proceed would fail mid-exchange with a
    // transport_error the recovery driver cannot attribute.
    for (int loc = 0; loc < opt_.num_localities; ++loc)
      if (locality_alive_[static_cast<std::size_t>(loc)] &&
          !inj.locality_alive(loc))
        dead.push_back(loc);
  }
  if (!dead.empty()) throw locality_failure(dead);
}

real cluster::step() {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  const bool dataflow = opt_.sim.mode == app::step_mode::dataflow;
  const apex::scoped_trace_span trace_span(dataflow ? "dist.step.dataflow"
                                                    : "dist.step");
  const stopwatch step_watch;
  // Armed node-death trigger (OCTO_FAULT_STEP) — before any state
  // mutation, so a rollback sees a consistent cluster.  Likewise the
  // locality kill + heartbeat check: detection precedes the stage-0 copy,
  // so recovery sees every survivor at the end of the previous step (in
  // dataflow mode the graph's deterministic drain then surfaces any
  // failure the heartbeat round missed).
  fault::injector::instance().maybe_fail_step();
  detect_locality_failures();
  if (cost_model_.active()) cost_model_.begin_step();
  const real dt = dt_;
  const amt::runtime_stats rt_stats0 = space_.runtime().stats();

  // A successful retry took extra wall time the adaptive heartbeat
  // deadline never observed; don't let the next round misread the stall
  // as a locality death.
  if (contained_step(dt)) monitor_.suspend_next_window();

  time_ += dt;
  ++steps_;
  if (cost_model_.active()) cost_model_.end_step();
  // Rebalance check rides the step boundary (every K steps): the measured
  // EWMA is fresh, no exchange is in flight, and maybe_rebalance() leaves
  // the cluster exactly where a completed step does (replicas included).
  bool rebalanced = false;
  if (opt_.lb.every > 0 && steps_ % opt_.lb.every == 0)
    rebalanced = maybe_rebalance();
  if (!rebalanced) update_replicas();

  // Per-step observability: transport counters are emitted as this-step
  // deltas so retries/timeouts line up with cells/second; recovery totals
  // accumulated since the last record ride along.
  apex::step_record rec =
      base_step_record(dt, step_watch.seconds(), rt_stats0);
  const transport_stats ts = transport_statistics();
  rec.transport_retries = ts.retries - last_transport_stats_.retries;
  rec.transport_timeouts = ts.timeouts - last_transport_stats_.timeouts;
  rec.transport_dups_dropped =
      ts.dups_dropped - last_transport_stats_.dups_dropped;
  last_transport_stats_ = ts;
  rec.localities_lost = pending_localities_lost_;
  rec.leaves_migrated = pending_leaves_migrated_;
  pending_localities_lost_ = 0;
  pending_leaves_migrated_ = 0;
  rec.rebalance_count = rebalance_count_;
  if (cost_model_.active() && cost_model_.steps_observed() > 0)
    rec.max_over_mean = static_cast<double>(
        tree::cost_max_over_mean(*topo_, part_, cost_model_.costs()));
  emit_step_record(rec);
  // Feed the adaptive heartbeat deadline with this step's wall time.
  monitor_.observe_step_ms(rec.step_seconds * 1e3);

  // Refine the clock-offset estimate with this step's fresh flow samples:
  // the per-link minima only sharpen as more slabs transit.
  if (apex::flow_recorder::enabled()) {
    const auto flows = apex::flow_recorder::instance().snapshot();
    for (std::size_t i = flows_consumed_; i < flows.size(); ++i)
      offset_est_.observe(flows[i]);
    flows_consumed_ = flows.size();
  }
  return dt;
}

}  // namespace octo::dist
