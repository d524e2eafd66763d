/// Reproduces Fig. 8: influence of the same-locality communication
/// optimization (§VII-B: direct memory access instead of HPX actions and
/// temporary buffers, with promise/future up-to-date notification).
/// Paper finding: benefit at 1-4 nodes, break-even around 8, slightly
/// worse at larger node counts (the bookkeeping outweighs the shrinking
/// local savings).

#include "common/stopwatch.hpp"
#include "dist/cluster.hpp"
#include "fig_common.hpp"

namespace {

/// Measured counters: run the real in-process cluster for one step and
/// report its exchange_stats — the serialized-vs-direct slab traffic the
/// DES model above abstracts.
void measured_counters() {
  using namespace octo;
  std::printf("\nmeasured ghost-slab traffic (in-process cluster, level 2, "
              "4 localities, 1 step):\n");
  table t({"local_opt", "direct slabs", "local serialized", "remote msgs",
           "bytes serialized"});
  dist::exchange_stats on_stats, off_stats;
  for (const bool local_opt : {true, false}) {
    amt::runtime rt(4);
    amt::scoped_global_runtime guard(rt);
    dist::dist_options opt;
    opt.num_localities = 4;
    opt.local_optimization = local_opt;
    opt.sim.max_level = 2;
    dist::cluster cl(scen::rotating_star(), opt);
    cl.initialize();
    cl.step();
    const auto& st = cl.stats();
    (local_opt ? on_stats : off_stats) = st;
    t.add_row({local_opt ? "ON" : "OFF",
               table::fmt(static_cast<long long>(st.local_direct)),
               table::fmt(static_cast<long long>(st.local_serialized)),
               table::fmt(static_cast<long long>(st.remote_messages)),
               table::fmt(static_cast<long long>(st.bytes_serialized))});
  }
  t.print(std::cout);
  bench::check(on_stats.local_direct > 0 && off_stats.local_direct == 0,
               "ON copies same-locality faces directly");
  bench::check(on_stats.bytes_serialized < off_stats.bytes_serialized,
               "ON serializes fewer bytes than OFF");
  bench::apex_report("the measured cluster runs");
}

/// Transport-overhead column: what the reliability layer (sequencing, acks,
/// retry bookkeeping — dist/transport.hpp) costs on a fault-free network
/// versus the seed's bare channels, with every slab on the serialized path.
void transport_overhead() {
  using namespace octo;
  std::printf("\nreliable-transport overhead vs bare channels (level 2, "
              "4 localities, serialized path, 1 step, no faults):\n");
  table t({"transport", "step s", "messages", "frames", "hdr bytes",
           "hdr/payload %"});
  double bare_s = 0, reliable_s = 0;
  std::uint64_t hdr = 0, payload = 0;
  for (const bool reliable : {false, true}) {
    amt::runtime rt(4);
    amt::scoped_global_runtime guard(rt);
    dist::dist_options opt;
    opt.num_localities = 4;
    opt.local_optimization = false;  // every slab through the wire path
    opt.reliable_transport = reliable;
    opt.sim.max_level = 2;
    dist::cluster cl(scen::rotating_star(), opt);
    cl.initialize();
    const stopwatch w;
    cl.step();
    const double s = w.seconds();
    (reliable ? reliable_s : bare_s) = s;
    const auto ts = cl.transport_statistics();
    const double pct =
        cl.stats().bytes_serialized == 0
            ? 0
            : 100.0 * static_cast<double>(ts.header_bytes) /
                  static_cast<double>(cl.stats().bytes_serialized);
    if (reliable) {
      hdr = ts.header_bytes;
      payload = cl.stats().bytes_serialized;
    }
    t.add_row({reliable ? "reliable" : "bare", table::fmt(s),
               table::fmt(static_cast<long long>(ts.messages)),
               table::fmt(static_cast<long long>(ts.frames_sent)),
               table::fmt(static_cast<long long>(ts.header_bytes)),
               table::fmt(pct)});
  }
  t.print(std::cout);
  bench::check(hdr > 0, "reliable path accounts seq/ack header traffic");
  bench::check(static_cast<double>(hdr) < 0.05 * static_cast<double>(payload),
               "wire overhead of sequencing+acks stays under 5% of slab "
               "payload");
  std::printf("note: step wall times (bare %.3fs vs reliable %.3fs) bound "
              "the robustness tax; on a fault-free network the reliable "
              "path adds only per-message bookkeeping, no retransmissions\n",
              bare_s, reliable_s);
}

}  // namespace

int main() {
  using namespace octo;
  bench::header(
      "Fig. 8 — local-communication optimization on Ookami (level 5)",
      "benefit when most neighbor pairs are on-locality (small node "
      "counts); break-even near 8-16 nodes; slightly worse beyond as the "
      "up-to-date bookkeeping outweighs the savings");

  auto sc = scen::rotating_star();
  const auto topo = sc.make_topology(5);
  const auto m = machine::ookami();

  table t({"nodes", "cells/s ON", "cells/s OFF", "ON/OFF", "remote frac"});
  double ratio1 = 0, ratio128 = 0;
  for (const int nodes : {1, 2, 4, 8, 16, 32, 64, 128}) {
    des::workload_options on;
    des::workload_options off;
    off.comm_opt = false;
    const auto r_on = des::run_experiment(topo, m, nodes, on);
    const auto r_off = des::run_experiment(topo, m, nodes, off);
    const double ratio = r_on.cells_per_sec / r_off.cells_per_sec;
    const auto part = tree::partition_sfc(topo, nodes);
    t.add_row({table::fmt(static_cast<long long>(nodes)),
               table::fmt(r_on.cells_per_sec),
               table::fmt(r_off.cells_per_sec), table::fmt(ratio),
               table::fmt(tree::remote_link_fraction(topo, part))});
    if (nodes == 1) ratio1 = ratio;
    if (nodes == 128) ratio128 = ratio;
  }
  t.print(std::cout);

  bench::check(ratio1 > 1.005, "clear benefit on one node (all pairs local)");
  bench::check(ratio128 < 1.01,
               "no benefit left at 128 nodes (paper: slightly worse; in our "
               "model idle cores absorb the bookkeeping, so it lands at "
               "break-even)");
  std::printf("note: our SFC partition keeps more locality than "
              "Octo-Tiger's distribution, so the break-even lands at ~16 "
              "nodes instead of the paper's 8 (see EXPERIMENTS.md)\n");

  measured_counters();
  transport_overhead();
  return 0;
}
