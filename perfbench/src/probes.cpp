#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "amt/future.hpp"
#include "app/invariants.hpp"
#include "dist/serialize.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace octo;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Copies of the driver's leaf sub-grids (ghost shells included), in the
/// tree's leaf order.
std::vector<grid::subgrid> leaf_copies(const driver& d) {
  std::vector<grid::subgrid> out;
  out.reserve(d.topo().leaves().size());
  for (const index_t l : d.topo().leaves()) out.push_back(d.leaf(l));
  return out;
}

}  // namespace

double run_on(amt::runtime& rt, amt::runtime& idle,
              const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto f = amt::async([&fn] { fn(); }, rt);
  f.wait(idle);
  f.get(idle);
  return seconds_since(t0);
}

double median_pass_s(const std::function<void()>& pass, double min_total_s,
                     int min_passes) {
  std::vector<double> times;
  double total = 0;
  while (total < min_total_s || static_cast<int>(times.size()) < min_passes) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    times.push_back(seconds_since(t0));
    total += times.back();
  }
  return median(times);
}

std::unique_ptr<gravity::fmm_solver> loaded_solver(
    const driver& d, const gravity::gravity_options& opt) {
  auto fmm = std::make_unique<gravity::fmm_solver>(d.topo(), opt);
  for (const index_t l : d.topo().leaves())
    fmm->set_leaf_from_subgrid(l, d.leaf(l));
  return fmm;
}

double phi_rel_err(const gravity::fmm_solver& fmm, const driver& d,
                   int samples) {
  constexpr int N = grid::subgrid::N;
  constexpr int C3 = N * N * N;
  const auto& leaves = d.topo().leaves();
  // Every leaf cell as a point mass (the solver's own monopole input).
  std::vector<real> xs, ys, zs, ms;
  for (const index_t l : leaves) {
    const grid::subgrid& g = d.leaf(l);
    const real vol = g.cell_volume();
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const rvec3 x = g.cell_center(i, j, k);
          xs.push_back(x.x);
          ys.push_back(x.y);
          zs.push_back(x.z);
          ms.push_back(g.at(grid::f_rho, i, j, k) * vol);
        }
  }
  // Half the samples spread evenly over the leaves, half at the most
  // massive cells, so the potential well that sets the error scale (as
  // max |g| does in the gravity accuracy tests) is always sampled.
  std::vector<std::size_t> picks;
  const int spread = samples - samples / 2;
  for (int s = 0; s < spread; ++s)
    picks.push_back(static_cast<std::size_t>(s) * leaves.size() /
                        static_cast<std::size_t>(spread) * C3 +
                    static_cast<std::size_t>((s * 131 + 17) % C3));
  std::vector<std::size_t> order(ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto heavy = std::min<std::size_t>(samples / 2, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(heavy),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return ms[a] != ms[b] ? ms[a] > ms[b] : a < b;
                    });
  picks.insert(picks.end(), order.begin(),
               order.begin() + static_cast<long>(heavy));

  const real G = fmm.options().G;
  double err = 0, scale = 0;
  for (const std::size_t a : picks) {
    double phi = 0;
    for (std::size_t b = 0; b < ms.size(); ++b) {
      if (b == a) continue;
      const double dx = xs[a] - xs[b], dy = ys[a] - ys[b], dz = zs[a] - zs[b];
      phi -= G * ms[b] / std::sqrt(dx * dx + dy * dy + dz * dz);
    }
    const int cell = static_cast<int>(a % C3);
    const double f = fmm.phi(leaves[a / C3])[static_cast<std::size_t>(
        gravity::fmm_solver::cell_index(cell / (N * N), (cell / N) % N,
                                        cell % N))];
    err = std::max(err, std::abs(f - phi));
    scale = std::max(scale, std::abs(phi));
  }
  return scale > 0 ? err / scale : err;
}

double m2l_pairs(const tree::topology& topo) {
  constexpr int N = grid::subgrid::N;
  // Parent adjacency for target parity q (see the stencil in
  // gravity/solver.cpp): offset o is valid iff o in [-2, 3] (q = 0) or
  // [-3, 2] (q = 1).
  const auto valid = [](int o, int q) {
    return q == 0 ? (o >= -2 && o <= 3) : (o >= -3 && o <= 2);
  };
  const auto region = [](int x) { return x < 0 ? 0 : (x >= N ? 2 : 1); };
  // Pairs for one node given which of its 27 same-level blocks (itself
  // and its neighbors) exist; memoized by that mask.
  std::unordered_map<std::uint32_t, double> memo;
  const auto pairs_for = [&](std::uint32_t mask) {
    if (const auto it = memo.find(mask); it != memo.end()) return it->second;
    double n = 0;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k)
          for (int a = -3; a <= 3; ++a)
            for (int b = -3; b <= 3; ++b)
              for (int c = -3; c <= 3; ++c) {
                if (std::max({std::abs(a), std::abs(b), std::abs(c)}) < 2)
                  continue;
                if (!valid(a, i & 1) || !valid(b, j & 1) || !valid(c, k & 1))
                  continue;
                const int blk = (region(i + a) * 3 + region(j + b)) * 3 +
                                region(k + c);
                if (mask >> blk & 1U) n += 1;
              }
    memo.emplace(mask, n);
    return n;
  };
  double total = 0;
  for (index_t n = 0; n < topo.num_nodes(); ++n) {
    if (n == topo.root()) {
      for (int t = 0; t < N * N * N; ++t)
        for (int s = 0; s < N * N * N; ++s) {
          const int di = std::abs(t / (N * N) - s / (N * N));
          const int dj = std::abs((t / N) % N - (s / N) % N);
          const int dk = std::abs(t % N - s % N);
          if (std::max({di, dj, dk}) >= 2) total += 1;
        }
      continue;
    }
    std::uint32_t mask = 1U << 13;  // the node itself: block (1, 1, 1)
    for (int d = 0; d < NNEIGHBOR; ++d) {
      if (topo.neighbor(n, d) == tree::invalid_node) continue;
      const ivec3 v = tree::directions()[d];
      mask |= 1U << (((v.x + 1) * 3 + (v.y + 1)) * 3 + (v.z + 1));
    }
    total += pairs_for(mask);
  }
  return total;
}

double hydro_leaf_stage_us(const driver& d, const hydro::hydro_options& opt,
                           const gravity::fmm_solver* grav) {
  auto grids = leaf_copies(d);
  const auto& leaves = d.topo().leaves();
  hydro::workspace ws;
  std::vector<real> dudt(static_cast<std::size_t>(hydro::dudt_size));
  real sink = 0;
  const double pass = median_pass_s(
      [&] {
        for (std::size_t s = 0; s < grids.size(); ++s) {
          std::fill(dudt.begin(), dudt.end(), real(0));
          hydro::flux_divergence(grids[s], opt, ws, dudt);
          if (grav != nullptr)
            hydro::add_sources(grids[s], opt, grav->gx(leaves[s]).data(),
                               grav->gy(leaves[s]).data(),
                               grav->gz(leaves[s]).data(), dudt);
          else
            hydro::add_sources(grids[s], opt, nullptr, nullptr, nullptr,
                               dudt);
          sink += hydro::max_signal_speed(grids[s], opt);
          // A tiny step: the copies stay physical across repeated passes.
          hydro::apply_dudt(grids[s], dudt, real(1e-9));
        }
      },
      0.3);
  if (!std::isfinite(sink)) return -1;
  return pass / static_cast<double>(grids.size()) * 1e6;
}

grid_probe probe_grid(const driver& d) {
  auto grids = leaf_copies(d);
  auto scratch = grids;
  std::vector<real> buf;
  grid_probe out;
  const double nl = static_cast<double>(grids.size());
  out.pack_unpack_us =
      median_pass_s(
          [&] {
            for (std::size_t s = 0; s < grids.size(); ++s)
              for (int dir = 0; dir < NNEIGHBOR; ++dir) {
                buf.clear();
                grids[s].pack_for_neighbor(dir, buf);
                scratch[s].unpack_from_neighbor(
                    tree::dir_opposite(dir), buf.data(),
                    static_cast<index_t>(buf.size()));
              }
          },
          0.2) /
      nl * 1e6;
  out.direct_copy_us =
      median_pass_s(
          [&] {
            for (std::size_t s = 0; s < grids.size(); ++s)
              for (int dir = 0; dir < NNEIGHBOR; ++dir)
                scratch[s].copy_ghost_direct(dir, grids[s]);
          },
          0.2) /
      nl * 1e6;
  return out;
}

double serialize_us(const driver& d) {
  const auto& leaves = d.topo().leaves();
  // Up to 64 leaves spread over the tree; every direction of each.
  std::vector<std::vector<real>> slabs;
  const std::size_t take = std::min<std::size_t>(64, leaves.size());
  for (std::size_t i = 0; i < take; ++i) {
    const index_t l = leaves[i * leaves.size() / take];
    for (int dir = 0; dir < NNEIGHBOR; ++dir) {
      slabs.emplace_back();
      d.leaf(l).pack_for_neighbor(dir, slabs.back());
    }
  }
  real sink = 0;
  const double pass = median_pass_s(
      [&] {
        for (std::size_t i = 0; i < slabs.size(); ++i) {
          dist::oarchive ar;
          ar.put(static_cast<std::int32_t>(i % NNEIGHBOR));
          ar.put_vector(slabs[i]);
          ar.seal();
          dist::iarchive in(ar.take());
          in.unseal("benchmark slab");
          sink += static_cast<real>(in.get<std::int32_t>());
          sink += in.get_vector<real>().back();
        }
      },
      0.2);
  if (!std::isfinite(sink)) return -1;
  return pass / static_cast<double>(slabs.size()) * 1e6;
}

double spawn_join_us(amt::runtime& rt) {
  constexpr int kCalls = 2000;
  std::vector<double> us;
  us.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    amt::async([] {}, rt).get(rt);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

audit_probe probe_audit(const driver& d, const app::audit_options& opt) {
  const auto& topo = d.topo();
  const auto& leaves = topo.leaves();
  app::invariant_auditor aud(opt);
  aud.resize(topo.num_nodes());
  const double nl = static_cast<double>(leaves.size());
  audit_probe out;
  out.seal_us = median_pass_s(
                    [&] {
                      for (const index_t l : leaves)
                        aud.seal_leaf(l, d.leaf(l));
                    },
                    0.1) /
                nl * 1e6;
  out.verify_us = median_pass_s(
                      [&] {
                        for (const index_t l : leaves)
                          aud.verify_leaf(l, d.leaf(l));
                      },
                      0.1) /
                  nl * 1e6;
  out.audit_us = median_pass_s(
                     [&] {
                       for (const index_t l : leaves)
                         aud.audit_leaf(l, d.leaf(l));
                     },
                     0.1) /
                 nl * 1e6;
  return out;
}

}  // namespace perfbench
