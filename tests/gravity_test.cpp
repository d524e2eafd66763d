#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/random.hpp"
#include "gravity/solver.hpp"
#include "tree/topology.hpp"

namespace octo::gravity {
namespace {

tree::refine_predicate uniform_to(int level) {
  return [level](int lvl, const rvec3&, real) { return lvl < level; };
}

std::vector<real> blob_density(const tree::topology& topo, index_t leaf,
                               std::uint64_t seed) {
  xoshiro256 rng(seed ^ static_cast<std::uint64_t>(leaf));
  std::vector<real> rho(512);
  const rvec3 c = topo.center(leaf);
  for (int q = 0; q < 512; ++q)
    rho[static_cast<std::size_t>(q)] =
        std::exp(-4 * norm2(c)) * rng.uniform(0.8, 1.2);
  return rho;
}

struct GravityEnv : testing::Test {
  amt::runtime rt{2};
  amt::scoped_global_runtime guard{rt};
};

TEST_F(GravityEnv, DerivativeTensorsMatchFiniteDifferences) {
  const rvec3 r{0.31, -0.22, 0.47};
  const auto d = derivatives(r, 1.0);
  const real h = 1e-6;
  const auto phi = [](const rvec3& x) { return -1.0 / norm(x); };
  // D1 = grad phi
  for (int a = 0; a < 3; ++a) {
    rvec3 rp = r, rm = r;
    rp[a] += h;
    rm[a] -= h;
    EXPECT_NEAR(d.d1[a], (phi(rp) - phi(rm)) / (2 * h), 1e-7);
  }
  // D2 via second differences of phi
  for (int a = 0; a < 3; ++a)
    for (int b = a; b < 3; ++b) {
      rvec3 rpp = r, rpm = r, rmp = r, rmm = r;
      rpp[a] += h; rpp[b] += h;
      rpm[a] += h; rpm[b] -= h;
      rmp[a] -= h; rmp[b] += h;
      rmm[a] -= h; rmm[b] -= h;
      const real fd = (phi(rpp) - phi(rpm) - phi(rmp) + phi(rmm)) /
                      (4 * h * h);
      EXPECT_NEAR(d.d2[sym2_idx(a, b)], fd, 2e-4);
    }
}

TEST_F(GravityEnv, M2MPreservesPotentialFarAway) {
  // Aggregate two point masses into one multipole; its M2L potential at a
  // distant target must match the direct sum to high order.
  multipole c1, c2;
  c1.m = 1.0;
  c1.com = rvec3{0.02, 0.01, -0.03};
  c2.m = 2.0;
  c2.com = rvec3{-0.04, 0.03, 0.02};
  multipole parent;
  parent.m = c1.m + c2.m;
  parent.com = (c1.m * c1.com + c2.m * c2.com) / parent.m;
  m2m_accumulate(c1, parent);
  m2m_accumulate(c2, parent);

  const rvec3 target{1.0, 0.4, -0.3};
  expansion e;
  m2l_accumulate(parent, derivatives(target - parent.com, 1.0), e);
  const real exact = -c1.m / norm(target - c1.com) -
                     c2.m / norm(target - c2.com);
  EXPECT_NEAR(e.l0, exact, 1e-5 * std::abs(exact));
}

TEST_F(GravityEnv, L2LShiftIsExactTaylorTranslation) {
  // Build an expansion from a distant monopole, shift it, and compare phi
  // against evaluating the expansion terms directly at the shifted point.
  multipole src;
  src.m = 3.0;
  src.com = rvec3{2.0, 1.0, -1.5};
  const rvec3 center{0.1, -0.2, 0.05};
  expansion e;
  m2l_accumulate(src, derivatives(center - src.com, 1.0), e);

  const rvec3 h{0.03, -0.02, 0.01};
  expansion shifted;
  l2l_shift(e, h, shifted);

  // Direct Taylor evaluation of the original expansion at center + h.
  real phi = e.l0;
  for (int a = 0; a < 3; ++a) phi += e.l1[a] * h[a];
  for (int a = 0; a < 3; ++a)
    for (int b = a; b < 3; ++b)
      phi += (a == b ? 0.5 : 1.0) * e.l2[sym2_idx(a, b)] * h[a] * h[b];
  for (int s = 0; s < NSYM3; ++s) {
    const auto abc = sym3_abc[s];
    phi += sym3_mult[s] / 6 * e.l3[s] * h[abc[0]] * h[abc[1]] * h[abc[2]];
  }
  EXPECT_NEAR(shifted.l0, phi, 1e-14);
}

TEST_F(GravityEnv, SingleNodeMatchesDirectExactly) {
  tree::topology topo(1.0, 0, uniform_to(0));
  fmm_solver fmm(topo);
  direct_solver dir(topo);
  const auto rho = blob_density(topo, 0, 1);
  fmm.set_leaf_density(0, rho);
  dir.set_leaf_density(0, rho);
  fmm.solve();
  dir.solve();
  auto fp = fmm.phi(0);
  auto dp = dir.phi(0);
  for (int c = 0; c < 512; ++c)
    ASSERT_NEAR(fp[c], dp[c], 1e-12 * std::abs(dp[c]));
}

class FmmAccuracy : public testing::TestWithParam<int> {
 protected:
  amt::runtime rt{2};
  amt::scoped_global_runtime guard{rt};
};

TEST_P(FmmAccuracy, MatchesDirectSummation) {
  const int level = GetParam();
  tree::topology topo(1.0, level, uniform_to(level));
  fmm_solver fmm(topo);
  direct_solver dir(topo);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 17);
    fmm.set_leaf_density(leaf, rho);
    dir.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  dir.solve();
  real gmax = 0, emax = 0;
  for (const index_t leaf : topo.leaves()) {
    auto fx = fmm.gx(leaf), fy = fmm.gy(leaf), fz = fmm.gz(leaf);
    auto dx = dir.gx(leaf), dy = dir.gy(leaf), dz = dir.gz(leaf);
    for (int c = 0; c < 512; ++c) {
      const rvec3 fg{fx[c], fy[c], fz[c]}, dg{dx[c], dy[c], dz[c]};
      gmax = std::max(gmax, norm(dg));
      emax = std::max(emax, norm(fg - dg));
    }
  }
  EXPECT_LT(emax / gmax, 1e-2) << "order-3 FMM accuracy regression";
}

INSTANTIATE_TEST_SUITE_P(Levels, FmmAccuracy, testing::Values(1, 2));

TEST_F(GravityEnv, LinearMomentumConservedToMachinePrecision) {
  tree::topology topo(1.0, 2, uniform_to(2));
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 5));
  fmm.solve();
  const rvec3 F = fmm.total_force();
  // characteristic force scale: M * |g|max ~ M^2 / R^2 ~ O(M^2)
  const real scale = fmm.total_mass() * fmm.total_mass();
  EXPECT_LT(norm(F) / scale, 1e-12);
}

TEST_F(GravityEnv, MomentumConservedOnAmrTree) {
  // AMR tree: refinement boundary pairs must also cancel exactly.
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  EXPECT_GT(topo.max_depth(), 1);
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 31));
  fmm.solve();
  const rvec3 F = fmm.total_force();
  const real scale = fmm.total_mass() * fmm.total_mass();
  EXPECT_LT(norm(F) / scale, 1e-12);
}

TEST_F(GravityEnv, AmrTreeAccuracyVsDirect) {
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  fmm_solver fmm(topo);
  direct_solver dir(topo);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 8);
    fmm.set_leaf_density(leaf, rho);
    dir.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  dir.solve();
  real gmax = 0, emax = 0;
  for (const index_t leaf : topo.leaves()) {
    auto fx = fmm.gx(leaf), fy = fmm.gy(leaf), fz = fmm.gz(leaf);
    auto dx = dir.gx(leaf), dy = dir.gy(leaf), dz = dir.gz(leaf);
    for (int c = 0; c < 512; ++c) {
      const rvec3 fg{fx[c], fy[c], fz[c]}, dg{dx[c], dy[c], dz[c]};
      gmax = std::max(gmax, norm(dg));
      emax = std::max(emax, norm(fg - dg));
    }
  }
  EXPECT_LT(emax / gmax, 2e-2);
}

std::uint64_t bits_of(real v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Accumulate random monopole sources (q = o = 0) into one target pack
/// through both M2L paths and require bit-equal L0/L1.  Sources mimic the
/// halo: cells 2-7 cell widths away, some massless, some empty halo (m = 0,
/// COM at 1e30).
template <typename P>
void expect_monopole_path_matches_full_pack(std::uint64_t seed) {
  xoshiro256 rng(seed);
  const real G = units::G_code;
  for (int trial = 0; trial < 200; ++trial) {
    const real dx = rng.uniform(1e-3, 1.0);
    P tx, ty, tz;
    for (int l = 0; l < P::size(); ++l) {
      tx.set(l, rng.uniform(-4, 4));
      ty.set(l, rng.uniform(-4, 4));
      tz.set(l, rng.uniform(-4, 4));
    }
    pack_expansion<P> full, mono, mixed;
    for (int s = 0; s < 40; ++s) {
      pack_multipole<P> src;
      for (int l = 0; l < P::size(); ++l) {
        const real kind = rng.uniform();
        const bool empty = kind < 0.15;
        src.m.set(l, (empty || kind < 0.25) ? real(0) : rng.uniform(0, 3));
        const real off[3] = {rng.uniform(2, 7) * dx, rng.uniform(-7, 7) * dx,
                             rng.uniform(-7, 7) * dx};
        src.cx.set(l, empty ? real(1e30) : tx[l] - off[0]);
        src.cy.set(l, empty ? real(1e30) : ty[l] - off[1]);
        src.cz.set(l, empty ? real(1e30) : tz[l] - off[2]);
      }
      for (auto& q : src.q) q = P(0);
      for (auto& o : src.o) o = P(0);
      const P rx = tx - src.cx, ry = ty - src.cy, rz = tz - src.cz;
      const P rinv = inv_distance(rx, ry, rz);
      pack_derivs<P> d;
      compute_derivs(rx, ry, rz, rinv, G, d);
      m2l_pack<P, false>(src, d, full);
      // Like the solver, `mixed` switches paths from source to source.  In
      // that shape GCC 12.2 once fused the monopole path's products on the
      // scalar ABI (see simd_detail::scalar_barrier).
      if (s % 3 == 0) {
        m2l_pack<P, false>(src, d, mixed);
      } else {
        m2l_monopole_pack(src.m, rx, ry, rz, rinv, G, mixed);
      }
      m2l_monopole_pack(src.m, rx, ry, rz, rinv, G, mono);
    }
    for (const auto* acc : {&mono, &mixed})
      for (int l = 0; l < P::size(); ++l) {
        ASSERT_EQ(bits_of(full.l0[l]), bits_of(acc->l0[l]))
            << "trial " << trial << " lane " << l;
        for (int a = 0; a < 3; ++a)
          ASSERT_EQ(bits_of(full.l1[a][l]), bits_of(acc->l1[a][l]))
              << "trial " << trial << " lane " << l << " L1[" << a << "]";
      }
  }
}

TEST(GravityKernels, MonopolePathMatchesFullPackBitwise) {
  // The solver sends leaf-source packs on leaf targets through the
  // monopole path; the golden signatures rely on this being bit-exact.
  // Checked here directly so hosts whose build fingerprint has no recorded
  // goldens still guard it.
  expect_monopole_path_matches_full_pack<
      simd<real, simd_abi::native<real>>>(11);
  expect_monopole_path_matches_full_pack<simd<real, simd_abi::scalar>>(12);
}

TEST_F(GravityEnv, ScalarAndSimdKernelsAgree) {
  tree::topology topo(1.0, 2, uniform_to(2));
  gravity_options o1, o2;
  o1.use_simd = false;
  o2.use_simd = true;
  fmm_solver f1(topo, o1), f2(topo, o2);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 77);
    f1.set_leaf_density(leaf, rho);
    f2.set_leaf_density(leaf, rho);
  }
  f1.solve();
  f2.solve();
  for (const index_t leaf : topo.leaves()) {
    auto a = f1.phi(leaf), b = f2.phi(leaf);
    for (int c = 0; c < 512; ++c)
      ASSERT_NEAR(a[c], b[c], 1e-11 * std::abs(a[c]));
  }
}

class ChunkInvariance : public testing::TestWithParam<int> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};

  /// Solve with m2l_chunks = 1 and = GetParam(); every expansion and
  /// output must match bit for bit (the root always runs as row tasks).
  void expect_chunk_invariant(const tree::topology& topo,
                              std::uint64_t seed) {
    gravity_options ref_opt;
    ref_opt.m2l_chunks = 1;
    fmm_solver ref(topo, ref_opt);
    gravity_options opt;
    opt.m2l_chunks = GetParam();
    fmm_solver fmm(topo, opt);
    for (const index_t leaf : topo.leaves()) {
      const auto rho = blob_density(topo, leaf, seed);
      ref.set_leaf_density(leaf, rho);
      fmm.set_leaf_density(leaf, rho);
    }
    ref.solve();
    fmm.solve();
    const auto expect_bitwise = [](std::span<const real> a,
                                   std::span<const real> b, index_t node,
                                   const char* what) {
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t c = 0; c < a.size(); ++c)
        ASSERT_EQ(bits_of(a[c]), bits_of(b[c]))
            << what << " node " << node << " slot " << c;
    };
    for (index_t n = 0; n < topo.num_nodes(); ++n)
      expect_bitwise(ref.raw_expansions(n), fmm.raw_expansions(n), n, "exp");
    for (const index_t leaf : topo.leaves()) {
      expect_bitwise(ref.phi(leaf), fmm.phi(leaf), leaf, "phi");
      expect_bitwise(ref.gx(leaf), fmm.gx(leaf), leaf, "gx");
      expect_bitwise(ref.gy(leaf), fmm.gy(leaf), leaf, "gy");
      expect_bitwise(ref.gz(leaf), fmm.gz(leaf), leaf, "gz");
    }
  }
};

TEST_P(ChunkInvariance, ChunkCountDoesNotChangeResult) {
  // The paper's Fig. 9 knob is performance-only: results must be identical.
  tree::topology topo(1.0, 1, uniform_to(1));
  expect_chunk_invariant(topo, 3);
}

TEST_P(ChunkInvariance, AmrTreeWithMixedNeighbors) {
  // Level-1 leaves beside refined level-1 nodes: their packs mix monopole
  // (leaf) and multipole (refined) sources, and chunked rows split both.
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  bool mixed = false;
  for (const index_t leaf : topo.leaves()) {
    bool leaf_nb = false, refined_nb = false;
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const index_t nb = topo.neighbor(leaf, d);
      if (nb == tree::invalid_node) continue;
      (topo.node(nb).leaf ? leaf_nb : refined_nb) = true;
    }
    mixed = mixed || (leaf_nb && refined_nb);
  }
  ASSERT_TRUE(mixed);
  expect_chunk_invariant(topo, 19);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkInvariance, testing::Values(2, 4, 16));

TEST_F(GravityEnv, UniformSphereInteriorField) {
  // g(r) = -4/3 pi G rho r inside a uniform sphere.
  tree::topology topo(1.0, 2, uniform_to(2));
  fmm_solver fmm(topo);
  const real R = 0.6, rho0 = 1.0;
  for (const index_t leaf : topo.leaves()) {
    std::vector<real> rho(512);
    const rvec3 c = topo.center(leaf);
    const real dx = topo.cell_width(leaf);
    const real half = 0.5 * 8 * dx;
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const rvec3 x{c.x - half + (i + 0.5) * dx,
                        c.y - half + (j + 0.5) * dx,
                        c.z - half + (k + 0.5) * dx};
          rho[static_cast<std::size_t>((i * 8 + j) * 8 + k)] =
              norm(x) < R ? rho0 : 0.0;
        }
    fmm.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  // probe a mid-radius cell on the +x axis
  const real pi = 3.14159265358979323846;
  real worst = 0;
  for (const index_t leaf : topo.leaves()) {
    const rvec3 c = topo.center(leaf);
    if (std::abs(c.y) > 0.2 || std::abs(c.z) > 0.2) continue;
    auto gx = fmm.gx(leaf);
    const real dx = topo.cell_width(leaf);
    const real half = 0.5 * 8 * dx;
    for (int i = 0; i < 8; ++i) {
      const real x = c.x - half + (i + 0.5) * dx;
      if (std::abs(x) < 0.15 * R || std::abs(x) > 0.8 * R) continue;
      // stay near the axis: j,k at the cells closest to y=z=0
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const real y = c.y - half + (j + 0.5) * dx;
          const real z = c.z - half + (k + 0.5) * dx;
          if (std::abs(y) > dx || std::abs(z) > dx) continue;
          const real r = std::sqrt(x * x + y * y + z * z);
          const real expect = -4.0 / 3.0 * pi * rho0 * x;
          const real got = gx[(i * 8 + j) * 8 + k];
          worst = std::max(worst,
                           std::abs(got - expect) /
                               (4.0 / 3.0 * pi * rho0 * r));
        }
    }
  }
  EXPECT_LT(worst, 0.05);  // grid discretization of the sphere dominates
}

TEST_F(GravityEnv, PotentialEnergyNegativeAndMassExact) {
  tree::topology topo(1.0, 1, uniform_to(1));
  fmm_solver fmm(topo);
  real expect_mass = 0;
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 2);
    const real vol = std::pow(topo.cell_width(leaf), 3);
    for (const real r : rho) expect_mass += r * vol;
    fmm.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  EXPECT_NEAR(fmm.total_mass(), expect_mass, 1e-12 * expect_mass);
  EXPECT_LT(fmm.potential_energy(), 0);
}

TEST_F(GravityEnv, TorqueSmallWithOctupoleCorrection) {
  // Angular momentum is not exactly conserved (truncation), but the
  // octupole-corrected interaction keeps the net torque small relative to
  // the naive scale M^2/R.
  tree::topology topo(1.0, 2, uniform_to(2));
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 23));
  fmm.solve();
  const real scale = fmm.total_mass() * fmm.total_mass();
  EXPECT_LT(norm(fmm.total_torque()) / scale, 1e-4);
}

}  // namespace
}  // namespace octo::gravity
