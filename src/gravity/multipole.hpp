#pragma once
/// \file multipole.hpp
/// Cartesian multipole moments (to octupole) and local Taylor expansions
/// (to third order), with the exact shift operators used by M2M and L2L.
///
/// Conventions (matching the derivation in DESIGN.md / Octo-Tiger):
///   * moments are *central* moments about the cell's center of mass, so the
///     dipole vanishes identically;
///   * the potential of a source cell at target displacement R is
///       phi(R) = M D0 + 1/2 Q : D2 - 1/6 O : D3,
///     with D_n the n-th derivative tensor of -G/|R|;
///   * local expansions L0..L3 are the Taylor coefficients of phi about the
///     target cell's center of mass; acceleration g = -L1 at the expansion
///     center.
///
/// Because M2M and L2L are exact polynomial identities and every M2L pair is
/// evaluated from both sides with shared derivative tensors, the total force
/// sums to zero and linear momentum is conserved to machine precision — the
/// property §IV-C highlights.  Keeping the octupole term is what makes the
/// angular-momentum error small enough for the paper's coupled
/// energy-conserving scheme.

#include <array>
#include <cmath>

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "common/units.hpp"
#include "simd/simd.hpp"

namespace octo::gravity {

/// Symmetric rank-2 component order: xx, xy, xz, yy, yz, zz.
inline constexpr int NSYM2 = 6;
/// Symmetric rank-3 component order:
/// xxx, xxy, xxz, xyy, xyz, xzz, yyy, yyz, yyz->yzz, zzz.
inline constexpr int NSYM3 = 10;

/// sym2 index of (a, b), a,b in {0,1,2}.
constexpr int sym2_idx(int a, int b) {
  constexpr int map[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
  return map[a][b];
}

/// Multiplicity of each sym2 component in a full contraction.
inline constexpr std::array<real, NSYM2> sym2_mult = {1, 2, 2, 1, 2, 1};

/// sym3 index of (a, b, c).
constexpr int sym3_idx(int a, int b, int c) {
  // sort a <= b <= c
  if (a > b) { const int t = a; a = b; b = t; }
  if (b > c) { const int t = b; b = c; c = t; }
  if (a > b) { const int t = a; a = b; b = t; }
  // (0,0,0)=0 (0,0,1)=1 (0,0,2)=2 (0,1,1)=3 (0,1,2)=4 (0,2,2)=5
  // (1,1,1)=6 (1,1,2)=7 (1,2,2)=8 (2,2,2)=9
  constexpr int map[3][6] = {
      // indexed by a, then sym2_idx(b, c) restricted to b <= c
      {0, 1, 2, 3, 4, 5},     // a == 0
      {-1, -1, -1, 6, 7, 8},  // a == 1 (b >= 1)
      {-1, -1, -1, -1, -1, 9} // a == 2 (b >= 2)
  };
  return map[a][sym2_idx(b, c)];
}

/// Multiplicity of each sym3 component in a full contraction.
inline constexpr std::array<real, NSYM3> sym3_mult = {1, 3, 3, 3, 6,
                                                      3, 1, 3, 3, 1};

/// The (a, b, c) triple of each sym3 slot (a <= b <= c).
inline constexpr std::array<std::array<int, 3>, NSYM3> sym3_abc = {{
    {0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 1, 1}, {0, 1, 2},
    {0, 2, 2}, {1, 1, 1}, {1, 1, 2}, {1, 2, 2}, {2, 2, 2},
}};

/// Multipole moments of one cell about its center of mass.
struct multipole {
  real m = 0;                         ///< monopole (mass)
  rvec3 com{0, 0, 0};                 ///< center of mass (absolute)
  std::array<real, NSYM2> q{};        ///< second central moment
  std::array<real, NSYM3> o{};        ///< third central moment
};

/// Local Taylor expansion about a cell's center of mass.
struct expansion {
  real l0 = 0;
  std::array<real, 3> l1{};
  std::array<real, NSYM2> l2{};
  std::array<real, NSYM3> l3{};

  expansion& operator+=(const expansion& e) {
    l0 += e.l0;
    for (int i = 0; i < 3; ++i) l1[i] += e.l1[i];
    for (int i = 0; i < NSYM2; ++i) l2[i] += e.l2[i];
    for (int i = 0; i < NSYM3; ++i) l3[i] += e.l3[i];
    return *this;
  }
};

/// Derivative tensors of -G/|R| at displacement R (target minus source).
struct deriv_tensors {
  real d0 = 0;
  std::array<real, 3> d1{};
  std::array<real, NSYM2> d2{};
  std::array<real, NSYM3> d3{};
};

// The scalar kernels below are fully unrolled and force-inlined into the
// solver's root, M2M and L2L passes.  Each `a * b + c` is written either
// as mul_add() (one rounding on FMA targets) or with the product pinned by
// scalar_barrier() (two roundings): exactly the roundings these kernels had
// as rolled loops, where GCC's contraction decided them.  Unrolled, that
// decision would depend on which products CSE happens to share.

/// Compute D0..D3 at displacement \p r (must be nonzero).
[[gnu::always_inline]] inline deriv_tensors derivatives(
    const rvec3& r, real G = units::G_code) {
  using simd_detail::mul_add;
  using simd_detail::scalar_barrier;
  deriv_tensors d;
  // |r|^2 as dot(r, r) compiled here: y*y rounded, x*x and z*z fused.
  const real r2 = mul_add(r.z, r.z, mul_add(r.x, r.x, r.y * r.y));
  const real rinv = real(1) / std::sqrt(r2);
  const real rinv2 = rinv * rinv;
  const real rinv3 = rinv * rinv2;
  const real rinv5 = rinv3 * rinv2;
  const real rinv7 = rinv5 * rinv2;
  d.d0 = -G * rinv;
  const real c1 = G * rinv3;
  d.d1 = {c1 * r.x, c1 * r.y, c1 * r.z};
  const real c2 = -3 * G * rinv5;
#pragma GCC unroll 3
  for (int a = 0; a < 3; ++a)
#pragma GCC unroll 3
    for (int b = a; b < 3; ++b)
      d.d2[sym2_idx(a, b)] =
          scalar_barrier(c2 * r[a] * r[b]) + (a == b ? G * rinv3 : 0);
  const real c3 = 15 * G * rinv7;
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    const real corr = (a == b ? r[c] : real(0)) + (a == c ? r[b] : real(0)) +
                      (b == c ? r[a] : real(0));
    d.d3[s] = mul_add(c2, corr, scalar_barrier(c3 * r[a] * r[b] * r[c]));
  }
  return d;
}

/// Accumulate the M2L contribution of \p src into the expansion at a target
/// whose COM is at displacement R = target_com - src.com (precomputed D).
[[gnu::always_inline]] inline void m2l_accumulate(const multipole& src,
                                                  const deriv_tensors& d,
                                                  expansion& tgt) {
  using simd_detail::mul_add;
  using simd_detail::scalar_barrier;
  // L0 = M D0 + 1/2 Q:D2 - 1/6 O:D3, every product rounded.
  real l0 = scalar_barrier(src.m * d.d0);
#pragma GCC unroll 6
  for (int s = 0; s < NSYM2; ++s)
    l0 += scalar_barrier(real(0.5) * sym2_mult[s] * src.q[s] * d.d2[s]);
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s)
    l0 -= scalar_barrier((real(1) / 6) * sym3_mult[s] * src.o[s] * d.d3[s]);
  tgt.l0 += l0;

  // L1_i = M D1_i + 1/2 Q_jk D3_ijk
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) {
    real l1 = scalar_barrier(src.m * d.d1[i]);
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j)
#pragma GCC unroll 3
      for (int k = j; k < 3; ++k) {
        const real mult = (j == k) ? 1 : 2;
        l1 = mul_add(real(0.5) * mult * src.q[sym2_idx(j, k)],
                     d.d3[sym3_idx(i, j, k)], l1);
      }
    tgt.l1[i] += l1;
  }

  // L2 = M D2,  L3 = M D3 (higher source moments truncated at total order 3)
#pragma GCC unroll 6
  for (int s = 0; s < NSYM2; ++s) tgt.l2[s] = mul_add(src.m, d.d2[s], tgt.l2[s]);
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s) tgt.l3[s] = mul_add(src.m, d.d3[s], tgt.l3[s]);
}

/// M2M: fold child moments (about child COM) into parent moments (about the
/// already-computed parent COM).  Call once per child after setting
/// parent.m and parent.com.
[[gnu::always_inline]] inline void m2m_accumulate(const multipole& child,
                                                  multipole& parent) {
  using simd_detail::mul_add;
  const rvec3 dv = child.com - parent.com;
  const real d[3] = {dv.x, dv.y, dv.z};
  // O first (uses child's Q before it is folded)
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    real o = mul_add(child.q[sym2_idx(a, b)], d[c], child.o[s]);
    o = mul_add(child.q[sym2_idx(b, c)], d[a], o);
    o = mul_add(child.q[sym2_idx(a, c)], d[b], o);
    parent.o[s] += mul_add(child.m * d[a] * d[b], d[c], o);
  }
#pragma GCC unroll 3
  for (int a = 0; a < 3; ++a)
#pragma GCC unroll 3
    for (int b = a; b < 3; ++b)
      parent.q[sym2_idx(a, b)] +=
          mul_add(child.m * d[a], d[b], child.q[sym2_idx(a, b)]);
}

/// L2L: shift a parent expansion (about parent COM) to a child expansion
/// point displaced by h = child_com - parent_com; accumulates into \p out.
[[gnu::always_inline]] inline void l2l_shift(const expansion& in,
                                             const rvec3& hv, expansion& out) {
  using simd_detail::mul_add;
  const real h[3] = {hv.x, hv.y, hv.z};
  // L0
  real l0 = in.l0;
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) l0 = mul_add(in.l1[i], h[i], l0);
#pragma GCC unroll 3
  for (int a = 0; a < 3; ++a)
#pragma GCC unroll 3
    for (int b = a; b < 3; ++b) {
      const real mult = (a == b) ? 1 : 2;
      l0 = mul_add(real(0.5) * mult * in.l2[sym2_idx(a, b)] * h[a], h[b], l0);
    }
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    l0 = mul_add((real(1) / 6) * sym3_mult[s] * in.l3[s] * h[a] * h[b], h[c],
                 l0);
  }
  out.l0 += l0;
  // L1
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) {
    real l1 = in.l1[i];
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j) l1 = mul_add(in.l2[sym2_idx(i, j)], h[j], l1);
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j)
#pragma GCC unroll 3
      for (int k = j; k < 3; ++k) {
        const real mult = (j == k) ? 1 : 2;
        l1 = mul_add(real(0.5) * mult * in.l3[sym3_idx(i, j, k)] * h[j], h[k],
                     l1);
      }
    out.l1[i] += l1;
  }
  // L2
#pragma GCC unroll 3
  for (int a = 0; a < 3; ++a)
#pragma GCC unroll 3
    for (int b = a; b < 3; ++b) {
      real l2 = in.l2[sym2_idx(a, b)];
#pragma GCC unroll 3
      for (int k = 0; k < 3; ++k)
        l2 = mul_add(in.l3[sym3_idx(a, b, k)], h[k], l2);
      out.l2[sym2_idx(a, b)] += l2;
    }
  // L3
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s) out.l3[s] += in.l3[s];
}

}  // namespace octo::gravity
