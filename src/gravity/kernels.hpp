#pragma once
/// \file kernels.hpp
/// SIMD pack versions of the gravity interaction kernels.
///
/// These are the paper's two hot Kokkos kernels: the *Multipole kernel*
/// (same-level cell-to-cell M2L, split into multiple HPX tasks in Fig. 9)
/// and the *Monopole/P2P kernel* (near-field direct sums on leaves).  Both
/// are templated on the SIMD pack.  A pack holds the cells k = q, q+2, ...
/// of one (i, j) row, all of one k-parity q, read from the solver's
/// parity-major halo; so every lane shares one interaction stencil.
///
/// M2L has two source classes, as in Octo-Tiger's split stencil kernels:
/// multipole sources (cells of refined nodes, with q and o) go through
/// m2l_pack(); monopole sources (leaf cells, whose q and o are zero) feeding
/// a leaf target go through m2l_monopole_pack(), which skips D2/D3 and
/// reproduces m2l_pack<P, false>'s bits.
///
/// Straight-line code, fixed bits.  Every tensor loop carries
/// `#pragma GCC unroll` and every kernel is force-inlined, so a source pack's
/// whole interaction compiles to one block of vector arithmetic with
/// constant component indices.  In one block GCC may fuse a product into a
/// neighbouring add (-ffp-contract=fast), and which one depends on the
/// caller.  So each rounding is stated: `fma()` fuses, and where a rolled
/// loop or a call boundary used to keep a product rounded, `rounded()` pins
/// it.  The kernels give the bits they gave as rolled loops; each pin says
/// which product it keeps.

#include "common/types.hpp"
#include "gravity/multipole.hpp"
#include "simd/simd.hpp"

namespace octo::gravity {

/// Moment component indices in the SoA node arrays.
enum moment_comp : int {
  mc_m = 0,
  mc_cx = 1,
  mc_cy = 2,
  mc_cz = 3,
  mc_q = 4,   // 6 components: 4..9
  mc_o = 10,  // 10 components: 10..19
};
inline constexpr int NMOM = 20;

/// Expansion component indices.
enum exp_comp : int {
  ec_l0 = 0,
  ec_l1 = 1,  // 3 components: 1..3
  ec_l2 = 4,  // 6 components: 4..9
  ec_l3 = 10  // 10 components: 10..19
};
inline constexpr int NEXP = 20;

/// Derivative tensors of -G/|R| on SIMD packs.
template <typename P>
struct pack_derivs {
  P d0;
  P d1[3];
  P d2[NSYM2];
  P d3[NSYM3];
};

/// 1/|R| for displacement R.  Both M2L paths of a source pack start from
/// it; the solver computes it once, before choosing the path, so the two
/// paths cannot be compiled into different roundings of |R|^2.  As in the
/// former out-of-line compute_derivs, x*x is rounded and y*y, z*z are fused.
template <typename P>
[[gnu::always_inline]] inline P inv_distance(P rx, P ry, P rz) {
  return P(1) / sqrt(fma(rz, rz, fma(ry, ry, rx * rx)));
}

/// D0..D3 of -G/|R| at displacement R, given \p rinv = inv_distance(R).
template <typename P>
[[gnu::always_inline]] inline void compute_derivs(P rx, P ry, P rz, P rinv,
                                                  real G, pack_derivs<P>& d) {
  const P r[3] = {rx, ry, rz};
  const P rinv2 = rinv * rinv;
  const P rinv3 = rinv * rinv2;
  const P rinv5 = rinv3 * rinv2;
  const P rinv7 = rinv5 * rinv2;
  d.d0 = P(-G) * rinv;
  const P c1 = P(G) * rinv3;
#pragma GCC unroll 3
  for (int a = 0; a < 3; ++a) d.d1[a] = c1 * r[a];
  const P c2 = P(-3 * G) * rinv5;
#pragma GCC unroll 3
  for (int a = 0; a < 3; ++a)
#pragma GCC unroll 3
    for (int b = a; b < 3; ++b) {
      // Pin: the diagonal's `+ c1` is not fused with the product.
      P v = rounded(c2 * r[a] * r[b]);
      if (a == b) v += c1;
      d.d2[sym2_idx(a, b)] = v;
    }
  const P c3 = P(15 * G) * rinv7;
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    // Pin: the product is rounded; c2 * corr is the one fused into the add.
    P v = rounded(c3 * r[a] * r[b] * r[c]);
    P corr(0);
    if (a == b) corr += r[c];
    if (a == c) corr += r[b];
    if (b == c) corr += r[a];
    v += c2 * corr;
    d.d3[s] = v;
  }
}

/// Pack accumulator for a target cell row.
template <typename P>
struct pack_expansion {
  P l0{0};
  P l1[3] = {P(0), P(0), P(0)};
  P l2[NSYM2] = {P(0), P(0), P(0), P(0), P(0), P(0)};
  P l3[NSYM3] = {P(0), P(0), P(0), P(0), P(0),
                 P(0), P(0), P(0), P(0), P(0)};
};

/// Source moments for a pack of cells.
template <typename P>
struct pack_multipole {
  P m;
  P cx, cy, cz;
  P q[NSYM2];
  P o[NSYM3];
};

/// Accumulate M2L into the target accumulator.  When \p Full is false the
/// target keeps only L0/L1 (leaf cells are monopoles: their L2/L3 would
/// multiply vanishing internal moments — Octo-Tiger's cheaper "monopole"
/// variant of the interaction kernel).
template <typename P, bool Full>
[[gnu::always_inline]] inline void m2l_pack(const pack_multipole<P>& src,
                                            const pack_derivs<P>& d,
                                            pack_expansion<P>& acc) {
  // L0 = M D0 + 1/2 Q:D2 - 1/6 O:D3.  Pin: M D0 (and M D1_i in L1 below)
  // is rounded before it enters the fma chain.  It is only the addend of
  // an fma(), yet unpinned the solver's scalar-ABI M2L changed bits.
  P l0 = rounded(src.m * d.d0);
#pragma GCC unroll 6
  for (int s = 0; s < NSYM2; ++s)
    l0 = fma(P(real(0.5) * sym2_mult[s]) * src.q[s], d.d2[s], l0);
#pragma GCC unroll 10
  for (int s = 0; s < NSYM3; ++s)
    l0 = fma(P(-(real(1) / 6) * sym3_mult[s]) * src.o[s], d.d3[s], l0);
  acc.l0 += l0;

  // L1_i = M D1_i + 1/2 Q_jk D3_ijk
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) {
    P l1 = rounded(src.m * d.d1[i]);
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j)
#pragma GCC unroll 3
      for (int k = j; k < 3; ++k) {
        const real mult = (j == k) ? real(0.5) : real(1);
        l1 = fma(P(mult) * src.q[sym2_idx(j, k)], d.d3[sym3_idx(i, j, k)],
                 l1);
      }
    acc.l1[i] += l1;
  }

  if constexpr (Full) {
#pragma GCC unroll 6
    for (int s = 0; s < NSYM2; ++s)
      acc.l2[s] = fma(src.m, d.d2[s], acc.l2[s]);
#pragma GCC unroll 10
    for (int s = 0; s < NSYM3; ++s)
      acc.l3[s] = fma(src.m, d.d3[s], acc.l3[s]);
  }
}

/// m2l_pack<P, false> for a source with q = o = 0: L0 += M D0, L1 += M D1,
/// with D0 and D1 formed exactly as compute_derivs() forms them from the
/// same \p rinv.  In m2l_pack every q/o term then adds an exact zero, so its
/// result is the rounded product M D; `rounded()` keeps the compiler from
/// fusing that product into the accumulation, which would change the bits.
template <typename P>
[[gnu::always_inline]] inline void m2l_monopole_pack(P src_m, P rx, P ry,
                                                     P rz, P rinv, real G,
                                                     pack_expansion<P>& acc) {
  const P rinv2 = rinv * rinv;
  const P rinv3 = rinv * rinv2;
  const P d0 = P(-G) * rinv;
  const P c1 = P(G) * rinv3;
  acc.l0 += rounded(src_m * d0);
  acc.l1[0] += rounded(src_m * (c1 * rx));
  acc.l1[1] += rounded(src_m * (c1 * ry));
  acc.l1[2] += rounded(src_m * (c1 * rz));
}

/// Monopole-monopole near-field contribution (exact): only D0/D1 needed.
template <typename P>
[[gnu::always_inline]] inline void p2p_pack(P src_m, P rx, P ry, P rz, real G,
                                            pack_expansion<P>& acc) {
  const P rinv = inv_distance(rx, ry, rz);
  const P rinv3 = rinv * rinv * rinv;
  acc.l0 = fma(P(-G) * src_m, rinv, acc.l0);
  const P c1 = P(G) * src_m * rinv3;
  acc.l1[0] = fma(c1, rx, acc.l1[0]);
  acc.l1[1] = fma(c1, ry, acc.l1[1]);
  acc.l1[2] = fma(c1, rz, acc.l1[2]);
}

}  // namespace octo::gravity
