/// Microbenchmarks of the explicit SIMD layer: the same kernel bodies
/// compiled against the scalar ABI and the vector ABI.  These measured
/// speedups ground the machine model's `simd_speedup` (Fig. 7).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.hpp"
#include "gravity/kernels.hpp"
#include "simd/simd.hpp"

namespace {

using octo::real;

template <typename P>
void axpy_kernel(benchmark::State& state) {
  const int n = 4096;
  std::vector<real> x(n + 8), y(n + 8), z(n + 8);
  octo::xoshiro256 rng(1);
  for (auto& v : x) v = rng.uniform();
  for (auto& v : y) v = rng.uniform();
  for (auto _ : state) {
    for (int i = 0; i < n; i += P::size()) {
      P a, b;
      a.copy_from(x.data() + i);
      b.copy_from(y.data() + i);
      const P r = fma(P(1.5), a, b);
      r.copy_to(z.data() + i);
    }
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <typename P>
void rsqrt_kernel(benchmark::State& state) {
  // the gravity kernels' hot pattern: r^2 -> 1/r, 1/r^3, 1/r^5
  const int n = 4096;
  std::vector<real> x(n + 8), out(n + 8);
  octo::xoshiro256 rng(2);
  for (auto& v : x) v = rng.uniform(0.1, 4.0);
  for (auto _ : state) {
    for (int i = 0; i < n; i += P::size()) {
      P r2;
      r2.copy_from(x.data() + i);
      const P rinv = P(1) / sqrt(r2);
      const P rinv3 = rinv * rinv * rinv;
      const P rinv5 = rinv3 * rinv * rinv;
      (rinv + rinv3 + rinv5).copy_to(out.data() + i);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <typename P>
void m2l_kernel(benchmark::State& state) {
  // one Multipole-kernel interaction per lane-pack
  using namespace octo::gravity;
  const int n = 1024;
  std::vector<real> rx(n + 8), ry(n + 8), rz(n + 8), m(n + 8);
  octo::xoshiro256 rng(3);
  for (int i = 0; i < n; ++i) {
    rx[i] = rng.uniform(0.3, 1.0);
    ry[i] = rng.uniform(0.3, 1.0);
    rz[i] = rng.uniform(0.3, 1.0);
    m[i] = rng.uniform();
  }
  for (auto _ : state) {
    pack_expansion<P> acc;
    for (int i = 0; i < n; i += P::size()) {
      P x, y, z, mm;
      x.copy_from(rx.data() + i);
      y.copy_from(ry.data() + i);
      z.copy_from(rz.data() + i);
      mm.copy_from(m.data() + i);
      pack_derivs<P> d;
      compute_derivs(x, y, z, inv_distance(x, y, z), 1.0, d);
      pack_multipole<P> src;
      src.m = mm;
      src.cx = x;
      src.cy = y;
      src.cz = z;
      for (auto& q : src.q) q = mm;
      for (auto& o : src.o) o = mm;
      m2l_pack<P, true>(src, d, acc);
    }
    benchmark::DoNotOptimize(&acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

using scalar_pack = octo::simd<real, octo::simd_abi::scalar>;
using vector_pack = octo::simd<real, octo::simd_abi::native<real>>;

}  // namespace

BENCHMARK(axpy_kernel<scalar_pack>)->Name("axpy/scalar");
BENCHMARK(axpy_kernel<vector_pack>)->Name("axpy/vector");
BENCHMARK(rsqrt_kernel<scalar_pack>)->Name("rsqrt/scalar");
BENCHMARK(rsqrt_kernel<vector_pack>)->Name("rsqrt/vector");
BENCHMARK(m2l_kernel<scalar_pack>)->Name("m2l/scalar");
BENCHMARK(m2l_kernel<vector_pack>)->Name("m2l/vector");

BENCHMARK_MAIN();
