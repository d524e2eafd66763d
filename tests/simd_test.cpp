#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "simd/simd.hpp"

namespace octo {
namespace {

/// Typed test over every ABI the kernels might be compiled with.
template <typename Abi>
struct SimdTest : testing::Test {
  using pack = simd<double, Abi>;
  using mask = simd_mask<double, Abi>;
};

using Abis = testing::Types<simd_abi::scalar, simd_abi::fixed<2>,
                            simd_abi::fixed<4>, simd_abi::fixed<8>>;
TYPED_TEST_SUITE(SimdTest, Abis);

TYPED_TEST(SimdTest, BroadcastAndLanes) {
  using P = typename TestFixture::pack;
  const P v(3.5);
  for (int l = 0; l < P::size(); ++l) EXPECT_DOUBLE_EQ(v[l], 3.5);
}

TYPED_TEST(SimdTest, LoadStoreRoundTrip) {
  using P = typename TestFixture::pack;
  std::vector<double> src(P::size()), dst(P::size());
  for (int l = 0; l < P::size(); ++l) src[static_cast<std::size_t>(l)] = l + 0.25;
  P v;
  v.copy_from(src.data());
  v.copy_to(dst.data());
  EXPECT_EQ(src, dst);
}

TYPED_TEST(SimdTest, Arithmetic) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, l + 1.0);
    b.set(l, 2.0 * l + 1.0);
  }
  const P sum = a + b, diff = a - b, prod = a * b, quot = a / b;
  for (int l = 0; l < P::size(); ++l) {
    EXPECT_DOUBLE_EQ(sum[l], (l + 1.0) + (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ(diff[l], (l + 1.0) - (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ(prod[l], (l + 1.0) * (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ(quot[l], (l + 1.0) / (2.0 * l + 1.0));
    EXPECT_DOUBLE_EQ((-a)[l], -(l + 1.0));
  }
}

TYPED_TEST(SimdTest, RoundedProductIsNotFused) {
  // a + b*c = -2^-60 exactly; fused into one FMA that is what comes out.
  // rounded() must round b*c to 1 first, so the sum is exactly 0.
  using P = typename TestFixture::pack;
  volatile double va = -1.0;
  volatile double vb = 1.0 + std::ldexp(1.0, -30);
  volatile double vc = 1.0 - std::ldexp(1.0, -30);
  const P a(va), b(vb), c(vc);
  const P r = a + rounded(b * c);
  for (int l = 0; l < P::size(); ++l) EXPECT_EQ(r[l], 0.0) << "lane " << l;
}

TYPED_TEST(SimdTest, SqrtMatchesScalarSqrtBitwise) {
  // Lane-wise sqrt compiles to a vector sqrt instruction; IEEE sqrt is
  // correctly rounded, so every lane must equal std::sqrt bit for bit,
  // edge inputs included (negative inputs give NaN).
  using P = typename TestFixture::pack;
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  using lim = std::numeric_limits<double>;
  std::vector<double> in = {0.0,          -0.0,
                            lim::denorm_min(), lim::min() / 3,
                            lim::min(),   lim::max(),
                            lim::infinity(), lim::quiet_NaN(),
                            -1.0,         -lim::infinity(),
                            -lim::denorm_min(), 1.0,
                            2.0,          0.25};
  xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i)
    in.push_back(std::ldexp(rng.uniform(1, 2),
                            static_cast<int>(rng.below(200)) - 100));
  const auto W = static_cast<std::size_t>(P::size());
  while (in.size() % W != 0) in.push_back(3.0);
  for (std::size_t i = 0; i < in.size(); i += W) {
    P v;
    v.copy_from(in.data() + i);
    const P r = sqrt(v);
    for (int l = 0; l < P::size(); ++l) {
      const double x = in[i + static_cast<std::size_t>(l)];
      const double want = std::sqrt(x);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(r[l])) << "sqrt(" << x << ") lane " << l;
      } else {
        EXPECT_EQ(bits(r[l]), bits(want)) << "sqrt(" << x << ") lane " << l;
      }
    }
  }
}

TYPED_TEST(SimdTest, CompoundAssign) {
  using P = typename TestFixture::pack;
  P a(2.0);
  a += P(3.0);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  a *= P(2.0);
  EXPECT_DOUBLE_EQ(a[0], 10.0);
  a -= P(1.0);
  EXPECT_DOUBLE_EQ(a[0], 9.0);
  a /= P(3.0);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
}

TYPED_TEST(SimdTest, ComparisonsAndMasks) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, 1.0);
  }
  const auto lt = a < b;
  for (int l = 0; l < P::size(); ++l) EXPECT_EQ(lt[l], l < 1);
  EXPECT_EQ(popcount(lt), std::min(1, P::size()));
  EXPECT_EQ(any_of(lt), true);
  EXPECT_EQ(all_of(a >= P(0.0)), true);
  EXPECT_TRUE(none_of(a < P(0.0)));
}

TYPED_TEST(SimdTest, MaskLogic) {
  using P = typename TestFixture::pack;
  P a;
  for (int l = 0; l < P::size(); ++l) a.set(l, static_cast<double>(l));
  const auto m1 = a > P(-1.0);   // all true
  const auto m2 = a < P(-1.0);   // all false
  EXPECT_TRUE(all_of(m1 || m2));
  EXPECT_TRUE(none_of(m1 && m2));
  EXPECT_TRUE(all_of(!m2));
}

TYPED_TEST(SimdTest, Select) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, 100.0 + l);
  }
  const P r = select(a < P(2.0), a, b);
  for (int l = 0; l < P::size(); ++l)
    EXPECT_DOUBLE_EQ(r[l], l < 2 ? l : 100.0 + l);
}

TYPED_TEST(SimdTest, WhereAssignment) {
  using P = typename TestFixture::pack;
  P a;
  for (int l = 0; l < P::size(); ++l) a.set(l, static_cast<double>(l));
  where(a > P(0.5), a) = P(-1.0);
  for (int l = 0; l < P::size(); ++l)
    EXPECT_DOUBLE_EQ(a[l], l > 0.5 ? -1.0 : l);
  P b(2.0);
  where(b > P(1.0), b) += P(3.0);
  EXPECT_DOUBLE_EQ(b[0], 5.0);
}

TYPED_TEST(SimdTest, Reductions) {
  using P = typename TestFixture::pack;
  P a;
  double expect_sum = 0;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, l + 1.0);
    expect_sum += l + 1.0;
  }
  EXPECT_DOUBLE_EQ(reduce(a), expect_sum);
  EXPECT_DOUBLE_EQ(hmin(a), 1.0);
  EXPECT_DOUBLE_EQ(hmax(a), static_cast<double>(P::size()));
}

TYPED_TEST(SimdTest, MathFunctions) {
  using P = typename TestFixture::pack;
  P a;
  for (int l = 0; l < P::size(); ++l) a.set(l, (l + 1.0) * (l + 1.0));
  const P r = sqrt(a);
  for (int l = 0; l < P::size(); ++l) EXPECT_DOUBLE_EQ(r[l], l + 1.0);

  P s;
  for (int l = 0; l < P::size(); ++l) s.set(l, l % 2 == 0 ? -2.0 : 3.0);
  const P ab = abs(s);
  for (int l = 0; l < P::size(); ++l)
    EXPECT_DOUBLE_EQ(ab[l], l % 2 == 0 ? 2.0 : 3.0);

  EXPECT_DOUBLE_EQ(min(P(2.0), P(5.0))[0], 2.0);
  EXPECT_DOUBLE_EQ(max(P(2.0), P(5.0))[0], 5.0);
  EXPECT_DOUBLE_EQ(fma(P(2.0), P(3.0), P(4.0))[0], 10.0);
  EXPECT_DOUBLE_EQ(copysign(P(2.0), P(-7.0))[0], -2.0);
}

TYPED_TEST(SimdTest, MinMaxLanewise) {
  using P = typename TestFixture::pack;
  P a, b;
  for (int l = 0; l < P::size(); ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, static_cast<double>(P::size() - l));
  }
  const P mn = min(a, b), mx = max(a, b);
  for (int l = 0; l < P::size(); ++l) {
    EXPECT_DOUBLE_EQ(mn[l], std::min<double>(l, P::size() - l));
    EXPECT_DOUBLE_EQ(mx[l], std::max<double>(l, P::size() - l));
  }
}

TEST(SimdDefaults, NativeWidthIsCapped) {
  // 64-byte vectors are disabled (GCC 12 AVX-512 miscompilation; see
  // simd.hpp).  The default must be at most 4 doubles wide here.
  EXPECT_LE(simd<double>::size(), 4);
  EXPECT_GE(simd<double>::size(), 1);
}

TEST(SimdHelpers, PackCounts) {
  using P4 = simd<double, simd_abi::fixed<4>>;
  EXPECT_EQ(simd_full_packs<P4>(8), 2);
  EXPECT_EQ(simd_remainder<P4>(8), 0);
  EXPECT_EQ(simd_full_packs<P4>(10), 2);
  EXPECT_EQ(simd_remainder<P4>(10), 2);
}

TEST(SimdGather, StridedLoad) {
  using P = simd<double, simd_abi::fixed<4>>;
  std::vector<double> data(16);
  for (int i = 0; i < 16; ++i) data[static_cast<std::size_t>(i)] = i;
  P v;
  v.gather(data.data(), 4);
  for (int l = 0; l < 4; ++l) EXPECT_DOUBLE_EQ(v[l], 4.0 * l);
}

}  // namespace
}  // namespace octo
