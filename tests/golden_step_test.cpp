/// Frozen golden oracle for the step drivers.
///
/// Each scenario below is run from initialize() for four steps and reduced
/// to a 64-bit state signature after initialize() ("init") and after the
/// fourth step ("step4").  The signatures are compared against
/// tests/data/golden_step_signatures.txt, recorded once from a trusted
/// build.  The signature folds, in leaf order, every leaf's CRC-32 over its
/// owned conserved cells (invariant_auditor::leaf_crc), the bits of the
/// next dt, and a CRC over each leaf's phi/gx/gy/gz (single process) or
/// the bits of the gravitational energy (cluster).
///
/// `-march=native` makes floating-point bits host-specific, so every
/// signature is keyed by a build fingerprint: the compiler's __VERSION__,
/// the build type, native SIMD on/off, and __FMA__/__AVX2__/__AVX512F__.
/// On a fingerprint with no recorded signatures the test skips, names the
/// fingerprint, and prints the lines that would record it.  On a recorded
/// fingerprint any mismatch fails, naming the scenario and the step.
/// Re-recording is a reviewed change: paste the printed lines into the data
/// file and explain why the bits moved.
///
/// GoldenKernels.GravityKernelBits freezes the gravity kernels themselves:
/// CRCs of their outputs on seeded inputs, per kernel and per SIMD ABI.
/// It pins the rounding of every product the compiler could fuse, also on
/// the scalar ABI, which no step scenario runs.
///
/// Every scenario pins sim_options::mode, so OCTO_STEP_MODE in the
/// environment cannot change which schedule a golden run executes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "app/invariants.hpp"
#include "app/simulation.hpp"
#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "common/random.hpp"
#include "dist/cluster.hpp"
#include "gravity/kernels.hpp"
#include "gravity/solver.hpp"
#include "scenarios/scenarios.hpp"

#ifndef OCTO_REPO_ROOT
#error "golden_step_test needs OCTO_REPO_ROOT"
#endif
#ifndef OCTO_GOLDEN_BUILD_TYPE
#define OCTO_GOLDEN_BUILD_TYPE "unknown"
#endif
#ifndef OCTO_GOLDEN_NATIVE_SIMD
#define OCTO_GOLDEN_NATIVE_SIMD "unknown"
#endif

namespace octo {
namespace {

constexpr int kSteps = 4;

std::string build_fingerprint() {
  std::ostringstream os;
  os << "compiler=" << __VERSION__ << ";build=" << OCTO_GOLDEN_BUILD_TYPE
     << ";native_simd=" << OCTO_GOLDEN_NATIVE_SIMD << ";fma="
#ifdef __FMA__
     << 1
#else
     << 0
#endif
     << ";avx2="
#ifdef __AVX2__
     << 1
#else
     << 0
#endif
     << ";avx512f="
#ifdef __AVX512F__
     << 1;
#else
     << 0;
#endif
  return os.str();
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// FNV-1a style 64-bit fold (the same shape as the SDC vote's ballot).
struct sig_fold {
  std::uint64_t sig = 1469598103934665603ull;
  void add(std::uint64_t v) { sig = (sig ^ v) * 1099511628211ull; }
  void add_real(real x) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(real), "real must be 64-bit");
    std::memcpy(&bits, &x, sizeof(bits));
    add(bits);
  }
};

std::string fingerprint_key() {
  const std::string fp = build_fingerprint();
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : fp) h = (h ^ c) * 1099511628211ull;
  return hex64(h);
}

std::uint32_t gravity_crc(const gravity::fmm_solver& g, index_t leaf) {
  std::uint32_t c = 0;
  for (const auto& s : {g.phi(leaf), g.gx(leaf), g.gy(leaf), g.gz(leaf)})
    c = crc32(s.data(), s.size() * sizeof(real), c);
  return c;
}

std::uint64_t signature(const app::simulation& sim) {
  sig_fold f;
  for (const index_t l : sim.topo().leaves())
    f.add(app::invariant_auditor::leaf_crc(sim.leaf(l)));
  f.add_real(sim.dt());
  if (sim.options().self_gravity)
    for (const index_t l : sim.topo().leaves())
      f.add(gravity_crc(sim.gravity(), l));
  return f.sig;
}

std::uint64_t signature(const dist::cluster& cl, bool self_gravity) {
  sig_fold f;
  for (const index_t l : cl.topo().leaves())
    f.add(app::invariant_auditor::leaf_crc(cl.leaf(l)));
  f.add_real(cl.dt());
  if (self_gravity) f.add_real(cl.measure().pot_energy);
  return f.sig;
}

/// golden[fingerprint key][scenario + " " + stage] = signature.
using golden_table =
    std::map<std::string, std::map<std::string, std::uint64_t>>;

const golden_table& golden() {
  static const golden_table table = [] {
    golden_table t;
    std::ifstream in(std::string(OCTO_REPO_ROOT) +
                     "/tests/data/golden_step_signatures.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string fp, scenario, stage, sig;
      if (!(ls >> fp >> scenario >> stage >> sig)) continue;
      t[fp][scenario + " " + stage] = std::stoull(sig, nullptr, 16);
    }
    return t;
  }();
  return table;
}

/// Compare (or, on an unrecorded fingerprint, skip and print) the
/// signatures of one scenario, in stage order.
void check(const std::string& scenario,
           const std::vector<std::pair<std::string, std::uint64_t>>& got) {
  const std::string key = fingerprint_key();
  const auto fp = golden().find(key);
  if (fp == golden().end()) {
    std::ostringstream rec;
    for (const auto& [stage, sig] : got)
      rec << key << ' ' << scenario << ' ' << stage << ' ' << hex64(sig)
          << '\n';
    GTEST_SKIP() << "no golden signatures recorded for build fingerprint "
                 << key << " (" << build_fingerprint()
                 << "); to record, append:\n# " << key << " = "
                 << build_fingerprint() << '\n'
                 << rec.str();
  }
  for (const auto& [stage, sig] : got) {
    const auto it = fp->second.find(scenario + " " + stage);
    if (it == fp->second.end()) {
      ADD_FAILURE() << "fingerprint " << key
                    << " has no signature for scenario " << scenario
                    << " at " << stage << "; to record, append:\n"
                    << key << ' ' << scenario << ' ' << stage << ' '
                    << hex64(sig);
      continue;
    }
    EXPECT_EQ(hex64(sig), hex64(it->second))
        << "golden mismatch: scenario " << scenario << " at " << stage;
  }
}

/// One shared binary-SCF scenario (the dataflow_equivalence_test setup):
/// copies share the lazily-run SCF backend, so the relaxation runs once.
scen::scenario& dwd_scenario() {
  static scen::scenario sc = scen::dwd();
  return sc;
}

app::sim_options sim_opts(int level, app::step_mode mode) {
  app::sim_options o;
  o.max_level = level;
  o.mode = mode;
  return o;
}

const char* mode_name(app::step_mode m) {
  return m == app::step_mode::dataflow ? "dataflow" : "barrier";
}

struct Golden : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }

  void run_simulation(const scen::scenario& sc, const std::string& name,
                      app::sim_options o) {
    app::simulation sim(sc, o);
    sim.initialize();
    std::vector<std::pair<std::string, std::uint64_t>> got;
    got.emplace_back("init", signature(sim));
    for (int s = 0; s < kSteps; ++s) sim.step();
    got.emplace_back("step4", signature(sim));
    check(name, got);
  }

  void run_cluster(const scen::scenario& sc, const std::string& name,
                   dist::dist_options o) {
    dist::cluster cl(sc, o);
    cl.initialize();
    std::vector<std::pair<std::string, std::uint64_t>> got;
    got.emplace_back("init", signature(cl, o.sim.self_gravity));
    for (int s = 0; s < kSteps; ++s) cl.step();
    got.emplace_back("step4", signature(cl, o.sim.self_gravity));
    check(name, got);
  }
};

TEST_F(Golden, RotatingStarSimulationBarrier) {
  const auto m = app::step_mode::barrier;
  run_simulation(scen::rotating_star(),
                 std::string("rotating_star_l2_sim_") + mode_name(m),
                 sim_opts(2, m));
}

TEST_F(Golden, RotatingStarSimulationDataflow) {
  const auto m = app::step_mode::dataflow;
  run_simulation(scen::rotating_star(),
                 std::string("rotating_star_l2_sim_") + mode_name(m),
                 sim_opts(2, m));
}

void dwd_cluster_case(Golden& t, int nloc, app::step_mode m) {
  dist::dist_options o;
  o.num_localities = nloc;
  o.sim = sim_opts(2, m);
  t.run_cluster(dwd_scenario(),
                "dwd_l2_cluster" + std::to_string(nloc) + "_" + mode_name(m),
                o);
}

TEST_F(Golden, DwdCluster1Barrier) {
  dwd_cluster_case(*this, 1, app::step_mode::barrier);
}
TEST_F(Golden, DwdCluster1Dataflow) {
  dwd_cluster_case(*this, 1, app::step_mode::dataflow);
}
TEST_F(Golden, DwdCluster4Barrier) {
  dwd_cluster_case(*this, 4, app::step_mode::barrier);
}
TEST_F(Golden, DwdCluster4Dataflow) {
  dwd_cluster_case(*this, 4, app::step_mode::dataflow);
}

TEST_F(Golden, SedovCluster4Barrier) {
  dist::dist_options o;
  o.num_localities = 4;
  o.sim = sim_opts(3, app::step_mode::barrier);
  o.sim.self_gravity = false;
  run_cluster(scen::sedov(), "sedov_l3_cluster4_barrier", o);
}

/// One standalone FMM solve on the refined rotating-star tree (level 3, so
/// fine-coarse boundary pairs take part), densities from the scenario's
/// initial data.
TEST_F(Golden, StandaloneFmmSolve) {
  const scen::scenario sc = scen::rotating_star();
  const tree::topology topo = sc.make_topology(3);
  gravity::fmm_solver solver(topo);
  for (const index_t l : topo.leaves()) {
    grid::subgrid u(topo.center(l), topo.cell_width(l));
    sc.init(u);
    solver.set_leaf_from_subgrid(l, u);
  }
  solver.solve();
  sig_fold f;
  for (const index_t l : topo.leaves()) f.add(gravity_crc(solver, l));
  f.add(solver.moments_crc());
  check("fmm_solve_rotating_star_l3", {{"solve", f.sig}});
}

/// CRC of the bits of every lane of \p x, folded into \p c.
template <typename P>
std::uint32_t crc_lanes(const P& x, std::uint32_t c) {
  for (int l = 0; l < P::size(); ++l) {
    const real r = x[l];
    c = crc32(&r, sizeof(r), c);
  }
  return c;
}

template <typename P, std::size_t K>
std::uint32_t crc_lanes(const P (&v)[K], std::uint32_t c) {
  for (const P& x : v) c = crc_lanes(x, c);
  return c;
}

template <typename P>
std::uint32_t crc_expansion(const gravity::pack_expansion<P>& e,
                            std::uint32_t c) {
  c = crc_lanes(e.l0, c);
  c = crc_lanes(e.l1, c);
  c = crc_lanes(e.l2, c);
  return crc_lanes(e.l3, c);
}

/// Per-kernel output CRCs of the pack kernels on ABI \p P: targets in
/// [-4, 4]^3, sources 2-7 cell widths away with random q and o, 32 sources
/// accumulated per target pack, as in one M2L stencil sweep.
template <typename P>
std::vector<std::pair<std::string, std::uint64_t>> pack_kernel_bits(
    std::uint64_t seed) {
  using namespace gravity;
  xoshiro256 rng(seed);
  const auto draw = [&](real lo, real hi) {
    P v;
    for (int l = 0; l < P::size(); ++l) v.set(l, rng.uniform(lo, hi));
    return v;
  };
  const real G = units::G_code;
  std::uint32_t derivs = 0, full = 0, part = 0, mono = 0, near = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const real dx = rng.uniform(1e-3, 1.0);
    const P tx = draw(-4, 4), ty = draw(-4, 4), tz = draw(-4, 4);
    pack_expansion<P> acc_full, acc_part, acc_mono, acc_near;
    for (int s = 0; s < 32; ++s) {
      pack_multipole<P> src;
      src.m = draw(0, 3);
      src.cx = tx - draw(2, 7) * P(dx);
      src.cy = ty - draw(-7, 7) * P(dx);
      src.cz = tz - draw(-7, 7) * P(dx);
      for (auto& q : src.q) q = draw(-1, 1) * P(dx * dx);
      for (auto& o : src.o) o = draw(-1, 1) * P(dx * dx * dx);
      const P rx = tx - src.cx, ry = ty - src.cy, rz = tz - src.cz;
      const P rinv = inv_distance(rx, ry, rz);
      pack_derivs<P> d;
      compute_derivs(rx, ry, rz, rinv, G, d);
      derivs = crc_lanes(d.d0, derivs);
      derivs = crc_lanes(d.d1, derivs);
      derivs = crc_lanes(d.d2, derivs);
      derivs = crc_lanes(d.d3, derivs);
      m2l_pack<P, true>(src, d, acc_full);
      m2l_pack<P, false>(src, d, acc_part);
      m2l_monopole_pack(src.m, rx, ry, rz, rinv, G, acc_mono);
      p2p_pack(src.m, rx, ry, rz, G, acc_near);
    }
    full = crc_expansion(acc_full, full);
    part = crc_expansion(acc_part, part);
    mono = crc_expansion(acc_mono, mono);
    near = crc_expansion(acc_near, near);
  }
  return {{"compute_derivs", derivs},
          {"m2l_pack_full", full},
          {"m2l_pack_monopole_target", part},
          {"m2l_monopole_pack", mono},
          {"p2p_pack", near}};
}

template <typename A>
std::uint32_t crc_reals(const A& v, std::uint32_t c) {
  return crc32(v.data(), v.size() * sizeof(real), c);
}

std::uint32_t crc_expansion(const gravity::expansion& e, std::uint32_t c) {
  c = crc32(&e.l0, sizeof(real), c);
  c = crc_reals(e.l1, c);
  c = crc_reals(e.l2, c);
  return crc_reals(e.l3, c);
}

std::uint32_t crc_multipole(const gravity::multipole& m, std::uint32_t c) {
  c = crc32(&m.m, sizeof(real), c);
  c = crc_reals(std::array<real, 3>{m.com.x, m.com.y, m.com.z}, c);
  c = crc_reals(m.q, c);
  return crc_reals(m.o, c);
}

/// Per-kernel output CRCs of the scalar tensor kernels (the root's
/// all-pairs M2L, M2M and L2L) on seeded inputs.
std::vector<std::pair<std::string, std::uint64_t>> multipole_kernel_bits(
    std::uint64_t seed) {
  using namespace gravity;
  xoshiro256 rng(seed);
  const auto vec = [&](real lo, real hi) {
    return rvec3{rng.uniform(lo, hi), rng.uniform(lo, hi),
                 rng.uniform(lo, hi)};
  };
  const auto moments = [&](real dx) {
    multipole m;
    m.m = rng.uniform(0, 3);
    m.com = vec(-4, 4);
    for (auto& q : m.q) q = rng.uniform(-1, 1) * dx * dx;
    for (auto& o : m.o) o = rng.uniform(-1, 1) * dx * dx * dx;
    return m;
  };
  const auto local = [&] {
    expansion e;
    e.l0 = rng.uniform(-1, 1);
    for (auto& v : e.l1) v = rng.uniform(-1, 1);
    for (auto& v : e.l2) v = rng.uniform(-1, 1);
    for (auto& v : e.l3) v = rng.uniform(-1, 1);
    return e;
  };
  const real G = units::G_code;
  std::uint32_t derivs = 0, m2l = 0, l2l = 0, m2m = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const real dx = rng.uniform(1e-3, 1.0);
    const rvec3 target = vec(-4, 4);
    expansion acc;
    for (int s = 0; s < 32; ++s) {
      multipole src = moments(dx);
      src.com = target - rvec3{rng.uniform(2, 7) * dx,
                               rng.uniform(-7, 7) * dx,
                               rng.uniform(-7, 7) * dx};
      const deriv_tensors d = derivatives(target - src.com, G);
      derivs = crc32(&d.d0, sizeof(real), derivs);
      derivs = crc_reals(d.d1, derivs);
      derivs = crc_reals(d.d2, derivs);
      derivs = crc_reals(d.d3, derivs);
      m2l_accumulate(src, d, acc);
    }
    m2l = crc_expansion(acc, m2l);

    expansion shifted = local();
    l2l_shift(local(), vec(-dx, dx), shifted);
    l2l = crc_expansion(shifted, l2l);

    multipole parent;
    parent.m = rng.uniform(0, 24);
    parent.com = vec(-4, 4);
    for (int c = 0; c < 8; ++c) {
      multipole child = moments(dx);
      child.com = parent.com + vec(-dx, dx);
      m2m_accumulate(child, parent);
    }
    m2m = crc_multipole(parent, m2m);
  }
  return {{"derivatives", derivs},
          {"m2l_accumulate", m2l},
          {"l2l_shift", l2l},
          {"m2m_accumulate", m2m}};
}

/// Seeded-input bits of every hot gravity kernel.  Whole-step goldens see
/// only the native ABI as the solver calls it; this case also covers the
/// scalar ABI and names the kernel whose bits moved.
TEST(GoldenKernels, GravityKernelBits) {
  check("gravity_kernels_native",
        pack_kernel_bits<simd<real, simd_abi::native<real>>>(21));
  check("gravity_kernels_scalar",
        pack_kernel_bits<simd<real, simd_abi::scalar>>(22));
  check("multipole_kernels", multipole_kernel_bits(23));
}

}  // namespace
}  // namespace octo
