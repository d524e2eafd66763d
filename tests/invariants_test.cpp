/// Unit coverage for the SDC defense (app/invariants.hpp): CRC32 leaf and
/// moment seals, the physics-invariant auditor (NaN/positivity scans,
/// conservation-drift EWMA, CFL-dt sanity), the bit-flip primitive, the
/// compute-fault injector hooks, strict fault-spec parsing, and the EOS
/// non-finite input guards.

// Force the EOS guards on in this translation unit: the guard machinery is
// header-only, and the default RelWithDebInfo build defines NDEBUG (which
// compiles them out of the library kernels).
#define OCTO_EOS_GUARDS 1

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "app/invariants.hpp"
#include "app/simulation.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "grid/field.hpp"
#include "grid/subgrid.hpp"
#include "hydro/eos.hpp"

namespace octo::app {
namespace {

constexpr int N = grid::subgrid::N;
constexpr real nan_v = std::numeric_limits<real>::quiet_NaN();
constexpr real inf_v = std::numeric_limits<real>::infinity();

/// Deterministic, strictly positive fill of every field — owned cells and
/// the ghost shell alike, so the seal's owned-cells-only scope is testable.
grid::subgrid healthy_grid(real offset = 0) {
  grid::subgrid g;
  for (int f = 0; f < grid::NFIELD; ++f)
    for (int i = -grid::subgrid::G; i < N + grid::subgrid::G; ++i)
      for (int j = -grid::subgrid::G; j < N + grid::subgrid::G; ++j)
        for (int k = -grid::subgrid::G; k < N + grid::subgrid::G; ++k)
          g.at(f, i, j, k) =
              offset + real(1) + real(f) + real(0.001) * real(i * 81 + j * 9 + k + 100);
  return g;
}

ledger healthy_ledger(real mass = 2) {
  ledger l;
  l.mass = mass;
  l.momentum = rvec3{real(0.125), real(-0.25), real(0.5)};
  l.gas_energy = 3;
  l.pot_energy = -1;
  return l;
}

/// The call must throw sdc_detected whose message contains every token.
template <typename Fn>
void expect_detects(Fn&& fn, std::initializer_list<const char*> tokens) {
  try {
    fn();
    FAIL() << "detector did not trip";
  } catch (const sdc_detected& e) {
    for (const char* t : tokens)
      EXPECT_NE(std::string(e.what()).find(t), std::string::npos)
          << "message lacks '" << t << "': " << e.what();
  }
}

// ---------------------------------------------------------------- seals --

TEST(InvariantSeals, RoundTripVerifies) {
  invariant_auditor aud;
  aud.resize(4);
  const auto g = healthy_grid();
  EXPECT_FALSE(aud.sealed(2));
  aud.seal_leaf(2, g);
  EXPECT_TRUE(aud.sealed(2));
  EXPECT_NO_THROW(aud.verify_leaf(2, g));
}

TEST(InvariantSeals, EveryFieldSingleBitFlipDetectedAndInverts) {
  invariant_auditor aud;
  aud.resize(1);
  auto g = healthy_grid();
  aud.seal_leaf(0, g);
  for (std::uint64_t f = 0; f < grid::NFIELD; ++f) {
    for (const std::uint64_t bit : {0ull, 31ull, 52ull, 63ull}) {
      const std::uint64_t cell = 37 * (f + 1) + bit;
      apply_state_bitflip(g, f, cell, bit);
      expect_detects([&] { aud.verify_leaf(0, g); },
                     {"leaf 0", "CRC32 seal"});
      // The flip is its own inverse: re-applying restores the seal.
      apply_state_bitflip(g, f, cell, bit);
      EXPECT_NO_THROW(aud.verify_leaf(0, g));
    }
  }
}

TEST(InvariantSeals, GhostShellIsNotSealed) {
  // Ghost cells are derived state the exchange regenerates; scribbling on
  // them between a seal and its verify must not trip (a rollback or leaf
  // migration legitimately rewrites them).
  invariant_auditor aud;
  aud.resize(1);
  auto g = healthy_grid();
  aud.seal_leaf(0, g);
  g.at(grid::f_rho, -1, 0, 0) = real(999);
  g.at(grid::f_egas, N, N - 1, N) = nan_v;
  EXPECT_NO_THROW(aud.verify_leaf(0, g));
  // ... while any owned cell is covered, down to a 1-ulp nudge.
  real& v = g.at(grid::f_spc1, N - 1, N - 1, N - 1);
  v = std::nextafter(v, real(2) * v);
  EXPECT_THROW(aud.verify_leaf(0, g), sdc_detected);
}

TEST(InvariantSeals, BitflipTargetsReduceModulo) {
  // Out-of-range field / cell / bit draws (the random mode hands us raw
  // u64s) reduce onto valid targets, so the two calls hit the same bit.
  auto g = healthy_grid();
  auto h = healthy_grid();
  apply_state_bitflip(g, 3, 100, 7);
  apply_state_bitflip(h, 3 + grid::NFIELD, 100 + std::uint64_t(N) * N * N,
                      7 + 64);
  EXPECT_EQ(invariant_auditor::leaf_crc(g), invariant_auditor::leaf_crc(h));
  EXPECT_NE(invariant_auditor::leaf_crc(g),
            invariant_auditor::leaf_crc(healthy_grid()));
}

TEST(InvariantSeals, UnsealedAndDroppedSealsAreNoOps) {
  invariant_auditor aud;
  aud.resize(3);
  auto g = healthy_grid();
  EXPECT_NO_THROW(aud.verify_leaf(1, g));  // never sealed
  aud.seal_leaf(1, g);
  apply_state_bitflip(g, 0, 0, 0);
  aud.drop_seal(1);
  EXPECT_NO_THROW(aud.verify_leaf(1, g));
  aud.seal_leaf(1, g);
  aud.clear_seals();
  EXPECT_NO_THROW(aud.verify_leaf(1, g));
  aud.seal_leaf(1, g);
  aud.resize(3);  // topology rebuild drops every seal
  EXPECT_FALSE(aud.sealed(1));
}

TEST(InvariantSeals, MomentSealDetectsMismatch) {
  invariant_auditor aud;
  EXPECT_FALSE(aud.moments_sealed());
  EXPECT_NO_THROW(aud.verify_moments(123));  // unsealed: no-op
  aud.seal_moments(123);
  EXPECT_TRUE(aud.moments_sealed());
  EXPECT_EQ(aud.moment_seal(), 123u);
  EXPECT_NO_THROW(aud.verify_moments(123));
  expect_detects([&] { aud.verify_moments(124); },
                 {"multipole moments", "CRC32 seal"});
  aud.drop_moment_seal();
  EXPECT_NO_THROW(aud.verify_moments(124));
}

// --------------------------------------------------------- leaf audits --

TEST(InvariantAudit, LeafNaNAndInfTripNamingFieldAndCell) {
  invariant_auditor aud;
  auto g = healthy_grid();
  EXPECT_NO_THROW(aud.audit_leaf(7, g));
  g.at(grid::f_egas, 2, 3, 4) = nan_v;
  expect_detects([&] { aud.audit_leaf(7, g); },
                 {"non-finite", "egas", "leaf 7", "(2, 3, 4)"});
  g = healthy_grid();
  g.at(grid::f_sx, 0, 0, 1) = inf_v;
  expect_detects([&] { aud.audit_leaf(7, g); },
                 {"non-finite", "sx", "(0, 0, 1)"});
}

TEST(InvariantAudit, LeafPositivityTripsForRhoAndTauOnly) {
  invariant_auditor aud;
  auto g = healthy_grid();
  g.at(grid::f_sx, 1, 1, 1) = real(-5);  // momenta may be negative
  g.at(grid::f_sz, 1, 1, 1) = real(0);
  EXPECT_NO_THROW(aud.audit_leaf(0, g));
  g.at(grid::f_rho, 5, 6, 7) = real(0);
  expect_detects([&] { aud.audit_leaf(0, g); },
                 {"non-positive", "rho", "(5, 6, 7)"});
  g = healthy_grid();
  g.at(grid::f_tau, 0, 4, 2) = real(-1);
  expect_detects([&] { aud.audit_leaf(0, g); }, {"non-positive", "tau"});
}

// --------------------------------------------------------- step audits --

TEST(InvariantAudit, CflDtMustBePositiveAndFinite) {
  invariant_auditor aud;
  const auto l = healthy_ledger();
  expect_detects([&] { aud.audit_step(l, nan_v, 1); }, {"CFL dt"});
  expect_detects([&] { aud.audit_step(l, real(0), 1); }, {"CFL dt"});
  expect_detects([&] { aud.audit_step(l, real(-1e-3), 1); }, {"CFL dt"});
}

TEST(InvariantAudit, CflDtGrowthBoundTrips) {
  invariant_auditor aud;
  const auto l = healthy_ledger();
  aud.audit_step(l, real(1), 1);
  EXPECT_NO_THROW(aud.audit_step(l, real(7.5), 2));  // < 8x: fine
  expect_detects([&] { aud.audit_step(l, real(61), 3); },
                 {"CFL dt grew"});
}

TEST(InvariantAudit, NonFiniteGlobalInvariantTrips) {
  invariant_auditor aud;
  auto l = healthy_ledger();
  l.momentum.y = nan_v;
  expect_detects([&] { aud.audit_step(l, real(1e-3), 1); },
                 {"momentum.y", "non-finite"});
}

TEST(InvariantAudit, ConservationDriftTripsAfterWarmup) {
  invariant_auditor aud;
  const real dt = real(1e-3);
  auto l = healthy_ledger();
  std::int64_t step = 0;
  // Warmup: the EWMA learns this run's healthy (here: zero) drift.
  for (int s = 0; s < 6; ++s) aud.audit_step(l, dt, ++step);
  // Drift far below tolerance still passes and feeds the EWMA...
  l.mass += real(1e-14);
  EXPECT_NO_THROW(aud.audit_step(l, dt, ++step));
  // ... while a corrupted-sized jump trips.
  l.mass += real(0.5);
  expect_detects([&] { aud.audit_step(l, dt, step + 1); },
                 {"conservation drift", "mass"});
}

TEST(InvariantAudit, DriftHistorySaveRestoreAndReset) {
  invariant_auditor aud;
  const auto l = healthy_ledger();
  aud.audit_step(l, real(1), 1);
  const auto saved = aud.save_history();
  // Reset (checkpoint rollback): the growth bound re-arms from scratch.
  aud.reset_history();
  EXPECT_NO_THROW(aud.audit_step(l, real(100), 2));
  // Restore (containment retry): the retried step sees the same bound the
  // original attempt saw.
  aud.restore_history(saved);
  expect_detects([&] { aud.audit_step(l, real(100), 2); },
                 {"CFL dt grew"});
}

TEST(InvariantAudit, CadenceFollowsEveryAndEnable) {
  audit_options opt;
  opt.enabled = true;
  opt.every = 4;
  invariant_auditor aud(opt);
  EXPECT_TRUE(aud.enabled());
  EXPECT_FALSE(aud.invariants_due(1));
  EXPECT_FALSE(aud.invariants_due(3));
  EXPECT_TRUE(aud.invariants_due(4));
  EXPECT_FALSE(aud.invariants_due(5));
  EXPECT_TRUE(aud.invariants_due(8));
  opt.enabled = false;
  invariant_auditor off(opt);
  EXPECT_FALSE(off.invariants_due(4));
}

TEST(InvariantAudit, AuditEveryEnvIsStrictAndNamesTheVariable) {
  ::setenv("OCTO_AUDIT_EVERY", "7", 1);
  EXPECT_EQ(audit_options::default_audit_every(), 7);
  for (const char* bad : {"4x", "abc", "4 ", "0", "-1", "99999999999"}) {
    ::setenv("OCTO_AUDIT_EVERY", bad, 1);
    try {
      (void)audit_options::default_audit_every();
      ADD_FAILURE() << "accepted OCTO_AUDIT_EVERY='" << bad << "'";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find("OCTO_AUDIT_EVERY"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("OCTO_AUDIT_EVERY");
  EXPECT_EQ(audit_options::default_audit_every(), 4);
}

// --------------------------------------------- strict fault-spec parsing --

TEST(FaultSpecParsing, BitflipSpecAcceptsDeterministicAndRandomForms) {
  const auto s = fault::parse_bitflip_spec("OCTO_FAULT_STATE_BITFLIP",
                                           "2:5:3:1");
  EXPECT_FALSE(s.random);
  EXPECT_EQ(s.loc, 2u);
  EXPECT_EQ(s.step, 5u);
  EXPECT_EQ(s.leaf, 3u);
  EXPECT_EQ(s.field, 1u);
  EXPECT_EQ(s.count, 1u);

  const auto c = fault::parse_bitflip_spec("OCTO_FAULT_STATE_BITFLIP",
                                           "0:2:7:4:3");
  EXPECT_EQ(c.count, 3u);

  const auto r = fault::parse_bitflip_spec("OCTO_FAULT_MOMENT_BITFLIP",
                                           "random:6:2");
  EXPECT_TRUE(r.random);
  EXPECT_EQ(r.step, 6u);
  EXPECT_EQ(r.count, 2u);

  // nullptr / empty disarm instead of erroring.
  EXPECT_EQ(fault::parse_bitflip_spec("X", nullptr).step, 0u);
  EXPECT_EQ(fault::parse_bitflip_spec("X", "").step, 0u);
}

TEST(FaultSpecParsing, MalformedBitflipSpecRejectedNamingVariable) {
  for (const char* bad :
       {"2:5:3", "2:5:3:1:2:9", "x:5:3:1", "2:5:3:1:", "2:5:3:1:0",
        "0:0:3:1", "random", "random:", "random:abc", "random:0",
        " 2:5:3:1", "2:5:3:1 "}) {
    try {
      (void)fault::parse_bitflip_spec("OCTO_FAULT_STATE_BITFLIP", bad);
      FAIL() << "accepted malformed spec '" << bad << "'";
    } catch (const error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("OCTO_FAULT_STATE_BITFLIP"), std::string::npos)
          << what;
      EXPECT_NE(what.find("expected"), std::string::npos) << what;
    }
  }
}

TEST(FaultSpecParsing, StrictU64ProbabilityAndKillSpecs) {
  EXPECT_EQ(fault::parse_fault_u64("V", "42", 7), 42u);
  EXPECT_EQ(fault::parse_fault_u64("V", nullptr, 7), 7u);
  EXPECT_EQ(fault::parse_fault_u64("V", "", 7), 7u);
  for (const char* bad : {"4x2", "-1", "0x10", "18446744073709551616"})
    EXPECT_THROW((void)fault::parse_fault_u64("V", bad, 0), error)
        << "accepted '" << bad << "'";

  EXPECT_DOUBLE_EQ(fault::parse_fault_prob("P", "0.5"), 0.5);
  EXPECT_DOUBLE_EQ(fault::parse_fault_prob("P", nullptr), 0.0);
  for (const char* bad : {"1.5", "-0.1", "abc", "0.5x", "nan"})
    EXPECT_THROW((void)fault::parse_fault_prob("P", bad), error)
        << "accepted '" << bad << "'";

  const auto kill = fault::parse_locality_kill("K", "1:3");
  EXPECT_EQ(kill.first, 1);
  EXPECT_EQ(kill.second, 3u);
  EXPECT_EQ(fault::parse_locality_kill("K", nullptr).first, -1);
  for (const char* bad : {"1", "1:", ":3", "1:x", "1:0", "-1:3"})
    EXPECT_THROW((void)fault::parse_locality_kill("K", bad), error)
        << "accepted '" << bad << "'";
}

// ------------------------------------------------------- injector hooks --

struct BitflipInjector : testing::Test {
  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(BitflipInjector, FiresOnlyAtArmedStepWithCountBudget) {
  auto& inj = fault::injector::instance();
  EXPECT_FALSE(inj.armed());
  fault::bitflip_spec spec;
  spec.loc = 1;
  spec.step = 3;
  spec.leaf = 2;
  spec.field = 4;
  spec.count = 2;
  inj.arm_state_bitflip(spec);
  EXPECT_TRUE(inj.armed());

  fault::bitflip_plan plan;
  EXPECT_FALSE(inj.state_bitflip_hook(1, &plan));
  EXPECT_FALSE(inj.state_bitflip_hook(2, &plan));
  EXPECT_FALSE(inj.moment_bitflip_hook(3, &plan));  // separate arming
  // count=2: the armed step's first two execution attempts fire (the
  // second one lands on the containment retry and forces escalation).
  ASSERT_TRUE(inj.state_bitflip_hook(3, &plan));
  EXPECT_FALSE(plan.random);
  EXPECT_EQ(plan.loc, 1u);
  EXPECT_EQ(plan.leaf, 2u);
  EXPECT_EQ(plan.field, 4u);
  ASSERT_TRUE(inj.state_bitflip_hook(3, &plan));
  EXPECT_FALSE(inj.state_bitflip_hook(3, &plan));  // budget exhausted
  EXPECT_FALSE(inj.state_bitflip_hook(4, &plan));
  EXPECT_EQ(inj.injected(), 2u);

  inj.reset();
  EXPECT_FALSE(inj.armed());
  inj.arm_state_bitflip(spec);
  EXPECT_FALSE(inj.state_bitflip_hook(2, &plan));
  ASSERT_TRUE(inj.state_bitflip_hook(3, &plan));
}

TEST_F(BitflipInjector, RandomModeDrawsTargetsFromSeededStream) {
  auto& inj = fault::injector::instance();
  fault::bitflip_spec spec;
  spec.random = true;
  spec.step = 2;
  inj.arm_moment_bitflip(spec);
  fault::bitflip_plan plan;
  ASSERT_TRUE(inj.moment_bitflip_hook(2, &plan));
  EXPECT_TRUE(plan.random);
  EXPECT_FALSE(inj.moment_bitflip_hook(2, &plan));  // default count is 1
}

// ------------------------------------------------------------ EOS guards --

TEST(EosGuards, NonFiniteInputNamesRegisteredLeafAndCell) {
  hydro::eos_guard() = {42, 1, 2, 3};
  const hydro::ideal_gas gas;
  try {
    (void)gas.pressure(nan_v);
    FAIL() << "guard did not trip";
  } catch (const error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("pressure"), std::string::npos) << what;
    EXPECT_NE(what.find("leaf 42"), std::string::npos) << what;
    EXPECT_NE(what.find("(1, 2, 3)"), std::string::npos) << what;
  }
  hydro::eos_guard() = {};
}

TEST(EosGuards, AllEntryPointsGuardedAndCleanInputsPass) {
  hydro::eos_guard() = {7, 0, 0, 0};
  const hydro::ideal_gas gas;
  EXPECT_GT(gas.pressure(real(1)), real(0));
  EXPECT_GT(gas.sound_speed(real(1), real(1)), real(0));
  EXPECT_GT(gas.internal_energy(real(1), real(0.1), real(0.1), real(0.1),
                                real(2), real(1)),
            real(0));
  EXPECT_GT(gas.tau_from_eint(real(1)), real(0));
  EXPECT_THROW((void)gas.sound_speed(nan_v, real(1)), error);
  EXPECT_THROW((void)gas.internal_energy(real(1), real(0), inf_v, real(0),
                                         real(2), real(1)),
               error);
  EXPECT_THROW((void)gas.tau_from_eint(inf_v), error);
  hydro::eos_guard() = {};
}

TEST(EosGuards, MissingLeafContextIsNamedAsSuch) {
  hydro::eos_guard() = {};  // leaf = -1
  const hydro::ideal_gas gas;
  try {
    (void)gas.pressure(inf_v);
    FAIL() << "guard did not trip";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("no leaf context"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace octo::app
