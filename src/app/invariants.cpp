#include "app/invariants.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "app/simulation.hpp"
#include "common/config.hpp"
#include "common/crc32.hpp"
#include "grid/field.hpp"

namespace octo::app {

bool audit_options::default_audit_enabled() {
  const auto v = config::env("OCTO_AUDIT");
  return !v || *v != "0";
}

int audit_options::default_audit_every() {
  return static_cast<int>(
      config::env_long("OCTO_AUDIT_EVERY", 1, std::numeric_limits<int>::max())
          .value_or(4));
}

const sdc_metric_ids& sdc_metrics() {
  static const sdc_metric_ids ids = [] {
    auto& reg = apex::registry::instance();
    sdc_metric_ids m;
    m.audits = reg.counter("sdc.audits");
    m.detected = reg.counter("sdc.detected");
    m.retries = reg.counter("sdc.retries");
    m.rollbacks = reg.counter("sdc.rollbacks");
    m.audit_timer = reg.timer("sdc.audit");
    return m;
  }();
  return ids;
}

invariant_auditor::invariant_auditor(audit_options opt) : opt_(opt) {
  sdc_metrics();  // register the sdc.* metrics up front
}

void invariant_auditor::detected(const std::string& what) {
  apex::registry::instance().add(sdc_metrics().detected);
  throw sdc_detected(what);
}

void invariant_auditor::resize(index_t num_nodes) {
  seals_.assign(static_cast<std::size_t>(num_nodes), 0);
  sealed_.assign(static_cast<std::size_t>(num_nodes), 0);
  moment_sealed_ = false;
}

void invariant_auditor::clear_seals() {
  sealed_.assign(sealed_.size(), 0);
  moment_sealed_ = false;
}

void invariant_auditor::drop_seal(index_t node) {
  if (node < static_cast<index_t>(sealed_.size()))
    sealed_[static_cast<std::size_t>(node)] = 0;
}

std::uint32_t invariant_auditor::leaf_crc(const grid::subgrid& g) {
  // Owned cells only (every field): the ghost shell and SIMD pad are
  // derived/scratch state the restore and migration paths legitimately
  // regenerate, so sealing them would turn a rollback into a false
  // positive.  Each (f, i, j) row is N contiguous reals — chain the CRC
  // row by row.
  constexpr int N = grid::subgrid::N;
  std::uint32_t crc = 0;
  for (int f = 0; f < grid::NFIELD; ++f) {
    const real* block = g.field_data(f);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        crc = crc32(block + grid::subgrid::idx(i, j, 0), N * sizeof(real),
                    crc);
  }
  return crc;
}

void invariant_auditor::seal_leaf(index_t node, const grid::subgrid& g) {
  seals_[static_cast<std::size_t>(node)] = leaf_crc(g);
  sealed_[static_cast<std::size_t>(node)] = 1;
}

void invariant_auditor::verify_leaf(index_t node,
                                    const grid::subgrid& g) const {
  if (!sealed(node)) return;
  const std::uint32_t now = leaf_crc(g);
  const std::uint32_t want = seals_[static_cast<std::size_t>(node)];
  if (now == want) return;
  std::ostringstream os;
  os << "leaf " << node << " conserved state failed its CRC32 seal (sealed "
     << want << ", now " << now << ") — at-rest corruption since the last "
     << "step boundary";
  detected(os.str());
}

void invariant_auditor::verify_moments(std::uint32_t crc) const {
  if (!moment_sealed_ || crc == moment_crc_) return;
  std::ostringstream os;
  os << "gravity multipole moments failed their CRC32 seal (sealed "
     << moment_crc_ << ", now " << crc << ")";
  detected(os.str());
}

void invariant_auditor::audit_leaf(index_t node,
                                   const grid::subgrid& g) const {
  constexpr int N = grid::subgrid::N;
  for (int f = 0; f < grid::NFIELD; ++f)
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const real v = g.at(f, i, j, k);
          const bool finite = std::isfinite(static_cast<double>(v));
          const bool positive =
              (f != grid::f_rho && f != grid::f_tau) || v > real(0);
          if (finite && positive) continue;
          std::ostringstream os;
          os << (finite ? "non-positive" : "non-finite") << " "
             << grid::field_names[static_cast<std::size_t>(f)] << " = " << v
             << " at leaf " << node << " cell (" << i << ", " << j << ", "
             << k << ")";
          detected(os.str());
        }
}

void invariant_auditor::audit_step(const ledger& now, real dt,
                                   std::int64_t step) {
  // CFL-dt sanity: a corrupted signal-speed reduction shows up as a
  // non-finite, non-positive, or wildly grown step.
  if (!std::isfinite(static_cast<double>(dt)) || dt <= real(0)) {
    std::ostringstream os;
    os << "CFL dt " << dt << " is not a positive finite number at step "
       << step;
    detected(os.str());
  }
  if (hist_.have_prev && hist_.prev_dt > 0 &&
      static_cast<double>(dt) > opt_.dt_growth * hist_.prev_dt) {
    std::ostringstream os;
    os << "CFL dt grew " << static_cast<double>(dt) / hist_.prev_dt
       << "x in one step (" << hist_.prev_dt << " -> " << dt << ") at step "
       << step;
    detected(os.str());
  }

  const double q[5] = {static_cast<double>(now.mass),
                       static_cast<double>(now.momentum.x),
                       static_cast<double>(now.momentum.y),
                       static_cast<double>(now.momentum.z),
                       static_cast<double>(now.total_energy())};
  static constexpr const char* names[5] = {"mass", "momentum.x",
                                           "momentum.y", "momentum.z",
                                           "total energy"};
  for (int c = 0; c < 5; ++c) {
    if (std::isfinite(q[c])) continue;
    std::ostringstream os;
    os << "global " << names[c] << " is non-finite (" << q[c] << ") at step "
       << step;
    detected(os.str());
  }

  if (hist_.have_prev) {
    for (int c = 0; c < 5; ++c) {
      const double drift = std::abs(q[c] - hist_.prev[c]);
      // Absolute per-step drift vs. an EWMA of the run's own healthy drift;
      // the floor keeps the tolerance meaningful when conservation is
      // bitwise exact.
      const double scale =
          std::max({std::abs(q[c]), std::abs(hist_.prev[c]), 1.0});
      const double tol = opt_.drift_ratio *
                         std::max(hist_.ewma[c], opt_.drift_floor * scale);
      if (hist_.audited > opt_.warmup && drift > tol) {
        std::ostringstream os;
        os << "conservation drift: global " << names[c] << " jumped by "
           << drift << " in one step (EWMA drift " << hist_.ewma[c]
           << ", tolerance " << tol << ") at step " << step;
        detected(os.str());
      }
      hist_.ewma[c] = hist_.audited == 0
                          ? drift
                          : (1.0 - opt_.ewma_alpha) * hist_.ewma[c] +
                                opt_.ewma_alpha * drift;
    }
    ++hist_.audited;
  }
  for (int c = 0; c < 5; ++c) hist_.prev[c] = q[c];
  hist_.prev_dt = static_cast<double>(dt);
  hist_.have_prev = true;
}

void apply_state_bitflip(grid::subgrid& g, std::uint64_t field,
                         std::uint64_t cell, std::uint64_t bit) {
  constexpr std::uint64_t N = grid::subgrid::N;
  const int f = static_cast<int>(field % static_cast<std::uint64_t>(grid::NFIELD));
  const std::uint64_t c = cell % (N * N * N);
  const int i = static_cast<int>(c / (N * N));
  const int j = static_cast<int>((c / N) % N);
  const int k = static_cast<int>(c % N);
  real& v = g.at(f, i, j, k);
  std::uint64_t bits;
  static_assert(sizeof(real) == sizeof(bits), "real must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= std::uint64_t(1) << (bit % 64);
  std::memcpy(&v, &bits, sizeof(bits));
}

}  // namespace octo::app
