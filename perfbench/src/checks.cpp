#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "app/invariants.hpp"
#include "common/config.hpp"

namespace perfbench {

using namespace octo;

std::vector<std::string> set_octo_env() {
  std::vector<std::string> set;
  for (const auto& v : config::env_registry())
    if (std::getenv(v.name) != nullptr) set.emplace_back(v.name);
  return set;
}

void refuse_octo_env() {
  const auto set = set_octo_env();
  if (set.empty()) return;
  std::ostringstream os;
  os << "refusing to run: ";
  for (std::size_t i = 0; i < set.size(); ++i)
    os << (i ? ", " : "") << set[i];
  os << (set.size() == 1 ? " is" : " are")
     << " set; OCTO_* variables change the step mode, auditing, faults or "
        "tracing of the measured program — unset them";
  throw env_refused(os.str());
}

std::uint64_t state_digest(const driver& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const index_t l : d.topo().leaves()) {
    h ^= app::invariant_auditor::leaf_crc(d.leaf(l));
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::optional<std::size_t> first_digest_mismatch(
    const std::vector<std::uint64_t>& digests) {
  for (std::size_t i = 1; i < digests.size(); ++i)
    if (digests[i] != digests[0]) return i;
  return std::nullopt;
}

std::string first_bad_cell(const driver& d) {
  constexpr int N = grid::subgrid::N;
  for (const index_t l : d.topo().leaves()) {
    const grid::subgrid& g = d.leaf(l);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
          for (int k = 0; k < N; ++k) {
            const real v = g.at(f, i, j, k);
            if (std::isfinite(v) && (f != grid::f_rho || v > 0)) continue;
            std::ostringstream os;
            os << "leaf " << l << " field " << grid::field_names[f]
               << " cell (" << i << "," << j << "," << k << ") = " << v;
            return os.str();
          }
  }
  return {};
}

double relative_drift(double then, double now) {
  const double diff = std::abs(now - then);
  return then != 0 ? diff / std::abs(then) : diff;
}

}  // namespace perfbench
