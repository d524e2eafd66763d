#pragma once
/// \file checks.hpp
/// The benchmark's guards: refusing a program whose behaviour the
/// environment changes, and the correctness checks every run applies to
/// the state it produced.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Thrown when a registered OCTO_* variable is set: those variables change
/// the step mode, auditing, fault injection and tracing of the measured
/// program, so a run under them would not measure the pinned program.
class env_refused : public std::runtime_error {
 public:
  explicit env_refused(const std::string& what) : std::runtime_error(what) {}
};

/// Registered OCTO_* variables (common/config.cpp registry) that are set in
/// this process's environment, even to an empty value.
std::vector<std::string> set_octo_env();

/// Throws env_refused naming every such variable.
void refuse_octo_env();

/// State digest: invariant_auditor::leaf_crc of every leaf, folded in the
/// tree's leaf order.
std::uint64_t state_digest(const driver& d);

/// Index of the first digest that differs from digests[0], or nullopt when
/// all repetitions agree.
std::optional<std::size_t> first_digest_mismatch(
    const std::vector<std::uint64_t>& digests);

/// Description of the first non-finite conserved value or non-positive
/// density among the leaves' owned cells; empty when the state is sane.
std::string first_bad_cell(const driver& d);

/// |now - then| / |then| (|now - then| when then is 0).
double relative_drift(double then, double now);

}  // namespace perfbench
