#include <gtest/gtest.h>

#include <algorithm>

#include "tree/partition.hpp"

namespace octo::tree {
namespace {

refine_predicate uniform_to(int level) {
  return [level](int lvl, const rvec3&, real) { return lvl < level; };
}

TEST(Partition, SingleLocalityOwnsAll) {
  topology t(1.0, 2, uniform_to(2));
  const auto p = partition_sfc(t, 1);
  for (index_t n = 0; n < t.num_nodes(); ++n) EXPECT_EQ(p.owner(n), 0);
  EXPECT_EQ(p.leaves_of_locality[0].size(),
            static_cast<std::size_t>(t.num_leaves()));
}

class PartitionCounts : public testing::TestWithParam<int> {};

TEST_P(PartitionCounts, BalancedAndComplete) {
  const int nloc = GetParam();
  topology t(1.0, 2, uniform_to(2));
  const auto p = partition_sfc(t, nloc);
  EXPECT_EQ(p.num_localities, nloc);
  std::size_t total = 0;
  std::size_t lo = SIZE_MAX, hi = 0;
  for (const auto& ll : p.leaves_of_locality) {
    total += ll.size();
    lo = std::min(lo, ll.size());
    hi = std::max(hi, ll.size());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(t.num_leaves()));
  EXPECT_GE(lo, 1u);  // no empty locality while leaves remain
  EXPECT_LE(hi - lo, static_cast<std::size_t>(t.num_leaves()) / nloc + 1);
}

TEST_P(PartitionCounts, MortonContiguity) {
  const int nloc = GetParam();
  topology t(1.0, 2, uniform_to(2));
  const auto p = partition_sfc(t, nloc);
  // Owners along the Morton leaf order must be non-decreasing.
  int prev = 0;
  for (const index_t leaf : t.leaves()) {
    EXPECT_GE(p.owner(leaf), prev);
    prev = p.owner(leaf);
  }
}

INSTANTIATE_TEST_SUITE_P(Localities, PartitionCounts,
                         testing::Values(2, 3, 4, 7, 16, 64));

TEST(Partition, InteriorOwnershipFollowsFirstChild) {
  topology t(1.0, 2, uniform_to(2));
  const auto p = partition_sfc(t, 4);
  for (index_t n = 0; n < t.num_nodes(); ++n) {
    const auto& nd = t.node(n);
    if (nd.leaf) continue;
    EXPECT_EQ(p.owner(n), p.owner(nd.children[0]));
  }
}

TEST(Partition, CostWeightedSplitsShiftBoundaries) {
  topology t(1.0, 2, uniform_to(2));
  // All cost concentrated in the first half -> locality 0 gets fewer leaves
  // than an unweighted split would give it... in fact it should get about
  // half as many leaves as locality 1 in a 2-way split.
  std::vector<real> cost(static_cast<std::size_t>(t.num_leaves()), 1);
  for (std::size_t i = 0; i < cost.size() / 2; ++i) cost[i] = 3;
  const auto p = partition_sfc(t, 2, cost);
  EXPECT_LT(p.leaves_of_locality[0].size(), p.leaves_of_locality[1].size());
}

TEST(Partition, MoreLocalitiesMoreRemoteLinks) {
  topology t(1.0, 2, uniform_to(2));
  real prev = -1;
  for (const int nloc : {1, 2, 8, 32}) {
    const auto p = partition_sfc(t, nloc);
    const real rf = remote_link_fraction(t, p);
    EXPECT_GT(rf, prev);
    prev = rf;
  }
  EXPECT_DOUBLE_EQ(remote_link_fraction(t, partition_sfc(t, 1)), 0.0);
}

TEST(Partition, MoreLocalitiesThanLeaves) {
  topology t(1.0, 1, uniform_to(1));  // 8 leaves
  const auto p = partition_sfc(t, 16);
  std::size_t nonempty = 0;
  for (const auto& ll : p.leaves_of_locality) nonempty += !ll.empty();
  EXPECT_EQ(nonempty, 8u);
}

TEST(PartitionShrink, EveryLeafExactlyOneSurvivingOwner) {
  topology t(1.0, 2, uniform_to(2));
  const auto old = partition_sfc(t, 4);
  const auto p = partition_shrink(t, old, {1});
  ASSERT_EQ(p.num_localities, 4);
  EXPECT_TRUE(p.leaves_of_locality[1].empty());
  std::size_t total = 0;
  for (const auto& ll : p.leaves_of_locality) total += ll.size();
  EXPECT_EQ(total, static_cast<std::size_t>(t.num_leaves()));
  for (const index_t leaf : t.leaves()) {
    const int o = p.owner(leaf);
    EXPECT_NE(o, 1);
    EXPECT_GE(o, 0);
    EXPECT_LT(o, 4);
    // The per-locality lists agree with owner_of_node.
    const auto& ll = p.leaves_of_locality[static_cast<std::size_t>(o)];
    EXPECT_NE(std::find(ll.begin(), ll.end(), leaf), ll.end());
  }
}

TEST(PartitionShrink, SurvivorsKeepOriginalIdsAndSfcContiguity) {
  topology t(1.0, 2, uniform_to(2));
  const auto old = partition_sfc(t, 4);
  const auto p = partition_shrink(t, old, {2});
  // Owners along the Morton leaf order are non-decreasing over the
  // surviving ids {0, 1, 3}: contiguous curve segments, original labels.
  int prev = -1;
  for (const index_t leaf : t.leaves()) {
    EXPECT_GE(p.owner(leaf), prev);
    prev = p.owner(leaf);
  }
  EXPECT_EQ(prev, 3);  // the last survivor owns the curve's tail
}

TEST(PartitionShrink, LoadStaysBalancedAcrossSurvivors) {
  topology t(1.0, 2, uniform_to(2));
  const auto old = partition_sfc(t, 4);
  const auto p = partition_shrink(t, old, {0});
  std::size_t lo = SIZE_MAX, hi = 0;
  for (int l = 1; l < 4; ++l) {
    const auto n = p.leaves_of_locality[static_cast<std::size_t>(l)].size();
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GE(lo, 1u);
  EXPECT_LE(hi - lo, static_cast<std::size_t>(t.num_leaves()) / 3 + 1);
}

TEST(PartitionShrink, MultipleDeadAndInteriorPropagation) {
  topology t(1.0, 2, uniform_to(2));
  const auto old = partition_sfc(t, 5);
  const auto p = partition_shrink(t, old, {0, 3});
  for (index_t n = 0; n < t.num_nodes(); ++n) {
    EXPECT_NE(p.owner(n), 0);
    EXPECT_NE(p.owner(n), 3);
    const auto& nd = t.node(n);
    if (!nd.leaf) {
      EXPECT_EQ(p.owner(n), p.owner(nd.children[0]));
    }
  }
}

TEST(PartitionShrink, ShrinkOfShrinkKeepsRemainingSurvivors) {
  topology t(1.0, 2, uniform_to(2));
  const auto old = partition_sfc(t, 4);
  const auto once = partition_shrink(t, old, {1});
  const auto twice = partition_shrink(t, once, {1, 3});
  EXPECT_TRUE(twice.leaves_of_locality[1].empty());
  EXPECT_TRUE(twice.leaves_of_locality[3].empty());
  std::size_t total = 0;
  for (const auto& ll : twice.leaves_of_locality) total += ll.size();
  EXPECT_EQ(total, static_cast<std::size_t>(t.num_leaves()));
}

TEST(PartitionShrink, RejectsAllDeadAndOutOfRange) {
  topology t(1.0, 1, uniform_to(1));
  const auto old = partition_sfc(t, 2);
  EXPECT_THROW(partition_shrink(t, old, {0, 1}), error);
  EXPECT_THROW(partition_shrink(t, old, {2}), error);
  EXPECT_THROW(partition_shrink(t, old, {-1}), error);
}

}  // namespace
}  // namespace octo::tree
