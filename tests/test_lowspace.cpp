#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "graph/generators.hpp"
#include "lowspace/low_space.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

void expect_valid(const Graph& g, const PaletteSet& pal,
                  const LowSpaceResult& r) {
  const auto v = verify_coloring(g, pal, r.coloring);
  EXPECT_TRUE(v.ok) << v.issue;
}

TEST(LowSpace, DeltaPlusOneOnGnp) {
  const Graph g = gen_gnp(800, 0.02, 3);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
  EXPECT_GE(r.num_mis_calls, 1u);
}

TEST(LowSpace, DegPlusOneListsOnPowerLaw) {
  // The (deg+1)-list problem is the paper's headline for Theorem 1.4:
  // skewed degrees, per-node palette sizes.
  const Graph g = gen_power_law(1000, 2.5, 6.0, 5);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 7);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
}

TEST(LowSpace, HighDegreeGraphRecurses) {
  LowSpaceParams params;
  params.delta = 0.04;
  const Graph g = gen_random_regular(900, 64, 9);  // 64 > n^{7*0.04} ~ 6.7
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal, params);
  expect_valid(g, pal, r);
  EXPECT_GE(r.num_partitions, 1u);
  EXPECT_GE(r.depth_reached, 1u);
}

TEST(LowSpace, AllLowDegreeSkipsPartition) {
  const Graph g = gen_ring(500);  // degree 2 <= threshold
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
  EXPECT_EQ(r.num_partitions, 0u);
  EXPECT_EQ(r.num_mis_calls, 1u);
}

TEST(LowSpace, Deterministic) {
  const Graph g = gen_gnp(400, 0.05, 11);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto a = low_space_color(g, pal);
  const auto b = low_space_color(g, pal);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.ledger.total_rounds(), b.ledger.total_rounds());
}

TEST(LowSpace, ListColoring) {
  const Graph g = gen_random_regular(500, 16, 13);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 18, 15);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
}

TEST(LowSpace, SpaceAccountingPopulated) {
  const Graph g = gen_gnp(600, 0.03, 17);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
  EXPECT_GT(r.mpc.peak_total_words, 0u);
}

TEST(LowSpace, RejectsDeficientPalettes) {
  const Graph g = gen_complete(6);
  const PaletteSet pal = PaletteSet::uniform(6, 3);
  EXPECT_THROW(low_space_color(g, pal), CheckError);
}

// Parameterized sweep: (family, delta parameter) combinations must all
// produce verified colorings with the low-space pipeline.
using LsParam = std::tuple<int, double>;

class LowSpaceSweep : public ::testing::TestWithParam<LsParam> {};

TEST_P(LowSpaceSweep, VerifiedColoringAcrossFamiliesAndDeltas) {
  const auto [family, delta] = GetParam();
  Graph g;
  switch (family) {
    case 0: g = gen_gnp(700, 0.03, 31); break;
    case 1: g = gen_random_regular(700, 24, 33); break;
    case 2: g = gen_power_law(700, 2.6, 7.0, 35); break;
    default: g = gen_grid(26, 26); break;
  }
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 37);
  LowSpaceParams params;
  params.delta = delta;
  const auto r = low_space_color(g, pal, params);
  const auto v = verify_coloring(g, pal, r.coloring);
  ASSERT_TRUE(v.ok) << "family=" << family << " delta=" << delta << ": "
                    << v.issue;
  // Space accounting must stay within the declared envelope.
  EXPECT_LE(r.mpc.peak_total_words,
            4 * (g.size_words() + pal.total_size()) +
                static_cast<std::uint64_t>(
                    16.0 * std::pow(static_cast<double>(g.num_nodes()),
                                    1.0 + 22.0 * delta)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LowSpaceSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.02, 0.04, 0.08)));

TEST(LowSpace, RoundsGrowWithDegreeNotSize) {
  // Theorem 1.4 shape: rounds ~ O(log Delta + log log n). Doubling n at
  // fixed degree must not double rounds.
  LowSpaceParams params;
  params.delta = 0.04;
  const Graph g1 = gen_random_regular(500, 32, 19);
  const Graph g2 = gen_random_regular(1000, 32, 21);
  const auto r1 =
      low_space_color(g1, PaletteSet::delta_plus_one(g1), params);
  const auto r2 =
      low_space_color(g2, PaletteSet::delta_plus_one(g2), params);
  EXPECT_LT(static_cast<double>(r2.ledger.total_rounds()),
            1.9 * static_cast<double>(r1.ledger.total_rounds() + 1));
}

}  // namespace
}  // namespace detcol
