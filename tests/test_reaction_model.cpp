#include "model/reaction_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

ReactionModel two_reaction_model() {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", 3.0, {exact({0, 0}, 1, 0)}));
  return m;
}

TEST(ReactionModel, TotalRateAccumulates) {
  const ReactionModel m = two_reaction_model();
  EXPECT_DOUBLE_EQ(m.total_rate(), 4.0);
  EXPECT_EQ(m.num_reactions(), 2u);
}

TEST(ReactionModel, ReactionAccess) {
  const ReactionModel m = two_reaction_model();
  EXPECT_EQ(m.reaction(0).name(), "ads");
  EXPECT_EQ(m.reaction(1).name(), "des");
  EXPECT_THROW((void)m.reaction(2), std::out_of_range);
}

TEST(ReactionModel, MaxRadius) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("one", 1.0, {exact({0, 0}, 0, 1)}));
  EXPECT_EQ(m.max_radius_l1(), 0);
  m.add(ReactionType("pair", 1.0, {exact({0, 0}, 1, 0), exact({0, 1}, 0, 1)}));
  EXPECT_EQ(m.max_radius_l1(), 1);
  m.add(ReactionType("far", 1.0, {exact({0, 0}, 1, 0), exact({2, 1}, 0, 1)}));
  EXPECT_EQ(m.max_radius_l1(), 3);
}

TEST(ReactionModel, SampleTypeProportionalToRates) {
  const ReactionModel m = two_reaction_model();  // rates 1 : 3
  Xoshiro256 rng(5);
  int counts[2] = {0, 0};
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[m.sample_type(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.005);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.75, 0.005);
}

TEST(ReactionModel, SampleTypeAfterLateAdd) {
  // The alias table must rebuild in add(): sampling, then add(), then
  // sampling again must see the new rate.
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("a", 1.0, {exact({0, 0}, 0, 1)}));
  Xoshiro256 rng(6);
  EXPECT_EQ(m.sample_type(rng), 0u);
  m.add(ReactionType("b", 99.0, {exact({0, 0}, 1, 0)}));
  int hits_b = 0;
  for (int i = 0; i < 1000; ++i) hits_b += m.sample_type(rng) == 1 ? 1 : 0;
  EXPECT_GT(hits_b, 950);
}

TEST(ReactionModel, ValidateAcceptsGoodModel) {
  const ReactionModel m = two_reaction_model();
  EXPECT_NO_THROW(m.validate());
}

TEST(ReactionModel, ValidateRejectsEmptyModel) {
  const ReactionModel m(SpeciesSet({"*"}));
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(ReactionModel, ValidateRejectsUnknownSpeciesInMask) {
  ReactionModel m(SpeciesSet({"*", "A"}));  // species 0, 1 only
  m.add(ReactionType("bad_src", 1.0, {Transform{{0, 0}, species_bit(5), 0}}));
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(ReactionModel, ValidateRejectsOutOfRangeTarget) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("bad_tg", 1.0, {exact({0, 0}, 0, 7)}));
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(ReactionModel, EmptySpeciesSetThrows) {
  EXPECT_THROW(ReactionModel(SpeciesSet{}), std::invalid_argument);
}

TEST(ArrheniusRate, MatchesFormula) {
  // k = nu * exp(-E / kB T); at E = 0 the rate is the prefactor.
  EXPECT_DOUBLE_EQ(arrhenius_rate(1e13, 0.0, 300.0), 1e13);
  // Higher barrier -> smaller rate; higher T -> larger rate.
  const double k1 = arrhenius_rate(1e13, 0.5, 300.0);
  const double k2 = arrhenius_rate(1e13, 1.0, 300.0);
  const double k3 = arrhenius_rate(1e13, 0.5, 600.0);
  EXPECT_LT(k2, k1);
  EXPECT_GT(k3, k1);
  // Spot value: exp(-0.5 / (8.617e-5 * 300)) ~ 4e-9.
  EXPECT_NEAR(k1 / 1e13, 4.0e-9, 1.5e-9);
}

TEST(ArrheniusRate, RejectsBadInputs) {
  EXPECT_THROW((void)arrhenius_rate(0.0, 0.5, 300.0), std::invalid_argument);
  EXPECT_THROW((void)arrhenius_rate(1e13, 0.5, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace casurf
