#include "model/parser.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dmc/rsm.hpp"
#include "models/zgb.hpp"

namespace casurf {
namespace {

constexpr const char* kZgbText = R"(
# ZGB CO oxidation, paper Table I
species * CO O

reaction CO_ads rate=1.0
  (0,0) * -> CO
end

reaction O2_ads rate=0.5 orientations=xy
  (0,0) * -> O
  (1,0) * -> O
end

reaction CO2_form rate=0.5 orientations=all
  (0,0) CO -> *
  (1,0) O -> *
end
)";

TEST(ModelParser, ParsesZgbText) {
  const ReactionModel model = parse_model(kZgbText);
  EXPECT_EQ(model.species().size(), 3u);
  EXPECT_EQ(model.num_reactions(), 7u);  // 1 + 2 + 4
  EXPECT_DOUBLE_EQ(model.total_rate(), 4.0);
}

TEST(ModelParser, ParsedZgbMatchesBuiltinStructure) {
  const ReactionModel parsed = parse_model(kZgbText);
  const auto builtin = models::make_zgb();
  ASSERT_EQ(parsed.num_reactions(), builtin.model.num_reactions());
  for (ReactionIndex i = 0; i < parsed.num_reactions(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.reaction(i).rate(), builtin.model.reaction(i).rate()) << i;
    EXPECT_EQ(parsed.reaction(i).transforms().size(),
              builtin.model.reaction(i).transforms().size()) << i;
  }
  // Orientation rotation: CO2_form_0 is +x, _1 is +y, _2 is -x, _3 is -y.
  EXPECT_EQ(parsed.reaction(3).transforms()[1].offset, (Vec2{1, 0}));
  EXPECT_EQ(parsed.reaction(4).transforms()[1].offset, (Vec2{0, 1}));
  EXPECT_EQ(parsed.reaction(5).transforms()[1].offset, (Vec2{-1, 0}));
  EXPECT_EQ(parsed.reaction(6).transforms()[1].offset, (Vec2{0, -1}));
}

TEST(ModelParser, ParsedModelSimulatesLikeBuiltin) {
  const ReactionModel parsed = parse_model(kZgbText);
  const auto builtin = models::make_zgb();
  RsmSimulator a(parsed, Configuration(Lattice(16, 16), 3, 0), 7);
  RsmSimulator b(builtin.model, Configuration(Lattice(16, 16), 3, 0), 7);
  for (int i = 0; i < 30; ++i) {
    a.mc_step();
    b.mc_step();
  }
  // Same seed, structurally identical models: identical trajectories.
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(ModelParser, WildcardAlternationAndKeep) {
  const ReactionModel model = parse_model(R"(
species * A B
reaction assisted rate=2.0
  (0,0) * -> A
  (1,0) A|B -> keep
end
)");
  const ReactionType& rt = model.reaction(0);
  ASSERT_EQ(rt.transforms().size(), 2u);
  EXPECT_EQ(rt.transforms()[1].src, species_bit(1) | species_bit(2));
  EXPECT_EQ(rt.transforms()[1].tg, kKeep);
}

TEST(ModelParser, AnyKeyword) {
  const ReactionModel model = parse_model(R"(
species * A B
reaction watch rate=1.0
  (0,0) A -> *
  (0,1) any -> keep
end
)");
  EXPECT_EQ(model.reaction(0).transforms()[1].src, model.species().all_mask());
}

TEST(ModelParser, NegativeOffsets) {
  const ReactionModel model = parse_model(R"(
species * A
reaction hop rate=1.0
  (0,0) A -> *
  (-1,-2) * -> A
end
)");
  EXPECT_EQ(model.reaction(0).transforms()[1].offset, (Vec2{-1, -2}));
}

// Each case carries a name for gtest to print. Without a PrintTo, gtest
// prints the struct's raw bytes, which hold the string literals' addresses,
// so the test ids would change from one build to the next.
struct BadCase {
  const char* name;
  const char* text;
  const char* what;  // substring expected in the error
};

void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ParserErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrors, RejectsWithUsefulMessage) {
  try {
    (void)parse_model(GetParam().text);
    FAIL() << "expected ModelParseError";
  } catch (const ModelParseError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().what), std::string::npos)
        << "actual: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadCase{"reaction_before_species", "reaction r rate=1\n (0,0) A -> B\nend\n",
                "before 'species'"},
        BadCase{"duplicate_species",
                "species * A\nspecies * B\nreaction r rate=1\n(0,0) * -> A\nend\n",
                "duplicate 'species'"},
        BadCase{"no_reactions", "species * A\n", "no reactions"},
        BadCase{"empty_species", "species\nreaction r rate=1\n(0,0) * -> A\nend\n",
                "names no species"},
        BadCase{"missing_rate", "species * A\nreaction r\n(0,0) * -> A\nend\n",
                "needs rate"},
        BadCase{"zero_rate", "species * A\nreaction r rate=0\n(0,0) * -> A\nend\n",
                "positive"},
        BadCase{"bad_orientations",
                "species * A\nreaction r rate=1 orientations=up\n(0,0) * -> A\nend\n",
                "none|xy|all"},
        BadCase{"unknown_source_species",
                "species * A\nreaction r rate=1\n(0,0) Z -> A\nend\n",
                "unknown species 'Z'"},
        BadCase{"unknown_target_species",
                "species * A\nreaction r rate=1\n(0,0) * -> Z\nend\n",
                "unknown species 'Z'"},
        BadCase{"offset_without_parens",
                "species * A\nreaction r rate=1\n0,0 * -> A\nend\n", "expected offset"},
        BadCase{"missing_arrow", "species * A\nreaction r rate=1\n(0,0) * A\nend\n",
                "expected '(dx,dy) SRC -> TG'"},
        BadCase{"unclosed_reaction", "species * A\nreaction r rate=1\n(0,0) * -> A\n",
                "not closed"},
        BadCase{"stray_end", "species * A\nend\n", "'end' without"},
        BadCase{"transform_off_anchor",
                "species * A\nreaction r rate=1\n(1,0) * -> A\nend\n", "anchor"},
        BadCase{"nested_reaction",
                "species * A\nreaction r rate=1\nreaction q rate=1\nend\n", "nested"},
        BadCase{"unknown_token", "species * A\nbogus\n", "unexpected token"}));

TEST(ModelParser, ErrorCarriesLineNumber) {
  try {
    (void)parse_model("species * A\nreaction r rate=1\n(0,0) Z -> A\nend\n");
    FAIL();
  } catch (const ModelParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

// The line number must point at the offending line for every failure
// shape, not just species errors — it is the only thing a user has to go
// on in a hand-written .model file.
struct LineCase {
  const char* name;
  const char* text;
  std::size_t line;
};

void PrintTo(const LineCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorLines : public ::testing::TestWithParam<LineCase> {};

TEST_P(ParserErrorLines, ReportsTheOffendingLine) {
  try {
    (void)parse_model(GetParam().text);
    FAIL() << "expected ModelParseError";
  } catch (const ModelParseError& e) {
    EXPECT_EQ(e.line(), GetParam().line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorLines,
    ::testing::Values(
        // reaction before species: flagged at the reaction line
        LineCase{"reaction_before_species", "reaction r rate=1\n(0,0) A -> B\nend\n", 1},
        // duplicate species block: flagged at the second one
        LineCase{"duplicate_species",
                 "species * A\n\nspecies * B\nreaction r rate=1\n(0,0) * -> A\nend\n",
                 3},
        // missing rate: flagged at the reaction header
        LineCase{"missing_rate", "species * A\nreaction r\n(0,0) * -> A\nend\n", 2},
        // malformed transform after blank lines: line count includes them
        LineCase{"blank_lines_counted",
                 "species * A\n\n\nreaction r rate=1\n\n0,0 * -> A\nend\n", 6},
        // unclosed reaction: flagged at the reaction header it belongs to
        LineCase{"unclosed_reaction", "species * A\nreaction r rate=1\n(0,0) * -> A\n",
                 2},
        // stray 'end': flagged where it appears
        LineCase{"stray_end", "species * A\nend\n", 2},
        // unknown target species deep in a multi-transform reaction
        LineCase{"unknown_target_in_second_transform",
                 "species * A\nreaction r rate=1\n(0,0) * -> A\n(0,1) * -> Z\nend\n",
                 4}));

TEST(ModelParser, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "casurf_parser_test.model";
  {
    std::ofstream out(path);
    out << kZgbText;
  }
  const ReactionModel model = parse_model_file(path);
  EXPECT_EQ(model.num_reactions(), 7u);
  std::remove(path.c_str());
}

TEST(ModelParser, MissingFileThrows) {
  EXPECT_THROW((void)parse_model_file("/nonexistent/zzz.model"), std::runtime_error);
}

}  // namespace
}  // namespace casurf
