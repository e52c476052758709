#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace greennfv {
namespace {

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "episodes=100", "seed=7", "verbose"};
  const Config c = Config::from_args(4, argv);
  EXPECT_EQ(c.get_int("episodes", 0), 100);
  EXPECT_EQ(c.get_int("seed", 0), 7);
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_FALSE(c.has("missing"));
}

TEST(Config, ParsesString) {
  const Config c = Config::from_string("a=1.5, b=x\tc=true\nd=0");
  EXPECT_DOUBLE_EQ(c.get_double("a", 0.0), 1.5);
  EXPECT_EQ(c.get_string("b", ""), "x");
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, FallbacksApply) {
  const Config c = Config::from_string("");
  EXPECT_EQ(c.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(c.get_double("x", 2.5), 2.5);
  EXPECT_EQ(c.get_string("s", "dflt"), "dflt");
  EXPECT_TRUE(c.get_bool("b", true));
}

TEST(Config, LaterKeysOverride) {
  const Config c = Config::from_string("k=1 k=2");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, ThrowsOnMalformedNumbers) {
  const Config c = Config::from_string("n=abc x=1.2.3 b=maybe");
  EXPECT_THROW((void)c.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)c.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)c.get_bool("b", false), std::invalid_argument);
}

TEST(Config, CheckKnownAcceptsListedKeysAndPrefixes) {
  const Config c = Config::from_string("seed=7 flow0=udp flow12=tcp");
  EXPECT_NO_THROW(c.check_known({"seed"}, {"flow"}));
}

TEST(Config, CheckKnownThrowsNamingEveryUnknownKey) {
  const Config c = Config::from_string("sede=7 epizodes=3 windows=4");
  try {
    c.check_known({"seed", "episodes", "windows"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sede"), std::string::npos);
    EXPECT_NE(what.find("epizodes"), std::string::npos);
    EXPECT_EQ(what.find("windows"), std::string::npos);
  }
}

TEST(Config, CheckKnownPrefixRequiresSuffix) {
  // A bare prefix is not a key — "flow" alone is still a typo.
  const Config c = Config::from_string("flow=1");
  EXPECT_THROW(c.check_known({}, {"flow"}), std::invalid_argument);
}

TEST(Config, CheckKnownPrefixSuffixMustBeAnIndex) {
  // Prefixes name indexed families; a non-numeric suffix is a typo that
  // would otherwise be silently ignored ("flowz", "flow_rate").
  EXPECT_THROW(Config::from_string("flowz=3").check_known({}, {"flow"}),
               std::invalid_argument);
  EXPECT_THROW(
      Config::from_string("flow_rate=3").check_known({}, {"flow"}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      Config::from_string("flow12=x").check_known({}, {"flow"}));
}

TEST(Config, FromLinesReadsOneKeyValuePerLine) {
  // The file format: values keep their spaces and commas, '#' comments
  // run to end of line, blank lines are skipped, bare words are flags.
  const Config c = Config::from_lines(
      "# header\nname = my run\nseeds=1,2 # two\n\n  verbose\nk=1\nk=2");
  EXPECT_EQ(c.get_string("name", ""), "my run");
  EXPECT_EQ(c.get_string("seeds", ""), "1,2");
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_EQ(c.get_int("k", 0), 2);
  EXPECT_EQ(c.entries().size(), 4u);
  EXPECT_TRUE(Config::from_lines("").entries().empty());
}

TEST(Config, FamilyIndexReadsOnlyABareIndex) {
  EXPECT_EQ(family_index("flow0", "flow"), 0u);
  EXPECT_EQ(family_index("chain12", "chain"), 12u);
  EXPECT_EQ(family_index("flow99999999999999999999", "flow"), SIZE_MAX);
  for (const char* key : {"flow", "flowz", "flow_rate", "flow-1", "flow+1",
                          "flow1a", "chain0"})
    EXPECT_FALSE(family_index(key, "flow").has_value()) << key;
}

TEST(Config, DoublesMustBeFinite) {
  const Config c = Config::from_string(
      "a=nan b=inf c=-inf d=1e999 e=2.5e-3 f= g=1e-320");
  for (const char* key : {"a", "b", "c", "d", "f"}) {
    try {
      (void)c.get_double(key, 0.0);
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos);
    }
  }
  EXPECT_EQ(c.get_double("e", 0.0), 2.5e-3);
  EXPECT_EQ(c.get_double("g", 0.0), 1e-320);  // subnormal, still finite
  EXPECT_EQ(parse_finite("0.1"), 0.1);
  EXPECT_FALSE(parse_finite("0.1x").has_value());
}

TEST(Config, ParseCountTakesBareDigitsUpToItsMaximum) {
  EXPECT_EQ(parse_count("n", "0", 10), 0u);
  EXPECT_EQ(parse_count("n", "10", 10), 10u);
  EXPECT_EQ(parse_count("seed", "18446744073709551615", UINT64_MAX),
            UINT64_MAX);
  for (const char* bad :
       {"11", "-1", "+1", "1e3", "1.0", " 1", "", "18446744073709551616"}) {
    try {
      (void)parse_count("n_key", bad, 10);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("n_key"), std::string::npos);
    }
  }
}

TEST(Config, WhitespaceTrimmed) {
  // Spaces separate tokens, so values must hug their '='; surrounding
  // whitespace and tabs around whole tokens are stripped.
  const Config c = Config::from_string(" \t key=value \n");
  EXPECT_EQ(c.get_string("key", ""), "value");
}

}  // namespace
}  // namespace greennfv
