// Deterministic mutation fuzz of the spec input path: ScenarioSpec::parse
// for spec files and ScenarioSpec::set for campaign_runner flags. Seeded
// from the built-in specs and a hand-written spec, every mutation is
// replayable from the fixed seed, and the suite runs under the ASan/UBSan
// job (CTest label `fuzz`). Whatever the input, nothing may crash, and an
// accepted spec must be valid() and re-parse to byte-identical canonical
// text, the checkpoint identity.
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/builtin.h"

namespace seg {
namespace {

constexpr int kIterations = 6000;

std::vector<std::string> corpus() {
  std::vector<std::string> texts;
  for (const std::string& name : builtin_campaign_names()) {
    BuiltinCampaign campaign;
    make_builtin_campaign(name, {}, &campaign);
    texts.push_back(campaign.spec.to_text());
  }
  texts.push_back(
      "# hand-written\n"
      "name = fuzz\n"
      "n = 16, 24\n"
      "w = 1\n"
      "topology = lollipop, random_regular\n"
      "graph_nodes = 64\n"
      "metrics = flips, majority\n"
      "stop_rule = pass_rate\n"
      "stop_metric = majority\n"
      "stop_range = 0, 1\n");
  return texts;
}

// Tokens a mutation splices in: every key, the separators, the enum and
// metric names, and numbers at and past the edges of their types.
std::vector<std::string> dictionary() {
  std::vector<std::string> tokens;
  for (const SpecKey& key : spec_keys()) tokens.push_back(key.key);
  for (const char* t :
       {"=", ",", "\n", "#", " ", "\t", "\r", "-", "x", "0", "1", "-1", "2",
        "3", "90", "91", "0.5", "1.5", "-0", "1e308", "1e309", "nan", "inf",
        "46341", "2000000000", "2147483648", "9999999999",
        "18446744073709551616", "moore",
        "von_neumann", "glauber", "discrete", "synchronous", "torus",
        "lollipop", "random_regular", "small_world", "edge_list", "none",
        "hoeffding", "bernstein", "pass_rate", "flips", "majority",
        "streaming", "mean_mono_region", "streaming_largest_cluster"}) {
    tokens.push_back(t);
  }
  return tokens;
}

std::string mutate(std::string text, std::mt19937_64& rng,
                   const std::vector<std::string>& tokens) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = pick(text.size() + 1);
    const std::string& token = tokens[pick(tokens.size())];
    switch (pick(6)) {
      case 0:  // delete a short run
        if (pos < text.size()) text.erase(pos, 1 + pick(8));
        break;
      case 1:  // splice in a token
        text.insert(pos, token);
        break;
      case 2:  // overwrite one byte with any value
        if (pos < text.size()) text[pos] = static_cast<char>(pick(256));
        break;
      case 3: {  // replace the value of the line around pos
        const std::size_t nl = pos == 0 ? std::string::npos
                                        : text.rfind('\n', pos - 1);
        const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos) end = text.size();
        const std::size_t eq = text.find('=', begin);
        if (eq < end) text.replace(eq + 1, end - eq - 1, " " + token);
        break;
      }
      case 4:  // append a `key = token` line
        text += std::string(spec_keys()[pick(spec_keys().size())].key) +
                " = " + token + "\n";
        break;
      default:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

// An accepted spec is valid and its canonical text is a fixed point.
void expect_canonical(const ScenarioSpec& spec, const std::string& input) {
  std::string error;
  ASSERT_TRUE(spec.valid(&error)) << input << "\n" << error;
  ScenarioSpec back;
  ASSERT_TRUE(ScenarioSpec::parse(spec.to_text(), &back, &error))
      << input << "\n" << error;
  ASSERT_EQ(back.to_text(), spec.to_text()) << input;
}

TEST(SpecFuzz, ParseNeverCrashesAndAcceptedTextsRoundTrip) {
  const std::vector<std::string> seeds = corpus();
  const std::vector<std::string> tokens = dictionary();
  std::mt19937_64 rng(0x5eed5eedULL);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = mutate(seeds[i % seeds.size()], rng, tokens);
    ScenarioSpec spec;
    std::string error;
    if (!ScenarioSpec::parse(text, &spec, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    expect_canonical(spec, text);
    if (HasFatalFailure()) return;
  }
  // The mutations must leave enough texts parseable to test the
  // round trip, not just the error paths.
  EXPECT_GT(accepted, kIterations / 20);
}

TEST(SpecFuzz, SetNeverCrashesAndAcceptedFlagsRoundTrip) {
  // The flag path: a built-in's base spec, then random key/value sets.
  const std::vector<std::string> tokens = dictionary();
  const std::vector<std::string> names = builtin_campaign_names();
  std::mt19937_64 rng(0xf1a95ULL);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    ScenarioSpec spec = find_builtin(names[i % names.size()])->base();
    const int sets = 1 + static_cast<int>(rng() % 3);
    std::string input;
    for (int s = 0; s < sets; ++s) {
      const SpecKey& key = spec_keys()[rng() % spec_keys().size()];
      std::string value = tokens[rng() % tokens.size()];
      if (rng() % 2) value += "," + tokens[rng() % tokens.size()];
      input += std::string(key.key) + " <- '" + value + "'\n";
      const std::string before = spec.to_text();
      std::string why;
      if (!spec.set(key.key, value, &why)) {
        EXPECT_NE(why.find(key.key), std::string::npos) << input << why;
        EXPECT_EQ(spec.to_text(), before) << input;
      }
    }
    if (!spec.valid()) continue;
    ++accepted;
    expect_canonical(spec, input);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, kIterations / 20);
}

}  // namespace
}  // namespace seg
