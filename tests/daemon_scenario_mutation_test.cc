// Seeded mutation harness for the scenario parser. Inputs are derived from the
// shipped configs by byte flips, inserts, deletes and splices; every one must
// come back from ParseJson and ParseScenario as a value or a Status. An abort,
// a CHECK, a sanitizer report or a hang (the ctest timeout) fails the test.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/daemon/scenario.h"
#include "tests/shipped_configs.h"

namespace faasnap {
namespace {

constexpr int kInputs = 4000;
constexpr uint64_t kSeed = 0x5ce7a210;

// Bytes that change JSON structure or number syntax.
constexpr char kAlphabet[] = "{}[]\",:-+.eE0123456789 tfn\\";

std::vector<std::string> ShippedConfigs() {
  std::vector<std::string> docs;
  for (const std::string& path : ShippedConfigPaths()) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    docs.push_back(buffer.str());
  }
  return docs;
}

std::string Mutate(std::string doc, const std::vector<std::string>& corpus, Rng& rng) {
  const uint64_t edits = 1 + rng.NextBelow(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t pos = rng.NextBelow(doc.size() + 1);
    switch (rng.NextBelow(5)) {
      case 0:  // flip one bit
        if (pos < doc.size()) {
          doc[pos] = static_cast<char>(doc[pos] ^ (1 << rng.NextBelow(8)));
        }
        break;
      case 1:  // insert one structural byte
        doc.insert(pos, 1, kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
        break;
      case 2: {  // lengthen the next number, past its unit's range at times
        const size_t digit = doc.find_first_of("0123456789", pos);
        for (uint64_t n = 1 + rng.NextBelow(18); n > 0 && digit != std::string::npos; --n) {
          doc.insert(digit, 1, static_cast<char>('0' + rng.NextBelow(10)));
        }
        break;
      }
      case 3:  // delete a short range
        doc.erase(pos, 1 + rng.NextBelow(12));
        break;
      default: {  // splice in a slice of another shipped config
        const std::string& other = corpus[rng.NextBelow(corpus.size())];
        doc.insert(pos, other.substr(rng.NextBelow(other.size()), 1 + rng.NextBelow(48)));
        break;
      }
    }
  }
  return doc;
}

TEST(ScenarioMutation, EveryInputYieldsAValueOrAStatus) {
  const std::vector<std::string> corpus = ShippedConfigs();
  ASSERT_FALSE(corpus.empty()) << "no configs/*.json found";
  for (const std::string& doc : corpus) {
    ASSERT_FALSE(doc.empty());
    Result<JsonValue> json = ParseJson(doc);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    ASSERT_TRUE(ParseScenario(*json).ok());
  }

  Rng rng(kSeed);
  int json_ok = 0;
  int scenario_ok = 0;
  int scenario_rejected = 0;
  for (int i = 0; i < kInputs; ++i) {
    const std::string input = Mutate(corpus[rng.NextBelow(corpus.size())], corpus, rng);
    Result<JsonValue> json = ParseJson(input);
    if (!json.ok()) {
      EXPECT_EQ(json.status().code(), StatusCode::kInvalidArgument) << input;
      continue;
    }
    ++json_ok;
    Result<Scenario> scenario = ParseScenario(*json);
    if (scenario.ok()) {
      ++scenario_ok;
    } else {
      ++scenario_rejected;
      EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument) << input;
    }
  }
  // The mix must keep exercising the schema, not only the JSON tokenizer.
  EXPECT_GT(json_ok, kInputs / 5);
  EXPECT_GT(scenario_ok, kInputs / 20);
  EXPECT_GT(scenario_rejected, kInputs / 20);
}

}  // namespace
}  // namespace faasnap
