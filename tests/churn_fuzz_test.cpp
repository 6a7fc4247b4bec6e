// Fuzzed churn equivalence: randomized scenarios with the workload
// engine's dynamic flow lifecycle forced ON must stay engine-invariant.
// workload_test.cpp proves the property on the hand-built churn dumbbell;
// this suite extends it to fuzz-sampled topologies, fault processes and
// variant mixes — receiver reaping, slot quarantine and mid-stream resume
// interleaved with loss, jitter, flaps and reconfiguration.
//
// par {2,4} vs the stamped single-shard baseline (par_lps=1 is the
// canonical tie order the parallel engine reproduces), over two churning
// seed ranges.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "test_util.hpp"
#include "validate/fuzzer.hpp"

namespace tcppr::validate {
namespace {

using testutil::churning_fuzz_case;

// One shard of a seed range: seeds [first, first + count).
struct SeedShard {
  int index = 0;
  std::uint64_t first = 0;
  int count = 0;
};

// Prints the shard index, so each test is named after it (.../0, .../1).
void PrintTo(const SeedShard& shard, std::ostream* os) { *os << shard.index; }

std::vector<SeedShard> shards(std::uint64_t first, int per_shard, int n) {
  std::vector<SeedShard> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(SeedShard{
        i, first + static_cast<std::uint64_t>(i * per_shard), per_shard});
  }
  return out;
}

class ChurnFuzzParEquivalence : public testing::TestWithParam<SeedShard> {};

TEST_P(ChurnFuzzParEquivalence, ParMatchesStampedBaseline) {
  const SeedShard& shard = GetParam();
  for (std::uint64_t seed = shard.first; seed < shard.first + shard.count;
       ++seed) {
    FuzzCase c = churning_fuzz_case(seed);
    c.par_lps = 1;
    const FuzzResult ref = run_fuzz_case(c);
    EXPECT_TRUE(ref.ok) << "seed " << seed << ": " << ref.first_violation;
    EXPECT_GT(ref.delivered, 0u) << "seed " << seed;
    for (const int lps : {2, 4}) {
      FuzzCase t = c;
      t.par_lps = lps;
      const FuzzResult r = run_fuzz_case(t);
      EXPECT_EQ(r.delivery_hash, ref.delivery_hash)
          << "seed " << seed << " lps=" << lps << " (" << describe(t) << ")";
      EXPECT_EQ(r.delivered, ref.delivered)
          << "seed " << seed << " lps=" << lps;
      EXPECT_EQ(r.ok, ref.ok) << "seed " << seed << " lps=" << lps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds301To324, ChurnFuzzParEquivalence,
                         testing::ValuesIn(shards(301, 6, 4)));
INSTANTIATE_TEST_SUITE_P(Seeds401To416, ChurnFuzzParEquivalence,
                         testing::ValuesIn(shards(401, 4, 4)));

}  // namespace
}  // namespace tcppr::validate
