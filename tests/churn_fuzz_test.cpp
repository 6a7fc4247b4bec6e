// Fuzzed churn equivalence: randomized scenarios with the workload
// engine's dynamic flow lifecycle forced ON must stay engine-invariant.
// workload_test.cpp proves the property on the hand-built churn dumbbell;
// these suites extend it to fuzz-sampled topologies, fault processes and
// variant mixes — receiver reaping, slot quarantine and mid-stream resume
// interleaved with loss, jitter, flaps and reconfiguration.
//
// Two suites, mirroring batch_equivalence_test.cpp:
//   - batched vs unbatched over churning fuzz seeds (same LP count on
//     both sides; only `batching` differs), and
//   - par {1,2,4} vs the stamped single-shard baseline (par_lps=1 is the
//     canonical tie order the parallel engine reproduces).
#include <gtest/gtest.h>

#include <cstdint>

#include "test_util.hpp"
#include "validate/fuzzer.hpp"

namespace tcppr::validate {
namespace {

using testutil::churning_fuzz_case;

class ChurnFuzzBatchEquivalence : public testing::TestWithParam<int> {};

TEST_P(ChurnFuzzBatchEquivalence, BatchedMatchesUnbatched) {
  constexpr int kSeedsPerShard = 6;
  const std::uint64_t first =
      301 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    FuzzCase c = churning_fuzz_case(seed);
    c.par_lps = seed % 3 == 0 ? 2 : 0;
    FuzzCase unbatched = c;
    unbatched.batching = false;
    const FuzzResult ref = run_fuzz_case(unbatched);
    c.batching = true;
    const FuzzResult batched = run_fuzz_case(c);
    EXPECT_EQ(batched.delivery_hash, ref.delivery_hash)
        << "seed " << seed << " (" << describe(c) << ")";
    EXPECT_EQ(batched.delivered, ref.delivered) << "seed " << seed;
    EXPECT_EQ(batched.ok, ref.ok) << "seed " << seed;
    EXPECT_TRUE(ref.ok) << "seed " << seed << ": " << ref.first_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds301To324, ChurnFuzzBatchEquivalence,
                         testing::Range(0, 4));

class ChurnFuzzParEquivalence : public testing::TestWithParam<int> {};

TEST_P(ChurnFuzzParEquivalence, ParMatchesStampedBaseline) {
  constexpr int kSeedsPerShard = 4;
  const std::uint64_t first =
      401 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
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
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds401To416, ChurnFuzzParEquivalence,
                         testing::Range(0, 4));

}  // namespace
}  // namespace tcppr::validate
