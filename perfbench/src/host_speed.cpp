#include "host_speed.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "layer_clock.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPending = 4096;
constexpr std::size_t kRecords = (4u << 20) / sizeof(std::uint64_t);
constexpr int kOps = 150'000;

// Keeps the kernel's loop from being optimised away.
volatile std::uint64_t g_sink = 0;

struct Kernel {
  std::vector<std::uint64_t> heap;
  std::vector<std::uint64_t> records = std::vector<std::uint64_t>(kRecords);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;

  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  // Starts from the same heap and table every time, so every run does the
  // same work; clearing the table also brings it into cache, so the time
  // does not depend on what ran before.
  void reset() {
    std::fill(records.begin(), records.end(), 0);
    state = 0x9e3779b97f4a7c15ull;
    heap.clear();
    for (std::size_t i = 0; i < kPending; ++i) heap.push_back(next() >> 24);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }

  std::uint64_t run() {
    std::uint64_t sum = 0;
    for (int i = 0; i < kOps; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const std::uint64_t t = heap.back();
      std::uint64_t& record = records[(t * 0x9e3779b97f4a7c15ull) % kRecords];
      record += t;
      sum += record;
      heap.back() = t + (next() >> 44);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return sum;
  }
};

}  // namespace

double reference_s() {
  static Kernel kernel;
  kernel.reset();
  const std::int64_t t0 = now_ns();
  g_sink = kernel.run();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
