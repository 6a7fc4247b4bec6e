// tcppr_perfbench: runs one benchmark workload in this process and prints
// its measurements as one JSON line. perfbench/run.py drives it, one
// process per run, and aggregates the runs.
//
//   tcppr_perfbench --workload NAME --seed N --mode timed|check|traced
//                   [--lps N]
//   tcppr_perfbench --selftest [--seed N]
//
// --lps overrides the workload's LP count (check runs use --lps 1 for the
// canonical one-LP trajectory). --selftest runs every workload with and
// without the timing proxies and fails unless the delivery hashes and
// fingerprints agree (and the two-LP run hashes equal to the one-LP run).
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;
using perfbench::WorkloadSpec;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

// Names and values are plain ASCII from this program; no escaping needed
// except for the CPU brand string.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_result(const WorkloadSpec& spec, std::uint64_t seed,
                  const char* mode, const RunResult& r) {
  std::printf(
      "{\"workload\": \"%s\", \"lps\": %d, \"seed\": %" PRIu64
      ", \"mode\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"compiler\": \"%s\", "
      "\"cpu\": %s, ",
      spec.name.c_str(), spec.lps, seed, mode, PERFBENCH_BUILD_TYPE,
      kOptimized ? "true" : "false", PERFBENCH_COMPILER,
      json_string(cpu_model()).c_str());
  std::printf(
      "\"fingerprint\": {\"delivered\": %" PRIu64 ", \"originated\": %" PRIu64
      ", \"queue_dropped\": %" PRIu64 ", \"retransmissions\": %" PRIu64
      ", \"completed\": %" PRIu64 "}, ",
      r.fp.delivered, r.fp.originated, r.fp.queue_dropped,
      r.fp.retransmissions, r.fp.completed);
  std::printf("\"hash\": %" PRIu64 ", \"pkts\": %" PRIu64
              ", \"events\": %" PRIu64 ", \"pump_ops\": %" PRIu64
              ", \"flows\": %" PRIu64 ", ",
              r.hash, r.pkts, r.events, r.pump_ops, r.flows);
  std::printf(
      "\"build_s\": %.9g, \"partition_s\": %.9g, \"start_s\": %.9g, "
      "\"setup_s\": %.9g, \"setup_per_ref\": %.9g, \"run_s\": %.9g, "
      "\"peak_rss_mb\": %.6f, \"layers\": {",
      r.build_s, r.partition_s, r.start_s, r.setup_s, r.setup_per_ref,
      r.run_s, peak_rss_mb());
  const char* sep = "";
  for (const auto& [name, value] : r.layers) {
    std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}, \"window_run_s\": [");
  sep = "";
  for (const double v : r.window_run_s) {
    std::printf("%s%.9g", sep, v);
    sep = ", ";
  }
  std::printf("], \"window_ref_s\": [");
  sep = "";
  for (const double v : r.window_ref_s) {
    std::printf("%s%.9g", sep, v);
    sep = ", ";
  }
  std::printf("]}\n");
}

bool same_fingerprint(const RunResult& a, const RunResult& b) {
  return a.fp.delivered == b.fp.delivered &&
         a.fp.originated == b.fp.originated &&
         a.fp.queue_dropped == b.fp.queue_dropped &&
         a.fp.retransmissions == b.fp.retransmissions &&
         a.fp.completed == b.fp.completed;
}

int selftest(std::uint64_t seed) {
  int failures = 0;
  for (const WorkloadSpec& spec : perfbench::all_workloads()) {
    RunOptions plain;
    plain.hash = true;
    RunOptions traced = plain;
    traced.trace = true;
    const RunResult a = perfbench::run_workload(spec, seed, plain);
    const RunResult b = perfbench::run_workload(spec, seed, traced);
    bool ok = a.hash == b.hash && same_fingerprint(a, b) && a.fp.delivered > 0;
    if (spec.lps > 1) {
      // Every LP count must reproduce the stamped one-LP trajectory.
      WorkloadSpec one = spec;
      one.lps = 1;
      ok = ok && perfbench::run_workload(one, seed, plain).hash == a.hash;
    }
    std::printf("%-20s %-4s untraced %016" PRIx64 " traced %016" PRIx64
                " delivered %" PRIu64 "\n",
                spec.name.c_str(), ok ? "ok" : "FAIL", a.hash, b.hash,
                a.fp.delivered);
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: tcppr_perfbench --workload NAME --seed N "
               "--mode timed|check|traced\n"
               "                       [--lps N]\n"
               "       tcppr_perfbench --selftest [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "timed";
  std::uint64_t seed = 1;
  long lps = -1;  // -1: the workload's own
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      self = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--lps" && has_value) {
      char* end = nullptr;
      lps = std::strtol(argv[++i], &end, 10);
      if (*end != '\0' || lps < 0 || lps > 8) return usage();
    } else {
      return usage();
    }
  }
  if (self) return selftest(seed);

  const WorkloadSpec* found = perfbench::find_workload(workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
  }
  WorkloadSpec spec = *found;
  if (lps >= 0) spec.lps = static_cast<int>(lps);
  RunOptions options;
  if (mode == "check") {
    options.hash = true;
  } else if (mode == "traced") {
    options.trace = true;
  } else if (mode != "timed") {
    return usage();
  }
  const RunResult r = perfbench::run_workload(spec, seed, options);
  print_result(spec, seed, mode.c_str(), r);
  return 0;
}
