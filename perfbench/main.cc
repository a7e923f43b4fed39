// perfbench: the commit-engine benchmark. One process runs one workload
// from a seed and prints every metric by name with its unit; the last line
// is the JSON result. See README.md for the workloads and metrics.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--plan-only]
//        perfbench --list-metrics
//        perfbench --finding <name> [--txns <n>]   (README.md, seed state)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "common.h"
#include "harness/bench_report.h"

// --- counting allocator --------------------------------------------------------
// Replaceable global operator new/delete, as in the tests' counting
// allocator: every heap allocation in the process bumps one counter, which
// feeds tm.allocs_per_commit. Relaxed atomic: the live workload allocates
// from several threads.

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<conversation|tree|live-open|crash-recovery> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--plan-only]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string finding;
  uint64_t finding_txns = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plan-only") {
      options.plan_only = true;
      continue;
    }
    if (arg == "--list-metrics") {
      for (const perfbench::MetricDef& d : perfbench::EndToEndMetrics())
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      for (const perfbench::MetricDef& d : perfbench::PerLayerMetrics())
        std::printf("per_layer %s %s\n", d.name, d.unit);
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--finding") {
      finding = value;
    } else if (arg == "--txns") {
      finding_txns = std::strtoull(value, nullptr, 10);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!finding.empty()) return perfbench::RunFinding(finding, finding_txns);
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Sheet sheet;
  perfbench::Outcome outcome;
  if (options.workload == "conversation") {
    outcome = perfbench::RunConversation(options, &sheet);
  } else if (options.workload == "tree") {
    outcome = perfbench::RunTree(options, &sheet);
  } else if (options.workload == "crash-recovery") {
    outcome = perfbench::RunCrashRecovery(options, &sheet);
  } else if (options.workload == "live-open") {
    outcome = perfbench::RunLiveOpen(options, &sheet);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (options.plan_only) return 0;
  sheet.Set("peak_rss_mib", static_cast<double>(tpc::harness::PeakRssBytes()) /
                                (1024.0 * 1024.0));
  sheet.Print(options, outcome);
  return 0;
}
