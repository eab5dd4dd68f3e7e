// One benchmark call: resolve a registry scenario, run it once through the
// public core::run_scenario at a given virtual duration and seed, and print
// one JSON line with the host timings, the peak resident memory and the
// simulated fingerprint that run.py checks against its pinned reference.
//
//   gridmon_bench --scenario narada/dbn/4000 --virtual-s 600 --seed 1
//   gridmon_bench_traced ... [--spans out.tsv]
//
// Each call is its own process, so set-up is timed from process start and
// the peak RSS belongs to this one run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/registry.hpp"
#include "probe.hpp"

namespace {

using perfbench::Clock;

// Stamped before any other static initialiser, so set-up includes them.
__attribute__((init_priority(101))) const Clock::time_point g_process_start =
    Clock::now();

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// This process's peak resident set in KiB (VmHWM), or -1 if unreadable.
// Unlike getrusage's ru_maxrss, which a vfork()ed child inherits from its
// parent's address space at exec, VmHWM belongs to the address space that
// exec created, so it is the program's own peak.
long peak_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  long kb = -1;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gridmon_bench: %s\nusage: gridmon_bench --scenario ID "
               "--virtual-s SECONDS --seed N [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  long long virtual_s = 0;
  unsigned long long seed = 0;
  bool have_seed = false;
  const char* spans_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--scenario") == 0) {
      scenario = value;
    } else if (std::strcmp(flag, "--virtual-s") == 0) {
      virtual_s = std::strtoll(value, &end, 10);
      if (*end != '\0' || virtual_s <= 0) usage("bad --virtual-s");
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--spans") == 0) {
      spans_path = value;
    } else {
      usage("unknown flag");
    }
  }
  if (scenario.empty() || virtual_s == 0 || !have_seed) {
    usage("--scenario, --virtual-s and --seed are required");
  }

  try {
    const gridmon::core::ScenarioSpec* spec =
        gridmon::core::builtin_registry().find(scenario);
    if (spec == nullptr) usage("unknown scenario");

    const Clock::time_point begin = Clock::now();
    const gridmon::core::Results results = gridmon::core::run_scenario(
        *spec, gridmon::units::seconds(virtual_s), seed);
    const Clock::time_point end = Clock::now();

    const Clock::time_point loop_entry = perfbench::first_run_loop_entry();
    if (loop_entry == Clock::time_point{}) {
      std::fprintf(stderr, "gridmon_bench: the run loop was never entered\n");
      return 1;
    }
    const long rss_kb = peak_rss_kb();
    if (rss_kb <= 0) {
      std::fprintf(stderr, "gridmon_bench: no VmHWM in /proc/self/status\n");
      return 1;
    }

    const auto& m = results.metrics;
    const auto& k = results.kernel;
    std::printf(
        "{\"scenario\":\"%s\",\"seed\":%llu,\"wall_s\":%.9f,\"setup_s\":%.9f,"
        "\"peak_rss_kb\":%ld,\"completed\":%s,"
        "\"fingerprint\":{\"sent\":%llu,\"received\":%llu,\"late\":%llu,"
        "\"wire_bytes\":%lld,\"events\":%llu,\"rtt_p50_ms\":%.17g,"
        "\"rtt_p99_ms\":%.17g},"
        "\"kernel\":{\"peak_queue_depth\":%llu,\"callback_heap_allocs\":%llu,"
        "\"handles_materialised\":%llu},"
        "\"events_forwarded\":%llu,\"mem_peak_bytes\":%lld",
        scenario.c_str(), seed, seconds_between(begin, end),
        seconds_between(g_process_start, loop_entry), rss_kb,
        results.completed ? "true" : "false",
        static_cast<unsigned long long>(m.sent()),
        static_cast<unsigned long long>(m.received()),
        static_cast<unsigned long long>(m.delivered_late()),
        static_cast<long long>(results.wire_bytes),
        static_cast<unsigned long long>(k.events_executed),
        m.rtt_percentile_ms(50.0), m.rtt_percentile_ms(99.0),
        static_cast<unsigned long long>(k.peak_queue_depth),
        static_cast<unsigned long long>(k.callback_heap_allocs),
        static_cast<unsigned long long>(k.handles_materialised),
        static_cast<unsigned long long>(results.events_forwarded),
        static_cast<long long>(results.mem.peak_total));
    const bool traced_ok = perfbench::write_trace_fields(stdout, spans_path);
    std::printf("}\n");
    return traced_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridmon_bench: %s\n", e.what());
    return 1;
  }
}
