// Link-time probes behind the benchmark executables. gridmon_bench links
// setup_probe.cpp (wraps Simulation::run_loop only, to stamp the end of
// set-up); gridmon_bench_traced links trace.cpp (wraps every layer
// boundary). Both define this interface, so main.cpp is the same file in
// both executables.
#pragma once

#include <chrono>
#include <cstdio>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// When the kernel's run loop was first entered; the epoch if never.
Clock::time_point first_run_loop_entry();

/// Appends the traced run's fields to the open JSON object on `out`, each
/// as `,"key":value`. When `spans_path` is non-null, also writes the
/// sampled span records there as TSV; false if that file cannot be
/// written. The untraced probe writes nothing.
bool write_trace_fields(std::FILE* out, const char* spans_path);

}  // namespace perfbench
