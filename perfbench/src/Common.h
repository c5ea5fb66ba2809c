//===- Common.h - Shared helpers of the benchmark binary --------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result report and the helpers every workload of the
/// benchmark binary uses. perfbench/README.md describes the workloads and
/// the metrics they print.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Trace.h"

#include "harness/Experiment.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the Chrome trace and the fleet workload's shard files.
  std::string OutDir = ".bench_build/out";
  /// The committed per-program digests the compile workload checks.
  std::string Expected = "perfbench/expected/compile_digests.txt";
  /// When set, the compile workload writes its digests here instead of
  /// checking them (regenerates the expected file).
  std::string WriteExpected;
};

/// A metric the binary prints: its name and unit.
struct MetricDef {
  const char *Name;
  const char *Unit;
};
/// Printed by the untraced run of every workload.
extern const std::vector<MetricDef> EndToEndMetrics;
/// Printed by the traced run of every workload; a layer the workload does
/// not enter reads 0.
extern const std::vector<MetricDef> LayerMetrics;

/// What a run prints as its last line: operation counts and metric values.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Values;

  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  /// Counts one checked operation; \p Ok false records a failure and
  /// prints \p What to stderr.
  void check(bool Ok, const std::string &What);
};

double median(std::vector<double> V);
/// Nearest-rank percentile (\p P in 0-100) of \p V; 0 for an empty vector.
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
double sum(const std::vector<double> &V);
double peakRssMb();

/// 64-bit FNV-1a over \p Text.
uint64_t fnv1a(const std::string &Text);

/// One (benchmark, model) program of a workload's compile set.
struct GridProgram {
  const ocelot::BenchmarkDef *Bench = nullptr;
  ocelot::ExecModel Model = ocelot::ExecModel::Ocelot;
  /// The source compileBenchmark picks for this model.
  const char *source() const;
  std::string label() const;
};

/// Set-up repetitions; set-up time and the set-up compile times are
/// medians over them.
constexpr int SetupReps = 3;

struct SetupResult {
  double SetupS = 0;             ///< Median set-up wall time.
  std::vector<double> CompileMs; ///< Per program, median over the reps.
  double CacheHitRate = 0;       ///< Cache hits ÷ lookups, last rep.
};
/// Set-up shared by every workload, done SetupReps times from a cleared
/// artifact cache: compile each of \p Programs through compileBenchmark
/// (cache misses), then run \p Warm, which may hit the cache.
SetupResult runSetup(const std::vector<GridProgram> &Programs,
                     const std::function<void()> &Warm);

/// Sets compile_grid_s and compile_ms.geomean from per-program times.
void setCompileGridMetrics(Report &R, const std::vector<double> &ProgramMs);

/// Replays \p Programs stage by stage through the library's public entry
/// points, \p Rounds times, and sets the compile-layer metrics. A replay
/// whose policies, regions or monitor plan differ from Toolchain::compile's
/// is a failed check.
void replayCompileStages(const std::vector<GridProgram> &Programs, int Rounds,
                         Tracer &Tr, Report &R);

/// Sets the self_ms.* metrics and the span count from \p Tr.
void setSelfTimeMetrics(const Tracer &Tr, Report &R);

/// Writes \p Tr as Chrome trace JSON under \p O.OutDir (failure is
/// reported, not fatal: the metrics are already measured).
void writeTrace(const Tracer &Tr, const Options &O);

int runCompileWorkload(const Options &O, Report &R);
int runSweepWorkload(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
