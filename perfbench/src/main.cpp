//===- main.cpp - Benchmark binary entry point ----------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   perfbench --workload <compile|sweep-hot|sweep-checked|fleet>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--out DIR] [--expected FILE] [--write-expected FILE]
///
/// Runs one workload in a closed loop for the given time and prints, as
/// the last line of stdout, one JSON object: whether every output check
/// passed, the operations attempted and failed, and the metrics — the
/// end-to-end ones with --trace 0, the per-layer ones with --trace 1.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sys/resource.h>

using namespace perfbench;
using namespace ocelot;

const std::vector<MetricDef> perfbench::EndToEndMetrics = {
    {"setup_s", "s"},
    {"compile_grid_s", "s"},
    {"compile_ms.geomean", "ms"},
    {"cells_per_s", "cells/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> perfbench::LayerMetrics = {
    // Compile stages, each summed over the workload's programs (median
    // over replay rounds per program).
    {"frontend.parse_ms", "ms"},
    {"frontend.sema_ms", "ms"},
    {"frontend.lower_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"analysis.callgraph_ms", "ms"},
    {"analysis.taint_ms", "ms"},
    {"ocelot.policies_ms", "ms"},
    {"ocelot.infer_ms", "ms"},
    {"ocelot.selfcheck_ms", "ms"},
    {"analysis.war_ms", "ms"},
    {"runtime.image_ms", "ms"},
    {"runtime.image_unfused_ms", "ms"},
    {"ocelot.compile_ms", "ms"},
    {"ocelot.toolchain_self_ms", "ms"},
    {"analysis.taint_share", "ratio"},
    {"ir.instrs", "count"},
    {"ir.blocks", "count"},
    {"ocelot.policies", "count"},
    {"ocelot.inferred_regions", "count"},
    {"runtime.image_slots", "count"},
    {"runtime.fused_slots", "count"},
    {"ocelot.cache_hit_rate", "ratio"},
    // Harness: cells one at a time, and the worker pool.
    {"harness.cell_ms.p50", "ms"},
    {"harness.cell_ms.p99", "ms"},
    {"harness.pool_efficiency", "ratio"},
    {"harness.trapped_cells", "count"},
    // Runtime: a sample of cells replayed as Simulation + runOnce.
    {"runtime.sim_build_us", "us"},
    {"runtime.activation_us.p50", "us"},
    {"runtime.activation_us.p99", "us"},
    {"runtime.steps_per_s", "1/s"},
    {"runtime.steps_per_run", "count"},
    {"runtime.reboots_per_run", "count"},
    {"runtime.checkpoints_per_run", "count"},
    {"runtime.undo_entries_per_run", "count"},
    {"runtime.atomic_abort_ratio", "ratio"},
    {"runtime.completed_ratio", "ratio"},
    {"fusion.oracle_records_per_run", "count"},
    // Fleet: shards, merge and the sink's public functions.
    {"fleet.shard_s", "s"},
    {"fleet.merge_s", "s"},
    {"fleet.encode_us_per_cell", "us"},
    {"fleet.append_us_per_cell", "us"},
    {"fleet.flush_ms", "ms"},
    {"fleet.read_us_per_cell", "us"},
    {"fleet.overhead_frac", "ratio"},
    {"fleet.bytes_per_cell", "B"},
    // Self time per layer over every span of the traced run.
    {"self_ms.frontend", "ms"},
    {"self_ms.ir", "ms"},
    {"self_ms.analysis", "ms"},
    {"self_ms.ocelot", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.harness", "ms"},
    {"self_ms.fleet", "ms"},
    {"self_ms.unaccounted", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "ratio"},
};

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  auto Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

uint64_t perfbench::fnv1a(const std::string &Text) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

const char *GridProgram::source() const {
  return Model == ExecModel::AtomicsOnly ? Bench->AtomicsSrc
                                         : Bench->AnnotatedSrc;
}

std::string GridProgram::label() const {
  return Bench->Name + "/" + execModelName(Model);
}

SetupResult perfbench::runSetup(const std::vector<GridProgram> &Programs,
                                const std::function<void()> &Warm) {
  SetupResult S;
  std::vector<double> Wall;
  std::vector<std::vector<double>> PerProgram(Programs.size());
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Toolchain::clearCache();
    auto T0 = Clock::now();
    for (size_t I = 0; I < Programs.size(); ++I) {
      auto C0 = Clock::now();
      compileBenchmark(*Programs[I].Bench, Programs[I].Model);
      PerProgram[I].push_back(msSince(C0));
    }
    if (Warm)
      Warm();
    Wall.push_back(msSince(T0) / 1000.0);
  }
  ToolchainCacheStats CS = Toolchain::cacheStats();
  if (CS.Hits + CS.Misses)
    S.CacheHitRate = static_cast<double>(CS.Hits) /
                     static_cast<double>(CS.Hits + CS.Misses);
  S.SetupS = median(Wall);
  for (const std::vector<double> &V : PerProgram)
    S.CompileMs.push_back(median(V));
  return S;
}

void perfbench::setCompileGridMetrics(Report &R,
                                      const std::vector<double> &ProgramMs) {
  R.set("compile_grid_s", sum(ProgramMs) / 1000.0);
  R.set("compile_ms.geomean", geomean(ProgramMs));
}

void perfbench::setSelfTimeMetrics(const Tracer &Tr, Report &R) {
  std::map<std::string, double> Self = Tr.selfMsByLayer();
  for (const char *Layer :
       {"frontend", "ir", "analysis", "ocelot", "runtime", "harness", "fleet"})
    R.set(std::string("self_ms.") + Layer, Self[Layer]);
  R.set("self_ms.unaccounted", Self["bench"]);
  R.set("trace.spans", static_cast<double>(Tr.size()));
}

void perfbench::writeTrace(const Tracer &Tr, const Options &O) {
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (Tr.writeChromeJson(Path))
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", Tr.size(),
                 Path.c_str());
  else
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}

namespace {

/// Prints the result line. Every metric of the run's list is printed; an
/// end-to-end metric the workload failed to measure is an error.
bool printReport(const Report &R, bool Trace) {
  const std::vector<MetricDef> &Defs = Trace ? LayerMetrics : EndToEndMetrics;
  for (const MetricDef &D : Defs)
    if (!Trace && !R.Values.count(D.Name)) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", D.Name);
      return false;
    }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Defs.size(); ++I) {
    auto It = R.Values.find(Defs[I].Name);
    double V = It == R.Values.end() ? 0.0 : It->second;
    // %.17g keeps every digit; a non-finite value would not be JSON.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Defs[I].Name, std::isfinite(V) ? V : 0.0,
                Defs[I].Unit);
  }
  std::printf("}}\n");
  return true;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <compile|sweep-hot|sweep-checked|fleet> "
               "--seed N --seconds S --trace 0|1 [--out DIR] "
               "[--expected FILE] [--write-expected FILE]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value, &End);
    } else if (Flag == "--trace") {
      O.Trace = std::strcmp(Value, "1") == 0;
      if (!O.Trace && std::strcmp(Value, "0") != 0)
        return usage(Argv[0]);
    } else if (Flag == "--out") {
      O.OutDir = Value;
    } else if (Flag == "--expected") {
      O.Expected = Value;
    } else if (Flag == "--write-expected") {
      O.WriteExpected = Value;
    } else {
      return usage(Argv[0]);
    }
    if (End && (*End || End == Value)) {
      std::fprintf(stderr, "perfbench: bad number '%s' for %s\n", Value,
                   Flag.c_str());
      return 2;
    }
  }
  if (!(O.Seconds > 0 && O.Seconds <= 120)) {
    std::fprintf(stderr, "perfbench: --seconds must be in (0, 120]\n");
    return 2;
  }

  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 O.OutDir.c_str(), Ec.message().c_str());
    return 1;
  }

  Report R;
  int Rc;
  if (O.Workload == "compile")
    Rc = runCompileWorkload(O, R);
  else if (O.Workload == "sweep-hot" || O.Workload == "sweep-checked" ||
           O.Workload == "fleet")
    Rc = runSweepWorkload(O, R);
  else
    return usage(Argv[0]);
  if (Rc != 0)
    return Rc;
  if (!O.Trace)
    R.set("peak_rss_mb", peakRssMb());
  if (R.Attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  return printReport(R, O.Trace) ? 0 : 1;
}
