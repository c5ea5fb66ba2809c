//===- SweepWorkload.cpp - The sweep-hot, sweep-checked and fleet workloads ===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sweep-hot` and `sweep-checked` repeat one in-memory SweepRunner::run
/// over a grid of benchmarks × models × power profiles × sensor scenarios
/// × seeds; `fleet` streams a grid of thousands of tiny cells through
/// runShard to JSONL and merges the shards. The seeds of every grid come
/// from the workload seed; the library only sees the generated specs.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fleet/FleetRunner.h"
#include "fusion/FusionBenchmarks.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <unistd.h>

using namespace perfbench;
using namespace ocelot;

namespace {

/// A sweep or fleet workload: the grid and how it is run.
struct Workload {
  FleetSpec Fleet;
  SweepSpec Spec;
  unsigned Workers = 2;
  bool IsFleet = false;
  unsigned Shards = 2;           ///< fleet: shards run one after another.
  size_t CheckpointEvery = 2400; ///< fleet: cells between checkpoints.
  size_t ReferenceSample = 16;   ///< Cells re-run on the tree engine.
  size_t ReplaySample = 12;      ///< Cells replayed in the traced run.
  std::vector<GridProgram> Programs;
  std::vector<CompiledBenchmark> Artifacts; ///< Per (model, benchmark) pair.

  size_t cells() const { return Spec.cellCount(); }
  const CompiledBenchmark &artifactOf(size_t Cell) const {
    SweepSpec::CellCoords C = Spec.cellAt(Cell);
    return Artifacts[C.Model * Spec.Benchmarks.size() + C.Bench];
  }
  std::string label(size_t Cell) const {
    SweepSpec::CellCoords C = Spec.cellAt(Cell);
    auto At = [](const std::vector<std::string> &V, size_t I) {
      return V.empty() ? std::string("default") : V[I];
    };
    return Fleet.Benchmarks[C.Bench] + "/" + Fleet.Models[C.Model] + "/" +
           At(Fleet.Powers, C.Power) + "/" + At(Fleet.Scenarios, C.Scenario) +
           "/seed" + std::to_string(Fleet.Seeds[C.Seed]);
  }
};

/// \p N distinct seeds drawn from \p Rng.
std::vector<uint64_t> drawSeeds(std::mt19937_64 &Rng, size_t N) {
  std::set<uint64_t> Seen;
  std::vector<uint64_t> Seeds;
  while (Seeds.size() < N) {
    uint64_t S = 1 + Rng() % 1'000'000'000;
    if (Seen.insert(S).second)
      Seeds.push_back(S);
  }
  return Seeds;
}

/// \p N distinct cell indices below \p Cells drawn from \p Rng.
std::vector<size_t> drawCells(std::mt19937_64 &Rng, size_t Cells, size_t N) {
  std::set<size_t> Picked;
  while (Picked.size() < std::min(N, Cells))
    Picked.insert(static_cast<size_t>(Rng() % Cells));
  return {Picked.begin(), Picked.end()};
}

bool makeWorkload(const Options &O, Workload &W) {
  std::mt19937_64 Rng(O.Seed);
  FleetSpec &F = W.Fleet;
  F.Energies = {EnergyConfig{}};
  if (O.Workload == "fleet") {
    // Tiny cells: encode, append, fsync, manifest and merge dominate. One
    // worker: on a shared 4-vCPU host the single-threaded shard reads
    // steadier than the reorder-window path.
    W.IsFleet = true;
    W.Workers = 1;
    W.ReplaySample = 96;
    F.Models = {"ocelot", "jit"};
    for (const BenchmarkDef &B : allBenchmarks())
      F.Benchmarks.push_back(B.Name);
    F.Seeds = drawSeeds(Rng, 800);
    F.TauBudget = 3000;
  } else {
    const bool Checked = O.Workload == "sweep-checked";
    F.Models = {"ocelot", "atomics", "jit"};
    for (const BenchmarkDef &B : allBenchmarks())
      F.Benchmarks.push_back(B.Name);
    for (const BenchmarkDef &B : fusionBenchmarks())
      F.Benchmarks.push_back(B.Name);
    F.Powers = {"default", "rf-office", "kinetic-walker"};
    F.Scenarios = {"default", Checked ? "fusion-volatile" : "outdoor-diurnal"};
    F.Seeds = drawSeeds(Rng, 3);
    F.TauBudget = Checked ? 6'000'000 : 20'000'000;
    F.Monitors = Checked;
    F.Oracle = Checked;
  }
  std::string Err;
  if (!F.resolve(W.Spec, Err)) {
    std::fprintf(stderr, "perfbench: bad grid: %s\n", Err.c_str());
    return false;
  }
  for (ExecModel M : W.Spec.Models)
    for (const BenchmarkDef *B : W.Spec.Benchmarks)
      W.Programs.push_back({B, M});
  return true;
}

/// What the runtime replay of sampled cells observed.
struct RuntimeStats {
  std::vector<double> BuildUs, ActivationUs;
  double RunUs = 0;
  uint64_t Activations = 0, Completed = 0, Steps = 0, Reboots = 0,
           Checkpoints = 0, UndoEntries = 0, Commits = 0, Aborts = 0,
           OracleRecords = 0;
};

/// Evaluates cell \p I exactly as measureIntermittent does, on \p Engine,
/// as a Simulation plus a runOnce loop. With \p St set, times the
/// Simulation's construction and every activation.
IntermittentMetrics runCell(const Workload &W, size_t I, DispatchEngine Engine,
                            RuntimeStats *St, Tracer &Tr) {
  const SweepSpec &S = W.Spec;
  SweepSpec::CellCoords C = S.cellAt(I);
  const BenchmarkDef &B = *S.Benchmarks[C.Bench];
  const uint64_t Seed = S.Seeds[C.Seed];
  std::shared_ptr<const SensorScenario> Sensors =
      S.Scenarios.empty() ? nullptr : S.Scenarios[C.Scenario];
  SimulationSpec Spec;
  Spec.Config.Sensors = Sensors ? Sensors : B.scenario(Seed);
  Spec.Config.Seed = Seed;
  Spec.Config.Plan = FailurePlan::energyDriven();
  Spec.Config.Energy = S.Energies[C.Energy];
  Spec.Config.Power = S.Powers.empty() ? nullptr : S.Powers[C.Power];
  Spec.Config.MonitorBitVector = S.Monitors;
  Spec.Config.MonitorFormal = S.Monitors;
  Spec.Config.Oracle = S.Oracle;
  Spec.Config.Dispatch = Engine;

  Tracer::Scope Root(Tr, "bench.cell", I);
  std::unique_ptr<Simulation> Sim;
  {
    Tracer::Scope Build(Tr, "runtime.Simulation", I);
    Sim = std::make_unique<Simulation>(W.artifactOf(I).Artifact,
                                       std::move(Spec));
    if (St)
      St->BuildUs.push_back(Build.elapsedMs() * 1000.0);
  }
  IntermittentMetrics M;
  uint64_t On = 0, Off = 0, Reboots = 0;
  while (Sim->tau() < S.TauBudget) {
    RunResult R;
    {
      Tracer::Scope Act(Tr, "runtime.runOnce", I);
      R = Sim->runOnce();
      if (St) {
        double Us = Act.elapsedMs() * 1000.0;
        St->ActivationUs.push_back(Us);
        St->RunUs += Us;
      }
    }
    if (St) {
      ++St->Activations;
      St->Completed += R.Completed;
      St->Steps += R.Steps;
      St->Reboots += R.Reboots;
      St->Checkpoints += R.Checkpoints;
      St->UndoEntries += R.UndoLogEntries;
      St->Commits += R.AtomicCommits;
      St->Aborts += R.AtomicAborts;
      St->OracleRecords += R.OracleRecords.size();
    }
    if (R.Starved) {
      M.Starved = true;
      break;
    }
    if (!R.Completed) {
      M.Trapped = true;
      M.Trap = R.Trap;
      break;
    }
    On += R.OnCycles;
    Off += R.OffCycles;
    Reboots += R.Reboots;
    ++M.CompletedRuns;
    bool Flagged = R.ViolatedFresh || R.ViolatedConsistent;
    M.ViolatingRuns += Flagged;
    if (S.Oracle) {
      M.OracleFreshOutputs += R.OracleFresh;
      M.OracleStaleOutputs += R.OracleStale;
      M.OracleCrossEpochOutputs += R.OracleCrossEpoch;
      bool Dirty = R.OracleStale + R.OracleCrossEpoch > 0;
      M.OracleDirtyRuns += Dirty;
      M.OverEnforcedRuns += Flagged && !Dirty;
      M.UnderEnforcedRuns += Dirty && !Flagged;
    }
  }
  if (M.CompletedRuns) {
    double N = static_cast<double>(M.CompletedRuns);
    M.OnCyclesPerRun = static_cast<double>(On) / N;
    M.OffCyclesPerRun = static_cast<double>(Off) / N;
    M.RebootsPerRun = static_cast<double>(Reboots) / N;
  }
  return M;
}

bool sameMetrics(const IntermittentMetrics &A, const IntermittentMetrics &B) {
  return A.OnCyclesPerRun == B.OnCyclesPerRun &&
         A.OffCyclesPerRun == B.OffCyclesPerRun &&
         A.RebootsPerRun == B.RebootsPerRun &&
         A.CompletedRuns == B.CompletedRuns &&
         A.ViolatingRuns == B.ViolatingRuns && A.Starved == B.Starved &&
         A.Trapped == B.Trapped && A.Trap == B.Trap &&
         A.OracleFreshOutputs == B.OracleFreshOutputs &&
         A.OracleStaleOutputs == B.OracleStaleOutputs &&
         A.OracleCrossEpochOutputs == B.OracleCrossEpochOutputs &&
         A.OracleDirtyRuns == B.OracleDirtyRuns &&
         A.OverEnforcedRuns == B.OverEnforcedRuns &&
         A.UnderEnforcedRuns == B.UnderEnforcedRuns;
}

/// One cell through the harness, as SweepRunner evaluates it.
IntermittentMetrics harnessCell(const Workload &W, size_t I) {
  const SweepSpec &S = W.Spec;
  SweepSpec::CellCoords C = S.cellAt(I);
  return measureIntermittent(
      W.artifactOf(I), *S.Benchmarks[C.Bench], S.Energies[C.Energy],
      S.TauBudget, S.Seeds[C.Seed], S.Monitors,
      S.Powers.empty() ? nullptr : S.Powers[C.Power],
      S.Scenarios.empty() ? nullptr : S.Scenarios[C.Scenario], nullptr,
      S.Oracle);
}

/// Checks a sweep's results: a seeded sample plus every trapped cell must
/// match the tree engine, the reference semantics, bitwise; Ocelot cells
/// must have no violating run and commit no cross-epoch output.
void checkSweep(const Options &O, const Workload &W,
                const std::vector<SweepCellResult> &Results, Report &R) {
  Tracer Off(false);
  std::mt19937_64 Rng(O.Seed ^ 0x7265666572656e63ull);
  std::vector<size_t> Sample = drawCells(Rng, W.cells(), W.ReferenceSample);
  for (size_t I = 0; I < W.cells(); ++I)
    if (Results[I].Metrics.Trapped) {
      std::fprintf(stderr, "perfbench: %s traps: %s\n", W.label(I).c_str(),
                   Results[I].Metrics.Trap.c_str());
      Sample.push_back(I);
    }
  std::sort(Sample.begin(), Sample.end());
  Sample.erase(std::unique(Sample.begin(), Sample.end()), Sample.end());
  for (size_t I : Sample)
    R.check(sameMetrics(runCell(W, I, DispatchEngine::Tree, nullptr, Off),
                        Results[I].Metrics),
            W.label(I) + " differs from the tree engine's result");
  for (size_t I = 0; I < W.cells(); ++I) {
    if (W.Spec.Models[Results[I].Model] != ExecModel::Ocelot)
      continue;
    const IntermittentMetrics &M = Results[I].Metrics;
    R.check(M.ViolatingRuns == 0 && M.OracleCrossEpochOutputs == 0,
            W.label(I) + ": Ocelot build has " +
                std::to_string(M.ViolatingRuns) + " violating runs and " +
                std::to_string(M.OracleCrossEpochOutputs) +
                " cross-epoch outputs");
  }
}

std::string encodeAll(const std::vector<SweepCellResult> &Results) {
  std::string Out;
  for (size_t I = 0; I < Results.size(); ++I)
    Out += formatCellRecord({I, Results[I]}, SinkFormat::Jsonl);
  return Out;
}

/// Runs every shard of the fleet grid into \p Dir (emptied first) and
/// merges them. Returns false on an error the library reports.
bool runFleet(const Workload &W, const std::string &Dir, Tracer &Tr,
              double &ShardMs, double &MergeMs, MergeSummary &Summary) {
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Err;
  ShardMs = 0;
  for (unsigned Shard = 0; Shard < W.Shards; ++Shard) {
    ShardRunOptions Opts;
    Opts.OutDir = Dir;
    Opts.Shard = Shard;
    Opts.ShardCount = W.Shards;
    Opts.Workers = W.Workers;
    Opts.CheckpointEvery = W.CheckpointEvery;
    Opts.Quiet = true;
    ShardOutcome Outcome;
    Tracer::Scope S(Tr, "fleet.runShard", Shard);
    if (!runShard(W.Fleet, Opts, Outcome, Err) ||
        Outcome != ShardOutcome::Complete) {
      std::fprintf(stderr, "perfbench: shard %u: %s\n", Shard, Err.c_str());
      return false;
    }
    ShardMs += S.elapsedMs();
  }
  MergeOptions MO;
  MO.OutDir = Dir;
  MO.ShardCount = W.Shards;
  MO.MergedPath = Dir + "/merged.jsonl";
  Tracer::Scope S(Tr, "fleet.mergeShards");
  if (!mergeShards(W.Fleet, MO, Summary, Err)) {
    std::fprintf(stderr, "perfbench: merge: %s\n", Err.c_str());
    return false;
  }
  MergeMs = S.elapsedMs();
  return true;
}

/// Checks the merged fleet output against the in-memory run's records.
void checkFleet(const std::string &Dir, const std::string &Expected,
                const std::vector<SweepCellResult> &Mem,
                const MergeSummary &Summary, Report &R) {
  std::ifstream In(Dir + "/merged.jsonl", std::ios::binary);
  std::stringstream Merged;
  Merged << In.rdbuf();
  R.check(Merged.str() == Expected,
          "merged fleet file differs from the in-memory sweep's records");
  MergeSummary Want;
  Want.Cells = Mem.size();
  for (const SweepCellResult &C : Mem) {
    Want.CompletedRuns += C.Metrics.CompletedRuns;
    Want.ViolatingRuns += C.Metrics.ViolatingRuns;
    Want.StarvedCells += C.Metrics.Starved;
    Want.TrappedCells += C.Metrics.Trapped;
  }
  R.check(Summary.Cells == Want.Cells &&
              Summary.CompletedRuns == Want.CompletedRuns &&
              Summary.ViolatingRuns == Want.ViolatingRuns &&
              Summary.StarvedCells == Want.StarvedCells &&
              Summary.TrappedCells == Want.TrappedCells,
          "merge summary differs from the in-memory sweep's");
}

/// The traced run's fleet layer: shards, merge, and the sink's public
/// functions over the in-memory results.
void fleetLayers(const Workload &W, const std::string &Dir,
                 const std::vector<SweepCellResult> &Mem, double PoolMs,
                 Tracer &Tr, Report &R) {
  double ShardMs = 0, MergeMs = 0;
  MergeSummary Summary;
  bool Ok = runFleet(W, Dir, Tr, ShardMs, MergeMs, Summary);
  R.check(Ok, "fleet shard run or merge failed");
  R.set("fleet.shard_s", ShardMs / 1000.0);
  R.set("fleet.merge_s", MergeMs / 1000.0);
  R.set("fleet.overhead_frac", ShardMs > 0 ? 1.0 - PoolMs / ShardMs : 0);

  const double N = static_cast<double>(Mem.size());
  std::string Encoded;
  {
    Tracer::Scope S(Tr, "fleet.formatCellRecord");
    Encoded = encodeAll(Mem);
    R.set("fleet.encode_us_per_cell", S.elapsedMs() * 1000.0 / N);
  }
  if (Ok)
    checkFleet(Dir, Encoded, Mem, Summary, R);

  std::string Path = Dir + "/sink-probe.jsonl", Err;
  std::unique_ptr<ResultSink> Sink =
      openResultSink(Path, SinkFormat::Jsonl, -1, Err);
  if (!Sink) {
    R.check(false, "cannot open a result sink: " + Err);
    return;
  }
  double AppendMs = 0;
  std::vector<double> FlushMs;
  for (size_t Begin = 0; Begin < Mem.size(); Begin += W.CheckpointEvery) {
    size_t End = std::min(Mem.size(), Begin + W.CheckpointEvery);
    {
      Tracer::Scope S(Tr, "fleet.ResultSink::append", Begin);
      for (size_t I = Begin; I < End; ++I)
        Sink->append({I, Mem[I]});
      AppendMs += S.elapsedMs();
    }
    Tracer::Scope S(Tr, "fleet.ResultSink::flush", Begin);
    R.check(Sink->flush(Err), "sink flush failed: " + Err);
    FlushMs.push_back(S.elapsedMs());
  }
  R.set("fleet.append_us_per_cell", AppendMs * 1000.0 / N);
  R.set("fleet.flush_ms", median(FlushMs));
  R.set("fleet.bytes_per_cell", static_cast<double>(Sink->durableOffset()) / N);
  std::vector<CellRecord> Read;
  {
    Tracer::Scope S(Tr, "fleet.readResultFile");
    bool ReadOk = readResultFile(Path, SinkFormat::Jsonl, Read, Err);
    R.set("fleet.read_us_per_cell", S.elapsedMs() * 1000.0 / N);
    R.check(ReadOk && Read.size() == Mem.size(),
            "reading the sink back failed: " + Err);
  }
}

/// The traced run: the compile stages of the set-up, cells one at a time
/// through the harness, the worker pool, a runtime replay of sampled
/// cells, and for fleet the shard, merge and sink layers.
void tracedRun(const Options &O, const Workload &W, const std::string &Dir,
               Report &R) {
  Tracer Tr(true);
  // Two rounds, so each program runs once with the full compile first and
  // once with the replay first.
  replayCompileStages(W.Programs, 2, Tr, R);

  // Harness, one cell at a time, each cell twice: once with a span around
  // the call and once without, alternating which goes first. The
  // difference of the two sums is the tracing overhead.
  std::vector<double> CellMs;
  double UntracedMs = 0, TracedMs = 0;
  for (size_t I = 0; I < W.cells(); ++I) {
    for (int Pass = 0; Pass < 2; ++Pass) {
      auto T0 = Clock::now();
      if ((Pass == 0) == (I % 2 == 0)) {
        {
          Tracer::Scope S(Tr, "harness.measureIntermittent", I);
          harnessCell(W, I);
          CellMs.push_back(S.elapsedMs());
        }
        TracedMs += msSince(T0);
      } else {
        harnessCell(W, I);
        UntracedMs += msSince(T0);
      }
    }
  }
  R.Attempted += 2 * W.cells();
  R.set("trace.overhead_frac", (TracedMs - UntracedMs) / UntracedMs);
  R.set("harness.cell_ms.p50", percentile(CellMs, 50));
  R.set("harness.cell_ms.p99", percentile(CellMs, 99));

  std::vector<SweepCellResult> Results;
  double PoolMs;
  {
    Tracer::Scope S(Tr, "harness.SweepRunner::run");
    Results = SweepRunner(W.Workers).run(W.Spec);
    PoolMs = S.elapsedMs();
  }
  R.Attempted += W.cells();
  R.set("harness.pool_efficiency", sum(CellMs) / (W.Workers * PoolMs));
  double Trapped = 0;
  for (const SweepCellResult &C : Results)
    Trapped += C.Metrics.Trapped;
  R.set("harness.trapped_cells", Trapped);

  std::mt19937_64 Rng(O.Seed ^ 0x7265706c6179ull);
  RuntimeStats St;
  for (size_t I : drawCells(Rng, W.cells(), W.ReplaySample))
    R.check(sameMetrics(runCell(W, I, DispatchEngine::Threaded, &St, Tr),
                        Results[I].Metrics),
            W.label(I) + ": Simulation replay differs from the harness");
  auto PerRun = [&](uint64_t X) {
    return St.Activations ? static_cast<double>(X) /
                                static_cast<double>(St.Activations)
                          : 0.0;
  };
  R.set("runtime.sim_build_us", median(St.BuildUs));
  R.set("runtime.activation_us.p50", percentile(St.ActivationUs, 50));
  R.set("runtime.activation_us.p99", percentile(St.ActivationUs, 99));
  R.set("runtime.steps_per_s",
        St.RunUs > 0 ? static_cast<double>(St.Steps) / (St.RunUs / 1e6) : 0);
  R.set("runtime.steps_per_run", PerRun(St.Steps));
  R.set("runtime.reboots_per_run", PerRun(St.Reboots));
  R.set("runtime.checkpoints_per_run", PerRun(St.Checkpoints));
  R.set("runtime.undo_entries_per_run", PerRun(St.UndoEntries));
  R.set("runtime.completed_ratio", PerRun(St.Completed));
  R.set("runtime.atomic_abort_ratio",
        St.Commits + St.Aborts
            ? static_cast<double>(St.Aborts) /
                  static_cast<double>(St.Commits + St.Aborts)
            : 0);
  R.set("fusion.oracle_records_per_run", PerRun(St.OracleRecords));

  if (W.IsFleet)
    fleetLayers(W, Dir, Results, PoolMs, Tr, R);
  else
    checkSweep(O, W, Results, R);
  setSelfTimeMetrics(Tr, R);
  writeTrace(Tr, O);
}

} // namespace

int perfbench::runSweepWorkload(const Options &O, Report &R) {
  Workload W;
  if (!makeWorkload(O, W))
    return 1;
  // Warm-up: one seed of every (model, benchmark) pair at a tiny budget,
  // through SweepRunner, whose compiles hit the artifact cache.
  SweepSpec Warm = W.Spec;
  Warm.Seeds.resize(1);
  if (!Warm.Powers.empty())
    Warm.Powers.resize(1);
  if (!Warm.Scenarios.empty())
    Warm.Scenarios.resize(1);
  Warm.TauBudget = 20000;
  SetupResult Setup = runSetup(W.Programs, [&] {
    SweepRunner(W.Workers).run(Warm);
  });
  R.set("setup_s", Setup.SetupS);
  R.set("ocelot.cache_hit_rate", Setup.CacheHitRate);
  setCompileGridMetrics(R, Setup.CompileMs);
  for (const GridProgram &GP : W.Programs)
    W.Artifacts.push_back(compileBenchmark(*GP.Bench, GP.Model));

  const std::string Dir =
      O.OutDir + "/fleet-" + std::to_string(static_cast<long>(getpid()));
  if (O.Trace) {
    tracedRun(O, W, Dir, R);
  } else {
    Tracer Off(false);
    std::vector<SweepCellResult> Results;
    std::vector<double> Rates;
    MergeSummary Summary;
    auto T0 = Clock::now();
    bool Ok = true;
    do {
      auto T1 = Clock::now();
      if (W.IsFleet) {
        double ShardMs, MergeMs;
        Ok = runFleet(W, Dir, Off, ShardMs, MergeMs, Summary);
      } else {
        Results = SweepRunner(W.Workers).run(W.Spec);
      }
      Rates.push_back(static_cast<double>(W.cells()) / (msSince(T1) / 1000.0));
      R.Attempted += W.cells();
      if (!Ok)
        R.Failed += W.cells();
    } while (Ok && (Rates.size() < 2 || msSince(T0) < O.Seconds * 1000.0));
    R.set("cells_per_s", median(Rates));
    if (W.IsFleet) {
      std::vector<SweepCellResult> Mem = SweepRunner(W.Workers).run(W.Spec);
      if (Ok)
        checkFleet(Dir, encodeAll(Mem), Mem, Summary, R);
    } else {
      checkSweep(O, W, Results, R);
    }
  }
  std::filesystem::remove_all(Dir);
  return 0;
}
