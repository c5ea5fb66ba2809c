//===- CompileWorkload.cpp - The compile workload and stage replay --------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `compile`: uncached Toolchain::compile of every benchmark source (the
/// six paper apps plus the two fusion apps) under the Ocelot, Atomics-only
/// and JIT-only models, round after round. The traced run also replays
/// each program stage by stage through the public entry points that
/// Toolchain::compile calls, which the sweep and fleet workloads reuse for
/// their own set-up compiles.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analysis/CallGraph.h"
#include "analysis/TaintAnalysis.h"
#include "analysis/WarAnalysis.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fusion/FusionBenchmarks.h"
#include "ir/IRVerifier.h"
#include "ocelot/PolicyBuilder.h"
#include "ocelot/RegionChecker.h"
#include "ocelot/RegionInference.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>

using namespace perfbench;
using namespace ocelot;

namespace {

/// Activations per artifact in the Table 2(a) check (bench/table2a uses
/// 100; every JIT program violates well within 50).
constexpr int PathologicalRuns = 50;

std::string ref(const InstrRef &R) {
  return std::to_string(R.Func) + "@" + std::to_string(R.Label);
}

std::string chain(const ProvChain &C) {
  std::string S;
  for (const InstrRef &R : C)
    S += ref(R) + ">";
  return S;
}

template <typename Range, typename Fn>
std::string list(const Range &Items, Fn Str) {
  std::string S = "{";
  for (const auto &X : Items)
    S += Str(X) + ",";
  return S + "}";
}

std::string num(int X) { return std::to_string(X); }

std::string decisionsText(const PolicySet &PS,
                          const std::vector<InferredRegion> &Inferred,
                          const std::vector<RegionInfo> &Regions,
                          const MonitorPlan &Plan) {
  std::string S;
  for (const FreshPolicy &F : PS.Fresh)
    S += "fresh " + num(F.Id) + " " + ref(F.Decl) + " " + F.VarName + " " +
         num(F.DeclFunc) + " " + num(F.RootFunc) + " " +
         list(F.Inputs, chain) + " " + list(F.Uses, ref) + "\n";
  for (const ConsistentPolicy &C : PS.Consistent)
    S += "consistent " + num(C.Id) + " " + num(C.SetId) + " " +
         list(C.Decls, ref) + " " +
         list(C.VarNames, [](const std::string &V) { return V; }) + " " +
         num(C.RootFunc) + " " + list(C.Inputs, chain) + "\n";
  for (const InferredRegion &I : Inferred)
    S += "inferred " + num(I.RegionId) + " " + num(I.Func) + " " +
         std::to_string(I.StartLabel) + "-" + std::to_string(I.EndLabel) +
         " " + list(I.PolicyIds, num) + "\n";
  for (const RegionInfo &G : Regions)
    S += "region " + num(G.RegionId) + " " + num(G.Func) + " " +
         std::to_string(G.StartLabel) + "-" + std::to_string(G.EndLabel) +
         " r" + list(G.Reads, num) + " w" + list(G.Writes, num) + " war" +
         list(G.War, num) + " emw" + list(G.Emw, num) + " omega" +
         list(G.Omega, num) + " " + num(G.StaticSize) + "\n";
  for (const auto &[Use, Sensors] : Plan.UseChecks)
    S += "use " + ref(Use) + " " + list(Sensors, ref) + "\n";
  for (const ConsistentSetPlan &SP : Plan.Sets)
    S += "set " + num(SP.SetId) + " " + list(SP.Members, chain) + " " +
         list(SP.MemberSensors, num) + "\n";
  for (const auto &[Use, Regs] : Plan.UseRegs)
    S += "useregs " + ref(Use) + " " + list(Regs, num) + "\n";
  return S;
}

std::string artifactDecisions(const CompiledArtifact &A) {
  return decisionsText(A.policies(), A.inferredRegions(), A.regions(),
                       A.monitorPlan());
}

/// The JIT-only model's region stripping, as the pipeline does it.
void stripRegions(Program &P) {
  for (int F = 0; F < P.numFunctions(); ++F) {
    Function *Fn = P.function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B)
      std::erase_if(Fn->block(B)->instructions(),
                    [](const Instruction &I) { return I.isRegionBound(); });
  }
}

int sensorOfChain(const Program &P, const ProvChain &C) {
  const Function *F = P.function(C.back().Func);
  return F->instrAt(F->findLabel(C.back().Label))->SensorId;
}

/// The monitor plan the pipeline derives from the policies, rebuilt here
/// so the replay's plan can be compared with Toolchain::compile's.
MonitorPlan monitorPlanOf(const Program &P, const TaintAnalysis &TA,
                          const PolicySet &PS) {
  MonitorPlan Plan;
  for (const FreshPolicy &Pol : PS.Fresh) {
    std::set<InstrRef> InputOps;
    for (const ProvChain &C : Pol.Inputs)
      InputOps.insert(C.back());
    const Function *F = P.function(Pol.DeclFunc);
    const Instruction *Marker = F->instrAt(F->findLabel(Pol.Decl.Label));
    for (const InstrRef &Use : Pol.Uses) {
      Plan.UseChecks[Use].insert(InputOps.begin(), InputOps.end());
      if (Marker->A.isReg())
        Plan.UseRegs[Use].insert(Marker->A.Reg);
    }
  }
  for (const ConsistentPolicy &Pol : PS.Consistent) {
    ConsistentSetPlan SP;
    SP.SetId = Pol.SetId;
    for (const ProvChain &C : Pol.Inputs) {
      if (Pol.RootFunc == P.mainFunction()) {
        SP.Members.push_back(C);
        SP.MemberSensors.push_back(sensorOfChain(P, C));
        continue;
      }
      for (const ProvChain &Ctx : TA.contexts(Pol.RootFunc)) {
        ProvChain Abs = Ctx;
        Abs.insert(Abs.end(), C.begin(), C.end());
        SP.Members.push_back(std::move(Abs));
        SP.MemberSensors.push_back(sensorOfChain(P, C));
      }
    }
    Plan.Sets.push_back(std::move(SP));
  }
  return Plan;
}

enum Stage {
  Parse,
  Sema,
  Lower,
  Verify,
  CallGraphStage,
  Taint,
  Policies,
  Infer,
  SelfCheck,
  War,
  Image,
  ImageUnfused,
  NumStages
};

const char *const StageMetric[NumStages] = {
    "frontend.parse_ms", "frontend.sema_ms",       "frontend.lower_ms",
    "ir.verify_ms",      "analysis.callgraph_ms",  "analysis.taint_ms",
    "ocelot.policies_ms", "ocelot.infer_ms",       "ocelot.selfcheck_ms",
    "analysis.war_ms",   "runtime.image_ms",       "runtime.image_unfused_ms"};

/// Sizes of one replayed program's products.
struct Sizes {
  double Instrs = 0, Blocks = 0, Policies = 0, Inferred = 0, Slots = 0,
         FusedSlots = 0;
};

/// One stage-by-stage replay of \p GP's compile. Returns the decisions
/// text of its products, or nothing when a stage fails.
std::optional<std::string> replayOnce(const GridProgram &GP, uint64_t Op,
                                      Tracer &Tr, double (&Ms)[NumStages],
                                      Sizes &Sz) {
  std::fill(std::begin(Ms), std::end(Ms), 0.0);
  Tracer::Scope Root(Tr, "bench.replay", Op);
  DiagnosticEngine Diags;
  auto timed = [&](Stage St, const char *Name, auto &&Fn) {
    Tracer::Scope S(Tr, Name, Op);
    auto Result = Fn();
    Ms[St] += S.elapsedMs();
    return Result;
  };
  std::string Src = GP.source();
  std::unique_ptr<Module> M = timed(Parse, "frontend.parse", [&] {
    return Parser::parseSource(Src, Diags);
  });
  if (Diags.hasErrors() ||
      !timed(Sema, "frontend.sema", [&] { return checkModule(*M, Diags); }))
    return std::nullopt;
  std::unique_ptr<Program> P =
      timed(Lower, "frontend.lower", [&] { return lowerModule(*M, Diags); });
  if (!P || !timed(Verify, "ir.verify",
                   [&] { return verifyProgram(*P, Diags); }))
    return std::nullopt;
  auto CG = timed(CallGraphStage, "analysis.callgraph",
                  [&] { return std::make_unique<CallGraph>(*P); });
  auto TA = timed(Taint, "analysis.taint",
                  [&] { return std::make_unique<TaintAnalysis>(*P, *CG); });
  PolicySet PS = timed(Policies, "ocelot.policies", [&] {
    return buildPolicies(*P, *CG, *TA, Diags);
  });
  if (Diags.hasErrors())
    return std::nullopt;
  std::vector<InferredRegion> Inferred;
  if (GP.Model == ExecModel::JitOnly)
    stripRegions(*P);
  if (GP.Model == ExecModel::Ocelot)
    Inferred = timed(Infer, "ocelot.infer", [&] {
      return inferAtomicRegions(*P, *TA, PS, Diags);
    });
  if (Diags.hasErrors() ||
      !timed(Verify, "ir.verify", [&] { return verifyProgram(*P, Diags); }))
    return std::nullopt;
  if (GP.Model == ExecModel::Ocelot &&
      !timed(SelfCheck, "ocelot.selfcheck", [&] {
        return checkRegionPlacement(*P, *TA, PS, Diags);
      }))
    return std::nullopt;
  auto WA = timed(War, "analysis.war",
                  [&] { return std::make_unique<WarAnalysis>(*P, *CG); });
  std::vector<RegionInfo> Regions = WA->regions();
  MonitorPlan Plan = monitorPlanOf(*P, *TA, PS);
  auto Img = timed(Image, "runtime.image", [&] {
    return ExecutableImage::build(*P, &Regions, &Plan, FusionMode::Chains);
  });
  timed(ImageUnfused, "runtime.image_unfused", [&] {
    return ExecutableImage::build(*P, &Regions, &Plan, FusionMode::Off);
  });

  Sz = Sizes();
  for (int F = 0; F < P->numFunctions(); ++F) {
    const Function *Fn = P->function(F);
    Sz.Blocks += Fn->numBlocks();
    for (int B = 0; B < Fn->numBlocks(); ++B)
      Sz.Instrs += static_cast<double>(Fn->block(B)->instructions().size());
  }
  Sz.Policies = static_cast<double>(PS.size());
  Sz.Inferred = static_cast<double>(Inferred.size());
  Sz.Slots = Img->size();
  for (uint32_t Pc = 0; Pc < Img->size(); ++Pc)
    Sz.FusedSlots += Img->isFusedHead(Pc) ? 2 : Img->chainLenAt(Pc);
  return decisionsText(PS, Inferred, Regions, Plan);
}

std::vector<GridProgram> compileSet() {
  std::vector<const BenchmarkDef *> Benches;
  for (const BenchmarkDef &B : allBenchmarks())
    Benches.push_back(&B);
  for (const BenchmarkDef &B : fusionBenchmarks())
    Benches.push_back(&B);
  std::vector<GridProgram> Programs;
  for (const BenchmarkDef *B : Benches)
    for (ExecModel M :
         {ExecModel::Ocelot, ExecModel::AtomicsOnly, ExecModel::JitOnly})
      Programs.push_back({B, M});
  return Programs;
}

Compilation compileUncached(const GridProgram &GP) {
  CompileOptions Opts;
  Opts.Model = GP.Model;
  return Toolchain().compile(GP.source(), Opts);
}

/// One round: every program once, in an order drawn from \p Rng. Appends
/// each compile's wall time to \p Ms and keeps the artifacts in \p Last.
/// With \p Tr set, compiles every program a second time with a span
/// around the call, alternating which of the two goes first, and adds the
/// two kinds' wall times to \p UntracedMs and \p TracedMs.
void compileRound(const std::vector<GridProgram> &Programs,
                  std::mt19937_64 &Rng, std::vector<std::vector<double>> &Ms,
                  std::vector<CompiledArtifact> &Last, Report &R,
                  Tracer *Tr = nullptr, double *UntracedMs = nullptr,
                  double *TracedMs = nullptr) {
  std::vector<size_t> Order(Programs.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), Rng);
  for (size_t K = 0; K < Order.size(); ++K) {
    const size_t I = Order[K];
    for (int Pass = 0; Pass < (Tr ? 2 : 1); ++Pass) {
      const bool Traced = Tr && (Pass == 0) == (K % 2 == 0);
      auto T0 = Clock::now();
      Compilation C;
      if (Traced) {
        Tracer::Scope S(*Tr, "e2e.compile", I);
        C = compileUncached(Programs[I]);
      } else {
        C = compileUncached(Programs[I]);
      }
      double Wall = msSince(T0);
      if (Tr)
        *(Traced ? TracedMs : UntracedMs) += Wall;
      if (!Traced)
        Ms[I].push_back(Wall);
      ++R.Attempted;
      if (!C.ok()) {
        ++R.Failed;
        std::fprintf(stderr, "perfbench: %s failed to compile:\n%s",
                     Programs[I].label().c_str(), C.status().str().c_str());
        continue;
      }
      Last[I] = C.artifact();
    }
  }
}

/// Output checks on the timed phase's artifacts: the committed digests of
/// every program's decisions, and Table 2(a) judged by the runtime
/// monitors under the pathological failure plan.
void checkArtifacts(const Options &O, const std::vector<GridProgram> &Programs,
                    const std::vector<CompiledArtifact> &Last, Report &R) {
  std::map<std::string, std::string> Expected;
  if (O.WriteExpected.empty()) {
    std::ifstream In(O.Expected);
    std::string Label, Digest;
    while (In >> Label >> Digest)
      Expected[Label] = Digest;
    if (Expected.empty())
      std::fprintf(stderr, "perfbench: no digests in %s\n",
                   O.Expected.c_str());
  }
  std::FILE *Out = O.WriteExpected.empty()
                       ? nullptr
                       : std::fopen(O.WriteExpected.c_str(), "w");
  for (size_t I = 0; I < Programs.size(); ++I) {
    const GridProgram &GP = Programs[I];
    if (!Last[I])
      continue; // Already counted as a failed compile.
    char Digest[17];
    std::snprintf(Digest, sizeof(Digest), "%016" PRIx64,
                  fnv1a(artifactDecisions(Last[I])));
    if (Out)
      std::fprintf(Out, "%s %s\n", GP.label().c_str(), Digest);
    else
      R.check(Expected[GP.label()] == Digest,
              GP.label() + " decisions digest " + Digest + ", expected " +
                  Expected[GP.label()]);
    if (GP.Model == ExecModel::AtomicsOnly)
      continue;
    CompiledBenchmark CB{GP.Bench->Name, GP.Model, Last[I]};
    double Pct =
        pathologicalViolationPct(CB, *GP.Bench, PathologicalRuns, O.Seed);
    bool Ok = GP.Model == ExecModel::Ocelot ? Pct == 0 : Pct > 0;
    R.check(Ok, GP.label() + " violates in " + std::to_string(Pct) +
                    "% of pathological runs");
  }
  if (Out && std::fclose(Out) != 0)
    R.check(false, "cannot write " + O.WriteExpected);
}

} // namespace

void perfbench::replayCompileStages(const std::vector<GridProgram> &Programs,
                                    int Rounds, Tracer &Tr, Report &R) {
  const size_t N = Programs.size();
  std::vector<std::vector<std::vector<double>>> StageMs(
      N, std::vector<std::vector<double>>(NumStages));
  std::vector<std::vector<double>> FullMs(N), SelfMs(N);
  Sizes Total;
  for (int Round = 0; Round < Rounds; ++Round) {
    for (size_t I = 0; I < N; ++I) {
      // The full compile and the replay run back to back, alternating
      // which goes first; the toolchain's own time is their difference.
      Compilation C;
      double Full = 0, Ms[NumStages];
      Sizes Sz;
      std::optional<std::string> Decisions;
      auto compileFull = [&] {
        auto T0 = Clock::now();
        C = compileUncached(Programs[I]);
        Full = msSince(T0);
      };
      auto replay = [&] { Decisions = replayOnce(Programs[I], I, Tr, Ms, Sz); };
      if ((Round + I) % 2 == 0) {
        compileFull();
        replay();
      } else {
        replay();
        compileFull();
      }
      if (!C.ok()) {
        R.check(false, Programs[I].label() + " failed to compile");
        continue;
      }
      double Stages = 0;
      for (int St = 0; St < NumStages; ++St) {
        StageMs[I][St].push_back(Ms[St]);
        if (St != ImageUnfused)
          Stages += Ms[St];
      }
      FullMs[I].push_back(Full);
      SelfMs[I].push_back(Full - Stages);
      if (Round > 0)
        continue;
      R.check(Decisions && *Decisions == artifactDecisions(C.artifact()),
              Programs[I].label() +
                  ": stage replay disagrees with Toolchain::compile");
      Total.Instrs += Sz.Instrs;
      Total.Blocks += Sz.Blocks;
      Total.Policies += Sz.Policies;
      Total.Inferred += Sz.Inferred;
      Total.Slots += Sz.Slots;
      Total.FusedSlots += Sz.FusedSlots;
    }
  }
  // Each metric sums the programs' medians over the rounds.
  auto sumOfMedians = [&](auto Pick) {
    double S = 0;
    for (size_t I = 0; I < N; ++I)
      S += median(Pick(I));
    return S;
  };
  for (int St = 0; St < NumStages; ++St)
    R.set(StageMetric[St], sumOfMedians([&](size_t I) { return StageMs[I][St]; }));
  double Full = sumOfMedians([&](size_t I) { return FullMs[I]; });
  R.set("ocelot.compile_ms", Full);
  R.set("ocelot.toolchain_self_ms",
        sumOfMedians([&](size_t I) { return SelfMs[I]; }));
  R.set("analysis.taint_share",
        Full > 0 ? R.Values["analysis.taint_ms"] / Full : 0);
  R.set("ir.instrs", Total.Instrs);
  R.set("ir.blocks", Total.Blocks);
  R.set("ocelot.policies", Total.Policies);
  R.set("ocelot.inferred_regions", Total.Inferred);
  R.set("runtime.image_slots", Total.Slots);
  R.set("runtime.fused_slots", Total.FusedSlots);
}

int perfbench::runCompileWorkload(const Options &O, Report &R) {
  const std::vector<GridProgram> Programs = compileSet();
  SetupResult Setup = runSetup(Programs, nullptr);
  R.set("setup_s", Setup.SetupS);
  R.set("ocelot.cache_hit_rate", Setup.CacheHitRate);

  std::mt19937_64 Rng(O.Seed);
  std::vector<std::vector<double>> Ms(Programs.size());
  std::vector<CompiledArtifact> Last(Programs.size());
  if (!O.Trace) {
    auto T0 = Clock::now();
    int Rounds = 0;
    do {
      compileRound(Programs, Rng, Ms, Last, R);
      ++Rounds;
    } while (Rounds < 2 || msSince(T0) < O.Seconds * 1000.0);
    double WallS = msSince(T0) / 1000.0;
    std::vector<double> ProgramMs;
    for (const std::vector<double> &V : Ms)
      ProgramMs.push_back(median(V));
    setCompileGridMetrics(R, ProgramMs);
    R.set("cells_per_s", static_cast<double>(Rounds * Programs.size()) / WallS);
  } else {
    // Tracing overhead: every program compiled with and without a span.
    // Then the stage replay fills the rest of the time.
    Tracer Tr(true);
    double UntracedMs = 0, TracedMs = 0;
    compileRound(Programs, Rng, Ms, Last, R, &Tr, &UntracedMs, &TracedMs);
    R.set("trace.overhead_frac", (TracedMs - UntracedMs) / UntracedMs);
    // A replay round costs about two compile rounds.
    int Rounds = std::max(1, static_cast<int>(O.Seconds * 1000.0 /
                                              (2.2 * UntracedMs)));
    replayCompileStages(Programs, Rounds, Tr, R);
    setSelfTimeMetrics(Tr, R);
    writeTrace(Tr, O);
  }
  checkArtifacts(O, Programs, Last, R);
  return 0;
}
