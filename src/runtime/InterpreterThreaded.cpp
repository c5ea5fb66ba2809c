//===- InterpreterThreaded.cpp - Computed-goto dispatch with superinstructions ---===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded dispatch engine: computed-goto direct-threaded dispatch
/// (with a portable switch fallback when the compiler lacks the labels-as-
/// values extension) over the image's ThreadedOp view, in which the
/// build-time peephole pass fused hot adjacent opcode pairs into
/// superinstructions (ExecutableImage::buildThreadedView). It is the only
/// PC-indexed loop: fetch is one indexed load from the image's contiguous
/// code array, cycle costs come from a PC-indexed table, branch/call
/// targets are pre-resolved absolute PCs, and the monitor/region side
/// tables replace the per-step map lookups and linear scans of the tree
/// engine (Interpreter.cpp).
///
/// Every rule here must mirror the tree engine exactly — same cost
/// charging, same RNG draw sequence, same monitor callbacks, same trap
/// strings — so the two engines stay bitwise-identical on every
/// benchmark x model x plan x seed cell (pinned by ExecImageTest and
/// DifferentialFuzzTest). Three properties carry that guarantee through
/// fusion:
///
///  * A fused handler replicates the complete per-instruction step
///    header (failure injection, energy draw, cost/tau charging, monitor
///    checks) for *both* slots — only the dispatch between them is
///    elided — so a power failure can still strike between head and tail.
///  * A pair's tail keeps its plain dispatch code. A JIT reboot resumes
///    at the interrupted PC, which may be mid-pair; dispatching the
///    tail's plain code there is exactly the unfused semantics.
///  * Fusion never spans a leader (block start or post-call resume
///    point), so every branch, return and region re-entry lands on a
///    plain code.
///
/// The loop has three instantiations. Hot assumes no failure plan, no
/// energy model, no monitors and no observers — the steady-state
/// throughput configuration — and keeps PC/tau/lifetime counters in
/// locals the whole run. Observed performs the per-step failure, energy
/// and monitor checks. Taint (TrackTaint: the formal monitor and the
/// input-epoch oracle) is Observed plus taint propagation: it dispatches
/// every slot on its plain opcode rather than its ThreadedOp, so only the
/// plain handlers ever run with taint on, and they carry the taint arms.
/// Fused handlers move raw int64 payloads only — legal because with
/// TrackTaint off every taint vector in registers and NVM is empty by
/// construction.
///
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "telemetry/Profile.h"
#include "telemetry/TraceSink.h"

#include <cassert>

using namespace ocelot;

namespace {

/// Exactly the tree engine's Un arithmetic (negation wraps).
inline int64_t unEval(UnOp K, int64_t AV) {
  switch (K) {
  case UnOp::Neg:
    return static_cast<int64_t>(0 - static_cast<uint64_t>(AV));
  case UnOp::Not:
    return ~AV;
  case UnOp::LNot:
    return AV == 0 ? 1 : 0;
  }
  return 0; // Unreachable; silences -Wreturn-type.
}

/// Exactly the tree engine's Bin arithmetic: two's-complement wrapping
/// (add/sub/mul and INT64_MIN / -1 wrap, INT64_MIN % -1 is 0). Returns
/// false on division or modulo by zero; the caller raises the trap with
/// its own site.
inline bool binEval(BinOp K, int64_t AV, int64_t BV, int64_t &V) {
  const uint64_t UA = static_cast<uint64_t>(AV);
  const uint64_t UB = static_cast<uint64_t>(BV);
  switch (K) {
  case BinOp::Add:
    V = static_cast<int64_t>(UA + UB);
    return true;
  case BinOp::Sub:
    V = static_cast<int64_t>(UA - UB);
    return true;
  case BinOp::Mul:
    V = static_cast<int64_t>(UA * UB);
    return true;
  case BinOp::Div:
    if (BV == 0)
      return false;
    V = BV == -1 ? static_cast<int64_t>(0 - UA) : AV / BV;
    return true;
  case BinOp::Mod:
    if (BV == 0)
      return false;
    V = BV == -1 ? 0 : AV % BV;
    return true;
  case BinOp::And:
    V = AV & BV;
    return true;
  case BinOp::Or:
    V = AV | BV;
    return true;
  case BinOp::Xor:
    V = AV ^ BV;
    return true;
  case BinOp::Shl:
    V = AV << (BV & 63);
    return true;
  case BinOp::Shr:
    V = AV >> (BV & 63);
    return true;
  case BinOp::Eq:
    V = AV == BV;
    return true;
  case BinOp::Ne:
    V = AV != BV;
    return true;
  case BinOp::Lt:
    V = AV < BV;
    return true;
  case BinOp::Le:
    V = AV <= BV;
    return true;
  case BinOp::Gt:
    V = AV > BV;
    return true;
  case BinOp::Ge:
    V = AV >= BV;
    return true;
  case BinOp::LAnd:
    V = (AV != 0) && (BV != 0);
    return true;
  case BinOp::LOr:
    V = (AV != 0) || (BV != 0);
    return true;
  }
  return true; // Unreachable; silences -Wreturn-type.
}

} // namespace

RunResult Interpreter::runOnceThreaded() {
  // TrackTaint is fixed at construction (MonitorFormal and Oracle force it
  // on), so each interpreter always runs one instantiation.
  if (Cfg.TrackTaint)
    return runThreadedLoop</*Hot=*/false, /*Taint=*/true>();
  const bool Hot = Cfg.Plan.kind() == FailurePlan::Kind::None &&
                   Energy == nullptr && !Cfg.MonitorBitVector &&
                   !Cfg.MonitorFormal && !Cfg.Telemetry && !Cfg.Profile;
  return Hot ? runThreadedLoop</*Hot=*/true, /*Taint=*/false>()
             : runThreadedLoop</*Hot=*/false, /*Taint=*/false>();
}

template <bool Hot, bool Taint> RunResult Interpreter::runThreadedLoop() {
  static_assert(!(Hot && Taint), "taint tracking runs the observed loop");
  RunResult R;
  Cfg.Plan.resetRun();
  Monitor->beginRun();
  size_t ViolationsBefore = Monitor->violations().size();

  FFrames.clear();
  FFrames.push_back(FlatFrame{/*ReturnPc=*/0, /*RegBase=*/0});
  RegStack.assign(Img->mainNumRegs(), RtValue());
  this->Pc = Img->mainEntryPc();
  ExecMode = Mode::Jit;
  Natom = 0;
  Undo.clear();
  PendingInputs.clear();
  PendingOutputs.clear();
  if constexpr (Taint) {
    PendingOracle.clear();
    CommittedOracle.clear();
  }
  Committed.clear();
  AbortsThisRegion = 0;
  CurrentRegion = -1;
  [[maybe_unused]] uint64_t ConsecutiveFailures = 0;

  const FlatInst *const Code = Img->code().data();
  const ThreadedOp *const TOps = Img->threadedOps().data();
  const uint64_t *const Costs = CostTable;
  assert(Img->threadedOps().size() == Img->code().size());
  assert(Taint == Cfg.TrackTaint && "taint instantiation iff TrackTaint");

  // Per-run constants, hoisted out of the loop. Skipping a call is legal
  // only when it neither returns true nor mutates state (RNG draws,
  // periodic-plan re-arming, energy consumption); the Hot instantiation
  // drops the checks they guard entirely (asserted below).
  [[maybe_unused]] const FailurePlan::Kind PlanKind = Cfg.Plan.kind();
  [[maybe_unused]] const bool PlanMayFireBefore =
      PlanKind == FailurePlan::Kind::Pathological ||
      PlanKind == FailurePlan::Kind::Random;
  [[maybe_unused]] const bool NeedEnergyCheck =
      Energy != nullptr || PlanKind == FailurePlan::Kind::Periodic;
  const bool BitVector = Cfg.MonitorBitVector;
  [[maybe_unused]] const bool Formal = Cfg.MonitorFormal;
  assert((Taint || !Formal) && "MonitorFormal implies TrackTaint");
  // Telemetry/profiling observers: the Hot instantiation excludes them
  // (runOnceThreaded routes observed runs here as non-Hot), so the Hot
  // fast path carries not even the null tests.
  [[maybe_unused]] TraceSink *const Telem = Cfg.Telemetry;
  [[maybe_unused]] PcProfile *const Prof = Cfg.Profile;
  [[maybe_unused]] uint32_t ProfPrevPc = ~0u;
  [[maybe_unused]] uint16_t ProfPrevOp = 0;
  assert(!(Hot && (PlanMayFireBefore || NeedEnergyCheck || BitVector ||
                   Telem || Prof)) &&
         "Hot instantiation requires no plan, no energy, no monitors, no "
         "telemetry");

  // Hot-loop state mirrored into locals (the members stay authoritative
  // for everything out of line): synced out before and back in after
  // every call that reads or writes Pc / tau / lifetime counters or can
  // replace the frame stack.
  uint32_t Pc = this->Pc;
  uint64_t Tau = this->Tau;
  uint64_t LifetimeOn = this->LifetimeOn;
  uint64_t OnCycles = R.OnCycles;
  // In the Hot instantiation every charge lands on OnCycles, Tau and
  // LifetimeOn alike (step costs and undo-log entries; there is no energy
  // model or failure plan to diverge them), so the loop keeps only
  // OnCycles as a running counter and derives the other two on demand
  // from their entry offsets — two fewer adds on every step. The offsets
  // are wrap-exact: (Tau - OnCycles) + OnCycles == Tau in uint64 even
  // when the subtraction wraps. Non-Hot keeps all three live (plans and
  // energy accounting read and reset them mid-run).
  uint64_t TauMinusOn = Tau - OnCycles;
  uint64_t LifeMinusOn = LifetimeOn - OnCycles;
  uint64_t Steps = R.Steps;
  uint32_t RegBase = FFrames.back().RegBase;
  // Current frame's register window. Every operand access previously went
  // through RegStack[RegBase + i] — re-loading the vector's data pointer
  // from memory each time, since the compiler must assume any opaque call
  // clobbers it. Hoisting the window into a local pointer drops a load
  // and an add from every register read and write; the refresh points are
  // exactly where the window can move: Call/Ret (resize + base change),
  // and SyncIn (a power-failure restore replaces the stack wholesale).
  RtValue *Regs = RegStack.data() + RegBase;
  const uint64_t MaxOnCycles = Cfg.MaxOnCyclesPerRun;
  const FlatInst *FI = Code + Pc;
  [[maybe_unused]] ThreadedOp TOp = ThreadedOp::Nop;
  uint64_t Cost = 0;

  auto SyncOut = [&] {
    this->Pc = Pc;
    if constexpr (Hot) {
      this->Tau = TauMinusOn + OnCycles;
      this->LifetimeOn = LifeMinusOn + OnCycles;
    } else {
      this->Tau = Tau;
      this->LifetimeOn = LifetimeOn;
    }
    R.OnCycles = OnCycles;
    R.Steps = Steps;
  };
  auto SyncIn = [&] {
    Pc = this->Pc;
    OnCycles = R.OnCycles;
    if constexpr (Hot) {
      TauMinusOn = this->Tau - OnCycles;
      LifeMinusOn = this->LifetimeOn - OnCycles;
    } else {
      Tau = this->Tau;
      LifetimeOn = this->LifetimeOn;
    }
    Steps = R.Steps;
    RegBase = FFrames.empty() ? 0 : FFrames.back().RegBase;
    Regs = RegStack.data() + RegBase;
  };

  // Raw operand payload: what every taint-free read needs (and, with
  // taint on, what index, condition and discarded reads need).
  auto RawVal = [&](const Operand &O) -> int64_t {
    if (O.isImm())
      return O.Imm;
    if (O.isReg())
      return Regs[O.Reg].V;
    return evalKindless().V;
  };
  // Full operand value, taint included: the Taint instantiation's reads of
  // every value that flows on into a register, NVM, an output or a marker.
  [[maybe_unused]] auto Val = [&](const Operand &O) -> RtValue {
    if (O.isImm())
      return RtValue(O.Imm);
    if (O.isReg())
      return Regs[O.Reg];
    return evalKindless();
  };

  // The NVM store rule (Interpreter::writeGlobal) with the undo-log
  // charges applied to the locals: the first write of a cell inside an
  // open region logs its old value. StoreNvmRaw moves the payload only —
  // with taint off every taint vector is empty, so that is the whole state.
  auto LogUndo = [&](int G, int64_t Index) {
    assert(Index >= 0 && Index < static_cast<int64_t>(Img->globalSize(G)));
    if (ExecMode == Mode::Atomic) {
      if (Undo.logIfFirst(G, Index, nvmCell(G, Index))) {
        ++R.UndoLogEntries;
        OnCycles += Cfg.Costs.UndoLogEntryCost;
        if constexpr (!Hot) {
          LifetimeOn += Cfg.Costs.UndoLogEntryCost;
          Tau += Cfg.Costs.UndoLogEntryCost;
        }
      }
    }
  };
  auto StoreNvmRaw = [&](int G, int64_t Index, int64_t V) {
    LogUndo(G, Index);
    nvmCell(G, Index).V = V;
  };
  [[maybe_unused]] auto StoreNvm = [&](int G, int64_t Index, RtValue V) {
    LogUndo(G, Index);
    nvmCell(G, Index) = std::move(V);
  };

  auto DivZeroTrap = [&](const FlatInst &I) {
    R.Trap = "division by zero at " + P.function(I.Func)->name() + "@" +
             std::to_string(I.Label);
  };
  auto BoundsTrap = [&](const FlatInst &I) {
    R.Trap = "array index out of bounds in " + P.function(I.Func)->name();
  };

// Current simulated time, valid in both instantiations: the Hot loop
// only advances OnCycles (see the locals above), so tau is its entry
// offset plus the counter; the non-Hot loop keeps Tau itself live.
#define OCELOT_TAU() (Hot ? TauMinusOn + OnCycles : Tau)

// One instruction's step header: budget check, failure injection, energy
// draw, cost/tau/step accounting, profiling, the bit-vector and formal
// use checks, PC advance. Fused handlers invoke it again for each later
// slot, so a power failure can still strike between any two slots
// (resuming at the interrupted slot's plain code). The Taint
// instantiation dispatches on the plain opcode, never a fused code, so
// only the plain handlers — the ones with taint arms — run with taint.
#define OCELOT_STEP()                                                          \
  do {                                                                         \
    if (OnCycles > MaxOnCycles) {                                              \
      R.Trap = "on-cycle budget exceeded";                                     \
      goto LDone;                                                              \
    }                                                                          \
    FI = Code + Pc;                                                            \
    if constexpr (Taint)                                                       \
      TOp = static_cast<ThreadedOp>(FI->Op);                                   \
    else                                                                       \
      TOp = TOps[Pc];                                                          \
    if constexpr (!Hot) {                                                      \
      if (PlanMayFireBefore &&                                                 \
          Cfg.Plan.firesBefore(InstrRef(FI->Func, FI->Label), Rand)) {         \
        SyncOut();                                                             \
        powerFailFlat(R);                                                      \
        SyncIn();                                                              \
        goto LTop;                                                             \
      }                                                                        \
    }                                                                          \
    Cost = Costs[Pc];                                                          \
    if constexpr (!Hot) {                                                      \
      if (NeedEnergyCheck) {                                                   \
        this->LifetimeOn = LifetimeOn; /* periodic plans arm against it */     \
        if (checkEnergyAndPlan(Cost)) {                                        \
          ++ConsecutiveFailures;                                               \
          if (ConsecutiveFailures > Cfg.MaxAbortsPerRegion) {                  \
            R.Starved = true;                                                  \
            goto LDone;                                                        \
          }                                                                    \
          SyncOut();                                                           \
          powerFailFlat(R);                                                    \
          SyncIn();                                                            \
          goto LTop;                                                           \
        }                                                                      \
      }                                                                        \
      ConsecutiveFailures = 0;                                                 \
    }                                                                          \
    OnCycles += Cost;                                                          \
    if constexpr (!Hot) {                                                      \
      LifetimeOn += Cost;                                                      \
      Tau += Cost;                                                             \
    }                                                                          \
    ++Steps;                                                                   \
    if constexpr (!Hot) {                                                      \
      if (Prof) {                                                              \
        Prof->step(Pc, static_cast<uint16_t>(FI->Op), ProfPrevPc,              \
                   ProfPrevOp);                                                \
        ProfPrevPc = Pc;                                                       \
        ProfPrevOp = static_cast<uint16_t>(FI->Op);                            \
      }                                                                        \
      if (BitVector && FI->HasUseCheck)                                        \
        Monitor->onFreshUse(InstrRef(FI->Func, FI->Label), Tau);               \
    }                                                                          \
    if constexpr (Taint) {                                                     \
      if (Formal && FI->UseRegsCount) {                                        \
        const int32_t *UseRegs = Img->useRegs(*FI);                            \
        for (uint16_t RI = 0; RI < FI->UseRegsCount; ++RI)                     \
          Monitor->onFreshUseFormal(InstrRef(FI->Func, FI->Label),             \
                                    Regs[UseRegs[RI]].Taint, Epoch, Tau);      \
      }                                                                        \
    }                                                                          \
    ++Pc; /* Advance before executing (branches overwrite). */                 \
  } while (0)

// The post-instruction kind-less-operand conversion, with the site of
// \p INST (the instruction whose handler just ran). A trap ends the run
// (the loop-head check at LTop would exit), so this jumps straight to the
// epilogue — which lets the handler enders below skip the per-step trap
// re-check entirely.
#define OCELOT_KINDCHECK(INST)                                                 \
  if (SawKindlessOperand) {                                                    \
    SawKindlessOperand = false;                                                \
    if (R.Trap.empty())                                                        \
      R.Trap = "operand without a kind at " +                                  \
               P.function((INST).Func)->name() + "@" +                         \
               std::to_string((INST).Label) + " (lowering bug)";               \
    goto LDone;                                                                \
  }

// Ends a handler that just raised a trap. The reference semantics set
// the trap, run the kind-less conversion (which must still clear the
// flag, and keeps the first trap), then exit at the next loop check — so:
// clear the flag, keep the trap, stop.
#define OCELOT_TRAPPED(INST)                                                   \
  do {                                                                         \
    OCELOT_KINDCHECK(INST)                                                     \
    goto LDone;                                                                \
  } while (0)

// Handler enders. OCELOT_NEXT for handlers that may have read a kind-less
// operand (any RawVal/Val call); NOCHECK for handlers that provably cannot
// have set the flag.
//
// Both *replicate* the step header + dispatch instead of jumping back to
// a single shared loop head: with computed goto this gives every handler
// its own indirect branch, so the branch predictor learns per-handler
// successor distributions (the classic threaded-dispatch win; a shared
// dispatch site collapses them all into one unpredictable branch).
//
// Computed goto leaves a scope without running its destructors, so no
// object that owns memory (an RtValue, an event) may be live where a
// handler dispatches: handlers that build one scope it to a block that
// closes before OCELOT_NEXT.
//
// Neither re-checks the LTop exit condition — every path that can
// make it true leaves the fast path on the spot: traps jump to LDone
// (budget and kind-less in the macros above, explicit ones via
// OCELOT_TRAPPED), Ret checks frame emptiness itself, and starvation and
// power failures happen out of line and resume through the fully-checked
// LTop.
#define OCELOT_NEXT_NOCHECK()                                                  \
  do {                                                                         \
    OCELOT_STEP();                                                             \
    OCELOT_DISPATCH();                                                         \
  } while (0)
#define OCELOT_NEXT(INST)                                                      \
  do {                                                                         \
    OCELOT_KINDCHECK(INST)                                                     \
    OCELOT_NEXT_NOCHECK();                                                     \
  } while (0)

#if defined(OCELOT_HAVE_COMPUTED_GOTO)
  // Direct-threaded dispatch: one indirect goto through a label table
  // indexed by the ThreadedOp code.
  static const void *const JumpTable[] = {
      &&LOp_Const,         &&LOp_Bin,          &&LOp_Un,
      &&LOp_Mov,           &&LOp_LoadG,        &&LOp_StoreG,
      &&LOp_LoadA,         &&LOp_StoreA,       &&LOp_LoadInd,
      &&LOp_StoreInd,      &&LOp_Input,        &&LOp_Call,
      &&LOp_Ret,           &&LOp_Br,           &&LOp_CondBr,
      &&LOp_Fresh,         &&LOp_Consistent,   &&LOp_AtomicStart,
      &&LOp_AtomicEnd,     &&LOp_Output,       &&LOp_Nop,
      &&LOp_FuseBinCondBr, &&LOp_FuseBinStoreG, &&LOp_FuseBinStoreA,
      &&LOp_FuseLoadGBin,  &&LOp_FuseLoadABin, &&LOp_FuseConstStoreG,
      &&LOp_FuseLoadGStoreG, &&LOp_FuseMovBin, &&LOp_FuseBinMov,
      &&LOp_FuseMovBr,     &&LOp_FuseBinBin,   &&LOp_FuseMovLoadA,
      &&LOp_FuseBinLoadA,  &&LOp_FuseLoadALoadA, &&LOp_FuseMovConsistent,
      &&LOp_FuseConsistentBin, &&LOp_FuseInputMov, &&LOp_FuseMovInput,
      &&LOp_FuseConsistentInput, &&LOp_FuseMovMov,
      &&LOp_FuseFreshConsistent};
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == NumThreadedOps,
                "jump table must cover every ThreadedOp");
#define OCELOT_CASE(name) LOp_##name
#define OCELOT_DISPATCH() goto *JumpTable[static_cast<size_t>(TOp)]
#else
// Portable fallback: a switch in a loop. Same handlers, one extra
// bounds-checkable branch per dispatch.
#define OCELOT_CASE(name) case ThreadedOp::name
#define OCELOT_DISPATCH() goto LSwitch
#endif

// A fused pair handler. The Taint instantiation dispatches plain
// opcodes only and never reaches one, so there the body is a discarded
// statement (not even compiled) behind a defensive stop.
#define OCELOT_FUSED_CASE(name)                                                \
  OCELOT_CASE(name) : if constexpr (Taint) {                                   \
    assert(false && "the taint loop dispatches plain opcodes only");           \
    goto LDone;                                                                \
  }                                                                            \
  else

  goto LTop;

LTop:
  if (FFrames.empty() || R.Starved || !R.Trap.empty())
    goto LDone;
  OCELOT_STEP();
  OCELOT_DISPATCH();

#if !defined(OCELOT_HAVE_COMPUTED_GOTO)
LSwitch:
  switch (TOp) {
#endif

  OCELOT_CASE(Const) : {
    if constexpr (Taint)
      Regs[FI->Dst] = RtValue(FI->A.Imm);
    else
      Regs[FI->Dst].V = FI->A.Imm;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Mov) : {
    if constexpr (Taint)
      Regs[FI->Dst] = Val(FI->A);
    else
      Regs[FI->Dst].V = RawVal(FI->A);
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Un) : {
    if constexpr (Taint) {
      RtValue A = Val(FI->A); // The result inherits the operand's taint.
      A.V = unEval(FI->UnKind, A.V);
      Regs[FI->Dst] = std::move(A);
    } else {
      Regs[FI->Dst].V = unEval(FI->UnKind, RawVal(FI->A));
    }
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Bin) : {
    if constexpr (Taint) {
      RtValue A = Val(FI->A);
      RtValue B = Val(FI->B);
      int64_t V = 0;
      if (!binEval(FI->BinKind, A.V, B.V, V)) {
        DivZeroTrap(*FI);
        OCELOT_TRAPPED(*FI);
      }
      A.V = V; // The result carries the union of both operands' taint.
      A.mergeTaint(B);
      Regs[FI->Dst] = std::move(A);
    } else {
      const int64_t AV = RawVal(FI->A);
      const int64_t BV = RawVal(FI->B);
      int64_t V = 0;
      if (!binEval(FI->BinKind, AV, BV, V)) {
        DivZeroTrap(*FI);
        OCELOT_TRAPPED(*FI);
      }
      Regs[FI->Dst].V = V;
    }
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadG) : {
    if constexpr (Taint)
      Regs[FI->Dst] = nvmCell(FI->GlobalId, 0);
    else
      Regs[FI->Dst].V = nvmCell(FI->GlobalId, 0).V;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(StoreG) : {
    if constexpr (Taint)
      StoreNvm(FI->GlobalId, 0, Val(FI->A));
    else
      StoreNvmRaw(FI->GlobalId, 0, RawVal(FI->A));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadA) : {
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    if constexpr (Taint)
      Regs[FI->Dst] = nvmCell(FI->GlobalId, Idx);
    else
      Regs[FI->Dst].V = nvmCell(FI->GlobalId, Idx).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(StoreA) : {
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    if constexpr (Taint)
      StoreNvm(FI->GlobalId, Idx, Val(FI->B));
    else
      StoreNvmRaw(FI->GlobalId, Idx, RawVal(FI->B));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadInd) : {
    const int64_t G = RawVal(FI->A);
    assert(G >= 0 && G < P.numGlobals() && "bad reference value");
    if constexpr (Taint)
      Regs[FI->Dst] = nvmCell(static_cast<int>(G), 0);
    else
      Regs[FI->Dst].V = nvmCell(static_cast<int>(G), 0).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(StoreInd) : {
    const int64_t G = RawVal(FI->A);
    assert(G >= 0 && G < P.numGlobals() && "bad reference value");
    if constexpr (Taint)
      StoreNvm(static_cast<int>(G), 0, Val(FI->B));
    else
      StoreNvmRaw(static_cast<int>(G), 0, RawVal(FI->B));
    OCELOT_NEXT(*FI);
  }

// The complete Input instruction body (replay-or-sample, register write
// with the input's taint under Taint, observer callbacks, trace event),
// shared by the plain handler and the Input-fused pairs below. Leaves the
// sampled value in \p RESULT_, a declared int64_t local; traps exit via
// goto LDone like every handler. The trace event is only materialized
// under RecordTrace — it was never observable otherwise.
#define OCELOT_INPUT_BODY(RESULT_)                                             \
  do {                                                                         \
    if (Replay) {                                                              \
      if (ReplayIdx >= Replay->size()) {                                       \
        R.Trap = "replay input queue exhausted";                               \
        goto LDone;                                                            \
      }                                                                        \
      const InputEvent &RE = (*Replay)[ReplayIdx++];                           \
      if (RE.Sensor != FI->SensorId) {                                         \
        R.Trap = "replay sensor mismatch";                                     \
        goto LDone;                                                            \
      }                                                                        \
      RESULT_ = RE.Value;                                                      \
    } else {                                                                   \
      RESULT_ = Sensors->sample(FI->SensorId, OCELOT_TAU());                   \
    }                                                                          \
    if constexpr (Taint) {                                                     \
      RtValue Out(RESULT_);                                                    \
      Out.Taint.push_back(InputEvent{.Sensor = FI->SensorId,                   \
                                     .Tau = Tau,                               \
                                     .Epoch = Epoch,                           \
                                     .Value = RESULT_});                       \
      Regs[FI->Dst] = std::move(Out);                                          \
    } else {                                                                   \
      Regs[FI->Dst].V = RESULT_;                                               \
    }                                                                          \
    if constexpr (!Hot) {                                                      \
      if (Telem)                                                               \
        Telem->sensorRead(Tau, FI->SensorId, RESULT_);                         \
    }                                                                          \
    if (BitVector)                                                             \
      Monitor->onInput(InstrRef(FI->Func, FI->Label),                          \
                       currentChainFlat(FI->Func, FI->Label), FI->SensorId,    \
                       OCELOT_TAU());                                          \
    if (Cfg.RecordTrace) {                                                     \
      InputEvent E;                                                            \
      E.Sensor = FI->SensorId;                                                 \
      E.Tau = OCELOT_TAU();                                                    \
      E.Epoch = Epoch;                                                         \
      E.Value = RESULT_;                                                       \
      if (ExecMode == Mode::Atomic)                                            \
        PendingInputs.push_back(E);                                            \
      else                                                                     \
        Committed.Inputs.push_back(E);                                         \
    }                                                                          \
  } while (0)

  OCELOT_CASE(Input) : {
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Call) : {
    // Pc already points at the fall-through instruction: the return
    // address; Code[ReturnPc - 1] recovers this call on return.
    const uint32_t NewBase = static_cast<uint32_t>(RegStack.size());
    RegStack.resize(NewBase + FI->CalleeNumRegs);
    Regs = RegStack.data() + RegBase; // resize may have moved the stack
    const Operand *Args = Img->args(*FI);
    for (uint32_t A = 0; A < FI->ArgsCount; ++A) {
      if constexpr (Taint)
        RegStack[NewBase + A] = Val(Args[A]);
      else
        RegStack[NewBase + A].V = RawVal(Args[A]);
    }
    FFrames.push_back(FlatFrame{/*ReturnPc=*/Pc, /*RegBase=*/NewBase});
    RegBase = NewBase;
    Regs = RegStack.data() + NewBase;
    Pc = FI->CalleeEntryPc;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Ret) : {
    { // Scoped: the taint-carrying value dies before the dispatch.
      const FlatFrame F = FFrames.back();
      auto V = [&] {
        if constexpr (Taint)
          return FI->A.isNone() ? RtValue(0) : Val(FI->A);
        else
          return FI->A.isNone() ? int64_t(0) : RawVal(FI->A);
      }();
      FFrames.pop_back();
      RegStack.resize(F.RegBase);
      if (!FFrames.empty()) {
        Pc = F.ReturnPc;
        RegBase = FFrames.back().RegBase;
        Regs = RegStack.data() + RegBase; // back to the caller's window
        const FlatInst &CallI = Code[F.ReturnPc - 1];
        if (CallI.Dst >= 0 && !FI->A.isNone()) {
          if constexpr (Taint)
            Regs[CallI.Dst] = std::move(V);
          else
            Regs[CallI.Dst].V = V;
        }
      }
    }
    OCELOT_KINDCHECK(*FI)
    if (FFrames.empty())
      goto LDone; // Main returned: the only fast-path run completion.
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Br) : {
    Pc = FI->Target;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(CondBr) : {
    const int64_t V = RawVal(FI->A);
    Pc = V != 0 ? FI->Target : FI->Target2;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Fresh) : {
    OCELOT_NEXT_NOCHECK(); // Checked at uses.
  }

  OCELOT_CASE(Consistent) : {
    // Formal-monitor marker: a no-op unless taint feeds the formal check.
    if constexpr (Taint) {
      if (Formal)
        Monitor->onConsistentMarker(FI->SetId, FI->Label, Val(FI->A).Taint,
                                    Epoch, Tau);
      OCELOT_KINDCHECK(*FI)
    }
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(AtomicStart) : {
    SyncOut(); // Snapshot captures the member Pc / tau charges land there.
    enterAtomicFlat(*FI, R);
    SyncIn();
    goto LTop; // Re-enter through the fully-checked loop head.
  }

  OCELOT_CASE(AtomicEnd) : {
    if constexpr (!Hot)
      SyncOut(); // commitAtomic's telemetry hook reads the member tau.
    commitAtomic(R);
    goto LTop; // Re-enter through the fully-checked loop head.
  }

  OCELOT_CASE(Output) : {
    const Operand *Args = Img->args(*FI);
    // The oracle needs taint, which only the Taint instantiation carries
    // (RunConfig::Oracle implies TrackTaint).
    const bool OracleOn = Taint && Cfg.Oracle;
    if (!Cfg.RecordTrace && !OracleOn) {
      // Args are still evaluated (same trap conversion for kind-less
      // operands), but the event is never materialized.
      for (uint32_t A = 0; A < FI->ArgsCount; ++A)
        (void)RawVal(Args[A]);
      OCELOT_NEXT(*FI);
    }
    { // Scoped: the event dies before the dispatch.
      OutputEvent E;
      E.Kind = FI->OutKind;
      E.Tau = OCELOT_TAU();
      E.Args.reserve(FI->ArgsCount);
      if constexpr (Taint) {
        std::vector<InputEvent> Fused;
        for (uint32_t A = 0; A < FI->ArgsCount; ++A) {
          const RtValue V = Val(Args[A]);
          E.Args.push_back(V.V);
          if (OracleOn)
            Fused.insert(Fused.end(), V.Taint.begin(), V.Taint.end());
        }
        if (OracleOn) {
          SyncOut(); // The oracle record and its telemetry read member tau.
          recordOracleOutput(E.Kind, std::move(Fused));
        }
      } else {
        for (uint32_t A = 0; A < FI->ArgsCount; ++A)
          E.Args.push_back(RawVal(Args[A]));
      }
      if (Cfg.RecordTrace) {
        if (ExecMode == Mode::Atomic)
          PendingOutputs.push_back(std::move(E));
        else
          Committed.Outputs.push_back(std::move(E));
      }
    }
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Nop) : {
    OCELOT_NEXT_NOCHECK();
  }

  // -- Superinstructions --------------------------------------------------
  // Each executes head then tail with the full step header replicated for
  // the tail (OCELOT_STEP), forwarding the head's result through a local
  // instead of re-reading the register file.

  OCELOT_FUSED_CASE(FuseBinCondBr) {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (!binEval(H.BinKind, AV, BV, V)) {
      DivZeroTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the CondBr testing H.Dst.
    Pc = V != 0 ? FI->Target : FI->Target2;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseBinStoreG) {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (!binEval(H.BinKind, AV, BV, V)) {
      DivZeroTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the StoreG of H.Dst.
    StoreNvmRaw(FI->GlobalId, 0, V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseBinStoreA) {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (!binEval(H.BinKind, AV, BV, V)) {
      DivZeroTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the StoreA whose value is H.Dst.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    StoreNvmRaw(FI->GlobalId, Idx, V);
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseLoadGBin) {
    const FlatInst &H = *FI;
    const int64_t V0 = nvmCell(H.GlobalId, 0).V;
    Regs[H.Dst].V = V0;
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (!binEval(FI->BinKind, V0, BV, V)) {
      DivZeroTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseLoadABin) {
    const FlatInst &H = *FI;
    const int64_t Idx = RawVal(H.A);
    if (Idx < 0 || Idx >= static_cast<int64_t>(Img->globalSize(H.GlobalId))) {
      BoundsTrap(H);
      OCELOT_TRAPPED(H);
    }
    const int64_t V0 = nvmCell(H.GlobalId, Idx).V;
    Regs[H.Dst].V = V0;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (!binEval(FI->BinKind, V0, BV, V)) {
      DivZeroTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseConstStoreG) {
    const FlatInst &H = *FI;
    const int64_t V = H.A.Imm;
    Regs[H.Dst].V = V;
    OCELOT_STEP(); // Tail: the StoreG of H.Dst.
    StoreNvmRaw(FI->GlobalId, 0, V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseLoadGStoreG) {
    const FlatInst &H = *FI;
    const int64_t V = nvmCell(H.GlobalId, 0).V;
    Regs[H.Dst].V = V;
    OCELOT_STEP(); // Tail: the StoreG of H.Dst.
    StoreNvmRaw(FI->GlobalId, 0, V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseMovBin) {
    const FlatInst &H = *FI;
    const int64_t V0 = RawVal(H.A);
    Regs[H.Dst].V = V0;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (!binEval(FI->BinKind, V0, BV, V)) {
      DivZeroTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseBinMov) {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (!binEval(H.BinKind, AV, BV, V)) {
      DivZeroTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Mov copying H.Dst.
    Regs[FI->Dst].V = V;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseMovBr) {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the unconditional Br.
    Pc = FI->Target;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseBinBin) {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V0 = 0;
    if (!binEval(H.BinKind, AV, BV, V0)) {
      DivZeroTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V0;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV2 = RawVal(FI->B);
    int64_t V = 0;
    if (!binEval(FI->BinKind, V0, BV2, V)) {
      DivZeroTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  // Dispatch-elision pairs: no forwarding condition, so the tail executes
  // the plain handler body against the (already updated) register file.

  OCELOT_FUSED_CASE(FuseMovLoadA) {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a LoadA.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V =
        nvmCell(FI->GlobalId, Idx).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseBinLoadA) {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (!binEval(H.BinKind, AV, BV, V)) {
      DivZeroTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a LoadA.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V =
        nvmCell(FI->GlobalId, Idx).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseLoadALoadA) {
    const FlatInst &H = *FI;
    const int64_t Idx0 = RawVal(H.A);
    if (Idx0 < 0 ||
        Idx0 >= static_cast<int64_t>(Img->globalSize(H.GlobalId))) {
      BoundsTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V =
        nvmCell(H.GlobalId, Idx0).V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a second LoadA.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V =
        nvmCell(FI->GlobalId, Idx).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseMovConsistent) {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a Consistent marker (taint-off no-op).
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseConsistentBin) {
    OCELOT_STEP(); // Head was a no-op Consistent marker; tail: a Bin.
    const int64_t AV = RawVal(FI->A);
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (!binEval(FI->BinKind, AV, BV, V)) {
      DivZeroTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseInputMov) {
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_STEP(); // Tail: a Mov copying the freshly sampled register.
    Regs[FI->Dst].V = V;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseMovInput) {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: an Input.
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseConsistentInput) {
    OCELOT_STEP(); // Head was a no-op Consistent marker; tail: an Input.
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_FUSED_CASE(FuseMovMov) {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a second Mov against the updated register file.
    Regs[FI->Dst].V = RawVal(FI->A);
    OCELOT_NEXT(*FI);
  }

  OCELOT_FUSED_CASE(FuseFreshConsistent) {
    OCELOT_STEP(); // Both slots are taint-off no-op markers.
    OCELOT_NEXT_NOCHECK();
  }

#if !defined(OCELOT_HAVE_COMPUTED_GOTO)
  }
  goto LDone; // Unreachable: every ThreadedOp has a case.
#endif

LDone:
  SyncOut();

  R.Completed = FFrames.empty() && R.Trap.empty() && !R.Starved;
  R.TraceData = std::move(Committed);
  Committed.clear();
  R.FinalTau = OCELOT_TAU();
  if constexpr (Taint)
    finishOracle(R);

  R.ViolatedFresh = Monitor->runFreshViolation();
  R.ViolatedConsistent = Monitor->runConsistentViolation();
  const auto &AllViolations = Monitor->violations();
  for (size_t I = ViolationsBefore; I < AllViolations.size(); ++I)
    R.Violations.push_back(AllViolations[I]);
  return R;

#undef OCELOT_TAU
#undef OCELOT_STEP
#undef OCELOT_INPUT_BODY
#undef OCELOT_KINDCHECK
#undef OCELOT_TRAPPED
#undef OCELOT_NEXT
#undef OCELOT_NEXT_NOCHECK
#undef OCELOT_CASE
#undef OCELOT_FUSED_CASE
#undef OCELOT_DISPATCH
}

template RunResult Interpreter::runThreadedLoop<true, false>();
template RunResult Interpreter::runThreadedLoop<false, false>();
template RunResult Interpreter::runThreadedLoop<false, true>();
