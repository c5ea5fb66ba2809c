//===- Profile.h - Per-PC / per-opcode-pair execution profile ---*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-frequency counters filled by the threaded engine when
/// `RunConfig::Profile` is set: how many times each image PC executed,
/// and how often each *PC-adjacent* opcode pair (prev at PC, cur at
/// PC+1) ran back to back. The pair histogram is measured over the
/// image's base opcodes — exactly the data the superinstruction fusion
/// pass in ExecutableImage consumes — so `ocelotc --profile` can say
/// which fusions the current pattern table captures and which hot pairs
/// it misses.
///
/// Cost discipline: one `if (Prof)` test per step in the engines (a
/// never-taken, perfectly predicted branch when profiling is off), and
/// the threaded engine's Hot instantiation excludes profiling entirely —
/// a profiled run takes the non-Hot loop. Profiling never changes
/// simulated results; it only counts.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_TELEMETRY_PROFILE_H
#define OCELOT_TELEMETRY_PROFILE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ocelot {

struct PcProfile {
  /// Executions of each image PC. Sized by prepare().
  std::vector<uint64_t> PcCounts;
  /// Executions of PC-adjacent opcode pair (Prev, Cur) at
  /// [Prev * NumOpcodes + Cur], over base opcodes.
  std::vector<uint64_t> PairCounts;
  uint64_t Steps = 0;
  size_t NumOpcodes = 0;

  /// Sizes the tables for an image of \p NumPcs instructions and an
  /// opcode space of \p NumOps. Idempotent; keeps existing counts when
  /// the sizes already match.
  void prepare(size_t NumPcs, size_t NumOps) {
    if (PcCounts.size() != NumPcs)
      PcCounts.assign(NumPcs, 0);
    if (PairCounts.size() != NumOps * NumOps)
      PairCounts.assign(NumOps * NumOps, 0);
    NumOpcodes = NumOps;
  }

  /// Engine hook: counts one executed step at \p Pc with opcode \p Op;
  /// \p PrevPc / \p PrevOp describe the previously executed step (PrevPc
  /// == ~0u means none, e.g. the first step after a reboot).
  void step(uint32_t Pc, uint16_t Op, uint32_t PrevPc, uint16_t PrevOp) {
    ++Steps;
    if (Pc < PcCounts.size())
      ++PcCounts[Pc];
    if (PrevPc != ~0u && Pc == PrevPc + 1) {
      size_t Idx = static_cast<size_t>(PrevOp) * NumOpcodes + Op;
      if (Idx < PairCounts.size())
        ++PairCounts[Idx];
    }
  }

  void merge(const PcProfile &O) {
    if (PcCounts.size() < O.PcCounts.size())
      PcCounts.resize(O.PcCounts.size(), 0);
    for (size_t I = 0; I < O.PcCounts.size(); ++I)
      PcCounts[I] += O.PcCounts[I];
    if (PairCounts.size() < O.PairCounts.size()) {
      PairCounts.resize(O.PairCounts.size(), 0);
      NumOpcodes = O.NumOpcodes;
    }
    for (size_t I = 0; I < O.PairCounts.size(); ++I)
      PairCounts[I] += O.PairCounts[I];
    Steps += O.Steps;
  }
};

/// An on-disk collection of PcProfiles keyed by the fingerprint of the
/// ExecutableImage each was measured on (`ExecutableImage::fingerprint`).
/// One sweep compiles many artifacts (benchmark x model), so a single
/// `--pgo-out` file bundles a profile per image; feeding it back via
/// `--pgo` lets every recompiled image find its own counts, and an image
/// the bundle has never seen simply is not in the map — the consumer
/// decides whether that is a hard error (ocelotc) or a quiet fallback to
/// the static heat estimator (the image builder).
///
/// The text format is deterministic: entries sorted by fingerprint,
/// counts emitted sparsely in ascending index order, no floats, no
/// timestamps — serializing a reloaded bundle reproduces the input
/// byte-for-byte (pinned by PgoTest).
struct PgoBundle {
  std::map<uint64_t, PcProfile> Entries;

  /// The profile for \p Fingerprint, creating an empty one on demand
  /// (collection side).
  PcProfile &entry(uint64_t Fingerprint) { return Entries[Fingerprint]; }
  /// The profile for \p Fingerprint, or null (consumption side).
  const PcProfile *find(uint64_t Fingerprint) const {
    auto It = Entries.find(Fingerprint);
    return It == Entries.end() ? nullptr : &It->second;
  }
  /// Per-image PcProfile::merge across two bundles (associative and
  /// commutative, like the per-profile merge it lifts).
  void merge(const PgoBundle &O);

  /// Deterministic text serialization (see file comment).
  std::string serialize() const;
  /// Parses text produced by serialize. On failure returns false and
  /// leaves an actionable message (line number + expectation) in
  /// \p Error.
  static bool deserialize(const std::string &Text, PgoBundle &Out,
                          std::string &Error);

  /// Writes serialize() to \p Path. False + \p Error on I/O failure.
  bool save(const std::string &Path, std::string &Error) const;
  /// Reads and parses \p Path. Null + \p Error on I/O or parse failure.
  static std::shared_ptr<const PgoBundle> load(const std::string &Path,
                                               std::string &Error);
};

} // namespace ocelot

#endif // OCELOT_TELEMETRY_PROFILE_H
