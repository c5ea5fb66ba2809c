//===- Trace.h - In-memory spans around library calls -----------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span around each call the benchmark makes
/// into a library module: name, start, end, parent span and the id of the
/// operation (one program compile, one grid cell) it belongs to. Spans stay
/// in memory until the run ends and are then written as Chrome trace JSON.
/// A span's layer is its name up to the first '.', so `analysis.taint`
/// counts towards `analysis`; spans of the benchmark's own code use the
/// layer `bench`, and their self time is the part no library call covers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Span {
    const char *Name = "";
    double StartUs = 0;
    double EndUs = 0;
    int Parent = -1;
    uint64_t Op = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Op = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Wall time since the span opened, in milliseconds (measured even
    /// when tracing is off).
    double elapsedMs() const;

  private:
    Tracer &T;
    int Id = -1;
    std::chrono::steady_clock::time_point Start;
  };

  /// Self time (span minus the spans it directly contains) summed per
  /// layer, in milliseconds.
  std::map<std::string, double> selfMsByLayer() const;

  /// Writes every span as Chrome trace_event JSON ("X" events).
  bool writeChromeJson(const std::string &Path) const;

  size_t size() const { return Spans.size(); }

private:
  double nowUs() const;

  bool Enabled;
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  int Open = -1; ///< Innermost open span.
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
