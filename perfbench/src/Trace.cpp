//===- Trace.cpp - In-memory spans around library calls -------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace perfbench;

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

Tracer::Scope::Scope(Tracer &T, const char *Name, uint64_t Op)
    : T(T), Start(std::chrono::steady_clock::now()) {
  if (!T.Enabled)
    return;
  Id = static_cast<int>(T.Spans.size());
  T.Spans.push_back({Name, T.nowUs(), 0, T.Open, Op});
  T.Open = Id;
}

Tracer::Scope::~Scope() {
  if (Id < 0)
    return;
  T.Spans[static_cast<size_t>(Id)].EndUs = T.nowUs();
  T.Open = T.Spans[static_cast<size_t>(Id)].Parent;
}

double Tracer::Scope::elapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  // Spans are recorded on one thread and nest, so a span's children never
  // overlap: its self time is its duration minus theirs.
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndUs - Spans[I].StartUs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.EndUs - S.StartUs;
  std::map<std::string, double> ByLayer;
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::string Name = Spans[I].Name;
    ByLayer[Name.substr(0, Name.find('.'))] += Self[I] / 1000.0;
  }
  return ByLayer;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}\n",
                 I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs, I,
                 S.Parent, static_cast<unsigned long long>(S.Op));
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", F);
  return std::fclose(F) == 0;
}
