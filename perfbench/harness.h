//===- perfbench/harness.h - Engine-independent benchmark helpers -*- C++ -*-===//
//
// Timing, percentiles, spans, the open-loop generator, seeded input values,
// the reference comparison, host facts, and the result printer. Nothing here
// touches the engine, so the helpers are tested on their own
// (selftest.cpp).
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since this process's static initialisation.
double nowS();
/// Blocks until nowS() >= \p T (returns at once when already past).
void sleepUntilS(double T);

/// A percentile reported only when enough samples lie beyond it.
struct Percentile {
  bool Reportable = false; ///< At least MinBeyond samples above Value.
  double Value = 0;        ///< Nearest-rank percentile.
  int64_t Count = 0;       ///< Samples considered.
  int64_t Beyond = 0;      ///< Samples ranked strictly above Value.
};
/// Nearest-rank \p Q-quantile (0 < Q < 1) of \p V. Reportable only when at
/// least \p MinBeyond samples rank above it, so a p99 needs >= 1000 samples
/// and a p90 >= 100.
Percentile percentile(std::vector<double> V, double Q, int64_t MinBeyond = 10);
/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> V);

/// One timed interval at a layer boundary. Spans of one request share Req;
/// Parent indexes the span that caused this one (-1 for a root).
struct Span {
  const char *Name = "";
  int64_t Req = 0;
  int Parent = -1;
  double T0 = 0, T1 = 0;
};

/// In-memory span store. Not thread-safe: each recording thread owns one
/// log, and logs are merged after the threads join.
class SpanLog {
public:
  /// Opens a span now; close it with end().
  int begin(const char *Name, int64_t Req, int Parent = -1);
  void end(int Id);
  /// Records a span whose bounds were taken elsewhere.
  int add(const char *Name, int64_t Req, int Parent, double T0, double T1);
  const std::vector<Span> &spans() const { return S; }
  /// Appends \p O's spans, re-basing their parent indices.
  void merge(const SpanLog &O);
  /// Writes one tab-separated line per span (index, parent, request, name,
  /// start and end in seconds). Returns false when the file cannot be
  /// written.
  bool writeTsv(const std::string &Path) const;

private:
  std::vector<Span> S;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// Open-loop schedule: request I is due at T0 + I * Interval, whether or not
/// earlier requests have finished.
struct OpenLoop {
  double T0 = 0, Interval = 1;
  double due(int64_t I) const { return T0 + static_cast<double>(I) * Interval; }
};

/// Drives \p Send(I, Due) for every request due before \p EndS, sleeping
/// until each is due. A Send that blocks makes later requests go out late;
/// their latency must still be measured from Due, which is why Due is
/// passed along. Returns how late each request was issued (seconds).
template <class SendFn>
std::vector<double> runOpenLoop(const OpenLoop &L, double EndS, SendFn &&Send) {
  std::vector<double> Lag;
  for (int64_t I = 0;; ++I) {
    double Due = L.due(I);
    if (Due >= EndS)
      break;
    sleepUntilS(Due);
    Lag.push_back(nowS() - Due);
    Send(I, Due);
  }
  return Lag;
}

/// Deterministic input value in [-0.5, 0.5) for element \p Index of input
/// stream \p Stream under workload seed \p Seed.
double seededValue(uint64_t Seed, uint64_t Stream, uint64_t Index);
uint64_t splitmix64(uint64_t X);

/// Absolute tolerance for a sum of \p Terms products each at most
/// \p MaxTerm in magnitude: loose enough for any summation order, far
/// tighter than a corrupted element.
double sumTolerance(double Terms, double MaxTerm);

/// Elementwise comparison of an engine result with a reference.
struct Mismatch {
  int64_t Count = 0;
  int64_t First = -1;
  double Got = 0, Want = 0;
  bool ok() const { return Count == 0; }
};
Mismatch compareValues(const double *Got, const double *Want, int64_t N,
                       double AbsTol);
/// Merges \p O into \p M, offsetting O's first index by \p Base.
void mergeMismatch(Mismatch &M, const Mismatch &O, int64_t Base);

/// Facts about the host recorded with every run.
struct HostInfo {
  int NProc = 1;
  int64_t LlcBytes = 0;
  std::string BuildType, March;
  double LoadAvg1 = 0;
};
HostInfo hostInfo();
/// Name of an armed environment variable that changes the program being
/// measured (fault injection, memory budget), or "" when none is armed.
std::string armedEnvGuard();
/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Collects the run's metrics and prints the result line.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// A diagnostic line printed before the result (never parsed).
  void note(const std::string &Key, const std::string &Value);
  void note(const std::string &Key, double Value);
  /// Prints the notes, then the one-line JSON result as the last line.
  void print(bool Correct, int64_t Attempted, int64_t Failed) const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> M;
  std::vector<std::pair<std::string, std::string>> Notes;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
