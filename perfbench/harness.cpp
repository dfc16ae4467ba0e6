//===- perfbench/harness.cpp ----------------------------------*- C++ -*-===//

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point ProcessStart =
    std::chrono::steady_clock::now();

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
} // namespace

double nowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessStart)
      .count();
}

void sleepUntilS(double T) {
  double Now = nowS();
  if (T > Now)
    std::this_thread::sleep_until(
        ProcessStart + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(T)));
}

Percentile percentile(std::vector<double> V, double Q, int64_t MinBeyond) {
  Percentile P;
  P.Count = static_cast<int64_t>(V.size());
  if (V.empty())
    return P;
  std::sort(V.begin(), V.end());
  int64_t Rank = static_cast<int64_t>(std::ceil(Q * static_cast<double>(
                                                        P.Count)));
  int64_t Idx = std::clamp<int64_t>(Rank - 1, 0, P.Count - 1);
  P.Value = V[Idx];
  P.Beyond = P.Count - 1 - Idx;
  P.Reportable = P.Beyond >= MinBeyond;
  return P;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

int SpanLog::begin(const char *Name, int64_t Req, int Parent) {
  double T = nowS();
  return add(Name, Req, Parent, T, T);
}

void SpanLog::end(int Id) { S[Id].T1 = nowS(); }

int SpanLog::add(const char *Name, int64_t Req, int Parent, double T0,
                 double T1) {
  S.push_back(Span{Name, Req, Parent, T0, T1});
  return static_cast<int>(S.size()) - 1;
}

void SpanLog::merge(const SpanLog &O) {
  int Base = static_cast<int>(S.size());
  for (Span Sp : O.S) {
    if (Sp.Parent >= 0)
      Sp.Parent += Base;
    S.push_back(Sp);
  }
}

bool SpanLog::writeTsv(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "id\tparent\treq\tname\tt0_s\tt1_s\n";
  char Buf[256];
  for (size_t I = 0; I < S.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%zu\t%d\t%lld\t%s\t%.9f\t%.9f\n", I,
                  S[I].Parent, static_cast<long long>(S[I].Req), S[I].Name,
                  S[I].T0, S[I].T1);
    Out << Buf;
  }
  return static_cast<bool>(Out);
}

std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &Sp : Spans)
    if (Sp.Parent >= 0)
      Kids[Sp.Parent].push_back({Sp.T0, Sp.T1});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Lo = Spans[I].T0, Hi = Spans[I].T1;
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    // Length of the union of the children's intervals clipped to [Lo, Hi].
    double Covered = 0, CurLo = 0, CurHi = -1;
    bool Open = false;
    for (auto [A, B] : K) {
      A = std::max(A, Lo);
      B = std::min(B, Hi);
      if (B <= A)
        continue;
      if (Open && A <= CurHi) {
        CurHi = std::max(CurHi, B);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = A;
      CurHi = B;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[I] = std::max(0.0, (Hi - Lo) - Covered);
  }
  return Self;
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

double seededValue(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  uint64_t H = splitmix64(splitmix64(Seed * 0x100000001b3ull + Stream) ^ Index);
  return static_cast<double>(H >> 11) * 0x1.0p-53 - 0.5;
}

double sumTolerance(double Terms, double MaxTerm) {
  return 1e-9 * std::max(1.0, Terms) * std::max(MaxTerm, 1e-3);
}

Mismatch compareValues(const double *Got, const double *Want, int64_t N,
                       double AbsTol) {
  Mismatch M;
  for (int64_t I = 0; I < N; ++I) {
    double D = std::fabs(Got[I] - Want[I]);
    if (!(D <= AbsTol)) { // NaN-safe.
      if (M.Count++ == 0) {
        M.First = I;
        M.Got = Got[I];
        M.Want = Want[I];
      }
    }
  }
  return M;
}

void mergeMismatch(Mismatch &M, const Mismatch &O, int64_t Base) {
  if (O.Count > 0 && M.Count == 0) {
    M.First = Base + O.First;
    M.Got = O.Got;
    M.Want = O.Want;
  }
  M.Count += O.Count;
}

HostInfo hostInfo() {
  HostInfo H;
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  H.NProc = N > 0 ? static_cast<int>(N) : 1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  long L3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (L3 > 0)
    H.LlcBytes = L3;
#endif
  if (H.LlcBytes == 0) {
    std::ifstream In("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string S;
    if (In >> S && !S.empty()) {
      int64_t V = std::atoll(S.c_str());
      char Unit = S.back();
      H.LlcBytes = Unit == 'K' ? V << 10 : Unit == 'M' ? V << 20 : V;
    }
  }
  double Load[1] = {0};
  if (getloadavg(Load, 1) == 1)
    H.LoadAvg1 = Load[0];
#ifdef PERFBENCH_BUILD_TYPE
  H.BuildType = PERFBENCH_BUILD_TYPE;
#endif
#ifdef PERFBENCH_MARCH
  H.March = PERFBENCH_MARCH;
#endif
  return H;
}

std::string armedEnvGuard() {
  for (const char *Var : {"DISTAL_FAULT_RATE", "DISTAL_MEM_BUDGET"}) {
    const char *V = std::getenv(Var);
    if (V && *V)
      return Var;
  }
  return "";
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  M.push_back({Name, {Value, Unit}});
}

void Report::note(const std::string &Key, const std::string &Value) {
  Notes.push_back({Key, Value});
}

void Report::note(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  note(Key, Buf);
}

void Report::print(bool Correct, int64_t Attempted, int64_t Failed) const {
  for (const auto &[K, V] : Notes)
    std::printf("# %s: %s\n", K.c_str(), V.c_str());
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I) {
    if (I)
      Line += ", ";
    Line += "\"" + M[I].first + "\": {\"value\": " +
            jsonNumber(M[I].second.first) + ", \"unit\": \"" +
            M[I].second.second + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

} // namespace perfbench
