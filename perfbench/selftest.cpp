//===- perfbench/selftest.cpp - Tests of the benchmark's helpers -*- C++ -*-===//
//
// Run with `python3 perfbench/run.py --selftest` (or the built
// perfbench_selftest). Exits non-zero on the first failed check.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {
int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

void testPercentileRule() {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  Percentile P90 = percentile(V, 0.9);
  CHECK(P90.Reportable);
  CHECK(P90.Value == 90);
  CHECK(P90.Beyond == 10);
  V.pop_back(); // 99 samples: only 9 lie beyond the p90.
  CHECK(!percentile(V, 0.9).Reportable);
  std::vector<double> W(1000, 1.0);
  CHECK(percentile(W, 0.99).Reportable);
  W.pop_back();
  CHECK(!percentile(W, 0.99).Reportable);
  CHECK(percentile(W, 0.5).Reportable);
  CHECK(!percentile({}, 0.5).Reportable);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 2, 3}) == 2.5);
}

void testOpenLoopDueTime() {
  // Requests every 2 ms; request 5 stalls its sender for 30 ms. The
  // requests due during the stall go out late, and their latency must
  // include that wait: timed from when they were due, not when sent.
  const double Interval = 0.002, Stall = 0.030;
  std::vector<double> FromDue, FromIssue;
  OpenLoop L{nowS() + 0.005, Interval};
  std::vector<double> Lag =
      runOpenLoop(L, L.due(20), [&](int64_t I, double Due) {
        double Issue = nowS();
        sleepUntilS(Issue + (I == 5 ? Stall : 0.0002));
        FromDue.push_back(nowS() - Due);
        FromIssue.push_back(nowS() - Issue);
      });
  CHECK(Lag.size() == 20);
  CHECK(FromDue.size() == 20);
  if (FromDue.size() != 20 || Lag.size() != 20)
    return;
  CHECK(FromDue[5] >= Stall);
  // Request 6 was due 2 ms into the stall and waited behind it.
  CHECK(FromDue[6] >= Stall - Interval - 0.001);
  CHECK(Lag[6] >= Stall - Interval - 0.001);
  CHECK(FromIssue[6] < 0.010); // What an issue-time clock would have shown.
  // Well after the stall the generator has caught up again.
  CHECK(FromDue[19] < 0.010);
}

void testSpanSelfTime() {
  SpanLog Log;
  int Root = Log.add("request", 0, -1, 0.0, 10.0);
  Log.add("a", 0, Root, 1.0, 3.0);
  int B = Log.add("b", 0, Root, 2.0, 5.0); // Overlaps a: counted once.
  Log.add("c", 0, Root, 7.0, 8.0);
  Log.add("d", 0, Root, 9.0, 12.0);     // Clipped to the root's end.
  Log.add("b.child", 0, B, 2.5, 4.0);   // A grandchild: not the root's.
  std::vector<double> Self = selfTimes(Log.spans());
  CHECK(std::fabs(Self[Root] - 4.0) < 1e-12); // 10 - ([1,5] + [7,8] + [9,10])
  CHECK(std::fabs(Self[B] - 1.5) < 1e-12);
  CHECK(std::fabs(Self[3] - 1.0) < 1e-12);

  SpanLog Other;
  int R2 = Other.add("request", 1, -1, 0.0, 1.0);
  Other.add("x", 1, R2, 0.0, 1.0);
  Log.merge(Other);
  std::vector<double> Merged = selfTimes(Log.spans());
  CHECK(Merged.size() == 8);
  CHECK(Log.spans()[7].Parent == 6);
  CHECK(Merged[6] == 0.0);
}

void testReferenceCheckerCatchesCorruption() {
  // A 24x24x24 product by the naive loop, and the same product summed in
  // reverse k order: a different association that must still pass.
  const int N = 24;
  std::vector<double> A(N * N), B(N * N), Ref(N * N, 0.0), Got(N * N, 0.0);
  for (int I = 0; I < N * N; ++I) {
    A[I] = seededValue(7, 1, I);
    B[I] = seededValue(7, 2, I);
  }
  for (int I = 0; I < N; ++I)
    for (int K = 0; K < N; ++K)
      for (int J = 0; J < N; ++J)
        Ref[I * N + J] += A[I * N + K] * B[K * N + J];
  for (int I = 0; I < N; ++I)
    for (int K = N - 1; K >= 0; --K)
      for (int J = 0; J < N; ++J)
        Got[I * N + J] += A[I * N + K] * B[K * N + J];
  double Tol = sumTolerance(N, 0.25);
  CHECK(compareValues(Got.data(), Ref.data(), N * N, Tol).ok());

  Got[17 * N + 5] += 1e-4;
  Mismatch M = compareValues(Got.data(), Ref.data(), N * N, Tol);
  CHECK(M.Count == 1);
  CHECK(M.First == 17 * N + 5);

  Got[17 * N + 5] = NAN;
  CHECK(compareValues(Got.data(), Ref.data(), N * N, Tol).Count == 1);

  Mismatch All;
  mergeMismatch(All, Mismatch{}, 0);
  mergeMismatch(All, M, 1000);
  CHECK(All.Count == 1 && All.First == 1000 + 17 * N + 5);
}

void testSeededValues() {
  CHECK(seededValue(1, 2, 3) == seededValue(1, 2, 3));
  CHECK(seededValue(1, 2, 3) != seededValue(2, 2, 3));
  CHECK(seededValue(1, 2, 3) != seededValue(1, 3, 3));
  double Lo = 1, Hi = -1;
  for (int I = 0; I < 10000; ++I) {
    double V = seededValue(5, 0, I);
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  CHECK(Lo >= -0.5 && Hi < 0.5 && Hi - Lo > 0.99);
}
} // namespace

int main() {
  testPercentileRule();
  testOpenLoopDueTime();
  testSpanSelfTime();
  testReferenceCheckerCatchesCorruption();
  testSeededValues();
  if (Failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
