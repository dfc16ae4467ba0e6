//===- perfbench/serve_mixed.cpp - Open-loop serving mix -------*- C++ -*-===//
//
// An open loop: one generator thread issues Tensor::evaluateAsync at a fixed
// rate across 8 cached small GEMMs (64 x 64, Cannon on a 2 x 2 grid); each
// request is timed from when it was due. Beside it a cold-compile stream
// calls Tensor::compile at a fixed rate on fresh 4x4, 8x8 and 16x16-grid
// schedules; over a run these exceed the PlanCache capacity of 64, so
// inserts and evictions run beside the hits. Lowering, compile, the cache,
// admission and the API lock do the work; the leaf kernels almost none.
// This workload contains the cold-compile stall: a compile holds the
// process-wide API lock, and every hot request due meanwhile waits.
//
//===----------------------------------------------------------------------===//

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common.h"

using namespace distal;

namespace perfbench {

namespace {
constexpr int Hot = 8;
constexpr Coord HotN = 64, ColdN = 256;
constexpr int HotGrid = 2;
constexpr double HotRate = 1000;   ///< Hot requests per second.
/// Cold compiles per second. At this rate a compile holds the API lock
/// about a tenth of the time, so the stall sets the p99 while the median
/// request runs hot; at twice the rate a fifth of the requests missed the
/// 5 ms limit and a slower spell of the host pushed the stall into the
/// median.
constexpr double CompileRate = 4;
constexpr int ColdGrids[] = {4, 8, 16};
constexpr double LimitMs = 5;      ///< goodput latency limit.
constexpr int SetupRounds = 41;

struct Hots {
  std::vector<std::unique_ptr<GemmProblem>> G;
  std::vector<std::vector<double>> Ref;
};

/// One hot request as the collector sees it.
struct Pending {
  int64_t I = 0;
  double Due = 0, Issue = 0, FrontEnd = 0;
  ExecFuture F;
};

/// Results of one open-loop phase.
struct Phase {
  std::vector<double> LatMs;  ///< Due-time latency of successful requests.
  std::vector<double> LagMs;  ///< Generator lateness.
  double SpanS = 0; ///< First request due to last request done.
  std::vector<double> CompileMs;
  int64_t Attempted = 0, Failed = 0, Good = 0;
  int64_t CompileFailed = 0;
  std::vector<Mismatch> Checks; ///< Hot results checked by the generator.
  SpanLog Spans;
};

/// Runs the hot generator, the completion collector, and the compile
/// stream for \p Seconds. With \p Traced, records spans.
Phase runPhase(Hots &H, uint64_t Seed, double Seconds, bool Traced) {
  Phase P;
  double T0 = nowS() + 0.01, End = T0 + Seconds;
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Pending> Queue;
  bool Done = false;

  std::thread Collector([&] {
    for (;;) {
      Pending Pd;
      {
        std::unique_lock<std::mutex> L(Mu);
        Cv.wait(L, [&] { return Done || !Queue.empty(); });
        if (Queue.empty())
          return;
        Pd = std::move(Queue.front());
        Queue.pop_front();
      }
      bool Ok = Pd.F.valid();
      if (Ok) {
        // waitFor never runs the request itself, so this thread adds no
        // execution capacity.
        while (!Pd.F.waitFor(std::chrono::microseconds(200)))
          ;
        Ok = Pd.F.wait().ok();
      }
      double DoneT = nowS();
      double Lat = (DoneT - Pd.Due) * 1e3;
      P.SpanS = DoneT - T0;
      ++P.Attempted;
      if (!Ok)
        ++P.Failed;
      else {
        P.LatMs.push_back(Lat);
        P.Good += Lat <= LimitMs;
      }
      if (Traced) {
        int Root = P.Spans.add("request", Pd.I, -1, Pd.Due, DoneT);
        P.Spans.add("loadgen.lag", Pd.I, Root, Pd.Due, Pd.Issue);
        P.Spans.add("api.front", Pd.I, Root, Pd.Issue, Pd.FrontEnd);
        P.Spans.add("runtime.async", Pd.I, Root, Pd.FrontEnd, DoneT);
      }
    }
  });

  SpanLog CompileSpans;
  std::thread Compiler([&] {
    OpenLoop L{T0, 1.0 / CompileRate};
    runOpenLoop(L, End, [&](int64_t I, double) {
      int Grid = ColdGrids[I % 3];
      auto G = makeGemm("cold" + std::to_string(I), ColdN, Grid, Seed, 500);
      double C0 = nowS();
      bool Ok = G->A->tryCompile(G->M).ok();
      double C1 = nowS();
      if (Traced)
        CompileSpans.add("compile", I, -1, C0, C1);
      P.CompileMs.push_back((C1 - C0) * 1e3);
      P.CompileFailed += Ok ? 0 : 1;
    });
  });

  std::vector<ExecFuture> Last(Hot);
  OpenLoop L{T0, 1.0 / HotRate};
  std::vector<double> LagS = runOpenLoop(L, End, [&](int64_t I, double Due) {
    int T = static_cast<int>(I % Hot);
    const GemmProblem &G = *H.G[T];
    // The previous request on this tensor finished: nothing is writing its
    // output, so check it against the reference.
    if (Last[T].valid() && Last[T].done() && Last[T].wait().ok())
      P.Checks.push_back(G.check(H.Ref[T]));
    Pending Pd;
    Pd.I = I;
    Pd.Due = Due;
    Pd.Issue = nowS();
    try {
      Pd.F = G.A->evaluateAsync(G.M);
    } catch (const std::exception &) {
      Pd.F = ExecFuture(); // Counted as failed by the collector.
    }
    Pd.FrontEnd = nowS();
    Last[T] = Pd.F;
    {
      std::lock_guard<std::mutex> Lk(Mu);
      Queue.push_back(std::move(Pd));
    }
    Cv.notify_one();
  });
  for (double S : LagS)
    P.LagMs.push_back(S * 1e3);
  for (int T = 0; T < Hot; ++T)
    Last[T] = ExecFuture();
  Compiler.join();
  {
    std::lock_guard<std::mutex> Lk(Mu);
    Done = true;
  }
  Cv.notify_one();
  Collector.join();
  P.Spans.merge(CompileSpans);
  return P;
}

void absorb(const Phase &P, Outcome &O) {
  O.Attempted += P.Attempted + static_cast<int64_t>(P.CompileMs.size());
  O.Failed += P.Failed + P.CompileFailed;
  for (const Mismatch &M : P.Checks)
    O.check("hot request", M);
}
} // namespace

Outcome runServeMixed(const Config &C) {
  Outcome O;
  Hots H;
  auto SetupRound = [&](int Round) -> double {
    H.G.clear();
    for (int T = 0; T < Hot; ++T) {
      H.G.push_back(makeGemm("hot" + std::to_string(Round) + "_" +
                                 std::to_string(T),
                             HotN, HotGrid, C.Seed, 100 + 2 * T));
      O.attempt(H.G.back()->A->tryEvaluate(H.G.back()->M).ok());
    }
    double T0 = nowS();
    if (H.Ref.empty())
      for (int T = 0; T < Hot; ++T)
        H.Ref.push_back(H.G[T]->reference());
    double Excluded = nowS() - T0;
    for (int T = 0; T < Hot; ++T)
      O.check("setup", H.G[T]->check(H.Ref[T]));
    return Excluded;
  };
  // Half the set-up rounds run before the open loop and half after it, so
  // setup_s samples the host at both ends of the run.
  std::vector<double> SetupS =
      setupRounds(0, C.Trace ? 1 : SetupRounds / 2 + 1, SetupRound);
  O.R.note("shape", "open loop: 1000 hot evaluateAsync/s over 8 cached "
                    "64x64 Cannon GEMMs (2x2 grid), due-time latency, limit "
                    "5 ms; 4 cold compiles/s of fresh n=256 Cannon schedules "
                    "on 4x4, 8x8, 16x16 grids");

  if (C.Trace) {
    Phase U = runPhase(H, C.Seed, C.Seconds / 2, false);
    PlanCache::Stats Before = PlanCache::global().stats();
    Phase T = runPhase(H, C.Seed, C.Seconds / 2, true);
    reportHitFrac(Before, O.R);
    absorb(U, O);
    absorb(T, O);
    reportLayerTimes(T.Spans, 0.99, O.R);
    double Pu = median(U.LatMs), Pt = median(T.LatMs);
    O.R.metric("trace.overhead_frac", Pu > 0 ? Pt / Pu - 1 : 0, "frac");
    O.R.metric("loadgen.lag_p99_ms", percentile(T.LagMs, 0.99, 0).Value,
               "ms");
    O.R.note("loadgen", "open loop; lag = how late the generator issued "
                        "each request (it blocks inside evaluateAsync while "
                        "a compile holds the API lock)");
    writeSpans(C, T.Spans, O.R);
    // Compile side on one fresh schedule per cold grid; execute side on a
    // hot GEMM.
    std::vector<std::unique_ptr<GemmProblem>> Cold;
    std::vector<Stmt> ColdStmts;
    for (int Grid : ColdGrids) {
      Cold.push_back(makeGemm("probe" + std::to_string(Grid), ColdN, Grid,
                              C.Seed, 500));
      ColdStmts.push_back(Cold.back()->stmt());
    }
    std::vector<Stmt> HotStmts = {H.G[0]->stmt()};
    probeLayers(C, {ColdStmts, HotStmts, planTarget(HotStmts)}, O);
    probeProgramLayer(C.Seed, O.R);
    return O;
  }

  Phase P = runPhase(H, C.Seed, C.Seconds, false);
  absorb(P, O);
  O.R.note("compiles", std::to_string(P.CompileMs.size()) + " attempted, " +
                           std::to_string(P.CompileFailed) + " failed");
  notePercentile(O.R, "loadgen lag p99", P.LagMs, 0.99);
  int Done = static_cast<int>(SetupS.size());
  for (double S : setupRounds(Done, SetupRounds - Done, SetupRound))
    SetupS.push_back(S);
  EndToEnd E;
  E.SetupS = reportSetup(SetupS, O.R);
  E.LatMs = P.LatMs;
  E.TailQ = 0.99;
  E.OpsPerS = static_cast<double>(P.LatMs.size()) / P.SpanS;
  E.FlopsPerOp = 2.0 * HotN * HotN * HotN;
  E.GoodputRps = static_cast<double>(P.Good) / P.SpanS;
  E.CompileP50Ms = median(P.CompileMs);
  reportEndToEnd(E, O);
  return O;
}

} // namespace perfbench
