//===- perfbench/gemm_cannon.cpp - The paper's headline GEMM ---*- C++ -*-===//
//
// One closed-loop client evaluates a Cannon GEMM (Fig. 9: distribute,
// divide, rotate, communicate; GeMM leaf) of side 1024 on a 2 x 2 grid
// through Tensor::evaluate. Compute-bound: blas::gemm and the execute walk
// do the work; compile and admission do almost none.
//
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "common.h"

using namespace distal;

namespace perfbench {

namespace {
constexpr Coord N = 1024;
constexpr int Grid = 2;
/// Set-up rounds before the loop; during it, one more every SetupEvery s.
constexpr int SetupRounds = 3;
constexpr double SetupEvery = 1.0;
constexpr int SampledElems = 64;
constexpr double LimitMs = 250; ///< goodput latency limit.

/// Cold Tensor::compile of a fresh copy of the workload's schedule.
ColdCompileFn coldCompile(uint64_t Seed) {
  return [Seed](int Rep) -> std::function<void()> {
    std::shared_ptr<GemmProblem> G =
        makeGemm("cc" + std::to_string(Rep), N, Grid, Seed, 0);
    return [G] { (void)G->A->compile(G->M); };
  };
}

bool evaluate(const GemmProblem &G) {
  return G.A->tryEvaluate(G.M).ok();
}
} // namespace

Outcome runGemmCannon(const Config &C) {
  Outcome O;
  std::unique_ptr<GemmProblem> G;
  auto Check = [&](const char *What, const Mismatch &M) { O.check(What, M); };
  int Rounds = C.Trace ? 1 : SetupRounds;
  std::vector<double> SetupS = setupRounds(
      0, Rounds,
      [&](int Round) -> double {
        G.reset();
        G = makeGemm("g" + std::to_string(Round), N, Grid, C.Seed, 1);
        O.attempt(evaluate(*G));
        Check("setup sampled", G->checkSampled(C.Seed + Round, SampledElems));
        return 0.0;
      });
  Check("setup full reference", G->checkFull());
  O.R.note("shape", "A = B * C, n=1024, Cannon on a 2x2 grid, GeMM leaf, "
                    "closed loop, 1 client");

  auto After = [&](int64_t Req) {
    Check("sampled request", G->checkSampled(C.Seed * 7919 + Req, SampledElems));
  };
  if (C.Trace) {
    Stmt S = G->stmt();
    tracedClosedLoops(
        C, [&](int64_t) { return evaluate(*G); },
        [&](int64_t Req, SpanLog &Spans, int Root) {
          return tracedEvaluate(S, Spans, Req, Root);
        },
        After, O);
    LayerInputs In{{S}, {S}, planTarget({S})};
    LayerProbe P = probeLayers(C, In, O);
    probeProgramLayer(C.Seed, O.R);
    // How much of the execute the leaf GEMMs explain: each of the 4 tasks
    // runs one 512^3 tile GEMM per rotation step, spread over the threads.
    int64_t Leaves = 0;
    for (const CompiledTask &T : G->A->compile(G->M)->compiledTasks())
      for (uint8_t Run : T.RunLeaf)
        Leaves += Run;
    int Threads = defaultExecutorThreads();
    double GemmMs = Leaves * P.Kernels.TileMs / Threads;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%lld leaf calls x %.3f ms tile gemm / %d threads = %.3f ms "
                  "= %.2f of runtime.execute_ms",
                  static_cast<long long>(Leaves), P.Kernels.TileMs, Threads,
                  GemmMs, P.ExecMs > 0 ? GemmMs / P.ExecMs : 0);
    O.R.note("gemm share of execute", Buf);
    return O;
  }

  // A set-up round inside the loop leaves the hot plan cached: its fresh
  // tensors miss the PlanCache, and its own entry is dropped afterwards
  // (untimed) so the rounds' buffers do not accumulate.
  auto Setup = [&](int Rep) {
    double T0 = nowS();
    std::unique_ptr<GemmProblem> S =
        makeGemm("s" + std::to_string(Rep), N, Grid, C.Seed, 1);
    bool Ok = evaluate(*S);
    Mismatch M = S->checkSampled(C.Seed + Rep, SampledElems);
    double Secs = nowS() - T0;
    O.attempt(Ok);
    Check("setup sampled", M);
    PlanCache::global().invalidate(S->A->planKey(S->M));
    return Secs;
  };
  runClosedLoop(
      C, [&] { return evaluate(*G); }, After, coldCompile(C.Seed), SetupS,
      Setup, SetupEvery, G->flops(), LimitMs, O);
  Check("final full reference", G->checkFull());
  return O;
}

} // namespace perfbench
