//===- perfbench/probes.cpp - The traced run's layer probes ---*- C++ -*-===//
//
// Everything --trace 1 measures besides the traced requests themselves:
// compile-side and execute-side probes on the workload's own artifacts,
// region copies on its tile rectangles, the fixed-shape kernel and pool
// probes, the cost model, and the closed-loop traced/untraced pair.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>

#include "blas/LocalKernels.h"
#include "common.h"
#include "runtime/Simulator.h"
#include "support/ExecContext.h"
#include "support/ThreadPool.h"

using namespace distal;

namespace perfbench {

namespace {

/// The cost model's prediction for \p T on \p M under \p HM, in ms.
double predictMs(const Trace &T, const Machine &M, const HostModel &HM) {
  // Every abstract processor is one host core: per-processor peak is the
  // single-thread tile GEMM rate, per-processor bandwidth the single-thread
  // region copy rate, and processors exchange data through shared memory
  // at that same copy rate.
  MachineSpec Spec;
  Spec.Name = "host";
  Spec.PeakFlopsPerProc = HM.GemmGflops * 1e9;
  Spec.GemmEfficiency = 1.0;
  Spec.MemBandwidthPerProc = HM.GatherGbps * 1e9;
  Spec.IntraNodeBandwidth = Spec.InterNodeBandwidth = Spec.NodeNicBandwidth =
      HM.GatherGbps * 1e9;
  Spec.IntraNodeAlpha = Spec.InterNodeAlpha = 1e-6;
  Spec.OverlapFactor = 1.0;
  return simulate(T, M, Spec).Seconds * 1e3;
}

} // namespace

double probeRegions(const std::vector<Stmt> &Stmts, Report &R) {
  // Gathers: every distinct input rectangle the compiled tasks fetch (up to
  // 32 per statement). Writebacks: every task's output rectangle, merged
  // into a scratch region shaped like the output so the workload's data
  // stays intact.
  double GatherBytes = 0, GatherS = 0, WbBytes = 0, WbS = 0;
  Instance I;
  for (const Stmt &S : Stmts) {
    std::shared_ptr<CompiledPlan> CP = S.Out->compile(S.M);
    std::map<TensorVar, Region *> Regions = S.regions();
    std::set<std::pair<std::string, std::string>> Seen;
    std::vector<std::pair<const Region *, Rect>> Gathers;
    std::vector<Rect> Outs;
    for (const CompiledTask &T : CP->compiledTasks()) {
      auto AddGather = [&](const CompiledGather &G) {
        if (G.IsOutput || Gathers.size() >= 32)
          return;
        if (Seen.insert({G.Tensor.name(), G.R.str()}).second)
          Gathers.push_back({Regions.at(G.Tensor), G.R});
      };
      for (const CompiledGather &G : T.LaunchGathers)
        AddGather(G);
      for (const auto &Step : T.StepGathers)
        for (const CompiledGather &G : Step)
          AddGather(G);
      if (Outs.size() < 32)
        Outs.push_back(T.OutRect);
    }
    for (const auto &[Reg, Rc] : Gathers) {
      I.reset(Rc);
      Reg->gatherInto(I); // Touch the buffer once outside the timing.
      double Ms = timeMedianMs([&] { Reg->gatherInto(I); }, 3, 0.05);
      GatherBytes += static_cast<double>(Rc.volume()) * 8;
      GatherS += Ms / 1e3;
    }
    Region Scratch(S.Out->var(), S.Out->format(), S.M);
    for (const Rect &Rc : Outs) {
      I.reset(Rc);
      Scratch.gatherInto(I);
      double Ms = timeMedianMs([&] { Scratch.writeBack(I); }, 3, 0.05) +
                  timeMedianMs([&] { Scratch.reduceBack(I); }, 3, 0.05);
      WbBytes += 2.0 * static_cast<double>(Rc.volume()) * 8;
      WbS += Ms / 1e3;
    }
  }
  double GatherGbps = GatherS > 0 ? GatherBytes / GatherS / 1e9 : 0;
  R.metric("runtime.region.gather_gbps", GatherGbps, "GB/s");
  R.metric("runtime.region.writeback_gbps", WbS > 0 ? WbBytes / WbS / 1e9 : 0,
           "GB/s");
  return GatherGbps;
}

void probeCompile(const std::vector<Stmt> &Stmts, double BudgetS,
                  Report &R) {
  R.metric("lower.plan_ms", timeMedianMs([&] {
             for (const Stmt &S : Stmts)
               (void)S.Out->lower(S.M);
           }, 3, BudgetS / 3),
           "ms");
  std::vector<Plan> Plans;
  for (const Stmt &S : Stmts)
    Plans.push_back(S.Out->lower(S.M));
  R.metric("runtime.compile_ms", timeMedianMs([&] {
             for (const Plan &P : Plans)
               CompiledPlan CP(P);
           }, 3, BudgetS / 3),
           "ms");
  for (const Stmt &S : Stmts) // Warm the compile memo and the cache.
    (void)S.Out->compile(S.M);
  R.metric("runtime.plan_cache.lookup_us", 1e3 * timeMedianMs([&] {
             for (const Stmt &S : Stmts)
               (void)S.Out->compile(S.M);
           }, 20, BudgetS / 3),
           "us");
}

ExecTarget planTarget(const std::vector<Stmt> &Stmts) {
  auto CPs = std::make_shared<std::vector<std::shared_ptr<CompiledPlan>>>();
  auto Maps = std::make_shared<std::vector<std::map<TensorVar, Region *>>>();
  for (const Stmt &S : Stmts) {
    CPs->push_back(S.Out->compile(S.M));
    Maps->push_back(S.regions());
  }
  ExecTarget T;
  T.Opts = Stmts.front().Out->execOptions();
  T.Execute = [CPs, Maps](const ExecOptions &O) {
    for (size_t I = 0; I < CPs->size(); ++I)
      (*CPs)[I]->execute((*Maps)[I], O);
  };
  T.SubmitWait = [CPs, Maps](const ExecOptions &O) {
    bool Ok = true;
    for (size_t I = 0; I < CPs->size(); ++I)
      Ok &= (*CPs)[I]
                ->submit((*Maps)[I], O, AdmissionQueue::Dispatch::Deferred)
                .wait()
                .ok();
    return Ok;
  };
  T.Arenas = [CPs] {
    CompiledPlan::ArenaStats A;
    for (const auto &CP : *CPs) {
      CompiledPlan::ArenaStats S = CP->arenaStats();
      A.Created += S.Created;
      A.Reused += S.Reused;
    }
    return A;
  };
  for (size_t I = 0; I < CPs->size(); ++I) {
    CompiledPlan::DataMovementStats D = (*CPs)[I]->dataMovementStats();
    T.Movement.GatheredBytes += D.GatheredBytes;
    T.Movement.ElidedBytes += D.ElidedBytes;
    T.Movement.WritebackBytes += D.WritebackBytes;
    T.Movement.WritebackElidedBytes += D.WritebackElidedBytes;
    T.Traces.push_back({&(*CPs)[I]->trace(), Stmts[I].M});
  }
  T.Keep = CPs;
  return T;
}

double probeExecute(const ExecTarget &T, const HostModel &HM, double BudgetS,
                    Report &R) {
  ExecOptions O = T.Opts;
  O.Mode = TraceMode::Off;
  ExecOptions O1 = O;
  O1.NumThreads = 1;
  T.Execute(O); // Warm arenas for both thread settings.
  T.Execute(O1);
  // Execute and submit+wait interleaved, so drift hits both alike.
  std::vector<double> ExecMs, SubmitMs;
  double Start = nowS();
  while (ExecMs.size() < 3 || nowS() - Start < BudgetS * 0.6) {
    double T0 = nowS();
    T.Execute(O);
    double T1 = nowS();
    T.SubmitWait(O);
    double T2 = nowS();
    ExecMs.push_back((T1 - T0) * 1e3);
    SubmitMs.push_back((T2 - T1) * 1e3);
    if (ExecMs.size() >= 2000)
      break;
  }
  double Exec = median(ExecMs);
  double Exec1 = timeMedianMs([&] { T.Execute(O1); }, 3, BudgetS * 0.2);
  int Threads = O.NumThreads > 0 ? O.NumThreads : distal::defaultExecutorThreads();
  // Parallel speed-up on nproc / 2 threads (at least 2), whatever thread
  // count the workload itself runs with.
  int Par = std::max(2, hostInfo().NProc / 2);
  ExecContext ParCtx(Par);
  ExecOptions OP = O;
  OP.Ctx = &ParCtx;
  T.Execute(OP);
  double ExecPar = timeMedianMs([&] { T.Execute(OP); }, 3, BudgetS * 0.2);
  R.metric("runtime.execute_ms", Exec, "ms");
  R.metric("runtime.execute_1t_ms", Exec1, "ms");
  R.metric("runtime.parallel_eff",
           ExecPar > 0 ? Exec1 / (ExecPar * Par) : 0, "frac");
  R.metric("runtime.admission.overhead_us",
           (median(SubmitMs) - Exec) * 1e3, "us");
  CompiledPlan::ArenaStats A = T.Arenas();
  R.metric("runtime.arena_reuse_frac",
           A.Created + A.Reused > 0
               ? static_cast<double>(A.Reused) / (A.Created + A.Reused)
               : 0,
           "frac");
  R.metric("runtime.bytes_gathered",
           static_cast<double>(T.Movement.GatheredBytes), "bytes");
  R.metric("runtime.bytes_elided",
           static_cast<double>(T.Movement.ElidedBytes +
                               T.Movement.WritebackElidedBytes),
           "bytes");
  R.metric("runtime.bytes_written_back",
           static_cast<double>(T.Movement.WritebackBytes), "bytes");
  R.note("data movement", "computed per request from the compiled plans "
                          "(DataMovementStats), not measured");
  double Pred = 0;
  for (const auto &[Tr, M] : T.Traces)
    Pred += predictMs(*Tr, M, HM);
  R.metric("sim.predicted_ms", Pred, "ms");
  R.metric("sim.measured_over_predicted", Pred > 0 ? Exec / Pred : 0, "ratio");
  R.note("thread settings", "execute: " + std::to_string(Threads) +
                                " threads; execute_1t: 1 thread; "
                                "parallel_eff: " +
                                std::to_string(Par) + " threads");
  return Exec;
}

void reportAdmission(Report &R) {
  AdmissionQueue::Stats S = PlanCache::global().admissionStats();
  PlanCache::Stats C = PlanCache::global().stats();
  R.metric("runtime.admission.rejected", static_cast<double>(S.Rejected),
           "count");
  R.metric("runtime.admission.shed", static_cast<double>(S.Shed), "count");
  R.metric("runtime.admission.cancelled", static_cast<double>(S.Cancelled),
           "count");
  R.note("admission (cached artifacts)",
         "admitted=" + std::to_string(S.Admitted) +
             " coalesced=" + std::to_string(S.Coalesced) +
             " breaker_open=" + std::to_string(S.BreakerOpen));
  R.note("plan cache", "hits=" + std::to_string(C.Hits) +
                           " misses=" + std::to_string(C.Misses) +
                           " program_hits=" + std::to_string(C.ProgramHits) +
                           " program_misses=" +
                           std::to_string(C.ProgramMisses));
}

void reportHitFrac(const PlanCache::Stats &Before, Report &R) {
  PlanCache::Stats After = PlanCache::global().stats();
  double H = static_cast<double>(After.Hits - Before.Hits);
  double M = static_cast<double>(After.Misses - Before.Misses);
  R.metric("runtime.plan_cache.hit_frac", H + M > 0 ? H / (H + M) : 0,
           "frac");
}

KernelProbe probeKernels(uint64_t Seed, Report &R) {
  KernelProbe K;
  LeafParallelism Seq; // One abstract processor = one core: no fan-out.
  {
    // gemm_cannon's leaf: n = 1024 on a 2 x 2 grid, k divided in two.
    const int64_t T = 512;
    std::vector<double> A(T * T), B(T * T), C(T * T, 0.0);
    for (int64_t I = 0; I < T * T; ++I) {
      A[I] = seededValue(Seed, 901, I);
      B[I] = seededValue(Seed, 902, I);
    }
    K.TileMs = timeMedianMs(
        [&] {
          blas::gemm(Seq, C.data(), A.data(), B.data(), T, T, T, T, T, T);
        },
        3, 0.3);
    K.GemmGflops = 2.0 * T * T * T / (K.TileMs / 1e3) / 1e9;
    R.metric("blas.gemm_gflops", K.GemmGflops, "GFLOP/s");
  }
  {
    // higher_order's leaf strides on a 32 MiB buffer (streams past L2):
    // unit stride along k rows against a cached k-vector (TTV, innerprod),
    // unit-stride axpy rows, and a stride-L column walk (the j direction).
    const int64_t L = 256, Rows = (int64_t(4) << 20) / L;
    std::vector<double> X(L * Rows), Y(L * Rows, 0.0), V(L);
    for (int64_t I = 0; I < L * Rows; ++I)
      X[I] = seededValue(Seed, 903, I);
    for (int64_t I = 0; I < L; ++I)
      V[I] = seededValue(Seed, 904, I);
    volatile double Sink = 0;
    double Bytes = static_cast<double>(L * Rows) * 8;
    double DotMs = timeMedianMs(
        [&] {
          double S = 0;
          for (int64_t Rw = 0; Rw < Rows; ++Rw)
            S += blas::dotStrided(Seq, &X[Rw * L], 1, V.data(), 1, L);
          Sink = Sink + S;
        },
        3, 0.15);
    double AxpyMs = timeMedianMs(
        [&] {
          for (int64_t Rw = 0; Rw < Rows; ++Rw)
            blas::axpyStrided(Seq, &Y[Rw * L], 1, &X[Rw * L], 1, 0.5, L);
        },
        3, 0.15);
    double SumMs = timeMedianMs(
        [&] {
          double S = 0;
          for (int64_t Col = 0; Col < L; ++Col)
            S += blas::sumStrided(Seq, &X[Col], L, Rows);
          Sink = Sink + S;
        },
        3, 0.15);
    // axpy reads X and Y and writes Y.
    R.metric("blas.dot_strided_gbps", Bytes / (DotMs / 1e3) / 1e9, "GB/s");
    R.metric("blas.axpy_strided_gbps", 3 * Bytes / (AxpyMs / 1e3) / 1e9,
             "GB/s");
    R.metric("blas.sum_strided_gbps", Bytes / (SumMs / 1e3) / 1e9, "GB/s");
  }
  {
    // program_chain: each statement runs 4 tasks (1-d grid of 4).
    std::atomic<int64_t> Hits{0};
    ThreadPool &Pool = ThreadPool::global();
    double Ms = timeMedianMs(
        [&] {
          Pool.parallelFor(4, [&](int64_t) {
            Hits.fetch_add(1, std::memory_order_relaxed);
          });
        },
        200, 0.1);
    R.metric("support.pool.dispatch_us", Ms * 1e3, "us");
  }
  return K;
}

LayerProbe probeLayers(const Config &C, const LayerInputs &In, Outcome &O) {
  Report &R = O.R;
  reportAdmission(R);
  LayerProbe P;
  P.Kernels = probeKernels(C.Seed, R);
  HostModel HM;
  HM.GemmGflops = P.Kernels.GemmGflops;
  HM.GatherGbps = probeRegions(In.Tiles, R);
  probeCompile(In.Compile, 0.6, R);
  P.ExecMs = probeExecute(In.Exec, HM, 1.0, R);
  R.note("host model", "PeakFlopsPerProc = blas.gemm_gflops, "
                       "MemBandwidthPerProc = runtime.region.gather_gbps");
  return P;
}

void writeSpans(const Config &C, const SpanLog &Spans, Report &R) {
  if (C.SpansOut.empty())
    return;
  R.note("spans", Spans.writeTsv(C.SpansOut)
                      ? C.SpansOut + " (" +
                            std::to_string(Spans.spans().size()) + " spans)"
                      : "could not write " + C.SpansOut);
}

void tracedClosedLoops(
    const Config &C, const std::function<bool(int64_t)> &Untraced,
    const std::function<bool(int64_t, SpanLog &, int)> &Traced,
    const std::function<void(int64_t)> &After, Outcome &O) {
  Report &R = O.R;
  double Half = C.Seconds / 2;
  LoopStats U = closedLoop(
      Half, [&](int64_t Req, int) { return Untraced(Req); }, After, nullptr);
  PlanCache::Stats Before = PlanCache::global().stats();
  SpanLog Spans;
  LoopStats T = closedLoop(
      Half, [&](int64_t Req, int Root) { return Traced(Req, Spans, Root); },
      After, &Spans);
  reportHitFrac(Before, R);
  countLoop(U, O);
  countLoop(T, O);
  reportLayerTimes(Spans, 0.9, R);
  double Pu = median(U.LatMs), Pt = median(T.LatMs);
  R.metric("trace.overhead_frac", Pu > 0 ? Pt / Pu - 1 : 0, "frac");
  R.metric("loadgen.lag_p99_ms", percentile(T.GapMs, 0.99, 0).Value, "ms");
  R.note("loadgen", "closed loop, 1 client; lag = client time between "
                    "requests");
  writeSpans(C, Spans, R);
}

} // namespace perfbench
