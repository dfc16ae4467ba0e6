//===- perfbench/common.h - Shared workload machinery ----------*- C++ -*-===//
//
// What the four workloads share: the run configuration, the outcome they
// hand back, seeded tensor fills, the Cannon GEMM schedule, the closed-loop
// driver, and the per-layer probes. Everything calls the engine through its
// public API only (api/Tensor.h, api/Program.h, CompiledPlan,
// CompiledProgram, PlanCache, Region, blas, ThreadPool, Simulator).
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/Program.h"
#include "api/Tensor.h"
#include "harness.h"
#include "runtime/PlanCache.h"

namespace perfbench {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string SpansOut;
};

/// What a workload hands back to main.
struct Outcome {
  Report R;
  int64_t Attempted = 0;
  int64_t Failed = 0;     ///< Failed, refused, or mismatched operations.
  int64_t Mismatched = 0; ///< Checks whose output disagreed with the reference.
  /// Records one attempted operation.
  void attempt(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  /// Records one reference check as an operation; a mismatch fails it and
  /// is noted (the first few in full).
  void check(const std::string &What, const Mismatch &M);
};

/// Set-up rounds numbered \p First .. \p First + \p Rounds - 1: each builds
/// the workload from nothing and returns when its first result is checked,
/// handing back the seconds it spent on the harness's own reference values
/// (not counted). Round 0 is timed from process start; before every later
/// round the PlanCache is cleared, so each compiles cold, as a fresh process
/// would. Returns each round's seconds.
std::vector<double> setupRounds(int First, int Rounds,
                                const std::function<double(int)> &Round);
/// Notes the set-up rounds and returns their median: setup_s.
double reportSetup(const std::vector<double> &Times, Report &R);

/// Fills \p T with seededValue(Seed, Stream, row-major index).
void fillSeeded(distal::Tensor &T, uint64_t Seed, uint64_t Stream);

/// Dense format with distribution \p Spec.
distal::Format denseFormat(int Order, const char *Spec);

/// Defines A(i,j) = B(i,k) * C(k,j) on \p A with the paper's Fig. 9 Cannon
/// schedule on the square grid \p M: distribute (i,j) over the grid, divide
/// k into one chunk per grid column, rotate the chunk loop over both grid
/// coordinates, communicate B and C per rotated step, GeMM leaf.
void scheduleCannon(distal::Tensor &A, distal::Tensor &B, distal::Tensor &C,
                    const distal::Machine &M);

/// One statement of a request: the tensor whose computation is evaluated,
/// the tensors it reads, and the machine it runs on.
struct Stmt {
  distal::Tensor *Out = nullptr;
  std::vector<distal::Tensor *> Operands;
  distal::Machine M;
  /// Region map for direct CompiledPlan calls (valid after an evaluate).
  std::map<distal::TensorVar, distal::Region *> regions() const;
};

/// Reads element (i, j) of a 2-d tensor's region after an evaluate.
double at2(const distal::Tensor &T, distal::Coord I, distal::Coord J);

/// A Cannon GEMM A = B * C of side N on a Grid x Grid machine with seeded
/// inputs, and its reference: naive loops over the same seeded values.
struct GemmProblem {
  distal::Machine M;
  distal::Coord N = 0;
  uint64_t Seed = 0, Stream = 0; ///< B uses Stream, C uses Stream + 1.
  std::unique_ptr<distal::Tensor> A, B, C;
  Stmt stmt() const { return {A.get(), {B.get(), C.get()}, M}; }
  double flops() const { return 2.0 * N * N * N; }
  /// A by the naive triple loop over the seeded inputs (row-major).
  std::vector<double> reference() const;
  /// Every element of A against \p Ref.
  Mismatch check(const std::vector<double> &Ref) const;
  Mismatch checkFull() const { return check(reference()); }
  /// \p Count elements of A chosen by \p Salt against per-element dots.
  Mismatch checkSampled(uint64_t Salt, int Count) const;
  double b(distal::Coord I, distal::Coord K) const;
  double c(distal::Coord K, distal::Coord J) const;
};
/// Declares the tensors (named with \p Tag), fills the inputs, and defines
/// the Cannon schedule. Nothing is compiled or materialised yet.
std::unique_ptr<GemmProblem> makeGemm(const std::string &Tag, distal::Coord N,
                                      int Grid, uint64_t Seed,
                                      uint64_t Stream);

/// Latencies (ms) of a closed loop: one client, next request only after the
/// previous one completed.
struct LoopStats {
  std::vector<double> LatMs;
  std::vector<double> GapMs; ///< Client time between requests.
  std::vector<char> Ok;      ///< Per request: succeeded.
  int64_t Failed = 0;
};
/// Counts the loop's requests into \p O.
void countLoop(const LoopStats &L, Outcome &O);

/// Runs \p Request until \p Seconds elapse; \p Request returns false on a
/// failed request. \p After runs untimed after each request (sampled
/// checks). With \p Spans set, each request is a "request" root span and
/// \p Request receives its index so it can open child spans.
LoopStats closedLoop(double Seconds,
                     const std::function<bool(int64_t Req, int Root)> &Request,
                     const std::function<void(int64_t Req)> &After,
                     SpanLog *Spans);

/// Traced request over Tensor::evaluate's steps spelled out through public
/// calls, each in its own span: "api.front" is Tensor::compile (the memo
/// hit and PlanCache lookup) plus reading the region map, and
/// "runtime.submit_wait" is CompiledPlan::submit(..., Deferred).wait(), the
/// admission queue plus the execute walk.
bool tracedEvaluate(const Stmt &S, SpanLog &Spans, int64_t Req, int Root);

/// Self time per request by layer, from a span log: the "request" roots
/// (loadgen/harness), "api.*" spans, "runtime.*" spans, and "loadgen.*"
/// spans. Writes the medians and the tail attribution into \p R.
void reportLayerTimes(const SpanLog &Spans, double TailQ, Report &R);

/// A host performance model fitted from two layer probes.
struct HostModel {
  double GemmGflops = 0;
  double GatherGbps = 0;
};

/// The runtime side of one request, as direct calls on its compiled
/// artifacts: the plans of a Tensor workload or the linked program of
/// program_chain.
struct ExecTarget {
  /// Runs every artifact of one request with the given options.
  std::function<void(const distal::ExecOptions &)> Execute;
  /// The same through the submit path, waiting for the result.
  std::function<bool(const distal::ExecOptions &)> SubmitWait;
  std::function<distal::CompiledPlan::ArenaStats()> Arenas;
  distal::ExecOptions Opts; ///< The options evaluate uses.
  distal::CompiledPlan::DataMovementStats Movement; ///< Per request.
  std::vector<std::pair<const distal::Trace *, distal::Machine>> Traces;
  std::shared_ptr<void> Keep; ///< Keeps the artifacts alive.
};
/// The target over statements' cached plans (each evaluated once).
ExecTarget planTarget(const std::vector<Stmt> &Stmts);

/// lower.plan_ms, runtime.compile_ms and runtime.plan_cache.lookup_us over
/// the statements of one request.
void probeCompile(const std::vector<Stmt> &Stmts, double BudgetS, Report &R);

/// Execute-side probes: execute with evaluate's options and on 1 thread,
/// parallel efficiency, submit-path overhead, arena reuse, computed data
/// movement, and the cost model's prediction for the request. Returns the
/// execute time (ms) of one request.
double probeExecute(const ExecTarget &T, const HostModel &HM, double BudgetS,
                    Report &R);

/// Region gather/writeback bandwidth on the statements' tile rectangles.
/// Returns the gather rate in GB/s.
double probeRegions(const std::vector<Stmt> &Stmts, Report &R);

/// Admission counters summed over the cached artifacts.
void reportAdmission(Report &R);
/// PlanCache hit fraction since \p Before.
void reportHitFrac(const distal::PlanCache::Stats &Before, Report &R);

/// Fixed-shape layer probes measured the same way in every workload:
/// blas kernels on gemm_cannon's leaf tile and higher_order's strides,
/// and ThreadPool dispatch over program_chain's per-statement task count.
struct KernelProbe {
  double GemmGflops = 0; ///< Single-thread GEMM on the 512^3 leaf tile.
  double TileMs = 0;     ///< One such tile GEMM.
};
KernelProbe probeKernels(uint64_t Seed, Report &R);

/// What the traced run probes beyond its traced loop.
struct LayerInputs {
  std::vector<Stmt> Compile; ///< Statements whose lower/compile is timed.
  std::vector<Stmt> Tiles;   ///< Statements whose tile copies are timed.
  ExecTarget Exec;           ///< The runtime side of one request.
};
/// What probeLayers measured, for workload-specific checks.
struct LayerProbe {
  KernelProbe Kernels;
  double ExecMs = 0; ///< runtime.execute_ms.
};
/// Runs every probe above plus the admission counters.
LayerProbe probeLayers(const Config &C, const LayerInputs &In, Outcome &O);

/// The traced run's two loops: an untraced closed loop for half the time,
/// then a traced one (spans recorded, self times reported) for the other
/// half; trace.overhead_frac compares their median latencies.
void tracedClosedLoops(const Config &C,
                       const std::function<bool(int64_t)> &Untraced,
                       const std::function<bool(int64_t, SpanLog &, int)> &Traced,
                       const std::function<void(int64_t)> &After, Outcome &O);

/// Writes the spans to C.SpansOut when set.
void writeSpans(const Config &C, const SpanLog &Spans, Report &R);

/// The program layer (link, linked and unlinked execute, link stats) on a
/// program_chain-shaped chain built from \p Seed.
void probeProgramLayer(uint64_t Seed, Report &R);

Outcome runGemmCannon(const Config &C);
Outcome runHigherOrder(const Config &C);
Outcome runProgramChain(const Config &C);
Outcome runServeMixed(const Config &C);

/// Reports a whole-run latency percentile with its sample count as a note
/// (marked when fewer than 10 samples lie beyond it); returns its value.
double notePercentile(Report &R, const std::string &Name,
                      const std::vector<double> &V, double Q);

/// The end-to-end metrics shared by every workload. \p TailQ is the
/// workload's tail percentile (0.9 closed loop, 0.99 open loop).
struct EndToEnd {
  double SetupS = 0;
  std::vector<double> LatMs;
  double TailQ = 0.9;
  double OpsPerS = 0;
  double FlopsPerOp = 0;
  double GoodputRps = 0;
  double CompileP50Ms = 0;
};
void reportEndToEnd(const EndToEnd &E, Outcome &O);

/// Builds fresh tensors and schedules for one cold compile (untimed) and
/// returns the compile call to time.
using ColdCompileFn = std::function<std::function<void()>(int Rep)>;

/// One set-up round run between two requests of a measured loop: builds a
/// fresh copy of the workload (new tensors, so its compile misses the
/// PlanCache), evaluates and checks it, and returns the seconds that took.
using SetupSampleFn = std::function<double(int Rep)>;

/// The --trace 0 run of a closed-loop workload: after an untimed warm-up
/// (at least 5 requests and 1.5 s), \p Request until C.Seconds elapse;
/// between requests \p After (the sampled checks), every 0.25 s one cold
/// compile from \p Cold, and every \p SetupEvery seconds one set-up round
/// from \p Setup (none when null), so compile_p50_ms and setup_s see the
/// same host conditions as the requests. setup_s is the median of \p SetupS
/// (the rounds before the loop) and the loop's rounds. Then the end-to-end
/// metrics. ops_per_s is the median request's rate, 1 / lat_p50_ms, so
/// slow spells on a shared host move lat_tail_ms and not the throughput;
/// goodput_rps scales it by the share of requests that succeeded within
/// \p LimitMs.
void runClosedLoop(const Config &C, const std::function<bool()> &Request,
                   const std::function<void(int64_t)> &After,
                   const ColdCompileFn &Cold, std::vector<double> SetupS,
                   const SetupSampleFn &Setup, double SetupEvery,
                   double FlopsPerOp, double LimitMs, Outcome &O);

/// Median wall time (ms) of \p Fn over at least \p MinReps runs, stopping
/// once \p BudgetS is spent.
double timeMedianMs(const std::function<void()> &Fn, int MinReps,
                    double BudgetS);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
