//===- tests/PipelineTest.cpp - Pipelined executor correctness -*- C++ -*-===//
//
// The pipelined execution order (per-task step progression + double-
// buffered gather prefetch) must be observationally identical to the
// bulk-synchronous order: output data bitwise-equal at every thread count
// and task/leaf split, for home-fed prefetch (SUMMA broadcasts), relay-
// dependent prefetch (rotated Cannon shifts), general-affine leaves
// (MTTKRP), and a forced-relay placement that must disable prefetch
// entirely. Also covers the launch-phase zero-skip for overwrite-proven
// leaves and the execute() serialization contract.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HigherOrder.h"
#include "algorithms/Matmul.h"
#include "lower/Lower.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"

#include <gtest/gtest.h>

#include <thread>

using namespace distal;
using namespace distal::algorithms;

namespace {

struct RunResult {
  Trace T;
  std::vector<double> OutData;
};

/// Runs \p P at the given configuration and pipeline mode over freshly
/// filled regions. TaskWays == 0 uses setNumThreads(Threads) (adaptive
/// split); otherwise the split is pinned.
RunResult runPlan(const Plan &P, const std::vector<TensorVar> &Tensors,
                  Pipeline Pipe, int Threads, int TaskWays = 0,
                  int LeafWays = 0) {
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const TensorVar &T = Tensors[I];
    Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
    if (I > 0)
      Storage.back()->fillRandom(37 * I + 7);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(P);
  Exec.setPipeline(Pipe);
  if (TaskWays > 0)
    Exec.setThreadSplit(TaskWays, LeafWays);
  else
    Exec.setNumThreads(Threads);
  RunResult R;
  R.T = Exec.run(Regions);
  const TensorVar &Out = Tensors[0];
  Rect::forExtents(Out.shape()).forEachPoint(
      [&](const Point &Pt) { R.OutData.push_back(Regions[Out]->at(Pt)); });
  return R;
}

void expectSameData(const RunResult &A, const RunResult &B) {
  ASSERT_EQ(A.OutData.size(), B.OutData.size());
  for (size_t I = 0; I < A.OutData.size(); ++I)
    // Bitwise, not approximate: pipelining must not change any rounding.
    ASSERT_EQ(A.OutData[I], B.OutData[I]) << "element " << I;
}

/// Sweeps Off vs DoubleBuffer across the DeterminismTest thread grid:
/// adaptive 1 and 8 threads plus every pinned {1,2,8} x {1,4} split.
void expectPipelineIdentical(const Plan &P,
                             const std::vector<TensorVar> &Tensors) {
  RunResult Ref = runPlan(P, Tensors, Pipeline::Off, 1);
  for (int Threads : {1, 8}) {
    SCOPED_TRACE("adaptive threads " + std::to_string(Threads));
    RunResult On = runPlan(P, Tensors, Pipeline::DoubleBuffer, Threads);
    expectSameData(Ref, On);
  }
  for (int TaskWays : {1, 2, 8})
    for (int LeafWays : {1, 4}) {
      SCOPED_TRACE("task ways " + std::to_string(TaskWays) + ", leaf ways " +
                   std::to_string(LeafWays));
      RunResult Off =
          runPlan(P, Tensors, Pipeline::Off, 0, TaskWays, LeafWays);
      RunResult On =
          runPlan(P, Tensors, Pipeline::DoubleBuffer, 0, TaskWays, LeafWays);
      expectSameData(Ref, Off);
      expectSameData(Ref, On);
    }
}

/// The gather-heavy rotated-Cannon shape of the overlap_cannon bench:
/// A(n, r) = B(n, n) * C(n, r) on a g x 1 grid, K rotated systolically —
/// B's shifts are home-fed per task, C's relay between neighbour tasks.
Plan tallSkinnyCannon(Coord N, Coord R, int G, TensorVar &A, TensorVar &B,
                      TensorVar &C) {
  Machine M = Machine::grid({G, 1});
  A = TensorVar("A", {N, R});
  B = TensorVar("B", {N, N});
  C = TensorVar("C", {N, R});
  IndexVar I("i"), J("j"), K("k");
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki"),
      Kos("kos");
  Assignment Stmt(Access(A, {I, J}), Access(B, {I, K}) * Access(C, {K, J}));
  auto Fmt = [&](const std::string &Spec) {
    return Format({ModeKind::Dense, ModeKind::Dense},
                  TensorDistribution::parse(Spec));
  };
  std::map<TensorVar, Format> Formats = {
      {A, Fmt("xy->xy")}, {B, Fmt("xy->xy")}, {C, Fmt("xy->xy")}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{G, 1})
      .divide(K, Ko, Ki, G)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .rotate(Ko, {Io, Jo}, Kos)
      .communicate(A, Jo)
      .communicate({B, C}, Kos)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
  return lower(S.takeNest(), M, std::move(Formats));
}

/// Mapper collapsing every task onto processor 0: the relay sources become
/// ambiguous (several tasks per processor), which must conservatively
/// disable relay-dependent prefetch.
struct CollapseMapper : Mapper {
  Point placeTask(const Point &, const Rect &, const Machine &M) const
      override {
    return M.delinearize(0);
  }
};

} // namespace

TEST(Pipeline, RotatedCannonIdentical) {
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectPipelineIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(Pipeline, SummaIdentical) {
  MatmulOptions Opts;
  Opts.N = 32;
  Opts.Procs = 4;
  Opts.ChunkSize = 4; // Many home-fed broadcast steps to prefetch.
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Summa, Opts);
  expectPipelineIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(Pipeline, MttkrpIdentical) {
  HigherOrderOptions Opts;
  Opts.Dim = 16;
  Opts.Rank = 8;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  expectPipelineIdentical(Prob.P, Prob.Tensors);
}

TEST(Pipeline, TallSkinnyCannonIdentical) {
  TensorVar A, B, C;
  Plan P = tallSkinnyCannon(64, 8, 4, A, B, C);
  expectPipelineIdentical(P, {A, B, C});
}

TEST(Pipeline, UnevenTilesIdentical) {
  // Ragged edge tiles: guarded leaves + empty-iteration steps must not
  // confuse the per-task chains.
  MatmulOptions Opts;
  Opts.N = 19;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectPipelineIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

// The compile phase's output is pinned, not just self-consistent: the
// per-phase message counts and bytes of the skeleton, the prefetch
// schedule and the alias classification of two rotated schedules, as
// fixed numbers. A change to the relay routing, the residency dedup, or
// the ownership test moves at least one of them.
TEST(Pipeline, CompiledSkeletonPinned) {
  struct Pinned {
    std::vector<std::pair<size_t, int64_t>> Phases; ///< {messages, bytes}
    CompiledPlan::PrefetchStats Prefetch;
    CompiledPlan::DataMovementStats Moves;
    int64_t InterNodeBytes;
    int64_t PeakSum;
  };
  auto expectPinned = [](const CompiledPlan &CP, const Pinned &Want) {
    const Trace &T = CP.trace();
    ASSERT_EQ(T.Phases.size(), Want.Phases.size());
    for (size_t I = 0; I < T.Phases.size(); ++I) {
      EXPECT_EQ(T.Phases[I].Messages.size(), Want.Phases[I].first)
          << T.Phases[I].Label;
      EXPECT_EQ(T.Phases[I].totalMessageBytes(), Want.Phases[I].second)
          << T.Phases[I].Label;
    }
    CompiledPlan::PrefetchStats S = CP.prefetchStats();
    EXPECT_EQ(S.Free, Want.Prefetch.Free);
    EXPECT_EQ(S.Dependent, Want.Prefetch.Dependent);
    EXPECT_EQ(S.Excluded, Want.Prefetch.Excluded);
    EXPECT_EQ(S.Elided, Want.Prefetch.Elided);
    CompiledPlan::DataMovementStats D = CP.dataMovementStats();
    EXPECT_EQ(D.GatheredBytes, Want.Moves.GatheredBytes);
    EXPECT_EQ(D.ElidedBytes, Want.Moves.ElidedBytes);
    EXPECT_EQ(D.WritebackBytes, Want.Moves.WritebackBytes);
    EXPECT_EQ(D.WritebackElidedBytes, Want.Moves.WritebackElidedBytes);
    EXPECT_EQ(T.interNodeCommBytes(), Want.InterNodeBytes);
    int64_t Peak = 0;
    for (const auto &[Proc, Bytes] : T.PeakMemBytes)
      Peak += Bytes;
    EXPECT_EQ(Peak, Want.PeakSum);
  };

  // 8 x 8 Cannon, four processors per node: every step shifts 128 blocks.
  MatmulOptions Opts;
  Opts.N = 64;
  Opts.Procs = 64;
  Opts.ProcsPerNode = 4;
  MatmulProblem Cannon = buildMatmul(MatmulAlgo::Cannon, Opts);
  Pinned WantCannon{{{0, 0}}, {112, 784, 0, 128}, {458752, 65536, 0, 32768},
                    295936, 262144};
  for (int S = 0; S < 8; ++S)
    WantCannon.Phases.push_back({128, 65536});
  WantCannon.Phases.push_back({0, 0});
  expectPinned(CompiledPlan(Cannon.P), WantCannon);

  // Tall-skinny: B's shifts are home-resident views, C's relay.
  TensorVar A, B, C;
  Pinned WantTall{{{0, 0}}, {0, 12, 0, 20}, {12288, 36864, 0, 4096}, 12288,
                  69632};
  for (int S = 0; S < 4; ++S)
    WantTall.Phases.push_back({8, 12288});
  WantTall.Phases.push_back({0, 0});
  expectPinned(CompiledPlan(tallSkinnyCannon(64, 8, 4, A, B, C)), WantTall);
}

TEST(Pipeline, PrefetchScheduleClassification) {
  // Rotated Cannon: the systolic shifts relay between tasks, so the
  // schedule records cross-task dependencies (and step 0 home fetches).
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Cannon = buildMatmul(MatmulAlgo::Cannon, Opts);
  CompiledPlan CannonCP(Cannon.P);
  CompiledPlan::PrefetchStats CS = CannonCP.prefetchStats();
  EXPECT_GT(CS.Dependent, 0);
  EXPECT_GT(CS.Free, 0); // Step-0 fetches are home-fed.
  EXPECT_EQ(CS.Excluded, 0);
  // Each task's systolic walk passes over its home block once per operand:
  // those fetches are view-elided, not prefetchable (nothing to hide).
  EXPECT_GT(CS.Elided, 0);

  // SUMMA: chunked broadcasts always fetch from the home distribution —
  // every fetch that moves bytes is freely prefetchable, and the chunks
  // already resident on their owner are view-elided.
  MatmulOptions SOpts;
  SOpts.N = 32;
  SOpts.Procs = 4;
  SOpts.ChunkSize = 8;
  MatmulProblem Summa = buildMatmul(MatmulAlgo::Summa, SOpts);
  CompiledPlan SummaCP(Summa.P);
  CompiledPlan::PrefetchStats SS = SummaCP.prefetchStats();
  EXPECT_GT(SS.Free, 0);
  EXPECT_EQ(SS.Dependent, 0);
  EXPECT_EQ(SS.Excluded, 0);
  EXPECT_GT(SS.Elided, 0);
}

TEST(Pipeline, ForcedRelayDisablesPrefetch) {
  // Collapsing every task onto one processor makes each relay source
  // ambiguous: the compile phase must exclude those gathers from the
  // prefetch schedule, and execution must still match the serial path.
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  CollapseMapper Collapse;
  CompiledPlan CP(Prob.P, Collapse);
  CompiledPlan::PrefetchStats S = CP.prefetchStats();
  EXPECT_GT(S.Excluded, 0);
  EXPECT_EQ(S.Dependent, 0); // No relay source is unambiguous on one proc.

  std::vector<TensorVar> Tensors = {Prob.A, Prob.B, Prob.C};
  auto runWith = [&](Pipeline Pipe, int Threads) {
    std::map<TensorVar, Region *> Regions;
    std::vector<std::unique_ptr<Region>> Storage;
    for (size_t I = 0; I < Tensors.size(); ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Prob.P.formatOf(Tensors[I]), Prob.P.M));
      if (I > 0)
        Storage.back()->fillRandom(91 * I + 3);
      Regions[Tensors[I]] = Storage.back().get();
    }
    ExecOptions O;
    O.NumThreads = Threads;
    O.Pipe = Pipe;
    CP.execute(Regions, O);
    std::vector<double> Out;
    Rect::forExtents(Tensors[0].shape()).forEachPoint([&](const Point &Pt) {
      Out.push_back(Regions[Tensors[0]]->at(Pt));
    });
    return Out;
  };
  std::vector<double> Off = runWith(Pipeline::Off, 1);
  std::vector<double> On = runWith(Pipeline::DoubleBuffer, 8);
  ASSERT_EQ(Off.size(), On.size());
  for (size_t I = 0; I < Off.size(); ++I)
    ASSERT_EQ(Off[I], On[I]) << "element " << I;
}

TEST(Pipeline, ZeroSkipOverwriteLeaves) {
  // Elementwise non-reduction assignment: every original variable appears
  // in the output access, so the compile phase proves full overwrite and
  // skips the launch-phase accumulator zero.
  Coord N = 24;
  Machine M = Machine::grid({2, 2});
  TensorVar A("A", {N, N}), B("B", {N, N}), C("C", {N, N});
  IndexVar I("i"), J("j"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  Assignment Stmt(Access(A, {I, J}),
                  Access(B, {I, J}) * Access(C, {I, J}) + Expr(0.5));
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->xy"));
  std::map<TensorVar, Format> Formats = {{A, F}, {B, F}, {C, F}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
      .communicate({A, B, C}, Jo);
  Plan P = lower(S.takeNest(), M, std::move(Formats));

  CompiledPlan CP(P);
  EXPECT_EQ(CP.zeroSkipTaskCount(), 4);

  auto makeRegions = [&](std::vector<std::unique_ptr<Region>> &Storage) {
    std::map<TensorVar, Region *> Regions;
    for (const TensorVar &T : {A, B, C}) {
      Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
      if (!(T == A))
        Storage.back()->fillRandom(17 * Storage.size());
      Regions[T] = Storage.back().get();
    }
    return Regions;
  };

  // Interpreted reference (always zeroes; no overwrite mode).
  std::vector<std::unique_ptr<Region>> RefStorage;
  auto RefRegions = makeRegions(RefStorage);
  CompiledPlan RefCP(P, defaultMapper(), LeafStrategy::Interpreted);
  ExecOptions RefOpts;
  RefOpts.NumThreads = 1;
  RefCP.execute(RefRegions, RefOpts);

  // Compiled with zero-skip, executed twice: the second execution reuses
  // instance buffers holding the previous results — exactly the state a
  // broken overwrite would leak.
  std::vector<std::unique_ptr<Region>> Storage;
  auto Regions = makeRegions(Storage);
  ExecOptions Opts;
  Opts.NumThreads = 8;
  for (int Round = 0; Round < 2; ++Round) {
    CP.execute(Regions, Opts);
    Rect::forExtents(A.shape()).forEachPoint([&](const Point &Pt) {
      ASSERT_EQ(Regions[A]->at(Pt), RefRegions[A]->at(Pt))
          << "round " << Round << " at " << Pt.str();
    });
  }

  // A reducing statement must never skip its zero.
  MatmulOptions MOpts;
  MOpts.N = 16;
  MOpts.Procs = 4;
  MatmulProblem Gemm = buildMatmul(MatmulAlgo::Cannon, MOpts);
  CompiledPlan GemmCP(Gemm.P);
  EXPECT_EQ(GemmCP.zeroSkipTaskCount(), 0);
}

TEST(Pipeline, ConcurrentExecutesAreIndependent) {
  // The documented contract: the artifact is reentrant — concurrent
  // execute() calls run concurrently, each in its own ExecArena. Two
  // threads execute the same artifact over distinct region sets; both
  // results must equal the reference run. (ConcurrencyTest stresses this
  // at higher thread counts; TSan covers the memory side.)
  MatmulOptions Opts;
  Opts.N = 24;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  std::vector<TensorVar> Tensors = {Prob.A, Prob.B, Prob.C};
  CompiledPlan CP(Prob.P);

  auto makeRegions = [&](std::vector<std::unique_ptr<Region>> &Storage) {
    std::map<TensorVar, Region *> Regions;
    for (size_t I = 0; I < Tensors.size(); ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Prob.P.formatOf(Tensors[I]), Prob.P.M));
      if (I > 0)
        Storage.back()->fillRandom(37 * I + 7); // Match runPlan's fills.
      Regions[Tensors[I]] = Storage.back().get();
    }
    return Regions;
  };

  RunResult Ref = runPlan(Prob.P, Tensors, Pipeline::Off, 1);
  std::vector<std::unique_ptr<Region>> S1, S2;
  auto R1 = makeRegions(S1), R2 = makeRegions(S2);
  ExecOptions O;
  O.NumThreads = 4;
  std::thread T1([&] { CP.execute(R1, O); });
  std::thread T2([&] { CP.execute(R2, O); });
  T1.join();
  T2.join();
  size_t Idx = 0;
  Rect::forExtents(Tensors[0].shape()).forEachPoint([&](const Point &Pt) {
    ASSERT_EQ(R1[Tensors[0]]->at(Pt), Ref.OutData[Idx]);
    ASSERT_EQ(R2[Tensors[0]]->at(Pt), Ref.OutData[Idx]);
    ++Idx;
  });
}
