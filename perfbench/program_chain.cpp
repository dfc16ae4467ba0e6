//===- perfbench/program_chain.cpp - Linked statement chain ----*- C++ -*-===//
//
// One closed-loop client runs Program::evaluate on a 32-statement
// power-iteration chain x_{s+1}(i) = x_s(i) * a + b of length-16384 vectors
// on a 1-d grid of 4 processors. Interior iterates are homed whole on
// processor 0, so statement-at-a-time execution would gather and merge
// them at every boundary; the linked program elides that movement. Leaf
// work is small: per-statement and per-task overhead (link graph, pool
// dispatch, arena acquire) dominates. This is the only path through
// CompiledProgram.
//
//===----------------------------------------------------------------------===//

#include "common.h"

using namespace distal;

namespace perfbench {

namespace {
constexpr Coord N = 1 << 14;
constexpr int Stmts = 32;
/// Set-up rounds before the loop; during it, one more every SetupEvery s.
constexpr int SetupRounds = 3;
constexpr double SetupEvery = 0.5;
constexpr double Mul = 1.0009765625, Add = 0.03125; // Exact in binary.
constexpr double LimitMs = 50;                      ///< goodput limit.

struct Chain {
  Machine M = Machine::grid({4});
  uint64_t Seed = 0;
  std::vector<std::unique_ptr<Tensor>> X; ///< x_0 .. x_Stmts.
  Program P;

  std::vector<Stmt> stmts() const {
    std::vector<Stmt> S;
    for (int I = 0; I < Stmts; ++I)
      S.push_back({X[I + 1].get(), {X[I].get()}, M});
    return S;
  }
  std::map<TensorVar, Region *> regions() const {
    std::map<TensorVar, Region *> R;
    for (const auto &T : X)
      R[T->var()] = T->region();
    return R;
  }
  /// The final iterate by the recurrence on the seeded x_0.
  std::vector<double> reference() const {
    std::vector<double> V(N);
    for (Coord I = 0; I < N; ++I) {
      double X0 = seededValue(Seed, 11, static_cast<uint64_t>(I));
      for (int S = 0; S < Stmts; ++S)
        X0 = X0 * Mul + Add;
      V[I] = X0;
    }
    return V;
  }
  Mismatch check(const std::vector<double> &Ref) const {
    const Region *R = X.back()->region();
    std::vector<double> Got(N);
    for (Coord I = 0; I < N; ++I)
      Got[I] = R->data()[I * R->strides()[0]];
    return compareValues(Got.data(), Ref.data(), N, sumTolerance(Stmts, 4));
  }
};

std::unique_ptr<Chain> makeChain(const std::string &Tag, uint64_t Seed) {
  auto C = std::make_unique<Chain>();
  C->Seed = Seed;
  for (int S = 0; S <= Stmts; ++S)
    C->X.push_back(std::make_unique<Tensor>(
        Tag + "_x" + std::to_string(S), std::vector<Coord>{N},
        denseFormat(1, S == 0 || S == Stmts ? "x->x" : "x->0")));
  fillSeeded(*C->X[0], Seed, 11);
  for (int S = 0; S < Stmts; ++S) {
    IndexVar I("i"), Io("io"), Ii("ii");
    (*C->X[S + 1])(I) = (*C->X[S])(I) * Mul + Add;
    C->X[S + 1]->schedule().distribute({I}, {Io}, {Ii}, C->M);
    C->P.add(*C->X[S + 1]);
  }
  return C;
}

ExecTarget programTarget(Chain &Ch) {
  std::shared_ptr<CompiledProgram> CP = Ch.P.compile(Ch.M);
  auto Regions = std::make_shared<std::map<TensorVar, Region *>>(Ch.regions());
  ExecTarget T;
  T.Opts = Ch.P.execOptions();
  T.Execute = [CP, Regions](const ExecOptions &O) { CP->execute(*Regions, O); };
  T.SubmitWait = [CP, Regions](const ExecOptions &O) {
    return CP->submit(*Regions, O).wait().ok();
  };
  T.Arenas = [CP] { return CP->arenaStats(); };
  T.Movement = CP->dataMovementStats();
  T.Traces.push_back({&CP->trace(), Ch.M});
  T.Keep = CP;
  return T;
}

/// Cold Program::compile of a fresh chain: 32 member compiles plus the link.
ColdCompileFn coldCompile(uint64_t Seed) {
  return [Seed](int Rep) -> std::function<void()> {
    std::shared_ptr<Chain> Ch = makeChain("cc" + std::to_string(Rep), Seed);
    return [Ch] { (void)Ch->P.compile(Ch->M); };
  };
}
} // namespace

void probeProgramLayer(uint64_t Seed, Report &R) {
  std::vector<double> LinkMs;
  std::unique_ptr<Chain> Ch;
  for (int Rep = 0; Rep < 3; ++Rep) {
    Ch = makeChain("pl" + std::to_string(Rep), Seed);
    for (const Stmt &S : Ch->stmts())
      (void)S.Out->compile(S.M);
    // Members are cached now: what remains is the link itself.
    double T0 = nowS();
    (void)Ch->P.compile(Ch->M);
    LinkMs.push_back((nowS() - T0) * 1e3);
  }
  Ch->P.evaluate(Ch->M);
  std::shared_ptr<CompiledProgram> CP = Ch->P.compile(Ch->M);
  std::map<TensorVar, Region *> Regions = Ch->regions();
  ExecOptions O = Ch->P.execOptions();
  O.Mode = TraceMode::Off;
  std::vector<std::shared_ptr<CompiledPlan>> Members;
  for (const Stmt &S : Ch->stmts())
    Members.push_back(S.Out->compile(S.M));
  double Linked = timeMedianMs([&] { CP->execute(Regions, O); }, 5, 0.2);
  double Unlinked = timeMedianMs(
      [&] {
        for (const auto &M : Members)
          M->execute(Regions, O);
      },
      5, 0.2);
  CompiledProgram::LinkStats L = CP->linkStats();
  int64_t Deps = L.DirectDeps + L.BarrierDeps;
  R.metric("runtime.program.link_ms", median(LinkMs), "ms");
  R.metric("runtime.program.execute_ms", Linked, "ms");
  R.metric("runtime.program.unlinked_ms", Unlinked, "ms");
  R.metric("runtime.program.direct_dep_frac",
           Deps > 0 ? static_cast<double>(L.DirectDeps) / Deps : 0, "frac");
  R.metric("runtime.program.elided_bytes",
           static_cast<double>(L.ElidedGatherBytes + L.ElidedWritebackBytes),
           "bytes");
}

Outcome runProgramChain(const Config &C) {
  Outcome O;
  std::unique_ptr<Chain> Ch;
  std::vector<double> Ref;
  auto Check = [&](const char *What) { O.check(What, Ch->check(Ref)); };
  std::vector<double> SetupS = setupRounds(
      0, C.Trace ? 1 : SetupRounds,
      [&](int Round) -> double {
        Ch.reset();
        Ch = makeChain("p" + std::to_string(Round), C.Seed);
        O.attempt(Ch->P.tryEvaluate(Ch->M).ok());
        double T0 = nowS();
        if (Ref.empty())
          Ref = Ch->reference();
        double Excluded = nowS() - T0;
        Check("setup");
        return Excluded;
      });
  O.R.note("shape", "32-statement chain x' = x * a + b, n=16384, 1-d grid "
                    "of 4, interiors homed on processor 0, closed loop, "
                    "1 client");
  auto Request = [&] { return Ch->P.tryEvaluate(Ch->M).ok(); };
  auto After = [&](int64_t) { Check("request"); };

  if (C.Trace) {
    ExecTarget Exec = programTarget(*Ch);
    tracedClosedLoops(
        C, [&](int64_t) { return Request(); },
        [&](int64_t Req, SpanLog &Spans, int Root) {
          int F = Spans.begin("api.front", Req, Root);
          std::shared_ptr<CompiledProgram> CP = Ch->P.compile(Ch->M);
          std::map<TensorVar, Region *> Regions = Ch->regions();
          ExecOptions Opts = Ch->P.execOptions();
          Opts.Mode = TraceMode::Off;
          Spans.end(F);
          int X = Spans.begin("runtime.program.execute", Req, Root);
          bool Ok = CP->tryExecute(Regions, Opts).ok();
          Spans.end(X);
          return Ok;
        },
        After, O);
    std::vector<Stmt> S = Ch->stmts();
    probeLayers(C, {S, S, Exec}, O);
    probeProgramLayer(C.Seed, O.R);
    return O;
  }

  // A set-up round inside the loop builds a fresh chain, whose members and
  // program miss the PlanCache; afterwards (untimed) it drops their entries
  // again, so its 33 inserts do not evict the hot chain's members.
  auto Setup = [&](int Rep) {
    double T0 = nowS();
    std::unique_ptr<Chain> S = makeChain("s" + std::to_string(Rep), C.Seed);
    bool Ok = S->P.tryEvaluate(S->M).ok();
    Mismatch M = S->check(Ref);
    double Secs = nowS() - T0;
    O.attempt(Ok);
    O.check("setup", M);
    std::vector<std::string> Keys;
    for (const Stmt &St : S->stmts())
      Keys.push_back(St.Out->planKey(St.M));
    PlanCache::global().invalidateProgram(PlanCache::programKeyFor(Keys));
    for (const std::string &K : Keys)
      PlanCache::global().invalidate(K);
    return Secs;
  };
  runClosedLoop(C, Request, After, coldCompile(C.Seed), SetupS, Setup,
                SetupEvery, 2.0 * N * Stmts, LimitMs, O);
  return O;
}

} // namespace perfbench
