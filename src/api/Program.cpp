//===- api/Program.cpp ----------------------------------------*- C++ -*-===//

#include "api/Program.h"

#include "runtime/PlanCache.h"
#include "support/Error.h"

using namespace distal;

namespace {

/// Program-run analogue of the evaluate family's region anchor: shared
/// ownership of (and an execution pin on) every Region the program
/// touches, held until the execution completes so machine-change rebuilds
/// and tensor destruction can never free storage under a running program.
struct ProgramRegionHold {
  std::vector<std::shared_ptr<Region>> Regions;

  void add(std::shared_ptr<Region> R) {
    R->pin();
    Regions.push_back(std::move(R));
  }
  ~ProgramRegionHold() {
    for (const std::shared_ptr<Region> &R : Regions)
      R->unpin();
  }
};

} // namespace

/// Everything one program run needs: the linked artifact (compiled outside
/// the api mutex), the region map materialised under it, the snapshotted
/// options, and the region anchor.
struct Program::Prepared {
  std::shared_ptr<CompiledProgram> Prog;
  std::map<TensorVar, Region *> Regions;
  ExecOptions Opts;
  std::shared_ptr<void> Hold;
};

Program &Program::add(Tensor &T) {
  Stmts.push_back(&T);
  return *this;
}

std::shared_ptr<CompiledProgram> Program::compile(const Machine &M) {
  if (Stmts.empty())
    throwError(ErrorCode::InvalidArgument,
               "Program has no statements; call add() first");

  // Member statements compile (or cache-hit) through the plan cache, each
  // taking the api mutex only for its memo check; the memoized per-tensor
  // key doubles as the program key component.
  std::vector<std::shared_ptr<CompiledPlan>> CPs;
  std::vector<std::string> Keys(Stmts.size());
  CPs.reserve(Stmts.size());
  for (size_t I = 0; I < Stmts.size(); ++I)
    CPs.push_back(Stmts[I]->compileWithKey(M, Keys[I]));
  std::vector<const Plan *> Plans;
  Plans.reserve(CPs.size());
  for (const std::shared_ptr<CompiledPlan> &CP : CPs)
    Plans.push_back(&CP->plan());
  Status V = validateProgramPlans(Plans);
  if (!V.ok())
    throwStatus(std::move(V));

  // The link, like the member compiles, runs outside the api mutex.
  return PlanCache::global().findOrBuildProgram(
      PlanCache::programKeyFor(Keys),
      [&] { return std::make_shared<CompiledProgram>(std::move(CPs)); });
}

StatusOr<std::shared_ptr<CompiledProgram>> Program::tryCompile(
    const Machine &M) {
  try {
    return compile(M);
  } catch (...) {
    return statusFromCurrentException();
  }
}

Program::Prepared Program::prepare(const Machine &M) {
  Prepared R;
  R.Prog = compile(M);
  std::lock_guard<std::mutex> Lock(Tensor::apiMu());
  // Materialise every tensor of the chain, in program order. A tensor
  // whose first touch is a pure write is about to be zeroed by its
  // statement's zero node — its old data need not survive a machine
  // change; everything else (inputs, read-before-written tensors,
  // outputs also read by their own statement) carries its values over.
  std::map<TensorVar, bool> Preserve;
  for (size_t I = 0; I < R.Prog->size(); ++I) {
    const Assignment &Stmt = R.Prog->member(I).plan().Nest.Stmt;
    const TensorVar &Out = Stmt.lhs().tensor();
    for (const Access &A : Stmt.rhsAccesses())
      Preserve.emplace(A.tensor(), true);
    Preserve.emplace(Out, false);
  }
  auto Hold = std::make_shared<ProgramRegionHold>();
  for (const auto &[TV, Keep] : Preserve) {
    const std::shared_ptr<Region> &Rg =
        Tensor::lookupTensor(TV).materialize(M, /*PreserveData=*/Keep);
    R.Regions[TV] = Rg.get();
    Hold->add(Rg);
  }
  R.Hold = std::move(Hold);
  R.Opts = ExecOpts;
  R.Opts.Mode = TraceMode::Off;
  return R;
}

void Program::evaluate(const Machine &M) {
  Status S = tryEvaluate(M);
  if (!S.ok())
    throwStatus(std::move(S));
}

Status Program::tryEvaluate(const Machine &M) {
  try {
    Prepared R = prepare(M);
    // Synchronous run; the Hold (local) keeps every region alive and
    // pinned for the duration.
    return R.Prog->tryExecute(R.Regions, R.Opts);
  } catch (...) {
    return statusFromCurrentException();
  }
}

ProgramFuture Program::evaluateAsync(const Machine &M) {
  Prepared R = prepare(M);
  // The keeper anchors both the artifact (a PlanCache eviction between
  // submit and wait must not destroy it under the pending execution) and
  // the pinned regions, released when the execution completes.
  struct Keeper {
    std::shared_ptr<CompiledProgram> Prog;
    std::shared_ptr<void> Hold;
  };
  auto K = std::make_shared<Keeper>();
  K->Prog = R.Prog;
  K->Hold = std::move(R.Hold);
  return R.Prog->submit(R.Regions, R.Opts, std::move(K));
}
