//===- api/Program.h - User-facing statement-chain API ---------*- C++ -*-===//
///
/// \file
/// The program surface of the API: an ordered chain of scheduled tensor
/// statements evaluated as ONE linked artifact instead of one statement at
/// a time. Iterative workloads (power iteration, ALS sweeps, Tucker/CP
/// chains) are programs — each statement's output feeds later inputs — and
/// statement-at-a-time execution pays a full barrier, a writeback, and a
/// re-gather at every boundary. A Program compiles every member through
/// the PlanCache, links them by producer/consumer residency
/// (CompiledProgram), caches the linked artifact keyed by the
/// statement-fingerprint chain, and executes all statement tasks as a
/// single dependency graph:
///
/// \code
///   Tensor Y("Y", {n}, f), T("T", {n}, f), X("X", {n}, f);
///   T(i) = A(i, j) * X(j);      T.schedule()...;
///   Y(i) = A(i, j) * T(j);      Y.schedule()...;
///   Program P;
///   P.add(T).add(Y);
///   P.evaluate(m);              // bitwise == T.evaluate(m); Y.evaluate(m)
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_API_PROGRAM_H
#define DISTAL_API_PROGRAM_H

#include <memory>
#include <vector>

#include "api/Tensor.h"
#include "runtime/CompiledProgram.h"

namespace distal {

/// An ordered chain of tensor statements compiled and executed as one
/// linked program. Holds raw pointers to the member tensors: they must
/// outlive every compile/evaluate call (the normal stack-scoped usage).
/// Not thread-safe to mutate concurrently; evaluate-family calls on a
/// built program are thread-safe against each other and against the
/// Tensor evaluate family (they share the same api mutex, held only for the
/// compile memo and region materialisation).
class Program {
public:
  /// Appends tensor \p T's defined computation as the next statement.
  /// Returns *this for chaining. The tensor must have a computation by
  /// the time compile()/evaluate() runs.
  Program &add(Tensor &T);

  /// Number of statements added.
  size_t size() const { return Stmts.size(); }

  /// Execute-time options applied by the evaluate family — same contract
  /// as Tensor::execOptions(): none participate in the cache key, results
  /// are bitwise-identical across all settings. ZeroCopyViews additionally
  /// gates the program-level residency overrides (off = the conservative
  /// per-statement reference path). Cancel carries the
  /// cancellation/deadline token: the program walk checks it at every node
  /// boundary (between statements' tasks), a trip is contained like any
  /// other failure, and a clean re-evaluate stays bitwise-identical.
  ExecOptions &execOptions() { return ExecOpts; }

  /// Compiles (or cache-hits) the linked program artifact for machine
  /// \p M: each member statement compiles through the PlanCache, then the
  /// chain links through the program-side cache keyed by the statement-
  /// fingerprint chain. The returned artifact co-owns its members, so
  /// later cache evictions never invalidate it. Member compiles and the
  /// link run outside the api mutex, single-flight per key (see
  /// PlanCache::findOrBuild), so a cold program compile never blocks
  /// evaluations of other tensors. Throws DistalError on validation or
  /// lowering failure.
  std::shared_ptr<CompiledProgram> compile(const Machine &M);

  /// Non-throwing compile: failures come back as a Status.
  StatusOr<std::shared_ptr<CompiledProgram>> tryCompile(const Machine &M);

  /// Compiles (or cache-hits) and runs the whole chain on real data;
  /// pending fills of every member tensor are applied. Output bytes of
  /// every member tensor are bitwise-identical to evaluating the members
  /// one at a time, in order. Throws DistalError on failure.
  void evaluate(const Machine &M);

  /// Non-throwing evaluate: a failed execution is contained inside its
  /// program arena (CompiledProgram's failure contract) and the artifact
  /// stays reusable.
  Status tryEvaluate(const Machine &M);

  /// Asynchronous evaluate: dispatches the program execution to the
  /// process pool's detached lane and returns a future carrying the
  /// latched Status. The pending execution co-owns the artifact and the
  /// backing Regions (pinned), so the future may outlive this Program and
  /// its tensors. Concurrent submissions sharing *input* tensors are safe
  /// (inputs are only read); callers racing on a shared *output* tensor
  /// must serialize themselves. Thread-safe.
  ProgramFuture evaluateAsync(const Machine &M);

private:
  struct Prepared;
  Prepared prepare(const Machine &M);

  std::vector<Tensor *> Stmts;
  ExecOptions ExecOpts;
};

} // namespace distal

#endif // DISTAL_API_PROGRAM_H
