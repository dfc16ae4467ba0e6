//===- runtime/PlanCache.h - Process-wide compiled-plan cache --*- C++ -*-===//
///
/// \file
/// A process-wide cache of CompiledPlan artifacts so that repeated
/// evaluations of the same scheduled statement on the same machine hit
/// steady state: Tensor::evaluate lowers, fingerprints, and looks up here
/// before paying the compile-phase analysis.
///
/// Keying: entries are keyed by PlanCache::keyFor — the plan's structural
/// fingerprint (statement, schedule/provenance relations, formats, tensor
/// shapes and identities, machine; see Plan::fingerprint) plus the leaf
/// strategy. Execute-time knobs (thread count, task/leaf split, trace
/// mode) are deliberately NOT part of the key: one artifact serves every
/// configuration and results are bitwise-identical across them. Because
/// the fingerprint includes tensor identity, recreating a tensor (or
/// redefining its computation or schedule) naturally misses and compiles
/// fresh; stale entries age out of the bounded LRU list. `invalidate` and
/// `clear` drop entries explicitly.
///
/// Building: findOrBuild / findOrBuildProgram are the compile path. A miss
/// runs the caller's builder with no cache lock held, single-flight per
/// key: concurrent misses on one key build once and share that artifact
/// (or rethrow that builder's exception), while hits and misses on other
/// keys never wait for a build.
///
/// Memory ownership: the cache and any caller share the artifact through
/// shared_ptr; an artifact (with its reusable instance buffers) stays
/// alive while either holds it. Eviction or invalidation never invalidates
/// an execution in flight. An artifact whose last owner is the cache is
/// destroyed after the cache lock is released, so evicting a large one
/// never stalls a concurrent lookup.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_PLANCACHE_H
#define DISTAL_RUNTIME_PLANCACHE_H

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/CompiledPlan.h"
#include "runtime/CompiledProgram.h"
#include "support/ResourceGovernor.h"

namespace distal {

class PlanCache {
public:
  /// The process-wide instance used by Tensor::evaluate.
  static PlanCache &global();

  /// The cache key for compiling \p P with \p Strategy.
  static std::string keyFor(const Plan &P, LeafStrategy Strategy);

  /// Returns the cached artifact for \p Key (refreshing its LRU position),
  /// or null. Counts a hit or miss.
  std::shared_ptr<CompiledPlan> find(const std::string &Key);

  /// Builds an artifact on a miss (see findOrBuild).
  using PlanBuilder = std::function<std::shared_ptr<CompiledPlan>()>;

  /// Returns the cached artifact for \p Key, or builds, caches and returns
  /// it with \p Build on a miss. A poisoned cached artifact counts as a
  /// miss and is replaced. Single-flight per key: while one caller runs
  /// \p Build, later misses on the same key wait for it and share its
  /// artifact, or rethrow its exception; a failed build leaves nothing
  /// behind, so the next call builds again. \p Build runs with no cache
  /// lock held, so hits and other keys never wait for it. A caller must
  /// not hold a lock that some builder takes (a waiter would block its
  /// builder). An invalidate() or clear() racing a build drops only the
  /// entries cached so far; the build still inserts its artifact.
  std::shared_ptr<CompiledPlan> findOrBuild(const std::string &Key,
                                            const PlanBuilder &Build);

  /// Inserts (or replaces) the artifact for \p Key, evicting the least
  /// recently used entry beyond the capacity.
  void put(const std::string &Key, std::shared_ptr<CompiledPlan> CP);

  /// Drops the entry for \p Key; returns whether one existed.
  bool invalidate(const std::string &Key);

  /// Drops every entry — plan and program alike (hit/miss counters
  /// survive).
  void clear();

  size_t size() const;
  void setCapacity(size_t N);

  /// The cache key for a linked program over \p MemberKeys (the member
  /// artifacts' keyFor strings, in program order): the statement-
  /// fingerprint chain. Two programs share an artifact exactly when their
  /// statement chains would compile to the same linked graph.
  static std::string programKeyFor(const std::vector<std::string> &MemberKeys);

  /// Builds a program artifact on a miss.
  using ProgramBuilder = std::function<std::shared_ptr<CompiledProgram>()>;

  /// findOrBuild for program artifacts, with the same single-flight
  /// contract; counts a program hit or miss. A cached program with a
  /// poisoned member counts as a miss. Program entries live in their own
  /// bounded LRU: a program co-owns its member CompiledPlans (shared_ptr),
  /// so evicting a member plan entry never invalidates a cached program —
  /// and vice versa.
  std::shared_ptr<CompiledProgram>
  findOrBuildProgram(const std::string &Key, const ProgramBuilder &Build);

  /// Inserts (or replaces) the program artifact for \p Key, evicting the
  /// least recently used program entry beyond the program capacity.
  void putProgram(const std::string &Key, std::shared_ptr<CompiledProgram> CP);

  /// Drops the program entry for \p Key; returns whether one existed.
  bool invalidateProgram(const std::string &Key);

  /// Number of cached program artifacts.
  size_t programSize() const;
  /// Caps the program LRU (default 16).
  void setProgramCapacity(size_t N);

  struct Stats {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t ProgramHits = 0;   ///< findOrBuildProgram hits.
    int64_t ProgramMisses = 0; ///< findOrBuildProgram misses.
    /// Misses (plan or program) that waited for another caller's build of
    /// the same key instead of building.
    int64_t Joined = 0;
  };
  Stats stats() const;

  /// Aggregated admission-queue counters over every currently cached
  /// artifact (see AdmissionQueue::Stats): the multi-tenant view — how
  /// many executions the cache's artifacts admitted, coalesced, rejected,
  /// cancelled, and shed, how many submissions an open breaker refused,
  /// and how many run right now. Counts sum across artifacts; PeakActive
  /// is the *maximum* of the per-artifact high-water marks (per-artifact
  /// peaks at different times are not additive, so a sum would overstate
  /// overlap). Evicted artifacts' counters leave the aggregate with them.
  AdmissionQueue::Stats admissionStats() const;

  /// Memory-pressure floors: while ResourceGovernor::pressure() is
  /// non-None, both LRUs evict down to these sizes instead of their
  /// configured capacities (cached artifacts are the shed-last tier —
  /// cheap to recompile, expensive to keep under pressure). Each eviction
  /// beyond what the configured capacity required is counted by
  /// ResourceGovernor::noteCacheShrink().
  static constexpr size_t PlanFloor = 4;
  /// Pressure floor of the program LRU (see PlanFloor).
  static constexpr size_t ProgramFloor = 2;

private:
  /// One LRU of artifacts of type T with its index, capacity, pressure
  /// floor, and the builds in flight per key.
  template <typename T> struct Table {
    struct Entry {
      std::string Key;
      std::shared_ptr<T> CP;
      /// Governor ledger for the artifact's footprintBytes().
      ResourceGovernor::Charge Mem;
    };
    size_t Capacity;
    size_t Floor;
    std::list<Entry> LRU; ///< Front = most recently used.
    std::map<std::string, typename std::list<Entry>::iterator> Index;
    /// Keyed by a view of the building caller's key, which outlives the
    /// flight: copying a long program key here, ahead of the build's own
    /// allocations, measurably raised peak RSS.
    std::map<std::string_view, std::shared_future<std::shared_ptr<T>>>
        InFlight;
    int64_t Hits = 0, Misses = 0;
  };
  /// Artifacts dropped under Mu, destroyed once it is released: declared
  /// before the lock guard, so it dies after the guard unlocks.
  using Graveyard = std::vector<std::shared_ptr<const void>>;

  template <typename T>
  void putIn(Table<T> &Tab, const std::string &Key, std::shared_ptr<T> CP);
  template <typename T>
  bool invalidateIn(Table<T> &Tab, const std::string &Key);
  template <typename T>
  std::shared_ptr<T>
  findOrBuildIn(Table<T> &Tab, const std::string &Key,
                const std::function<std::shared_ptr<T>()> &Build);
  /// Inserts or replaces the entry for \p Key at the LRU front. Callers
  /// hold Mu.
  template <typename T>
  void insertLocked(Table<T> &Tab, const std::string &Key,
                    std::shared_ptr<T> CP, int64_t Bytes, Graveyard &Dead);
  /// Evicts \p Tab's LRU tail down to \p Cap; with \p CountShrinks, each
  /// eviction its configured capacity did not force is noted as a cache
  /// shrink. Callers hold Mu.
  template <typename T>
  void shrinkLocked(Table<T> &Tab, size_t Cap, bool CountShrinks,
                    Graveyard &Dead);
  /// Evicts LRU tails down to the effective capacities (the pressure
  /// floors under non-None pressure). Callers hold Mu.
  void evictLocked(Graveyard &Dead);

  mutable std::mutex Mu;
  Table<CompiledPlan> Plans{64, PlanFloor};
  Table<CompiledProgram> Programs{16, ProgramFloor};
  int64_t Joined = 0;
};

} // namespace distal

#endif // DISTAL_RUNTIME_PLANCACHE_H
