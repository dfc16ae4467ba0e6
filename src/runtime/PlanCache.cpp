//===- runtime/PlanCache.cpp ----------------------------------*- C++ -*-===//

#include "runtime/PlanCache.h"

#include <algorithm>
#include <optional>

#include "support/Error.h"

using namespace distal;

namespace {

/// An explicitly poisoned artifact must never be served again.
bool poisoned(const CompiledPlan &CP) { return CP.poisoned(); }
bool poisoned(const CompiledProgram &CP) {
  for (size_t I = 0; I < CP.size(); ++I)
    if (CP.member(I).poisoned())
      return true;
  return false;
}

} // namespace

PlanCache &PlanCache::global() {
  static PlanCache Cache;
  return Cache;
}

std::string PlanCache::keyFor(const Plan &P, LeafStrategy Strategy) {
  return P.fingerprint() +
         (Strategy == LeafStrategy::Compiled ? ";leaf=compiled"
                                             : ";leaf=interpreted");
}

template <typename T>
void PlanCache::shrinkLocked(Table<T> &Tab, size_t Cap, bool CountShrinks,
                             Graveyard &Dead) {
  while (Tab.LRU.size() > Cap) {
    if (CountShrinks && Tab.LRU.size() <= Tab.Capacity)
      ResourceGovernor::noteCacheShrink();
    Dead.push_back(std::move(Tab.LRU.back().CP));
    Tab.Index.erase(Tab.LRU.back().Key);
    Tab.LRU.pop_back();
  }
}

void PlanCache::evictLocked(Graveyard &Dead) {
  // Under memory pressure the LRUs shrink to their floors: cached
  // artifacts are the cheapest memory to give back (recompilable on
  // demand), so they go first when the governor reports pressure.
  // Evictions the configured capacity alone would not have forced are
  // counted as cache shrinks.
  bool Pressured =
      ResourceGovernor::pressure() != ResourceGovernor::Pressure::None;
  shrinkLocked(Plans,
               Pressured ? std::min(Plans.Capacity, Plans.Floor)
                         : Plans.Capacity,
               true, Dead);
  shrinkLocked(Programs,
               Pressured ? std::min(Programs.Capacity, Programs.Floor)
                         : Programs.Capacity,
               true, Dead);
}

template <typename T>
void PlanCache::insertLocked(Table<T> &Tab, const std::string &Key,
                             std::shared_ptr<T> CP, int64_t Bytes,
                             Graveyard &Dead) {
  auto It = Tab.Index.find(Key);
  if (It != Tab.Index.end()) {
    Dead.push_back(std::move(It->second->CP));
    It->second->CP = std::move(CP);
    It->second->Mem.reset();
    It->second->Mem.add(Bytes);
    Tab.LRU.splice(Tab.LRU.begin(), Tab.LRU, It->second);
    return;
  }
  Tab.LRU.emplace_front();
  Tab.LRU.front().Key = Key;
  Tab.LRU.front().CP = std::move(CP);
  Tab.LRU.front().Mem.add(Bytes);
  Tab.Index[Key] = Tab.LRU.begin();
  evictLocked(Dead);
}

template <typename T>
void PlanCache::putIn(Table<T> &Tab, const std::string &Key,
                      std::shared_ptr<T> CP) {
  int64_t Bytes = CP->footprintBytes();
  Graveyard Dead;
  std::lock_guard<std::mutex> Lock(Mu);
  insertLocked(Tab, Key, std::move(CP), Bytes, Dead);
}

template <typename T>
bool PlanCache::invalidateIn(Table<T> &Tab, const std::string &Key) {
  Graveyard Dead;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Tab.Index.find(Key);
  if (It == Tab.Index.end())
    return false;
  Dead.push_back(std::move(It->second->CP));
  Tab.LRU.erase(It->second);
  Tab.Index.erase(It);
  return true;
}

template <typename T>
std::shared_ptr<T>
PlanCache::findOrBuildIn(Table<T> &Tab, const std::string &Key,
                         const std::function<std::shared_ptr<T>()> &Build) {
  std::optional<std::promise<std::shared_ptr<T>>> Done; // Set: we build.
  std::shared_future<std::shared_ptr<T>> Flight;
  {
    Graveyard Dead;
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Tab.Index.find(Key);
    if (It != Tab.Index.end() && !poisoned(*It->second->CP)) {
      ++Tab.Hits;
      Tab.LRU.splice(Tab.LRU.begin(), Tab.LRU, It->second);
      std::shared_ptr<T> CP = It->second->CP;
      evictLocked(Dead);
      return CP;
    }
    ++Tab.Misses;
    auto FIt = Tab.InFlight.find(Key);
    if (FIt != Tab.InFlight.end()) {
      ++Joined;
      Flight = FIt->second;
    } else {
      Done.emplace();
      Tab.InFlight.emplace(Key, Done->get_future().share());
    }
  }
  if (!Done)
    return Flight.get(); // Rethrows the builder's exception.

  // This caller builds. The in-flight entry leaves the table under the
  // same lock that publishes the artifact, so a later miss either joins
  // this flight or finds the entry.
  std::shared_ptr<T> CP;
  try {
    CP = Build();
    DISTAL_ASSERT(CP != nullptr, "PlanCache builder returned null");
  } catch (...) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Tab.InFlight.erase(Key);
    }
    Done->set_exception(std::current_exception());
    throw;
  }
  int64_t Bytes = CP->footprintBytes();
  {
    Graveyard Dead;
    std::lock_guard<std::mutex> Lock(Mu);
    insertLocked(Tab, Key, CP, Bytes, Dead);
    Tab.InFlight.erase(Key);
  }
  Done->set_value(CP);
  return CP;
}

std::shared_ptr<CompiledPlan> PlanCache::find(const std::string &Key) {
  Graveyard Dead;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Plans.Index.find(Key);
  if (It == Plans.Index.end()) {
    ++Plans.Misses;
    return nullptr;
  }
  ++Plans.Hits;
  Plans.LRU.splice(Plans.LRU.begin(), Plans.LRU, It->second);
  std::shared_ptr<CompiledPlan> CP = It->second->CP;
  evictLocked(Dead); // The found entry sits at the front; floors are >= 1.
  return CP;
}

std::shared_ptr<CompiledPlan> PlanCache::findOrBuild(const std::string &Key,
                                                     const PlanBuilder &Build) {
  return findOrBuildIn(Plans, Key, Build);
}

void PlanCache::put(const std::string &Key, std::shared_ptr<CompiledPlan> CP) {
  putIn(Plans, Key, std::move(CP));
}

bool PlanCache::invalidate(const std::string &Key) {
  return invalidateIn(Plans, Key);
}

std::string
PlanCache::programKeyFor(const std::vector<std::string> &MemberKeys) {
  std::string Key = "program{";
  for (const std::string &K : MemberKeys) {
    Key += K;
    Key += '|';
  }
  Key += '}';
  return Key;
}

std::shared_ptr<CompiledProgram>
PlanCache::findOrBuildProgram(const std::string &Key,
                              const ProgramBuilder &Build) {
  return findOrBuildIn(Programs, Key, Build);
}

void PlanCache::putProgram(const std::string &Key,
                           std::shared_ptr<CompiledProgram> CP) {
  putIn(Programs, Key, std::move(CP));
}

bool PlanCache::invalidateProgram(const std::string &Key) {
  return invalidateIn(Programs, Key);
}

size_t PlanCache::programSize() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Programs.LRU.size();
}

void PlanCache::setProgramCapacity(size_t N) {
  Graveyard Dead;
  std::lock_guard<std::mutex> Lock(Mu);
  Programs.Capacity = N > 0 ? N : 1;
  shrinkLocked(Programs, Programs.Capacity, false, Dead);
}

void PlanCache::clear() {
  Graveyard Dead;
  std::lock_guard<std::mutex> Lock(Mu);
  shrinkLocked(Plans, 0, false, Dead);
  shrinkLocked(Programs, 0, false, Dead);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Plans.LRU.size();
}

void PlanCache::setCapacity(size_t N) {
  Graveyard Dead;
  std::lock_guard<std::mutex> Lock(Mu);
  Plans.Capacity = N > 0 ? N : 1;
  shrinkLocked(Plans, Plans.Capacity, false, Dead);
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S;
  S.Hits = Plans.Hits;
  S.Misses = Plans.Misses;
  S.ProgramHits = Programs.Hits;
  S.ProgramMisses = Programs.Misses;
  S.Joined = Joined;
  return S;
}

AdmissionQueue::Stats PlanCache::admissionStats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  AdmissionQueue::Stats Agg;
  for (const auto &E : Plans.LRU) {
    AdmissionQueue::Stats One = E.CP->admission().stats();
    Agg.Admitted += One.Admitted;
    Agg.Coalesced += One.Coalesced;
    Agg.Rejected += One.Rejected;
    Agg.Cancelled += One.Cancelled;
    Agg.Shed += One.Shed;
    Agg.BreakerOpen += One.BreakerOpen;
    Agg.Active += One.Active;
    Agg.Queued += One.Queued;
    // Per-artifact high-water marks are not additive (they may have been
    // hit at different times); the meaningful aggregate is the largest.
    Agg.PeakActive = std::max(Agg.PeakActive, One.PeakActive);
  }
  return Agg;
}
