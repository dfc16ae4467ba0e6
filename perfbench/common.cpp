//===- perfbench/common.cpp -----------------------------------*- C++ -*-===//

#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "runtime/PlanCache.h"

using namespace distal;

namespace perfbench {

void Outcome::check(const std::string &What, const Mismatch &M) {
  attempt(M.ok());
  if (M.ok() || ++Mismatched > 5)
    return;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%lld elements differ; first at %lld: got %.17g want %.17g",
                static_cast<long long>(M.Count),
                static_cast<long long>(M.First), M.Got, M.Want);
  R.note("MISMATCH " + What, Buf);
}

std::vector<double> setupRounds(int First, int Rounds,
                                const std::function<double(int)> &Round) {
  std::vector<double> Times;
  for (int I = First; I < First + Rounds; ++I) {
    // Round 0 is timed from process start (its cold costs — pool spawn,
    // first page faults — are part of set-up); later rounds start from an
    // empty PlanCache, as a fresh process would.
    double T0 = 0;
    if (I > 0) {
      PlanCache::global().clear();
      T0 = nowS();
    }
    double Excluded = Round(I);
    Times.push_back(nowS() - T0 - Excluded);
  }
  return Times;
}

double reportSetup(const std::vector<double> &Times, Report &R) {
  std::string All;
  for (double T : Times) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%s%.4f", All.empty() ? "" : " ", T);
    All += Buf;
  }
  R.note("setup rounds (s)", All);
  return median(Times);
}

void fillSeeded(Tensor &T, uint64_t Seed, uint64_t Stream) {
  std::vector<Coord> Shape = T.var().shape();
  T.fill([Seed, Stream, Shape](const Point &P) {
    uint64_t Idx = 0;
    for (int D = 0; D < P.dim(); ++D)
      Idx = Idx * static_cast<uint64_t>(Shape[D]) + static_cast<uint64_t>(P[D]);
    return seededValue(Seed, Stream, Idx);
  });
}

Format denseFormat(int Order, const char *Spec) {
  return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                TensorDistribution::parse(Spec));
}

void scheduleCannon(Tensor &A, Tensor &B, Tensor &C, const Machine &M) {
  IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji"),
      Ko("ko"), Ki("ki"), Kos("kos");
  A(I, J) = B(I, K) * C(K, J);
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M)
      .divide(K, Ko, Ki, M.dimExtent(0))
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .rotate(Ko, {Io, Jo}, Kos)
      .communicate(A, Jo)
      .communicate({B, C}, Kos)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
}

std::map<TensorVar, Region *> Stmt::regions() const {
  std::map<TensorVar, Region *> Map;
  Map[Out->var()] = Out->region();
  for (Tensor *T : Operands)
    Map[T->var()] = T->region();
  return Map;
}

double at2(const Tensor &T, Coord I, Coord J) {
  const Region *R = T.region();
  return R->data()[I * R->strides()[0] + J * R->strides()[1]];
}

double GemmProblem::b(Coord I, Coord K) const {
  return seededValue(Seed, Stream, static_cast<uint64_t>(I * N + K));
}

double GemmProblem::c(Coord K, Coord J) const {
  return seededValue(Seed, Stream + 1, static_cast<uint64_t>(K * N + J));
}

std::vector<double> GemmProblem::reference() const {
  std::vector<double> Bv(N * N), Cv(N * N), Ref(N * N, 0.0);
  for (Coord I = 0; I < N; ++I)
    for (Coord J = 0; J < N; ++J) {
      Bv[I * N + J] = b(I, J);
      Cv[I * N + J] = c(I, J);
    }
  for (Coord I = 0; I < N; ++I)
    for (Coord K = 0; K < N; ++K) {
      double Bik = Bv[I * N + K];
      for (Coord J = 0; J < N; ++J)
        Ref[I * N + J] += Bik * Cv[K * N + J];
    }
  return Ref;
}

Mismatch GemmProblem::check(const std::vector<double> &Ref) const {
  std::vector<double> Got(N * N);
  for (Coord I = 0; I < N; ++I)
    for (Coord J = 0; J < N; ++J)
      Got[I * N + J] = at2(*A, I, J);
  return compareValues(Got.data(), Ref.data(), N * N,
                       sumTolerance(static_cast<double>(N), 0.25));
}

Mismatch GemmProblem::checkSampled(uint64_t Salt, int Count) const {
  Mismatch M;
  for (int S = 0; S < Count; ++S) {
    uint64_t H = splitmix64(Salt * 1315423911u + S);
    Coord I = static_cast<Coord>(H % N), J = static_cast<Coord>((H >> 32) % N);
    double Want = 0;
    for (Coord K = 0; K < N; ++K)
      Want += b(I, K) * c(K, J);
    double Got = at2(*A, I, J);
    mergeMismatch(M,
                  compareValues(&Got, &Want, 1,
                                sumTolerance(static_cast<double>(N), 0.25)),
                  I * N + J);
  }
  return M;
}

std::unique_ptr<GemmProblem> makeGemm(const std::string &Tag, Coord N,
                                      int Grid, uint64_t Seed,
                                      uint64_t Stream) {
  auto G = std::make_unique<GemmProblem>();
  G->M = Machine::grid({Grid, Grid});
  G->N = N;
  G->Seed = Seed;
  G->Stream = Stream;
  Format F = denseFormat(2, "xy->xy");
  G->A = std::make_unique<Tensor>(Tag + "_A", std::vector<Coord>{N, N}, F);
  G->B = std::make_unique<Tensor>(Tag + "_B", std::vector<Coord>{N, N}, F);
  G->C = std::make_unique<Tensor>(Tag + "_C", std::vector<Coord>{N, N}, F);
  fillSeeded(*G->B, Seed, Stream);
  fillSeeded(*G->C, Seed, Stream + 1);
  scheduleCannon(*G->A, *G->B, *G->C, G->M);
  return G;
}

LoopStats closedLoop(double Seconds,
                     const std::function<bool(int64_t, int)> &Request,
                     const std::function<void(int64_t)> &After,
                     SpanLog *Spans) {
  LoopStats L;
  double Start = nowS(), End = Start + Seconds, PrevDone = Start;
  for (int64_t Req = 0; nowS() < End; ++Req) {
    int Root = Spans ? Spans->begin("request", Req) : -1;
    double T0 = Spans ? Spans->spans()[Root].T0 : nowS();
    bool Ok = Request(Req, Root);
    double T1 = nowS();
    if (Spans)
      Spans->end(Root);
    L.GapMs.push_back((T0 - PrevDone) * 1e3);
    L.LatMs.push_back((T1 - T0) * 1e3);
    L.Ok.push_back(Ok);
    L.Failed += Ok ? 0 : 1;
    if (After)
      After(Req);
    PrevDone = nowS();
  }
  return L;
}

void countLoop(const LoopStats &L, Outcome &O) {
  O.Attempted += static_cast<int64_t>(L.LatMs.size());
  O.Failed += L.Failed;
}

bool tracedEvaluate(const Stmt &S, SpanLog &Spans, int64_t Req, int Root) {
  int F = Spans.begin("api.front", Req, Root);
  std::shared_ptr<CompiledPlan> CP = S.Out->compile(S.M);
  std::map<TensorVar, Region *> Regions = S.regions();
  ExecOptions Opts = S.Out->execOptions();
  Opts.Mode = TraceMode::Off;
  Spans.end(F);
  int W = Spans.begin("runtime.submit_wait", Req, Root);
  Status St =
      CP->submit(Regions, Opts, AdmissionQueue::Dispatch::Deferred, CP).wait();
  Spans.end(W);
  return St.ok();
}

void reportLayerTimes(const SpanLog &Log, double TailQ, Report &R) {
  const std::vector<Span> &S = Log.spans();
  std::vector<double> Self = selfTimes(S);
  struct PerReq {
    double Dur = 0, Api = 0, Runtime = 0, Lag = 0, Harness = 0;
  };
  std::map<int, PerReq> Reqs; // Root span index -> attribution.
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I].Parent < 0 && std::strcmp(S[I].Name, "request") == 0) {
      PerReq &P = Reqs[static_cast<int>(I)];
      P.Dur = S[I].T1 - S[I].T0;
      P.Harness = Self[I];
    }
  }
  for (size_t I = 0; I < S.size(); ++I) {
    auto It = Reqs.find(S[I].Parent);
    if (It == Reqs.end())
      continue;
    std::string N = S[I].Name;
    if (N.rfind("api.", 0) == 0)
      It->second.Api += Self[I];
    else if (N.rfind("runtime.", 0) == 0)
      It->second.Runtime += Self[I];
    else
      It->second.Lag += Self[I];
  }
  std::vector<double> Api, Runtime, Loadgen, Dur;
  for (const auto &[Root, P] : Reqs) {
    Api.push_back(P.Api);
    Runtime.push_back(P.Runtime);
    Loadgen.push_back(P.Lag + P.Harness);
    Dur.push_back(P.Dur);
  }
  R.metric("api.front_us", median(Api) * 1e6, "us");
  R.metric("runtime.self_ms", median(Runtime) * 1e3, "ms");
  R.metric("loadgen.self_ms", median(Loadgen) * 1e3, "ms");
  // Where the slowest requests spent their time: the share of the summed
  // latency of requests at or above the tail percentile.
  Percentile Tail = percentile(Dur, TailQ, 0);
  double SumDur = 0, SumApi = 0, SumRt = 0, SumLag = 0;
  for (const auto &[Root, P] : Reqs) {
    if (P.Dur < Tail.Value)
      continue;
    SumDur += P.Dur;
    SumApi += P.Api;
    SumRt += P.Runtime;
    SumLag += P.Lag + P.Harness;
  }
  double Den = SumDur > 0 ? SumDur : 1;
  R.metric("tail.api_frac", SumApi / Den, "frac");
  R.metric("tail.runtime_frac", SumRt / Den, "frac");
  R.metric("tail.lag_frac", SumLag / Den, "frac");
  R.note("traced requests", static_cast<double>(Reqs.size()));
}

double timeMedianMs(const std::function<void()> &Fn, int MinReps,
                    double BudgetS) {
  std::vector<double> Ms;
  double Start = nowS();
  while (static_cast<int>(Ms.size()) < MinReps || nowS() - Start < BudgetS) {
    double T0 = nowS();
    Fn();
    Ms.push_back((nowS() - T0) * 1e3);
    if (Ms.size() >= 10000)
      break;
  }
  return median(Ms);
}

namespace {

/// The tail a client sees in a typical stretch of the run: the requests,
/// in issue order, are cut into up to 10 consecutive groups, each large
/// enough that 10 samples lie beyond its \p Q percentile, and the median
/// of the groups' percentiles is returned. A slow spell on a shared host
/// then moves one group, not the whole figure.
double groupedTail(const std::vector<double> &LatMs, double Q, Report &R) {
  size_t MinGroup = static_cast<size_t>(std::ceil(10 / (1 - Q) - 1e-9));
  size_t Groups = std::clamp<size_t>(LatMs.size() / MinGroup, 1, 10);
  std::vector<double> Tails;
  for (size_t G = 0; G < Groups; ++G) {
    size_t Lo = G * LatMs.size() / Groups, Hi = (G + 1) * LatMs.size() / Groups;
    Tails.push_back(percentile(std::vector<double>(LatMs.begin() + Lo,
                                                   LatMs.begin() + Hi),
                               Q)
                        .Value);
  }
  R.note("lat_tail_ms groups", static_cast<double>(Groups));
  return median(Tails);
}

} // namespace

double notePercentile(Report &R, const std::string &Name,
                      const std::vector<double> &V, double Q) {
  Percentile P = percentile(V, Q);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%.4f ms (n=%lld, %lld beyond)%s", P.Value,
                static_cast<long long>(P.Count),
                static_cast<long long>(P.Beyond),
                P.Reportable ? "" : " NOT REPORTABLE: fewer than 10 beyond");
  R.note(Name, Buf);
  return P.Value;
}

void reportEndToEnd(const EndToEnd &E, Outcome &O) {
  Report &R = O.R;
  double P50 = notePercentile(R, "lat_p50_ms", E.LatMs, 0.5);
  notePercentile(R, E.TailQ >= 0.99 ? "lat_p99_ms" : "lat_p90_ms", E.LatMs,
                 E.TailQ);
  double Tail = groupedTail(E.LatMs, E.TailQ, R);
  R.note("fail_frac",
         O.Attempted > 0 ? static_cast<double>(O.Failed) / O.Attempted : 0);
  R.metric("setup_s", E.SetupS, "s");
  R.metric("lat_p50_ms", P50, "ms");
  R.metric("lat_tail_ms", Tail, "ms");
  R.metric("ops_per_s", E.OpsPerS, "1/s");
  R.metric("gflops", E.OpsPerS * E.FlopsPerOp / 1e9, "GFLOP/s");
  R.metric("goodput_rps", E.GoodputRps, "1/s");
  R.metric("compile_p50_ms", E.CompileP50Ms, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MiB");
}

void runClosedLoop(const Config &C, const std::function<bool()> &Request,
                   const std::function<void(int64_t)> &After,
                   const ColdCompileFn &Cold, std::vector<double> SetupS,
                   const SetupSampleFn &Setup, double SetupEvery,
                   double FlopsPerOp, double LimitMs, Outcome &O) {
  // Warm-up, untimed: right after set-up the first few requests ran up to
  // twice as slow (higher_order) while the set-up rounds' memory settled.
  double WarmEnd = nowS() + 1.5;
  for (int Req = 0; Req < 5 || nowS() < WarmEnd; ++Req)
    O.attempt(Request());
  std::vector<double> CompileMs;
  double NextCompile = 0, NextSetup = nowS() + SetupEvery;
  LoopStats L = closedLoop(
      C.Seconds, [&](int64_t, int) { return Request(); },
      [&](int64_t Req) {
        After(Req);
        if (Setup && nowS() >= NextSetup) {
          SetupS.push_back(Setup(static_cast<int>(SetupS.size())));
          NextSetup = nowS() + SetupEvery;
        }
        if (nowS() < NextCompile)
          return;
        std::function<void()> Compile =
            Cold(static_cast<int>(CompileMs.size()));
        double T0 = nowS();
        Compile();
        CompileMs.push_back((nowS() - T0) * 1e3);
        NextCompile = nowS() + 0.25;
      },
      nullptr);
  countLoop(L, O);
  // One client waits for each request, so it completes 1 / latency
  // requests per second; the median request's rate is the rate of a
  // typical stretch of the run, unmoved by the slow spells a shared host
  // adds (those show in lat_tail_ms). Goodput scales it by the share of
  // requests that succeeded within the limit.
  double P50 = percentile(L.LatMs, 0.5, 0).Value;
  double Good = 0;
  for (size_t I = 0; I < L.LatMs.size(); ++I)
    Good += L.Ok[I] && L.LatMs[I] <= LimitMs;
  double Rate = P50 > 0 ? 1e3 / P50 : 0;
  double GoodShare = L.LatMs.empty() ? 0 : Good / L.LatMs.size();
  EndToEnd E;
  E.SetupS = reportSetup(SetupS, O.R);
  E.LatMs = L.LatMs;
  E.TailQ = 0.9;
  E.OpsPerS = Rate;
  E.FlopsPerOp = FlopsPerOp;
  E.GoodputRps = Rate * GoodShare;
  E.CompileP50Ms = median(CompileMs);
  O.R.note("goodput latency limit (ms)", LimitMs);
  reportEndToEnd(E, O);
}

} // namespace perfbench
