//===- perfbench/higher_order.cpp - The §7.2 kernels -----------*- C++ -*-===//
//
// One closed-loop client; one request is one sweep of TTV, innerprod and
// MTTKRP with the paper's §7.2 schedules through Tensor::evaluate. TTV and
// innerprod stream a 3-tensor larger than the host's last-level cache;
// MTTKRP is sized to cost about as much as TTV. Data movement (region
// gathers, views, reduce-back) and the strided and tape leaf routes do the
// work; blas::gemm does none, so this is the bypass workload for any
// GEMM-kernel change.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>

#include "common.h"

using namespace distal;

namespace perfbench {

namespace {
constexpr int Procs = 4;
constexpr Coord Rank = 16;      ///< MTTKRP factor columns.
constexpr int SetupRounds = 3;
constexpr double LimitMs = 1000; ///< goodput latency limit.

/// Side of the streamed 3-tensor: the smallest multiple of the grid whose
/// tensor exceeds 1.2x the last-level cache (256 when the cache size is
/// unknown), kept within [128, 512] so memory stays bounded.
Coord streamSide(int64_t LlcBytes) {
  if (LlcBytes <= 0)
    return 256;
  double Elems = 1.2 * static_cast<double>(LlcBytes) / 8;
  Coord D = static_cast<Coord>(std::ceil(std::cbrt(Elems)));
  D = (D + Procs - 1) / Procs * Procs;
  return std::clamp<Coord>(D, 128, 512);
}

/// MTTKRP's side, chosen so its 3 * D^3 * Rank flops on the tape leaf cost
/// about what TTV's streaming costs.
Coord mttkrpSide(Coord D) {
  Coord Dm = static_cast<Coord>(D * 0.42);
  return std::max<Coord>(Dm / Procs * Procs, 32);
}

enum Stream : uint64_t { SB = 21, Sc = 22, SC2 = 23, SMB = 24, SMC = 25,
                         SMD = 26 };

struct Sweep {
  uint64_t Seed = 0;
  Coord D = 0, Dm = 0;
  Machine Line = Machine::grid({Procs});
  Machine Square = Machine::grid({2, 2});
  // TTV: A(i,j) = B(i,j,k) c(k). Innerprod: a = B(i,j,k) C2(i,j,k).
  std::unique_ptr<Tensor> A, B, c, a, C2;
  // MTTKRP: Am(i,l) = Bm(i,j,k) Cm(j,l) Dm(k,l).
  std::unique_ptr<Tensor> Am, Bm, Cm, Dmt;
  double InnerRef = 0; ///< Reference innerprod (computed once).

  std::vector<Stmt> stmts() const {
    return {{A.get(), {B.get(), c.get()}, Line},
            {a.get(), {B.get(), C2.get()}, Line},
            {Am.get(), {Bm.get(), Cm.get(), Dmt.get()}, Square}};
  }
  double flops() const {
    return 4.0 * D * D * D + 3.0 * Dm * Dm * Dm * Rank;
  }
  double v(uint64_t S, uint64_t Idx) const { return seededValue(Seed, S, Idx); }
  double ttvRef(Coord I, Coord J) const {
    double S = 0;
    for (Coord K = 0; K < D; ++K)
      S += v(SB, (I * D + J) * D + K) * v(Sc, K);
    return S;
  }
  double mttkrpRef(Coord I, Coord L) const {
    double S = 0;
    for (Coord J = 0; J < Dm; ++J)
      for (Coord K = 0; K < Dm; ++K)
        S += v(SMB, (I * Dm + J) * Dm + K) * v(SMC, J * Rank + L) *
             v(SMD, K * Rank + L);
    return S;
  }
  double innerRef() const {
    double S = 0;
    for (uint64_t I = 0, E = D * D * D; I < E; ++I)
      S += v(SB, I) * v(SC2, I);
    return S;
  }
  double innerGot() const { return a->region()->data()[0]; }

  /// \p Stride > 1 samples every Stride-th output element (offset by Salt).
  Mismatch checkTtv(uint64_t Salt, Coord Stride) const {
    Mismatch M;
    double Tol = sumTolerance(static_cast<double>(D), 0.25);
    for (Coord E = static_cast<Coord>(Salt % Stride); E < D * D; E += Stride) {
      double Want = ttvRef(E / D, E % D), Got = at2(*A, E / D, E % D);
      mergeMismatch(M, compareValues(&Got, &Want, 1, Tol), E);
    }
    return M;
  }
  Mismatch checkMttkrp(uint64_t Salt, Coord Stride) const {
    Mismatch M;
    double Tol = sumTolerance(static_cast<double>(Dm * Dm), 0.125);
    for (Coord E = static_cast<Coord>(Salt % Stride); E < Dm * Rank;
         E += Stride) {
      double Want = mttkrpRef(E / Rank, E % Rank),
             Got = at2(*Am, E / Rank, E % Rank);
      mergeMismatch(M, compareValues(&Got, &Want, 1, Tol), E);
    }
    return M;
  }
  /// Every MTTKRP element, by naive loops over seeded arrays.
  Mismatch checkMttkrpFull() const {
    std::vector<double> Cv(Dm * Rank), Dv(Dm * Rank), Ref(Dm * Rank, 0.0),
        T(Rank);
    for (Coord E = 0; E < Dm * Rank; ++E) {
      Cv[E] = v(SMC, E);
      Dv[E] = v(SMD, E);
    }
    for (Coord I = 0; I < Dm; ++I)
      for (Coord J = 0; J < Dm; ++J) {
        std::fill(T.begin(), T.end(), 0.0);
        for (Coord K = 0; K < Dm; ++K) {
          double Bijk = v(SMB, (I * Dm + J) * Dm + K);
          for (Coord L = 0; L < Rank; ++L)
            T[L] += Bijk * Dv[K * Rank + L];
        }
        for (Coord L = 0; L < Rank; ++L)
          Ref[I * Rank + L] += T[L] * Cv[J * Rank + L];
      }
    std::vector<double> Got(Dm * Rank);
    for (Coord E = 0; E < Dm * Rank; ++E)
      Got[E] = at2(*Am, E / Rank, E % Rank);
    return compareValues(Got.data(), Ref.data(), Dm * Rank,
                         sumTolerance(static_cast<double>(Dm * Dm), 0.125));
  }
  Mismatch checkInner() const {
    double Got = innerGot();
    return compareValues(&Got, &InnerRef, 1,
                         sumTolerance(static_cast<double>(D * D * D), 0.25));
  }
};

Format fmt(int Order, const char *Spec) { return denseFormat(Order, Spec); }

std::unique_ptr<Sweep> makeSweep(const std::string &Tag, uint64_t Seed,
                                 Coord D, Coord Dm) {
  auto S = std::make_unique<Sweep>();
  S->Seed = Seed;
  S->D = D;
  S->Dm = Dm;
  auto T = [&](const char *Name, std::vector<Coord> Dims, const char *Spec) {
    int Order = static_cast<int>(Dims.size());
    return std::make_unique<Tensor>(Tag + "_" + Name, std::move(Dims),
                                    fmt(Order, Spec));
  };
  S->A = T("A", {D, D}, "xy->x");
  S->B = T("B", {D, D, D}, "xyz->x");
  S->c = T("c", {D}, "x->*");
  S->a = T("a", {}, "->0");
  S->C2 = T("C", {D, D, D}, "xyz->x");
  S->Am = T("Am", {Dm, Rank}, "xy->x0");
  S->Bm = T("Bm", {Dm, Dm, Dm}, "xyz->xy");
  S->Cm = T("Cm", {Dm, Rank}, "xy->*x");
  S->Dmt = T("Dm", {Dm, Rank}, "xy->**");
  fillSeeded(*S->B, Seed, SB);
  fillSeeded(*S->c, Seed, Sc);
  fillSeeded(*S->C2, Seed, SC2);
  fillSeeded(*S->Bm, Seed, SMB);
  fillSeeded(*S->Cm, Seed, SMC);
  fillSeeded(*S->Dmt, Seed, SMD);
  IndexVar I("i"), J("j"), K("k"), L("l"), Io("io"), Ii("ii"), Jo("jo"),
      Ji("ji");
  // TTV and innerprod: distribute i; every tile is home-resident, so there
  // is no inter-processor communication (innerprod reduces its scalar).
  (*S->A)(I, J) = (*S->B)(I, J, K) * (*S->c)(K);
  S->A->schedule()
      .distribute({I}, {Io}, {Ii}, S->Line)
      .communicate({*S->A, *S->B, *S->c}, Io)
      .parallelize(Ii);
  (*S->a)() = (*S->B)(I, J, K) * (*S->C2)(I, J, K);
  S->a->schedule()
      .distribute({I}, {Io}, {Ii}, S->Line)
      .communicate({*S->a, *S->B, *S->C2}, Io)
      .parallelize(Ii);
  // MTTKRP (Ballard et al.): B stays in place on the 2-d grid, partial
  // results reduce into the jo = 0 column.
  (*S->Am)(I, L) = (*S->Bm)(I, J, K) * (*S->Cm)(J, L) * (*S->Dmt)(K, L);
  S->Am->schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, S->Square)
      .communicate({*S->Am, *S->Bm, *S->Cm, *S->Dmt}, Jo)
      .parallelize(Ii);
  return S;
}

bool sweep(const Sweep &S) {
  bool Ok = true;
  for (const Stmt &St : S.stmts())
    Ok &= St.Out->tryEvaluate(St.M).ok();
  return Ok;
}

/// Cold Tensor::compile of fresh copies of the sweep's three schedules.
ColdCompileFn coldCompile(uint64_t Seed, Coord D, Coord Dm) {
  return [=](int Rep) -> std::function<void()> {
    std::shared_ptr<Sweep> S =
        makeSweep("cc" + std::to_string(Rep), Seed, D, Dm);
    return [S] {
      for (const Stmt &St : S->stmts())
        (void)St.Out->compile(St.M);
    };
  };
}
} // namespace

Outcome runHigherOrder(const Config &C) {
  Outcome O;
  HostInfo H = hostInfo();
  Coord D = streamSide(H.LlcBytes), Dm = mttkrpSide(D);
  std::unique_ptr<Sweep> S;
  auto Check = [&](const char *What, const Mismatch &M) { O.check(What, M); };
  double InnerRef = 0;
  bool HaveRef = false;
  std::vector<double> SetupS = setupRounds(
      0, C.Trace ? 1 : SetupRounds,
      [&](int Round) -> double {
        S.reset();
        S = makeSweep("h" + std::to_string(Round), C.Seed, D, Dm);
        O.attempt(sweep(*S));
        double T0 = nowS();
        if (!HaveRef) { // Computed once; the harness's cost, not counted.
          InnerRef = S->innerRef();
          HaveRef = true;
        }
        S->InnerRef = InnerRef;
        double Excluded = nowS() - T0;
        Check("setup ttv", S->checkTtv(C.Seed + Round, D * D / 16));
        Check("setup mttkrp", S->checkMttkrp(C.Seed + Round, Dm * Rank / 8));
        Check("setup innerprod", S->checkInner());
        return Excluded;
      });
  // Full references once, after set-up.
  Check("full ttv", S->checkTtv(0, 1));
  Check("full mttkrp", S->checkMttkrpFull());
  char Shape[256];
  std::snprintf(Shape, sizeof(Shape),
                "ttv+innerprod D=%lld (tensor %.1f MiB each, LLC %.1f MiB), "
                "mttkrp D=%lld rank=%lld; closed loop, 1 client",
                static_cast<long long>(D), D * D * D * 8.0 / (1 << 20),
                H.LlcBytes / double(1 << 20), static_cast<long long>(Dm),
                static_cast<long long>(Rank));
  O.R.note("shape", Shape);

  auto After = [&](int64_t Req) {
    Check("sampled ttv", S->checkTtv(C.Seed * 31 + Req, D * D / 32));
    Check("sampled mttkrp", S->checkMttkrp(C.Seed * 31 + Req, Dm * Rank / 8));
    Check("innerprod", S->checkInner());
  };
  if (C.Trace) {
    std::vector<Stmt> Stmts = S->stmts();
    tracedClosedLoops(
        C, [&](int64_t) { return sweep(*S); },
        [&](int64_t Req, SpanLog &Spans, int Root) {
          bool Ok = true;
          for (const Stmt &St : Stmts)
            Ok &= tracedEvaluate(St, Spans, Req, Root);
          return Ok;
        },
        After, O);
    probeLayers(C, {Stmts, Stmts, planTarget(Stmts)}, O);
    probeProgramLayer(C.Seed, O.R);
    return O;
  }

  runClosedLoop(
      C, [&] { return sweep(*S); }, After, coldCompile(C.Seed, D, Dm), SetupS,
      nullptr, 0, S->flops(), LimitMs, O);
  return O;
}

} // namespace perfbench
