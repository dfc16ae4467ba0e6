//===- perfbench/main.cpp - End-to-end benchmark entry point ---*- C++ -*-===//
//
// distal_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Lines before it
// ("# key: value") record the host, the settings, and every metric under
// the names the workload documentation uses. Exit codes: 0 success, 1 an
// output disagreed with its reference, 2 bad arguments, 3 an armed
// environment variable would change the measured program.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "distal_perfbench: %s\nusage: distal_perfbench --workload "
               "gemm_cannon|higher_order|program_chain|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      C.Trace = V == "1";
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
    } else if (A == "--spans") {
      C.SpansOut = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
    if (End && *End)
      return usage(("malformed number for " + A).c_str());
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  if (!(C.Seconds > 0 && C.Seconds <= 600))
    return usage("--seconds must be in (0, 600]");

  std::string Armed = armedEnvGuard();
  if (!Armed.empty()) {
    std::fprintf(stderr,
                 "distal_perfbench: %s is set; it changes the program being "
                 "measured, so no result is reported\n",
                 Armed.c_str());
    return 3;
  }

  HostInfo H = hostInfo();
  // Load comes from this one process. A request waits for its slowest
  // task, so on a shared host a core lost to another tenant stalls the
  // whole request: a closed loop spread over 2 threads saw its p90 wander
  // twice as far from run to run as the same loop on 1 thread. gemm_cannon
  // and program_chain therefore run the engine on their one client thread
  // (parallel speed-up is still probed in the traced run,
  // runtime.parallel_eff). higher_order keeps nproc / 2: on 1 thread a
  // sweep takes about 250 ms, too few requests per run for a reportable
  // p90. serve_mixed needs a worker to run evaluateAsync in the
  // background: a pool of N threads spawns N - 1 workers, so it gets
  // nproc / 2 (at least 2) beside its request generator and compile
  // stream; its completion collector only blocks on futures.
  int PoolThreads = 1;
  if (C.Workload == "higher_order")
    PoolThreads = std::max(1, H.NProc / 2);
  else if (C.Workload == "serve_mixed")
    PoolThreads = std::max(2, H.NProc / 2);
  setenv("DISTAL_NUM_THREADS", std::to_string(PoolThreads).c_str(), 1);

  Outcome O;
  try {
    if (C.Workload == "gemm_cannon")
      O = runGemmCannon(C);
    else if (C.Workload == "higher_order")
      O = runHigherOrder(C);
    else if (C.Workload == "program_chain")
      O = runProgramChain(C);
    else if (C.Workload == "serve_mixed")
      O = runServeMixed(C);
    else
      return usage(("unknown workload " + C.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "distal_perfbench: %s failed: %s\n",
                 C.Workload.c_str(), E.what());
    return 1;
  }

  Report &R = O.R;
  R.note("workload", C.Workload + " seed=" + std::to_string(C.Seed) +
                         " seconds=" + std::to_string(C.Seconds) +
                         " trace=" + (C.Trace ? "1" : "0"));
  R.note("host", "nproc=" + std::to_string(H.NProc) +
                     " llc_bytes=" + std::to_string(H.LlcBytes) +
                     " build=" + H.BuildType + " march=" + H.March);
  R.note("load average (1 min) at start", H.LoadAvg1);
  R.note("DISTAL_NUM_THREADS", std::to_string(PoolThreads));
  bool Correct = O.Mismatched == 0;
  if (!Correct)
    R.note("reference checks failed", std::to_string(O.Mismatched));
  R.print(Correct, O.Attempted, O.Failed);
  return Correct ? 0 : 1;
}
