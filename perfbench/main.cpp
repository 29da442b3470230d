//===-- perfbench/main.cpp - Fixed-work benchmark entry point -------------===//
///
/// \file
/// perfbench --workload W --seed N --seconds S --trace 0|1
///           [--git-sha SHA] [--trace-file PATH]
///
/// Sets the workload up several times (set-up time is the median), runs a
/// fixed number of timed rounds derived from --seconds (never "as many as
/// fit"), checks the outputs and that every round's exact counts agree, and
/// prints one JSON object as the last line of stdout. --trace 0 reports the
/// end-to-end metrics; --trace 1 additionally runs traced rounds and the
/// layer-by-layer pass and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// Set-ups per run; set-up time is reported as their median.
constexpr unsigned SetUps = 5;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string GitSha = "unknown";
  std::string TraceFile;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = static_cast<unsigned>(std::stoul(V));
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--git-sha")
      A.GitSha = V;
    else if (K == "--trace-file")
      A.TraceFile = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "suite_oracle")
    return makeSuiteOracle(Seed);
  if (Name == "explore_orders")
    return makeExploreOrders(Seed);
  if (Name == "fuzz_models")
    return makeFuzzModels(Seed);
  return nullptr;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of sorted \p V.
double percentile(const std::vector<double> &V, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::max<size_t>(Rank, 1) - 1];
}

double cpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) { return T.tv_sec * 1e3 + T.tv_usec / 1e3; };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string countsStr(const RoundResult &R) {
  std::string S = "ops=" + std::to_string(R.Ops) +
                  " failed=" + std::to_string(R.Failed);
  for (const auto &[K, V] : R.Exact)
    S += " " + K + "=" + std::to_string(V);
  return S;
}

bool sameCounts(const RoundResult &A, const RoundResult &B) {
  return A.Ops == B.Ops && A.Failed == B.Failed && A.Exact == B.Exact;
}

struct Metric {
  const char *Name;
  const char *Unit;
  double Value;
};

/// Per-layer metric units, in report order.
const std::vector<std::pair<const char *, const char *>> &layerUnits() {
  static const std::vector<std::pair<const char *, const char *>> U = {
      {"cabs.parse_ms", "ms"},          {"ail.desugar_ms", "ms"},
      {"typing.check_ms", "ms"},        {"elab.elaborate_ms", "ms"},
      {"core.rewrite_ms", "ms"},        {"core.lower_ms", "ms"},
      {"core.finish_ms", "ms"},         {"core.rewrites", "count"},
      {"core.lower_folds", "count"},    {"core.pure_nodes", "count"},
      {"exec.eval_ms", "ms"},           {"exec.steps", "count"},
      {"exec.steps_per_ms", "1/ms"},    {"mem.loads", "count"},
      {"mem.stores", "count"},          {"mem.allocs", "count"},
      {"mem.frees", "count"},           {"explore.paths", "count"},
      {"explore.replayed_steps", "count"}, {"explore.ms_per_path", "ms"},
      {"explore.distinct_per_path", "ratio"}, {"oracle.compile_ms", "ms"},
      {"oracle.run_ms", "ms"},          {"oracle.compile_hits", "count"},
      {"oracle.compile_misses", "count"}, {"pool.steals", "count"},
      {"csmith.generate_ms", "ms"},     {"csmith.terminating_ratio", "ratio"},
      {"serve.protocol_us", "us"},      {"serve.eval_ms", "ms"},
      {"serve.result_hits", "count"},   {"serve.result_misses", "count"},
      {"serve.result_stores", "count"}, {"serve.compile_hits", "count"},
      {"trace.overhead_ms_per_op", "ms"},
  };
  return U;
}

std::string jsonNumber(double V) {
  char Buf[64];
  if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof Buf, "%.0f", V);
  else
    std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA] [--trace-file PATH]\n");
    return 2;
  }
  if (!makeWorkload(A.Workload, A.Seed)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::printf("host: cores=%u compiler=\"%s\" build=%s git=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, A.GitSha.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%u trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  cerb::trace::setCurrentThreadName("main");

  std::vector<std::string> Errors;
  auto Check = [&](const Workload &W) {
    for (const std::string &E : W.errors())
      Errors.push_back(E);
  };

  // --- Set-up, several times; the last one is kept for the timed phase.
  std::vector<double> SetUpS;
  std::unique_ptr<Workload> W;
  for (unsigned I = 0; I < SetUps; ++I) {
    W.reset(); // the previous set-up's pool and inputs go first
    auto T0 = Clock::now();
    W = makeWorkload(A.Workload, A.Seed);
    W->setUp();
    SetUpS.push_back(msSince(T0) / 1e3);
    Check(*W);
  }

  // --- Timed phase: a fixed number of identical rounds.
  unsigned Rounds = W->roundsFor(A.Seconds);
  std::vector<RoundResult> Results;
  std::vector<double> RoundMs;
  for (unsigned R = 0; R < Rounds; ++R) {
    double Cpu0 = cpuMs();
    Results.push_back(W->runRound());
    Results.back().CpuMs = cpuMs() - Cpu0;
    RoundMs.push_back(Results.back().WallMs);
  }
  double WallMs = 0;
  for (double Ms : RoundMs)
    WallMs += Ms;
  W->checkAfterRun();
  Check(*W);

  // --- Exact-repeat self-check: every round ran the same operations.
  for (unsigned R = 1; R < Rounds; ++R)
    if (!sameCounts(Results[0], Results[R]))
      Errors.push_back("exact-repeat check: round " + std::to_string(R) +
                       " {" + countsStr(Results[R]) + "} != round 0 {" +
                       countsStr(Results[0]) + "}");
  std::printf("round counts: %s\n", countsStr(Results[0]).c_str());
  std::printf("round ms:");
  for (double Ms : RoundMs)
    std::printf(" %.1f", Ms);
  std::printf("\n");

  uint64_t Ops = 0, Failed = 0;
  double FailedMs = 0;
  for (const RoundResult &R : Results) {
    Ops += R.Ops;
    Failed += R.Failed;
    for (size_t I = 0; I < R.OpMs.size(); ++I)
      if (R.OpFailed[I])
        FailedMs += R.OpMs[I];
  }

  // Contention from the rest of a shared host only ever lengthens a timing,
  // so each op's slower repeats are taken as noise: for every position of
  // the round's op list the faster half of its timings over the rounds is
  // kept, and the time metrics are computed over those kept timings.
  size_t Keep = (Rounds + 1) / 2;
  size_t PerRound = Results[0].OpMs.size();
  for (const RoundResult &R : Results)
    if (R.OpMs.size() != PerRound) {
      Errors.push_back("rounds timed different numbers of ops");
      PerRound = std::min(PerRound, R.OpMs.size());
    }
  std::vector<double> Lat; // kept latencies of the ops that did not fail
  double KeptMs = 0;       // kept latencies of every op, failed ones too
  for (size_t I = 0; I < PerRound; ++I) {
    std::vector<double> Times;
    for (const RoundResult &R : Results)
      Times.push_back(R.OpMs[I]);
    std::sort(Times.begin(), Times.end());
    Times.resize(Keep);
    for (double Ms : Times)
      KeptMs += Ms;
    if (!Results[0].OpFailed[I])
      Lat.insert(Lat.end(), Times.begin(), Times.end());
  }
  // CPU time likewise, over the faster half of the rounds by CPU time.
  std::vector<double> RoundCpu;
  for (const RoundResult &R : Results)
    RoundCpu.push_back(R.CpuMs);
  std::sort(RoundCpu.begin(), RoundCpu.end());
  double KeptCpuMs = 0;
  for (size_t I = 0; I < Keep; ++I)
    KeptCpuMs += RoundCpu[I];

  std::sort(Lat.begin(), Lat.end());
  // The tail is the highest of p90/p99 that leaves at least ten samples
  // beyond it; from --seconds 7 up every workload keeps enough for p90.
  double TailP = Lat.size() >= 1000 ? 0.99 : 0.90;
  if (Lat.size() < 100)
    std::printf("note: %zu kept samples, so the p90 tail has fewer than "
                "ten beyond it\n",
                Lat.size());
  if (Lat.empty() || KeptMs <= 0) {
    Errors.push_back("no op completed");
    Lat.push_back(0);
    KeptMs = 1;
  }
  std::printf("timed: rounds=%u ops=%llu failed=%llu kept_rounds_per_op=%zu "
              "kept_samples=%zu tail=p%.0f wall_s=%.3f "
              "failed_wall_share=%.3f\n",
              Rounds, static_cast<unsigned long long>(Ops),
              static_cast<unsigned long long>(Failed), Keep, Lat.size(),
              TailP * 100, WallMs / 1e3, FailedMs / WallMs);

  std::vector<Metric> Out;
  if (!A.Trace) {
    Out = {
        {"setup_s", "s", median(SetUpS)},
        {"ops_per_s", "1/s", PerRound * Keep / (KeptMs / 1e3)},
        {"op_p50_ms", "ms", percentile(Lat, 0.5)},
        {"op_tail_ms", "ms", percentile(Lat, TailP)},
        {"cpu_ms_per_op", "ms", KeptCpuMs / (Keep * Results[0].Ops)},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
  } else {
    // Traced rounds: the trace session armed, the same operations again.
    unsigned Traced = std::min(Rounds, 3u);
    std::vector<double> TracedMs;
    cerb::trace::start();
    for (unsigned R = 0; R < Traced; ++R) {
      RoundResult TR = W->runRound();
      TracedMs.push_back(TR.WallMs);
      if (!sameCounts(Results[0], TR))
        Errors.push_back("exact-repeat check: traced round {" + countsStr(TR) +
                         "} != round 0");
    }
    LayerValues L;
    L["trace.overhead_ms_per_op"] =
        (median(TracedMs) - median(RoundMs)) / Results[0].Ops;
    W->measureLayers(L, Results);
    cerb::trace::stop();
    Check(*W);
    if (!A.TraceFile.empty()) {
      std::string Err;
      if (!cerb::trace::writeChromeTrace(A.TraceFile, &Err))
        Errors.push_back("chrome trace: " + Err);
      else
        std::printf("chrome trace: %s\n", A.TraceFile.c_str());
    }
    // A layer this workload does not call reports 0 and is marked so.
    std::printf("%-28s %14s  %s\n", "layer metric (per op)", "value", "unit");
    for (const auto &[Name, Unit] : layerUnits()) {
      auto It = L.find(Name);
      double V = It == L.end() ? 0 : It->second;
      std::printf("%-28s %14.6g  %s%s\n", Name, V, Unit,
                  It == L.end() ? "  (not measured here)" : "");
      Out.push_back({Name, Unit, V});
    }
  }

  // Errors can repeat per round; report each distinct one once.
  std::sort(Errors.begin(), Errors.end());
  Errors.erase(std::unique(Errors.begin(), Errors.end()), Errors.end());
  for (const std::string &E : Errors)
    std::printf("CHECK FAILED: %s\n", E.c_str());
  for (const Metric &M : Out)
    if (!A.Trace)
      std::printf("%-14s %14.6f %s\n", M.Name, M.Value, M.Unit);

  std::string J = "{\"correct\": ";
  J += Errors.empty() ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Ops) +
       ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    if (I)
      J += ", ";
    J.append("\"").append(Out[I].Name).append("\": {\"value\": ");
    J.append(jsonNumber(Out[I].Value)).append(", \"unit\": \"");
    J.append(Out[I].Unit).append("\"}");
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return 0;
}
