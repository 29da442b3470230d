//===-- perfbench/Bench.h - Fixed-work benchmark harness --------*- C++ -*-===//
///
/// \file
/// Shared types of the fixed-work benchmark. A workload is a seeded list of
/// operations (one *round*); a run executes untimed warm-up rounds in each
/// set-up and then a fixed number of timed rounds, so every run of a
/// workload at a given seed and length does exactly the same work. Budgets
/// are step and path counts, never wall-clock deadlines, which is what lets
/// the exact counts of two rounds be compared for equality.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/Core.h"
#include "exec/Driver.h"
#include "support/Expected.h"
#include "trace/Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Exact counts of one round (ops, failed, paths, steps, memory actions,
/// cache hits/misses/stores). Every round of one run executes the same
/// operations, so these must be identical between rounds.
using Counts = std::map<std::string, uint64_t>;

struct RoundResult {
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  /// Latency of each op, in the round's op order (the same in every round).
  std::vector<double> OpMs;
  /// Whether the op at the same position of OpMs failed.
  std::vector<bool> OpFailed;
  double WallMs = 0; ///< the round's ops, without the checks that follow
  double CpuMs = 0;  ///< process CPU time of the round, checks included

  void addOp(double Ms, bool Failed) {
    OpMs.push_back(Ms);
    OpFailed.push_back(Failed);
  }
  Counts Exact;
};

/// Per-layer metric values of a traced run, keyed by metric name (units
/// live in main.cpp's table). Every value is per op unless its name says
/// otherwise.
using LayerValues = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs and any long-lived state (the explorer pool), then
  /// runs the untimed warm-up. Called once per Workload object.
  virtual void setUp() = 0;

  /// Runs one round of the fixed op list, timing each op.
  virtual RoundResult runRound() = 0;

  /// Timed rounds for a run of about \p Seconds on the reference host (a
  /// pure function of the argument: the work never depends on a clock).
  virtual unsigned roundsFor(unsigned Seconds) const = 0;

  /// Correctness checks that need the whole timed phase (or a host
  /// compiler) and so run after it. Errors go to errors().
  virtual void checkAfterRun() {}

  /// Calls each layer's public functions on this workload's inputs (one
  /// round's worth), timing them from outside, and fills in the per-layer
  /// metrics. \p Rounds are the untraced timed rounds of this run.
  virtual void measureLayers(LayerValues &L,
                             const std::vector<RoundResult> &Rounds) = 0;

  const std::vector<std::string> &errors() const { return Errors; }

protected:
  void fail(std::string Msg) {
    if (Errors.size() < 20)
      Errors.push_back(std::move(Msg));
  }
  std::vector<std::string> Errors;
};

std::unique_ptr<Workload> makeSuiteOracle(uint64_t Seed);
std::unique_ptr<Workload> makeExploreOrders(uint64_t Seed);
std::unique_ptr<Workload> makeFuzzModels(uint64_t Seed);

//===----------------------------------------------------------------------===//
// Helpers shared by the workloads (Layers.cpp)
//===----------------------------------------------------------------------===//

/// splitmix64: the benchmark's only source of pseudo-randomness, so inputs
/// are a pure function of --seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<unsigned>(I))]);
  }

private:
  uint64_t S;
};

/// Adds the registry deltas of the memory and exploration counters between
/// \p Before and now into \p C.
void addCounterDeltas(Counts &C, const cerb::trace::Registry::Snapshot &Before);

/// Front-half and Core-pass timings of compiling sources stage by stage.
struct StageTotals {
  double ParseMs = 0, DesugarMs = 0, CheckMs = 0, ElaborateMs = 0;
  double RewriteMs = 0, LowerMs = 0, FinishMs = 0;
  uint64_t Rewrites = 0, LowerFolds = 0, PureNodes = 0;
};

/// Compiles \p Src by calling each layer's public function in turn (the
/// same sequence exec::compile runs), adding each stage's time to \p T.
cerb::Expected<cerb::core::CoreProgram> compileByStage(const std::string &Src,
                                                       StageTotals &T);

/// Evaluator totals over runs of single paths.
struct EvalTotals {
  double Ms = 0;
  uint64_t Steps = 0;
};

/// Runs every path of \p Prog under \p Policy with the public Evaluator and
/// TraceScheduler (a serial depth-first walk over decision vectors), adding
/// evaluator time and steps to \p T. \p MaxPaths bounds the walk.
void evaluateAllPaths(const cerb::core::CoreProgram &Prog,
                      const cerb::mem::MemoryPolicy &Policy,
                      const cerb::exec::ExecLimits &Limits, uint64_t MaxPaths,
                      EvalTotals &T);

/// Writes the stage totals, scaled per op, into \p L.
void putStageLayers(LayerValues &L, const StageTotals &T, double Ops);
/// Writes exec.* into \p L, scaled per op.
void putEvalLayers(LayerValues &L, const EvalTotals &T, double Ops);
/// Writes mem.* (per op) from the rounds' exact counts into \p L.
void putMemLayers(LayerValues &L, const std::vector<RoundResult> &Rounds);

/// Records a benchmark span named \p Name (a string literal) around \p F and
/// adds its wall time to \p Ms.
template <typename Fn> auto timedSpan(const char *Name, double &Ms, Fn &&F) {
  cerb::trace::Span S(Name, "perfbench");
  auto T0 = Clock::now();
  auto R = F();
  Ms += msSince(T0);
  return R;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
