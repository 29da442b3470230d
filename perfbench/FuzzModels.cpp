//===-- perfbench/FuzzModels.cpp - fuzz_models workload -------------------===//
///
/// \file
/// op = one csmith-lite program from the fixed seed range 1..64 at size 48:
/// generated, compiled once, and run once (leftmost path) under each of the
/// four preset models, serially, under a fixed step budget and no deadline.
/// The benchmark's --seed only orders the programs, so the set of programs,
/// and with it the set that exhausts the budget, never changes.
///
/// A program fails when its run exhausts the step budget. That happens on
/// every run for the generator fault the README describes (a `for` counter
/// the loop body can assign), so the failed share is fixed.
///
/// After the timed phase every program is built with the host `cc` and
/// run: a terminating program must print what it printed under all four
/// models, and a budget-exhausted one must not finish on the host either.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "csmith/Generator.h"
#include "exec/Evaluator.h"
#include "exec/Pipeline.h"
#include "support/Scheduler.h"
#include "support/Subprocess.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace cerb;

namespace perfbench {
namespace {

constexpr uint64_t FirstProgram = 1, LastProgram = 64;
constexpr unsigned ProgramSize = 48;
/// Over twice the steps of the longest terminating program in the range
/// (218,950 at the time this benchmark was written; see the README).
constexpr uint64_t StepBudget = 500'000;
/// How long a budget-exhausted program gets on the host before it counts as
/// not terminating there either.
constexpr uint64_t HostLoopMs = 300;
constexpr uint64_t HostRunMs = 10'000;

class FuzzModels final : public Workload {
public:
  explicit FuzzModels(uint64_t Seed) : Seed(Seed) {}

  void setUp() override {
    for (uint64_t S = FirstProgram; S <= LastProgram; ++S)
      Order.push_back(S);
    Rng R(Seed);
    R.shuffle(Order);
    runRound();
  }

  RoundResult runRound() override {
    RoundResult Out;
    std::vector<Ran> Done;
    auto Before = trace::Registry::instance().snapshot();
    auto Start = Clock::now();
    for (uint64_t S : Order) {
      auto T0 = Clock::now();
      csmith::GenOptions G;
      G.Seed = S;
      G.Size = ProgramSize;
      Ran D;
      D.Program = S;
      D.Source = [&] {
        trace::Span Sp("perfbench.csmith.generate", "perfbench");
        return csmith::generateProgram(G);
      }();
      auto Prog = [&] {
        trace::Span Sp("perfbench.exec.compile", "perfbench");
        return exec::compile(D.Source);
      }();
      ++Out.Ops;
      if (!Prog) {
        fail("program " + std::to_string(S) + ": " + Prog.error().str());
        ++Out.Failed;
        continue;
      }
      for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets()) {
        trace::Span Sp("perfbench.exec.run", "perfbench");
        LeftmostScheduler Sched;
        exec::Evaluator E(*Prog, Sched, P, limits());
        D.Runs.push_back(E.run());
        D.Steps.push_back(E.steps());
      }
      D.Ms = msSince(T0);
      Done.push_back(std::move(D));
    }
    Out.WallMs = msSince(Start);
    addCounterDeltas(Out.Exact, Before);
    // Checked after the round, so that its time is not counted.
    for (Ran &D : Done)
      check(D, Out);
    return Out;
  }

  unsigned roundsFor(unsigned Seconds) const override {
    return std::max(2u, (2 * Seconds + 4) / 5);
  }

  void checkAfterRun() override {
    if (!cerb::captureCommand("cc --version")) {
      fail("host C compiler `cc` not found");
      return;
    }
    namespace fs = std::filesystem;
    fs::path Dir = fs::path(".bench_build") / "run" /
                   ("fuzz-" + std::to_string(::getpid()));
    fs::create_directories(Dir);
    std::vector<const std::pair<const uint64_t, Result> *> Items;
    for (const auto &KV : Results)
      Items.push_back(&KV);
    // Two host workers: compiling 64 programs serially takes seconds.
    std::vector<std::string> Errs[2];
    auto Work = [&](unsigned Me) {
      for (size_t I = Me; I < Items.size(); I += 2) {
        const auto &[S, Res] = *Items[I];
        std::string Base = (Dir / std::to_string(S)).string();
        std::ofstream(Base + ".c") << Res.Source;
        if (!cerb::captureCommand("cc -O1 -w -o " + Base + " " + Base + ".c")) {
          Errs[Me].push_back("program " + std::to_string(S) +
                             ": host cc failed");
          continue;
        }
        bool TimedOut = false;
        auto Host = cerb::captureCommand(
            Base, Res.Exhausted ? HostLoopMs : HostRunMs, &TimedOut);
        if (Res.Exhausted && !TimedOut)
          Errs[Me].push_back("program " + std::to_string(S) +
                             ": exhausted the step budget but terminates "
                             "on the host");
        if (!Res.Exhausted && (!Host || *Host != Res.Stdout))
          Errs[Me].push_back("program " + std::to_string(S) +
                             ": host output differs from the models'");
      }
    };
    std::thread Helper(Work, 1);
    Work(0);
    Helper.join();
    fs::remove_all(Dir);
    std::printf("fuzz_models: step budget %llu, longest terminating run "
                "%llu steps\n",
                static_cast<unsigned long long>(StepBudget),
                static_cast<unsigned long long>(LongestSteps));
    for (auto &E : Errs)
      for (std::string &M : E)
        fail(std::move(M));
  }

  void measureLayers(LayerValues &L,
                     const std::vector<RoundResult> &Rounds) override {
    StageTotals ST;
    EvalTotals ET;
    double GenMs = 0;
    uint64_t Terminating = 0;
    for (uint64_t S : Order) {
      csmith::GenOptions G;
      G.Seed = S;
      G.Size = ProgramSize;
      std::string Src = timedSpan("perfbench.csmith.generate", GenMs,
                                  [&] { return csmith::generateProgram(G); });
      auto Prog = compileByStage(Src, ST);
      if (!Prog)
        continue;
      for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
        evaluateAllPaths(*Prog, P, limits(), 1, ET);
      Terminating += !Results[S].Exhausted;
    }
    double Ops = static_cast<double>(Order.size());
    putStageLayers(L, ST, Ops);
    putEvalLayers(L, ET, Ops);
    putMemLayers(L, Rounds);
    L["csmith.generate_ms"] = GenMs / Ops;
    L["csmith.terminating_ratio"] = Terminating / Ops;
  }

private:
  static exec::ExecLimits limits() {
    exec::ExecLimits L;
    L.MaxSteps = StepBudget;
    return L;
  }

  struct Result {
    std::string Source;
    std::string Stdout;
    bool Exhausted = false;
  };

  /// One compiled program's runs under the four models, in a round.
  struct Ran {
    uint64_t Program = 0;
    std::string Source;
    std::vector<exec::Outcome> Runs;
    std::vector<uint64_t> Steps;
    double Ms = 0;
  };

  /// Counts \p D into \p Out (failed when a run exhausted the step
  /// budget) and checks that the models agree and exit 0.
  void check(Ran &D, RoundResult &Out) {
    std::string Name = "program " + std::to_string(D.Program);
    unsigned Exhausted = 0;
    for (size_t I = 0; I < D.Runs.size(); ++I) {
      Out.Exact["steps"] += D.Steps[I];
      if (D.Runs[I].Kind == exec::OutcomeKind::StepLimit)
        ++Exhausted;
      else if (D.Steps[I] > LongestSteps)
        LongestSteps = D.Steps[I];
    }
    Result &Res = Results[D.Program];
    Res.Source = std::move(D.Source);
    if (Exhausted) {
      ++Out.Failed;
      Out.addOp(D.Ms, true);
      if (Exhausted != D.Runs.size())
        fail(Name + ": step budget exhausted under some models only");
      Res.Exhausted = true;
      return;
    }
    Out.addOp(D.Ms, false);
    const std::string &Stdout = D.Runs[0].Stdout;
    if (!Res.Stdout.empty() && Res.Stdout != Stdout)
      fail(Name + ": output changed between rounds");
    Res.Stdout = Stdout;
    for (const exec::Outcome &O : D.Runs)
      if (O.Kind != exec::OutcomeKind::Exit || O.ExitCode != 0 ||
          O.Stdout != Stdout)
        fail(Name + ": models disagree or a run did not exit 0: " + O.str());
  }

  uint64_t Seed;
  std::vector<uint64_t> Order;
  std::map<uint64_t, Result> Results;
  uint64_t LongestSteps = 0; ///< longest single run that terminated
};

} // namespace

std::unique_ptr<Workload> makeFuzzModels(uint64_t Seed) {
  return std::make_unique<FuzzModels>(Seed);
}

} // namespace perfbench
