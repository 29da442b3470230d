//===-- perfbench/ExploreOrders.cpp - explore_orders workload -------------===//
///
/// \file
/// op = compile plus complete exhaustive exploration of one generated
/// program on a pool of two explorer threads. Each program's main holds k
/// statements `f(x) + g(y);` (two orders each, so 2^k paths), and both
/// calls run a short loop over a global. A round holds one program per
/// family and k in [4, 8]:
///
///  - conflicting: f and g update the same global, so the outcome depends
///    on the orders (up to 2^k distinct outcomes);
///  - commuting: f and g update disjoint globals, so there is one outcome;
///  - racing: the last statement is `(R = f(x)) + (R = g(y));`, an
///    unsequenced write pair on R, so every path ends in Unsequenced_race.
///
/// The seed picks the initial values, multipliers and call arguments; the
/// shape (family, k, loop length) is fixed so every seed costs the same.
/// The expected outcome set is computed here by enumerating every operand
/// order with 32-bit unsigned arithmetic, apart from the semantics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/Pipeline.h"
#include "support/ThreadPool.h"

#include <set>

using namespace cerb;

namespace perfbench {
namespace {

constexpr unsigned ExploreThreads = 2;
constexpr unsigned MinK = 4, MaxK = 8;
constexpr unsigned LoopLen = 3;

enum class Family { Conflicting, Commuting, Racing };
constexpr Family Families[] = {Family::Conflicting, Family::Commuting,
                               Family::Racing};

struct Program {
  std::string Name;
  std::string Source;
  bool Racing = false;
  /// Expected stdout of every path (empty for the racing family).
  std::set<std::string> Expected;
};

std::string u(uint32_t V) { return std::to_string(V) + "u"; }

Program makeProgram(Family F, unsigned K, Rng &R) {
  uint32_t A0 = 1 + R.below(1000), B0 = 1 + R.below(1000);
  uint32_t M1 = 3 + 2 * R.below(48), M2 = 3 + 2 * R.below(48);
  std::vector<uint32_t> X(K), Y(K);
  for (unsigned I = 0; I < K; ++I) {
    X[I] = 1 + R.below(50);
    Y[I] = 1 + R.below(50);
  }
  // g's global: the same one as f's unless the orders commute.
  const char *GVar = F == Family::Commuting ? "B" : "A";

  Program P;
  P.Racing = F == Family::Racing;
  P.Name = std::string(F == Family::Conflicting ? "conflicting"
                       : F == Family::Commuting ? "commuting"
                                                : "racing") +
           "-k" + std::to_string(K);
  std::string S = "#include <stdio.h>\n";
  S += "unsigned A = " + u(A0) + ";\nunsigned B = " + u(B0) +
       ";\nunsigned R = 0u;\n";
  S += "unsigned f(unsigned x) { unsigned i; for (i = 0u; i < " + u(LoopLen) +
       "; i++) A = A * " + u(M1) + " + x; return 0u; }\n";
  S += std::string("unsigned g(unsigned y) { unsigned i; for (i = 0u; i < ") +
       u(LoopLen) + "; i++) " + GVar + " = (" + GVar + " ^ y) * " + u(M2) +
       "; return 0u; }\n";
  S += "int main(void) {\n";
  for (unsigned I = 0; I < K; ++I)
    S += P.Racing && I + 1 == K
             ? "  (R = f(" + u(X[I]) + ")) + (R = g(" + u(Y[I]) + "));\n"
             : "  f(" + u(X[I]) + ") + g(" + u(Y[I]) + ");\n";
  S += "  printf(\"%u %u %u\\n\", A, B, R);\n  return 0;\n}\n";
  P.Source = std::move(S);

  if (!P.Racing)
    for (uint32_t Orders = 0; Orders < (1u << K); ++Orders) {
      uint32_t A = A0, B = B0;
      uint32_t &G = F == Family::Commuting ? B : A;
      for (unsigned I = 0; I < K; ++I) {
        auto CallF = [&] {
          for (unsigned L = 0; L < LoopLen; ++L)
            A = A * M1 + X[I];
        };
        auto CallG = [&] {
          for (unsigned L = 0; L < LoopLen; ++L)
            G = (G ^ Y[I]) * M2;
        };
        if (Orders >> I & 1) {
          CallG();
          CallF();
        } else {
          CallF();
          CallG();
        }
      }
      P.Expected.insert(std::to_string(A) + " " + std::to_string(B) + " 0\n");
    }
  return P;
}

class ExploreOrders final : public Workload {
public:
  explicit ExploreOrders(uint64_t Seed) : Seed(Seed) {}

  void setUp() override {
    Rng R(Seed);
    for (Family F : Families)
      for (unsigned K = MinK; K <= MaxK; ++K)
        Programs.push_back(makeProgram(F, K, R));
    R.shuffle(Programs);
    Pool = std::make_unique<ThreadPool>(ExploreThreads);
    runRound();
  }

  RoundResult runRound() override {
    RoundResult Out;
    std::vector<std::pair<const Program *, exec::ExhaustiveResult>> Explored;
    auto Before = trace::Registry::instance().snapshot();
    auto Start = Clock::now();
    for (const Program &P : Programs) {
      auto T0 = Clock::now();
      auto Prog = [&] {
        trace::Span S("perfbench.exec.compile", "perfbench");
        return exec::compile(P.Source);
      }();
      if (!Prog) {
        fail(P.Name + ": " + Prog.error().str());
        Out.addOp(msSince(T0), true);
        ++Out.Ops;
        ++Out.Failed;
        continue;
      }
      exec::ExhaustiveResult X = [&] {
        trace::Span S("perfbench.exec.explore", "perfbench");
        return exec::runExhaustiveOn(*Prog, options(), *Pool);
      }();
      Out.addOp(msSince(T0), false);
      ++Out.Ops;
      Explored.emplace_back(&P, std::move(X));
    }
    Out.WallMs = msSince(Start);
    addCounterDeltas(Out.Exact, Before);
    // Checked after the round, so that its time is not counted.
    for (const auto &[P, X] : Explored) {
      check(*P, X);
      Out.Exact["paths"] += X.PathsExplored;
      Out.Exact["distinct"] += X.Distinct.size();
    }
    return Out;
  }

  unsigned roundsFor(unsigned Seconds) const override { return 2 * Seconds; }

  void measureLayers(LayerValues &L,
                     const std::vector<RoundResult> &Rounds) override {
    StageTotals ST;
    EvalTotals ET;
    double ExploreMs = 0;
    uint64_t Paths = 0, Distinct = 0, Replayed = 0;
    uint64_t Steals0 = Pool->stealCount();
    exec::RunOptions O = options();
    for (const Program &P : Programs) {
      auto Prog = compileByStage(P.Source, ST);
      if (!Prog) {
        fail(P.Name + ": " + Prog.error().str());
        continue;
      }
      evaluateAllPaths(*Prog, O.Policy, O.Limits, O.MaxPaths, ET);
      exec::ExhaustiveResult X =
          timedSpan("perfbench.explore.run", ExploreMs,
                    [&] { return exec::runExhaustiveOn(*Prog, O, *Pool); });
      Paths += X.PathsExplored;
      Distinct += X.Distinct.size();
      Replayed += X.Stats.ReplayedSteps;
    }
    double Ops = static_cast<double>(Programs.size());
    putStageLayers(L, ST, Ops);
    putEvalLayers(L, ET, Ops);
    putMemLayers(L, Rounds);
    L["explore.paths"] = Paths / Ops;
    L["explore.replayed_steps"] = Replayed / Ops;
    L["explore.ms_per_path"] = ExploreMs / Paths;
    L["explore.distinct_per_path"] = static_cast<double>(Distinct) / Paths;
    L["pool.steals"] = (Pool->stealCount() - Steals0) / Ops;
  }

private:
  /// The de facto model with the default step and path budgets (4096
  /// paths, well above the 2^8 of the largest program).
  static exec::RunOptions options() { return exec::RunOptions(); }

  /// Complete exploration, and the outcome set the enumeration predicts.
  void check(const Program &P, const exec::ExhaustiveResult &X) {
    if (X.Truncated || X.TimedOut)
      fail(P.Name + ": exploration did not complete");
    if (P.Racing) {
      if (!X.hasUndef(mem::UBKind::UnsequencedRace))
        fail(P.Name + ": no Unsequenced_race outcome");
      for (const exec::Outcome &O : X.Distinct)
        if (!O.isUndef(mem::UBKind::UnsequencedRace))
          fail(P.Name + ": unexpected outcome " + O.str());
      return;
    }
    std::set<std::string> Got;
    for (const exec::Outcome &O : X.Distinct) {
      if (O.Kind != exec::OutcomeKind::Exit || O.ExitCode != 0)
        fail(P.Name + ": unexpected outcome " + O.str());
      Got.insert(O.Stdout);
    }
    if (Got != P.Expected)
      fail(P.Name + ": " + std::to_string(Got.size()) +
           " distinct outputs, enumeration expects " +
           std::to_string(P.Expected.size()));
  }

  uint64_t Seed;
  std::vector<Program> Programs;
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace

std::unique_ptr<Workload> makeExploreOrders(uint64_t Seed) {
  return std::make_unique<ExploreOrders>(Seed);
}

} // namespace perfbench
