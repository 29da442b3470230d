//===-- perfbench/SuiteOracle.cpp - suite_oracle workload -----------------===//
///
/// \file
/// op = one pass of the built-in de facto suite: every test under every
/// preset memory model as exhaustive jobs on a fresh oracle::Oracle with two
/// threads, as `cerb suite defacto` runs it. The seed orders the tests.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "oracle/Oracle.h"
#include "serve/Eval.h"
#include "serve/ResultCache.h"

using namespace cerb;

namespace perfbench {
namespace {

constexpr unsigned OracleThreads = 2;
constexpr unsigned WarmUpPasses = 4;

class SuiteOracle final : public Workload {
public:
  explicit SuiteOracle(uint64_t Seed) : Seed(Seed) {}

  void setUp() override {
    std::vector<defacto::TestCase> Tests = defacto::testSuite();
    Rng R(Seed);
    R.shuffle(Tests);
    Jobs = oracle::Oracle::suiteJobs(Tests, mem::MemoryPolicy::allPresets(),
                                     oracle::JobBudget(),
                                     oracle::Mode::Exhaustive);
    // One pass takes ~35 ms, too short to time steadily as a set-up.
    for (unsigned I = 0; I < WarmUpPasses; ++I)
      runRound();
    Passes.clear();
  }

  RoundResult runRound() override {
    RoundResult R;
    auto Before = trace::Registry::instance().snapshot();
    auto T0 = Clock::now();
    oracle::BatchResult B = [&] {
      trace::Span S("perfbench.oracle.run", "perfbench");
      return oracle::Oracle(oracle::OracleConfig{OracleThreads}).run(Jobs);
    }();
    R.WallMs = msSince(T0);
    R.addOp(R.WallMs, false);
    R.Ops = 1;
    addCounterDeltas(R.Exact, Before);
    check(B);
    R.Exact["paths"] = B.Stats.PathsExplored;
    R.Exact["compile_hits"] = B.Stats.CacheHits;
    R.Exact["compile_misses"] = B.Stats.CacheMisses;
    Passes.push_back(B.Stats);
    return R;
  }

  unsigned roundsFor(unsigned Seconds) const override { return 30 * Seconds; }

  void measureLayers(LayerValues &L,
                     const std::vector<RoundResult> &Rounds) override {
    // One op compiles each test once and explores it under every model.
    StageTotals ST;
    EvalTotals ET;
    double ExploreMs = 0;
    uint64_t Paths = 0, Distinct = 0, Replayed = 0;
    oracle::JobBudget Budget;
    for (const defacto::TestCase &T : defacto::testSuite()) {
      auto Prog = compileByStage(T.Source, ST);
      if (!Prog) {
        fail(T.Name + ": " + Prog.error().str());
        continue;
      }
      for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets()) {
        evaluateAllPaths(*Prog, P, Budget.Limits, Budget.MaxPaths, ET);
        exec::RunOptions O;
        O.Policy = P;
        O.Limits = Budget.Limits;
        O.MaxPaths = Budget.MaxPaths;
        exec::ExhaustiveResult X = timedSpan(
            "perfbench.explore.run", ExploreMs,
            [&] { return exec::runExhaustive(*Prog, O); });
        Paths += X.PathsExplored;
        Distinct += X.Distinct.size();
        Replayed += X.Stats.ReplayedSteps;
      }
    }
    putStageLayers(L, ST, 1);
    putEvalLayers(L, ET, 1);
    putMemLayers(L, Rounds);
    L["explore.paths"] = static_cast<double>(Paths);
    L["explore.replayed_steps"] = static_cast<double>(Replayed);
    L["explore.ms_per_path"] = ExploreMs / Paths;
    L["explore.distinct_per_path"] = static_cast<double>(Distinct) / Paths;

    // The first Rounds.size() passes are the untraced timed ones.
    double N = static_cast<double>(Rounds.size());
    double CompileMs = 0, RunMs = 0, Hits = 0, Misses = 0, Steals = 0;
    for (size_t I = 0; I < Rounds.size(); ++I) {
      const oracle::OracleStats &S = Passes[I];
      CompileMs += S.CompileTotals.totalMs();
      RunMs += S.RunMsTotal;
      Hits += S.CacheHits;
      Misses += S.CacheMisses;
      Steals += S.Steals;
    }
    L["oracle.compile_ms"] = CompileMs / N;
    L["oracle.run_ms"] = RunMs / N;
    L["oracle.compile_hits"] = Hits / N;
    L["oracle.compile_misses"] = Misses / N;
    L["pool.steals"] = Steals / N;
    measureServeLayer(L);
  }

private:
  /// The serve layer's public functions on the suite: each test as an eval
  /// request under all four models (as the daemon receives it), evaluated
  /// to its report on a shared compile cache, stored in and read back from
  /// a memory result cache, and framed and parsed as on the wire. One op
  /// is the whole suite.
  void measureServeLayer(LayerValues &L) {
    oracle::CompileCache Compiles;
    serve::ResultCache Results(serve::CacheConfig{});
    double ProtocolMs = 0, EvalMs = 0;
    for (const defacto::TestCase &T : defacto::testSuite()) {
      serve::EvalRequest Q;
      Q.Id = T.Name;
      Q.Name = T.Name;
      Q.Source = T.Source;
      Q.Policies = mem::MemoryPolicy::allPresets();
      Q.CheckExpect = true;
      std::string Key = serve::cacheKeyMaterial(Q);
      if (Results.get(Key))
        fail(T.Name + ": result cache hit before the first store");
      std::string Report = timedSpan("perfbench.serve.eval", EvalMs, [&] {
        return serve::evaluateToReport(Q, Compiles);
      });
      Results.put(Key, Report);
      if (Results.get(Key) != Report)
        fail(T.Name + ": result cache did not return the stored report");
      bool Parsed = timedSpan("perfbench.serve.protocol", ProtocolMs, [&] {
        serve::serializeEvalRequest(Q);
        auto R = serve::parseResponse(serve::okEvalResponse(Q.Id, Report));
        return R && R->Report == Report;
      });
      if (!Parsed)
        fail(T.Name + ": response did not round-trip");
    }
    serve::CacheStats S = Results.stats();
    L["serve.protocol_us"] = ProtocolMs * 1e3;
    L["serve.eval_ms"] = EvalMs;
    L["serve.result_hits"] = static_cast<double>(S.MemoryHits + S.DiskHits);
    L["serve.result_misses"] = static_cast<double>(S.Misses);
    L["serve.result_stores"] = static_cast<double>(S.Stores);
    L["serve.compile_hits"] = static_cast<double>(Compiles.hits());
  }

  /// Every job completes, and every distinct outcome satisfies the suite's
  /// hand-written expectation for that model.
  void check(const oracle::BatchResult &B) {
    if (B.Results.size() != Jobs.size()) {
      fail("oracle returned " + std::to_string(B.Results.size()) +
           " results for " + std::to_string(Jobs.size()) + " jobs");
      return;
    }
    for (const oracle::JobResult &R : B.Results) {
      std::string Where = R.Name + " under " + R.PolicyName;
      if (R.Status != oracle::JobStatus::Ok)
        fail(Where + ": status " + std::string(jobStatusName(R.Status)));
      const defacto::TestCase *T = defacto::findTest(R.Name);
      auto E = T ? T->Expected.find(R.PolicyName)
                 : std::map<std::string, defacto::Expect>::const_iterator();
      if (!T || E == T->Expected.end()) {
        fail(Where + ": no hand-written expectation");
        continue;
      }
      if (R.Check != oracle::JobResult::Verdict::Pass)
        fail(Where + ": oracle verdict is not pass");
      for (const exec::Outcome &O : R.Outcomes.Distinct)
        if (!E->second.matches(O))
          fail(Where + ": outcome " + O.str() + " does not satisfy " +
               E->second.str());
    }
  }

  uint64_t Seed;
  std::vector<oracle::Job> Jobs;
  std::vector<oracle::OracleStats> Passes; ///< timed passes, for the layers
};

} // namespace

std::unique_ptr<Workload> makeSuiteOracle(uint64_t Seed) {
  return std::make_unique<SuiteOracle>(Seed);
}

} // namespace perfbench
