//===-- perfbench/Layers.cpp - Layer-by-layer timing helpers --------------===//
///
/// \file
/// Calls each layer's public function directly, so the traced run can time
/// the layers from outside the library: the front half stage by stage, the
/// Core passes, and the evaluator one path at a time.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ail/Desugar.h"
#include "cabs/Parser.h"
#include "core/Lowering.h"
#include "elab/Elaborate.h"
#include "exec/Evaluator.h"
#include "exec/Pipeline.h"
#include "support/Scheduler.h"
#include "typing/TypeCheck.h"

using namespace cerb;

namespace perfbench {

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void addCounterDeltas(Counts &C, const trace::Registry::Snapshot &Before) {
  static const char *const Names[] = {"mem.loads",     "mem.stores",
                                      "mem.allocs",    "mem.frees",
                                      "explore.paths", "exec.eval_runs"};
  const trace::Registry::Snapshot After =
      trace::Registry::instance().snapshot();
  auto Get = [](const trace::Registry::Snapshot &S, const char *N) {
    auto It = S.find(N);
    return It == S.end() ? uint64_t(0) : It->second;
  };
  for (const char *N : Names)
    C[N] += Get(After, N) - Get(Before, N);
}

Expected<core::CoreProgram> compileByStage(const std::string &Src,
                                           StageTotals &T) {
  auto Unit = timedSpan("perfbench.cabs.parse", T.ParseMs,
                        [&] { return cabs::parseTranslationUnit(Src); });
  if (!Unit)
    return Unit.takeError();
  auto Ail = timedSpan("perfbench.ail.desugar", T.DesugarMs,
                       [&] { return ail::desugar(*Unit); });
  if (!Ail)
    return Ail.takeError();
  auto Checked = timedSpan("perfbench.typing.check", T.CheckMs,
                           [&] { return typing::typeCheck(*Ail); });
  if (!Checked)
    return Checked.error();
  auto Prog = timedSpan("perfbench.elab.elaborate", T.ElaborateMs,
                        [&] { return elab::elaborate(std::move(*Ail)); });
  if (!Prog)
    return Prog.takeError();
  core::RewriteStats RS = timedSpan("perfbench.core.rewrite", T.RewriteMs,
                                    [&] { return core::rewrite(*Prog); });
  T.Rewrites += RS.PureLetsInlined + RS.ConstIfsFolded + RS.UnseqSingletons +
                RS.SkipSeqsDropped;
  if (exec::FrontendOptions().CoreLower) {
    core::LoweringStats LS = timedSpan("perfbench.core.lower", T.LowerMs,
                                       [&] { return core::lower(*Prog); });
    T.LowerFolds += LS.ConstFolds;
    T.PureNodes += LS.PureNodes;
  }
  auto TypeErr = timedSpan("perfbench.core.finish", T.FinishMs, [&] {
    auto E = core::typeCheck(*Prog);
    if (!E)
      core::warmDynamicsCaches(*Prog);
    return E;
  });
  if (TypeErr)
    return err("Core type checking failed: " + *TypeErr);
  return std::move(*Prog);
}

void evaluateAllPaths(const core::CoreProgram &Prog,
                      const mem::MemoryPolicy &Policy,
                      const exec::ExecLimits &Limits, uint64_t MaxPaths,
                      EvalTotals &T) {
  trace::Span S("perfbench.exec.paths", "perfbench");
  // Depth-first over decision vectors, as exec::Driver partitions them: a
  // prefix replays its choices and continues leftmost, and every untried
  // alternative beyond the prefix becomes a new prefix.
  std::vector<std::vector<unsigned>> Todo(1);
  for (uint64_t Paths = 0; !Todo.empty() && Paths < MaxPaths; ++Paths) {
    std::vector<unsigned> Prefix = std::move(Todo.back());
    Todo.pop_back();
    TraceScheduler Sched(Prefix);
    exec::Evaluator E(Prog, Sched, Policy, Limits);
    auto T0 = Clock::now();
    E.run();
    T.Ms += msSince(T0);
    T.Steps += E.steps();
    const std::vector<unsigned> &Taken = Sched.trace();
    const std::vector<unsigned> &Widths = Sched.widths();
    for (size_t D = Prefix.size(); D < Taken.size(); ++D)
      for (unsigned Alt = Taken[D] + 1; Alt < Widths[D]; ++Alt) {
        std::vector<unsigned> Next(Taken.begin(), Taken.begin() + D);
        Next.push_back(Alt);
        Todo.push_back(std::move(Next));
      }
  }
}

void putStageLayers(LayerValues &L, const StageTotals &T, double Ops) {
  L["cabs.parse_ms"] = T.ParseMs / Ops;
  L["ail.desugar_ms"] = T.DesugarMs / Ops;
  L["typing.check_ms"] = T.CheckMs / Ops;
  L["elab.elaborate_ms"] = T.ElaborateMs / Ops;
  L["core.rewrite_ms"] = T.RewriteMs / Ops;
  L["core.lower_ms"] = T.LowerMs / Ops;
  L["core.finish_ms"] = T.FinishMs / Ops;
  L["core.rewrites"] = T.Rewrites / Ops;
  L["core.lower_folds"] = T.LowerFolds / Ops;
  L["core.pure_nodes"] = T.PureNodes / Ops;
}

void putEvalLayers(LayerValues &L, const EvalTotals &T, double Ops) {
  L["exec.eval_ms"] = T.Ms / Ops;
  L["exec.steps"] = T.Steps / Ops;
  L["exec.steps_per_ms"] = T.Ms > 0 ? T.Steps / T.Ms : 0;
}

static uint64_t sumCount(const std::vector<RoundResult> &Rounds,
                         const char *Name) {
  uint64_t N = 0;
  for (const RoundResult &R : Rounds) {
    auto It = R.Exact.find(Name);
    if (It != R.Exact.end())
      N += It->second;
  }
  return N;
}

static uint64_t sumOps(const std::vector<RoundResult> &Rounds) {
  uint64_t N = 0;
  for (const RoundResult &R : Rounds)
    N += R.Ops;
  return N;
}

void putMemLayers(LayerValues &L, const std::vector<RoundResult> &Rounds) {
  double Ops = static_cast<double>(sumOps(Rounds));
  for (const char *N : {"mem.loads", "mem.stores", "mem.allocs", "mem.frees"})
    L[N] = sumCount(Rounds, N) / Ops;
}

} // namespace perfbench
