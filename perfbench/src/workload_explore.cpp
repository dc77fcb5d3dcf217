// explore: repeated genetic design-space searches (explore::Explorer,
// threads = 1), each on a fresh memory-only store. One op is one search.
#include <algorithm>

#include "arch/arch_model.hpp"
#include "artifact/store.hpp"
#include "explore/explorer.hpp"
#include "inputs.hpp"
#include "kir/lower_cdfg.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cgra;

namespace {

/// A round is this fixed suite of searches. The seed orders the suite but
/// does not change it, so the fronts — and the summed cycles and contexts
/// of their schedules — repeat exactly across seeds (README "Inputs").
constexpr unsigned kSearches = 12;
const char* const kKernels[] = {"gcd", "fir", "dotprod"};

struct Search {
  std::uint64_t seed;
  std::string front;  ///< genotype keys and weighted lengths, for the rounds
};

std::string frontSignature(const explore::ExploreReport& r) {
  std::string s;
  for (const explore::CandidateEval& c : r.front)
    s += c.genotype.key() + "=" + std::to_string(c.weightedLength) + ";";
  return s;
}

}  // namespace

Outcome runExplore(const Args& args, Tracer& tracer) {
  Outcome out;
  std::vector<KernelCase> all = bundledCases(42);
  std::vector<KernelCase> cases;
  for (const char* name : kKernels)
    for (KernelCase& k : all)
      if (k.name == name) cases.push_back(std::move(k));
  std::vector<Lowered> lowered;
  for (const KernelCase& k : cases) {
    kir::LoweringResult low = kir::lowerToCdfg(k.source);
    lowered.push_back(Lowered{std::move(low.graph), std::move(low.localToVar)});
  }
  std::vector<explore::ExploreKernel> kernels;
  std::vector<FrontKernel> frontKernels;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    kernels.push_back(explore::ExploreKernel{cases[i].name, &lowered[i].graph, 1.0});
    frontKernels.push_back(FrontKernel{&cases[i], &lowered[i], 1.0});
  }
  std::vector<Search> searches;
  for (unsigned i = 0; i < kSearches; ++i) searches.push_back(Search{deriveSeed(0xE5EA, i), ""});
  Rng rng(deriveSeed(args.seed, 0xE0));
  for (std::size_t i = searches.size(); i > 1; --i)
    std::swap(searches[i - 1], searches[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1))]);

  explore::ExploreOptions opts;
  opts.strategy = "genetic";
  opts.budget = 16;
  opts.population = 4;
  opts.sweep.threads = 1;
  std::map<std::string, double> counts;
  auto search = [&](const Search& s, bool traced) {
    explore::ExploreOptions o = opts;
    o.seed = s.seed;
    artifact::ArtifactStore store;
    const std::uint64_t builds0 = ArchModel::buildsPerformed();
    explore::ExploreReport rep;
    {
      Span sp(tracer, "explore.search");
      rep = explore::Explorer(explore::CompositionSpace{}, kernels, o, &store).run();
    }
    if (traced) {
      counts["explore.evaluations"] += static_cast<double>(rep.counters.evaluations);
      counts["explore.jobs"] += static_cast<double>(rep.counters.jobs);
      counts["explore.memo_hits"] += static_cast<double>(rep.counters.memoHits);
      counts["artifact.store_hits"] += static_cast<double>(store.counters().hits);
      counts["artifact.store_misses"] += static_cast<double>(store.counters().misses);
      counts["arch.model_builds"] += static_cast<double>(ArchModel::buildsPerformed() - builds0);
    }
    return rep;
  };
  out.setupUs = scaledSetupUs();

  // Verification round: every search once, its front fully checked.
  std::map<std::string, FrontSchedule> verified;
  for (Search& s : searches) {
    ++out.attempted;
    const explore::ExploreReport rep = search(s, false);
    const std::string err = checkExploreFront(rep, frontKernels, verified);
    out.check(err.empty(), err);
    s.front = frontSignature(rep);
  }
  for (const auto& [id, fs] : verified) {
    out.simCycles += fs.runCycles;
    out.contexts += fs.contexts;
  }
  out.distinctSchedules = verified.size();

  std::int64_t opId = 0;
  double countedOps = 0;
  const auto rounds = runRounds(args.seconds, 5, args.trace, tracer,
                                [&](bool traced, RoundSample& r, Chunker& chunker) {
    for (const Search& s : searches) {
      chunker.checkpoint();  // one search is a few milliseconds
      tracer.setOp(opId++);
      const double t0 = threadCpuUs();
      const explore::ExploreReport rep = search(s, traced);
      const double t1 = threadCpuUs();
      r.latUs.push_back(t1 - t0);
      r.elapsedUs += t1 - t0;
      ++out.attempted;
      out.check(frontSignature(rep) == s.front, "explore: front changed between rounds");
      if (traced) countedOps += 1;
    }
  });
  out.time = summarize(rounds, false);
  if (args.trace) finishTrace(out, rounds, counts, countedOps);
  return out;
}

}  // namespace perfbench
