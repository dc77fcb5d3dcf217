// compile-cold: single-threaded, no store, no wire. One op compiles one
// (kernel, composition) job through every compiler layer and runs the
// generated code on the simulator.
#include <algorithm>

#include "arch/arch_model.hpp"
#include "ctx/contexts.hpp"
#include "ctx/regalloc.hpp"
#include "ctx/serialize.hpp"
#include "inputs.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/job_key.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cgra;

namespace {

/// The bundled kernels keep the inputs the compile service uses: their
/// data-dependent loops would otherwise move the summed cycles with the
/// seed. The seed drives the suite kernels' data and the job order.
constexpr std::uint64_t kBundledSeed = 42;

/// Ops between two reference slices (a few milliseconds of compiling).
constexpr std::size_t kChunkOps = 16;

struct Job {
  const KernelCase* kernel;
  const Composition* comp;
  // Recorded by the verification round:
  std::uint64_t fingerprint = 0;
  std::uint64_t runCycles = 0;
  unsigned length = 0;
};

struct OpProducts {
  Lowered lowered;
  ScheduleReport report;
  std::string images;  ///< serialized context images (JSON text)
  HostMemory heap;
  SimResult sim;
};

OpProducts compileAndRun(const Job& job, Tracer& tracer) {
  OpProducts p;
  Span op(tracer, "op");
  kir::FrontendResult fe;
  {
    Span s(tracer, "kir.frontend");
    fe = kir::runFrontendPipeline(job.kernel->source);
  }
  {
    Span s(tracer, "kir.lower");
    kir::LoweringResult low = kir::lowerToCdfg(fe.fn);
    p.lowered = Lowered{std::move(low.graph), std::move(low.localToVar)};
  }
  std::string key;
  {
    Span s(tracer, "sched.key");
    key = scheduleJobKey(*job.comp, p.lowered.graph, SchedulerOptions{});
  }
  {
    Span s(tracer, "sched.schedule");
    p.report = Scheduler(*job.comp).schedule(ScheduleRequest(p.lowered.graph));
  }
  if (!p.report.ok) return p;
  {
    Span s(tracer, "ctx.regalloc");
    const RegAllocation alloc = allocateRegisters(p.report.schedule, *job.comp);
    (void)alloc;
  }
  ContextImages images;
  {
    Span s(tracer, "ctx.contexts");
    images = generateContexts(p.report.schedule, *job.comp);
  }
  json::Value doc;
  {
    Span s(tracer, "ctx.serialize");
    doc = contextImagesToJson(images);
  }
  {
    Span s(tracer, "json.dump");
    p.images = doc.dump(0);
  }
  std::map<VarId, std::int32_t> liveIns;
  for (std::size_t l = 0; l < p.lowered.localToVar.size() &&
                          l < job.kernel->initialLocals.size(); ++l)
    liveIns[p.lowered.localToVar[l]] = job.kernel->initialLocals[l];
  p.heap = job.kernel->heap;
  {
    Span s(tracer, "sim.run");
    p.sim = Simulator(*job.comp, p.report.schedule).run(liveIns, p.heap);
  }
  return p;
}

}  // namespace

Outcome runCompileCold(const Args& args, Tracer& tracer) {
  Outcome out;
  const auto comps = paperCompositions();
  for (const auto& [name, comp] : comps) ArchModel::get(comp);
  std::vector<KernelCase> cases = bundledCases(kBundledSeed);
  for (KernelCase& k : suiteCases(args.seed)) cases.push_back(std::move(k));

  Rng rng(deriveSeed(args.seed, 0xC01D));
  std::vector<Job> jobs;
  for (const KernelCase& k : cases)
    for (const auto& [name, comp] : comps) jobs.push_back(Job{&k, &comp});
  for (std::size_t i = jobs.size(); i > 1; --i)
    std::swap(jobs[i - 1], jobs[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  out.setupUs = scaledSetupUs();

  // Verification round: every job once, fully checked, untimed.
  for (Job& job : jobs) {
    ++out.attempted;
    const std::string where = job.kernel->name + " on " + job.comp->name();
    OpProducts p;
    try {
      p = compileAndRun(job, tracer);
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, where + ": " + e.what());
      continue;
    }
    if (!p.report.ok) {
      ++out.failed;
      out.check(false, where + ": " + p.report.failure.message);
      continue;
    }
    out.check(compareWithGolden(*job.kernel, p.lowered, p.heap, p.sim.liveOuts).empty(),
              where + ": simulated output differs from the interpreter");
    const SimOutcome c = checkSchedule(*job.kernel, p.lowered, *job.comp,
                                       p.report.schedule, p.images);
    out.check(c.error.empty(), c.error);
    job.fingerprint = p.report.schedule.fingerprint();
    job.runCycles = p.sim.runCycles;
    job.length = p.report.schedule.length;
    out.simCycles += job.runCycles;
    out.contexts += job.length;
  }
  out.distinctSchedules = jobs.size();

  std::map<std::string, double> counts;
  double countedOps = 0;
  std::int64_t opId = 0;
  const auto rounds = runRounds(args.seconds, 5, args.trace, tracer,
                                [&](bool traced, RoundSample& s, Chunker& chunker) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Job& job = jobs[j];
      if (j % kChunkOps == kChunkOps - 1) chunker.checkpoint();
      tracer.setOp(opId++);
      ++out.attempted;
      OpProducts p;
      const double t0 = threadCpuUs();
      try {
        p = compileAndRun(job, tracer);
      } catch (const std::exception&) {
        ++out.failed;  // reported once, by the verification round
        continue;
      }
      const double t1 = threadCpuUs();
      if (!p.report.ok) {
        ++out.failed;
        continue;
      }
      s.latUs.push_back(t1 - t0);
      s.elapsedUs += t1 - t0;
      // Same job, same schedule and the same simulated result every round.
      out.check(p.report.schedule.fingerprint() == job.fingerprint &&
                    p.sim.runCycles == job.runCycles &&
                    p.heap == job.kernel->goldenHeap,
                job.kernel->name + " on " + job.comp->name() +
                    ": result changed between rounds");
      if (traced) {
        counts["kir.cdfg_nodes"] += static_cast<double>(p.lowered.graph.numNodes());
        counts["sched.placement_attempts"] += static_cast<double>(p.report.metrics.placementAttempts);
        counts["sched.probe_rejections"] += static_cast<double>(p.report.metrics.probeRejections);
        counts["sched.copies_inserted"] += static_cast<double>(p.report.metrics.copiesInserted);
        counts["ctx.image_bytes"] += static_cast<double>(p.images.size());
        counts["sim.cycles"] += static_cast<double>(p.sim.runCycles);
        countedOps += 1;
      }
    }
  });
  out.time = summarize(rounds, false);
  if (args.trace) finishTrace(out, rounds, counts, countedOps);
  return out;
}

}  // namespace perfbench
