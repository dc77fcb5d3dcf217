#include "oracle.hpp"

#include <exception>

#include "artifact/artifact.hpp"
#include "ctx/serialize.hpp"
#include "json/json.hpp"
#include "kir/interp.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace cgra;

void prepareGolden(KernelCase& k) {
  k.goldenHeap = k.heap;
  const kir::InterpResult r =
      kir::Interpreter().run(k.source, k.initialLocals, k.goldenHeap);
  k.goldenLocals = r.locals;
}

namespace {

std::map<VarId, std::int32_t> liveInValues(const KernelCase& k,
                                           const Lowered& low,
                                           const Schedule& sched) {
  std::map<VarId, std::int32_t> varToInitial;
  for (std::size_t l = 0; l < low.localToVar.size() && l < k.initialLocals.size(); ++l)
    varToInitial[low.localToVar[l]] = k.initialLocals[l];
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : sched.liveIns) {
    const auto it = varToInitial.find(lb.var);
    liveIns[lb.var] = it == varToInitial.end() ? 0 : it->second;
  }
  return liveIns;
}

}  // namespace

std::string compareWithGolden(const KernelCase& k, const Lowered& low,
                              const HostMemory& heap,
                              const std::map<VarId, std::int32_t>& liveOuts) {
  if (!(heap == k.goldenHeap)) return k.name + ": heap differs from the interpreter";
  const std::size_t sourceLocals = k.source.numLocals();
  for (std::size_t l = 0; l < sourceLocals && l < low.localToVar.size(); ++l) {
    const auto it = liveOuts.find(low.localToVar[l]);
    if (it == liveOuts.end()) continue;
    if (it->second != k.goldenLocals[l])
      return k.name + ": live-out " + k.source.local(static_cast<kir::LocalId>(l)).name +
             " = " + std::to_string(it->second) + ", interpreter says " +
             std::to_string(k.goldenLocals[l]);
  }
  return "";
}

SimOutcome simulateAndCompare(const KernelCase& k, const Lowered& low,
                              const Composition& comp, const Schedule& sched) {
  SimOutcome out;
  try {
    HostMemory heap = k.heap;
    const SimResult r =
        Simulator(comp, sched).run(liveInValues(k, low, sched), heap);
    out.runCycles = r.runCycles;
    out.error = compareWithGolden(k, low, heap, r.liveOuts);
  } catch (const std::exception& e) {
    out.error = k.name + ": simulation threw: " + e.what();
  }
  return out;
}

SimOutcome checkSchedule(const KernelCase& k, const Lowered& low,
                         const Composition& comp, const Schedule& sched,
                         const std::string& serializedImages) {
  const std::vector<std::string> issues = validateSchedule(sched, low.graph, comp);
  if (!issues.empty())
    return {k.name + " on " + comp.name() + ": validateSchedule: " + issues.front(), 0};
  SimOutcome direct = simulateAndCompare(k, low, comp, sched);
  if (!direct.error.empty()) {
    direct.error += " (schedule on " + comp.name() + ")";
    return direct;
  }
  try {
    const ContextImages images =
        contextImagesFromJson(json::parse(serializedImages));
    const Schedule decoded = decodeContexts(images, comp);
    SimOutcome viaImages = simulateAndCompare(k, low, comp, decoded);
    if (!viaImages.error.empty()) {
      viaImages.error += " (decoded context images on " + comp.name() + ")";
      return viaImages;
    }
    if (viaImages.runCycles != direct.runCycles)
      return {k.name + " on " + comp.name() +
                  ": decoded images run a different number of cycles",
              0};
  } catch (const std::exception& e) {
    return {k.name + " on " + comp.name() + ": context images: " + e.what(), 0};
  }
  return direct;
}

SimOutcome checkServedArtifact(const KernelCase& k, const Lowered& low,
                               const Composition& comp,
                               const std::string& responseLine,
                               std::string* fingerprintOut,
                               unsigned* contextsOut) {
  try {
    const json::Value doc = json::parse(responseLine);
    const json::Object& o = doc.asObject();
    const json::Value* ok = o.find("ok");
    if (ok == nullptr || !ok->asBool()) return {"response not ok: " + responseLine.substr(0, 200), 0};
    const json::Value* artDoc = o.find("artifact");
    if (artDoc == nullptr) return {"response carries no artifact", 0};
    const artifact::ScheduleArtifact art = artifact::ScheduleArtifact::fromJson(*artDoc);
    const std::string fp = std::to_string(art.schedule.fingerprint());
    if (fp != o.at("fingerprint").asString())
      return {k.name + ": artifact fingerprint differs from the response's", 0};
    const auto claimed = static_cast<unsigned>(o.at("contexts").asInt());
    if (art.schedule.length != claimed)
      return {k.name + ": artifact length differs from the response's contexts", 0};
    if (!art.contexts) return {k.name + ": artifact has no context images", 0};
    if (fingerprintOut) *fingerprintOut = fp;
    if (contextsOut) *contextsOut = claimed;
    return checkSchedule(k, low, comp, art.schedule,
                         contextImagesToJson(*art.contexts).dump(0));
  } catch (const std::exception& e) {
    return {k.name + ": malformed response/artifact: " + e.what(), 0};
  }
}

namespace {

bool dominatesRecomputed(double areaA, double wlA, double areaB, double wlB) {
  return areaA <= areaB && wlA <= wlB && (areaA < areaB || wlA < wlB);
}

}  // namespace

std::string checkExploreFront(const explore::ExploreReport& report,
                              const std::vector<FrontKernel>& kernels,
                              std::map<std::string, FrontSchedule>& verified) {
  if (report.front.empty()) return "explore: empty front";
  std::vector<double> weighted;
  for (const explore::CandidateEval& c : report.front) {
    if (!c.feasible) return "explore: infeasible front member " + c.genotype.key();
    if (c.kernels.size() != kernels.size())
      return "explore: front member " + c.genotype.key() + " lists " +
             std::to_string(c.kernels.size()) + " kernels";
    double wl = 0.0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const explore::KernelOutcome& ko = c.kernels[i];
      const FrontKernel& fk = kernels[i];
      if (ko.kernel != fk.kernel->name || !ko.ok)
        return "explore: front member " + c.genotype.key() + " kernel " + ko.kernel;
      wl += fk.weight * ko.contexts;
      const std::string id = c.genotype.key() + "|" + fk.kernel->name;
      auto it = verified.find(id);
      if (it == verified.end()) {
        const Composition comp = c.genotype.materialize();
        const ScheduleReport fresh =
            Scheduler(comp).schedule(ScheduleRequest(fk.lowered->graph));
        if (!fresh.ok)
          return "explore: fresh scheduler cannot map " + id + ": " +
                 fresh.failure.message;
        const SimOutcome sim =
            simulateAndCompare(*fk.kernel, *fk.lowered, comp, fresh.schedule);
        if (!sim.error.empty()) return "explore: " + id + ": " + sim.error;
        it = verified.emplace(id, FrontSchedule{fresh.schedule.length, sim.runCycles}).first;
      }
      if (it->second.contexts != ko.contexts)
        return "explore: " + id + " reports " + std::to_string(ko.contexts) +
               " contexts, a fresh scheduler run needs " +
               std::to_string(it->second.contexts);
    }
    if (wl != c.weightedLength)
      return "explore: " + c.genotype.key() + " weighted length " +
             std::to_string(c.weightedLength) + " != recomputed " + std::to_string(wl);
    weighted.push_back(wl);
  }
  for (std::size_t a = 0; a < report.front.size(); ++a)
    for (std::size_t b = 0; b < report.front.size(); ++b)
      if (a != b && dominatesRecomputed(report.front[a].areaLuts, weighted[a],
                                        report.front[b].areaLuts, weighted[b]))
        return "explore: front member " + report.front[a].genotype.key() +
               " dominates " + report.front[b].genotype.key();
  return "";
}

}  // namespace perfbench
