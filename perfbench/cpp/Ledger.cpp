//===- perfbench/cpp/Ledger.cpp - Per-layer time ledger -------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <algorithm>

using namespace perfbench;
using cip::telemetry::Counter;

namespace {

double sec(std::uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

void fillCalls(Ledger &L, const ThreadCalls &Calls) {
  L[Layer::Task] = sec(Calls.ns(Call::Task));
  L[Layer::Addr] = sec(Calls.ns(Call::Addr));
  L[Layer::Prologue] = sec(Calls.ns(Call::Prologue));
  L[Layer::Register] = L.Lanes * sec(Calls.ns(Call::Register));
}

} // namespace

const char *perfbench::layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "workloads.task",         "workloads.addr",
      "workloads.prologue",     "domore.probe_dispatch",
      "domore.sched_stall",     "domore.sync_wait",
      "speccross.check_busy",   "speccross.throttle_wait",
      "speccross.reexec_barrier", "memory.register",
      "memory.snapshot",        "speccross.recovery"};
  return Names[unsigned(L)];
}

double Ledger::attributed() const {
  double Sum = 0.0;
  for (const double V : S)
    Sum += V;
  return Sum;
}

Ledger &Ledger::operator+=(const Ledger &O) {
  Lanes = std::max(Lanes, O.Lanes);
  WallS += O.WallS;
  for (unsigned I = 0; I < NumLayers; ++I)
    S[I] += O.S[I];
  return *this;
}

Ledger perfbench::domoreLedger(unsigned Lanes, double WallS,
                               const ThreadCalls &Calls,
                               const cip::domore::DomoreStats &Stats) {
  Ledger L;
  L.Lanes = Lanes;
  L.WallS = WallS;
  fillCalls(L, Calls);
  const double InBusy = L[Layer::Addr] + L[Layer::Prologue];
  L[Layer::ProbeDispatch] = std::max(0.0, Stats.SchedulerBusySeconds - InBusy);
  L[Layer::SchedStall] = sec(Stats.Telemetry.get(Counter::SchedulerStallNs));
  L[Layer::SyncWait] = sec(Stats.Telemetry.get(Counter::WorkerWaitNs));
  return L;
}

Ledger perfbench::speccrossLedger(unsigned Lanes, double WallS,
                                  const ThreadCalls &Calls,
                                  const cip::speccross::SpecStats &Stats) {
  Ledger L;
  L.Lanes = Lanes;
  L.WallS = WallS;
  fillCalls(L, Calls);
  // The checker's validation scope is recorded under the scheduler-busy
  // counter on the checker lane.
  L[Layer::CheckBusy] = sec(Stats.Telemetry.get(Counter::SchedulerBusyNs));
  L[Layer::ThrottleWait] = sec(Stats.Telemetry.get(Counter::WorkerWaitNs));
  L[Layer::ReexecBarrier] = sec(Stats.Telemetry.get(Counter::BarrierWaitNs));
  L[Layer::Snapshot] = Lanes * Stats.CheckpointSeconds;
  L[Layer::Recovery] = Lanes * Stats.RecoverySeconds;
  return L;
}

void perfbench::accumulate(LedgerCheck &Check, const Ledger &L) {
  Check.CapacityS += L.capacity();
  Check.AttributedS += L.attributed();
  Check.UnattributedS += L.unattributed();
  if (L.capacity() > 0.0)
    Check.WorstOverShare =
        std::max(Check.WorstOverShare, -L.unattributed() / L.capacity());
  ++Check.Invocations;
}
