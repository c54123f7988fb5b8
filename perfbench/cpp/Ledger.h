//===- perfbench/cpp/Ledger.h - Per-layer time ledger -----------*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The time ledger of one region invocation: each of its lanes' wall time
/// split into named layers, in thread-seconds, so the rows plus the
/// unattributed remainder add up to lanes x wall time.
///
/// Sources: the timing decorator's per-call sums (compute, computeAddr,
/// prologue, state registration) and the statistics the public entry points
/// return (DomoreStats, SpecStats). Scheduler busy time contains the
/// computeAddr and prologue calls it makes, so the probe row is busy time
/// minus those. Checkpoint registration, snapshots and restores run on the
/// control thread while no worker or checker runs, so they hold every lane
/// and count lanes times over. What no row names (worker starvation, thread
/// start-up, dispatch pushes, the checker's idle polling) is unattributed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include "Bench.h"
#include "TimedWorkload.h"

#include "domore/DomoreRuntime.h"
#include "speccross/SpecCrossRuntime.h"

namespace perfbench {

enum class Layer : unsigned {
  Task,           ///< workloads: runTask self time
  Addr,           ///< workloads: taskAddresses + prologueAddresses
  Prologue,       ///< workloads: epochPrologue
  ProbeDispatch,  ///< domore: scheduler busy minus Addr and Prologue
  SchedStall,     ///< domore: scheduler stalled (prologue deps, full queue)
  SyncWait,       ///< domore: workers waiting on sync conditions
  CheckBusy,      ///< speccross: checker validating requests
  ThrottleWait,   ///< speccross: workers held by the throttle/backpressure
  ReexecBarrier,  ///< speccross: barrier waits of non-speculative re-runs
  Register,       ///< memory: checkpoint registration (serial)
  Snapshot,       ///< memory: snapshots (serial)
  Recovery,       ///< speccross: restores after misspeculation (serial)
};
inline constexpr unsigned NumLayers = 12;

/// Module-prefixed row name, e.g. "domore.sync_wait".
const char *layerName(Layer L);

struct Ledger {
  unsigned Lanes = 0;
  double WallS = 0.0;
  double S[NumLayers] = {}; ///< thread-seconds per layer

  double &operator[](Layer L) { return S[unsigned(L)]; }
  double operator[](Layer L) const { return S[unsigned(L)]; }
  double capacity() const { return Lanes * WallS; }
  double attributed() const;
  double unattributed() const { return capacity() - attributed(); }
  Ledger &operator+=(const Ledger &O);
};

Ledger domoreLedger(unsigned Lanes, double WallS, const ThreadCalls &Calls,
                    const cip::domore::DomoreStats &Stats);

Ledger speccrossLedger(unsigned Lanes, double WallS, const ThreadCalls &Calls,
                       const cip::speccross::SpecStats &Stats);

/// Folds one invocation's ledger into the run's identity check.
void accumulate(LedgerCheck &Check, const Ledger &L);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
