//===- perfbench/cpp/RegionBench.cpp - Region workloads -------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// domore-train, speccross-train and ckpt-bigstate: whole passes over a set
/// of kernels (one invocation of each, in a seeded order) through the
/// public entry points harness::runDomore and harness::runSpecCross, until
/// the measuring time elapses. Every invocation's checksum is compared with
/// the kernel's sequential reference from set-up.
///
/// Traced runs alternate untraced and traced passes: traced passes hand the
/// timing decorator to the entry point and feed the per-layer metrics and
/// the ledger; untraced passes give the baseline for the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Ledger.h"
#include "Report.h"
#include "TimedWorkload.h"

#include "harness/Executor.h"
#include "support/Timer.h"

#include <cstdio>
#include <limits>
#include <memory>
#include <string>

using namespace perfbench;
using namespace cip;
using telemetry::Counter;

namespace {

enum class Engine { Domore, SpecCross };

struct RegionSpec {
  const char *Name;
  std::vector<std::string> Kernels;
  Engine E;
  /// Fig 5.3's checkpoint-every-epoch point.
  bool CkptEveryEpoch = false;
  /// Inject a mid-region misspeculation into a seeded half of invocations.
  bool InjectHalf = false;
};

const std::vector<RegionSpec> &regionSpecs() {
  static const std::vector<RegionSpec> Specs = {
      {"domore-train",
       {"blackscholes", "cg", "eclat", "fluidanimate1", "llubench", "symm"},
       Engine::Domore},
      {"speccross-train",
       {"cg", "equake", "fdtd", "fluidanimate2", "jacobi", "llubench",
        "loopdep", "symm"},
       Engine::SpecCross},
      {"ckpt-bigstate", {"bigstate"}, Engine::SpecCross, true, true},
  };
  return Specs;
}

struct Kernel {
  std::unique_ptr<workloads::Workload> W;
  std::unique_ptr<TimedWorkload> Timed;
  std::uint64_t Ref = 0;
  std::uint64_t Tasks = 0;
  double SeqS = 0.0;
  std::uint64_t SpecDistance = std::numeric_limits<std::uint64_t>::max();
  /// Traced runs: warm reference times.
  References Refs;
};

struct Invocation {
  double WallS = 0.0;
  std::uint64_t BeginNs = 0, EndNs = 0;
  bool Ok = false;
  domore::DomoreStats D;
  speccross::SpecStats S;
  std::vector<ThreadCalls> Calls; ///< traced invocations only
};

Invocation invoke(const RegionSpec &Spec, Kernel &K, unsigned Threads,
                  bool Traced, bool Inject) {
  K.W->reset();
  workloads::Workload &Target =
      Traced ? static_cast<workloads::Workload &>(*K.Timed) : *K.W;
  if (Traced)
    K.Timed->beginSpan();
  Invocation I;
  harness::ExecResult Exec;
  I.BeginNs = nowNanos();
  if (Spec.E == Engine::Domore) {
    Exec = harness::runDomore(Target, Threads, domore::PolicyKind::RoundRobin,
                              &I.D);
  } else {
    speccross::SpecConfig Cfg; // the paper's flow: only the profiled
    Cfg.NumWorkers = Threads - 1; // distance and the worker count change
    Cfg.SpecDistance = K.SpecDistance;
    if (Spec.CkptEveryEpoch)
      Cfg.CheckpointIntervalEpochs = 1;
    if (Inject)
      Cfg.InjectMisspecAtEpoch = K.W->numEpochs() / 2;
    Exec = harness::runSpecCross(Target, Cfg,
                                 speccross::SpecMode::Speculation, &I.S);
  }
  I.EndNs = nowNanos();
  I.WallS = static_cast<double>(I.EndNs - I.BeginNs) * 1e-9;
  I.Ok = Exec.Checksum == K.Ref;
  if (Traced)
    I.Calls = K.Timed->endSpan();
  return I;
}

/// Builds the kernels, runs their sequential references, profiles the
/// speculative distance (SPECCROSS) and warms every kernel up once.
std::vector<Kernel> setUp(const RegionSpec &Spec, const Options &O,
                          RunResult &R) {
  std::vector<Kernel> Ks;
  for (const std::string &Name : Spec.Kernels) {
    Kernel K;
    K.W = workloads::makeWorkload(Name, O.RegionScale);
    if (!K.W) {
      std::fprintf(stderr, "error: unknown kernel '%s'\n", Name.c_str());
      std::exit(2);
    }
    K.Timed = std::make_unique<TimedWorkload>(*K.W);
    K.Tasks = K.W->totalTasks();
    K.W->reset();
    const harness::ExecResult Seq = harness::runSequential(*K.W);
    K.Ref = Seq.Checksum;
    K.SeqS = Seq.Seconds;
    if (Spec.E == Engine::SpecCross)
      K.SpecDistance = harness::profiledSpecDistance(*K.W, O.Threads - 1);
    Ks.push_back(std::move(K));
  }
  for (Kernel &K : Ks) {
    ++R.Attempted;
    if (!invoke(Spec, K, O.Threads, false, false).Ok) {
      R.fail();
      R.Notes.push_back(std::string("checksum mismatch in warm-up: ") +
                        K.W->name());
    }
  }
  return Ks;
}

/// Per-layer sums over the traced invocations.
struct LayerSums {
  std::uint64_t Invocations = 0;
  ThreadCalls Calls;
  double ExpectedSeqTaskNs = 0.0; ///< the same calls at sequential cost
  std::uint64_t UsefulTasks = 0;
  double WallS = 0.0;
  Ledger L;
  // DOMORE
  double SchedBusyS = 0.0;
  std::uint64_t SyncConditions = 0, QueueFull = 0, QueueEmpty = 0;
  telemetry::HistogramData WorkerWait, Batch;
  // SPECCROSS
  std::uint64_t CheckRequests = 0, Comparisons = 0, Misspecs = 0,
                ReexecEpochs = 0, Snapshots = 0, BytesCopied = 0,
                DirtyPages = 0;
  telemetry::HistogramData CheckLatency;
};

void addTraced(LayerSums &S, LedgerCheck &Check, SpanLog &Spans,
               const RegionSpec &Spec, const Kernel &K, const Invocation &I,
               unsigned Threads) {
  const ThreadCalls C = sumCalls(I.Calls);
  ++S.Invocations;
  for (unsigned J = 0; J < NumCalls; ++J) {
    S.Calls.Count[J] += C.Count[J];
    S.Calls.Ns[J] += C.Ns[J];
  }
  S.ExpectedSeqTaskNs += C.count(Call::Task) * K.Refs.SeqNsPerTask;
  S.UsefulTasks += K.Tasks;
  S.WallS += I.WallS;
  const Ledger L = Spec.E == Engine::Domore
                       ? domoreLedger(Threads, I.WallS, C, I.D)
                       : speccrossLedger(Threads, I.WallS, C, I.S);
  S.L += L;
  accumulate(Check, L);
  Spans.addRoot(K.W->name(), I.BeginNs, I.EndNs, I.Calls);
  if (Spec.E == Engine::Domore) {
    S.SchedBusyS += I.D.SchedulerBusySeconds;
    S.SyncConditions += I.D.SyncConditions;
    S.QueueFull += I.D.Telemetry.get(Counter::QueueFullSpins);
    S.QueueEmpty += I.D.Telemetry.get(Counter::QueueEmptySpins);
    S.WorkerWait += I.D.WorkerWait;
    S.Batch += I.D.DispatchBatch;
  } else {
    S.CheckRequests += I.S.CheckRequests;
    S.Comparisons += I.S.SignatureComparisons;
    S.Misspecs += I.S.Misspeculations;
    S.ReexecEpochs += I.S.ReexecutedEpochs;
    S.Snapshots += I.S.CheckpointsTaken;
    S.BytesCopied += I.S.Telemetry.get(Counter::CkptBytesCopied);
    S.DirtyPages += I.S.Telemetry.get(Counter::DirtyPages);
    S.CheckLatency += I.S.CheckLatency;
  }
}

double ratio(double A, double B) { return B > 0.0 ? A / B : 0.0; }

void reportLayers(RunResult &R, const LayerSums &S,
                  const std::vector<Kernel> &Ks, unsigned Variants,
                  const std::vector<std::vector<double>> &TracedWalls,
                  double UntracedTasksPerS, double TracedTasksPerS) {
  const double N = S.Invocations ? double(S.Invocations) : 1.0;
  const Ledger &L = S.L;
  const auto perInv = [N](double V) { return V / N; };
  R.layer("workloads.task_s", perInv(L[Layer::Task]), "s");
  R.layer("workloads.task_calls", perInv(S.Calls.count(Call::Task)), "count");
  R.layer("workloads.useful_ratio",
          ratio(double(S.UsefulTasks), double(S.Calls.count(Call::Task))),
          "ratio");
  R.layer("workloads.addr_s", perInv(L[Layer::Addr]), "s");
  R.layer("workloads.prologue_s", perInv(L[Layer::Prologue]), "s");
  R.layer("workloads.task_inflation",
          ratio(double(S.Calls.ns(Call::Task)), S.ExpectedSeqTaskNs), "x");

  R.layer("domore.sched_busy_s", perInv(S.SchedBusyS), "s");
  R.layer("domore.sched_ratio", 100.0 * ratio(S.SchedBusyS, S.WallS), "%");
  R.layer("domore.probe_dispatch_s", perInv(L[Layer::ProbeDispatch]), "s");
  R.layer("domore.sched_stall_s", perInv(L[Layer::SchedStall]), "s");
  R.layer("domore.sync_conditions", perInv(double(S.SyncConditions)),
          "count");
  R.layer("domore.worker_wait_s", perInv(L[Layer::SyncWait]), "s");
  R.layer("domore.worker_wait_s_p99",
          double(S.WorkerWait.percentileNs(0.99)) * 1e-9, "s");
  R.layer("domore.queue_full_spins", perInv(double(S.QueueFull)), "count");
  R.layer("domore.queue_empty_spins", perInv(double(S.QueueEmpty)), "count");
  // Batch sizes are recorded as values, not nanoseconds.
  R.layer("domore.batch_mean",
          ratio(double(S.Batch.SumNs), double(S.Batch.count())), "count");

  R.layer("speccross.check_requests", perInv(double(S.CheckRequests)),
          "count");
  R.layer("speccross.comparisons", perInv(double(S.Comparisons)), "count");
  R.layer("speccross.check_busy_s", perInv(L[Layer::CheckBusy]), "s");
  R.layer("speccross.check_s_p50",
          double(S.CheckLatency.percentileNs(0.50)) * 1e-9, "s");
  R.layer("speccross.check_s_p99",
          double(S.CheckLatency.percentileNs(0.99)) * 1e-9, "s");
  R.layer("speccross.throttle_wait_s", perInv(L[Layer::ThrottleWait]), "s");
  R.layer("speccross.misspeculations", perInv(double(S.Misspecs)), "count");
  R.layer("speccross.reexec_epochs", perInv(double(S.ReexecEpochs)), "count");
  R.layer("speccross.reexec_barrier_s", perInv(L[Layer::ReexecBarrier]), "s");
  // Serial phases: wall seconds here, lanes x that in the ledger.
  const double Lanes = L.Lanes ? double(L.Lanes) : 1.0;
  R.layer("speccross.recovery_s", perInv(L[Layer::Recovery] / Lanes), "s");
  R.layer("memory.register_s", perInv(L[Layer::Register] / Lanes), "s");
  R.layer("memory.snapshots", perInv(double(S.Snapshots)), "count");
  R.layer("memory.snapshot_s", perInv(L[Layer::Snapshot] / Lanes), "s");
  R.layer("memory.bytes_copied", perInv(double(S.BytesCopied)), "B");
  R.layer("memory.dirty_pages", perInv(double(S.DirtyPages)), "count");

  std::vector<double> VsSeq, VsBarrier, BarrierWait;
  for (std::size_t C = 0; C < TracedWalls.size(); ++C) {
    if (TracedWalls[C].empty())
      continue;
    const Kernel &K = Ks[C / Variants];
    const double Med = median(TracedWalls[C]);
    VsSeq.push_back(ratio(K.Refs.SeqS, Med));
    VsBarrier.push_back(ratio(K.Refs.BarrierS, Med));
  }
  for (const Kernel &K : Ks)
    BarrierWait.push_back(K.Refs.BarrierWaitPerThreadS);
  R.layer("support.barrier_wait_s", sum(BarrierWait) / double(Ks.size()),
          "s");
  R.layer("harness.speedup_vs_seq", geomean(VsSeq), "x");
  R.layer("harness.speedup_vs_barrier", geomean(VsBarrier), "x");
  R.layer("harness.unattributed_share", ratio(L.unattributed(), L.capacity()),
          "ratio");
  R.layer("harness.trace_overhead", ratio(UntracedTasksPerS, TracedTasksPerS),
          "x");

  char Buf[160];
  R.Notes.push_back(std::string("ledger (thread-seconds per invocation, ") +
                    std::to_string(L.Lanes) + " lanes):");
  for (unsigned I = 0; I < NumLayers; ++I) {
    std::snprintf(Buf, sizeof(Buf), "  %-26s %12.6f s  %6.2f%%",
                  layerName(Layer(I)), L.S[I] / N,
                  100.0 * ratio(L.S[I], L.capacity()));
    R.Notes.push_back(Buf);
  }
  std::snprintf(Buf, sizeof(Buf), "  %-26s %12.6f s  %6.2f%%", "unattributed",
                L.unattributed() / N,
                100.0 * ratio(L.unattributed(), L.capacity()));
  R.Notes.push_back(Buf);
}

} // namespace

RunResult perfbench::runRegionWorkload(const Options &O) {
  const RegionSpec *Spec = nullptr;
  for (const RegionSpec &S : regionSpecs())
    if (O.Workload == S.Name)
      Spec = &S;
  RunResult R;
  if (!Spec) {
    R.Correct = false;
    return R;
  }

  // Set-up, timed and repeated; the last repetition's kernels are measured.
  std::vector<Kernel> Ks;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < O.SetupReps; ++Rep) {
    Ks.clear(); // free the previous repetition first
    const std::uint64_t B = nowNanos();
    Ks = setUp(*Spec, O, R);
    SetupS.push_back(static_cast<double>(nowNanos() - B) * 1e-9);
    for (std::size_t I = 0; I < Ks.size(); ++I) {
      if (Rep == 0)
        R.ReferenceChecksums.push_back(Ks[I].Ref);
      else if (R.ReferenceChecksums[I] != Ks[I].Ref)
        R.fail(); // the sequential reference itself must be deterministic
    }
  }

  if (O.Trace)
    for (Kernel &K : Ks)
      K.Refs = measureReferences(*K.W, *K.Timed, O.Threads, K.Ref, R);

  // Measure: whole passes until the time is up (traced runs need at least
  // one untraced and one traced pass).
  // Invocation classes: one per kernel, split into clean and injected
  // invocations where half are injected, so no median straddles the two.
  const std::size_t NK = Ks.size();
  const unsigned Variants = Spec->InjectHalf ? 2 : 1;
  std::vector<std::vector<double>> Walls[2] = {
      std::vector<std::vector<double>>(NK * Variants),
      std::vector<std::vector<double>>(NK * Variants)};
  double TasksDone[2] = {}, RegionS[2] = {};
  std::uint64_t Correct = 0;
  LayerSums Sums;
  SpanLog Spans;
  std::uint64_t InvocationNo = 0;
  const std::uint64_t Begin = nowNanos();
  const std::uint64_t Deadline =
      Begin + static_cast<std::uint64_t>(O.Seconds * 1e9);
  const std::uint64_t MinPasses = O.Trace ? 2 : 1;
  std::uint64_t Pass = 0;
  for (; Pass < MinPasses || nowNanos() < Deadline; ++Pass) {
    const bool Traced = O.Trace && Pass % 2 == 1;
    for (const unsigned KI : kernelOrder(O.Seed, Pass, unsigned(NK))) {
      Kernel &K = Ks[KI];
      const bool Inject =
          Spec->InjectHalf && injectMisspec(O.Seed, InvocationNo);
      ++InvocationNo;
      const Invocation I = invoke(*Spec, K, O.Threads, Traced, Inject);
      ++R.Attempted;
      if (!I.Ok) {
        R.fail();
        R.Notes.push_back(std::string("checksum mismatch: ") + K.W->name());
        continue;
      }
      ++Correct;
      Walls[Traced][KI * Variants + (Inject ? 1 : 0)].push_back(I.WallS);
      TasksDone[Traced] += double(K.Tasks);
      RegionS[Traced] += I.WallS;
      if (Traced)
        addTraced(Sums, R.Ledger, Spans, *Spec, K, I, O.Threads);
    }
  }
  const double LoopS = static_cast<double>(nowNanos() - Begin) * 1e-9;

  std::vector<double> Medians;
  for (std::size_t C = 0; C < Walls[0].size(); ++C) {
    if (Walls[0][C].empty())
      continue;
    const double M = median(Walls[0][C]);
    Medians.push_back(M);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "  %-14s %-8s median %.6f s over %zu invocations (seq "
                  "%.6f s)",
                  Ks[C / Variants].W->name(), C % Variants ? "injected" : "",
                  M, Walls[0][C].size(), Ks[C / Variants].SeqS);
    R.Notes.push_back(Buf);
  }
  R.Notes.push_back("passes: " + std::to_string(Pass) +
                    ", setup repetitions: " + std::to_string(SetupS.size()));

  const double TasksPerS = ratio(TasksDone[0], RegionS[0]);
  R.e2e("setup_s", median(SetupS), "s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.e2e("tasks_per_s", TasksPerS, "1/s");
  R.e2e("region_s_gmean", geomean(Medians), "s");
  R.e2e("goodput_rps", ratio(double(Correct), LoopS), "1/s");

  if (O.Trace) {
    reportLayers(R, Sums, Ks, Variants, Walls[1], TasksPerS,
                 ratio(TasksDone[1], RegionS[1]));
    if (!O.TraceOut.empty()) {
      std::vector<Metric> Rows;
      for (unsigned I = 0; I < NumLayers; ++I)
        Rows.push_back({layerName(Layer(I)), Sums.L.S[I], "s"});
      Rows.push_back({"unattributed", Sums.L.unattributed(), "s"});
      Rows.push_back({"capacity", Sums.L.capacity(), "s"});
      if (!Spans.write(O.TraceOut, provenanceJson(O), Rows))
        R.Notes.push_back("warning: could not write " + O.TraceOut);
    }
  }
  return R;
}
