//===- perfbench/cpp/Bench.h - Benchmark options and results ----*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run is asked to do and what it reports. A run executes
/// one workload (README.md lists them) for a fixed measuring time and
/// returns the end-to-end metrics (untraced runs) or the per-layer metrics
/// (traced runs), plus the operation counts every run reports.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "TimedWorkload.h"

#include "workloads/Workload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The region workloads and the server workload, by benchmark name.
const std::vector<std::string> &workloadNames();

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Measuring time. Region workloads run whole passes until it elapses;
  /// the server gives each rate phase an equal share of it.
  double Seconds = 10.0;
  bool Trace = false;
  /// Thread budget of every region (never above the online CPU count).
  unsigned Threads = 4;
  /// Set-up repetitions; setup_s is their median.
  unsigned SetupReps = 3;
  /// Input scale of the region workloads (the self-tests shrink it).
  cip::workloads::Scale RegionScale = cip::workloads::Scale::Train;
  /// server-short: offered rates (req/s) of the low, mid and high phases
  /// and the absolute latency limit goodput is counted against.
  std::vector<double> RatesRps;
  double LatencyLimitS = 0.0;
  /// server-short: floor on requests per rate phase, so p99 has at least
  /// ten samples beyond it.
  unsigned MinRequestsPerRate = 1000;
  /// Where a traced run writes its spans and ledger ("" = nowhere).
  std::string TraceOut;
  /// Source revision stamped into the provenance line.
  std::string Commit = "unknown";
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Per-invocation ledger identity, kept for the self-tests: attributed
/// layer time plus unattributed time equals lanes x wall time.
struct LedgerCheck {
  double CapacityS = 0.0;     ///< lanes x wall, summed over invocations
  double AttributedS = 0.0;   ///< sum of every named layer
  double UnattributedS = 0.0; ///< the remainder
  /// Largest over-attribution of any single invocation, as a share of its
  /// capacity (0 when no invocation attributes more than its capacity).
  double WorstOverShare = 0.0;
  std::uint64_t Invocations = 0;
};

struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Notes;
  /// Traced runs only.
  LedgerCheck Ledger;
  /// Per-kernel reference checksums (what every invocation is checked
  /// against), in the workload's kernel order; the self-tests compare them
  /// across seeds.
  std::vector<std::uint64_t> ReferenceChecksums;
  /// Server runs: per-request checksum of every completed request, in
  /// schedule order (self-tests).
  std::vector<std::uint64_t> RequestChecksums;

  void e2e(const std::string &Name, double Value, const char *Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const char *Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
  void fail() {
    ++Failed;
    Correct = false;
  }
};

/// Warm reference figures of one kernel for the traced rows: sequential and
/// barrier times (speedups, barrier wait) and the sequential runTask self
/// time per call (task inflation).
struct References {
  double SeqS = 0.0;
  double SeqNsPerTask = 0.0;
  double BarrierS = 0.0;
  double BarrierWaitPerThreadS = 0.0; ///< barrier wait summed / threads
};

/// Runs \p W sequentially (timed), sequentially through \p Timed (its
/// decorator, for the per-task time), and under runBarrier(\p Threads)
/// twice (the first warms up), checking every checksum against
/// \p Expected; mismatches count in \p R.
References measureReferences(cip::workloads::Workload &W, TimedWorkload &Timed,
                             unsigned Threads, std::uint64_t Expected,
                             RunResult &R);

/// Runs domore-train, speccross-train or ckpt-bigstate.
RunResult runRegionWorkload(const Options &O);

/// Runs server-short.
RunResult runServerWorkload(const Options &O);

/// Dispatches on O.Workload. Unknown names are the caller's to reject.
RunResult runWorkload(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
