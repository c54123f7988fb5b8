//===- perfbench/cpp/Report.h - Statistics, spans and output ----*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sample statistics, the in-memory span log of traced runs, the provenance
/// stamp, and the result line the benchmark prints last.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "Bench.h"
#include "TimedWorkload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

double median(std::vector<double> Xs);
/// Nearest-rank quantile, \p Q in (0, 1]; 0 for no samples.
double quantile(std::vector<double> Xs, double Q);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &Xs);
double sum(const std::vector<double> &Xs);

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

/// Online CPUs this process may run on.
unsigned onlineCpus();

/// A timed call aggregate or server phase under a root span.
struct ChildSpan {
  const char *Name = ""; ///< static string
  unsigned Thread = 0; ///< slot order within the root span
  std::uint64_t Count = 0;
  std::uint64_t BeginNs = 0, EndNs = 0;
  std::uint64_t SelfNs = 0; ///< summed durations (no timed call nests)
};

/// One region invocation or one server request.
struct RootSpan {
  std::uint64_t Id = 0;
  std::string Name;
  std::uint64_t BeginNs = 0, EndNs = 0;
  std::vector<ChildSpan> Children;

  /// Duration minus the part of it any child covers.
  std::uint64_t selfNs() const;
};

/// Spans of a traced run. They stay in memory until written at exit.
class SpanLog {
public:
  /// Adds a root span whose children are \p PerThread's call aggregates.
  RootSpan &addRoot(const std::string &Name, std::uint64_t BeginNs,
                    std::uint64_t EndNs,
                    const std::vector<ThreadCalls> &PerThread);
  const std::vector<RootSpan> &roots() const { return Roots; }
  /// Writes provenance, ledger rows and (at most the first 20000) spans as
  /// one JSON document.
  bool write(const std::string &Path, const std::string &Provenance,
             const std::vector<Metric> &LedgerRows) const;

private:
  std::vector<RootSpan> Roots;
};

/// JSON object naming what ran, where, and built how.
std::string provenanceJson(const Options &O);

/// Every metric a run reports, with its unit, in report order: the
/// end-to-end set of untraced runs and the per-layer set of traced runs.
/// Every workload reports every name; a layer a workload does not exercise
/// reads 0.
const std::vector<Metric> &endToEndCatalog();
const std::vector<Metric> &perLayerCatalog();

/// Puts \p R's metrics in catalog order and fills layers a workload does
/// not exercise with 0. A name outside the catalog is a bug: it aborts.
void finalize(RunResult &R);

/// The result line: {"correct", "attempted", "failed", "metrics"}, with the
/// per-layer metrics when \p Trace and the end-to-end ones otherwise.
std::string resultLine(const RunResult &R, bool Trace);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
