//===- perfbench/cpp/Report.cpp - Statistics, spans and output ------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#ifndef CIP_TELEMETRY
#define CIP_TELEMETRY 1
#endif

using namespace perfbench;

double perfbench::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  const std::size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

double perfbench::quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  const double Rank = std::ceil(Q * static_cast<double>(Xs.size()));
  const std::size_t I = Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return Xs[std::min(I, Xs.size() - 1)];
}

double perfbench::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double LogSum = 0.0;
  for (const double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

double perfbench::sum(const std::vector<double> &Xs) {
  double S = 0.0;
  for (const double X : Xs)
    S += X;
  return S;
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0.0;
}

unsigned perfbench::onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  const unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

std::uint64_t RootSpan::selfNs() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Iv;
  for (const ChildSpan &C : Children)
    Iv.emplace_back(std::max(C.BeginNs, BeginNs), std::min(C.EndNs, EndNs));
  std::sort(Iv.begin(), Iv.end());
  std::uint64_t Covered = 0, Reach = BeginNs;
  for (const auto &[B, E] : Iv) {
    const std::uint64_t From = std::max(B, Reach);
    if (E > From) {
      Covered += E - From;
      Reach = E;
    }
  }
  return EndNs - BeginNs - Covered;
}

RootSpan &SpanLog::addRoot(const std::string &Name, std::uint64_t BeginNs,
                           std::uint64_t EndNs,
                           const std::vector<ThreadCalls> &PerThread) {
  RootSpan R;
  R.Id = Roots.size();
  R.Name = Name;
  R.BeginNs = BeginNs;
  R.EndNs = EndNs;
  for (unsigned T = 0; T < PerThread.size(); ++T)
    for (unsigned C = 0; C < NumCalls; ++C)
      if (PerThread[T].Count[C])
        R.Children.push_back({callName(Call(C)), T, PerThread[T].Count[C],
                              PerThread[T].FirstNs, PerThread[T].LastNs,
                              PerThread[T].Ns[C]});
  Roots.push_back(std::move(R));
  return Roots.back();
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (const char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      continue;
    Out += Ch;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      const std::size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string kernelRelease() {
  struct utsname U;
  if (uname(&U) != 0)
    return "unknown";
  return std::string(U.sysname) + " " + U.release;
}

} // namespace

bool SpanLog::write(const std::string &Path, const std::string &Provenance,
                    const std::vector<Metric> &LedgerRows) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"provenance\":" << Provenance << ",\"ledger\":{";
  for (std::size_t I = 0; I < LedgerRows.size(); ++I)
    Out << (I ? "," : "") << jsonString(LedgerRows[I].Name) << ":"
        << jsonNumber(LedgerRows[I].Value);
  // A server run holds tens of thousands of requests; the file keeps the
  // first MaxWrittenRoots of them and says how many it left out.
  constexpr std::size_t MaxWrittenRoots = 20000;
  const std::size_t Written = std::min(Roots.size(), MaxWrittenRoots);
  Out << "},\"spans_total\":" << Roots.size()
      << ",\"spans_written\":" << Written << ",\"spans\":[";
  for (std::size_t I = 0; I < Written; ++I) {
    const RootSpan &R = Roots[I];
    Out << (I ? ",\n" : "\n") << "{\"id\":" << R.Id
        << ",\"name\":" << jsonString(R.Name) << ",\"begin_ns\":" << R.BeginNs
        << ",\"end_ns\":" << R.EndNs << ",\"self_ns\":" << R.selfNs()
        << ",\"children\":[";
    for (std::size_t C = 0; C < R.Children.size(); ++C) {
      const ChildSpan &K = R.Children[C];
      Out << (C ? "," : "") << "{\"name\":" << jsonString(K.Name)
          << ",\"thread\":" << K.Thread << ",\"count\":" << K.Count
          << ",\"begin_ns\":" << K.BeginNs << ",\"end_ns\":" << K.EndNs
          << ",\"self_ns\":" << K.SelfNs << "}";
    }
    Out << "]}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

std::string perfbench::provenanceJson(const Options &O) {
  std::ostringstream S;
  S << "{\"commit\":" << jsonString(O.Commit)
    << ",\"workload\":" << jsonString(O.Workload) << ",\"seed\":" << O.Seed
    << ",\"seconds\":" << jsonNumber(O.Seconds)
    << ",\"trace\":" << (O.Trace ? "true" : "false")
    << ",\"threads\":" << O.Threads << ",\"nproc\":" << onlineCpus()
    << ",\"cpu_model\":" << jsonString(cpuModel())
    << ",\"kernel\":" << jsonString(kernelRelease())
    << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
    << ",\"telemetry\":" << (CIP_TELEMETRY ? "true" : "false") << "}";
  return S.str();
}

const std::vector<Metric> &perfbench::endToEndCatalog() {
  static const std::vector<Metric> C = {
      {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MB"},
      {"tasks_per_s", 0, "1/s"},
      {"region_s_gmean", 0, "s"},
      {"goodput_rps", 0, "1/s"},
  };
  return C;
}

const std::vector<Metric> &perfbench::perLayerCatalog() {
  static const std::vector<Metric> C = {
      {"workloads.task_s", 0, "s"},
      {"workloads.task_calls", 0, "count"},
      {"workloads.useful_ratio", 0, "ratio"},
      {"workloads.addr_s", 0, "s"},
      {"workloads.prologue_s", 0, "s"},
      {"workloads.task_inflation", 0, "x"},
      {"domore.sched_busy_s", 0, "s"},
      {"domore.sched_ratio", 0, "%"},
      {"domore.probe_dispatch_s", 0, "s"},
      {"domore.sched_stall_s", 0, "s"},
      {"domore.sync_conditions", 0, "count"},
      {"domore.worker_wait_s", 0, "s"},
      {"domore.worker_wait_s_p99", 0, "s"},
      {"domore.queue_full_spins", 0, "count"},
      {"domore.queue_empty_spins", 0, "count"},
      {"domore.batch_mean", 0, "count"},
      {"speccross.check_requests", 0, "count"},
      {"speccross.comparisons", 0, "count"},
      {"speccross.check_busy_s", 0, "s"},
      {"speccross.check_s_p50", 0, "s"},
      {"speccross.check_s_p99", 0, "s"},
      {"speccross.throttle_wait_s", 0, "s"},
      {"speccross.misspeculations", 0, "count"},
      {"speccross.reexec_epochs", 0, "count"},
      {"speccross.reexec_barrier_s", 0, "s"},
      {"speccross.recovery_s", 0, "s"},
      {"memory.register_s", 0, "s"},
      {"memory.snapshots", 0, "count"},
      {"memory.snapshot_s", 0, "s"},
      {"memory.bytes_copied", 0, "B"},
      {"memory.dirty_pages", 0, "count"},
      {"server.queue_wait_s_p50", 0, "s"},
      {"server.queue_wait_s_p99", 0, "s"},
      {"server.exec_s_p50", 0, "s"},
      {"server.exec_s_p99", 0, "s"},
      {"server.degraded_seq_share", 0, "ratio"},
      {"server.degraded_narrow_share", 0, "ratio"},
      {"server.granted_mean", 0, "count"},
      {"server.generator_lag_s_p99", 0, "s"},
      {"server.latency_s_p50.low", 0, "s"},
      {"server.latency_s_p99.low", 0, "s"},
      {"server.latency_s_p50.mid", 0, "s"},
      {"server.latency_s_p99.mid", 0, "s"},
      {"server.latency_s_p99.high", 0, "s"},
      {"server.goodput_rps.high", 0, "1/s"},
      {"support.barrier_wait_s", 0, "s"},
      {"harness.speedup_vs_seq", 0, "x"},
      {"harness.speedup_vs_barrier", 0, "x"},
      {"harness.unattributed_share", 0, "ratio"},
      {"harness.trace_overhead", 0, "x"},
  };
  return C;
}

namespace {

std::vector<Metric> inCatalogOrder(const std::vector<Metric> &Got,
                                   const std::vector<Metric> &Catalog,
                                   bool FillMissing) {
  std::vector<Metric> Out;
  for (const Metric &M : Got) {
    bool Known = false;
    for (const Metric &C : Catalog)
      Known |= C.Name == M.Name && C.Unit == M.Unit;
    if (!Known) {
      std::fprintf(stderr, "internal error: metric '%s' (%s) not in catalog\n",
                   M.Name.c_str(), M.Unit.c_str());
      std::abort();
    }
  }
  for (const Metric &C : Catalog) {
    const Metric *Found = nullptr;
    for (const Metric &M : Got)
      if (M.Name == C.Name)
        Found = &M;
    if (Found)
      Out.push_back(*Found);
    else if (FillMissing)
      Out.push_back(C);
  }
  return Out;
}

} // namespace

void perfbench::finalize(RunResult &R) {
  R.EndToEnd = inCatalogOrder(R.EndToEnd, endToEndCatalog(), false);
  if (!R.PerLayer.empty())
    R.PerLayer = inCatalogOrder(R.PerLayer, perLayerCatalog(), true);
}

std::string perfbench::resultLine(const RunResult &R, bool Trace) {
  const std::vector<Metric> &Ms = Trace ? R.PerLayer : R.EndToEnd;
  std::ostringstream S;
  S << "{\"correct\": " << (R.Correct ? "true" : "false")
    << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
    << ", \"metrics\": {";
  for (std::size_t I = 0; I < Ms.size(); ++I)
    S << (I ? ", " : "") << jsonString(Ms[I].Name)
      << ": {\"value\": " << jsonNumber(Ms[I].Value)
      << ", \"unit\": " << jsonString(Ms[I].Unit) << "}";
  S << "}}";
  return S.str();
}
