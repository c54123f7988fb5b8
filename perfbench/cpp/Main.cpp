//===- perfbench/cpp/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--threads <n>] [--setup-reps <n>] [--rates <lo,mid,hi>]
///           [--latency-limit <s>] [--min-requests <n>] [--trace-out <path>]
///           [--commit <rev>]
/// perfbench --list-metrics
///
/// Prints a provenance line, human-readable notes and every metric with its
/// unit, then, as the last line, the result object. Exits 2 on a bad
/// argument or environment, 1 when any output was wrong.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Report.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

extern char **environ;

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr, "error: %s\n", Why.c_str());
  std::exit(2);
}

double parseDouble(const char *Flag, const char *S) {
  char *End = nullptr;
  errno = 0;
  const double V = std::strtod(S, &End);
  if (errno || End == S || *End || !(V > 0.0))
    usage(std::string(Flag) + " expects a positive number, got '" + S + "'");
  return V;
}

std::uint64_t parseUnsigned(const char *Flag, const char *S) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || *S == '-')
    usage(std::string(Flag) + " expects an unsigned integer, got '" + S + "'");
  return V;
}

/// CIP_* variables select runtime paths (checkpoint substrate, shard and
/// scheduler-team counts, SIMD, pool, plans...). The benchmark measures the
/// program as shipped, so any of them set is an error, not a preference.
void refuseProgramKnobs() {
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "CIP_", 4) == 0)
      usage(std::string("environment variable ") + *E +
            " would change the measured program; unset every CIP_* "
            "variable");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (A == "--list-metrics") {
      for (const Metric &M : endToEndCatalog())
        std::printf("end_to_end %s %s\n", M.Name.c_str(), M.Unit.c_str());
      for (const Metric &M : perLayerCatalog())
        std::printf("per_layer %s %s\n", M.Name.c_str(), M.Unit.c_str());
      return 0;
    }
    if (I + 1 >= Argc)
      usage("missing value for " + A);
    const char *V = Argv[++I];
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = parseUnsigned("--seed", V);
    } else if (A == "--seconds") {
      O.Seconds = parseDouble("--seconds", V);
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace expects 0 or 1");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--threads") {
      O.Threads = static_cast<unsigned>(parseUnsigned("--threads", V));
    } else if (A == "--setup-reps") {
      O.SetupReps = static_cast<unsigned>(parseUnsigned("--setup-reps", V));
    } else if (A == "--rates") {
      std::stringstream S(V);
      std::string Tok;
      while (std::getline(S, Tok, ','))
        O.RatesRps.push_back(parseDouble("--rates", Tok.c_str()));
    } else if (A == "--latency-limit") {
      O.LatencyLimitS = parseDouble("--latency-limit", V);
    } else if (A == "--min-requests") {
      O.MinRequestsPerRate =
          static_cast<unsigned>(parseUnsigned("--min-requests", V));
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else if (A == "--commit") {
      O.Commit = V;
    } else {
      usage("unknown argument " + A);
    }
  }
  if (!HaveWorkload || !HaveTrace)
    usage("--workload and --trace are required");
  bool Known = false;
  for (const std::string &N : workloadNames())
    Known |= N == O.Workload;
  if (!Known)
    usage("unknown workload '" + O.Workload + "'");
  refuseProgramKnobs();
  if (O.Threads < 2)
    usage("--threads must be at least 2 (a scheduler or checker plus a "
          "worker)");
  if (O.Threads > onlineCpus())
    usage("--threads " + std::to_string(O.Threads) + " exceeds the " +
          std::to_string(onlineCpus()) + " online CPUs");
  if (O.SetupReps == 0)
    usage("--setup-reps must be at least 1");

  std::printf("provenance: %s\n", provenanceJson(O).c_str());
  std::fflush(stdout);
  RunResult R = runWorkload(O);
  finalize(R);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  for (const Metric &M : O.Trace ? R.PerLayer : R.EndToEnd)
    std::printf("%-30s %.9g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("ops_total %llu\nops_failed %llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  if (O.Trace)
    std::printf("ledger: capacity %.6f s = attributed %.6f s + unattributed "
                "%.6f s over %llu invocations (worst over-attribution "
                "%.4f%%)\n",
                R.Ledger.CapacityS, R.Ledger.AttributedS,
                R.Ledger.UnattributedS,
                static_cast<unsigned long long>(R.Ledger.Invocations),
                100.0 * R.Ledger.WorstOverShare);
  std::printf("%s\n", resultLine(R, O.Trace).c_str());
  return R.Correct ? 0 : 1;
}
