// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// perfbench: the repository's benchmark. Usage:
//
//   perfbench --workload <mine-tall|ingest-small|serve-nursery>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// from a traced pass. Exits 1 when any operation failed or a correctness
// check did not hold, 2 on bad arguments.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mine-tall|ingest-small|serve-nursery> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".bench_build/perfbench";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) return Usage("bad --seed");
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 600) {
        return Usage("bad --seconds (1..600)");
      }
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) {
        return Usage("bad --trace (0 or 1)");
      }
      args.trace = number == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (mkdir(args.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Usage(("cannot create work dir " + args.work_dir).c_str());
  }

  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  perfbench::Report report;
  perfbench::RunWorkload(*spec, args, &report);
  report.Print(stdout);
  return report.failed() == 0 ? 0 : 1;
}
