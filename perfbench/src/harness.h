// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The benchmark's own plumbing, shared by every workload:
//
//   Report  — the result line: correct / attempted / failed plus named
//             metrics with units, printed as one JSON object.
//   Tracer  — tracing around each call into the library. When tracing is
//             on, a Scope is an obs::Span carrying its own span id, its
//             parent's span id and the query or relation id. Spans stay in
//             the obs::Sink until the run ends; then the Chrome trace is
//             written out and a self-time table (duration minus the time
//             covered by child spans) goes to stderr.
//   helpers — clocks, peak RSS, order statistics, seed mixing, and the
//             Table 2 shape generator with the workload seed mixed in.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/metanome_shapes.h"
#include "obs/trace.h"

namespace perfbench {

/// Set-up runs this many times per run, twice on each core of a 4-vCPU
/// machine; setup_s is the median.
constexpr int kSetupRepeats = 8;

/// What every workload receives from the command line.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Directory for the files a workload writes (CSV inputs, store files).
  std::string work_dir;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts `n` attempted operations. Thread-safe.
  void Attempted(uint64_t n = 1) { attempted_.fetch_add(n); }
  /// Counts one failed operation (non-OK status, deadline, or a failed
  /// correctness check) and logs `why` to stderr. Thread-safe.
  void Failed(const std::string& why);
  uint64_t failed() const { return failed_.load(); }
  /// 100 * failed / attempted.
  double FailedPct() const;
  /// Prints `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  void Print(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex log_mu_;
};

/// Per-name sums of numeric per-layer values (counters, seconds) gathered
/// while a workload runs; the workload turns them into reported metrics.
using Values = std::map<std::string, double>;

class Tracer {
 public:
  explicit Tracer(bool trace);

  /// Null when tracing is off: library calls then run uninstrumented.
  maimon::obs::Sink* sink() const { return sink_.get(); }

  /// With tracing on, an obs::Span named `name` (a string literal: the
  /// span keeps the pointer) with args `span`, `parent` and `id`; with
  /// tracing off, nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    maimon::obs::Span span_;
  };

  /// Writes the Chrome trace to `path` and the per-name span table (count,
  /// wall, self) to stderr. Call after every worker thread is joined.
  void WriteTrace(const std::string& path) const;

 private:
  std::unique_ptr<maimon::obs::Sink> sink_;
  std::atomic<uint64_t> next_span_id_{1};
};

/// Adds `util.pool_queue_wait_ms` and `util.pool_task_run_ms`: the summed
/// pool.queue_wait_ns / pool.task_run_ns histograms of a traced run.
void ReportPoolLayers(const Tracer& tracer, Report* report);

/// The CPUs the calling thread may run on.
std::vector<int> AllowedCpus();
/// Restricts the calling thread to `cpus` (best effort).
void PinThisThread(const std::vector<int>& cpus);

double WallS();
double ProcessCpuS();
double PeakRssMb();
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Combines `base` with a seed: splitmix64(base ^ splitmix64(seed)).
uint64_t MixSeed(uint64_t base, uint64_t seed);

/// The planted relation GenerateShaped would build for `shape` at
/// `rows` rows, with the workload seed mixed into PlantedSpec::seed.
maimon::PlantedDataset GenerateSeededShape(const maimon::DatasetShape& shape,
                                           size_t rows, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
