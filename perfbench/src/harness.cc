// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "obs/report.h"
#include "util/stopwatch.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Failed("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Failed(const std::string& why) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(log_mu_);
  std::fprintf(stderr, "[perfbench] FAILED: %s\n", why.c_str());
}

double Report::FailedPct() const {
  const uint64_t attempted = attempted_.load();
  return attempted == 0 ? 0.0
                        : 100.0 * static_cast<double>(failed_.load()) /
                              static_cast<double>(attempted);
}

void Report::Print(std::FILE* out) const {
  const bool correct = failed_.load() == 0 && attempted_.load() > 0;
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted_.load()),
               static_cast<unsigned long long>(failed_.load()));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                 metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

namespace {

// Span ids of the calling thread's open Scopes, innermost last.
thread_local std::vector<uint64_t> open_spans;

// Value of an integer `"key":N` arg in a span's pre-rendered args.
uint64_t ArgValue(const std::string& args, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = args.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(args.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

Tracer::Tracer(bool trace) {
  if (trace) sink_ = std::make_unique<maimon::obs::Sink>();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t id)
    : span_(tracer->sink(), name) {
  if (!span_.active()) return;
  const uint64_t span_id = tracer->next_span_id_.fetch_add(1);
  span_.Arg("span", span_id);
  span_.Arg("parent", open_spans.empty() ? uint64_t{0} : open_spans.back());
  span_.Arg("id", id);
  open_spans.push_back(span_id);
}

Tracer::Scope::~Scope() {
  if (span_.active()) open_spans.pop_back();
}

void Tracer::WriteTrace(const std::string& path) const {
  if (sink_ == nullptr) return;
  if (!maimon::obs::WriteTraceFile(*sink_, path)) {
    std::fprintf(stderr, "[perfbench] could not write trace %s\n",
                 path.c_str());
  }
  // Self time of the benchmark's own spans: duration minus the durations
  // of the spans whose parent arg names it.
  struct Row {
    uint64_t count = 0;
    uint64_t dur_ns = 0;
    uint64_t child_ns = 0;
  };
  std::unordered_map<uint64_t, std::pair<std::string, uint64_t>> by_span;
  std::unordered_map<uint64_t, uint64_t> child_ns;
  sink_->ForEachEvent([&](int, const std::string&,
                          const maimon::obs::TraceEvent& event) {
    const uint64_t span = ArgValue(event.args_json, "span");
    if (span == 0) return;  // a span emitted inside the library
    by_span[span] = {event.name, event.dur_ns};
    const uint64_t parent = ArgValue(event.args_json, "parent");
    if (parent != 0) child_ns[parent] += event.dur_ns;
  });
  std::map<std::string, Row> rows;
  for (const auto& [span, info] : by_span) {
    Row& row = rows[info.first];
    ++row.count;
    row.dur_ns += info.second;
    const auto it = child_ns.find(span);
    if (it != child_ns.end()) row.child_ns += std::min(it->second, info.second);
  }
  std::fprintf(stderr, "[perfbench] trace written to %s\n", path.c_str());
  std::fprintf(stderr, "%-28s %10s %12s %12s\n", "span", "count", "wall_ms",
               "self_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-28s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(row.count),
                 static_cast<double>(row.dur_ns) / 1e6,
                 static_cast<double>(row.dur_ns - row.child_ns) / 1e6);
  }
}

void ReportPoolLayers(const Tracer& tracer, Report* report) {
  const maimon::obs::MetricsRegistry metrics =
      tracer.sink() != nullptr ? tracer.sink()->SnapshotMetrics()
                               : maimon::obs::MetricsRegistry();
  const auto sum_ms = [&metrics](const char* name) {
    const maimon::obs::Histogram* h = metrics.histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->sum) / 1e6;
  };
  report->Metric("util.pool_queue_wait_ms", sum_ms("pool.queue_wait_ns"),
                 "ms");
  report->Metric("util.pool_task_run_ms", sum_ms("pool.task_run_ns"), "ms");
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double WallS() {
  return static_cast<double>(maimon::Stopwatch::NowNs()) * 1e-9;
}

double ProcessCpuS() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t MixSeed(uint64_t base, uint64_t seed) {
  return SplitMix64(base ^ SplitMix64(seed));
}

maimon::PlantedDataset GenerateSeededShape(const maimon::DatasetShape& shape,
                                           size_t rows, uint64_t seed) {
  // The same spec GenerateShaped builds, with `seed` mixed into the
  // per-shape FNV-1a seed.
  rows = std::max<size_t>(16, rows);
  maimon::PlantedSpec spec;
  spec.num_attrs = std::min<int>(shape.columns, maimon::AttrSet::kMaxAttrs);
  spec.num_bags = std::max(1, shape.bags);
  spec.root_rows = std::max<size_t>(4, rows / 4);
  spec.max_rows = rows;
  spec.noise_fraction = shape.noise;
  spec.domain_size = shape.domain_size;
  spec.branch_factor = 3;
  uint64_t base = 0xcbf29ce484222325ULL;
  for (char c : shape.name) {
    base ^= static_cast<unsigned char>(c);
    base *= 0x100000001b3ULL;
  }
  spec.seed = MixSeed(base, seed);
  return maimon::GeneratePlanted(spec);
}

}  // namespace perfbench
