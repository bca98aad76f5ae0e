// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "serve_stage.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "decomp/projection_store.h"
#include "decomp/yannakakis.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using maimon::serve::Query;
using maimon::serve::QueryResult;
using maimon::serve::QueryService;

/// A request counts as sent late when it starts this long after its due
/// time (all senders were busy).
constexpr double kLateS = 1e-3;
constexpr size_t kOracleSamplesPerClass = 32;
/// The open loop's p99 is reported as the median of the p99 of consecutive
/// slices of its samples, so one stall of the shared machine moves it
/// little; each slice holds at least ten samples beyond its p99.
constexpr int kOpenSlices = 5;
/// The lone client of the 1-client loop moves to the next CPU after this
/// many queries.
constexpr size_t kQueriesPerCpu = 32;

// Runs query `i` of the mix and checks its row count against the warm-up.
bool RunOne(const Mix& mix, size_t i, Tracer* tracer, Report* report) {
  Tracer::Scope scope(tracer, "serve.Execute", i);
  const QueryResult r = mix.service->Execute(mix.queries[i].query);
  report->Attempted();
  if (!r.status.ok()) {
    report->Failed("query " + std::to_string(i) + ": " + r.status.message());
    return false;
  }
  if (r.rows != mix.rows[i]) {
    report->Failed("query " + std::to_string(i) + " returned " +
                   std::to_string(r.rows) + " rows, warm-up " +
                   std::to_string(mix.rows[i]));
    return false;
  }
  return true;
}

// Median over `slices` consecutive slices of `samples` of each slice's p99.
double SlicedP99(const std::vector<double>& samples, int slices) {
  const size_t n = samples.size() / static_cast<size_t>(slices);
  if (n == 0) return Quantile(samples, 0.99);
  std::vector<double> p99;
  for (int i = 0; i < slices; ++i) {
    p99.push_back(Quantile(
        std::vector<double>(samples.begin() + i * n,
                            samples.begin() + (i + 1) * n),
        0.99));
  }
  return Median(p99);
}

// `clients` threads run whole passes over their partition of the mix
// until `seconds` have passed, at least `min_passes` each. Query i is
// client i mod clients's, so only that client writes its fastest time.
ClosedLoop RunClosedLoop(const Mix& mix, int clients, int min_passes,
                         double seconds, Tracer* tracer, Report* report) {
  ClosedLoop out;
  out.fastest_s.assign(mix.queries.size(),
                       std::numeric_limits<double>::infinity());
  std::vector<ClosedLoop> per_client(static_cast<size_t>(clients));
  const double start = WallS();
  const double cpu_start = ProcessCpuS();
  // A lone client moves round the machine's cores (their speeds differ),
  // so its queries are spread evenly over them.
  const std::vector<int> cpus =
      clients == 1 ? AllowedCpus() : std::vector<int>();
  const auto client = [&](int c) {
    ClosedLoop& own = per_client[static_cast<size_t>(c)];
    size_t sent = 0;
    int passes = 0;
    do {
      uint64_t pass_rows = 0;
      uint64_t expected_rows = 0;
      for (size_t i = static_cast<size_t>(c); i < mix.queries.size();
           i += static_cast<size_t>(clients)) {
        if (!cpus.empty() && sent % kQueriesPerCpu == 0) {
          PinThisThread({cpus[sent / kQueriesPerCpu % cpus.size()]});
        }
        ++sent;
        const double t0 = WallS();
        if (RunOne(mix, i, tracer, report)) pass_rows += mix.rows[i];
        const double t1 = WallS();
        out.fastest_s[i] = std::min(out.fastest_s[i], t1 - t0);
        own.done_at.push_back(t1);
        expected_rows += mix.rows[i];
      }
      if (pass_rows != expected_rows) {
        report->Failed("client " + std::to_string(c) + " pass returned " +
                       std::to_string(pass_rows) + " rows, expected " +
                       std::to_string(expected_rows));
      }
    } while (++passes < min_passes || WallS() - start < seconds);
  };
  if (clients == 1) {
    client(0);
    PinThisThread(cpus);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        client(c);
        if (tracer->sink() != nullptr) tracer->sink()->ReleaseLane();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = WallS() - start;
  out.cpu_util = (ProcessCpuS() - cpu_start) / (wall * clients);
  // Throughput counts up to where the first client stopped, so every
  // client is busy throughout the counted interval.
  double end = WallS();
  for (const ClosedLoop& c : per_client) {
    end = std::min(end, c.done_at.empty() ? start : c.done_at.back());
  }
  size_t done = 0;
  for (const ClosedLoop& c : per_client) {
    done += static_cast<size_t>(
        std::upper_bound(c.done_at.begin(), c.done_at.end(), end) -
        c.done_at.begin());
  }
  out.qps = static_cast<double>(done) / std::max(end - start, 1e-9);
  return out;
}

// Request k is due at start + k / rate and runs query k mod N; up to
// kClients sender threads claim requests in order.
OpenLoop RunOpenLoop(const Mix& mix, double seconds, double rate,
                     Tracer* tracer, Report* report) {
  const size_t requests =
      std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::vector<double> latency(requests, 0.0);
  std::atomic<size_t> next{0};
  std::atomic<size_t> late{0};
  const double start = WallS() + 1e-3;
  const auto sender = [&] {
    for (size_t k = next.fetch_add(1); k < requests; k = next.fetch_add(1)) {
      const double due = start + static_cast<double>(k) / rate;
      const double wait = due - WallS();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      if (WallS() - due > kLateS) late.fetch_add(1);
      RunOne(mix, k % mix.queries.size(), tracer, report);
      latency[k] = WallS() - due;
    }
    if (tracer->sink() != nullptr) tracer->sink()->ReleaseLane();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  OpenLoop out;
  out.latency_s = std::move(latency);
  out.late_pct = 100.0 * static_cast<double>(late.load()) /
                 static_cast<double>(requests);
  return out;
}

// pi(sigma(.)) over the full materialized join, as sorted distinct rows.
std::vector<std::vector<uint32_t>> Expected(const maimon::JoinResult& join,
                                            const Query& q) {
  std::vector<size_t> out_pos;
  for (size_t c = 0; c < join.columns.size(); ++c) {
    if (q.attrs.Contains(join.columns[c])) out_pos.push_back(c);
  }
  std::set<std::vector<uint32_t>> rows;
  for (const std::vector<uint32_t>& t : join.tuples) {
    bool keep = true;
    for (const maimon::serve::Selection& sel : q.selections) {
      const size_t c = static_cast<size_t>(
          std::find(join.columns.begin(), join.columns.end(), sel.attr) -
          join.columns.begin());
      if (!sel.Matches(t[c])) keep = false;
    }
    if (!keep) continue;
    std::vector<uint32_t> row;
    for (size_t c : out_pos) row.push_back(t[c]);
    rows.insert(std::move(row));
  }
  return std::vector<std::vector<uint32_t>>(rows.begin(), rows.end());
}

double Us(double seconds) { return seconds * 1e6; }

}  // namespace

Mix BuildMix(const QueryService& service, size_t count, uint64_t seed,
             Report* report) {
  Mix mix;
  mix.service = &service;
  mix.queries = GenerateQueries(*service.snapshot(), count, seed);
  for (const GeneratedQuery& g : mix.queries) {
    const QueryResult r = service.Execute(g.query);
    report->Attempted();
    if (!r.status.ok()) report->Failed("warm-up: " + r.status.message());
    mix.rows.push_back(r.rows);
    mix.total_rows += r.rows;
  }
  return mix;
}

Phases RunPhases(const Mix& mix, double seconds, double open_rate,
                 Tracer* tracer, Report* report) {
  Phases p;
  p.one = RunClosedLoop(mix, 1, /*min_passes=*/2, 0.5 * seconds, tracer,
                        report);
  p.four = RunClosedLoop(mix, kClients, /*min_passes=*/1, 0.35 * seconds,
                         tracer, report);
  p.open = RunOpenLoop(mix, 0.15 * seconds, open_rate, tracer, report);
  return p;
}

void CheckAgainstJoin(const Mix& mix, uint64_t seed, Report* report) {
  maimon::YannakakisExecutor executor(mix.service->snapshot()->store());
  maimon::YannakakisOptions options;
  options.materialize = true;
  const maimon::JoinResult join = executor.Execute(options);
  report->Attempted();
  if (!join.status.ok()) {
    report->Failed("full join: " + join.status.message());
    return;
  }
  maimon::Rng rng(MixSeed(seed, 0x0c0ffee));
  size_t checked[kNumQueryClasses] = {};
  for (size_t tries = 0; tries < 64 * kOracleSamplesPerClass; ++tries) {
    const GeneratedQuery& g = mix.queries[rng.Uniform(mix.queries.size())];
    size_t& n = checked[static_cast<int>(g.cls)];
    if (n == kOracleSamplesPerClass) continue;
    ++n;
    Query q = g.query;
    q.count_only = false;
    QueryResult r = mix.service->Execute(q);
    std::sort(r.tuples.begin(), r.tuples.end());
    report->Attempted();
    if (!r.status.ok() || r.tuples != Expected(join, q) ||
        r.rows != r.tuples.size()) {
      report->Failed(std::string(QueryClassName(g.cls)) +
                     " query disagrees with the materialized join");
    }
  }
  std::fprintf(stderr,
               "[serve] oracle: %zu point, %zu join queries checked against "
               "a %llu-row join\n",
               checked[0], checked[1],
               static_cast<unsigned long long>(join.rows));
}

void ReportServeEndToEnd(const Mix& mix, const Phases& p, Report* report) {
  std::vector<double> fastest[kNumQueryClasses];
  for (size_t i = 0; i < mix.queries.size(); ++i) {
    fastest[static_cast<int>(mix.queries[i].cls)].push_back(p.one.fastest_s[i]);
  }
  const auto& point = fastest[static_cast<int>(QueryClass::kPoint)];
  const auto& join = fastest[static_cast<int>(QueryClass::kJoin)];
  std::fprintf(stderr,
               "[serve] latency quantiles over %zu point and %zu join "
               "queries (1 client); %zu open-loop requests\n",
               point.size(), join.size(), p.open.latency_s.size());
  report->Metric("qps_1c", p.one.qps, "1/s");
  report->Metric("point_p50_us", Us(Quantile(point, 0.5)), "us");
  report->Metric("point_p99_us", Us(Quantile(point, 0.99)), "us");
  report->Metric("join_p50_us", Us(Quantile(join, 0.5)), "us");
  report->Metric("join_p99_us", Us(Quantile(join, 0.99)), "us");
  report->Metric("qps_4c", p.four.qps, "1/s");
}

void ReportServeLayers(const Mix& mix, const Phases& untraced,
                       const Tracer& tracer, Report* report) {
  // Planner cost alone, over the whole mix.
  const double plan_start = WallS();
  const maimon::serve::Planner& planner = mix.service->snapshot()->planner();
  size_t plans = 0;
  for (int rep = 0; rep < 16; ++rep) {
    for (const GeneratedQuery& g : mix.queries) {
      plans += planner.Plan(g.query).nodes.size() > 0 ? 1 : 0;
    }
  }
  const double plan_us = Us(WallS() - plan_start) /
                         static_cast<double>(std::max<size_t>(1, plans));

  const maimon::obs::MetricsRegistry m = tracer.sink()->SnapshotMetrics();
  const double queries =
      std::max(1.0, static_cast<double>(m.counter("serve.queries")));
  const maimon::obs::Histogram* nodes = m.histogram("serve.plan_nodes");
  report->Metric("serve.plan_us", plan_us, "us");
  report->Metric("serve.plan_nodes_per_query",
                 nodes == nullptr ? 0.0
                                  : static_cast<double>(nodes->sum) / queries,
                 "count");
  report->Metric("serve.semijoin_passes_per_query",
                 static_cast<double>(m.counter("yk.semijoin_passes")) / queries,
                 "count");
  report->Metric("serve.point_lookup_share",
                 static_cast<double>(m.counter("serve.point_lookups")) /
                     queries,
                 "ratio");
  report->Metric("serve.rows_per_query",
                 static_cast<double>(m.counter("serve.rows")) / queries,
                 "count");
  report->Metric("serve.cpu_util_4c", untraced.four.cpu_util, "ratio");
  report->Metric("serve.open_late_pct", untraced.open.late_pct, "%");
  // Reported with the per-layer metrics, not the gated end-to-end set:
  // multi-millisecond stalls of a shared machine's vCPUs set the p99 of an
  // open loop, so its spread across seeds exceeds any bound worth gating.
  report->Metric("open_p99_us",
                 Us(SlicedP99(untraced.open.latency_s, kOpenSlices)), "us");
}

}  // namespace perfbench
