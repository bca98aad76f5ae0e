// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The query-serving stage every workload runs on one store its pipeline
// wrote and loaded. A seeded query mix (see queries.h: half point, half
// join, count_only drawn independently of the class) runs:
//
//   warm-up   one untimed pass, so the lazy point indexes exist; it also
//             records each query's result-row count;
//   1 client  closed loop, at least two whole passes over the mix, moving
//             to the next CPU every kQueriesPerCpu queries (the cores of a
//             shared machine differ in speed): qps_1c, and the per-class
//             p50 and p99 over the queries of each query's fastest run
//             (the machine's stalls of several milliseconds only add
//             time, and in a slow spell they doubled a p99 over all runs);
//   4 clients closed loop over the same mix, partitioned (query i belongs
//             to client i mod 4, so each query is run by exactly one
//             client per pass): qps_4c. Every query must return its
//             warm-up row count, so the result-row totals per pass equal
//             the 1-client totals;
//   open loop a fixed arrival rate sent by 4 threads; latency counts from
//             each request's due time: open_p99_us.
//
// Afterwards a seeded sample of each class is answered again with rows
// materialized and compared with pi(sigma(.)) evaluated directly over
// the fully materialized Yannakakis join of the store.

#ifndef PERFBENCH_SRC_SERVE_STAGE_H_
#define PERFBENCH_SRC_SERVE_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness.h"
#include "queries.h"
#include "serve/service.h"

namespace perfbench {

constexpr int kClients = 4;

struct Mix {
  const maimon::serve::QueryService* service = nullptr;
  std::vector<GeneratedQuery> queries;
  std::vector<uint64_t> rows;  // result rows of each query (warm-up pass)
  uint64_t total_rows = 0;
};

/// Generates `count` queries over `service`'s store from `seed` and runs
/// the warm-up pass.
Mix BuildMix(const maimon::serve::QueryService& service, size_t count,
             uint64_t seed, Report* report);

struct ClosedLoop {
  double qps = 0;
  double cpu_util = 0;  // process CPU / (wall * clients)
  std::vector<double> fastest_s;  // each query's fastest run
  std::vector<double> done_at;    // completion times, ascending
};

struct OpenLoop {
  std::vector<double> latency_s;  // in request order
  double late_pct = 0;
};

struct Phases {
  ClosedLoop one;
  ClosedLoop four;
  OpenLoop open;
};

/// Runs the 1-client, 4-client and open-loop phases for about `seconds`
/// in all (50%, 35%, 15%); the open loop sends `open_rate` requests/s.
Phases RunPhases(const Mix& mix, double seconds, double open_rate,
                 Tracer* tracer, Report* report);

/// Checks a seeded sample of each class against the materialized join of
/// the store.
void CheckAgainstJoin(const Mix& mix, uint64_t seed, Report* report);

/// qps_1c, point/join p50/p99 (1 client) and qps_4c.
void ReportServeEndToEnd(const Mix& mix, const Phases& p, Report* report);

/// The serve.* per-layer metrics and open_p99_us: counters from the
/// traced phases (run on a service sharing `tracer`'s sink), CPU use and
/// open-loop figures from the `untraced` phases.
void ReportServeLayers(const Mix& mix, const Phases& untraced,
                       const Tracer& tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVE_STAGE_H_
