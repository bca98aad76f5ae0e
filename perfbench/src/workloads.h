// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The benchmark's workloads. Every workload runs the same two stages on
// its own relations, so every metric means the same thing on each:
//
//   pipeline  each relation goes CSV in -> mined, ranked, decomposed,
//             audited -> store file -> loaded service -> first answers
//             (pipeline.h);
//   serve     a seeded query mix over all the stores the pipeline wrote
//             (serve_stage.h).
//
// Workloads differ in their relations, mining settings, and in how the
// timed part is split between the two stages.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "mine.h"
#include "pipeline.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  /// The workload's relations, generated from the workload seed.
  std::vector<NamedRelation> (*make)(uint64_t seed);
  MineSettings settings;
  /// Share of --seconds spent serving; the pipeline stage runs whole
  /// passes over the relations until the rest has passed, at least one.
  double serve_share = 0;
  /// The serve stage's fixed open-loop arrival rate (requests/s).
  double open_rate = 0;
  /// Relations the traced pass runs through the pipeline.
  size_t traced_relations = 0;
};

/// The spec named `name`; null when there is none.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Runs `spec` with `args` and adds its metrics to `report`: the
/// end-to-end set when args.trace is off, the per-layer set (from a
/// separate traced pass) when it is on.
void RunWorkload(const WorkloadSpec& spec, const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
