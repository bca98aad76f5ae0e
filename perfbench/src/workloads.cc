// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The three workloads and the runner they share.
//
//   mine-tall      four Adult-shaped relations (Table 2: 14 columns,
//                  48,842 rows requested, 4 bags, domain 18, noise 0.03)
//                  and the real Nursery, eps 0.1, 4 threads. Partitions of
//                  the Adult ones are large enough that the 64 MiB
//                  PliCache overflows, so the intersect kernel, the cache
//                  policy and ranking's counting DP do most of the work.
//                  Mining cost swings with the generated data (the mined
//                  MVD count varies by a factor of two between seeds), so
//                  a run mines four of them.
//   ingest-small   two seeded instances of each of Table 2's narrow shapes
//                  (Iris, Balance Scale, Chess, Abalone, Breast-Cancer,
//                  Bridges, Echocardiogram, Classification; rows capped at
//                  20,000) plus the real Nursery relation: 17 relations,
//                  eps 0.1, 4 threads. Mining is memo-bound; most
//                  relations fit in the cache; import and store write /
//                  map are a visible share.
//   serve-nursery  the real 12,960-row Nursery relation, eps 0.3, 4
//                  threads; a tenth of the timed part repeats its
//                  pipeline, the rest is serving.
//
// Every workload ends with the real Nursery relation, and the serve stage
// runs on its store: a store that does not change with the seed, so the
// serving figures of every workload move only with the query mix and the
// code. Queries on the seeded stores would make them swing with the data
// (join p50 by a third between seeds on ingest-small's 17 stores).
//
// A run: set-up (kSetupRepeats times; the median is setup_s) generates the
// relations and writes their CSV files. The pipeline stage runs whole
// passes over the relations (pipeline.h): one, then the serve stage, then
// more until the pipeline's share of the run has passed (one pass of
// mine-tall or ingest-small outlasts its share; serve-nursery makes about
// twenty of 0.1 s). mine_s and pipeline_s sum, over the relations,
// each relation's median time. store_bytes_ratio is store-file bytes over
// CSV bytes of the served relation: a store holds every mined MVD, so on
// the seeded relations the ratio follows the mined MVD count, which swings
// by 2x between seeds (the ratio over five Adult-shaped relations and
// Nursery spread by 24% across ten seeds). The serve stage runs the query
// mix (serve_stage.h). Mining output does not depend on the thread count
// or timing, so every repeat of a relation (further passes, the traced
// pass) must reproduce its first outcome exactly.
//
// With --trace 1 the untraced run is followed by a traced one: the first
// traced_relations relations through the pipeline and the serve phases
// on a service sharing one obs::Sink; the per-layer metrics come from
// it.

#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "data/metanome_shapes.h"
#include "data/nursery.h"
#include "serve/service.h"
#include "serve_stage.h"

namespace perfbench {

namespace {

using maimon::serve::QueryService;

/// Size of the serve stage's query mix: 1,024 queries per class, so a
/// class's p99 has ten queries beyond it.
constexpr size_t kQueries = 2048;

std::vector<NamedRelation> MineTallRelations(uint64_t seed) {
  constexpr int kAdults = 4;
  const maimon::DatasetShape& adult = *maimon::FindShape("Adult");
  std::vector<NamedRelation> out;
  for (int r = 0; r < kAdults; ++r) {
    out.emplace_back(
        "Adult #" + std::to_string(r),
        GenerateSeededShape(adult, adult.paper_rows, MixSeed(seed, r))
            .relation);
  }
  out.emplace_back("Nursery", maimon::NurseryDataset());
  return out;
}

std::vector<NamedRelation> IngestSmallRelations(uint64_t seed) {
  // The narrow Table 2 shapes: at most 13 columns and at most 100k rows
  // in the paper (Image and Ditag Feature are tall shapes, left out). Each
  // is generated twice from different seeds: the mined MVD count of the
  // wide ones (Bridges, Echocardiogram) swings with the data.
  constexpr int kMaxCols = 13;
  constexpr size_t kMaxPaperRows = 100000;
  constexpr size_t kMaxRows = 20000;
  constexpr uint64_t kCopies = 2;
  std::vector<NamedRelation> out;
  for (uint64_t copy = 0; copy < kCopies; ++copy) {
    for (const maimon::DatasetShape& shape : maimon::Table2Shapes()) {
      if (shape.columns > kMaxCols || shape.paper_rows > kMaxPaperRows ||
          shape.name == "Nursery") {
        continue;
      }
      out.emplace_back(
          shape.name + " #" + std::to_string(copy),
          GenerateSeededShape(shape, std::min(shape.paper_rows, kMaxRows),
                              MixSeed(seed, copy))
              .relation);
    }
  }
  out.emplace_back("Nursery", maimon::NurseryDataset());
  return out;
}

std::vector<NamedRelation> NurseryRelation(uint64_t /*seed*/) {
  return {{"Nursery", maimon::NurseryDataset()}};
}

// The open-loop rates are about half the 4-client capacity measured when
// the benchmark was defined (4,200-5,600 queries/s on a shared 4-vCPU
// machine).
const WorkloadSpec kWorkloads[] = {
    {"mine-tall", MineTallRelations, MineSettings{0.1, 4},
     /*serve_share=*/0.3, /*open_rate=*/2000, /*traced_relations=*/1},
    {"ingest-small", IngestSmallRelations, MineSettings{0.1, 4},
     /*serve_share=*/0.7, /*open_rate=*/2000, /*traced_relations=*/17},
    {"serve-nursery", NurseryRelation, MineSettings{0.3, 4},
     /*serve_share=*/0.9, /*open_rate=*/2500, /*traced_relations=*/1},
};

// Per-relation samples of the pipeline stage and the checks on them.
class PipelineStage {
 public:
  PipelineStage(const WorkloadSpec& spec, const Args& args,
                const std::vector<Input>* inputs, Report* report)
      : spec_(spec),
        args_(args),
        inputs_(inputs),
        report_(report),
        pipeline_s_(inputs->size()),
        mine_s_(inputs->size()),
        outcome_(inputs->size()) {}

  // Runs every relation once, untraced, recording their times; keeps the
  // service of the last one. Returns the wall time of the pass.
  double Pass() {
    const double start = WallS();
    for (size_t r = 0; r < inputs_->size(); ++r) Run(r);
    return WallS() - start;
  }

  // Records relation r's first outcome; a later one must equal it.
  void Check(size_t r, const std::string& outcome, const char* what) {
    if (outcome_[r].empty()) {
      outcome_[r] = outcome;
      std::fprintf(stderr, "[%s] %s: %s\n", spec_.name,
                   (*inputs_)[r].name.c_str(), outcome.c_str());
    } else if (outcome != outcome_[r]) {
      report_->Failed(std::string(spec_.name) + " " + (*inputs_)[r].name +
                      ": " + what + " differs from the first run: " +
                      outcome);
    }
  }

  // Sum over the relations of each relation's median of `samples`.
  static double SumOfMedians(const std::vector<std::vector<double>>& samples,
                             size_t relations) {
    double sum = 0;
    for (size_t r = 0; r < relations; ++r) {
      if (!samples[r].empty()) sum += Median(samples[r]);
    }
    return sum;
  }

  double pipeline_s(size_t relations) const {
    return SumOfMedians(pipeline_s_, relations);
  }
  double mine_s() const { return SumOfMedians(mine_s_, mine_s_.size()); }
  // Of the last relation, the one served.
  double store_bytes_ratio() const {
    return static_cast<double>(served_store_bytes_) /
           static_cast<double>(inputs_->back().csv_bytes);
  }

  // The service loaded from the last relation's store by the latest pass;
  // null if its pipeline failed.
  std::unique_ptr<QueryService> TakeServed() { return std::move(served_); }

 private:
  // Runs relation r untraced and records its times.
  void Run(size_t r) {
    Tracer untraced(false);
    Values values;
    PipelineRun run = RunPipeline((*inputs_)[r], spec_.settings, args_.seed,
                                  r, &untraced, &values, report_);
    report_->Attempted();
    if (!run.ok) return;
    pipeline_s_[r].push_back(run.pipeline_s);
    mine_s_[r].push_back(run.mine_s);
    Check(r, run.outcome, "a repeat");
    if (r + 1 == inputs_->size()) {
      served_ = std::move(run.service);
      served_store_bytes_ = run.store_bytes;
    }
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  const std::vector<Input>* inputs_;
  Report* report_;
  std::vector<std::vector<double>> pipeline_s_;
  std::vector<std::vector<double>> mine_s_;
  std::vector<std::string> outcome_;
  std::unique_ptr<QueryService> served_;
  size_t served_store_bytes_ = 0;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void RunWorkload(const WorkloadSpec& spec, const Args& args, Report* report) {
  const std::string dir = args.work_dir + "/" + spec.name + "-" +
                          std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Removes the workload's CSV and store files on every way out.
  const std::unique_ptr<const std::string, void (*)(const std::string*)>
      cleanup(&dir, [](const std::string* path) {
        std::error_code ignored;
        std::filesystem::remove_all(*path, ignored);
      });

  // Set-up runs on one thread; its repeats go round the machine's cores,
  // whose speeds differ, so the median does not depend on where the
  // process happened to start.
  const std::vector<int> cpus = AllowedCpus();
  std::vector<Input> inputs;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!cpus.empty()) PinThisThread({cpus[i % cpus.size()]});
    const double start = WallS();
    inputs = WriteInputs(dir, spec.make(args.seed), report);
    setup_s.push_back(WallS() - start);
  }
  PinThisThread(cpus);
  std::fprintf(stderr, "[%s] set-up:", spec.name);
  for (double t : setup_s) std::fprintf(stderr, " %.4f s", t);
  std::fprintf(stderr, "\n");

  // One pipeline pass, the serve stage, then further passes until the
  // pipeline's share of the run is spent. Serving always follows exactly
  // one pass, so it starts from the same process state in every run (how
  // much mining ran before moves query latency by up to a third).
  PipelineStage pipeline(spec, args, &inputs, report);
  double pipeline_time = pipeline.Pass();
  const std::unique_ptr<QueryService> served = pipeline.TakeServed();
  if (served == nullptr) {
    report->Failed(std::string(spec.name) + ": no store to serve");
    return;
  }
  const Mix mix = BuildMix(*served, kQueries, args.seed, report);
  std::fprintf(stderr, "[%s] serving %zu queries on %s, %llu rows per pass\n",
               spec.name, mix.queries.size(), inputs.back().name.c_str(),
               static_cast<unsigned long long>(mix.total_rows));
  Tracer untraced(false);
  const double serve_s = spec.serve_share * args.seconds;
  const Phases phases =
      RunPhases(mix, serve_s, spec.open_rate, &untraced, report);
  CheckAgainstJoin(mix, args.seed, report);
  const double budget = (1.0 - spec.serve_share) * args.seconds;
  while (pipeline_time < budget) pipeline_time += pipeline.Pass();

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("mine_s", pipeline.mine_s(), "s");
    report->Metric("pipeline_s", pipeline.pipeline_s(inputs.size()), "s");
    report->Metric("store_bytes_ratio", pipeline.store_bytes_ratio(),
                   "ratio");
    ReportServeEndToEnd(mix, phases, report);
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // The traced pass: its own pipeline runs and its own service, all on
  // one sink.
  Tracer traced(true);
  Values values;
  const size_t traced_relations =
      std::min(spec.traced_relations, inputs.size());
  double traced_pipeline_s = 0;
  for (size_t r = 0; r < traced_relations; ++r) {
    const PipelineRun run = RunPipeline(inputs[r], spec.settings, args.seed,
                                        r, &traced, &values, report);
    report->Attempted();
    traced_pipeline_s += run.pipeline_s;
    pipeline.Check(r, run.outcome, "the traced run");
  }
  maimon::serve::ServiceOptions options;
  options.sink = traced.sink();
  const QueryService traced_service(served->snapshot()->store(), options);
  Mix traced_mix = mix;
  traced_mix.service = &traced_service;
  for (const GeneratedQuery& g : mix.queries) {  // build point indexes
    traced_service.Execute(g.query);
  }
  RunPhases(traced_mix, 0.5 * serve_s, spec.open_rate, &traced, report);

  ReportPipelineLayers(values, report);
  ReportMineLayers(values, spec.settings.threads, report);
  ReportServeLayers(mix, phases, traced, report);
  ReportPoolLayers(traced, report);
  report->Metric(
      "obs.trace_overhead_pct",
      100.0 * (traced_pipeline_s / pipeline.pipeline_s(traced_relations) -
               1.0),
      "%");
  report->Metric("failed_pct", report->FailedPct(), "%");
  traced.WriteTrace(args.work_dir + "/" + spec.name + ".trace.json");
}

}  // namespace perfbench
