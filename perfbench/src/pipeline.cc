// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "pipeline.h"

#include <filesystem>
#include <system_error>

#include "data/relation_io.h"
#include "decomp/audit.h"
#include "decomp/projection_store.h"
#include "decomp/yannakakis.h"
#include "queries.h"
#include "store/writer.h"

namespace perfbench {

namespace {

constexpr size_t kBurstQueries = 16;

// Size of a file the benchmark wrote; 0 when it is missing (the write
// already counted as a failed operation).
size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(bytes);
}

}  // namespace

std::vector<Input> WriteInputs(const std::string& dir,
                               const std::vector<NamedRelation>& relations,
                               Report* report) {
  std::vector<Input> inputs;
  for (const auto& [name, relation] : relations) {
    Input in;
    in.name = name;
    in.csv_path = dir + "/" + std::to_string(inputs.size()) + ".csv";
    in.store_path = dir + "/" + std::to_string(inputs.size()) + ".store";
    const maimon::Status s = maimon::ExportCsv(relation, in.csv_path);
    if (!s.ok()) report->Failed("ExportCsv " + name + ": " + s.message());
    in.csv_bytes = FileBytes(in.csv_path);
    inputs.push_back(in);
  }
  return inputs;
}

PipelineRun RunPipeline(const Input& in, const MineSettings& settings,
                        uint64_t seed, uint64_t id, Tracer* tracer,
                        Values* values, Report* report) {
  Values& v = *values;
  PipelineRun run;
  Tracer::Scope relation_scope(tracer, "bench.relation", id);
  const double start = WallS();

  maimon::Relation relation;
  std::vector<std::string> header;
  maimon::Status s;
  {
    Tracer::Scope scope(tracer, "data.ImportCsv", id);
    s = maimon::ImportCsv(in.csv_path, &relation, &header);
  }
  v["data.import_s"] += WallS() - start;
  v["data.import_bytes"] += static_cast<double>(in.csv_bytes);
  report->Attempted();
  if (!s.ok()) {
    report->Failed("ImportCsv " + in.name + ": " + s.message());
    return run;
  }

  const double mine_start = WallS();
  const MineOutcome mined =
      Mine(relation, settings, tracer, id, values, report);
  run.mine_s = WallS() - mine_start;
  if (mined.best() == nullptr) return run;
  maimon::MinedSchema best;
  best.schema = mined.best()->schema;
  best.j_measure = mined.best()->derivation_j;

  const double audit_start = WallS();
  maimon::DecompositionAudit audit;
  {
    Tracer::Scope scope(tracer, "decomp.DecomposeAndAudit", id);
    audit = mined.maimon->DecomposeAndAudit(best);
  }
  v["decomp.audit_s"] += WallS() - audit_start;
  v["decomp.semijoin_dropped"] += static_cast<double>(audit.semijoin_dropped);
  report->Attempted();
  if (!audit.status.ok() || !audit.matches_analytic ||
      !audit.contains_original) {
    report->Failed("audit " + in.name + ": status " + audit.status.message() +
                   ", matches_analytic " +
                   std::to_string(audit.matches_analytic) +
                   ", contains_original " +
                   std::to_string(audit.contains_original));
  }

  const double project_start = WallS();
  maimon::ProjectionStore built(std::vector<maimon::StoredProjection>(), 0);
  {
    Tracer::Scope scope(tracer, "decomp.ProjectionStore", id);
    const maimon::ProjectionStore projected(relation, best.schema);
    maimon::YannakakisExecutor executor(projected);
    s = executor.Reduce(/*deadline=*/nullptr, settings.threads,
                        tracer->sink());
    built = maimon::ProjectionStore(executor.ReducedProjections(),
                                    projected.original_cells(),
                                    /*canonical=*/true);
  }
  v["decomp.project_s"] += WallS() - project_start;
  v["decomp.store_rows"] += static_cast<double>(built.TotalRows());
  report->Attempted();
  if (!s.ok()) report->Failed("Reduce " + in.name + ": " + s.message());

  maimon::store::StoreMeta meta;
  meta.epsilon = settings.epsilon;
  meta.savings_pct = audit.savings_pct;
  meta.j_measure = best.j_measure;
  meta.column_names = header;
  meta.mvds = mined.maimon->MineMvds().mvds;
  meta.schema = best.schema;
  const double write_start = WallS();
  {
    Tracer::Scope scope(tracer, "store.Writer.Write", id);
    s = maimon::store::Writer(std::move(meta))
            .Write(built, in.store_path, tracer->sink());
  }
  v["store.write_s"] += WallS() - write_start;
  report->Attempted();
  if (!s.ok()) {
    report->Failed("store write " + in.name + ": " + s.message());
    return run;
  }
  run.store_bytes = FileBytes(in.store_path);
  v["store.bytes_written"] += static_cast<double>(run.store_bytes);

  maimon::serve::ServiceOptions options;
  options.sink = tracer->sink();
  const double load_start = WallS();
  {
    Tracer::Scope scope(tracer, "serve.QueryService.FromFile", id);
    s = maimon::serve::QueryService::FromFile(in.store_path, options,
                                              &run.service);
  }
  v["store.load_s"] += WallS() - load_start;
  v["store.load_rows"] += static_cast<double>(built.TotalRows());
  report->Attempted();
  if (!s.ok()) {
    report->Failed("FromFile " + in.name + ": " + s.message());
    return run;
  }
  if (run.service->snapshot()->store().TotalRows() != built.TotalRows()) {
    report->Failed(
        "store " + in.name + " loaded " +
        std::to_string(run.service->snapshot()->store().TotalRows()) +
        " rows, wrote " + std::to_string(built.TotalRows()));
  }

  const std::vector<GeneratedQuery> burst = GenerateQueries(
      *run.service->snapshot(), kBurstQueries, MixSeed(seed, id));
  for (size_t q = 0; q < burst.size(); ++q) {
    Tracer::Scope scope(tracer, "serve.Execute", q);
    const maimon::serve::QueryResult r = run.service->Execute(burst[q].query);
    report->Attempted();
    if (!r.status.ok()) {
      report->Failed("query on " + in.name + ": " + r.status.message());
    }
  }
  run.pipeline_s = WallS() - start;
  run.outcome = mined.signature + " store_rows=" +
                std::to_string(built.TotalRows()) +
                " store_bytes=" + std::to_string(run.store_bytes);
  run.ok = true;
  return run;
}

void ReportPipelineLayers(const Values& values, Report* report) {
  const auto get = [&values](const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  report->Metric("data.import_s", get("data.import_s"), "s");
  report->Metric("data.import_mb_per_s",
                 get("data.import_bytes") / 1e6 / get("data.import_s"),
                 "MB/s");
  report->Metric("decomp.project_s", get("decomp.project_s"), "s");
  report->Metric("decomp.store_rows", get("decomp.store_rows"), "count");
  report->Metric("decomp.audit_s", get("decomp.audit_s"), "s");
  report->Metric("decomp.semijoin_dropped", get("decomp.semijoin_dropped"),
                 "count");
  report->Metric("store.write_s", get("store.write_s"), "s");
  report->Metric("store.bytes_written", get("store.bytes_written"), "bytes");
  report->Metric("store.load_s", get("store.load_s"), "s");
  report->Metric("store.load_ns_per_row",
                 get("store.load_s") * 1e9 / get("store.load_rows"), "ns");
}

}  // namespace perfbench
