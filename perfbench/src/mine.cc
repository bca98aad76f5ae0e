// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "mine.h"

#include <cstdio>

#include "join/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kMaxSchemas = 64;
constexpr size_t kTopK = 5;

}  // namespace

MineOutcome Mine(const maimon::Relation& relation,
                 const MineSettings& settings, Tracer* tracer, uint64_t id,
                 Values* values, Report* report) {
  Values& v = *values;
  MineOutcome out;
  maimon::MaimonConfig config;
  config.epsilon = settings.epsilon;
  config.num_threads = settings.threads;
  config.sink = tracer->sink();
  config.schemas.max_schemas = kMaxSchemas;
  {
    Tracer::Scope scope(tracer, "entropy.PliEntropyEngine", id);
    out.maimon = std::make_unique<maimon::Maimon>(relation, config);
  }
  maimon::Maimon& m = *out.maimon;

  const double mvd_wall = WallS();
  const double mvd_cpu = ProcessCpuS();
  const maimon::MvdMinerResult* mvds = nullptr;
  {
    Tracer::Scope scope(tracer, "core.MineMvds", id);
    mvds = &m.MineMvds();
  }
  v["core.mine_mvds_s"] += WallS() - mvd_wall;
  v["core.mine_mvds_cpu_s"] += ProcessCpuS() - mvd_cpu;
  v["core.oracle_calls"] += static_cast<double>(m.min_sep_stats().oracle_calls);
  v["core.separators"] += static_cast<double>(mvds->NumSeparators());
  v["core.mvds"] += static_cast<double>(mvds->NumMvds());
  v["entropy.mine_queries"] += static_cast<double>(m.engine().stats().queries);
  report->Attempted();
  if (!mvds->status.ok()) {
    report->Failed("MineMvds: " + mvds->status.message());
  }

  const double schemas_wall = WallS();
  {
    Tracer::Scope scope(tracer, "scheme.MineSchemas", id);
    out.schemas = m.MineSchemas();
  }
  v["scheme.mine_schemas_s"] += WallS() - schemas_wall;
  v["scheme.conflict_vertices"] +=
      static_cast<double>(out.schemas.conflict_vertices);
  v["scheme.independent_sets"] +=
      static_cast<double>(out.schemas.independent_sets);
  report->Attempted();
  if (!out.schemas.status.ok()) {
    report->Failed("MineSchemas: " + out.schemas.status.message());
  }

  maimon::RankerOptions rank;
  rank.top_k = kTopK;
  rank.num_threads = settings.threads;
  rank.sink = tracer->sink();
  const double rank_wall = WallS();
  const double rank_cpu = ProcessCpuS();
  {
    Tracer::Scope scope(tracer, "scheme.RankSchemes", id);
    out.ranked =
        maimon::RankSchemes(relation, out.schemas.schemas, m.oracle(), rank);
  }
  v["scheme.rank_s"] += WallS() - rank_wall;
  v["scheme.rank_cpu_s"] += ProcessCpuS() - rank_cpu;
  v["scheme.scored"] += static_cast<double>(out.ranked.evaluated);
  report->Attempted();
  if (!out.ranked.status.ok() || out.ranked.ranked.empty()) {
    report->Failed("RankSchemes: no ranked scheme (" +
                   out.ranked.status.message() + ")");
  }

  for (size_t i = 0; i < out.ranked.ranked.size(); ++i) {
    if (out.ranked.ranked[i].schema.NumRelations() >= 2) {
      out.best_index = static_cast<int>(i);
      break;
    }
  }
  if (out.best_index < 0 && !out.ranked.ranked.empty()) out.best_index = 0;

  const maimon::PliEntropyEngine::Stats stats = m.engine().stats();
  v["entropy.queries"] += static_cast<double>(stats.queries);
  v["entropy.value_hits"] += static_cast<double>(stats.value_hits);
  v["entropy.intersections"] += static_cast<double>(stats.intersections);
  v["entropy.cache_hits"] += static_cast<double>(stats.cache.hits);
  v["entropy.cache_misses"] += static_cast<double>(stats.cache.misses);
  v["entropy.cache_evictions"] += static_cast<double>(stats.cache.evictions);

  if (tracer->sink() != nullptr && out.best() != nullptr) {
    const double eval_wall = WallS();
    Tracer::Scope scope(tracer, "join.EvaluateSchema", id);
    maimon::EvaluateSchema(relation, out.best()->schema, m.oracle());
    v["join.evaluate_s"] += WallS() - eval_wall;
  }

  char sig[160];
  std::snprintf(sig, sizeof(sig),
                "separators=%zu mvds=%zu schemes=%zu mis=%llu vertices=%zu "
                "scored=%zu best=",
                mvds->NumSeparators(), mvds->NumMvds(),
                out.schemas.schemas.size(),
                static_cast<unsigned long long>(out.schemas.independent_sets),
                out.schemas.conflict_vertices, out.ranked.evaluated);
  out.signature = sig;
  if (out.best() != nullptr) out.signature += out.best()->schema.ToString();
  return out;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void ReportMineLayers(const Values& values, int threads, Report* report) {
  const auto get = [&values](const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  report->Metric("entropy.queries", get("entropy.queries"), "count");
  report->Metric("entropy.memo_hit_rate",
                 Ratio(get("entropy.value_hits"), get("entropy.queries")),
                 "ratio");
  report->Metric("entropy.intersections", get("entropy.intersections"),
                 "count");
  report->Metric("entropy.cache_hit_rate",
                 Ratio(get("entropy.cache_hits"),
                       get("entropy.cache_hits") + get("entropy.cache_misses")),
                 "ratio");
  report->Metric("entropy.cache_evictions", get("entropy.cache_evictions"),
                 "count");
  report->Metric("entropy.queries_per_oracle_call",
                 Ratio(get("entropy.mine_queries"), get("core.oracle_calls")),
                 "ratio");
  report->Metric("core.mine_mvds_s", get("core.mine_mvds_s"), "s");
  report->Metric("core.mine_mvds_cpu_s", get("core.mine_mvds_cpu_s"), "s");
  report->Metric("core.parallel_efficiency",
                 Ratio(get("core.mine_mvds_cpu_s"),
                       get("core.mine_mvds_s") * threads),
                 "ratio");
  report->Metric("core.oracle_calls", get("core.oracle_calls"), "count");
  report->Metric("core.separators", get("core.separators"), "count");
  report->Metric("core.mvds", get("core.mvds"), "count");
  report->Metric("scheme.mine_schemas_s", get("scheme.mine_schemas_s"), "s");
  report->Metric("scheme.conflict_vertices", get("scheme.conflict_vertices"),
                 "count");
  report->Metric("scheme.independent_sets", get("scheme.independent_sets"),
                 "count");
  report->Metric("scheme.rank_s", get("scheme.rank_s"), "s");
  report->Metric("scheme.rank_cpu_s", get("scheme.rank_cpu_s"), "s");
  report->Metric("scheme.scored", get("scheme.scored"), "count");
  report->Metric("join.evaluate_s", get("join.evaluate_s"), "s");
}

}  // namespace perfbench
