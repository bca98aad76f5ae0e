// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "queries.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace perfbench {

namespace {

using maimon::serve::Query;
using maimon::serve::Selection;

// A random stored row: (projection index, row index), uniform over rows.
std::pair<size_t, size_t> RandomRow(const maimon::ProjectionStore& store,
                                    maimon::Rng* rng) {
  uint64_t pick = rng->Uniform(std::max<size_t>(1, store.TotalRows()));
  for (size_t p = 0; p < store.NumProjections(); ++p) {
    const size_t rows = store.projections()[p].NumRows();
    if (pick < rows) return {p, static_cast<size_t>(pick)};
    pick -= rows;
  }
  return {0, 0};  // an empty store: the selection value is 0
}

uint32_t Cell(const maimon::StoredProjection& p, size_t row, size_t col) {
  return p.rows.empty() ? 0 : p.rows[row][col];
}

// The k-th point query of the mix.
Query PointQuery(const maimon::ProjectionStore& store, size_t k,
                 maimon::Rng* rng) {
  const auto [index, row] = RandomRow(store, rng);
  const maimon::StoredProjection& p = store.projections()[index];
  Query q;
  for (int attr : p.columns) {
    if (rng->Bernoulli(0.5)) q.attrs.Add(attr);
  }
  if (q.attrs.Empty()) q.attrs.Add(p.columns[rng->Uniform(p.columns.size())]);
  const size_t col = (k / 2) % p.columns.size();
  q.selections.push_back(Selection::Eq(p.columns[col], Cell(p, row, col)));
  return q;
}

// The k-th join query of the mix.
Query JoinQuery(const maimon::ProjectionStore& store,
                const maimon::JoinTree& tree, size_t k, maimon::Rng* rng) {
  const size_t nodes = store.NumProjections();
  const size_t target = std::min<size_t>(nodes, 2 + rng->Uniform(2));
  std::vector<int> subtree = {static_cast<int>(rng->Uniform(nodes))};
  while (subtree.size() < target) {
    std::vector<int> frontier;
    for (int v : subtree) {
      std::vector<int> next = tree.children[static_cast<size_t>(v)];
      if (tree.parent[static_cast<size_t>(v)] >= 0) {
        next.push_back(tree.parent[static_cast<size_t>(v)]);
      }
      for (int u : next) {
        if (std::find(subtree.begin(), subtree.end(), u) == subtree.end()) {
          frontier.push_back(u);
        }
      }
    }
    if (frontier.empty()) break;
    subtree.push_back(frontier[rng->Uniform(frontier.size())]);
  }
  Query q;
  for (int v : subtree) {
    const maimon::StoredProjection& p =
        store.projections()[static_cast<size_t>(v)];
    q.attrs.Add(p.columns[rng->Uniform(p.columns.size())]);
  }
  const maimon::StoredProjection& p = store.projections()[static_cast<size_t>(
      subtree[rng->Uniform(subtree.size())])];
  const size_t col = rng->Uniform(p.columns.size());
  if ((k / 2) % 2 == 0) {
    const size_t row = p.rows.empty() ? 0 : rng->Uniform(p.rows.size());
    q.selections.push_back(Selection::Eq(p.columns[col], Cell(p, row, col)));
  } else {
    const uint32_t domain = std::max<uint32_t>(1, p.domains[col]);
    const uint32_t lo = static_cast<uint32_t>(rng->Uniform(domain));
    const uint32_t width = static_cast<uint32_t>(rng->Uniform(domain / 2 + 1));
    q.selections.push_back(Selection::Range(
        p.columns[col], lo, std::min<uint32_t>(domain - 1, lo + width)));
  }
  return q;
}

}  // namespace

const char* QueryClassName(QueryClass cls) {
  return cls == QueryClass::kPoint ? "point" : "join";
}

std::vector<GeneratedQuery> GenerateQueries(
    const maimon::serve::Snapshot& snapshot, size_t count, uint64_t seed) {
  const maimon::ProjectionStore& store = snapshot.store();
  maimon::Rng rng(seed);
  std::vector<GeneratedQuery> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    GeneratedQuery g;
    g.cls = i % 2 == 0 ? QueryClass::kPoint : QueryClass::kJoin;
    const size_t k = i / 2;  // index within the class
    // Redraw until the planner routes the query as its class intends (a
    // join draw can land inside one node under an equality); on a store
    // too degenerate for that, the planner's routing names the class.
    for (int attempt = 0;; ++attempt) {
      g.query = g.cls == QueryClass::kPoint
                    ? PointQuery(store, k, &rng)
                    : JoinQuery(store, snapshot.planner().tree(), k, &rng);
      const bool point = snapshot.planner().Plan(g.query).point_lookup;
      if (point == (g.cls == QueryClass::kPoint)) break;
      if (attempt == 1000) {
        g.cls = point ? QueryClass::kPoint : QueryClass::kJoin;
        break;
      }
    }
    g.query.count_only = k % 2 == 1;
    out.push_back(std::move(g));
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(i)]);
  }
  return out;
}

}  // namespace perfbench
