// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/projection_store.h"

#include <utility>

#include "data/row_groups.h"

namespace maimon {

Relation StoredProjection::ToRelation() const {
  std::vector<std::vector<uint32_t>> cols(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    cols[c].reserve(rows.size());
    for (const auto& row : rows) cols[c].push_back(row[c]);
  }
  return Relation(std::move(cols), domains);
}

ProjectionStore::ProjectionStore(const Relation& relation,
                                 const Schema& schema) {
  original_cells_ = relation.CellCount();
  projections_.reserve(schema.Relations().size());
  for (AttrSet attrs : schema.Relations()) {
    StoredProjection p;
    p.attrs = attrs;
    p.columns = attrs.ToVector();

    // Distinct projected rows in first-occurrence order: the first row of
    // each π_attrs group, codes copied verbatim.
    p.domains.reserve(p.columns.size());
    for (int c : p.columns) p.domains.push_back(relation.DomainSize(c));
    const RowGroups groups = GroupRows(relation, attrs);
    p.rows.reserve(groups.NumGroups());
    for (const uint32_t r : groups.first_row) {
      std::vector<uint32_t> row(p.columns.size());
      for (size_t k = 0; k < p.columns.size(); ++k) {
        row[k] = relation.Value(r, p.columns[k]);
      }
      p.rows.push_back(std::move(row));
    }
    projections_.push_back(std::move(p));
  }
}

size_t ProjectionStore::TotalRows() const {
  size_t total = 0;
  for (const StoredProjection& p : projections_) total += p.NumRows();
  return total;
}

size_t ProjectionStore::TotalCells() const {
  size_t total = 0;
  for (const StoredProjection& p : projections_) total += p.Cells();
  return total;
}

size_t ProjectionStore::TotalBytes() const {
  size_t total = 0;
  for (const StoredProjection& p : projections_) total += p.Bytes();
  return total;
}

double ProjectionStore::SavingsPct() const {
  if (original_cells_ == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(TotalCells()) /
                            static_cast<double>(original_cells_));
}

}  // namespace maimon
