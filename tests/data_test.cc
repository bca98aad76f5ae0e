// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Data layer checks: Relation transforms, generator determinism, the shape
// registry, and the structural facts the bench comments promise (Nursery's
// 12,960 x 9 product with a determined class column).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "data/metanome_shapes.h"
#include "data/nursery.h"
#include "data/planted.h"
#include "data/relation_io.h"
#include "data/row_groups.h"
#include "entropy/pli_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

TEST_CASE(PlantedGeneratorIsDeterministicAndShaped) {
  PlantedSpec spec;
  spec.num_attrs = 9;
  spec.num_bags = 3;
  spec.root_rows = 100;
  spec.max_rows = 400;
  spec.domain_size = 12;
  spec.seed = 77;
  const PlantedDataset a = GeneratePlanted(spec);
  const PlantedDataset b = GeneratePlanted(spec);

  CHECK_EQ(a.relation.NumCols(), 9);
  CHECK(a.relation.NumRows() <= 400);
  CHECK(a.relation.NumRows() >= 100);
  CHECK_EQ(a.relation.NumRows(), b.relation.NumRows());
  for (int c = 0; c < a.relation.NumCols(); ++c) {
    CHECK_EQ(a.relation.Column(c), b.relation.Column(c));
  }
  CHECK_EQ(a.schema.Support().size(), size_t{2});  // one per chain separator
  CHECK_EQ(a.schema.Bags().size(), size_t{3});
  // Support MVDs partition the universe.
  for (const Mvd& phi : a.schema.Support()) {
    CHECK_EQ(phi.Attrs(), a.relation.Universe());
    CHECK(!phi.deps()[0].Intersects(phi.deps()[1]));
  }
}

TEST_CASE(RelationTransforms) {
  PlantedSpec spec;
  spec.num_attrs = 6;
  spec.root_rows = 64;
  spec.max_rows = 256;
  spec.seed = 5;
  const Relation r = GeneratePlanted(spec).relation;

  const Relation half = r.SampleRows(0.5, 3);
  CHECK(half.NumRows() > 0);
  CHECK(half.NumRows() < r.NumRows());
  CHECK_EQ(half.NumCols(), r.NumCols());
  // Deterministic in the seed.
  CHECK_EQ(r.SampleRows(0.5, 3).NumRows(), half.NumRows());

  const Relation narrow = r.ProjectWithDuplicates(AttrSet(0b1011));
  CHECK_EQ(narrow.NumCols(), 3);
  CHECK_EQ(narrow.NumRows(), r.NumRows());
  CHECK_EQ(narrow.Column(0), r.Column(0));
  CHECK_EQ(narrow.Column(1), r.Column(1));
  CHECK_EQ(narrow.Column(2), r.Column(3));
}

TEST_CASE(ShapeRegistryCoversBenchDatasets) {
  CHECK_EQ(Table2Shapes().size(), size_t{20});
  for (const char* name :
       {"Image", "Four Square (Spots)", "Ditag Feature", "Entity Source",
        "Voter State", "Census", "Abalone", "Adult", "Breast-Cancer",
        "Bridges", "Echocardiogram", "FD_Reduced_15", "Hepatitis",
        "Classification", "Nursery"}) {
    CHECK(FindShape(name).ok());
  }
  CHECK(!FindShape("No Such Dataset").ok());

  const auto shape = FindShape("Bridges");
  const PlantedDataset d = GenerateShaped(*shape, 1.0);
  CHECK_EQ(d.relation.NumCols(), shape->columns);
  CHECK_EQ(d.relation.NumRows(), shape->paper_rows);

  // Scaling caps rows, never columns.
  const PlantedDataset scaled = GenerateShaped(*FindShape("Adult"), 0.01);
  CHECK_EQ(scaled.relation.NumCols(), 14);
  CHECK(scaled.relation.NumRows() <= 489);
}

TEST_CASE(CsvRoundTripsExactly) {
  PlantedSpec spec;
  spec.num_attrs = 5;
  spec.root_rows = 32;
  spec.max_rows = 128;
  spec.noise_fraction = 0.1;
  spec.seed = 19;
  const Relation r = GeneratePlanted(spec).relation;

  const std::string path = "data_test_roundtrip.csv";
  CHECK(ExportCsv(r, path).ok());
  Relation back;
  std::vector<std::string> header;
  CHECK(ImportCsv(path, &back, &header).ok());
  std::remove(path.c_str());

  // Codes are preserved verbatim: column-identical data, default header.
  CHECK_EQ(header, DefaultColumnNames(r.NumCols()));
  CHECK_EQ(back.NumRows(), r.NumRows());
  CHECK_EQ(back.NumCols(), r.NumCols());
  for (int c = 0; c < r.NumCols(); ++c) {
    CHECK_EQ(back.Column(c), r.Column(c));
    // Imported domains tighten to the observed maximum but stay valid.
    CHECK(back.DomainSize(c) <= r.DomainSize(c));
  }

  // Custom header names survive the round trip too.
  CHECK(ExportCsv(r, path, {"v", "w", "x", "y", "z"}).ok());
  CHECK(ImportCsv(path, &back, &header).ok());
  std::remove(path.c_str());
  CHECK_EQ(header, (std::vector<std::string>{"v", "w", "x", "y", "z"}));

  // Malformed inputs are rejected, not mangled.
  CHECK(!ExportCsv(r, path, {"only-one-name"}).ok());
  CHECK(!ImportCsv("no_such_file.csv", &back).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("A,B\n1,2\n3\n", f);  // ragged row
    std::fclose(f);
  }
  CHECK(!ImportCsv(path, &back).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("A,B\n1,oops\n", f);  // non-integer cell
    std::fclose(f);
  }
  CHECK(!ImportCsv(path, &back).ok());
  {
    // The largest uint32 code would make the domain (max code + 1) wrap
    // to 0: rejected. One below it still imports, domain exact.
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("A,B\n4294967295,0\n1,1\n", f);
    std::fclose(f);
  }
  CHECK(ImportCsv(path, &back).code() == Status::Code::kInvalidArgument);
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("A,B\n4294967294,0\n1,1\n", f);
    std::fclose(f);
  }
  CHECK(ImportCsv(path, &back).ok());
  CHECK_EQ(back.DomainSize(0), uint32_t{4294967295u});
  std::remove(path.c_str());
}

// Writes a one-row integer CSV with `num_cols` columns.
void WriteWideCsv(const std::string& path, int num_cols) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  for (int c = 0; c < num_cols; ++c) {
    std::fprintf(f, c == 0 ? "c%d" : ",c%d", c);
  }
  std::fputs("\n", f);
  for (int c = 0; c < num_cols; ++c) std::fputs(c == 0 ? "0" : ",0", f);
  std::fputs("\n", f);
  std::fclose(f);
}

TEST_CASE(CsvImportEnforcesTheAttributeWidthLimit) {
  // AttrSet holds kMaxAttrs = 64 attributes: a 64-column CSV imports, a
  // 65-column one is rejected instead of silently losing its last column
  // from every attribute set.
  const std::string path = "data_test_wide.csv";
  Relation back;
  WriteWideCsv(path, AttrSet::kMaxAttrs);
  CHECK(ImportCsv(path, &back).ok());
  CHECK_EQ(back.NumCols(), AttrSet::kMaxAttrs);
  CHECK_EQ(back.Universe().Count(), AttrSet::kMaxAttrs);
  WriteWideCsv(path, AttrSet::kMaxAttrs + 1);
  CHECK(ImportCsv(path, &back).code() == Status::Code::kInvalidArgument);
  std::remove(path.c_str());
}

// Uniform random codes per column: column c draws from [0, domains[c]).
Relation RandomRelation(size_t rows, const std::vector<uint32_t>& domains,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(domains.size());
  for (size_t c = 0; c < domains.size(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      columns[c].push_back(static_cast<uint32_t>(rng.Uniform(domains[c])));
    }
  }
  return Relation(std::move(columns), domains);
}

// GroupRows against a std::map grouping: ids numbered in row order on the
// first sighting of each projected tuple, for every attribute subset.
void CheckGroupRowsAgainstMap(const Relation& relation) {
  for (uint64_t mask = 0; mask < (uint64_t{1} << relation.NumCols());
       ++mask) {
    const AttrSet attrs(mask);
    const std::vector<int> cols = attrs.ToVector();
    std::map<std::vector<uint32_t>, uint32_t> ids;
    std::vector<uint32_t> want_group;
    std::vector<uint32_t> want_first;
    for (size_t r = 0; r < relation.NumRows(); ++r) {
      std::vector<uint32_t> tuple;
      for (int c : cols) tuple.push_back(relation.Value(r, c));
      const auto [it, inserted] =
          ids.emplace(tuple, static_cast<uint32_t>(ids.size()));
      if (inserted) want_first.push_back(static_cast<uint32_t>(r));
      want_group.push_back(it->second);
    }
    const RowGroups got = GroupRows(relation, attrs);
    CHECK_EQ(got.group, want_group);
    CHECK_EQ(got.first_row, want_first);
    CHECK_EQ(got.NumGroups(), ids.size());
  }
}

TEST_CASE(GroupRowsNumbersGroupsInFirstOccurrenceOrder) {
  // Rows (A, B): (1,0) (0,0) (1,0) (0,1) (0,0).
  const Relation r({{1, 0, 1, 0, 0}, {0, 0, 0, 1, 0}}, {2, 2});
  const RowGroups ab = GroupRows(r, AttrSet(0b11));
  CHECK_EQ(ab.group, (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  CHECK_EQ(ab.first_row, (std::vector<uint32_t>{0, 1, 3}));
  const RowGroups b = GroupRows(r, AttrSet(0b10));
  CHECK_EQ(b.group, (std::vector<uint32_t>{0, 0, 0, 1, 0}));
  CHECK_EQ(b.first_row, (std::vector<uint32_t>{0, 3}));

  // The empty attribute set: one group of every row; none without rows.
  const RowGroups none = GroupRows(r, AttrSet());
  CHECK_EQ(none.group, (std::vector<uint32_t>(5, 0)));
  CHECK_EQ(none.first_row, (std::vector<uint32_t>{0}));
  const Relation empty({{}, {}}, {2, 2});
  CHECK_EQ(GroupRows(empty, AttrSet()).NumGroups(), size_t{0});
  CHECK_EQ(GroupRows(empty, AttrSet(0b11)).NumGroups(), size_t{0});
  CHECK(GroupRows(empty, AttrSet(0b11)).group.empty());
}

TEST_CASE(GroupRowsMatchesAMapGroupingOnBothPaths) {
  // Small domains: groups * domain stays <= 4 * rows, the direct path.
  CheckGroupRowsAgainstMap(RandomRelation(400, {2, 3, 4, 2, 5}, 11));
  // Wide domains on few rows: every refinement goes through the hash table,
  // including codes next to 2^32 (the packed key nears 2^64).
  CheckGroupRowsAgainstMap(RandomRelation(200, {1000, 3, 5000}, 12));
  CheckGroupRowsAgainstMap(
      RandomRelation(150, {4, 0xffffffffu, 0xfffffff0u}, 13));
  // Mixed: small domains, then a key-like column (150 values over 300
  // rows) that turns hashed once the small columns have split the rows,
  // and an all-distinct column (a permutation) that ends refinement early.
  const Relation base = RandomRelation(300, {3, 6, 150, 4}, 14);
  std::vector<uint32_t> permutation(300);
  for (uint32_t r = 0; r < 300; ++r) permutation[r] = (r * 7919u) % 300u;
  CheckGroupRowsAgainstMap(
      Relation({base.Column(0), base.Column(1), permutation, base.Column(2),
                base.Column(3)},
               {3, 6, 300, 150, 4}));
}

TEST_CASE(NurseryMatchesThePaperShape) {
  const Relation nursery = NurseryDataset();
  CHECK_EQ(nursery.NumRows(), size_t{12960});
  CHECK_EQ(nursery.NumCols(), 9);
  CHECK_EQ(nursery.CellCount(), size_t{116640});

  // Full product of the inputs: H(inputs) = sum of single-column H, and the
  // class column is determined: H(all) == H(inputs).
  PliEntropyEngine engine(nursery);
  const AttrSet inputs((uint64_t{1} << 8) - 1);
  double sum_singles = 0;
  for (int c = 0; c < 8; ++c) sum_singles += engine.Entropy(AttrSet::Single(c));
  CHECK_NEAR(engine.Entropy(inputs), sum_singles, 1e-9);
  CHECK_NEAR(engine.Entropy(nursery.Universe()), engine.Entropy(inputs),
             1e-9);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
