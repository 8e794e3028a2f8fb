#include "storage/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "storage/catalog.h"
#include "tests/testing/catalog_factory.h"

namespace pushsip {
namespace {

TablePtr MakeSmallTable() {
  auto t = std::make_shared<Table>(
      "t", Schema({Field{"t.id", TypeId::kInt64, kInvalidAttr},
                   Field{"t.grp", TypeId::kInt64, kInvalidAttr},
                   Field{"t.name", TypeId::kString, kInvalidAttr}}));
  for (int64_t i = 0; i < 10; ++i) {
    std::string name("n");
    name += std::to_string(i % 2);
    t->AppendRow(Tuple({Value::Int64(i), Value::Int64(i % 3),
                        Value::String(std::move(name))}));
  }
  return t;
}

TEST(TableTest, RowsAndSchema) {
  auto t = MakeSmallTable();
  EXPECT_EQ(t->num_rows(), 10u);
  EXPECT_EQ(t->schema().num_fields(), 3u);
}

TEST(TableTest, ComputeStatsDistinctCounts) {
  auto t = MakeSmallTable();
  t->ComputeStats();
  EXPECT_EQ(t->column_stats(0).distinct_count, 10);
  EXPECT_EQ(t->column_stats(1).distinct_count, 3);
  EXPECT_EQ(t->column_stats(2).distinct_count, 2);
}

TEST(TableTest, ComputeStatsMinMax) {
  auto t = MakeSmallTable();
  t->ComputeStats();
  EXPECT_EQ(t->column_stats(0).min_value.AsInt64(), 0);
  EXPECT_EQ(t->column_stats(0).max_value.AsInt64(), 9);
  EXPECT_EQ(t->column_stats(2).min_value.AsString(), "n0");
  EXPECT_EQ(t->column_stats(2).max_value.AsString(), "n1");
}

TEST(TableTest, StatsIgnoreNulls) {
  auto t = std::make_shared<Table>(
      "n", Schema({Field{"n.x", TypeId::kInt64, kInvalidAttr}}));
  t->AppendRow(Tuple({Value::Null()}));
  t->AppendRow(Tuple({Value::Int64(5)}));
  t->ComputeStats();
  EXPECT_EQ(t->column_stats(0).distinct_count, 1);
  EXPECT_EQ(t->column_stats(0).min_value.AsInt64(), 5);
}

// Row-at-a-time reference for ComputeStats: box every non-null cell into
// a Value, count distinct HashAt values, keep the first of equal extremes.
std::vector<ColumnStats> ReferenceStats(const Table& t) {
  std::vector<ColumnStats> out(t.num_cols());
  for (size_t c = 0; c < t.num_cols(); ++c) {
    std::unordered_set<uint64_t> distinct;
    bool first = true;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.col(c).IsNull(r)) continue;
      distinct.insert(t.col(c).HashAt(r));
      const Value v = t.col(c).GetValue(r);
      if (first || v.Compare(out[c].min_value) < 0) out[c].min_value = v;
      if (first || v.Compare(out[c].max_value) > 0) out[c].max_value = v;
      first = false;
    }
    out[c].distinct_count = static_cast<int64_t>(distinct.size());
  }
  return out;
}

// Bit-identical: same type, and for doubles the same bits (so -0.0 vs 0.0
// and NaN are told apart, which Value::Compare would not).
void ExpectSameValue(const Value& want, const Value& got,
                     const std::string& what) {
  ASSERT_EQ(want.type(), got.type()) << what;
  if (want.is_null()) return;
  if (want.type() == TypeId::kDouble) {
    const double w = want.AsDouble(), g = got.AsDouble();
    EXPECT_EQ(std::memcmp(&w, &g, sizeof(w)), 0)
        << what << ": " << w << " vs " << g;
  } else {
    EXPECT_EQ(want.Compare(got), 0)
        << what << ": " << want.ToString() << " vs " << got.ToString();
  }
}

void ExpectStatsMatchReference(const Table& t) {
  ASSERT_TRUE(t.has_stats());
  const std::vector<ColumnStats> want = ReferenceStats(t);
  for (size_t c = 0; c < t.num_cols(); ++c) {
    const std::string what = t.name() + "." + t.schema().field(c).name;
    EXPECT_EQ(t.column_stats(c).distinct_count, want[c].distinct_count)
        << what;
    ExpectSameValue(want[c].min_value, t.column_stats(c).min_value,
                    what + " min");
    ExpectSameValue(want[c].max_value, t.column_stats(c).max_value,
                    what + " max");
  }
}

// One column per physical representation, each with NULLs: INT64, DATE,
// DOUBLE (signed zeros and a NaN), dictionary STRING, an all-NULL typed
// column, an all-NULL string column (no dictionary), an untyped column,
// and a mixed-type column that falls back to per-row Values.
TEST(TableTest, ComputeStatsMatchesRowwiseReferenceOnEveryRep) {
  auto t = std::make_shared<Table>(
      "reps", Schema({Field{"i", TypeId::kInt64, kInvalidAttr},
                      Field{"d", TypeId::kDate, kInvalidAttr},
                      Field{"f", TypeId::kDouble, kInvalidAttr},
                      Field{"s", TypeId::kString, kInvalidAttr},
                      Field{"all_null", TypeId::kInt64, kInvalidAttr},
                      Field{"null_str", TypeId::kString, kInvalidAttr},
                      Field{"untyped", TypeId::kNull, kInvalidAttr},
                      Field{"mixed", TypeId::kInt64, kInvalidAttr}}));
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {0.0, -0.0, 2.5, -7.25, kNaN, 3.0, 2.5, -7.25};
  const char* strings[] = {"pear", "apple", "fig", "apple", "zucchini"};
  for (int64_t r = 0; r < 200; ++r) {
    const bool null = r % 7 == 3;
    std::vector<Value> row;
    row.push_back(null ? Value::Null() : Value::Int64((r * 37) % 61 - 30));
    row.push_back(null ? Value::Null() : Value::Date(9000 + (r * 13) % 40));
    row.push_back(r % 5 == 1 ? Value::Null()
                             : Value::Double(doubles[r % 8]));
    row.push_back(r % 4 == 2 ? Value::Null()
                             : Value::String(strings[r % 5]));
    row.push_back(Value::Null());
    row.push_back(Value::Null());
    row.push_back(Value::Null());
    row.push_back(null     ? Value::Null()
                  : r % 3 ? Value::Int64(r % 11)
                          : Value::Double(static_cast<double>(r % 9) + 0.5));
    t->AppendRow(Tuple(std::move(row)));
  }
  ASSERT_TRUE(t->col(7).is_variant());
  t->ComputeStats();
  ExpectStatsMatchReference(*t);
  EXPECT_EQ(t->column_stats(3).distinct_count, 4);
  EXPECT_EQ(t->column_stats(4).distinct_count, 0);
  EXPECT_TRUE(t->column_stats(4).min_value.is_null());

  auto empty = std::make_shared<Table>("empty", t->schema());
  empty->ComputeStats();
  ExpectStatsMatchReference(*empty);
}

// Real data: every column of every tiny TPC-H table, and of its shards.
TEST(TableTest, ComputeStatsMatchesRowwiseReferenceOnTpch) {
  auto catalog = testing::TinyTpchCatalog();
  for (const std::string& name : catalog->TableNames()) {
    const TablePtr table = *catalog->GetTable(name);
    ExpectStatsMatchReference(*table);
    for (const TablePtr& shard : ShardRoundRobin(*table, 3)) {
      ExpectStatsMatchReference(*shard);
    }
  }
}

TEST(TableTest, KeysAndForeignKeys) {
  auto t = MakeSmallTable();
  t->SetPrimaryKey({0});
  t->AddForeignKey(1, "other", 0);
  EXPECT_EQ(t->primary_key(), std::vector<int>{0});
  ASSERT_EQ(t->foreign_keys().size(), 1u);
  EXPECT_EQ(t->foreign_keys()[0].ref_table, "other");
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeSmallTable()).ok());
  EXPECT_TRUE(c.HasTable("t"));
  auto r = c.GetTable("t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 10u);
}

TEST(CatalogTest, DuplicateRegistrationFails) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(MakeSmallTable()).ok());
  EXPECT_EQ(c.RegisterTable(MakeSmallTable()).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, MissingTableFails) {
  Catalog c;
  EXPECT_EQ(c.GetTable("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(c.RegisterTable(nullptr).ok());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog c;
  auto t1 = std::make_shared<Table>("zeta", Schema{});
  auto t2 = std::make_shared<Table>("alpha", Schema{});
  ASSERT_TRUE(c.RegisterTable(t1).ok());
  ASSERT_TRUE(c.RegisterTable(t2).ok());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace pushsip
