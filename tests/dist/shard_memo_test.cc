// Shard memo (ctest label: dist): a catalog splits each table version
// round-robin once per site count and every scale-out query shares those
// shard tables read-only. Covers identity across calls, invalidation on
// ReplaceTable (with the old shards released), separate site counts,
// round-robin placement, concurrent cold builds, and that recovery from a
// killed stateful fragment leaves the shared shards untouched.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/scale_out.h"
#include "tests/testing/catalog_factory.h"

namespace pushsip {
namespace {

using testing::TinyTpchCatalog;

std::vector<TablePtr> ShardsOf(
    const std::vector<std::shared_ptr<Catalog>>& catalogs,
    const std::string& name) {
  std::vector<TablePtr> out;
  for (const auto& c : catalogs) out.push_back(*c->GetTable(name));
  return out;
}

TablePtr IntTable(const std::string& name, int64_t first, int64_t count) {
  auto t = std::make_shared<Table>(
      name, Schema({Field{name + ".k", TypeId::kInt64, kInvalidAttr}}));
  for (int64_t k = first; k < first + count; ++k) {
    t->AppendRow(Tuple({Value::Int64(k)}));
  }
  t->SetPrimaryKey({0});
  t->ComputeStats();
  return t;
}

TEST(ShardMemoTest, RepeatedPartitionsShareShardTables) {
  auto full = TinyTpchCatalog();
  const auto a = PartitionCatalog(*full, {"lineitem"}, 4);
  const auto b = PartitionCatalog(*full, {"lineitem"}, 4);
  // Fresh per-site catalogs, the same shard tables.
  ASSERT_NE(a[0].get(), b[0].get());
  EXPECT_EQ(ShardsOf(a, "lineitem"), ShardsOf(b, "lineitem"));
  // Unsharded tables are registered as-is at site 0.
  EXPECT_EQ(*a[0]->GetTable("part"), *full->GetTable("part"));
}

TEST(ShardMemoTest, ShardsAreRoundRobinWithKeysAndStats) {
  auto full = TinyTpchCatalog();
  const TablePtr lineitem = *full->GetTable("lineitem");
  const std::vector<TablePtr> shards = *full->GetShards("lineitem", 3);
  ASSERT_EQ(shards.size(), 3u);
  for (size_t s = 0; s < shards.size(); ++s) {
    const Table& shard = *shards[s];
    EXPECT_EQ(shard.primary_key(), lineitem->primary_key());
    EXPECT_EQ(shard.foreign_keys().size(), lineitem->foreign_keys().size());
    EXPECT_TRUE(shard.has_stats());
    for (size_t k = 0; k < shard.num_rows(); ++k) {
      ASSERT_EQ(shard.row(k).Compare(lineitem->row(s + 3 * k)), 0)
          << "shard " << s << " row " << k;
    }
  }
  EXPECT_FALSE(full->GetShards("ghost", 3).ok());
  EXPECT_FALSE(full->GetShards("lineitem", 0).ok());
}

TEST(ShardMemoTest, ReplaceTableRebuildsAndReleasesOldShards) {
  Catalog full;
  ASSERT_TRUE(full.RegisterTable(IntTable("t", 0, 100)).ok());
  std::weak_ptr<Table> old_shard;
  {
    const auto parts = PartitionCatalog(full, {"t"}, 2);
    old_shard = *parts[1]->GetTable("t");
    EXPECT_EQ((*parts[1]->GetTable("t"))->num_rows(), 50u);
  }
  ASSERT_FALSE(old_shard.expired());  // the catalog still holds version 1

  ASSERT_TRUE(full.ReplaceTable(IntTable("t", 1000, 10)).ok());
  EXPECT_TRUE(old_shard.expired());

  const auto parts = PartitionCatalog(full, {"t"}, 2);
  size_t rows = 0;
  for (const TablePtr& shard : ShardsOf(parts, "t")) {
    rows += shard->num_rows();
    EXPECT_GE(shard->column_stats(0).min_value.AsInt64(), 1000);
  }
  EXPECT_EQ(rows, 10u);
}

TEST(ShardMemoTest, SiteCountsGetSeparateShards) {
  auto full = TinyTpchCatalog();
  const size_t total = (*full->GetTable("partsupp"))->num_rows();
  const auto two = ShardsOf(PartitionCatalog(*full, {"partsupp"}, 2),
                            "partsupp");
  const auto three = ShardsOf(PartitionCatalog(*full, {"partsupp"}, 3),
                              "partsupp");
  ASSERT_EQ(two.size(), 2u);
  ASSERT_EQ(three.size(), 3u);
  EXPECT_NE(two[0], three[0]);
  EXPECT_EQ(two[0]->num_rows() + two[1]->num_rows(), total);
  EXPECT_EQ(three[0]->num_rows() + three[1]->num_rows() +
                three[2]->num_rows(),
            total);
  EXPECT_EQ(ShardsOf(PartitionCatalog(*full, {"partsupp"}, 2), "partsupp"),
            two);
}

struct Q17Run {
  Value answer;
  std::vector<TablePtr> shards;  // the lineitem shard each site scanned
  int64_t state_recoveries = 0;
};

ScaleOutOptions Q17Options() {
  ScaleOutOptions options;
  options.num_sites = 4;
  options.aip = true;
  options.weak_part_filter = true;
  options.batch_size = 128;
  options.pace_every_rows = 0;
  options.pace_ms = 0;
  // Receivers emit in (sender, seq) order, so answers compare bit for bit.
  options.deterministic_merge = true;
  return options;
}

Q17Run RunQ17(const std::shared_ptr<Catalog>& catalog,
              const ScaleOutOptions& options) {
  auto built = BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, options);
  built.status().CheckOK();
  Q17Run out;
  for (const auto& site : (*built)->sites) {
    out.shards.push_back(*site->catalog()->GetTable("lineitem"));
  }
  auto stats = (*built)->Run();
  stats.status().CheckOK();
  out.state_recoveries = stats->state_recoveries;
  const std::vector<Tuple> rows = (*built)->root_sink->TakeRows();
  EXPECT_EQ(rows.size(), 1u);
  if (!rows.empty()) out.answer = rows[0].at(0);
  return out;
}

// Four threads race the cold shard build of one catalog and then run
// against the shards it produced: single-flight means they all scan the
// same shard tables, and every answer equals the serial one.
TEST(ShardMemoTest, ConcurrentScaleOutQueriesMatchSerial) {
  const Q17Run serial = RunQ17(TinyTpchCatalog(), Q17Options());

  auto shared = TinyTpchCatalog();  // same seed: same data, cold memo
  constexpr int kThreads = 4;
  std::vector<Q17Run> runs(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      runs[static_cast<size_t>(i)] = RunQ17(shared, Q17Options());
    });
  }
  for (std::thread& t : threads) t.join();

  for (const Q17Run& run : runs) {
    EXPECT_EQ(run.answer.Compare(serial.answer), 0)
        << run.answer.ToString() << " vs " << serial.answer.ToString();
    EXPECT_EQ(run.shards, runs[0].shards);
  }
  EXPECT_EQ(runs[0].shards, *shared->GetShards("lineitem", 4));
}

// A killed compute fragment is restored from a checkpoint and its
// producers replay their shard scans; none of that may write to the
// shared shards, so the next clean query still gets the clean answer.
TEST(ShardMemoTest, StatefulRecoveryLeavesSharedShardsClean) {
  auto catalog = TinyTpchCatalog();
  const Q17Run clean = RunQ17(catalog, Q17Options());
  std::vector<size_t> rows_before;
  for (const TablePtr& shard : clean.shards) {
    rows_before.push_back(shard->num_rows());
  }

  ScaleOutOptions chaos = Q17Options();
  chaos.checkpoint_interval_frames = 2;
  chaos.stateful_kill_site = 2;
  chaos.stateful_kill_after_frames = 6;
  chaos.stateful_kill_aggregate = true;
  const Q17Run killed = RunQ17(catalog, chaos);
  EXPECT_GE(killed.state_recoveries, 1);
  EXPECT_EQ(killed.shards, clean.shards);

  const Q17Run after = RunQ17(catalog, Q17Options());
  EXPECT_EQ(after.shards, clean.shards);
  EXPECT_EQ(after.answer.Compare(clean.answer), 0)
      << after.answer.ToString() << " vs " << clean.answer.ToString();
  for (size_t s = 0; s < after.shards.size(); ++s) {
    EXPECT_EQ(after.shards[s]->num_rows(), rows_before[s]);
  }
}

}  // namespace
}  // namespace pushsip
