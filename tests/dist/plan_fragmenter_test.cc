// PlanFragmenter: cutting a logical plan at site boundaries — implicit
// cuts, Repartition, Broadcast and Gather, at 1, 2 and 4 sites — must not
// change its result, must actually move bytes across the mesh, must let
// cost-based AIP ship filters into the remote fragment (pruning before the
// link) — the "arbitrary fragment boundary" generalization — and must
// register exchange-fed stateful fragments for checkpointed recovery.
#include "dist/plan_fragmenter.h"

#include <gtest/gtest.h>

#include "dist/scale_out.h"
#include "tests/testing/catalog_factory.h"
#include "workload/experiment.h"

namespace pushsip {
namespace {

using testing::TinyTpchCatalog;

// Site 0: every table but PARTSUPP. Site 1: PARTSUPP only.
std::vector<std::shared_ptr<Catalog>> SplitCatalogs() {
  auto full = TinyTpchCatalog();
  auto site0 = std::make_shared<Catalog>();
  auto site1 = std::make_shared<Catalog>();
  for (const std::string& name : full->TableNames()) {
    (name == "partsupp" ? site1 : site0)
        ->RegisterTable(*full->GetTable(name))
        .CheckOK();
  }
  return {site0, site1};
}

// How BuildJoinPlan moves its inputs between sites.
enum class Cut {
  kImplicit,     ///< no exchange nodes: the fragmenter inserts the cuts
  kRepartition,  ///< both inputs hash-partitioned by partkey
  kBroadcast,    ///< part replicated to the partsupp shards
};

// part[p_size=1] ⋈ partsupp[ps_availqty < 1000] on partkey. The partsupp
// filter must execute inside the remote fragment.
LogicalPlan::NodeId BuildJoinPlan(LogicalPlan* lp, bool pace_partsupp,
                                  Cut cut = Cut::kImplicit) {
  const auto p = lp->Scan("part", "p");
  const auto pf = lp->Filter(
      p,
      [](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr size_col, ColNamed(s, "p.p_size"));
        return Cmp(CmpOp::kEq, std::move(size_col), LitInt(1));
      },
      1.0 / 50);
  ScanOptions ps_opts;
  if (pace_partsupp) {
    ps_opts.delay_every_rows = 128;
    ps_opts.delay_ms = 1.0;
  }
  const auto ps = lp->Scan("partsupp", "ps", ps_opts);
  const auto psf = lp->Filter(
      ps,
      [](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr qty, ColNamed(s, "ps.ps_availqty"));
        return Cmp(CmpOp::kLt, std::move(qty), LitInt(1000));
      },
      0.1);
  switch (cut) {
    case Cut::kImplicit:
      return lp->Join(pf, psf, {{"p.p_partkey", "ps.ps_partkey"}});
    case Cut::kRepartition:
      return lp->Join(lp->Repartition(pf, "p.p_partkey"),
                      lp->Repartition(psf, "ps.ps_partkey"),
                      {{"p.p_partkey", "ps.ps_partkey"}});
    case Cut::kBroadcast:
      return lp->Join(lp->Broadcast(pf), psf,
                      {{"p.p_partkey", "ps.ps_partkey"}});
  }
  return -1;
}

// COUNT(*) of `join` per site, gathered and summed at the coordinator.
LogicalPlan::NodeId GatherCount(LogicalPlan* lp, LogicalPlan::NodeId join) {
  const auto partial = lp->Aggregate(join, {}, {{AggFunc::kCount, "", "n"}});
  return lp->Aggregate(lp->Gather(partial), {},
                       {{AggFunc::kSum, "n", "total"}});
}

Result<std::vector<Tuple>> RunPlan(PlanFragmenter* fragmenter,
                                   const LogicalPlan& plan,
                                   LogicalPlan::NodeId root,
                                   const FragmenterOptions& options = {},
                                   DistQueryStats* stats = nullptr) {
  PUSHSIP_ASSIGN_OR_RETURN(std::unique_ptr<DistributedQuery> query,
                           fragmenter->Fragment(plan, root, options));
  PUSHSIP_ASSIGN_OR_RETURN(const DistQueryStats s, query->Run());
  if (stats != nullptr) *stats = s;
  return query->root_sink->TakeRows();
}

TEST(PlanFragmenterTest, CutPlanMatchesSingleSitePlan) {
  // Reference: same fragmenter, one site holding everything (no cuts).
  LogicalPlan ref_plan;
  const auto ref_root = BuildJoinPlan(&ref_plan, /*pace_partsupp=*/false);
  PlanFragmenter ref_fragmenter({TinyTpchCatalog()});
  auto ref = ref_fragmenter.Fragment(ref_plan, ref_root);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto ref_stats = (*ref)->Run();
  ASSERT_TRUE(ref_stats.ok()) << ref_stats.status().ToString();
  EXPECT_EQ((*ref)->mesh->TotalUsage().bytes, 0);

  LogicalPlan plan;
  const auto root = BuildJoinPlan(&plan, /*pace_partsupp=*/false);
  PlanFragmenter fragmenter(SplitCatalogs());
  FragmenterOptions options;
  options.latency_ms = 0.1;
  auto query = fragmenter.Fragment(plan, root, options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // The PARTSUPP subtree (scan + filter) became a fragment at site 1.
  ASSERT_EQ((*query)->sites.size(), 2u);
  EXPECT_EQ((*query)->sites[1]->fragments().size(), 1u);
  EXPECT_EQ((*query)->sites[1]->fragments()[0]->source_scans().size(), 1u);

  auto stats = (*query)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result_rows, ref_stats->result_rows);
  const uint64_t want = HashRows((*ref)->root_sink->rows());
  EXPECT_EQ(HashRows((*query)->root_sink->rows()), want);
  EXPECT_GT(stats->bytes_shipped, 0);
  ASSERT_GT(ref_stats->result_rows, 0);

  // Every cut shape over partsupp sharded round-robin (part at site 0)
  // gives the single-site answer, at every site count.
  for (const int sites : {1, 2, 4}) {
    PlanFragmenter sharded(
        PartitionCatalog(*TinyTpchCatalog(), {"partsupp"}, sites));
    for (const Cut cut : {Cut::kImplicit, Cut::kRepartition, Cut::kBroadcast}) {
      SCOPED_TRACE("sites=" + std::to_string(sites) +
                   " cut=" + std::to_string(static_cast<int>(cut)));
      LogicalPlan lp;
      const auto join = BuildJoinPlan(&lp, /*pace_partsupp=*/false, cut);
      auto rows = RunPlan(&sharded, lp, join);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(static_cast<int64_t>(rows->size()), ref_stats->result_rows);
      EXPECT_EQ(HashRows(*rows), want);

      LogicalPlan gathered;
      const auto count = GatherCount(
          &gathered, BuildJoinPlan(&gathered, /*pace_partsupp=*/false, cut));
      auto total = RunPlan(&sharded, gathered, count);
      ASSERT_TRUE(total.ok()) << total.status().ToString();
      ASSERT_EQ(total->size(), 1u);
      EXPECT_EQ(total->at(0).at(0).AsDouble(),
                static_cast<double>(ref_stats->result_rows));
    }
  }
}

// A fragmenter-built stateful plan other than Q17: the per-site join and
// COUNT over two Repartition inputs is exchange-fed, so it is registered
// with a checkpointer. Killing one of its receivers mid-stream recovers
// from a checkpoint exactly once and keeps the clean answer.
TEST(PlanFragmenterTest, KilledStatefulFragmentRestoresFromCheckpoint) {
  PlanFragmenter fragmenter(
      PartitionCatalog(*TinyTpchCatalog(), {"partsupp"}, 4));
  LogicalPlan lp;
  const auto root = GatherCount(
      &lp, BuildJoinPlan(&lp, /*pace_partsupp=*/true, Cut::kRepartition));
  FragmenterOptions options;
  options.batch_size = 128;  // many frames per stream
  options.checkpoint_interval_frames = 1;

  DistQueryStats clean_stats;
  auto clean = RunPlan(&fragmenter, lp, root, options, &clean_stats);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->size(), 1u);
  EXPECT_GT(clean_stats.checkpoints_taken, 0);
  EXPECT_EQ(clean_stats.state_recoveries, 0);

  auto query = fragmenter.Fragment(lp, root, options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ((*query)->stateful_fragments.size(), 4u);
  ASSERT_TRUE(
      ArmReceiverFailure(query->get(), /*site=*/1, "xrecv_ps", 3).ok());
  auto stats = (*query)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->state_recoveries, 1);
  const std::vector<Tuple> rows = (*query)->root_sink->TakeRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0).AsDouble(), clean->at(0).at(0).AsDouble());
}

TEST(PlanFragmenterTest, AipShipsFilterIntoRemoteFragment) {
  const auto run = [&](bool aip) {
    LogicalPlan plan;
    const auto root = BuildJoinPlan(&plan, /*pace_partsupp=*/true);
    PlanFragmenter fragmenter(SplitCatalogs());
    FragmenterOptions options;
    options.latency_ms = 0.1;
    options.aip = aip;
    // Scale the cost model's fixed set-creation overhead down to the tiny
    // test catalog, or no set ever looks worth building.
    options.cost.set_fixed = 1.0;
    options.cost.set_create = 0.01;
    auto query = fragmenter.Fragment(plan, root, options);
    query.status().CheckOK();
    auto stats = (*query)->Run();
    stats.status().CheckOK();
    return std::make_tuple(*stats, HashRows((*query)->root_sink->rows()),
                           (*query)->sites[1]->remote_filter_pruned());
  };

  const auto [base, base_hash, base_pruned] = run(false);
  const auto [aip, aip_hash, aip_pruned] = run(true);

  EXPECT_EQ(aip_hash, base_hash);  // pruning never changes the answer
  EXPECT_EQ(base_pruned, 0);
  EXPECT_GT(aip.aip_sets, 0);
  // The shipped Bloom filter pruned partsupp tuples at site 1 before the
  // link, so measurably fewer bytes crossed the mesh.
  EXPECT_GT(aip_pruned, 0);
  EXPECT_LT(aip.bytes_shipped, base.bytes_shipped * 7 / 10);
}

}  // namespace
}  // namespace pushsip
