// Scale-out scenarios: TPC-H Q17 and the IBM subquery workload executed as
// genuinely partitioned multi-site plans. LINEITEM / PARTSUPP is sharded
// round-robin across N sites (as ingest would leave it, and only once per
// table version: see PartitionCatalog); every other table lives at site 0.
// Each query is written once as a LogicalPlan and cut by the
// PlanFragmenter (dist/plan_fragmenter.h), which places the sharded scans
// on every site and the rest at site 0 from the catalogs alone. The plans
// re-shuffle the shards by join key (Repartition), replicate the small
// filtered inputs (Broadcast), run the join/aggregate block on every site
// over its key range, and Gather the partial results at the coordinator.
// The same fragmenter registers every fragment for recovery with its one
// rebuild recipe.
//
// With cost-based AIP enabled, each site's AIP Manager ships the Bloom
// filter of the completed (small) join side across the mesh to the scans
// feeding the shuffles — pruned tuples never reach the wire, the
// distributed generalization of the paper's adaptive Bloomjoin.
#ifndef PUSHSIP_DIST_SCALE_OUT_H_
#define PUSHSIP_DIST_SCALE_OUT_H_

#include "dist/plan_fragmenter.h"

namespace pushsip {

/// Knobs for one scale-out run: the fragmenter's execution options plus
/// the scenario's own.
struct ScaleOutOptions : FragmenterOptions {
  int num_sites = 3;
  /// Pacing of the sharded scans (models disk-streamed sources and gives
  /// the AIP filter time to arrive while the stream is still flowing).
  size_t pace_every_rows = 256;
  double pace_ms = 1.0;
  /// Drop the brand predicate from Q17's part filter (keeps ~25x more
  /// parts) so tiny test-scale catalogs still produce non-empty results.
  bool weak_part_filter = false;
  /// Chaos (Q17 only): kill the compute fragment at this site (-1 = off)
  /// by failing one of its receivers with kUnavailable after
  /// `stateful_kill_after_frames` accepted frames (ArmReceiverFailure).
  /// Rebuilt fragments are never re-armed, so the failure fires once.
  int stateful_kill_site = -1;
  int64_t stateful_kill_after_frames = 0;
  /// Which input dies: false = the broadcast part stream (xrecv_part,
  /// mid-join-build), true = the l2 shuffle (xrecv_l2, mid-aggregate).
  bool stateful_kill_aggregate = false;
};

/// The two distributed workloads.
enum class ScaleOutQuery {
  kQ17,       ///< TPC-H 17 (correlated AVG subquery over LINEITEM)
  kSubquery,  ///< the IBM complex-decorrelation query (MIN over PARTSUPP)
};

const char* ScaleOutQueryName(ScaleOutQuery query);

/// Fresh per-site catalogs over `full`: each table in `shard_tables` is
/// split round-robin across `num_sites` sites, every other table is
/// registered at site 0 only. The shards come from Catalog::GetShards, so
/// a table version is sharded once per site count — like ingest — and
/// every later query and serving session registers the same read-only
/// shard tables (with their own stats and key/FK metadata) instead of
/// copying the table again. The price is memory: a version's shards live
/// as long as `full` holds that version, one copy per site count used.
std::vector<std::shared_ptr<Catalog>> PartitionCatalog(
    const Catalog& full, const std::vector<std::string>& shard_tables,
    int num_sites);

/// Partitions `full_catalog`, writes `query` as a LogicalPlan and cuts it
/// with the PlanFragmenter. The returned query's root sink collects the
/// final rows.
Result<std::unique_ptr<DistributedQuery>> BuildScaleOutQuery(
    ScaleOutQuery query, const std::shared_ptr<Catalog>& full_catalog,
    const ScaleOutOptions& options);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_SCALE_OUT_H_
