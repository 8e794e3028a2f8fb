// Scale-out scenarios: TPC-H Q17 and the IBM subquery workload executed as
// genuinely partitioned multi-site plans. LINEITEM / PARTSUPP is sharded
// round-robin across N sites (as ingest would leave it, and only once per
// table version: see PartitionCatalog); per-site map
// fragments re-shuffle the shards by join key (hash exchange), small
// filtered inputs are replicated (broadcast exchange), every site runs the
// join/aggregate block over its key range, and a coordinator fragment
// combines the partial results.
//
// With cost-based AIP enabled, each site's AIP Manager ships the Bloom
// filter of the completed (small) join side across the mesh to the scans
// feeding the shuffles — pruned tuples never reach the wire, the
// distributed generalization of the paper's adaptive Bloomjoin.
#ifndef PUSHSIP_DIST_SCALE_OUT_H_
#define PUSHSIP_DIST_SCALE_OUT_H_

#include "dist/dist_driver.h"

namespace pushsip {

/// Knobs for one scale-out run.
struct ScaleOutOptions {
  int num_sites = 3;
  double bandwidth_bps = 1e9;
  double latency_ms = 0.2;
  /// Install a cost-based AIP Manager on every compute fragment.
  bool aip = false;
  AipOptions aip_options;
  CostConstants cost;
  size_t batch_size = 1024;
  /// Pacing of the sharded scans (models disk-streamed sources and gives
  /// the AIP filter time to arrive while the stream is still flowing).
  size_t pace_every_rows = 256;
  double pace_ms = 1.0;
  /// Drop the brand predicate from Q17's part filter (keeps ~25x more
  /// parts) so tiny test-scale catalogs still produce non-empty results.
  bool weak_part_filter = false;
  size_t channel_capacity = 64;
  /// Failure oracle armed on every mesh link (chaos tests, --kill-site).
  /// The multi-site driver heals fired faults when it restarts a fragment.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Receiver heartbeat: give up after this long without exchange traffic.
  double exchange_idle_timeout_sec = 30.0;
  /// Replays allowed per fragment before a failure becomes fatal.
  int max_fragment_restarts = 3;
  /// Run over this existing mesh (which must span >= num_sites sites)
  /// instead of constructing a private one — the serving layer's
  /// many-queries-one-mesh mode. Sets DistributedQuery::mesh_shared, so
  /// the query reports only its own link traffic.
  std::shared_ptr<SiteMesh> shared_mesh;
  /// Multi-process execution: this process's transport endpoint. When set,
  /// the build still assembles the full topology (channel ids and sender
  /// slots must agree across processes) but AIP filter shipping goes over
  /// the transport, and the caller is expected to wire the exchange edges
  /// (dist/multi_process.h) and set DistributedQuery::local_site before
  /// running. Null = classic single-process simulation.
  std::shared_ptr<Transport> transport;
  /// Give every receiver ReceiverOptions::ordered_merge: buffer the stream
  /// and emit it sorted by (sender, seq) at end-of-stream, making the
  /// final answer bit-identical across backends and schedulers. Used by
  /// the sim-vs-TCP parity check; costs full stream buffering.
  bool deterministic_merge = false;
  /// Checkpoint each stateful compute fragment's state (join builds,
  /// aggregate tables, receiver replay progress) every this many accepted
  /// frames — a failed compute fragment then resumes from its last cut
  /// instead of replaying every producer into empty state. 0 disables
  /// automatic checkpoints (failures still recover, from scratch).
  int64_t checkpoint_interval_frames = 0;
  /// Chaos: kill the Q17 compute fragment at this site (-1 = off) by
  /// failing one of its receivers with kUnavailable after
  /// `stateful_kill_after_frames` accepted frames. The rebuilt/restarted
  /// fragment is never re-armed, so the failure fires exactly once.
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

/// Assembles the runnable multi-site plan for `query` over a partition of
/// `full_catalog`. The returned query's root sink collects the final rows.
Result<std::unique_ptr<DistributedQuery>> BuildScaleOutQuery(
    ScaleOutQuery query, const std::shared_ptr<Catalog>& full_catalog,
    const ScaleOutOptions& options);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_SCALE_OUT_H_
