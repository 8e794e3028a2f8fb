// PlanFragmenter: the one planning path from a logical plan to a runnable
// multi-site DistributedQuery. It splits the plan at its exchanges, lays
// out one fragment per (subtree, site) instance, and wires every cut with
// channels, senders, receivers and AIP shippers.
//
// Placement comes from the site catalogs alone:
//   * A table in every site catalog is a partitioned scan: one instance
//     per site over that site's shard. Any other table is scanned at the
//     first site holding it. With one site everything runs at site 0.
//   * Repartition (hash by a column) and Broadcast feed every site; Gather
//     feeds the coordinator. These explicit exchanges always materialize,
//     even at one site, so a plan keeps its shape at every site count.
//   * A unary operator runs where its input runs. A join runs on every
//     site when all its inputs do, else at its first single-site input's.
//   * Where a child runs elsewhere than its parent, an implicit Gather (a
//     forward exchange) moves it to the parent's site. The Sink lives at
//     the coordinator, so a partitioned root is gathered there.
//
// Every receiver ships AIP filters to the sites producing its stream, over
// the transport when one is set; Repartition-fed receivers are
// partitioned, so state built from them never ships cross-site. Receiver
// row/NDV hints sum the producers' estimates; a Repartition divides rows
// and its key's NDV by the site count, taking a foreign key's NDV as the
// referenced table's size (a shard's own NDV undercounts the column).
//
// Registration: a replayable scan-rooted fragment is migratable; an
// exchange-fed fragment with stateful operators is migratable and
// stateful (checkpointer, input channels, producers); every receiver is
// an exchange consumer with its consumer site. All share one rebuild
// recipe: re-emit the fragment's subtree from the retained split plan on
// the new host, against the existing channels.
#ifndef PUSHSIP_DIST_PLAN_FRAGMENTER_H_
#define PUSHSIP_DIST_PLAN_FRAGMENTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/dist_driver.h"

namespace pushsip {

/// Builds a predicate once the schema at its attach point is known (column
/// indexes differ between the single-site and fragmented materializations).
using PredicateFn = std::function<Result<ExprPtr>(const Schema&)>;

/// A computed projection: `exprs[i]` produces output field `fields[i]`.
struct Projection {
  std::vector<Field> fields;
  std::vector<ExprPtr> exprs;
};
/// Builds a projection once the input schema is known, like PredicateFn.
using ProjectionFn = std::function<Result<Projection>(const Schema&)>;

/// \brief A site-independent query description the fragmenter materializes.
class LogicalPlan {
 public:
  using NodeId = int;

  NodeId Scan(std::string table, std::string alias, ScanOptions options = {});
  NodeId Filter(NodeId input, PredicateFn predicate, double selectivity);
  NodeId Project(NodeId input, std::vector<std::string> cols);
  NodeId ProjectExprs(NodeId input, ProjectionFn projection);
  NodeId Join(NodeId left, NodeId right,
              std::vector<std::pair<std::string, std::string>> eq_cols,
              PredicateFn residual = nullptr, double residual_sel = 1.0);
  NodeId Aggregate(NodeId input, std::vector<std::string> group_cols,
                   std::vector<AggDesc> aggs);
  NodeId Distinct(NodeId input);

  /// Exchanges. `label` names the pair (xsend_<label> / xrecv_<label>);
  /// empty derives it from the input's leftmost scan alias.
  /// Hash-partitions `input` by column `col` across every site.
  NodeId Repartition(NodeId input, std::string col, std::string label = "");
  /// Replicates `input` to every site.
  NodeId Broadcast(NodeId input, std::string label = "");
  /// Forwards `input` from every site it runs on to the coordinator.
  NodeId Gather(NodeId input, std::string label = "");

  struct Node {
    enum class Kind {
      kScan,
      kFilter,
      kProject,
      kProjectExprs,
      kJoin,
      kAggregate,
      kDistinct,
      kRepartition,
      kBroadcast,
      kGather,
    };
    Kind kind = Kind::kScan;
    std::vector<NodeId> children;
    std::string table, alias;   // kScan
    ScanOptions scan_options;   // kScan
    PredicateFn predicate;      // kFilter predicate / kJoin residual
    double selectivity = 1.0;
    std::vector<std::string> cols;        // kProject; kRepartition key
    ProjectionFn projection;              // kProjectExprs
    std::vector<std::pair<std::string, std::string>> eq_cols;  // kJoin
    std::vector<std::string> group_cols;  // kAggregate
    std::vector<AggDesc> aggs;            // kAggregate
    std::string label;                    // exchanges
    /// kGather destination; -1 = the coordinator.
    int site = -1;
  };

  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  /// Appends a node; the caller fills in its kind's fields.
  Node& Add(Node::Kind kind, std::vector<NodeId> children);
  NodeId last() const;
  std::vector<Node> nodes_;
};

/// Execution knobs of a fragmented query (ScaleOutOptions extends them).
struct FragmenterOptions {
  /// Links of the private mesh built when no shared_mesh is given.
  double bandwidth_bps = 1e9;
  double latency_ms = 0.2;
  size_t channel_capacity = 64;
  size_t batch_size = 1024;
  /// Install a cost-based AIP Manager on every fragment holding a stateful
  /// operator.
  bool aip = false;
  AipOptions aip_options;
  CostConstants cost;
  /// Failure oracle armed on every mesh link (chaos tests, --kill-site).
  /// The multi-site driver heals fired faults when it restarts a fragment.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Receiver heartbeat: give up after this long without exchange traffic.
  double exchange_idle_timeout_sec = 30.0;
  /// Replays allowed per fragment before a failure becomes fatal.
  int max_fragment_restarts = 3;
  /// Run over this existing mesh (which must span every site) instead of
  /// constructing a private one: the serving layer's many-queries-one-mesh
  /// mode. Sets DistributedQuery::mesh_shared, so the query reports only
  /// its own link traffic.
  std::shared_ptr<SiteMesh> shared_mesh;
  /// Multi-process execution: this process's transport endpoint. When set,
  /// the full topology is still assembled (channel ids and sender slots
  /// must agree across processes) but AIP filters ship over the transport,
  /// and the caller wires the exchange edges (dist/multi_process.h) and
  /// sets DistributedQuery::local_site before running. Null = classic
  /// single-process simulation.
  std::shared_ptr<Transport> transport;
  /// Give every receiver ReceiverOptions::ordered_merge: buffer the stream
  /// and emit it sorted by (sender, seq) at end-of-stream, making the
  /// final answer bit-identical across backends and schedulers. Costs full
  /// stream buffering.
  bool deterministic_merge = false;
  /// Checkpoint each stateful fragment's state (join builds, aggregate
  /// tables, receiver replay progress) every this many accepted frames, so
  /// a failed fragment resumes from its last cut instead of replaying
  /// every producer into empty state. 0 disables automatic checkpoints
  /// (failures still recover, from scratch).
  int64_t checkpoint_interval_frames = 0;
};

/// \brief Materializes logical plans over a set of site catalogs.
class PlanFragmenter {
 public:
  /// One SiteEngine is created per catalog; `coordinator` is the site the
  /// final Sink (and every Gather) is placed on.
  explicit PlanFragmenter(std::vector<std::shared_ptr<Catalog>> site_catalogs,
                          int coordinator = 0);

  /// Cuts `plan` (rooted at `root`) into fragments and assembles the
  /// runnable DistributedQuery. The plan is copied; rebuild recipes keep
  /// the copy alive.
  Result<std::unique_ptr<DistributedQuery>> Fragment(
      const LogicalPlan& plan, LogicalPlan::NodeId root,
      const FragmenterOptions& options = {});

 private:
  std::vector<std::shared_ptr<Catalog>> catalogs_;
  int coordinator_;
};

/// Chaos: makes the receiver named `receiver` on site `site` fail once with
/// kUnavailable after `after_frames` accepted frames, as a site crash
/// mid-stream would. Rebuilt fragments get fresh receivers that are never
/// armed, so the failure fires at most once per run. NotFound when no such
/// receiver exists.
Status ArmReceiverFailure(DistributedQuery* query, int site,
                          const std::string& receiver, int64_t after_frames);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_PLAN_FRAGMENTER_H_
