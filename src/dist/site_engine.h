// SiteEngine: one simulated Tukwila node. A site owns a partition of the
// catalog (its local tables / shards), an ExecContext shared by the plan
// fragments placed on it, and the attach point for AIP filters shipped to
// it from other sites.
#ifndef PUSHSIP_DIST_SITE_ENGINE_H_
#define PUSHSIP_DIST_SITE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dist/exchange.h"
#include "net/fault_injector.h"
#include "net/mesh.h"
#include "net/transport/transport.h"
#include "sip/aip_manager.h"
#include "workload/plan_builder.h"

namespace pushsip {

/// \brief One site: catalog partition + execution context + fragments.
class SiteEngine {
 public:
  SiteEngine(int id, std::string name, std::shared_ptr<Catalog> catalog);
  ~SiteEngine();

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  ExecContext& context() { return ctx_; }
  const std::shared_ptr<Catalog>& catalog() const { return catalog_; }

  /// Fragment construction: the returned builder is bound to this site's
  /// context and catalog but not yet visible to concurrent
  /// AttachRemoteFilter calls; hand it to PublishFragment once fully built
  /// (the engine then owns it). Safe mid-query (migration rebuilds).
  std::unique_ptr<PlanBuilder> NewDetachedFragment();
  PlanBuilder& PublishFragment(std::unique_ptr<PlanBuilder> fragment);

  const std::vector<std::unique_ptr<PlanBuilder>>& fragments() const {
    return fragments_;
  }

  /// Installs a cost-based AIP Manager over fragment `index` (call after
  /// the fragment is finished). The manager lives as long as the engine.
  Status InstallAip(size_t index, const AipOptions& options,
                    const CostConstants& cost);
  const std::vector<std::unique_ptr<AipManager>>& aip_managers() const {
    return aip_managers_;
  }

  /// Attaches `set` as a source filter on every scan of this site whose
  /// schema carries `attr` (the delivery end of cross-site AIP shipping).
  /// Returns the number of scans now carrying the filter. Idempotent per
  /// `label`: a scan that already holds a filter with this label (a
  /// previous shipment, surviving a fragment restart) is counted but not
  /// double-filtered, which makes post-recovery re-shipping safe.
  /// Thread-safe against concurrently running fragments.
  int AttachRemoteFilter(AttrId attr, std::shared_ptr<const AipSet> set,
                         const std::string& label);

  /// Tuples pruned at this site's scans by remotely shipped filters.
  int64_t remote_filter_pruned() const;

  /// AIP filters re-attached to fragments published mid-query: every
  /// delivery recorded by AttachRemoteFilter is replayed onto the scans of
  /// each later PublishFragment, so a migrated fragment starts with the
  /// pruning its predecessor had (shippers never retry a delivered label).
  int64_t filters_reattached() const {
    return filters_reattached_.load(std::memory_order_relaxed);
  }

 private:
  int id_;
  std::string name_;
  std::shared_ptr<Catalog> catalog_;
  ExecContext ctx_;
  /// Guards fragments_ against the one mid-query mutation (PublishFragment
  /// during a migration) racing concurrent AttachRemoteFilter iterations.
  mutable std::mutex fragments_mu_;
  std::vector<std::unique_ptr<PlanBuilder>> fragments_;
  std::vector<std::unique_ptr<AipManager>> aip_managers_;

  mutable std::mutex filter_mu_;
  std::vector<std::shared_ptr<AipFilter>> remote_filters_;

  /// Every filter ever delivered to this site, replayed onto fragments
  /// published after the delivery.
  DeliveredFilterLedger delivered_filters_;
  std::atomic<int64_t> filters_reattached_{0};
};

/// Builds the RemoteFilterShipFn for a port whose stream is produced at
/// `producers` (one entry per producing site): serializes the Bloom
/// summary once, transmits it over each producer's link, deserializes at
/// the far end, and attaches it to the producer's matching scans. Returns
/// the simulated seconds the shipments occupied the links. `bill_to`, when
/// non-null, receives per-query billing of the shipped bytes (for links
/// shared across concurrent sessions).
RemoteFilterShipFn MakeFilterShipper(
    std::vector<std::pair<SiteEngine*, std::shared_ptr<SimLink>>> producers,
    ExecContext* bill_to = nullptr);

/// Transport-backed variant for multi-process queries: each producer is a
/// (site id, engine) pair where `engine` is non-null only for the local
/// site. Local producers get the filter attached directly (after a full
/// serialize/deserialize round-trip, for symmetry); remote producers
/// receive it via Transport::ShipFilter, delivered by the far side's
/// filter handler. The same per-label memo semantics as MakeFilterShipper:
/// a re-ship after a connection failure retries only the producers the
/// label never reached.
RemoteFilterShipFn MakeTransportFilterShipper(
    std::vector<std::pair<int, SiteEngine*>> producers,
    std::shared_ptr<Transport> transport);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_SITE_ENGINE_H_
