#include "dist/plan_fragmenter.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace pushsip {

namespace {

using NodeId = LogicalPlan::NodeId;
using Node = LogicalPlan::Node;
using Kind = Node::Kind;

/// Placement of a node that runs once on every site.
constexpr int kEverySite = -1;

bool IsExchange(Kind kind) {
  return kind == Kind::kRepartition || kind == Kind::kBroadcast ||
         kind == Kind::kGather;
}

bool HasStatefulOp(const PlanBuilder& fragment) {
  for (const auto& op : fragment.operators()) {
    if (op->IsStateful()) return true;
  }
  return false;
}

/// Every source of the fragment is an exchange receiver.
bool ExchangeFed(const PlanBuilder& fragment) {
  for (SourceOperator* source : fragment.sources()) {
    if (dynamic_cast<ExchangeReceiver*>(source) == nullptr) return false;
  }
  return !fragment.sources().empty();
}

/// The physical layout of one fragmented query: the split plan (every cut
/// is an exchange node), each node's placement, and each exchange's
/// channels and consumer hints. Rebuild recipes share it for the query's
/// lifetime.
struct Layout : std::enable_shared_from_this<Layout> {
  std::vector<Node> nodes;
  std::vector<int> site_of;        ///< per node: a site or kEverySite
  std::vector<Schema> scan_schema;  ///< per kScan node: instance schema
  /// Table referenced by each scanned foreign-key attribute.
  std::unordered_map<AttrId, std::string> fk_target;
  std::vector<std::shared_ptr<Catalog>> catalogs;
  FragmenterOptions options;
  DistributedQuery* query = nullptr;  ///< owns sites, mesh, channels

  struct Exchange {
    std::vector<int> producers;
    std::vector<int> consumers;
    Schema schema;
    std::vector<std::shared_ptr<ExchangeChannel>> channels;  ///< per consumer
    std::vector<PlanBuilder*> fragments;                     ///< per producer
    double rows = 0;                          ///< hint, per consumer
    std::unordered_map<AttrId, double> ndv;   ///< hint, per consumer
    bool emitted = false;
  };
  std::unordered_map<NodeId, Exchange> exchanges;

  int num_sites() const { return static_cast<int>(catalogs.size()); }
  SiteEngine& site(int s) const {
    return *query->sites[static_cast<size_t>(s)];
  }
  std::vector<int> Instances(int placement) const {
    if (placement != kEverySite) return {placement};
    std::vector<int> all(static_cast<size_t>(num_sites()));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  /// With one site every placement is site 0.
  bool SameSites(int a, int b) const { return a == b || num_sites() == 1; }
};

/// One fragment being emitted: the instance it materializes (`site`
/// selects shards and channels) and the site hosting it (context,
/// outgoing links, filter-shipping origin). They differ only when a
/// rebuild recipe moves the fragment.
struct FragmentBuild {
  PlanBuilder* builder = nullptr;
  int site = 0;
  int host = 0;
  /// Re-emission: reuse the existing channels and register nothing.
  bool rebuild = false;
  /// Exchange nodes the fragment consumes.
  std::vector<NodeId> inputs;
};

/// The label of an exchange over `id`: its leftmost scan's alias, or the
/// label of the nearest labelled exchange on the way down.
std::string DeriveLabel(const std::vector<Node>& nodes, NodeId id) {
  const Node* n = &nodes[static_cast<size_t>(id)];
  while (n->kind != Kind::kScan) {
    if (IsExchange(n->kind) && !n->label.empty()) return n->label;
    n = &nodes[static_cast<size_t>(n->children[0])];
  }
  return n->alias;
}

/// Rows of the table foreign-key attribute `attr` references, summed over
/// every site holding it; 0 when `attr` is no foreign key.
double KeyDomain(const Layout& L, AttrId attr) {
  const auto it = L.fk_target.find(attr);
  if (it == L.fk_target.end()) return 0;
  double rows = 0;
  for (const auto& catalog : L.catalogs) {
    if (catalog->HasTable(it->second)) {
      rows += static_cast<double>((*catalog->GetTable(it->second))->num_rows());
    }
  }
  return rows;
}

RemoteFilterShipFn Shipper(const Layout& L, int host,
                           const std::vector<int>& producers) {
  if (L.options.transport != nullptr) {
    std::vector<std::pair<int, SiteEngine*>> targets;
    for (const int p : producers) targets.emplace_back(p, &L.site(p));
    return MakeTransportFilterShipper(std::move(targets), L.options.transport);
  }
  std::vector<std::pair<SiteEngine*, std::shared_ptr<SimLink>>> targets;
  for (const int p : producers) {
    targets.emplace_back(&L.site(p), L.query->mesh->link(host, p));
  }
  return MakeFilterShipper(std::move(targets), &L.site(host).context());
}

Result<std::unique_ptr<ExchangeSender>> MakeSender(const Layout& L,
                                                   NodeId id, int host) {
  const Node& n = L.nodes[static_cast<size_t>(id)];
  const Layout::Exchange& x = L.exchanges.at(id);
  ExchangeMode mode = ExchangeMode::kForward;
  std::vector<int> hash_cols;
  if (n.kind == Kind::kBroadcast) mode = ExchangeMode::kBroadcast;
  if (n.kind == Kind::kRepartition) {
    mode = ExchangeMode::kHashPartition;
    PUSHSIP_ASSIGN_OR_RETURN(const int col, x.schema.IndexOf(n.cols[0]));
    hash_cols.push_back(col);
  }
  std::vector<ExchangeDestination> dests;
  for (size_t c = 0; c < x.consumers.size(); ++c) {
    dests.push_back({x.channels[c], L.query->mesh->link(host, x.consumers[c])});
  }
  return std::make_unique<ExchangeSender>(
      &L.site(host).context(), "xsend_" + n.label, x.schema, mode,
      std::move(hash_cols), std::move(dests));
}

Result<PlanBuilder::NodeId> Emit(Layout& L, NodeId id, FragmentBuild* f);

/// Publishes a finished fragment on `site` — the point it becomes visible
/// to filter attachment — and installs cost-based AIP over it when it
/// holds a stateful operator.
Result<PlanBuilder*> Publish(const Layout& L, SiteEngine& site,
                             std::unique_ptr<PlanBuilder> fragment) {
  const bool stateful = HasStatefulOp(*fragment);
  PlanBuilder& published = site.PublishFragment(std::move(fragment));
  if (L.options.aip && stateful) {
    PUSHSIP_RETURN_NOT_OK(site.InstallAip(site.fragments().size() - 1,
                                          L.options.aip_options,
                                          L.options.cost));
  }
  return &published;
}

/// A producer fragment of an exchange, terminated but not yet published.
struct Producer {
  std::unique_ptr<PlanBuilder> fragment;
  PlanBuilder::NodeId root = 0;  ///< the subtree under the sender
  ExchangeSender* sender = nullptr;
  std::vector<NodeId> inputs;    ///< exchanges the fragment consumes
};

/// Emits the producer fragment of exchange `id` for instance `site`,
/// hosted at `host`: the one path both the first build and the rebuild
/// recipe take. The first emission creates the exchange's channels, after
/// the subtree's own, so channel order is post-order over the exchanges —
/// deterministic, which multi-process wiring needs.
Result<Producer> EmitProducer(Layout& L, NodeId id, int site, int host,
                              bool rebuild) {
  Producer out;
  out.fragment = L.site(host).NewDetachedFragment();
  FragmentBuild f{out.fragment.get(), site, host, rebuild, {}};
  PUSHSIP_ASSIGN_OR_RETURN(
      out.root, Emit(L, L.nodes[static_cast<size_t>(id)].children[0], &f));
  out.inputs = std::move(f.inputs);
  Layout::Exchange& x = L.exchanges.at(id);
  if (x.channels.empty()) {
    x.schema = out.fragment->schema(out.root);
    for (size_t c = 0; c < x.consumers.size(); ++c) {
      auto channel =
          std::make_shared<ExchangeChannel>(L.options.channel_capacity);
      channel->set_num_senders(static_cast<int>(x.producers.size()));
      L.query->channels.push_back(channel);
      x.channels.push_back(std::move(channel));
    }
  }
  PUSHSIP_ASSIGN_OR_RETURN(std::unique_ptr<ExchangeSender> sender,
                           MakeSender(L, id, host));
  out.sender = sender.get();
  PUSHSIP_RETURN_NOT_OK(out.fragment->FinishWith(out.root, std::move(sender)));
  return out;
}

/// The one rebuild recipe: re-emits the producer fragment of exchange `id`
/// at instance `site` on another host, against the existing channels. It
/// is built detached and published only when complete, because a recipe
/// runs mid-query, concurrently with filter attachment on the host.
FragmentRebuildFn Recipe(std::shared_ptr<Layout> layout, NodeId id,
                         int site) {
  return [layout = std::move(layout), id, site](
             SiteEngine& host, int host_site) -> Result<RebuiltFragment> {
    PUSHSIP_ASSIGN_OR_RETURN(
        Producer p, EmitProducer(*layout, id, site, host_site, true));
    RebuiltFragment out;
    out.sender = p.sender;
    // Exchange-fed fragments rebuild without a scan: recovery restores
    // them from a checkpoint instead of replaying.
    out.scan = EnableFragmentReplay(*p.fragment);
    PUSHSIP_ASSIGN_OR_RETURN(out.fragment,
                             Publish(*layout, host, std::move(p.fragment)));
    return out;
  };
}

/// Builds, publishes and registers every producer fragment of exchange
/// `id`, then derives its consumers' hints.
Status EmitProducers(Layout& L, NodeId id) {
  Layout::Exchange& x = L.exchanges.at(id);
  x.emitted = true;
  double rows = 0;
  std::unordered_map<AttrId, double> max_ndv, sum_ndv;
  for (const int site : x.producers) {
    PUSHSIP_ASSIGN_OR_RETURN(Producer p,
                             EmitProducer(L, id, site, site, false));
    rows += p.fragment->estimated_rows(p.root);
    for (const auto& [attr, d] : p.fragment->estimated_ndv(p.root)) {
      max_ndv[attr] = std::max(max_ndv[attr], d);
      sum_ndv[attr] += d;
    }
    PUSHSIP_ASSIGN_OR_RETURN(PlanBuilder* pb,
                             Publish(L, L.site(site), std::move(p.fragment)));
    x.fragments.push_back(pb);

    MigratableFragmentSpec spec;
    spec.fragment = pb;
    spec.sender = p.sender;
    spec.stage = p.sender->name();
    spec.home_site = site;
    spec.rebuild = Recipe(L.shared_from_this(), id, site);
    spec.scan = EnableFragmentReplay(*pb);
    if (spec.scan != nullptr) {
      L.query->migratable_fragments.push_back(std::move(spec));
    } else if (HasStatefulOp(*pb) && ExchangeFed(*pb)) {
      L.query->migratable_fragments.push_back(std::move(spec));
      StatefulFragmentSpec sspec;
      sspec.fragment = pb;
      sspec.checkpointer = std::make_shared<FragmentCheckpointer>(
          L.options.checkpoint_interval_frames);
      sspec.checkpointer->Bind(pb);
      for (const NodeId in : p.inputs) {
        const Layout::Exchange& input = L.exchanges.at(in);
        const auto at = std::find(input.consumers.begin(),
                                  input.consumers.end(), site);
        sspec.input_channels.push_back(
            input.channels[static_cast<size_t>(at - input.consumers.begin())]);
        sspec.producers.insert(sspec.producers.end(), input.fragments.begin(),
                               input.fragments.end());
      }
      L.query->stateful_fragments.push_back(std::move(sspec));
    }
  }

  // Consumer hints. A stream's NDV is at least its largest producer's; a
  // foreign key's values come from the referenced table, which bounds it.
  std::unordered_map<AttrId, double> ndv;
  for (const auto& [attr, most] : max_ndv) {
    const double domain = KeyDomain(L, attr);
    ndv[attr] = domain > 0 ? std::min(domain, sum_ndv[attr]) : most;
  }
  const Node& n = L.nodes[static_cast<size_t>(id)];
  if (n.kind != Kind::kRepartition) {
    x.rows = rows;
    x.ndv = std::move(ndv);
    return Status::OK();
  }
  // Each site receives one hash partition: a 1/N share of the rows and of
  // the key's values. Other columns' per-partition NDVs are unknown.
  const double sites = static_cast<double>(x.consumers.size());
  x.rows = rows / sites;
  PUSHSIP_ASSIGN_OR_RETURN(const int key, x.schema.IndexOf(n.cols[0]));
  const auto it = ndv.find(x.schema.field(static_cast<size_t>(key)).attr);
  if (it != ndv.end()) x.ndv[it->first] = it->second / sites;
  return Status::OK();
}

/// The consumer end of exchange `id`: a receiver leaf on the channel of
/// the fragment's instance site.
Result<PlanBuilder::NodeId> EmitReceiver(Layout& L, NodeId id,
                                         FragmentBuild* f) {
  Layout::Exchange& x = L.exchanges.at(id);
  if (!x.emitted) {
    PUSHSIP_DCHECK(!f->rebuild);  // a rebuilt fragment's inputs all exist
    PUSHSIP_RETURN_NOT_OK(EmitProducers(L, id));
  }
  // Split placed the consuming fragment on one of the exchange's consumers.
  const auto at = std::find(x.consumers.begin(), x.consumers.end(), f->site);
  PUSHSIP_DCHECK(at != x.consumers.end());
  const std::shared_ptr<ExchangeChannel>& channel =
      x.channels[static_cast<size_t>(at - x.consumers.begin())];
  const Node& n = L.nodes[static_cast<size_t>(id)];
  PlanBuilder* b = f->builder;
  ReceiverOptions ro;  // heartbeat inherited from the site's ExecContext
  ro.ordered_merge = L.options.deterministic_merge;
  auto receiver = std::make_unique<ExchangeReceiver>(
      b->context(), "xrecv_" + n.label, x.schema, channel, ro);
  PUSHSIP_ASSIGN_OR_RETURN(
      const PlanBuilder::NodeId src,
      b->Source(std::move(receiver), x.rows, x.ndv,
                Shipper(L, f->host, x.producers),
                /*partitioned_stream=*/n.kind == Kind::kRepartition));
  if (!f->rebuild) {
    channel->set_consumer_site(f->site);
    L.query->exchange_consumers.push_back({channel.get(), b->plan_node(src)});
  }
  f->inputs.push_back(id);
  return src;
}

Result<PlanBuilder::NodeId> Emit(Layout& L, NodeId id, FragmentBuild* f) {
  const Node& n = L.nodes[static_cast<size_t>(id)];
  if (IsExchange(n.kind)) return EmitReceiver(L, id, f);
  PlanBuilder* b = f->builder;
  std::vector<PlanBuilder::NodeId> in;
  for (const NodeId c : n.children) {
    PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId child, Emit(L, c, f));
    in.push_back(child);
  }
  switch (n.kind) {
    case Kind::kScan: {
      // The instance site's shard, even when another site hosts a rebuild
      // (a replica, in the simulation the shared table).
      PUSHSIP_ASSIGN_OR_RETURN(
          TablePtr table,
          L.catalogs[static_cast<size_t>(f->site)]->GetTable(n.table));
      // Deterministic batch windows make scan-rooted fragments replayable.
      ScanOptions options = n.scan_options;
      options.window_batches = true;
      return b->ScanTable(std::move(table),
                          L.scan_schema[static_cast<size_t>(id)],
                          std::move(options));
    }
    case Kind::kFilter: {
      PUSHSIP_ASSIGN_OR_RETURN(ExprPtr pred, n.predicate(b->schema(in[0])));
      return b->Filter(in[0], std::move(pred), n.selectivity);
    }
    case Kind::kProject:
      return b->Project(in[0], n.cols);
    case Kind::kProjectExprs: {
      PUSHSIP_ASSIGN_OR_RETURN(Projection p, n.projection(b->schema(in[0])));
      return b->ProjectExprs(in[0], std::move(p.fields), std::move(p.exprs));
    }
    case Kind::kJoin: {
      ExprPtr residual;
      if (n.predicate) {
        PUSHSIP_ASSIGN_OR_RETURN(residual,
                                 n.predicate(b->ConcatSchema(in[0], in[1])));
      }
      return b->Join(in[0], in[1], n.eq_cols, std::move(residual),
                     n.selectivity);
    }
    case Kind::kAggregate:
      return b->Aggregate(in[0], n.group_cols, n.aggs);
    case Kind::kDistinct:
      return b->Distinct(in[0]);
    default:
      break;
  }
  return Status::Internal("unknown logical node kind");
}

/// Split step: copies the plan, places every node, and inserts a Gather
/// wherever a child runs elsewhere than its parent. Returns the root.
Result<NodeId> Split(const LogicalPlan& plan, NodeId root, int coordinator,
                     Layout* L) {
  L->nodes = plan.nodes();
  const size_t num_nodes = L->nodes.size();
  L->site_of.assign(num_nodes, 0);
  L->scan_schema.resize(num_nodes);
  const int num_sites = L->num_sites();
  int instance = 0;
  std::vector<int> parents(num_nodes, 0);
  for (size_t i = 0; i < num_nodes; ++i) {
    const Node& n = L->nodes[i];
    for (const NodeId c : n.children) {
      if (c < 0 || static_cast<size_t>(c) >= i) {
        return Status::InvalidArgument("bad logical child " +
                                       std::to_string(c));
      }
      // An exchange has one channel per consumer site, so one reader.
      if (IsExchange(L->nodes[static_cast<size_t>(c)].kind) &&
          ++parents[static_cast<size_t>(c)] > 1) {
        return Status::InvalidArgument("exchange " + std::to_string(c) +
                                       " feeds more than one parent");
      }
    }
    int& site = L->site_of[i];
    switch (n.kind) {
      case Kind::kScan: {
        std::vector<int> hosts;
        for (int s = 0; s < num_sites; ++s) {
          if (L->catalogs[static_cast<size_t>(s)]->HasTable(n.table)) {
            hosts.push_back(s);
          }
        }
        if (hosts.empty()) {
          return Status::NotFound("no site hosts table " + n.table);
        }
        site = static_cast<int>(hosts.size()) == num_sites && num_sites > 1
                   ? kEverySite
                   : hosts[0];
        PUSHSIP_ASSIGN_OR_RETURN(
            const TablePtr table,
            L->catalogs[static_cast<size_t>(hosts[0])]->GetTable(n.table));
        L->scan_schema[i] = MakeInstanceSchema(*table, n.alias, instance++);
        for (const Table::ForeignKey& fk : table->foreign_keys()) {
          L->fk_target[L->scan_schema[i].field(static_cast<size_t>(fk.col))
                           .attr] = fk.ref_table;
        }
        break;
      }
      case Kind::kRepartition:
      case Kind::kBroadcast:
        site = kEverySite;
        break;
      case Kind::kGather:
        site = n.site < 0 ? coordinator : n.site;
        break;
      case Kind::kJoin: {
        // On every site when every input is; otherwise where the first
        // single-site input runs.
        site = kEverySite;
        for (const NodeId c : n.children) {
          const int child = L->site_of[static_cast<size_t>(c)];
          if (child != kEverySite) {
            site = child;
            break;
          }
        }
        break;
      }
      default:
        site = L->site_of[static_cast<size_t>(n.children[0])];
        break;
    }
  }

  const auto gather = [L](NodeId input, int site) {
    Node g;
    g.kind = Kind::kGather;
    g.children = {input};
    g.site = site;
    L->nodes.push_back(std::move(g));
    L->site_of.push_back(site);
    L->scan_schema.emplace_back();
    return static_cast<NodeId>(L->nodes.size() - 1);
  };
  for (size_t i = 0; i < num_nodes; ++i) {
    if (IsExchange(L->nodes[i].kind)) continue;  // already a cut
    for (size_t c = 0; c < L->nodes[i].children.size(); ++c) {
      const NodeId child = L->nodes[i].children[c];
      if (L->SameSites(L->site_of[static_cast<size_t>(child)],
                       L->site_of[i])) {
        continue;
      }
      const NodeId g = gather(child, L->site_of[i]);
      L->nodes[i].children[c] = g;
    }
  }
  if (!L->SameSites(L->site_of[static_cast<size_t>(root)], coordinator)) {
    root = gather(root, coordinator);
  }

  for (size_t i = 0; i < L->nodes.size(); ++i) {
    Node& n = L->nodes[i];
    if (!IsExchange(n.kind)) continue;
    if (n.label.empty()) n.label = DeriveLabel(L->nodes, n.children[0]);
    Layout::Exchange& x = L->exchanges[static_cast<NodeId>(i)];
    x.producers =
        L->Instances(L->site_of[static_cast<size_t>(n.children[0])]);
    x.consumers = n.kind == Kind::kGather ? std::vector<int>{L->site_of[i]}
                                           : L->Instances(kEverySite);
  }
  return root;
}

}  // namespace

LogicalPlan::Node& LogicalPlan::Add(Kind kind, std::vector<NodeId> children) {
  nodes_.emplace_back();
  nodes_.back().kind = kind;
  nodes_.back().children = std::move(children);
  return nodes_.back();
}

LogicalPlan::NodeId LogicalPlan::last() const {
  return static_cast<NodeId>(nodes_.size() - 1);
}

LogicalPlan::NodeId LogicalPlan::Scan(std::string table, std::string alias,
                                      ScanOptions options) {
  Node& n = Add(Kind::kScan, {});
  n.table = std::move(table);
  n.alias = std::move(alias);
  n.scan_options = std::move(options);
  return last();
}

LogicalPlan::NodeId LogicalPlan::Filter(NodeId input, PredicateFn predicate,
                                        double selectivity) {
  Node& n = Add(Kind::kFilter, {input});
  n.predicate = std::move(predicate);
  n.selectivity = selectivity;
  return last();
}

LogicalPlan::NodeId LogicalPlan::Project(NodeId input,
                                         std::vector<std::string> cols) {
  Add(Kind::kProject, {input}).cols = std::move(cols);
  return last();
}

LogicalPlan::NodeId LogicalPlan::ProjectExprs(NodeId input,
                                              ProjectionFn projection) {
  Add(Kind::kProjectExprs, {input}).projection = std::move(projection);
  return last();
}

LogicalPlan::NodeId LogicalPlan::Join(
    NodeId left, NodeId right,
    std::vector<std::pair<std::string, std::string>> eq_cols,
    PredicateFn residual, double residual_sel) {
  Node& n = Add(Kind::kJoin, {left, right});
  n.eq_cols = std::move(eq_cols);
  n.predicate = std::move(residual);
  n.selectivity = residual_sel;
  return last();
}

LogicalPlan::NodeId LogicalPlan::Aggregate(NodeId input,
                                           std::vector<std::string> group_cols,
                                           std::vector<AggDesc> aggs) {
  Node& n = Add(Kind::kAggregate, {input});
  n.group_cols = std::move(group_cols);
  n.aggs = std::move(aggs);
  return last();
}

LogicalPlan::NodeId LogicalPlan::Distinct(NodeId input) {
  Add(Kind::kDistinct, {input});
  return last();
}

LogicalPlan::NodeId LogicalPlan::Repartition(NodeId input, std::string col,
                                             std::string label) {
  Node& n = Add(Kind::kRepartition, {input});
  n.cols = {std::move(col)};
  n.label = std::move(label);
  return last();
}

LogicalPlan::NodeId LogicalPlan::Broadcast(NodeId input, std::string label) {
  Add(Kind::kBroadcast, {input}).label = std::move(label);
  return last();
}

LogicalPlan::NodeId LogicalPlan::Gather(NodeId input, std::string label) {
  Add(Kind::kGather, {input}).label = std::move(label);
  return last();
}

PlanFragmenter::PlanFragmenter(
    std::vector<std::shared_ptr<Catalog>> site_catalogs, int coordinator)
    : catalogs_(std::move(site_catalogs)), coordinator_(coordinator) {}

Result<std::unique_ptr<DistributedQuery>> PlanFragmenter::Fragment(
    const LogicalPlan& plan, LogicalPlan::NodeId root,
    const FragmenterOptions& options) {
  const int num_sites = static_cast<int>(catalogs_.size());
  if (num_sites == 0) return Status::InvalidArgument("no site catalogs");
  if (root < 0 || root >= static_cast<int>(plan.nodes().size())) {
    return Status::InvalidArgument("bad logical root");
  }
  if (coordinator_ < 0 || coordinator_ >= num_sites) {
    return Status::InvalidArgument("bad coordinator site");
  }

  auto query = std::make_unique<DistributedQuery>();
  if (options.shared_mesh != nullptr) {
    if (options.shared_mesh->num_sites() < num_sites) {
      return Status::InvalidArgument("shared mesh spans too few sites");
    }
    query->mesh = options.shared_mesh;
    query->mesh_shared = true;
  } else {
    query->mesh = std::make_shared<SiteMesh>(num_sites, options.bandwidth_bps,
                                             options.latency_ms);
  }
  if (options.fault_injector != nullptr) {
    query->mesh->InstallFaultInjector(options.fault_injector);
    query->fault_injector = options.fault_injector;
  }
  query->max_fragment_restarts = options.max_fragment_restarts;
  query->root_site = coordinator_;
  for (int s = 0; s < num_sites; ++s) {
    query->sites.push_back(std::make_unique<SiteEngine>(
        s, "site" + std::to_string(s), catalogs_[static_cast<size_t>(s)]));
    query->sites.back()->context().set_batch_size(options.batch_size);
    query->sites.back()->context().set_exchange_idle_timeout_sec(
        options.exchange_idle_timeout_sec);
  }

  auto layout = std::make_shared<Layout>();
  layout->catalogs = catalogs_;
  layout->options = options;
  layout->query = query.get();
  PUSHSIP_ASSIGN_OR_RETURN(root,
                           Split(plan, root, coordinator_, layout.get()));

  // The root fragment holds the Sink; Emit builds every producer fragment
  // the first time one of its exchanges is consumed.
  SiteEngine& coord = layout->site(coordinator_);
  std::unique_ptr<PlanBuilder> fragment = coord.NewDetachedFragment();
  FragmentBuild f{fragment.get(), coordinator_, coordinator_, false, {}};
  PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId root_id,
                           Emit(*layout, root, &f));
  PUSHSIP_RETURN_NOT_OK(fragment->Finish(root_id));
  PUSHSIP_ASSIGN_OR_RETURN(PlanBuilder* rb,
                           Publish(*layout, coord, std::move(fragment)));
  query->root_sink = rb->sink();
  return query;
}

Status ArmReceiverFailure(DistributedQuery* query, int site,
                          const std::string& receiver, int64_t after_frames) {
  if (site >= 0 && site < static_cast<int>(query->sites.size())) {
    for (const auto& fragment :
         query->sites[static_cast<size_t>(site)]->fragments()) {
      for (SourceOperator* source : fragment->sources()) {
        auto* r = dynamic_cast<ExchangeReceiver*>(source);
        if (r != nullptr && r->name() == receiver) {
          r->ArmFailure(after_frames);
          return Status::OK();
        }
      }
    }
  }
  return Status::NotFound("no receiver " + receiver + " at site " +
                          std::to_string(site));
}

}  // namespace pushsip
