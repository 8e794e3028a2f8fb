#include "dist/scale_out.h"

#include <algorithm>

namespace pushsip {

const char* ScaleOutQueryName(ScaleOutQuery query) {
  switch (query) {
    case ScaleOutQuery::kQ17: return "Q17-scaleout";
    case ScaleOutQuery::kSubquery: return "subquery-scaleout";
  }
  return "?";
}

std::vector<std::shared_ptr<Catalog>> PartitionCatalog(
    const Catalog& full, const std::vector<std::string>& shard_tables,
    int num_sites) {
  std::vector<std::shared_ptr<Catalog>> catalogs;
  for (int s = 0; s < num_sites; ++s) {
    catalogs.push_back(std::make_shared<Catalog>());
  }
  for (const std::string& name : full.TableNames()) {
    const bool sharded =
        std::find(shard_tables.begin(), shard_tables.end(), name) !=
        shard_tables.end();
    if (!sharded || num_sites == 1) {
      catalogs[0]->RegisterTable(*full.GetTable(name)).CheckOK();
      continue;
    }
    const std::vector<TablePtr> shards = *full.GetShards(name, num_sites);
    for (size_t s = 0; s < shards.size(); ++s) {
      catalogs[s]->RegisterTable(shards[s]).CheckOK();
    }
  }
  return catalogs;
}

namespace {

using NodeId = LogicalPlan::NodeId;

ScanOptions PacedScan(const ScaleOutOptions& options) {
  ScanOptions o;
  o.delay_every_rows = options.pace_every_rows;
  o.delay_ms = options.pace_ms;
  return o;
}

// ---------------------------------------------------------------------------
// TPC-H Q17, partitioned (see header):
//   part -> filter -> project[p_partkey] -> BROADCAST
//   lineitem (l1) -> project -> REPARTITION(l_partkey)
//   lineitem (l2) -> project -> REPARTITION(l_partkey)
//   every site: (part ⋈ l1) ⋈ (0.2·AVG(l2 qty) by partkey), residual
//               qty < lim, partial SUM(extendedprice) -> GATHER
//   coordinator: final SUM / 7
// ---------------------------------------------------------------------------
NodeId Q17Plan(LogicalPlan* lp, const ScaleOutOptions& options) {
  const bool weak = options.weak_part_filter;
  const NodeId p = lp->Scan("part", "p");
  const NodeId pf = lp->Filter(
      p,
      [weak](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr brand, ColNamed(s, "p.p_brand"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr container,
                                 ColNamed(s, "p.p_container"));
        if (weak) {
          return Cmp(CmpOp::kEq, std::move(container), LitString("MED CAN"));
        }
        return And(Cmp(CmpOp::kEq, std::move(brand), LitString("Brand#34")),
                   Cmp(CmpOp::kEq, std::move(container),
                       LitString("MED CAN")));
      },
      weak ? 1.0 / 40 : 1.0 / 1000);
  const NodeId part =
      lp->Broadcast(lp->Project(pf, {"p.p_partkey"}), "part");

  const NodeId l1 = lp->Repartition(
      lp->Project(lp->Scan("lineitem", "l1", PacedScan(options)),
                  {"l1.l_partkey", "l1.l_quantity", "l1.l_extendedprice"}),
      "l1.l_partkey", "l1");
  const NodeId l2 = lp->Repartition(
      lp->Project(lp->Scan("lineitem", "l2", PacedScan(options)),
                  {"l2.l_partkey", "l2.l_quantity"}),
      "l2.l_partkey", "l2");

  const NodeId j1 = lp->Join(part, l1, {{"p.p_partkey", "l1.l_partkey"}});
  const NodeId avg = lp->Aggregate(
      l2, {"l2.l_partkey"}, {{AggFunc::kAvg, "l2.l_quantity", "avg_q"}});
  const NodeId lim =
      lp->ProjectExprs(avg, [](const Schema& s) -> Result<Projection> {
        PUSHSIP_ASSIGN_OR_RETURN(const int pk, s.IndexOf("l2.l_partkey"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr avg_q, ColNamed(s, "avg_q"));
        Projection out;
        out.fields = {s.field(static_cast<size_t>(pk)),
                      Field{"lim", TypeId::kDouble, kInvalidAttr}};
        out.exprs = {Col(pk, TypeId::kInt64, "l2.l_partkey"),
                     Arith(ArithOp::kMul, LitDouble(0.2), std::move(avg_q))};
        return out;
      });
  const NodeId top = lp->Join(
      j1, lim, {{"p.p_partkey", "l2.l_partkey"}},
      [](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr qty, ColNamed(s, "l1.l_quantity"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr limit, ColNamed(s, "lim"));
        return Cmp(CmpOp::kLt, std::move(qty), std::move(limit));
      },
      0.3);
  const NodeId partial = lp->Gather(
      lp->Aggregate(top, {},
                    {{AggFunc::kSum, "l1.l_extendedprice", "revenue"}}),
      "partial");
  const NodeId total =
      lp->Aggregate(partial, {}, {{AggFunc::kSum, "revenue", "total"}});
  return lp->ProjectExprs(total, [](const Schema& s) -> Result<Projection> {
    PUSHSIP_ASSIGN_OR_RETURN(ExprPtr sum, ColNamed(s, "total"));
    Projection out;
    out.fields = {Field{"avg_yearly", TypeId::kDouble, kInvalidAttr}};
    out.exprs = {Arith(ArithOp::kDiv, std::move(sum), LitDouble(7.0))};
    return out;
  });
}

// Filtered supplier ⋈ nation[FRANCE], one instance per alias pair, at the
// site holding both tables.
NodeId FrenchSuppliers(LogicalPlan* lp, const std::string& s,
                       const std::string& n) {
  const NodeId sup = lp->Scan("supplier", s);
  const NodeId nation = lp->Filter(
      lp->Scan("nation", n),
      [n](const Schema& schema) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr name, ColNamed(schema, n + ".n_name"));
        return Cmp(CmpOp::kEq, std::move(name), LitString("FRANCE"));
      },
      1.0 / 25);
  const NodeId j =
      lp->Join(sup, nation, {{s + ".s_nationkey", n + ".n_nationkey"}});
  return lp->Project(j, {s + ".s_suppkey", s + ".s_name", s + ".s_acctbal",
                         s + ".s_address", s + ".s_phone", s + ".s_comment"});
}

// ---------------------------------------------------------------------------
// The IBM subquery workload, partitioned. PARTSUPP is the sharded relation;
// part and the (supplier ⋈ nation[FRANCE]) subplans are filtered at site 0
// and broadcast; both blocks run per site over the ps_partkey range; the
// result rows are gathered at the coordinator.
// ---------------------------------------------------------------------------
NodeId SubqueryPlan(LogicalPlan* lp, const ScaleOutOptions& options) {
  const bool weak = options.weak_part_filter;
  const NodeId p = lp->Scan("part", "p");
  const NodeId pf = lp->Filter(
      p,
      [weak](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr size_col, ColNamed(s, "p.p_size"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr type_col, ColNamed(s, "p.p_type"));
        if (weak) return Like(std::move(type_col), "%BRASS");
        return And(Cmp(CmpOp::kEq, std::move(size_col), LitInt(15)),
                   Like(std::move(type_col), "%BRASS"));
      },
      weak ? 1.0 / 5 : 1.0 / 250);
  const NodeId part =
      lp->Broadcast(lp->Project(pf, {"p.p_partkey"}), "part");
  const auto partsupp = [&](const std::string& a) {
    return lp->Repartition(
        lp->Project(lp->Scan("partsupp", a, PacedScan(options)),
                    {a + ".ps_partkey", a + ".ps_suppkey",
                     a + ".ps_supplycost"}),
        a + ".ps_partkey", a);
  };
  const NodeId ps1 = partsupp("ps1");
  const NodeId ps2 = partsupp("ps2");
  // Scans in instance order: p, ps1, ps2, s1, n1, s2, n2.
  const NodeId sn1 = lp->Broadcast(FrenchSuppliers(lp, "s1", "n1"), "sn1");
  const NodeId sn2 = lp->Broadcast(FrenchSuppliers(lp, "s2", "n2"), "sn2");

  // Outer block: eligible (part, partsupp, supplier) triples.
  const NodeId j1 = lp->Join(part, ps1, {{"p.p_partkey", "ps1.ps_partkey"}});
  const NodeId outer =
      lp->Join(j1, sn1, {{"ps1.ps_suppkey", "s1.s_suppkey"}});
  // Child block: per-part minimum supply cost among FRANCE suppliers.
  const NodeId j4 = lp->Join(ps2, sn2, {{"ps2.ps_suppkey", "s2.s_suppkey"}});
  const NodeId agg =
      lp->Aggregate(j4, {"ps2.ps_partkey"},
                    {{AggFunc::kMin, "ps2.ps_supplycost", "min_sc"}});
  const NodeId top = lp->Join(
      outer, agg,
      {{"p.p_partkey", "ps2.ps_partkey"}, {"ps1.ps_supplycost", "min_sc"}});
  return lp->Gather(lp->Project(top, {"s1.s_name", "s1.s_acctbal",
                                      "s1.s_address", "s1.s_phone",
                                      "s1.s_comment"}),
                    "result");
}

}  // namespace

Result<std::unique_ptr<DistributedQuery>> BuildScaleOutQuery(
    ScaleOutQuery query, const std::shared_ptr<Catalog>& full_catalog,
    const ScaleOutOptions& options) {
  if (full_catalog == nullptr) {
    return Status::InvalidArgument("no catalog");
  }
  if (options.num_sites < 1 || options.num_sites > 64) {
    return Status::InvalidArgument("num_sites out of range");
  }
  const bool q17 = query == ScaleOutQuery::kQ17;
  PlanFragmenter fragmenter(PartitionCatalog(
      *full_catalog, {q17 ? "lineitem" : "partsupp"}, options.num_sites));
  LogicalPlan plan;
  const NodeId root = q17 ? Q17Plan(&plan, options)
                          : SubqueryPlan(&plan, options);
  PUSHSIP_ASSIGN_OR_RETURN(std::unique_ptr<DistributedQuery> built,
                           fragmenter.Fragment(plan, root, options));
  if (q17 && options.stateful_kill_site >= 0 &&
      options.stateful_kill_site < options.num_sites) {
    PUSHSIP_RETURN_NOT_OK(ArmReceiverFailure(
        built.get(), options.stateful_kill_site,
        options.stateful_kill_aggregate ? "xrecv_l2" : "xrecv_part",
        options.stateful_kill_after_frames));
  }
  return built;
}

}  // namespace pushsip
