// perfbench: the repository benchmark's measuring binary. It runs one
// workload (see README.md) against the engine's public entry points for a
// fixed wall time, checks every answer, and prints one JSON report line of
// raw measurements: set-up times, per-query samples and summed layer
// counters. run.py turns the report into the benchmark's metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//             [--trace-out <file>]
//
// Workloads: paper_suite, serve_rw, dist_q17, dist_q17_checkpoint and
// dist_q17_recover.
//
// With --trace-out the run opens one span around every public call it
// makes, switches on the engine's per-operator profiling, adds the
// per-layer counters to the report and writes the spans as Chrome trace
// JSON at exit. Nothing sleeps on purpose: scan pacing, delayed inputs and
// serve scan delays all stay at 0.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/exchange.h"
#include "dist/scale_out.h"
#include "exec/profile.h"
#include "obs/trace.h"
#include "serve/query_session.h"
#include "sip/aip_manager.h"
#include "sip/feed_forward.h"
#include "storage/tpch_generator.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/experiment.h"

namespace pushsip {
namespace perf {
namespace {

// Scale factors: each workload's per-query cost sized so a 10 s run holds
// well over 100 queries (the p90 rule needs 10 samples beyond it).
constexpr double kPaperSf = 0.05;
constexpr double kServeSf = 0.05;
constexpr double kDistSf = 0.02;
// Set-up is timed this often before the timed phase and again after it;
// run.py reports the median.
constexpr int kSetups = 3;
constexpr int kMinQueries = 100;
constexpr int kServeClients = 4;
constexpr int kDistSites = 4;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;  ///< empty = untraced run
};

/// Summed layer counters of one run, keyed by name (see run.py's
/// PER_LAYER table for how each becomes a metric).
using Counters = std::map<std::string, double>;

void Merge(const Counters& from, Counters* into) {
  for (const auto& [k, v] : from) (*into)[k] += v;
}

/// One completed query: its cell of the workload's matrix, latency and
/// state (peak operator state plus AIP summary bytes).
struct Sample {
  int cell = 0;
  double latency_ms = 0;
  double state_bytes = 0;
};

/// Everything a run measured. Failed queries count in `failed` and give no
/// sample.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  double wall_s = 0;
  double cpu_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> cells;
  std::vector<Sample> samples;
  Counters counters;
};

/// In-memory span log, written as Chrome trace JSON when the run ends.
/// Spans of one query share its id in args.qid; every span but the query's
/// own root names "query" as the span that caused it. Spans outside any
/// query (Generate, ReplaceTable) carry qid 0 and no parent.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch_)
        .count();
  }

  void Record(const char* name, uint64_t qid, int64_t start_us,
              int64_t end_us) {
    obs::TraceEvent e;
    e.name = name;
    e.phase = 'X';
    e.ts_us = start_us;
    e.dur_us = end_us - start_us;
    e.tid = obs::Trace::ThreadId();
    e.args = "\"qid\":" + std::to_string(qid);
    if (qid != 0 && std::strcmp(name, "query") != 0) {
      e.args += ",\"parent\":\"query\"";
    }
    buffer_.Record(std::move(e));
  }

  bool Write(const std::string& path) const {
    return buffer_.WriteChromeJson(path);
  }

 private:
  const bool on_;
  const Clock::time_point epoch_;
  obs::TraceBuffer buffer_{1 << 16};
};

/// Times one public call while the log is on: records the span and adds
/// its milliseconds to `*acc_ms` (when given).
class Span {
 public:
  Span(SpanLog& log, const char* name, uint64_t qid, double* acc_ms = nullptr)
      : log_(log),
        name_(name),
        qid_(qid),
        acc_ms_(acc_ms),
        start_us_(log.on() ? log.NowMicros() : 0) {}
  ~Span() {
    if (!log_.on()) return;
    const int64_t end_us = log_.NowMicros();
    log_.Record(name_, qid_, start_us_, end_us);
    if (acc_ms_ != nullptr) {
      *acc_ms_ += static_cast<double>(end_us - start_us_) * 1e-3;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  uint64_t qid_;
  double* acc_ms_;
  int64_t start_us_;
};

/// Rolls a per-operator profile up by operator class (the plan builders'
/// operator names) into `c`.
void RollUpProfile(const obs::QueryProfile& profile, Counters* c) {
  static const std::pair<const char*, const char*> kClasses[] = {
      {"scan_", "scan"}, {"filter", "filter"}, {"join", "join"},
      {"agg", "agg"},    {"xsend", "xsend"},   {"xrecv", "xrecv"}};
  for (const obs::OperatorProfile& op : profile.ops) {
    for (const auto& [prefix, cls] : kClasses) {
      if (op.name.rfind(prefix, 0) == 0) {
        (*c)[std::string("self_ms.") + cls] += op.self_seconds * 1e3;
        break;
      }
    }
    if (op.name.rfind("scan_", 0) == 0) {
      (*c)["rows_scanned"] +=
          static_cast<double>(op.rows_out + op.rows_source_pruned);
    }
    (*c)["port_pruned"] += static_cast<double>(op.rows_pruned);
    (*c)["aip_probe_rows"] += static_cast<double>(op.aip_probe_rows);
  }
}

Result<std::shared_ptr<Catalog>> Generate(double sf, bool skewed,
                                          uint64_t seed, SpanLog& log,
                                          Report* report) {
  TpchConfig cfg;
  cfg.scale_factor = sf;
  cfg.skewed = skewed;
  cfg.seed = seed;
  auto catalog = std::make_shared<Catalog>();
  const Clock::time_point t0 = Clock::now();
  {
    Span span(log, "Generate", 0);
    PUSHSIP_RETURN_NOT_OK(TpchGenerator(cfg).Generate(catalog.get()));
  }
  report->generate_s.push_back(SecondsSince(t0));
  return catalog;
}

/// Times `setup` kSetups times into r->setup_s. Workloads call this before
/// and again after the timed phase, so the median spans the whole run.
Status TimeSetups(const std::function<Status()>& setup, Report* r) {
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    PUSHSIP_RETURN_NOT_OK(setup());
    r->setup_s.push_back(SecondsSince(t0));
  }
  return Status::OK();
}

/// The timed phase's clock: wall time, process CPU, and the stop rule
/// (at least `seconds` and at least kMinQueries completed queries).
class TimedPhase {
 public:
  explicit TimedPhase(double seconds)
      : seconds_(seconds), t0_(Clock::now()), cpu0_(CpuSeconds()) {}
  bool Done(int64_t completed) const {
    return completed >= kMinQueries && SecondsSince(t0_) >= seconds_;
  }
  void Finish(Report* r) const {
    r->wall_s = SecondsSince(t0_);
    r->cpu_s = CpuSeconds() - cpu0_;
  }

 private:
  const double seconds_;
  const Clock::time_point t0_;
  const double cpu0_;
};

// ---------------------------------------------------------------------------
// paper_suite: Table I's local queries under every applicable strategy,
// each on the catalog the paper runs it on; one client, serial.
// ---------------------------------------------------------------------------

struct PaperCell {
  QueryId query;
  Strategy strategy;
  bool skewed;
};

std::vector<PaperCell> PaperMatrix() {
  std::vector<PaperCell> cells;
  for (QueryId q : AllQueryIds()) {
    if (q == QueryId::kQ1C || q == QueryId::kQ3C) continue;  // remote
    for (Strategy s : {Strategy::kBaseline, Strategy::kMagic,
                       Strategy::kFeedForward, Strategy::kCostBased}) {
      if (s == Strategy::kMagic && !QuerySupportsMagic(q)) continue;
      cells.push_back({q, s, QueryWantsSkewedData(q)});
    }
  }
  return cells;
}

struct PaperOutcome {
  Status status;
  uint64_t hash = 0;
  double state_bytes = 0;
};

/// The steps RunExperiment composes, each under its own span.
PaperOutcome RunPaperCell(const PaperCell& cell,
                          const std::shared_ptr<Catalog>& catalog,
                          uint64_t qid, SpanLog& log, Counters* c) {
  PaperOutcome out;
  ExecContext ctx;
  ctx.set_profiling(log.on());
  PlanBuilder builder(&ctx, catalog);
  QueryKnobs knobs;
  knobs.magic = cell.strategy == Strategy::kMagic;
  {
    Span span(log, "BuildQuery", qid, &(*c)["plan_build_ms"]);
    out.status = BuildQuery(cell.query, &builder, knobs);
  }
  if (!out.status.ok()) return out;

  AipRegistry registry;
  std::unique_ptr<FeedForwardAip> ff;
  std::unique_ptr<AipManager> manager;
  if (cell.strategy == Strategy::kFeedForward ||
      cell.strategy == Strategy::kCostBased) {
    Span span(log, "Install", qid, &(*c)["install_ms"]);
    if (cell.strategy == Strategy::kFeedForward) {
      ff = std::make_unique<FeedForwardAip>(&ctx, &registry, AipOptions{});
      out.status = ff->Install(builder.sip_info());
    } else {
      manager = std::make_unique<AipManager>(&ctx);
      out.status = manager->Install(builder.sip_info());
    }
    if (log.on()) (*c)["aip_queries"] += 1;
  }
  if (!out.status.ok()) return out;

  Result<QueryStats> stats = [&] {
    Span span(log, "Run", qid, &(*c)["run_ms"]);
    return builder.Run();
  }();
  if (!stats.ok()) {
    out.status = stats.status();
    return out;
  }
  out.hash = HashRows(builder.sink()->TakeRows());
  int64_t set_bytes = 0;
  if (ff) set_bytes = registry.sets_bytes();
  if (manager) set_bytes = manager->sets_bytes();
  out.state_bytes = static_cast<double>(stats->peak_state_bytes + set_bytes);

  if (log.on()) {
    (*c)["rows_pruned"] +=
        static_cast<double>(stats->rows_pruned + stats->rows_source_pruned);
    (*c)["filters_attached"] += static_cast<double>(
        ff ? registry.filters_attached()
           : manager ? manager->filters_attached() : 0);
    (*c)["set_bytes"] += static_cast<double>(set_bytes);
    (*c)["stall_ms"] += stats->stall_seconds * 1e3;
    RollUpProfile(
        CollectQueryProfile(ctx, stats->elapsed_sec, stats->result_rows), c);
  }
  return out;
}

Status RunPaperSuite(const Options& opt, SpanLog& log, Report* r) {
  std::shared_ptr<Catalog> catalogs[2];
  const auto setup = [&]() -> Status {
    for (bool skewed : {false, true}) {
      PUSHSIP_ASSIGN_OR_RETURN(catalogs[skewed ? 1 : 0],
                               Generate(kPaperSf, skewed, opt.seed, log, r));
    }
    return Status::OK();
  };
  PUSHSIP_RETURN_NOT_OK(TimeSetups(setup, r));

  const std::vector<PaperCell> matrix = PaperMatrix();
  for (const PaperCell& cell : matrix) {
    r->cells.push_back(std::string(QueryName(cell.query)) + "/" +
                       StrategyName(cell.strategy));
  }
  // Each query's answer under the baseline strategy, computed untimed; it
  // also warms the allocator before timing starts.
  std::map<QueryId, uint64_t> reference;
  Counters untimed;
  SpanLog off(false);
  for (const PaperCell& cell : matrix) {
    if (cell.strategy != Strategy::kBaseline) continue;
    PaperOutcome o = RunPaperCell(cell, catalogs[cell.skewed ? 1 : 0], 0,
                                  off, &untimed);
    PUSHSIP_RETURN_NOT_OK(o.status);
    reference[cell.query] = o.hash;
  }

  // Whole passes over the matrix only, so every run weighs the cells alike.
  TimedPhase phase(opt.seconds);
  uint64_t qid = 0;
  int64_t completed = 0;
  while (!phase.Done(completed)) {
    for (size_t i = 0; i < matrix.size(); ++i) {
      const PaperCell& cell = matrix[i];
      ++qid;
      ++r->attempted;
      const Clock::time_point t0 = Clock::now();
      PaperOutcome o;
      {
        Span span(log, "query", qid);
        o = RunPaperCell(cell, catalogs[cell.skewed ? 1 : 0], qid, log,
                         &r->counters);
      }
      const double ms = SecondsSince(t0) * 1e3;
      if (!o.status.ok() || o.hash != reference[cell.query]) {
        ++r->failed;
        std::fprintf(stderr, "paper_suite: %s %s\n", r->cells[i].c_str(),
                     o.status.ok() ? "wrong answer"
                                   : o.status.ToString().c_str());
        continue;
      }
      ++completed;
      r->samples.push_back({static_cast<int>(i), ms, o.state_bytes});
    }
  }
  phase.Finish(r);
  return TimeSetups(setup, r);
}

// ---------------------------------------------------------------------------
// serve_rw: 4 closed-loop clients against a 4-worker QueryServer; Zipf
// p_size bounds make the AIP cache hit and miss, and periodic
// ReplaceTable("part") writes invalidate it.
// ---------------------------------------------------------------------------

constexpr int kServeBounds = 40;  // p_size < 11 .. p_size < 50
constexpr double kServeZipfZ = 1.0;
constexpr int kWriteEveryMin = 75;
constexpr int kWriteEveryMax = 125;

ServeQuery PartJoin(int64_t upper) {
  ServeQuery q;
  q.probe_table = "lineitem";
  q.probe_key = "l_partkey";
  q.build_table = "part";
  q.build_key = "p_partkey";
  q.build_filter_col = "p_size";
  q.build_filter_upper = upper;
  q.build_selectivity = static_cast<double>(upper) / 50.0;
  q.probe_agg_col = "l_quantity";
  return q;
}

/// The second version of "part": same keys, p_size' = 51 - p_size, so a
/// stale summary would prune exactly the wrong keys.
TablePtr FlippedPart(const Table& part) {
  auto fresh = std::make_shared<Table>("part", part.schema());
  const size_t size_col =
      static_cast<size_t>(*part.schema().IndexOf("p_size"));
  fresh->Reserve(part.num_rows());
  for (size_t r = 0; r < part.num_rows(); ++r) {
    Tuple row = part.row(r);
    row.at(size_col) = Value::Int64(51 - row.at(size_col).AsInt64());
    fresh->AppendRow(row);
  }
  fresh->SetPrimaryKey(part.primary_key());
  for (const Table::ForeignKey& fk : part.foreign_keys()) {
    fresh->AddForeignKey(fk.col, fk.ref_table, fk.ref_col);
  }
  fresh->ComputeStats();
  return fresh;
}

/// COUNT(*) and SUM(l_quantity) of lineitem ⋈ part under p_size < upper,
/// for every upper in [0, 52), computed straight from the tables.
struct ServeReference {
  std::vector<int64_t> count, sum;
};

ServeReference ReferenceFor(const Table& part, const Table& lineitem) {
  const int pk = *part.schema().IndexOf("p_partkey");
  const int ps = *part.schema().IndexOf("p_size");
  std::map<int64_t, int64_t> size_of;
  for (size_t r = 0; r < part.num_rows(); ++r) {
    size_of[part.col(pk).GetValue(r).AsInt64()] =
        part.col(ps).GetValue(r).AsInt64();
  }
  const int lk = *lineitem.schema().IndexOf("l_partkey");
  const int lq = *lineitem.schema().IndexOf("l_quantity");
  std::vector<int64_t> count(52, 0), sum(52, 0);
  for (size_t r = 0; r < lineitem.num_rows(); ++r) {
    auto it = size_of.find(lineitem.col(lk).GetValue(r).AsInt64());
    // p_size lies in [1, 50]; a row outside would make the check fail.
    if (it == size_of.end() || it->second < 1 || it->second > 50) continue;
    const size_t s = static_cast<size_t>(it->second);
    count[s] += 1;
    sum[s] += lineitem.col(lq).GetValue(r).AsInt64();
  }
  ServeReference ref{std::vector<int64_t>(52, 0),
                     std::vector<int64_t>(52, 0)};
  for (size_t u = 1; u < 52; ++u) {  // p_size < u
    ref.count[u] = ref.count[u - 1] + count[u - 1];
    ref.sum[u] = ref.sum[u - 1] + sum[u - 1];
  }
  return ref;
}

bool MatchesServe(const std::vector<Tuple>& rows, const ServeReference& ref,
                  int64_t upper) {
  if (rows.size() != 1 || rows[0].size() < 2) return false;
  const Value& count = rows[0].at(0);
  const Value& sum = rows[0].at(1);
  const size_t u = static_cast<size_t>(upper);
  if (count.is_null() || count.AsInt64() != ref.count[u]) return false;
  if (ref.count[u] == 0) return sum.is_null() || sum.AsDouble() == 0;
  return !sum.is_null() &&
         std::abs(sum.AsDouble() - static_cast<double>(ref.sum[u])) < 0.5;
}

Status RunServeRw(const Options& opt, SpanLog& log, Report* r) {
  std::shared_ptr<Catalog> catalog;
  TablePtr versions[2];
  std::unique_ptr<QueryServer> server;
  ServeOptions so;
  so.worker_threads = kServeClients;
  const auto setup = [&]() -> Status {
    server.reset();
    PUSHSIP_ASSIGN_OR_RETURN(catalog,
                             Generate(kServeSf, false, opt.seed, log, r));
    versions[0] = *catalog->GetTable("part");
    versions[1] = FlippedPart(*versions[0]);
    server = std::make_unique<QueryServer>(catalog, so);
    return Status::OK();
  };
  PUSHSIP_RETURN_NOT_OK(TimeSetups(setup, r));
  const TablePtr lineitem = *catalog->GetTable("lineitem");
  const ServeReference refs[2] = {ReferenceFor(*versions[0], *lineitem),
                                  ReferenceFor(*versions[1], *lineitem)};

  // The write schedule: query counts at which the next client to start a
  // query first swaps "part" to its other version.
  Random schedule_rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<int64_t> write_at;
  for (int64_t at = 0; at < 1000000;) {
    at += schedule_rng.UniformInt(kWriteEveryMin, kWriteEveryMax);
    write_at.push_back(at);
  }
  // One cell: the Zipf stream is the workload, not a matrix of its bounds
  // (rare bounds would give cells of one or two samples).
  r->cells.push_back("PartJoin");

  const ZipfDistribution zipf(kServeBounds, kServeZipfZ);
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> completed{0};
  std::mutex write_mu;
  size_t next_write = 0;
  int version = 0;
  Status write_status;  // first failed write, guarded by write_mu
  std::mutex report_mu;

  TimedPhase phase(opt.seconds);
  auto client = [&](int id) {
    Random rng(opt.seed * 1000003ULL + static_cast<uint64_t>(id));
    Counters c;
    std::vector<Sample> samples;
    int64_t attempted = 0, failed = 0;
    while (!phase.Done(completed.load())) {
      const int64_t n = issued.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(write_mu);
        if (next_write < write_at.size() && n >= write_at[next_write]) {
          ++next_write;
          version ^= 1;
          Span span(log, "ReplaceTable", 0, &c["write_ms"]);
          const Status st = server->ReplaceTable(versions[version]);
          c["writes"] += 1;
          if (!st.ok() && write_status.ok()) write_status = st;
        }
      }
      const int bound = static_cast<int>(zipf.Sample(rng)) - 1;
      const int64_t upper = 11 + bound;
      const uint64_t qid = static_cast<uint64_t>(n) + 1;
      ++attempted;
      const Clock::time_point t0 = Clock::now();
      Result<SessionResult> res = [&]() -> Result<SessionResult> {
        Span span(log, "query", qid);
        Result<QueryServer::SessionId> sid = [&] {
          Span submit(log, "Submit", qid);
          const Clock::time_point s0 = Clock::now();
          Result<QueryServer::SessionId> id = server->Submit(PartJoin(upper));
          if (log.on()) c["submit_us"] += SecondsSince(s0) * 1e6;
          return id;
        }();
        if (!sid.ok()) return sid.status();
        Span wait(log, "Wait", qid);
        return server->Wait(*sid);
      }();
      const double ms = SecondsSince(t0) * 1e3;
      if (!res.ok() || (!MatchesServe(res->rows, refs[0], upper) &&
                        !MatchesServe(res->rows, refs[1], upper))) {
        ++failed;
        std::fprintf(stderr, "serve_rw: p_size<%lld %s\n",
                     static_cast<long long>(upper),
                     res.ok() ? "wrong answer"
                              : res.status().ToString().c_str());
        continue;
      }
      completed.fetch_add(1);
      samples.push_back(
          {0, ms, static_cast<double>(res->stats.peak_state_bytes)});
      if (log.on()) {
        c["run_ms"] += res->stats.elapsed_sec * 1e3;
        c["queue_wait_ms"] += ms - res->stats.elapsed_sec * 1e3;
        c["summary_entries"] += static_cast<double>(res->summary_entries);
        c["rows_pruned"] += static_cast<double>(res->stats.rows_pruned +
                                                res->stats.rows_source_pruned);
        c["stall_ms"] += res->stats.stall_seconds * 1e3;
      }
    }
    std::lock_guard<std::mutex> lock(report_mu);
    r->attempted += attempted;
    r->failed += failed;
    r->samples.insert(r->samples.end(), samples.begin(), samples.end());
    Merge(c, &r->counters);
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kServeClients; ++i) clients.emplace_back(client, i);
  for (std::thread& t : clients) t.join();
  phase.Finish(r);
  PUSHSIP_RETURN_NOT_OK(write_status);

  if (log.on()) {
    const AipCacheStats cs = server->cache_stats();
    r->counters["cache_hits"] = static_cast<double>(cs.hits);
    r->counters["cache_misses"] = static_cast<double>(cs.misses);
    r->counters["cache_invalidations"] = static_cast<double>(cs.invalidations);
  }
  return TimeSetups(setup, r);
}

// ---------------------------------------------------------------------------
// dist_q17*: TPC-H Q17 on 4 sim-mesh sites with cost-based AIP. The
// checkpoint variant cuts the compute fragments' state every few frames;
// the recover variant also kills one compute fragment per query and
// resumes it from its last checkpoint.
// ---------------------------------------------------------------------------

enum class DistMode { kClean, kCheckpoint, kRecover };

constexpr int64_t kCheckpointEveryFrames = 4;
constexpr int64_t kKillAfterMin = 6;
constexpr int64_t kKillAfterMax = 12;

/// Q17's answer under ScaleOutOptions::weak_part_filter (SUM(l_extendedprice)
/// / 7 over MED CAN parts whose line quantity is below 0.2 x the part's
/// average), computed straight from the tables. NaN when no line qualifies.
double Q17Reference(const Catalog& catalog) {
  const TablePtr part = *catalog.GetTable("part");
  const TablePtr li = *catalog.GetTable("lineitem");
  const int pk = *part->schema().IndexOf("p_partkey");
  const int container = *part->schema().IndexOf("p_container");
  std::map<int64_t, std::pair<double, int64_t>> qty;  // partkey -> sum, n
  for (size_t r = 0; r < part->num_rows(); ++r) {
    if (part->col(container).GetValue(r).AsString() == "MED CAN") {
      qty[part->col(pk).GetValue(r).AsInt64()] = {0.0, 0};
    }
  }
  const int lk = *li->schema().IndexOf("l_partkey");
  const int lq = *li->schema().IndexOf("l_quantity");
  const int lp = *li->schema().IndexOf("l_extendedprice");
  for (size_t r = 0; r < li->num_rows(); ++r) {
    auto it = qty.find(li->col(lk).GetValue(r).AsInt64());
    if (it == qty.end()) continue;
    it->second.first += li->col(lq).GetValue(r).AsDouble();
    it->second.second += 1;
  }
  double revenue = 0;
  bool any = false;
  for (size_t r = 0; r < li->num_rows(); ++r) {
    auto it = qty.find(li->col(lk).GetValue(r).AsInt64());
    if (it == qty.end()) continue;
    const double avg =
        it->second.first / static_cast<double>(it->second.second);
    if (li->col(lq).GetValue(r).AsDouble() < 0.2 * avg) {
      revenue += li->col(lp).GetValue(r).AsDouble();
      any = true;
    }
  }
  return any ? revenue / 7.0 : std::nan("");
}

bool MatchesQ17(const std::vector<Tuple>& rows, double want) {
  const bool got_value =
      !rows.empty() && rows[0].size() > 0 && !rows[0].at(0).is_null();
  if (std::isnan(want)) return !got_value;
  if (!got_value || rows.size() != 1) return false;
  const double got = rows[0].at(0).AsDouble();
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-6;
}

/// Frames every exchange sender of the query transmitted.
int64_t FramesSent(const DistributedQuery& q) {
  int64_t frames = 0;
  for (const auto& site : q.sites) {
    for (const auto& fragment : site->fragments()) {
      for (const auto& op : fragment->operators()) {
        if (const auto* s = dynamic_cast<const ExchangeSender*>(op.get())) {
          frames += s->batches_sent();
        }
      }
    }
  }
  return frames;
}

Status RunDistQ17(const Options& opt, DistMode mode, SpanLog& log,
                  Report* r) {
  const bool recover = mode == DistMode::kRecover;
  std::shared_ptr<Catalog> catalog;
  const auto setup = [&]() -> Status {
    PUSHSIP_ASSIGN_OR_RETURN(catalog,
                             Generate(kDistSf, false, opt.seed, log, r));
    return Status::OK();
  };
  PUSHSIP_RETURN_NOT_OK(TimeSetups(setup, r));
  const double want = Q17Reference(*catalog);
  r->cells.push_back(opt.workload);

  ScaleOutOptions base;
  base.num_sites = kDistSites;
  base.aip = true;
  // MED CAN alone keeps about 1/40 of the parts (100 at sf 0.02) instead of
  // the brand-and-container filter's 1/1000: with 4 qualifying parts, state
  // and shipped bytes would depend mostly on which parts a seed generates.
  base.weak_part_filter = true;
  base.pace_every_rows = 0;
  base.pace_ms = 0;
  if (mode != DistMode::kClean) {
    base.checkpoint_interval_frames = kCheckpointEveryFrames;
  }
  Random kill_rng(opt.seed * 0x2545f4914f6cdd1dULL + 7);

  TimedPhase phase(opt.seconds);
  uint64_t qid = 0;
  int64_t completed = 0;
  while (!phase.Done(completed)) {
    ScaleOutOptions so = base;
    if (recover) {
      so.stateful_kill_site =
          static_cast<int>(kill_rng.UniformInt(0, kDistSites - 1));
      so.stateful_kill_after_frames =
          kill_rng.UniformInt(kKillAfterMin, kKillAfterMax);
      so.stateful_kill_aggregate = true;
    }
    ++qid;
    ++r->attempted;
    Counters& c = r->counters;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<DistributedQuery> query;
    std::vector<Tuple> rows;
    Result<DistQueryStats> stats = [&]() -> Result<DistQueryStats> {
      Span span(log, "query", qid);
      Result<std::unique_ptr<DistributedQuery>> built = [&] {
        Span build(log, "BuildScaleOutQuery", qid, &c["build_ms"]);
        return BuildScaleOutQuery(ScaleOutQuery::kQ17, catalog, so);
      }();
      if (!built.ok()) return built.status();
      query = std::move(*built);
      for (auto& site : query->sites) site->context().set_profiling(log.on());
      Span run(log, "Run", qid, &c["dist_run_ms"]);
      PUSHSIP_ASSIGN_OR_RETURN(DistQueryStats s, query->Run());
      rows = query->root_sink->TakeRows();
      return s;
    }();
    const double ms = SecondsSince(t0) * 1e3;
    const char* problem = nullptr;
    if (!stats.ok()) {
      problem = "query failed";
    } else if (!MatchesQ17(rows, want)) {
      problem = "wrong answer";
    } else if (recover && stats->state_recoveries != 1) {
      problem = "did not recover exactly once from a checkpoint";
    }
    if (problem != nullptr) {
      ++r->failed;
      std::fprintf(stderr,
                   "%s query %llu: %s (%s; want %.6f; kill site %d after "
                   "%lld frames)\n",
                   opt.workload.c_str(), static_cast<unsigned long long>(qid),
                   problem,
                   !stats.ok() ? stats.status().ToString().c_str()
                   : rows.empty() ? "no rows"
                                  : rows[0].at(0).ToString().c_str(),
                   want, so.stateful_kill_site,
                   static_cast<long long>(so.stateful_kill_after_frames));
      continue;
    }
    ++completed;
    r->samples.push_back(
        {0, ms, static_cast<double>(stats->peak_state_bytes)});
    if (log.on()) {
      const DistQueryStats& s = *stats;
      c["frames_sent"] += static_cast<double>(FramesSent(*query));
      c["payload_bytes"] += static_cast<double>(s.payload_bytes);
      c["dist_stall_ms"] += s.stall_seconds * 1e3;
      c["rows_pruned"] +=
          static_cast<double>(s.rows_pruned + s.rows_source_pruned);
      c["rows_source_pruned"] += static_cast<double>(s.rows_source_pruned);
      c["filters_attached"] += static_cast<double>(s.aip_filters);
      c["bytes_shipped"] += static_cast<double>(s.bytes_shipped);
      c["link_ms"] += s.link_seconds * 1e3;
      c["checkpoints"] += static_cast<double>(s.checkpoints_taken);
      c["checkpoint_bytes"] += static_cast<double>(s.checkpoint_bytes);
      c["state_recoveries"] += static_cast<double>(s.state_recoveries);
      c["restore_ms"] += s.restore_seconds * 1e3;
      RollUpProfile(CollectDistProfile(*query, s), &c);
    }
  }
  phase.Finish(r);
  return TimeSetups(setup, r);
}

// ---------------------------------------------------------------------------

void PrintNumbers(const char* key, const std::vector<double>& xs) {
  std::printf("\"%s\":[", key);
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", xs[i]);
  }
  std::printf("]");
}

void PrintReport(const Options& opt, const Report& r, bool traced) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              traced ? "true" : "false");
  PrintNumbers("setup_s", r.setup_s);
  std::printf(",");
  PrintNumbers("generate_s", r.generate_s);
  std::printf(",\"wall_s\":%.9g,\"cpu_s\":%.9g,\"attempted\":%lld,"
              "\"failed\":%lld,\"cells\":[",
              r.wall_s, r.cpu_s, static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.cells.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", r.cells[i].c_str());
  }
  std::printf("],\"samples\":[");
  for (size_t i = 0; i < r.samples.size(); ++i) {
    const Sample& s = r.samples[i];
    std::printf("%s[%d,%.9g,%.9g]", i ? "," : "", s.cell, s.latency_ms,
                s.state_bytes);
  }
  std::printf("],\"counters\":{");
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: every flag takes one value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  SpanLog log(!opt.trace_out.empty());
  Report report;
  Status st;
  if (opt.workload == "paper_suite") {
    st = RunPaperSuite(opt, log, &report);
  } else if (opt.workload == "serve_rw") {
    st = RunServeRw(opt, log, &report);
  } else if (opt.workload == "dist_q17") {
    st = RunDistQ17(opt, DistMode::kClean, log, &report);
  } else if (opt.workload == "dist_q17_checkpoint") {
    st = RunDistQ17(opt, DistMode::kCheckpoint, log, &report);
  } else if (opt.workload == "dist_q17_recover") {
    st = RunDistQ17(opt, DistMode::kRecover, log, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  if (log.on() && !log.Write(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.trace_out.c_str());
    return 1;
  }
  PrintReport(opt, report, log.on());
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace pushsip

int main(int argc, char** argv) { return pushsip::perf::Main(argc, argv); }
