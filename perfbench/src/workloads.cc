// Workload definitions, database set-up and the measured run: the clients
// talk to an in-process SqlServer over loopback TCP, exactly as remote
// callers would, and every reply is checked against the benchmark's oracle
// after the timed phase.
#include <sys/stat.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/adaptive_replication.h"
#include "core/adaptive_segmentation.h"
#include "core/apm.h"
#include "core/deferred_segmentation.h"
#include "persist/bootstrap.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "workload/skyserver.h"

namespace perfbench {

using namespace socs;

ValueRange Domain() {
  return ValueRange(110.0, std::nextafter(260.0, 1e9));
}

bool LookupWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec s;
  s.name = name;
  if (name == "sky_stream") {
    s.rows = 1'000'000;
    s.tables = {{"PSEG", StrategyKind::kAdaptiveSegmentation},
                {"PREP", StrategyKind::kAdaptiveReplication}};
    s.clients = 1;
    s.stream_block = 200;  // the paper's stream length
    s.min_selects = 2000;  // 1000 queries, each sent to both tables
    s.probe_every = 25;
  } else if (name == "hot_pipelined") {
    s.rows = 4'000'000;
    s.tables = {{"P", StrategyKind::kDeferred}};
    s.clients = 4;
    s.depth = 8;
    s.stream_block = 400;
  } else if (name == "ingest_durable") {
    s.rows = 1'000'000;
    s.tables = {{"P", StrategyKind::kAdaptiveSegmentation}};
    s.clients = 4;
    s.compression = true;
    s.durable = true;
    s.checkpoint_every = 256;
    s.stream_block = 400;
    s.selects_per_insert = 4;
    s.insert_rows = 16;
  } else {
    return false;
  }
  *out = s;
  return true;
}

// --- streams -------------------------------------------------------------------

namespace {

std::string FormatSelect(Stmt::Kind kind, const std::string& table, double lo,
                         double hi) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "select %s from %s where ra between %.17g and %.17g",
                kind == Stmt::Kind::kObjids ? "objid" : "count(*)", table.c_str(),
                lo, hi);
  return buf;
}

Stmt SelectOf(Stmt::Kind kind, size_t table, const std::string& table_name,
              const ValueRange& q) {
  Stmt s;
  s.kind = kind;
  s.table = table;
  // The generators hand out half-open [lo, hi); BETWEEN is inclusive.
  s.lo = q.lo;
  s.hi = std::nextafter(q.hi, q.lo);
  s.text = FormatSelect(kind, table_name, s.lo, s.hi);
  return s;
}

}  // namespace

Streams::Streams(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), cache_(spec.clients) {}

const Workload& Streams::Block(size_t client, uint64_t block) {
  Cache& c = cache_[client];
  if (c.block == block) return c.queries;
  SkyServerConfig cfg;
  cfg.num_objects = spec_.rows;
  cfg.seed = Mix64(seed_ * 0x100000001b3ULL + client * 0x9e37ULL + block);
  const size_t n = spec_.stream_block;
  if (spec_.name == "sky_stream") {
    // The paper's three streams in turn: random, skew, changing, ...
    switch (block % 3) {
      case 0: c.queries = MakeRandomWorkload(cfg, n); break;
      case 1: c.queries = MakeSkewedWorkload(cfg, n); break;
      default: c.queries = MakeChangingWorkload(cfg, n); break;
    }
  } else if (spec_.name == "hot_pipelined") {
    c.queries = MakeSkewedWorkload(cfg, n);
  } else {
    c.queries = MakeRandomWorkload(cfg, n);
  }
  c.block = block;
  return c.queries;
}

std::vector<Stmt> Streams::Round(size_t client, uint64_t round) {
  std::vector<Stmt> out;
  const size_t n = spec_.stream_block;
  if (spec_.probe_every != 0) {
    // probe_every queries, each sent to every table in turn, then the probe.
    for (size_t k = 0; k < spec_.probe_every; ++k) {
      const uint64_t i = round * spec_.probe_every + k;
      const ValueRange q = Block(client, i / n)[i % n].range;
      for (size_t t = 0; t < spec_.tables.size(); ++t) {
        out.push_back(SelectOf(Stmt::Kind::kObjids, t, spec_.tables[t].name, q));
      }
    }
    Stmt probe = SelectOf(Stmt::Kind::kObjids, 0, kProbeTable,
                          ValueRange(Domain().lo, Domain().hi));
    probe.kind = Stmt::Kind::kProbe;
    out.push_back(std::move(probe));
    return out;
  }
  if (spec_.selects_per_insert == 0) {
    // One query per round.
    const ValueRange q = Block(client, round / n)[round % n].range;
    out.push_back(SelectOf(Stmt::Kind::kCount, 0, spec_.tables[0].name, q));
    return out;
  }
  for (size_t k = 0; k < spec_.selects_per_insert; ++k) {
    const uint64_t i = round * spec_.selects_per_insert + k;
    out.push_back(SelectOf(Stmt::Kind::kCount, 0, spec_.tables[0].name,
                           Block(client, i / n)[i % n].range));
  }
  Stmt ins;
  ins.kind = Stmt::Kind::kInsert;
  Rng rng(Mix64(seed_ ^ (client * 0x51ed27ULL) ^ (round << 20)));
  ins.text = "insert into " + spec_.tables[0].name + " (ra, objid) values ";
  for (size_t j = 0; j < spec_.insert_rows; ++j) {
    const double ra = rng.NextUniform(110.0, 260.0);
    // New objects: an objid range the loaded rows never use, below 2^53
    // (see ProbeRows).
    const int64_t objid = 2'000'000'000'000'000LL +
                          static_cast<int64_t>(client << 40) +
                          static_cast<int64_t>(round * spec_.insert_rows + j);
    ins.rows.push_back({ra, objid});
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s(%.17g, %" PRId64 ")", j ? ", " : "", ra,
                  objid);
    ins.text += buf;
  }
  out.push_back(std::move(ins));
  return out;
}

// --- data and database ---------------------------------------------------------

int64_t ObjidOf(uint64_t oid) {
  // A bijection of the row id (odd multiplier mod 2^32), kept below 2^53:
  // larger identifiers come back rounded (the probe table shows that).
  return 1'000'000'000'000'000LL +
         static_cast<int64_t>((oid * 2654435761ULL) & 0xffffffffULL);
}

const std::vector<std::pair<double, int64_t>>& ProbeRows() {
  static const std::vector<std::pair<double, int64_t>> rows = {
      {150.5, 587'722'981'742'084'097LL},
      {180.25, 587'722'981'742'084'099LL},
      {200.125, 1'237'645'876'861'272'165LL},
      {230.0, 1'237'645'876'861'272'167LL},
  };
  return rows;
}

bool ProbeReplyCorrect(const std::vector<std::string>& rows) {
  std::vector<int64_t> got, want;
  for (const std::string& r : rows) got.push_back(std::strtoll(r.c_str(), nullptr, 10));
  for (const auto& r : ProbeRows()) want.push_back(r.second);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

Dataset MakeDataset(const WorkloadSpec& spec) {
  // One fixed sample, like the paper's single SDSS extract; the seed varies
  // the query streams and the inserted objects.
  SkyServerConfig cfg;
  cfg.num_objects = spec.rows;
  Dataset d;
  d.ra = MakeRaColumn(cfg);
  d.objid.resize(d.ra.size());
  std::vector<std::pair<double, int64_t>> rows(d.ra.size());
  for (size_t i = 0; i < d.ra.size(); ++i) {
    d.objid[i] = ObjidOf(i);
    rows[i] = {d.ra[i], d.objid[i]};
  }
  d.oracle = Oracle(std::move(rows));
  return d;
}

Database::~Database() {
  if (sched) sched->DrainBackground();
  if (space) space->set_durability(nullptr);
  catalog.reset();
  space.reset();
  store.reset();
  sched.reset();
}

namespace {

constexpr size_t kExecThreads = 4;

SegmentSpace::Options SpaceOptions(const WorkloadSpec& spec) {
  SegmentSpace::Options o;
  o.compression = spec.compression;
  return o;
}

}  // namespace

std::unique_ptr<AccessStrategy<OidValue>> MakeStrategy(StrategyKind kind,
                                                       const std::vector<float>& ra,
                                                       SegmentSpace* space) {
  std::vector<OidValue> pairs(ra.size());
  for (size_t i = 0; i < ra.size(); ++i) pairs[i] = {i, ra[i]};
  // APM bounds of the paper's "APM 1-5" setting (1 MB / 5 MB of a 180 MB
  // column), scaled to this column's bytes.
  const uint64_t bytes = pairs.size() * sizeof(OidValue);
  auto apm = std::make_unique<Apm>(bytes / 180 + 1, bytes / 36 + 1);
  switch (kind) {
    case StrategyKind::kAdaptiveSegmentation:
      return std::make_unique<AdaptiveSegmentation<OidValue>>(
          std::move(pairs), Domain(), std::move(apm), space);
    case StrategyKind::kAdaptiveReplication:
      return std::make_unique<AdaptiveReplication<OidValue>>(
          std::move(pairs), Domain(), std::move(apm), space);
    case StrategyKind::kDeferred:
      return std::make_unique<DeferredSegmentation<OidValue>>(
          std::move(pairs), Domain(), std::move(apm), space);
  }
  return nullptr;
}

namespace {

StatusOr<std::unique_ptr<persist::PersistentStore>> OpenStore(const std::string& dir) {
  persist::PersistentStore::Options o;
  o.dir = dir;
  return persist::PersistentStore::Open(std::move(o));
}

std::vector<std::string> AdminRows(Catalog* catalog, const std::string& cmd) {
  server::Session session(catalog, nullptr);
  return session.Execute(cmd).rows;
}

}  // namespace

std::string LayoutText(Catalog* catalog) {
  std::string out;
  for (const std::string& r : AdminRows(catalog, "#layout")) out += r + "\n";
  return out;
}

std::string RecoverDatabase(const WorkloadSpec& spec, const std::string& data_dir,
                            Database* db) {
  db->recover_begin = Clock::now();
  if (!db->sched) db->sched = std::make_unique<TaskScheduler>(kExecThreads);
  auto store = OpenStore(data_dir);
  if (!store.ok()) return "reopen " + data_dir + ": " + store.status().ToString();
  db->store = std::move(*store);
  db->space = std::make_unique<SegmentSpace>(CostParams{}, 0, SpaceOptions(spec));
  db->space->set_durability(db->store.get());
  db->catalog = std::make_unique<Catalog>();
  auto report = persist::RestoreDatabase(db->store.get(), db->space.get(),
                                         db->catalog.get());
  if (!report.ok()) return "restore: " + report.status().ToString();
  db->data_dir = data_dir;
  db->recover_end = Clock::now();
  return "";
}

std::string BuildDatabase(const WorkloadSpec& spec, const Dataset& data,
                          const std::string& data_dir, Database* db) {
  db->sched = std::make_unique<TaskScheduler>(kExecThreads);
  db->space = std::make_unique<SegmentSpace>(CostParams{}, 0, SpaceOptions(spec));
  if (spec.durable) {
    std::filesystem::remove_all(data_dir);
    std::filesystem::create_directories(data_dir);
    auto store = OpenStore(data_dir);
    if (!store.ok()) return "open " + data_dir + ": " + store.status().ToString();
    db->store = std::move(*store);
    db->space->set_durability(db->store.get());
    db->data_dir = data_dir;
  }
  db->catalog = std::make_unique<Catalog>();
  for (const TableSpec& t : spec.tables) {
    auto col = std::make_unique<SegmentedColumn>(
        Catalog::SegHandle(t.name, "ra"), ValType::kDbl,
        MakeStrategy(t.kind, data.ra, db->space.get()), db->space.get());
    Status st = db->catalog->AddSegmentedColumn(t.name, "ra", std::move(col));
    if (st.ok()) st = db->catalog->AddColumn(t.name, "objid", TypedVector::Of(data.objid));
    if (!st.ok()) return "load " + t.name + ": " + st.ToString();
  }
  if (spec.probe_every != 0) {
    std::vector<float> ra;
    std::vector<int64_t> objid;
    for (const auto& [r, o] : ProbeRows()) {
      ra.push_back(static_cast<float>(r));
      objid.push_back(o);
    }
    auto col = std::make_unique<SegmentedColumn>(
        Catalog::SegHandle(kProbeTable, "ra"), ValType::kDbl,
        MakeStrategy(StrategyKind::kAdaptiveSegmentation, ra, db->space.get()),
        db->space.get());
    Status st = db->catalog->AddSegmentedColumn(kProbeTable, "ra", std::move(col));
    if (st.ok()) st = db->catalog->AddColumn(kProbeTable, "objid", TypedVector::Of(objid));
    if (!st.ok()) return std::string("load probe table: ") + st.ToString();
  }
  if (!spec.durable) return "";

  // First checkpoint, then a restart that recovers from the directory.
  auto gen = persist::CheckpointNow(db->store.get(), *db->catalog);
  if (!gen.ok()) return "first checkpoint: " + gen.status().ToString();
  const std::string before = LayoutText(db->catalog.get());
  db->sched->DrainBackground();
  db->space->set_durability(nullptr);
  db->catalog.reset();
  db->space.reset();
  db->store.reset();
  if (std::string err = RecoverDatabase(spec, data_dir, db); !err.empty()) return err;
  if (LayoutText(db->catalog.get()) != before) {
    return "restart changed #layout";
  }
  return "";
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    struct stat st;
    if (::lstat(it->path().c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;  // what du counts
    }
  }
  return total;
}

// --- checks ----------------------------------------------------------------------

std::vector<LayoutSegment> ParseLayout(const std::vector<std::string>& rows,
                                       const std::string& column) {
  std::vector<LayoutSegment> out;
  for (const std::string& r : rows) {
    char name[128];
    unsigned long long seg, id, count, lo_bits, hi_bits;
    if (std::sscanf(r.c_str(), "%127[^,],%llu,%llu,%llu,%llx,%llx", name, &seg,
                    &id, &count, &lo_bits, &hi_bits) != 6 ||
        column != name) {
      continue;
    }
    LayoutSegment s;
    const uint64_t lo = lo_bits, hi = hi_bits;
    std::memcpy(&s.lo, &lo, sizeof lo);
    std::memcpy(&s.hi, &hi, sizeof hi);
    s.count = count;
    out.push_back(s);
  }
  return out;
}

std::string CheckReplies(const WorkloadSpec& spec, const Dataset& data,
                         const std::vector<ClientLog>& logs) {
  std::vector<InsertedRow> inserted;
  for (const ClientLog& l : logs) {
    inserted.insert(inserted.end(), l.inserted.begin(), l.inserted.end());
  }
  std::sort(inserted.begin(), inserted.end(),
            [](const InsertedRow& a, const InsertedRow& b) { return a.ra < b.ra; });
  char buf[256];
  for (const ClientLog& l : logs) {
    for (size_t i = 0; i < l.selects.size(); ++i) {
      const SelectRecord& s = l.selects[i];
      const uint64_t base = data.oracle.Count(s.lo, s.hi);
      if (s.kind == Stmt::Kind::kObjids) {
        Digest want;
        data.oracle.ForEach(s.lo, s.hi, [&](int64_t v) { want.Add(v); });
        if (!(s.digest == want)) {
          std::snprintf(buf, sizeof(buf),
                        "objids of %s between %.17g and %.17g: %" PRIu64
                        " rows, oracle %" PRIu64,
                        spec.tables[s.table].name.c_str(), s.lo, s.hi, s.count,
                        want.count);
          return buf;
        }
        // Every table holds the same rows: each query's replies must agree.
        if (i > 0 && l.selects[i - 1].lo == s.lo && l.selects[i - 1].hi == s.hi &&
            !(l.selects[i - 1].digest == s.digest)) {
          return "segmented and replicated tables disagree";
        }
        continue;
      }
      const CountWindow w =
          spec.selects_per_insert == 0
              ? CountWindow{base, base}
              : AckWindow(inserted, base, s.lo, s.hi, s.sent, s.replied);
      if (!w.Contains(s.count)) {
        std::snprintf(buf, sizeof(buf),
                      "count between %.17g and %.17g = %" PRIu64
                      ", oracle window [%" PRIu64 ", %" PRIu64 "]",
                      s.lo, s.hi, s.count, w.lo, w.hi);
        return buf;
      }
    }
  }
  return "";
}

namespace {

bool IsTiling(StrategyKind k) { return k != StrategyKind::kAdaptiveReplication; }

std::string FullCountQuery(const std::string& table) {
  return FormatSelect(Stmt::Kind::kCount, table, Domain().lo, Domain().hi);
}

}  // namespace

std::string CheckFinalState(const WorkloadSpec& spec, Catalog* catalog,
                            uint64_t expected_rows, StoreSize* size) {
  const std::vector<std::string> layout = AdminRows(catalog, "#layout");
  const std::vector<std::string> comp = AdminRows(catalog, "#compression");
  const double mb = 1024.0 * 1024.0;
  *size = StoreSize{};
  for (const TableSpec& t : spec.tables) {
    const std::string col = Catalog::SegHandle(t.name, "ra");
    const std::vector<LayoutSegment> segs = ParseLayout(layout, col);
    if (IsTiling(t.kind)) {
      if (std::string err = CheckTiling(segs, Domain().lo, Domain().hi); !err.empty()) {
        return "#layout of " + col + ": " + err;
      }
      uint64_t sum = 0;
      for (const LayoutSegment& s : segs) sum += s.count;
      if (sum != expected_rows) {
        return "#layout counts of " + col + " sum to " + std::to_string(sum) +
               ", expected " + std::to_string(expected_rows);
      }
    }
    bool found = false;
    for (const std::string& r : comp) {
      if (r.rfind(col + ",", 0) != 0) continue;
      found = true;
      unsigned long long logical = 0, physical = 0;
      std::sscanf(r.c_str() + col.size() + 1, "%llu,%llu", &logical, &physical);
      const unsigned long long decode_cache =
          std::strtoull(r.c_str() + r.rfind(',') + 1, nullptr, 10);
      const uint64_t want = expected_rows * sizeof(OidValue);
      // Tiling strategies hold each row once; replication at least once.
      if (IsTiling(t.kind) ? logical != want : logical < want) {
        return "#compression logical bytes of " + col + " = " +
               std::to_string(logical) + ", rows x 16 B = " + std::to_string(want);
      }
      size->physical_mb += static_cast<double>(physical) / mb;
      size->decode_cache_mb += static_cast<double>(decode_cache) / mb;
    }
    if (!found) return "#compression has no row for " + col;
  }
  return "";
}

// --- the measured run -------------------------------------------------------------

namespace {

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Shared {
  std::atomic<uint64_t> ticks{0};
  std::atomic<uint64_t> selects{0};
  Clock::time_point start;
  double seconds = 0.0;
  size_t min_selects = 0;
  bool Done() const {
    return SecondsSince(start) >= seconds && selects.load() >= min_selects;
  }
};

void RunClient(const WorkloadSpec& spec, uint16_t port, size_t c, Streams* streams,
               Shared* shared, ClientLog* log) {
  auto conn = client::Connection::Connect("127.0.0.1", port);
  if (!conn.ok()) {
    log->error = "connect: " + conn.status().ToString();
    return;
  }
  struct Pending {
    Stmt stmt;
    Clock::time_point sent_at;
    uint64_t sent_tick;
  };
  std::deque<Pending> inflight;
  std::vector<Stmt> round;
  size_t pos = 0;
  bool more = true;
  while (true) {
    while (more && inflight.size() < spec.depth) {
      if (pos == round.size()) {
        // Rounds are whole: the stop rule is only consulted between them.
        if (shared->Done()) {
          more = false;
          break;
        }
        round = streams->Round(c, log->rounds++);
        pos = 0;
      }
      Pending p{std::move(round[pos++]), Clock::now(), shared->ticks.fetch_add(1)};
      if (Status st = conn->Send(p.stmt.text); !st.ok()) {
        log->error = "send: " + st.ToString();
        return;
      }
      inflight.push_back(std::move(p));
    }
    if (inflight.empty()) break;
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    auto reply = conn->ReadReply();
    const Clock::time_point done = Clock::now();
    const uint64_t tick = shared->ticks.fetch_add(1);
    ++log->attempted;
    if (!reply.ok()) {
      log->error = "read: " + reply.status().ToString();
      log->failed += 1 + inflight.size();
      log->attempted += inflight.size();
      return;
    }
    if (!reply->ok) {
      ++log->failed;
      if (log->error.empty()) log->error = "ERR " + reply->error;
      continue;
    }
    log->simulated_s += reply->stats.TotalSeconds();
    const Stmt& s = p.stmt;
    if (s.kind == Stmt::Kind::kProbe) {
      if (!ProbeReplyCorrect(reply->rows)) ++log->failed;
      continue;
    }
    if (s.kind == Stmt::Kind::kInsert) {
      for (const auto& [ra, objid] : s.rows) {
        log->inserted.push_back({ra, p.sent_tick, tick});
        log->acked_rows.push_back({ra, objid});
      }
      continue;
    }
    shared->selects.fetch_add(1);
    log->select_ms.push_back(
        std::chrono::duration<double, std::milli>(done - p.sent_at).count());
    SelectRecord rec;
    rec.table = s.table;
    rec.kind = s.kind;
    rec.lo = s.lo;
    rec.hi = s.hi;
    rec.sent = p.sent_tick;
    rec.replied = tick;
    if (s.kind == Stmt::Kind::kObjids) {
      for (const std::string& row : reply->rows) {
        rec.digest.Add(std::strtoll(row.c_str(), nullptr, 10));
      }
      rec.count = reply->rows.size();
    } else {
      rec.count = reply->rows.size() == 1
                      ? std::strtoull(reply->rows[0].c_str(), nullptr, 10)
                      : std::numeric_limits<uint64_t>::max();
    }
    log->selects.push_back(rec);
  }
}

uint64_t SumOverColumns(Catalog* catalog,
                        uint64_t (*get)(AccessStrategy<OidValue>*)) {
  uint64_t total = 0;
  for (SegmentedColumn* col : catalog->SegmentedColumns()) total += get(col->strategy());
  return total;
}

}  // namespace

PhaseResult RunServerPhase(const WorkloadSpec& spec, const Dataset& data,
                           Database* db, uint64_t seed, double seconds,
                           bool traced_counters, Clock::time_point process_start) {
  PhaseResult out;
  Catalog* catalog = db->catalog.get();
  server::SqlServer::Options opts;  // the defaults socs_server ships with
  opts.persist = db->store.get();
  opts.checkpoint_every = spec.checkpoint_every;
  const IoStats io0 = db->space->stats();
  const uint64_t gen0 = db->store ? db->store->stats().generation : 0;
  const auto pins = [](AccessStrategy<OidValue>* s) { return s->epochs().pins(); };
  const auto reclaims = [](AccessStrategy<OidValue>* s) { return s->epochs().reclaims(); };
  const auto backlog = [](AccessStrategy<OidValue>* s) -> uint64_t {
    return s->PendingRetired();
  };
  const uint64_t pins0 = SumOverColumns(catalog, pins);
  const uint64_t reclaims0 = SumOverColumns(catalog, reclaims);

  server::SqlServer srv(catalog, db->sched.get(), opts);
  if (Status st = srv.Start(); !st.ok()) {
    out.error = "server start: " + st.ToString();
    return out;
  }
  Metrics& m = out.metrics;
  m["setup_s"] = SecondsSince(process_start);

  Streams streams(spec, seed);
  Shared shared;
  shared.seconds = seconds;
  shared.min_selects = spec.min_selects;
  std::vector<ClientLog> logs(spec.clients);
  std::atomic<bool> sampling{traced_counters};
  uint64_t peak_backlog = 0;
  std::thread sampler;
  shared.start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < spec.clients; ++c) {
    clients.emplace_back(RunClient, std::cref(spec), srv.port(), c, &streams,
                         &shared, &logs[c]);
  }
  if (traced_counters) {
    sampler = std::thread([&] {
      while (sampling.load()) {
        peak_backlog = std::max(peak_backlog, SumOverColumns(catalog, backlog));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall = SecondsSince(shared.start);
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  peak_backlog = std::max(peak_backlog, SumOverColumns(catalog, backlog));

  // Full-domain counts while the server still serves.
  uint64_t expected_rows = data.ra.size();
  for (const ClientLog& l : logs) expected_rows += l.acked_rows.size();
  std::string final_err;
  {
    auto conn = client::Connection::Connect("127.0.0.1", srv.port());
    for (const TableSpec& t : spec.tables) {
      auto r = conn.ok() ? conn->Execute(FullCountQuery(t.name))
                         : StatusOr<client::WireReply>(conn.status());
      if (!r.ok() || !r->ok || r->rows.size() != 1 ||
          std::strtoull(r->rows[0].c_str(), nullptr, 10) != expected_rows) {
        final_err = "full-domain count of " + t.name + " is not " +
                    std::to_string(expected_rows);
        break;
      }
    }
  }
  srv.Stop();
  m["rss_peak_mb"] = VmHwmMb();
  const server::SqlServer::MaintenanceLedger ledger = srv.Ledger();

  std::vector<double> lat;
  double simulated = 0.0;
  for (ClientLog& l : logs) {
    out.attempted += l.attempted;
    out.failed += l.failed;
    out.rounds.push_back(l.rounds);
    lat.insert(lat.end(), l.select_ms.begin(), l.select_ms.end());
    simulated += l.simulated_s;
    if (out.error.empty() && !l.error.empty()) out.error = "client: " + l.error;
  }
  if (out.error.empty() && HighestSupportedPercentile(lat.size()) < 99.0) {
    out.error = "too few SELECTs for a p99";
  }
  if (out.error.empty()) out.error = CheckReplies(spec, data, logs);
  if (out.error.empty()) out.error = final_err;
  if (out.error.empty() &&
      (ledger.schedules != ledger.runs + ledger.skips ||
       ledger.columns_with_pending_work != 0)) {
    out.error = "maintenance ledger does not balance after stop";
  }
  StoreSize size;
  if (out.error.empty()) out.error = CheckFinalState(spec, catalog, expected_rows, &size);

  m["stmt_per_s"] = static_cast<double>(out.attempted - out.failed) / wall;
  m["select_p50_ms"] = Percentile(lat, 50.0);
  m["select_p99_ms"] = Percentile(lat, 99.0);
  m["store_mb"] = size.physical_mb + size.decode_cache_mb;
  m["wall_s"] = wall;

  uint64_t disk = 0;
  if (spec.durable) {
    disk = DirectoryBytes(db->data_dir);
    m["store_mb"] = static_cast<double>(disk) / (1024.0 * 1024.0);
    if (out.error.empty() && !db->store->health().ok()) {
      out.error = "durable store health: " + db->store->health().ToString();
    }
  }

  if (traced_counters) {
    const IoStats io = db->space->stats() - io0;
    const double mb = 1024.0 * 1024.0;
    m["server.scan_batches"] = static_cast<double>(srv.scan_batches());
    m["server.shared_scans_saved"] = static_cast<double>(srv.shared_scans_saved());
    m["server.admission_waits"] = static_cast<double>(srv.admission_waits());
    m["server.peak_session_queue"] = static_cast<double>(srv.peak_session_queue());
    m["sim.simulated_s"] = simulated;
    m["sim.wall_s"] = wall;
    m["exec.bg_runs"] = static_cast<double>(ledger.runs);
    m["exec.bg_skips"] = static_cast<double>(ledger.skips);
    m["exec.retire_backlog"] = static_cast<double>(peak_backlog);
    m["exec.epoch_pins"] = static_cast<double>(SumOverColumns(catalog, pins) - pins0);
    m["exec.segments_reclaimed"] =
        static_cast<double>(SumOverColumns(catalog, reclaims) - reclaims0);
    m["storage.read_mb"] = static_cast<double>(io.mem_read_bytes) / mb;
    m["storage.write_mb"] = static_cast<double>(io.mem_write_bytes) / mb;
    m["storage.decode_mb"] = static_cast<double>(io.decode_bytes) / mb;
    m["storage.kernel_scans"] = static_cast<double>(io.kernel_scans);
    m["storage.recompressed"] = static_cast<double>(io.segments_recompressed);
    m["storage.physical_mb"] = size.physical_mb;
    m["storage.decode_cache_mb"] = size.decode_cache_mb;
    if (spec.durable) {
      const persist::PersistentStore::Stats ps = db->store->stats();
      m["persist.checkpoints"] = static_cast<double>(ps.generation - gen0);
      m["persist.live_mb"] = static_cast<double>(ps.live_payload_bytes) / mb;
      m["persist.dead_mb"] = static_cast<double>(ps.dead_payload_bytes) / mb;
      m["persist.disk_bytes_per_user_byte"] =
          static_cast<double>(disk) / static_cast<double>(expected_rows * 16);
    }
  }

  // Reopen the stopped directory: every acknowledged row must be back.
  if (spec.durable && out.error.empty()) {
    const std::string dir = db->data_dir;
    db->sched->DrainBackground();
    db->space->set_durability(nullptr);
    db->catalog.reset();
    db->space.reset();
    db->store.reset();
    out.error = RecoverDatabase(spec, dir, db);
    if (out.error.empty()) {
      std::vector<int64_t> want(data.objid);
      for (const ClientLog& l : logs) {
        for (const auto& r : l.acked_rows) want.push_back(r.second);
      }
      std::sort(want.begin(), want.end());
      auto got = db->catalog->PlainColumn(spec.tables[0].name, "objid");
      if (!got.ok()) {
        out.error = "reopened directory: " + got.status().ToString();
      } else {
        std::vector<int64_t> have = got->Get<int64_t>();
        std::sort(have.begin(), have.end());
        if (have != want) out.error = "reopened directory lost acknowledged rows";
      }
      StoreSize unused;
      if (out.error.empty()) {
        out.error = CheckFinalState(spec, db->catalog.get(), expected_rows, &unused);
        if (!out.error.empty()) out.error = "after reopen: " + out.error;
      }
    }
  }
  return out;
}

}  // namespace perfbench
