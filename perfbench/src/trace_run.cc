// The traced run: the measured run's statements replayed in-process, with a
// span around every public call that Session::Execute makes, then the range
// queries replayed directly on a fresh strategy with a span around every
// core phase. Spans are kept in per-thread vectors and written out when the
// run ends; the same replay without spans gives the tracing overhead.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "engine/bpm.h"
#include "engine/mal_interpreter.h"
#include "engine/optimizer.h"
#include "exec/column_latch.h"
#include "persist/bootstrap.h"
#include "server/session.h"
#include "server/wire.h"
#include "sql/compiler.h"
#include "sql/parser.h"

namespace perfbench {

using namespace socs;

namespace {

/// Span sink of one thread; a null sink records nothing (the untraced
/// replay runs the same code with it).
struct SpanSink {
  Clock::time_point epoch;
  std::vector<Span> spans;

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
  }
};

class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name, int64_t parent, uint64_t stmt)
      : sink_(sink) {
    if (sink_ == nullptr) return;
    index_ = static_cast<int64_t>(sink_->spans.size());
    sink_->spans.push_back(Span{name, sink_->Ns(Clock::now()), 0, parent, stmt});
  }
  ~ScopedSpan() {
    if (sink_ != nullptr) sink_->spans[index_].end_ns = sink_->Ns(Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanSink* sink_;
  int64_t index_ = -1;
};

struct ReplayTotals {
  std::mutex mu;
  std::string error;
  uint64_t select_replies = 0;
  double reply_bytes = 0.0;
  void Fail(const std::string& e) {
    std::lock_guard<std::mutex> lk(mu);
    if (error.empty()) error = e;
  }
};

/// Session::Execute's calls, in its order, each under a span.
void ExecuteTraced(const WorkloadSpec& spec, const Dataset& data, Database* db,
                   MalInterpreter* interp, const Stmt& s, uint64_t stmt_id,
                   SpanSink* sink, std::atomic<uint64_t>* executed,
                   ReplayTotals* totals) {
  Catalog* catalog = db->catalog.get();
  std::string wire;
  {
    ScopedSpan root(sink, s.IsSelect() ? "statement.select" : "statement.insert",
                    -1, stmt_id);
    const int64_t parent = root.index();
    StatusOr<sql::Statement> stmt = Status::Internal("unparsed");
    {
      ScopedSpan sp(sink, "sql.parse", parent, stmt_id);
      stmt = sql::ParseStatement(s.text);
    }
    if (!stmt.ok()) return totals->Fail("parse: " + stmt.status().ToString());
    std::unique_lock<std::mutex> write_lock;
    if (stmt->kind == sql::Statement::Kind::kInsert) {
      write_lock = catalog->LockTableWrites(stmt->insert.table);
    }
    StatusOr<MalProgram> prog = Status::Internal("uncompiled");
    {
      ScopedSpan sp(sink, "sql.compile", parent, stmt_id);
      prog = sql::Compile(*stmt, *catalog);
    }
    if (!prog.ok()) return totals->Fail("compile: " + prog.status().ToString());
    {
      ScopedSpan sp(sink, "engine.optimize", parent, stmt_id);
      OptContext octx;
      octx.catalog = catalog;
      PassManager pm = MakeDefaultPipeline();
      if (Status st = pm.Run(&prog.value(), &octx); !st.ok()) {
        return totals->Fail("optimize: " + st.ToString());
      }
    }
    StatusOr<std::shared_ptr<ResultSet>> rs = Status::Internal("unexecuted");
    {
      ScopedSpan sp(sink, "engine.execute", parent, stmt_id);
      rs = interp->Run(*prog);
    }
    if (!rs.ok()) return totals->Fail("execute: " + rs.status().ToString());
    {
      ScopedSpan sp(sink, "server.serialize", parent, stmt_id);
      wire = server::MakeResultReply(**rs, interp->last_execution()).Serialize();
    }
    write_lock = {};
    StatusOr<server::WireReply> reply = Status::Internal("unparsed");
    {
      ScopedSpan sp(sink, "client.parse_reply", parent, stmt_id);
      size_t pos = 0;
      reply = server::ParseReply([&](std::string* line) {
        if (pos >= wire.size()) return false;
        const size_t nl = wire.find('\n', pos);
        *line = wire.substr(pos, nl - pos);
        pos = nl == std::string::npos ? wire.size() : nl + 1;
        return true;
      });
    }
    if (!reply.ok() || !reply->ok) return totals->Fail("reply: " + s.text);
    // Replies without concurrent inserts have one right answer. The probe's
    // outcome is counted by the measured run.
    if (spec.selects_per_insert == 0 && s.kind != Stmt::Kind::kProbe) {
      if (s.kind == Stmt::Kind::kObjids) {
        Digest got, want;
        for (const std::string& r : reply->rows) got.Add(std::strtoll(r.c_str(), nullptr, 10));
        data.oracle.ForEach(s.lo, s.hi, [&](int64_t v) { want.Add(v); });
        if (!(got == want)) return totals->Fail("replayed objids differ: " + s.text);
      } else if (reply->rows.size() != 1 ||
                 std::strtoull(reply->rows[0].c_str(), nullptr, 10) !=
                     data.oracle.Count(s.lo, s.hi)) {
        return totals->Fail("replayed count differs: " + s.text);
      }
    }
  }
  if (s.Projects()) {
    // The plain-column snapshot the projection's plan binds (Catalog::Bind),
    // timed on its own: it happens inside MalInterpreter::Run.
    ScopedSpan sp(sink, "engine.bind", -1, stmt_id);
    auto bat = catalog->Bind(
        s.kind == Stmt::Kind::kProbe ? kProbeTable : spec.tables[s.table].name,
        "objid");
    if (!bat.ok()) return totals->Fail("bind: " + bat.status().ToString());
  }
  const uint64_t n = executed->fetch_add(1) + 1;
  if (db->store && spec.checkpoint_every != 0 && n % spec.checkpoint_every == 0) {
    // The server's statement-count checkpoint cadence, run inline.
    ScopedSpan sp(sink, "persist.checkpoint", -1, stmt_id);
    auto gen = persist::CheckpointNow(db->store.get(), *catalog);
    if (!gen.ok()) return totals->Fail("checkpoint: " + gen.status().ToString());
  }
  std::lock_guard<std::mutex> lk(totals->mu);
  if (s.IsSelect()) {
    ++totals->select_replies;
    totals->reply_bytes += static_cast<double>(wire.size());
  }
}

/// Replays `rounds` per client on `db` with the workload's client count.
/// Returns the wall seconds; fills `sinks` (one per client) when tracing.
double Replay(const WorkloadSpec& spec, const Dataset& data, Database* db,
              uint64_t seed, const std::vector<uint64_t>& rounds,
              std::vector<SpanSink>* sinks, ReplayTotals* totals) {
  Streams streams(spec, seed);
  std::atomic<uint64_t> executed{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      MalInterpreter interp(db->catalog.get());
      interp.set_exec(db->sched.get());
      SpanSink* sink = sinks ? &(*sinks)[c] : nullptr;
      for (uint64_t r = 0; r < rounds[c]; ++r) {
        std::vector<Stmt> stmts = streams.Round(c, r);
        for (size_t i = 0; i < stmts.size(); ++i) {
          const uint64_t stmt_id = (static_cast<uint64_t>(c) << 48) | (r << 8) | i;
          ExecuteTraced(spec, data, db, &interp, stmts[i], stmt_id, sink,
                        &executed, totals);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  db->sched->DrainBackground();
  return SecondsSince(t0);
}

struct CoreCounts {
  uint64_t splits = 0, merges = 0, replicas = 0, segments = 0;
  uint64_t rows_examined = 0, rows_returned = 0;
};

/// The workload's range queries and appends, replayed single-threaded on a
/// fresh strategy per table (clients interleaved round by round), with a
/// span around each core phase.
std::string ReplayCore(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
                       const std::vector<uint64_t>& rounds, SpanSink* sink,
                       CoreCounts* counts) {
  Streams streams(spec, seed);
  uint64_t max_rounds = 0;
  for (uint64_t r : rounds) max_rounds = std::max(max_rounds, r);
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    SegmentSpace::Options so;
    so.compression = spec.compression;
    SegmentSpace space(CostParams{}, 0, so);
    std::unique_ptr<AccessStrategy<OidValue>> strat =
        MakeStrategy(spec.tables[t].kind, data.ra, &space);
    uint64_t next_oid = data.ra.size();
    uint64_t stmt_id = 0;
    for (uint64_t r = 0; r < max_rounds; ++r) {
      for (size_t c = 0; c < spec.clients; ++c) {
        if (r >= rounds[c]) continue;
        for (const Stmt& s : streams.Round(c, r)) {
          ++stmt_id;
          if (s.kind == Stmt::Kind::kInsert) {
            std::vector<OidValue> vals;
            for (const auto& row : s.rows) vals.push_back({next_oid++, row.first});
            ScopedSpan sp(sink, "core.append", -1, stmt_id);
            strat->Append(vals);
            continue;
          }
          if (s.kind == Stmt::Kind::kProbe || s.table != t) continue;
          const ValueRange q = SegmentedColumn::InclusiveToHalfOpen(s.lo, s.hi);
          std::vector<SegmentInfo> cover;
          {
            ScopedSpan sp(sink, "core.cover", -1, stmt_id);
            SharedColumnGuard g(strat->latch());
            cover = strat->CoverSegments(q);
          }
          std::vector<OidValue> out;
          uint64_t found = 0;
          {
            ScopedSpan sp(sink, "core.scan", -1, stmt_id);
            SharedColumnGuard g(strat->latch());
            for (const SegmentInfo& seg : cover) {
              found += strat->ScanSegment(seg, q, &out).result_count;
              counts->rows_examined += seg.count;
            }
          }
          counts->rows_returned += found;
          if (found != data.oracle.Count(s.lo, s.hi) && spec.selects_per_insert == 0) {
            return "direct strategy replay: wrong count for " + s.text;
          }
          ScopedSpan sp(sink, "core.reorganize", -1, stmt_id);
          ExclusiveColumnGuard g(strat->latch());
          const QueryExecution ex = strat->Reorganize(q);
          strat->NoteReorganization(ex);
          counts->splits += ex.splits;
          counts->merges += ex.merges;
          counts->replicas += ex.replicas_created;
        }
      }
    }
    SharedColumnGuard g(strat->latch());
    counts->segments += strat->Segments().size();
  }
  return "";
}

double MedianUs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (name == s.name) d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return d.empty() ? 0.0 : Percentile(d, 50.0);
}

}  // namespace

PhaseResult RunTracedPhase(const WorkloadSpec& spec, const Dataset& data,
                           uint64_t seed, const std::vector<uint64_t>& rounds,
                           const std::string& tmp_dir,
                           const std::string& spans_path) {
  PhaseResult out;
  const std::string dir = tmp_dir + "/replay";
  double untraced_wall = 0.0;
  {
    Database db;
    out.error = BuildDatabase(spec, data, dir, &db);
    if (!out.error.empty()) return out;
    ReplayTotals totals;
    untraced_wall = Replay(spec, data, &db, seed, rounds, nullptr, &totals);
    if (!totals.error.empty()) {
      out.error = "untraced replay: " + totals.error;
      return out;
    }
  }

  std::vector<SpanSink> sinks(spec.clients + 2);
  const Clock::time_point epoch = Clock::now();
  for (SpanSink& s : sinks) s.epoch = epoch;
  SpanSink& setup_sink = sinks[spec.clients];
  SpanSink& core_sink = sinks[spec.clients + 1];
  double traced_wall = 0.0;
  ReplayTotals totals;
  {
    Database db;
    out.error = BuildDatabase(spec, data, dir, &db);
    if (!out.error.empty()) return out;
    if (db.store) {
      setup_sink.spans.push_back(Span{"persist.recover", setup_sink.Ns(db.recover_begin),
                                      setup_sink.Ns(db.recover_end), -1, 0});
    }
    traced_wall = Replay(spec, data, &db, seed, rounds, &sinks, &totals);
    if (!totals.error.empty()) {
      out.error = "traced replay: " + totals.error;
      return out;
    }
    uint64_t want = data.ra.size();
    for (size_t c = 0; c < spec.clients; ++c) {
      if (spec.selects_per_insert != 0) want += rounds[c] * spec.insert_rows;
    }
    StoreSize unused;
    out.error = CheckFinalState(spec, db.catalog.get(), want, &unused);
    if (!out.error.empty()) {
      out.error = "traced replay: " + out.error;
      return out;
    }
  }
  std::filesystem::remove_all(dir);

  CoreCounts cc;
  out.error = ReplayCore(spec, data, seed, rounds, &core_sink, &cc);
  if (!out.error.empty()) return out;

  // Merge the per-thread sinks (parent indexes shift by each sink's offset).
  std::vector<Span> spans;
  for (const SpanSink& s : sinks) {
    const int64_t offset = static_cast<int64_t>(spans.size());
    for (Span sp : s.spans) {
      if (sp.parent >= 0) sp.parent += offset;
      spans.push_back(sp);
    }
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  {
    std::ofstream f(spans_path);
    f << "name,stmt,start_ns,end_ns,parent,self_ns\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << s.name << ',' << s.stmt << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << self[i] << '\n';
    }
  }

  Metrics& m = out.metrics;
  m["sql.parse_us"] = MedianUs(spans, "sql.parse");
  m["sql.compile_us"] = MedianUs(spans, "sql.compile");
  m["engine.optimize_us"] = MedianUs(spans, "engine.optimize");
  m["engine.execute_us"] = MedianUs(spans, "engine.execute");
  m["engine.bind_us"] = MedianUs(spans, "engine.bind");
  m["server.serialize_us"] = MedianUs(spans, "server.serialize");
  m["server.parse_reply_us"] = MedianUs(spans, "client.parse_reply");
  m["statement_select_us"] = MedianUs(spans, "statement.select");
  m["server.reply_kb"] =
      totals.select_replies == 0
          ? 0.0
          : totals.reply_bytes / static_cast<double>(totals.select_replies) / 1024.0;
  m["core.cover_us"] = MedianUs(spans, "core.cover");
  m["core.scan_us"] = MedianUs(spans, "core.scan");
  m["core.reorganize_us"] = MedianUs(spans, "core.reorganize");
  m["core.append_us"] = MedianUs(spans, "core.append");
  m["core.splits"] = static_cast<double>(cc.splits);
  m["core.merges"] = static_cast<double>(cc.merges);
  m["core.replicas_created"] = static_cast<double>(cc.replicas);
  m["core.segments"] = static_cast<double>(cc.segments);
  m["core.rows_examined_per_row"] =
      cc.rows_returned == 0 ? 0.0
                            : static_cast<double>(cc.rows_examined) /
                                  static_cast<double>(cc.rows_returned);
  m["persist.checkpoint_ms"] = MedianUs(spans, "persist.checkpoint") / 1e3;
  m["persist.recover_s"] = MedianUs(spans, "persist.recover") / 1e6;
  m["trace.overhead"] = untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0;
  m["trace.spans"] = static_cast<double>(spans.size());
  return out;
}

}  // namespace perfbench
