// Shared declarations of the benchmark program: command-line arguments, the
// workload definitions (tables, strategies, statement streams), the
// database a run builds, and the measured (TCP) and traced (in-process)
// phases. See README.md for the workloads and the metrics.
#ifndef SOCS_PERFBENCH_BENCH_H_
#define SOCS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "core/strategy.h"
#include "engine/catalog.h"
#include "exec/task_scheduler.h"
#include "persist/store.h"
#include "storage/segment_space.h"
#include "workload/range_generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for data directories and span files (inside the checkout).
  std::string tmp_dir = ".bench_tmp";
};

/// Right-ascension domain every table uses: the SkyServer footprint, closed
/// on the right so a float that rounds up to 260 still lies inside.
socs::ValueRange Domain();

// --- workloads ---------------------------------------------------------------

enum class StrategyKind { kAdaptiveSegmentation, kAdaptiveReplication, kDeferred };

struct TableSpec {
  std::string name;
  StrategyKind kind;
};

struct WorkloadSpec {
  std::string name;
  size_t rows = 0;                 // initial rows per table
  std::vector<TableSpec> tables;   // all loaded with the same data
  size_t clients = 1;
  size_t depth = 1;                // statements each client keeps outstanding
  bool compression = false;
  bool durable = false;
  uint64_t checkpoint_every = 0;   // statements between checkpoints
  size_t stream_block = 0;         // queries per generated stream block
  size_t selects_per_insert = 0;   // 0 = no inserts
  size_t insert_rows = 16;
  size_t min_selects = 1000;
  /// Queries per round followed by one objid-precision probe (0 = none).
  size_t probe_every = 0;
};

/// The probe table: a few rows whose SDSS objids lie above 2^53. A probe
/// statement selects all of them; it fails while the engine rounds 64-bit
/// integers through double, and passes once it does not.
inline constexpr const char* kProbeTable = "PX";
const std::vector<std::pair<double, int64_t>>& ProbeRows();

/// The spec of a named workload; false if the name is unknown.
bool LookupWorkload(const std::string& name, WorkloadSpec* out);

/// One statement as a client sends it. SELECT bounds are inclusive.
struct Stmt {
  enum class Kind { kObjids, kCount, kInsert, kProbe };
  Kind kind = Kind::kCount;
  size_t table = 0;  // index into WorkloadSpec::tables
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::pair<double, int64_t>> rows;  // INSERT values (ra, objid)
  std::string text;
  bool IsSelect() const { return kind != Kind::kInsert; }
  bool Projects() const { return kind == Kind::kObjids || kind == Kind::kProbe; }
};

/// Deterministic, unbounded statement streams, one per client, cut into
/// rounds: a round is the unit a client always finishes (one query sent to
/// every table, or a group of SELECTs and one INSERT). Round r of client c
/// depends only on (seed, c, r).
class Streams {
 public:
  Streams(const WorkloadSpec& spec, uint64_t seed);
  std::vector<Stmt> Round(size_t client, uint64_t round);

 private:
  struct Cache {
    uint64_t block = ~uint64_t{0};
    socs::Workload queries;
  };
  const socs::Workload& Block(size_t client, uint64_t block);

  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<Cache> cache_;
};

// --- the database ------------------------------------------------------------

/// The initial rows in oid order, loaded into every table of the workload,
/// and the oracle over the same rows.
struct Dataset {
  std::vector<float> ra;
  std::vector<int64_t> objid;
  Oracle oracle;
};

Dataset MakeDataset(const WorkloadSpec& spec);
int64_t ObjidOf(uint64_t oid);

/// Everything one instance of the system under test owns. Teardown drains
/// the background lane before the catalog goes away.
struct Database {
  std::unique_ptr<socs::TaskScheduler> sched;
  std::unique_ptr<socs::persist::PersistentStore> store;
  std::unique_ptr<socs::SegmentSpace> space;
  std::unique_ptr<socs::Catalog> catalog;
  std::string data_dir;  // durable workloads only
  // PersistentStore::Open + RestoreDatabase of the last recovery.
  Clock::time_point recover_begin;
  Clock::time_point recover_end;

  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  ~Database();
};

/// Builds the workload's tables in a fresh Database. Durable workloads open
/// a store in `data_dir`, take the first checkpoint, then restart: the
/// database is dropped and recovered from the directory, and the recovered
/// `#layout` must equal the one before. Returns an error message or "".
std::string BuildDatabase(const WorkloadSpec& spec, const Dataset& data,
                          const std::string& data_dir, Database* db);

/// The strategy a table of `kind` uses, loaded with `ra` (row i has oid i).
std::unique_ptr<socs::AccessStrategy<socs::OidValue>> MakeStrategy(
    StrategyKind kind, const std::vector<float>& ra, socs::SegmentSpace* space);

/// Reopens a stopped durable database's directory into `db`.
std::string RecoverDatabase(const WorkloadSpec& spec, const std::string& data_dir,
                            Database* db);

// --- results -------------------------------------------------------------------

struct SelectRecord {
  size_t table = 0;
  Stmt::Kind kind = Stmt::Kind::kCount;
  double lo = 0.0;
  double hi = 0.0;
  uint64_t count = 0;   // count(*) value, or rows returned
  Digest digest;        // objid replies only
  uint64_t sent = 0;    // global ticks (ack window)
  uint64_t replied = 0;
};

struct ClientLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;
  std::vector<double> select_ms;
  std::vector<SelectRecord> selects;
  std::vector<InsertedRow> inserted;           // acknowledged rows only
  std::vector<std::pair<double, int64_t>> acked_rows;
  double simulated_s = 0.0;
  std::string error;  // first connection-level error
};

/// True when a probe reply returned exactly the probe table's objids.
bool ProbeReplyCorrect(const std::vector<std::string>& rows);

/// Checks every SELECT of every client against the oracle (plus the ack
/// window when the workload inserts). Returns "" or the first mismatch.
std::string CheckReplies(const WorkloadSpec& spec, const Dataset& data,
                         const std::vector<ClientLog>& logs);

/// What `#compression` reports the stored columns take, in MiB.
struct StoreSize {
  double physical_mb = 0.0;
  double decode_cache_mb = 0.0;
};

/// Post-run checks on a stopped database: `#layout` tiling and counts and
/// `#compression` logical bytes against `expected_rows`. Fills `size`.
std::string CheckFinalState(const WorkloadSpec& spec, socs::Catalog* catalog,
                            uint64_t expected_rows, StoreSize* size);

/// `#layout` rows of one column, parsed.
std::vector<LayoutSegment> ParseLayout(const std::vector<std::string>& rows,
                                       const std::string& column);
std::string LayoutText(socs::Catalog* catalog);

/// Bytes in a directory tree.
uint64_t DirectoryBytes(const std::string& dir);

// --- phases --------------------------------------------------------------------

/// Metric name -> value; main.cc holds the units.
using Metrics = std::map<std::string, double>;

struct PhaseResult {
  std::string error;  // "" when every check passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> rounds;  // per client
  Metrics metrics;
};

/// The measured run: starts a SqlServer over `db`, runs the clients for
/// `seconds` over loopback TCP, stops the server, checks every reply and
/// the final state. setup_s is stamped from `process_start` once the server
/// accepts connections. `traced_counters` adds the per-layer counters the
/// server, storage, exec and persist layers expose.
PhaseResult RunServerPhase(const WorkloadSpec& spec, const Dataset& data,
                           Database* db, uint64_t seed, double seconds,
                           bool traced_counters, Clock::time_point process_start);

/// The traced run: replays exactly `rounds` (per client) in-process on a
/// fresh database, once untraced and once with spans, then replays the
/// range queries directly on a fresh strategy with core-phase spans.
/// Writes the spans to `spans_path`.
PhaseResult RunTracedPhase(const WorkloadSpec& spec, const Dataset& data,
                           uint64_t seed, const std::vector<uint64_t>& rounds,
                           const std::string& tmp_dir,
                           const std::string& spans_path);

}  // namespace perfbench

#endif  // SOCS_PERFBENCH_BENCH_H_
