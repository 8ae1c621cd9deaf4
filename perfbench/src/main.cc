// socs_perfbench: wall-clock benchmark of the socs SQL server.
//
//   socs_perfbench --workload <sky_stream|hot_pipelined|ingest_durable>
//                  --seed <n> --seconds <s> --trace <0|1> [--tmp-dir DIR]
//
// --trace 0 runs the measured workload over loopback TCP and prints the
// end-to-end metrics; --trace 1 runs the same workload, then replays its
// statements in-process with spans and prints the per-layer metrics. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Progress and errors go to standard error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"stmt_per_s", "stmt/s"}, {"select_p50_ms", "ms"},
    {"select_p99_ms", "ms"},    {"rss_peak_mb", "MiB"},   {"store_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"server.overhead_us", "us"},
    {"server.reply_kb", "KiB"},
    {"server.serialize_us", "us"},
    {"server.parse_reply_us", "us"},
    {"server.scan_batches", "count"},
    {"server.shared_scans_saved", "count"},
    {"server.admission_waits", "count"},
    {"server.peak_session_queue", "count"},
    {"sql.parse_us", "us"},
    {"sql.compile_us", "us"},
    {"engine.optimize_us", "us"},
    {"engine.execute_us", "us"},
    {"engine.bind_us", "us"},
    {"core.cover_us", "us"},
    {"core.scan_us", "us"},
    {"core.reorganize_us", "us"},
    {"core.append_us", "us"},
    {"core.splits", "count"},
    {"core.merges", "count"},
    {"core.replicas_created", "count"},
    {"core.segments", "count"},
    {"core.rows_examined_per_row", "ratio"},
    {"storage.read_mb", "MiB"},
    {"storage.write_mb", "MiB"},
    {"storage.decode_mb", "MiB"},
    {"storage.kernel_scans", "count"},
    {"storage.recompressed", "count"},
    {"storage.physical_mb", "MiB"},
    {"storage.decode_cache_mb", "MiB"},
    {"sim.simulated_s", "s"},
    {"sim.wall_s", "s"},
    {"exec.bg_runs", "count"},
    {"exec.bg_skips", "count"},
    {"exec.epoch_pins", "count"},
    {"exec.segments_reclaimed", "count"},
    {"exec.retire_backlog", "count"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.recover_s", "s"},
    {"persist.live_mb", "MiB"},
    {"persist.dead_mb", "MiB"},
    {"persist.disk_bytes_per_user_byte", "ratio"},
    {"trace.overhead", "ratio"},
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (k == "--tmp-dir") {
      a->tmp_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0.0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& m, bool trace) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    auto it = m.find(d.name);
    const double v = it == m.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    json += buf;
    first = false;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: %s --workload sky_stream|hot_pipelined|ingest_durable "
                 "--seed N --seconds S --trace 0|1 [--tmp-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  const std::string run_dir = args.tmp_dir + "/" + spec.name + "-" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(run_dir);

  const Dataset data = MakeDataset(spec);
  PhaseResult measured;
  {
    Database db;
    const std::string err = BuildDatabase(spec, data, run_dir + "/data", &db);
    if (!err.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      std::filesystem::remove_all(run_dir);
      return 1;
    }
    measured = RunServerPhase(spec, data, &db, args.seed, args.seconds, args.trace,
                              process_start);
  }
  std::filesystem::remove_all(run_dir + "/data");
  std::fprintf(stderr, "%s seed %llu: %llu statements (%llu failed) in %.2f s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(measured.attempted),
               static_cast<unsigned long long>(measured.failed),
               measured.metrics["wall_s"]);

  std::string error = measured.error;
  Metrics metrics = measured.metrics;
  if (args.trace && error.empty()) {
    const std::string spans_path = args.tmp_dir + "/spans-" + spec.name + "-" +
                                   std::to_string(args.seed) + ".csv";
    PhaseResult traced = RunTracedPhase(spec, data, args.seed, measured.rounds,
                                        run_dir, spans_path);
    error = traced.error;
    for (const auto& [k, v] : traced.metrics) metrics[k] = v;
    // What the server adds to a SELECT: its median round trip over TCP
    // against the median in-process execution of the same statements.
    metrics["server.overhead_us"] =
        metrics["select_p50_ms"] * 1e3 - metrics["statement_select_us"];
    std::fprintf(stderr, "spans written to %s (tracing overhead x%.3f)\n",
                 spans_path.c_str(), metrics["trace.overhead"]);
  }
  std::filesystem::remove_all(run_dir);
  if (!error.empty()) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  PrintResult(error.empty(), measured.attempted, measured.failed, metrics,
              args.trace);
  return 0;
}
