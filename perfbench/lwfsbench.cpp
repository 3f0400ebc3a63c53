// lwfsbench: load generator for the repository benchmark.
//
// Drives the live in-process stack (core::ServiceRuntime) from one process
// with closed-loop callers — each waits for its reply before sending the
// next request, as HPC ranks do — and prints one JSON result line.
//
// Workloads (why each exists is in BENCHMARK.json):
//   ckpt_restore       Figure 8 checkpoint, restore and byte-verify of 16
//                      rank states per epoch on real time (memory backend,
//                      4 storage servers, no modeled medium).
//   create_storm       4 threads, each with its own Client: CreateObject,
//                      LinkName to a unique path, LookupName of that path.
//   virtual_petascale  driver::Engine with 4 carriers running thousands of
//                      checkpoint::WritePipeline clients against 50 modeled
//                      servers on a VirtualClock.
//
// Every workload reports the same end-to-end metrics, measured untraced:
// ops per second, the median and tail op latency, set-up time and peak RSS.
// An op is one epoch (checkpoint + restore) on ckpt_restore, one
// create+link+lookup on create_storm and one logical client pipeline on
// virtual_petascale.  With --trace 1 the run is split: the first half
// measures untraced (the workload-specific figures, such as ckpt_mb_s,
// come from it), the second half records spans around the benchmark's own
// calls into each layer, and the per-layer metrics come from those spans
// and from the layers' public counters.
//
// Usage:
//   lwfsbench --workload W --seed N --seconds S --trace 0|1
//             [--span-file PATH] [--source DIGEST]
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/write_pipeline.h"
#include "core/runtime.h"
#include "driver/driver.h"
#include "stats.h"
#include "trace.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/shared_buffer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lwfs;
using perfbench::NowNs;
using perfbench::SpanRec;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;

// ---------------------------------------------------------------------------
// Workload sizes
// ---------------------------------------------------------------------------

// ckpt_restore: one epoch's state (16 x 32 MiB = 512 MiB) is larger than
// the host LLC and than the stores' read-buffer pools together, so restore
// lands on cold pages as multi-GB checkpoints do.
constexpr std::uint32_t kRanks = 16;
constexpr std::size_t kRankBytes = 32u << 20;
constexpr int kCkptServers = 4;
constexpr int kMinEpochs = 6;
// The core/storage ladder: identical extents written and read through the
// client and directly on the store.
constexpr std::size_t kLadderExtent = 512u << 10;
constexpr int kLadderExtents = 512;
constexpr int kTxnProbes = 50;
constexpr int kCrcProbes = 5;

// create_storm.
constexpr int kStormThreads = 4;
constexpr int kStormServers = 4;
// Ops per thread in one round, a window of the figures.
constexpr std::uint64_t kStormRoundOps = 2000;
constexpr int kStormWarmupRounds = 1;
constexpr int kMinStormRounds = 3;
// The rate a run is sized for (4 threads on a 4-core host): a run of S
// seconds issues S x this many logged ops, however fast they go.
constexpr double kStormOpsPerSecond = 20000;
constexpr int kGetAttrProbes = 2000;
constexpr int kGetCapProbes = 500;

// virtual_petascale: few servers, because wall time per virtual event grows
// with the number of modeled server threads.
constexpr int kVirtServers = 50;
constexpr std::uint64_t kVirtClients = 2000;
constexpr std::size_t kVirtCarriers = 4;
constexpr std::uint64_t kVirtPayload = 4096;
constexpr std::uint64_t kVirtChunk = 1024;
constexpr std::size_t kVirtWindow = 2;
constexpr int kMinVirtReps = 3;
// The rate a run is sized for: a run of S seconds makes S x this many runs
// of the engine, however fast they go, so that the peak resident set (the
// largest over the runs) does not depend on speed.
constexpr double kVirtRepsPerSecond = 1.8;

// Real-time workloads set up this many deployments and keep the last.
constexpr int kSetups = 11;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double SecondsSince(std::uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the 8 bytes of `v`.
void Fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// `n` bytes derived from `seed` only.
Buffer SeededBytes(std::size_t n, std::uint64_t seed) {
  Buffer b(n);
  std::uint64_t x = Mix64(seed);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    x = Mix64(x);
    std::memcpy(b.data() + i, &x, 8);
  }
  for (; i < n; ++i) b[i] = static_cast<std::uint8_t>(Mix64(x + i));
  return b;
}

double PeakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

bool SameBytes(const util::SharedSlice& a, const util::SharedSlice& b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double P(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return perfbench::Percentile(v, q);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;  // the end-to-end metric (and workload) it should move
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_s", "1/s", "e2e", ""},
    {"op_ms_p50", "ms", "e2e", ""},
    {"op_ms_tail", "ms", "e2e", ""},
    {"setup_s", "s", "e2e", ""},
    {"peak_rss_mb", "MB", "e2e", ""},
};

constexpr MetricDef kPerLayer[] = {
    {"ckpt_mb_s", "MB/s", "checkpoint", "ops_s [ckpt_restore]"},
    {"restore_mb_s", "MB/s", "checkpoint", "ops_s [ckpt_restore]"},
    {"create_ops_s", "1/s", "core+naming", "ops_s [create_storm]"},
    {"create_us_p50", "us", "core+naming", "op_ms_p50 [create_storm]"},
    {"create_us_p99", "us", "core+naming", "op_ms_tail [create_storm]"},
    {"vclients_per_s", "1/s", "driver", "ops_s [virtual_petascale]"},
    {"fail_frac", "ratio", "bench", "all"},
    {"checkpoint.create_s", "s", "checkpoint", "ckpt_mb_s"},
    {"checkpoint.dump_s", "s", "checkpoint", "ckpt_mb_s"},
    {"checkpoint.restore_s", "s", "checkpoint", "restore_mb_s"},
    {"core.write_slice_us_p50", "us", "core", "ckpt_mb_s"},
    {"core.write_slice_us_p99", "us", "core", "ckpt_mb_s"},
    {"core.write_slice_self_us_p50", "us", "core", "ckpt_mb_s"},
    {"core.read_slice_us_p50", "us", "core", "restore_mb_s"},
    {"core.read_slice_us_p99", "us", "core", "restore_mb_s"},
    {"core.read_slice_self_us_p50", "us", "core", "restore_mb_s"},
    {"core.create_us_p50", "us", "core", "create_ops_s"},
    {"core.create_us_p99", "us", "core", "create_ops_s"},
    {"storage.write_mb_s", "MB/s", "storage", "ckpt_mb_s"},
    {"storage.read_mb_s", "MB/s", "storage", "restore_mb_s"},
    {"util.crc32_mb_s", "MB/s", "util", "restore_mb_s"},
    {"util.copies_per_byte_write", "copies/B", "util", "ckpt_mb_s"},
    {"util.copies_per_byte_read", "copies/B", "util", "restore_mb_s"},
    {"io_scheduler.requests", "count/op", "io_scheduler", "ckpt_mb_s"},
    {"io_scheduler.runs", "count/op", "io_scheduler", "ckpt_mb_s"},
    {"io_scheduler.merges", "count/op", "io_scheduler", "ckpt_mb_s"},
    {"io_scheduler.queue_depth_hwm", "count", "io_scheduler", "ckpt_mb_s"},
    {"rpc.dispatch_us.obj_write", "us", "rpc", "ckpt_mb_s"},
    {"rpc.dispatch_us.obj_read_slice", "us", "rpc", "restore_mb_s"},
    {"rpc.dispatch_us.obj_create", "us", "rpc", "create_us_p99"},
    {"rpc.dispatch_us.name_link", "us", "rpc", "create_us_p99"},
    {"rpc.dispatch_us.name_lookup", "us", "rpc", "create_us_p99"},
    {"rpc.wait_us.obj_write", "us", "rpc", "ckpt_mb_s"},
    {"rpc.wait_us.obj_read_slice", "us", "rpc", "restore_mb_s"},
    {"rpc.wait_us.obj_create", "us", "rpc", "create_us_p99"},
    {"rpc.wait_us.name_link", "us", "rpc", "create_us_p99"},
    {"rpc.wait_us.name_lookup", "us", "rpc", "create_us_p99"},
    {"rpc.retransmits", "count/call", "rpc", "all"},
    {"rpc.failures", "count/call", "rpc", "all"},
    {"rpc.dedup_hits", "count/op", "rpc", "all"},
    {"rpc.getattr_us_p50", "us", "rpc", "create_us_p50"},
    {"portals.msgs_per_op", "count/op", "portals", "create_ops_s, ckpt_mb_s"},
    {"portals.bytes_per_payload_byte", "B/B", "portals", "ckpt_mb_s"},
    {"naming.link_us_p50", "us", "naming", "create_ops_s"},
    {"naming.link_us_p99", "us", "naming", "create_us_p99"},
    {"naming.lookup_us_p50", "us", "naming", "create_ops_s"},
    {"naming.lookup_us_p99", "us", "naming", "create_us_p99"},
    {"security.cap_cache_hit_ratio", "ratio", "security", "create_ops_s"},
    {"security.remote_verifies", "count/op", "security", "create_ops_s"},
    {"security.getcap_us_p50", "us", "security", "setup_s"},
    {"txn.commit_us_p50", "us", "txn", "ckpt_mb_s"},
    {"driver.polls_per_client", "count", "driver", "vclients_per_s"},
    {"driver.wakes_per_client", "count", "driver", "vclients_per_s"},
    {"driver.modeled_s", "s", "driver", "vclients_per_s"},
    {"trace.overhead_frac", "ratio", "bench", "all"},
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // human-readable context lines
  std::vector<SpanRec> spans;
  rpc::ClientStats client_rpc;  // summed over the benchmark's own clients

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) notes.push_back("CHECK FAILED: " + what);
    correct = false;
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Set(const char* name, double value) { metrics[name] = value; }
};

/// Count a loop's ops into the result's attempted/failed totals.
void CountOps(Outcome& out, const perfbench::LoopSummary& loop) {
  out.attempted += loop.attempted;
  out.failed += loop.failed;
}

/// The end-to-end figures of one untraced closed loop.
void SetEndToEnd(Outcome& out, const perfbench::LoopSummary& loop,
                 const std::vector<double>& setup_s,
                 double op_unit_ms) {
  out.Set("ops_s", loop.ops_s);
  out.Set("op_ms_p50", loop.p50 * op_unit_ms);
  out.Set("op_ms_tail", loop.tail * op_unit_ms);
  out.Set("setup_s", perfbench::Median(setup_s));
  out.Set("peak_rss_mb", PeakRssMb());
  char line[200];
  std::snprintf(line, sizeof line,
                "ops: %" PRIu64 " attempted, %" PRIu64
                " failed; figures from %zu of %zu windows (the rest had over "
                "%.0f%% CPU steal); op_ms_tail is p%.0f; set-ups: %zu",
                loop.attempted, loop.failed, loop.quiet, loop.windows,
                perfbench::kMaxSteal * 100, loop.tail_q * 100, setup_s.size());
  out.Note(line);
  CountOps(out, loop);
}

double OverheadFrac(double untraced_ops_s, double traced_ops_s) {
  return untraced_ops_s > 0 ? 1 - traced_ops_s / untraced_ops_s : 0;
}

// ---------------------------------------------------------------------------
// Deployment set-up
// ---------------------------------------------------------------------------

struct Session {
  std::unique_ptr<core::ServiceRuntime> runtime;
  std::unique_ptr<core::Client> admin;
  security::Credential cred;
  storage::ContainerId cid{0};
  security::Capability cap;
};

/// The set-up a user pays before the first op: runtime Start, login,
/// container, capability and the workload's directories.
Result<Session> OpenSession(const core::RuntimeOptions& options,
                            const std::vector<std::string>& dirs) {
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) return runtime.status();
  Session s;
  s.runtime = std::move(*runtime);
  s.runtime->AddUser("bench", "pw", 1);
  s.admin = s.runtime->MakeClient();
  auto cred = s.admin->Login("bench", "pw");
  if (!cred.ok()) return cred.status();
  s.cred = *cred;
  auto cid = s.admin->CreateContainer(s.cred);
  if (!cid.ok()) return cid.status();
  s.cid = *cid;
  auto cap = s.admin->GetCap(s.cred, s.cid, security::kOpAll);
  if (!cap.ok()) return cap.status();
  s.cap = *cap;
  for (const std::string& d : dirs) {
    LWFS_RETURN_IF_ERROR(s.admin->Mkdir(d, true));
  }
  return s;
}

/// Set up kSetups deployments in turn, timing each, and keep the last.
Result<Session> TimedSetups(const core::RuntimeOptions& options,
                            const std::vector<std::string>& dirs,
                            std::vector<double>& setup_s) {
  Result<Session> session = InvalidArgument("no set-up ran");
  for (int i = 0; i < kSetups; ++i) {
    session = InvalidArgument("torn down");  // tear the previous one down
    const std::uint64_t t0 = NowNs();
    session = OpenSession(options, dirs);
    if (!session.ok()) return session;
    setup_s.push_back(SecondsSince(t0));
  }
  return session;
}

// A snapshot of the layers' public counters; the difference between two
// snapshots gives one phase's counts.
struct Counters {
  portals::FabricStats fabric;
  core::IoSchedulerStats sched;
  std::vector<rpc::OpStats> ops;
  std::uint64_t cap_hits = 0;
  std::uint64_t cap_misses = 0;
  std::uint64_t remote_verifies = 0;
  std::uint64_t dedup_hits = 0;

  static Counters Take(core::ServiceRuntime& rt) {
    Counters c;
    c.fabric = rt.fabric().Stats();
    c.sched = rt.TotalSchedStats();
    c.ops = rt.TotalOpStats();
    for (int i = 0; i < rt.storage_count(); ++i) {
      c.cap_hits += rt.storage_server(i).cap_cache().hits();
      c.cap_misses += rt.storage_server(i).cap_cache().misses();
      c.remote_verifies += rt.storage_server(i).remote_verifies();
    }
    c.dedup_hits = rt.TotalRobustnessStats().rpc.dedup_hits;
    return c;
  }
};

const rpc::OpStats* FindOp(const std::vector<rpc::OpStats>& ops,
                           const std::string& name) {
  for (const rpc::OpStats& s : ops) {
    const std::string& n = s.name;
    if (n == name || (n.size() > name.size() &&
                      n.compare(n.size() - name.size(), name.size(), name) ==
                          0 &&
                      n[n.size() - name.size() - 1] == '.')) {
      return &s;
    }
  }
  return nullptr;
}

struct OpDelta {
  std::uint64_t calls = 0;
  std::uint64_t latency_us = 0;
  std::uint64_t bulk_bytes = 0;
  [[nodiscard]] double mean_us() const {
    return calls == 0 ? 0
                      : static_cast<double>(latency_us) /
                            static_cast<double>(calls);
  }
};

OpDelta Delta(const Counters& a, const Counters& b, const std::string& op) {
  OpDelta d;
  const rpc::OpStats* x = FindOp(a.ops, op);
  const rpc::OpStats* y = FindOp(b.ops, op);
  if (y == nullptr) return d;
  d.calls = y->calls - (x ? x->calls : 0);
  d.latency_us = y->latency_us_total - (x ? x->latency_us_total : 0);
  d.bulk_bytes = y->bulk_bytes - (x ? x->bulk_bytes : 0);
  return d;
}

/// Server dispatch mean of `op` and the client-observed remainder (queue
/// wait plus transport) given the client's mean latency for the same calls.
void SetRpcSplit(Outcome& out, const Counters& a, const Counters& b,
                 const std::string& op, double client_mean_us) {
  const OpDelta d = Delta(a, b, op);
  out.metrics["rpc.dispatch_us." + op] = d.mean_us();
  out.metrics["rpc.wait_us." + op] =
      d.calls == 0 ? 0 : client_mean_us - d.mean_us();
}

void SetCommonCounters(Outcome& out, const Counters& a, const Counters& b,
                       double ops, double payload_bytes) {
  const double msgs = static_cast<double>((b.fabric.puts - a.fabric.puts) +
                                          (b.fabric.gets - a.fabric.gets));
  const double bytes =
      static_cast<double>((b.fabric.put_bytes - a.fabric.put_bytes) +
                          (b.fabric.get_bytes - a.fabric.get_bytes));
  out.Set("portals.msgs_per_op", ops > 0 ? msgs / ops : 0);
  out.Set("portals.bytes_per_payload_byte",
          payload_bytes > 0 ? bytes / payload_bytes : 0);
  const double lookups = static_cast<double>((b.cap_hits - a.cap_hits) +
                                             (b.cap_misses - a.cap_misses));
  out.Set("security.cap_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(b.cap_hits - a.cap_hits) / lookups
                      : 0);
  auto per_op = [&](std::uint64_t n) {
    return ops > 0 ? static_cast<double>(n) / ops : 0;
  };
  out.Set("security.remote_verifies",
          per_op(b.remote_verifies - a.remote_verifies));
  out.Set("rpc.dedup_hits", per_op(b.dedup_hits - a.dedup_hits));
}

void AddClientStats(Outcome& out, const core::Client& client) {
  const rpc::ClientStats s = client.rpc_stats();
  out.client_rpc.calls += s.calls;
  out.client_rpc.retransmits += s.retransmits;
  out.client_rpc.failures += s.failures;
}

/// Retransmits and failures per call over the benchmark's own clients.
void SetClientRates(Outcome& out) {
  const auto calls = static_cast<double>(out.client_rpc.calls);
  auto per_call = [&](std::uint64_t n) {
    return calls > 0 ? static_cast<double>(n) / calls : 0;
  };
  out.Set("rpc.retransmits", per_call(out.client_rpc.retransmits));
  out.Set("rpc.failures", per_call(out.client_rpc.failures));
}

// ---------------------------------------------------------------------------
// ckpt_restore
// ---------------------------------------------------------------------------

struct EpochLog {
  // One window per epoch; its op = checkpoint + restore of every rank.
  std::vector<perfbench::Window> windows;
  std::uint64_t bytes = 0;  // application bytes per direction
  std::vector<double> ckpt_mb_s, restore_mb_s, create_s, dump_s, restore_s;
};

/// One epoch: checkpoint, restore, byte-verify every rank, then (outside
/// the timed interval) remove the epoch's objects and name so the resident
/// set stays bounded.
void RunEpoch(Session& s, const std::vector<util::SharedSlice>& states,
              const std::string& path, std::uint64_t epoch, Tracer& tracer,
              EpochLog* log, Outcome& out) {
  Scope root(tracer, "bench.epoch", epoch);
  checkpoint::LwfsCheckpoint::Config config;
  config.path = path;
  config.cid = s.cid;
  config.cap = s.cap;
  config.journal_server = 0;

  const perfbench::StealSample steal0 = perfbench::StealSample::Now();
  const std::uint64_t t0 = NowNs();
  Result<checkpoint::CheckpointStats> stats = Internal("not run");
  {
    Scope span(tracer, "checkpoint.run", epoch);
    stats = checkpoint::LwfsCheckpoint::Run(*s.runtime, config, states);
  }
  const std::uint64_t t1 = NowNs();
  Result<std::vector<util::SharedSlice>> restored = Internal("not run");
  {
    Scope span(tracer, "checkpoint.restore", epoch);
    restored = checkpoint::LwfsCheckpoint::RestoreSlices(*s.runtime, s.cap,
                                                         path);
  }
  const std::uint64_t t2 = NowNs();
  const double steal = perfbench::StealSample::Now().Since(steal0);

  bool ok = stats.ok() && restored.ok() && restored->size() == states.size();
  {
    Scope span(tracer, "bench.verify", epoch);
    for (std::size_t r = 0; ok && r < states.size(); ++r) {
      ok = SameBytes((*restored)[r], states[r]);
    }
  }
  out.Check(ok, "epoch " + std::to_string(epoch) +
                    ": restored state differs from the checkpointed state");
  restored = Internal("released");

  if (log != nullptr) {
    perfbench::Window& w = log->windows.emplace_back();
    w.steal = steal;
    if (ok) {
      const double ckpt = static_cast<double>(t1 - t0) / 1e9;
      const double restore = static_cast<double>(t2 - t1) / 1e9;
      const auto mb = static_cast<double>(stats->bytes) / 1e6;
      w.log.Ok(ckpt + restore);
      w.seconds = ckpt + restore;
      log->bytes += stats->bytes;
      log->ckpt_mb_s.push_back(mb / ckpt);
      log->restore_mb_s.push_back(mb / restore);
      log->create_s.push_back(stats->create_seconds);
      log->dump_s.push_back(stats->dump_seconds);
      log->restore_s.push_back(restore);
    } else {
      w.log.Fail();
    }
  }

  Scope cleanup(tracer, "bench.cleanup", epoch);
  for (int server = 0; server < s.runtime->storage_count(); ++server) {
    const auto srv = static_cast<std::uint32_t>(server);
    Result<std::vector<storage::ObjectId>> oids = Internal("not run");
    {
      Scope span(tracer, "core.list_objects", epoch);
      oids = s.admin->ListObjects(srv, s.cap);
    }
    out.Check(oids.ok(), "ListObjects after epoch");
    if (!oids.ok()) continue;
    for (storage::ObjectId oid : *oids) {
      Scope span(tracer, "core.remove_object", epoch);
      out.Check(s.admin->RemoveObject(srv, s.cap, oid).ok(),
                "RemoveObject after epoch");
    }
  }
  Scope span(tracer, "naming.unlink", epoch);
  out.Check(s.admin->UnlinkName(path).ok(), "UnlinkName after epoch");
}

/// Run epochs for `seconds` (and at least kMinEpochs).
EpochLog RunEpochs(Session& s, const std::vector<util::SharedSlice>& states,
                   std::uint64_t seed, std::uint64_t& epoch, double seconds,
                   Tracer& tracer, Outcome& out) {
  EpochLog log;
  const std::uint64_t t0 = NowNs();
  while (SecondsSince(t0) < seconds ||
         log.windows.size() < static_cast<std::size_t>(kMinEpochs)) {
    const std::string path =
        "/ckpt/" + Hex(seed) + "-" + std::to_string(epoch);
    RunEpoch(s, states, path, epoch, tracer, &log, out);
    ++epoch;
    if (!out.correct) break;
  }
  return log;
}

void SetCheckpointFigures(Outcome& out, const EpochLog& log,
                          const perfbench::LoopSummary& loop) {
  out.Set("ckpt_mb_s", perfbench::Median(log.ckpt_mb_s));
  out.Set("restore_mb_s", perfbench::Median(log.restore_mb_s));
  out.Set("fail_frac", loop.fail_frac());
}

/// The core/storage ladder: identical extents through Client slice calls
/// and straight into the store, so core self time is core minus storage.
void RunLadder(Session& s, const std::vector<util::SharedSlice>& states,
               Tracer& tracer, Outcome& out) {
  auto client = s.runtime->MakeClient();
  auto oid = client->CreateObject(0, s.cap);
  out.Check(oid.ok(), "ladder CreateObject");
  if (!oid.ok()) return;
  storage::ObjectStore& store = s.runtime->store(0);
  auto extent = [&](int k) {
    const util::SharedSlice& src = states[static_cast<std::size_t>(k) % kRanks];
    const std::size_t per_state = src.size() / kLadderExtent;
    return src.Slice((static_cast<std::size_t>(k) / kRanks % per_state) *
                         kLadderExtent,
                     kLadderExtent);
  };

  std::vector<double> core_w, store_w, core_r, store_r, self_w, self_r;
  std::uint64_t copies_w = 0, copies_r = 0;
  const Counters c0 = Counters::Take(*s.runtime);
  for (int k = 0; k < kLadderExtents; ++k) {
    const util::SharedSlice data = extent(k);
    const std::uint64_t off = static_cast<std::uint64_t>(k) * kLadderExtent;
    double core_us = 0, store_us = 0;
    auto core_call = [&] {
      const util::CopySnapshot before = util::CopyStats::Snapshot();
      const std::uint64_t t0 = NowNs();
      Status st;
      {
        Scope span(tracer, "ladder.core.write_slice", k);
        st = client->WriteObjectSlice(0, s.cap, *oid, off, data);
      }
      core_us = static_cast<double>(NowNs() - t0) / 1e3;
      copies_w += util::CopyStats::Snapshot().Since(before).budget_bytes();
      out.Check(st.ok(), "ladder WriteObjectSlice");
    };
    auto store_call = [&] {
      const std::uint64_t t0 = NowNs();
      Status st;
      {
        Scope span(tracer, "ladder.storage.write_slice", k);
        st = store.WriteSlice(*oid, off, data);
      }
      store_us = static_cast<double>(NowNs() - t0) / 1e3;
      out.Check(st.ok(), "ladder store WriteSlice");
    };
    // Alternate which rung goes first so neither always meets warm caches.
    if (k % 2 == 0) {
      core_call();
      store_call();
    } else {
      store_call();
      core_call();
    }
    core_w.push_back(core_us);
    store_w.push_back(store_us);
    self_w.push_back(core_us - store_us);
  }
  const Counters c1 = Counters::Take(*s.runtime);
  for (int k = 0; k < kLadderExtents; ++k) {
    const util::SharedSlice data = extent(k);
    const std::uint64_t off = static_cast<std::uint64_t>(k) * kLadderExtent;
    double core_us = 0, store_us = 0;
    auto core_call = [&] {
      const util::CopySnapshot before = util::CopyStats::Snapshot();
      const std::uint64_t t0 = NowNs();
      Result<util::SharedSlice> got = Internal("not run");
      {
        Scope span(tracer, "ladder.core.read_slice", k);
        got = client->ReadObjectSlice(0, s.cap, *oid, off, kLadderExtent);
      }
      core_us = static_cast<double>(NowNs() - t0) / 1e3;
      copies_r += util::CopyStats::Snapshot().Since(before).budget_bytes();
      out.Check(got.ok() && SameBytes(*got, data),
                "ladder ReadObjectSlice bytes");
    };
    auto store_call = [&] {
      const std::uint64_t t0 = NowNs();
      Result<util::SharedSlice> got = Internal("not run");
      {
        Scope span(tracer, "ladder.storage.read_slice", k);
        got = store.ReadSlice(*oid, off, kLadderExtent);
      }
      store_us = static_cast<double>(NowNs() - t0) / 1e3;
      out.Check(got.ok() && SameBytes(*got, data),
                "ladder store ReadSlice bytes");
    };
    if (k % 2 == 0) {
      core_call();
      store_call();
    } else {
      store_call();
      core_call();
    }
    core_r.push_back(core_us);
    store_r.push_back(store_us);
    self_r.push_back(core_us - store_us);
  }
  const Counters c2 = Counters::Take(*s.runtime);
  out.Check(client->RemoveObject(0, s.cap, *oid).ok(), "ladder RemoveObject");
  AddClientStats(out, *client);

  const double ladder_bytes =
      static_cast<double>(kLadderExtent) * kLadderExtents;
  auto mb_s = [&](const std::vector<double>& us) {
    double total = 0;
    for (double x : us) total += x;
    return total > 0 ? ladder_bytes / total : 0;  // bytes/us == MB/s
  };
  out.Set("core.write_slice_us_p50", P(core_w, 0.5));
  out.Set("core.write_slice_us_p99", P(core_w, 0.99));
  out.Set("core.write_slice_self_us_p50", P(self_w, 0.5));
  out.Set("core.read_slice_us_p50", P(core_r, 0.5));
  out.Set("core.read_slice_us_p99", P(core_r, 0.99));
  out.Set("core.read_slice_self_us_p50", P(self_r, 0.5));
  out.Set("storage.write_mb_s", mb_s(store_w));
  out.Set("storage.read_mb_s", mb_s(store_r));
  out.Set("util.copies_per_byte_write",
          static_cast<double>(copies_w) / ladder_bytes);
  out.Set("util.copies_per_byte_read",
          static_cast<double>(copies_r) / ladder_bytes);
  SetRpcSplit(out, c0, c1, "obj_write", Mean(core_w));
  SetRpcSplit(out, c1, c2, "obj_read_slice", Mean(core_r));
}

void RunCheckpointProbes(Session& s,
                         const std::vector<util::SharedSlice>& states,
                         Tracer& tracer, Outcome& out) {
  std::vector<double> crc_mb_s;
  std::uint32_t first_crc = 0;
  for (int i = 0; i < kCrcProbes; ++i) {
    const std::uint64_t t0 = NowNs();
    std::uint32_t crc = 0;
    {
      Scope span(tracer, "util.crc32", i);
      crc = Crc32(states[0].span());
    }
    const double secs = SecondsSince(t0);
    if (i == 0) first_crc = crc;
    out.Check(crc == first_crc, "Crc32 is stable over one state");
    crc_mb_s.push_back(static_cast<double>(states[0].size()) / 1e6 / secs);
  }
  out.Set("util.crc32_mb_s", perfbench::Median(crc_mb_s));

  core::TxnParticipants participants;
  for (int i = 0; i < s.runtime->storage_count(); ++i) {
    participants.storage_servers.push_back(static_cast<std::uint32_t>(i));
  }
  participants.naming = true;
  std::vector<double> txn_us;
  for (int i = 0; i < kTxnProbes; ++i) {
    const std::uint64_t t0 = NowNs();
    Scope span(tracer, "txn.begin_commit", i);
    auto txn = s.admin->BeginTxn(0, s.cap, participants);
    out.Check(txn.ok() && (*txn)->Commit().ok(), "BeginTxn + Commit");
    txn_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  out.Set("txn.commit_us_p50", P(txn_us, 0.5));
}

void CkptRestore(std::uint64_t seed, double seconds, bool trace,
                 Tracer& tracer, Outcome& out) {
  core::RuntimeOptions options;
  options.storage_servers = kCkptServers;
  options.backend = core::RuntimeOptions::Backend::kMemory;

  // Inputs first: generating them is not set-up the user pays per run.
  std::vector<util::SharedSlice> states;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    states.push_back(util::SharedSlice::FromBuffer(
        SeededBytes(kRankBytes, Mix64(seed) ^ (r + 1))));
  }

  std::vector<double> setup_s;
  auto session = TimedSetups(options, {"/ckpt"}, setup_s);
  if (!session.ok()) {
    out.Check(false, "set-up: " + session.status().ToString());
    return;
  }
  Session& s = *session;

  const double state_mib =
      static_cast<double>(kRanks * kRankBytes) / (1u << 20);
  const double pool_mib = 64.0 * kCkptServers;  // ReadBufferPool default
  char line[200];
  std::snprintf(line, sizeof line,
                "state: %u ranks x %zu MiB = %.0f MiB; read-buffer pools "
                "%.0f MiB (%d stores x 64 MiB); LLC %s",
                kRanks, kRankBytes >> 20, state_mib, pool_mib, kCkptServers,
                ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size")
                    .c_str());
  out.Note(line);

  std::uint64_t epoch = 0;
  RunEpoch(s, states, "/ckpt/" + Hex(seed) + "-warmup", epoch++, tracer,
           nullptr, out);

  const double untraced_s = trace ? seconds / 2 : seconds;
  const EpochLog log =
      RunEpochs(s, states, seed, epoch, untraced_s, tracer, out);
  const perfbench::LoopSummary loop = perfbench::Summarize(log.windows);
  SetEndToEnd(out, loop, setup_s, 1e3);
  SetCheckpointFigures(out, log, loop);
  if (!trace || !out.correct) return;

  // Traced half: spans around every call, counters over the same epochs.
  tracer.set_enabled(true);
  s.runtime->ResetSchedStats();
  const Counters a = Counters::Take(*s.runtime);
  const EpochLog traced =
      RunEpochs(s, states, seed, epoch, seconds - untraced_s, tracer, out);
  const Counters b = Counters::Take(*s.runtime);
  const perfbench::LoopSummary traced_loop =
      perfbench::Summarize(traced.windows);
  CountOps(out, traced_loop);
  const auto epochs =
      static_cast<double>(traced_loop.attempted - traced_loop.failed);
  if (!out.correct || epochs == 0) return;
  out.Set("checkpoint.create_s", perfbench::Median(traced.create_s));
  out.Set("checkpoint.dump_s", perfbench::Median(traced.dump_s));
  out.Set("checkpoint.restore_s", perfbench::Median(traced.restore_s));
  out.Set("io_scheduler.requests",
          static_cast<double>(b.sched.requests) / epochs);
  out.Set("io_scheduler.runs", static_cast<double>(b.sched.runs) / epochs);
  out.Set("io_scheduler.merges", static_cast<double>(b.sched.merges) / epochs);
  out.Set("io_scheduler.queue_depth_hwm",
          static_cast<double>(b.sched.queue_depth_hwm));
  SetCommonCounters(out, a, b, epochs, 2.0 * static_cast<double>(traced.bytes));
  out.Set("trace.overhead_frac",
          OverheadFrac(out.metrics["ops_s"], traced_loop.ops_s));

  RunLadder(s, states, tracer, out);
  RunCheckpointProbes(s, states, tracer, out);
  AddClientStats(out, *s.admin);
}

// ---------------------------------------------------------------------------
// create_storm
// ---------------------------------------------------------------------------

struct StormThread {
  std::unique_ptr<core::Client> client;
  std::uint64_t next = 0;     // next op index (path suffix)
  std::uint64_t created = 0;  // successful links, warm-up included
  perfbench::OpLog log;       // this round's latencies, microseconds
};

/// Rounds of create_storm for a run of `seconds`.  The count of ops is
/// fixed by `seconds` alone, not by how fast they run: every create leaves
/// state behind (the object, its name and the naming op log), so a run of
/// fixed length would hold more of it, and peak a higher resident set, the
/// faster the program is.
int StormRounds(double seconds) {
  const double ops = seconds * kStormOpsPerSecond;
  return std::max(kMinStormRounds,
                  static_cast<int>(std::lround(
                      ops / (kStormThreads * kStormRoundOps))));
}

/// One closed-loop phase: `warmup_rounds` unlogged rounds, then `rounds`
/// logged ones, one window each.  In a round every thread issues
/// kStormRoundOps ops.
std::vector<perfbench::Window> StormPhase(Session& s,
                                          std::vector<StormThread>& threads,
                                          const std::string& salt,
                                          int warmup_rounds, int rounds,
                                          Tracer& tracer, Outcome& out) {
  std::atomic<bool> mismatch{false};
  std::barrier sync(static_cast<std::ptrdiff_t>(threads.size()) + 1);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    workers.emplace_back([&, t] {
      StormThread& me = threads[t];
      const std::string dir = "/storm/t" + std::to_string(t) + "/" + salt + "-";
      for (int round = 0; round < warmup_rounds + rounds; ++round) {
        sync.arrive_and_wait();  // the round opens
        me.log = {};
        for (std::uint64_t k = 0; k < kStormRoundOps; ++k) {
          const std::uint64_t i = me.next++;
          const auto server =
              static_cast<std::uint32_t>((t + i) % kStormServers);
          const std::string path = dir + std::to_string(i);
          const std::uint64_t req = (static_cast<std::uint64_t>(t) << 48) | i;
          const std::uint64_t op0 = NowNs();
          bool ok = false;
          {
            Scope op(tracer, "bench.op", req);
            Result<storage::ObjectId> oid = Internal("not run");
            {
              Scope span(tracer, "core.create_object", req);
              oid = me.client->CreateObject(server, s.cap);
            }
            if (oid.ok()) {
              const storage::ObjectRef ref{s.cid, server, *oid};
              Status linked;
              {
                Scope span(tracer, "naming.link", req);
                linked = me.client->LinkName(path, ref);
              }
              if (linked.ok()) {
                ++me.created;
                Result<storage::ObjectRef> got = Internal("not run");
                {
                  Scope span(tracer, "naming.lookup", req);
                  got = me.client->LookupName(path);
                }
                ok = got.ok() && *got == ref;
                if (got.ok() && !(*got == ref)) mismatch = true;
              }
            }
          }
          if (ok) {
            me.log.Ok(static_cast<double>(NowNs() - op0) / 1e3);
          } else {
            me.log.Fail();
          }
        }
        sync.arrive_and_wait();  // the round's ops are done
      }
    });
  }

  std::vector<perfbench::Window> windows;
  for (int round = 0; round < warmup_rounds + rounds; ++round) {
    const perfbench::StealSample steal0 = perfbench::StealSample::Now();
    const std::uint64_t r0 = NowNs();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const std::uint64_t r1 = NowNs();
    const double steal = perfbench::StealSample::Now().Since(steal0);
    if (round < warmup_rounds) continue;
    perfbench::Window& w = windows.emplace_back();
    w.seconds = static_cast<double>(r1 - r0) / 1e9;
    w.steal = steal;
    for (const StormThread& th : threads) w.log.Merge(th.log);
  }
  for (std::thread& w : workers) w.join();
  out.Check(!mismatch, "LookupName returned a different ObjectRef");
  return windows;
}

void SetStormFigures(Outcome& out, const perfbench::LoopSummary& loop) {
  out.Set("create_ops_s", loop.ops_s);
  out.Set("create_us_p50", loop.p50);
  out.Set("create_us_p99", loop.tail);
  out.Set("fail_frac", loop.fail_frac());
}

void CreateStorm(std::uint64_t seed, double seconds, bool trace, Tracer& tracer,
                 Outcome& out) {
  core::RuntimeOptions options;
  options.storage_servers = kStormServers;
  options.backend = core::RuntimeOptions::Backend::kMemory;
  std::vector<std::string> dirs;
  for (int t = 0; t < kStormThreads; ++t) {
    dirs.push_back("/storm/t" + std::to_string(t));
  }
  const std::string salt = Hex(Mix64(seed)).substr(0, 8);

  std::vector<double> setup_s;
  auto session = TimedSetups(options, dirs, setup_s);
  if (!session.ok()) {
    out.Check(false, "set-up: " + session.status().ToString());
    return;
  }
  Session& s = *session;
  std::vector<StormThread> threads(kStormThreads);
  for (StormThread& t : threads) t.client = s.runtime->MakeClient();

  const double untraced_s = trace ? seconds / 2 : seconds;
  const std::vector<perfbench::Window> windows =
      StormPhase(s, threads, salt, kStormWarmupRounds, StormRounds(untraced_s),
                 tracer, out);
  const perfbench::LoopSummary loop = perfbench::Summarize(windows);
  SetEndToEnd(out, loop, setup_s, 1e-3);
  SetStormFigures(out, loop);

  if (trace && out.correct) {
    tracer.set_enabled(true);
    const Counters a = Counters::Take(*s.runtime);
    const perfbench::LoopSummary traced = perfbench::Summarize(
        StormPhase(s, threads, salt, 0, StormRounds(seconds - untraced_s),
                   tracer, out));
    const Counters b = Counters::Take(*s.runtime);
    CountOps(out, traced);
    const auto ops = static_cast<double>(traced.attempted - traced.failed);

    const perfbench::SpanSummary sum =
        perfbench::SummarizeSpans(tracer.Collect());
    auto span_p = [&](const char* name, double q) {
      auto it = sum.total_us.find(name);
      return it == sum.total_us.end() ? 0.0 : P(it->second, q);
    };
    auto span_mean = [&](const char* name) {
      auto it = sum.total_us.find(name);
      return it == sum.total_us.end() ? 0.0 : Mean(it->second);
    };
    out.Set("core.create_us_p50", span_p("core.create_object", 0.5));
    out.Set("core.create_us_p99", span_p("core.create_object", 0.99));
    out.Set("naming.link_us_p50", span_p("naming.link", 0.5));
    out.Set("naming.link_us_p99", span_p("naming.link", 0.99));
    out.Set("naming.lookup_us_p50", span_p("naming.lookup", 0.5));
    out.Set("naming.lookup_us_p99", span_p("naming.lookup", 0.99));
    SetRpcSplit(out, a, b, "obj_create", span_mean("core.create_object"));
    SetRpcSplit(out, a, b, "name_link", span_mean("naming.link"));
    SetRpcSplit(out, a, b, "name_lookup", span_mean("naming.lookup"));
    SetCommonCounters(out, a, b, ops, 0);
    out.Set("trace.overhead_frac",
            OverheadFrac(out.metrics["ops_s"], traced.ops_s));

    // Probes: the smallest round trip and the capability grant.
    auto oid = s.admin->CreateObject(0, s.cap);
    out.Check(oid.ok(), "probe CreateObject");
    std::vector<double> getattr_us, getcap_us;
    for (int i = 0; oid.ok() && i < kGetAttrProbes; ++i) {
      const std::uint64_t t0 = NowNs();
      Scope span(tracer, "rpc.getattr", i);
      out.Check(s.admin->GetAttr(0, s.cap, *oid).ok(), "probe GetAttr");
      getattr_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    for (int i = 0; i < kGetCapProbes; ++i) {
      const std::uint64_t t0 = NowNs();
      Scope span(tracer, "security.getcap", i);
      out.Check(s.admin->GetCap(s.cred, s.cid, security::kOpAll).ok(),
                "probe GetCap");
      getcap_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    out.Set("rpc.getattr_us_p50", P(getattr_us, 0.5));
    out.Set("security.getcap_us_p50", P(getcap_us, 0.5));
  }

  // Every successful link must be listed under its thread's directory.
  std::uint64_t links = 0, listed = 0;
  for (int t = 0; t < kStormThreads; ++t) {
    auto names = s.admin->ListNames("/storm/t" + std::to_string(t));
    out.Check(names.ok(), "ListNames");
    if (names.ok()) listed += names->size();
    links += threads[static_cast<std::size_t>(t)].created;
    AddClientStats(out, *threads[static_cast<std::size_t>(t)].client);
  }
  out.Check(listed == links, "ListNames count (" + std::to_string(listed) +
                                 ") != creates (" + std::to_string(links) +
                                 ")");
  AddClientStats(out, *s.admin);
}

// ---------------------------------------------------------------------------
// virtual_petascale
// ---------------------------------------------------------------------------

/// Wraps a logical client to time its pipeline in wall-clock time, from
/// its first poll to kDone.  Each wrapper writes only its own slot.
class TimedClient final : public driver::LogicalClient {
 public:
  TimedClient(std::unique_ptr<driver::LogicalClient> inner, SpanRec* slot,
              Tracer& tracer, std::uint64_t parent, std::uint64_t req)
      : inner_(std::move(inner)), slot_(slot), tracer_(tracer) {
    slot_->parent = parent;
    slot_->req = req;
    slot_->name = "driver.pipeline";
  }
  driver::Step Poll(driver::Context& ctx) override {
    if (slot_->start_ns == 0) slot_->start_ns = NowNs();
    const driver::Step step = inner_->Poll(ctx);
    if (step == driver::Step::kDone) {
      slot_->end_ns = NowNs();
      slot_->id = tracer_.NewId();
      tracer_.Record(*slot_);
    }
    return step;
  }
  [[nodiscard]] Status result() const override { return inner_->result(); }

 private:
  std::unique_ptr<driver::LogicalClient> inner_;
  SpanRec* slot_;
  Tracer& tracer_;
};

struct VirtRep {
  double setup_s = 0;
  double run_s = 0;
  double steal = 0;
  std::uint64_t virtual_ns = 0;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  driver::EngineStats stats;
  std::vector<SpanRec> pipelines;
};

/// One fresh deployment on a fresh VirtualClock: set up, run every
/// pipeline to completion, tear down.
VirtRep VirtualRep(std::uint64_t seed, const Buffer& payload, Tracer& tracer,
                   Outcome& out) {
  VirtRep rep;
  util::VirtualClock vclock;
  util::Clock::ThreadGuard guard(&vclock);
  core::RuntimeOptions options;
  options.storage_servers = kVirtServers;
  options.backend = core::RuntimeOptions::Backend::kNull;
  options.storage.worker_threads = 1;
  options.storage.modeled_disk_mb_s = 400;
  options.storage.modeled_create_latency_us = 250;
  options.clock = &vclock;

  Scope rep_span(tracer, "bench.rep", seed);
  const std::uint64_t t0 = NowNs();
  Result<Session> session = Internal("not run");
  {
    Scope span(tracer, "bench.setup", seed);
    session = OpenSession(options, {"/vpeta"});
  }
  rep.setup_s = SecondsSince(t0);
  if (!session.ok()) {
    out.Check(false, "set-up: " + session.status().ToString());
    return rep;
  }
  Session& s = *session;
  std::vector<std::unique_ptr<core::Client>> shards;
  for (std::size_t i = 0; i < kVirtCarriers; ++i) {
    shards.push_back(s.runtime->MakeClient());
  }

  driver::EngineOptions eng;
  eng.carriers = kVirtCarriers;
  eng.seed = seed;
  eng.max_inflight_per_carrier = 1024;
  eng.clock = &vclock;
  driver::Engine engine(eng);
  rep.pipelines.resize(kVirtClients);
  Scope run_span(tracer, "driver.engine_run", seed);
  for (std::uint64_t c = 0; c < kVirtClients; ++c) {
    checkpoint::WritePipeline::Spec spec;
    spec.client = shards[c % kVirtCarriers].get();
    spec.server = static_cast<std::uint32_t>(Mix64(seed ^ (c << 20)) %
                                             kVirtServers);
    spec.cap = s.cap;
    spec.payload = ByteSpan(payload);
    spec.chunk_bytes = kVirtChunk;
    spec.window = kVirtWindow;
    engine.Add(std::make_unique<TimedClient>(
        std::make_unique<checkpoint::WritePipeline>(std::move(spec)),
        &rep.pipelines[c], tracer, run_span.id(), c));
  }

  const Counters a = Counters::Take(*s.runtime);
  const perfbench::StealSample steal0 = perfbench::StealSample::Now();
  const std::uint64_t w0 = NowNs();
  const util::Clock::TimePoint v0 = vclock.Now();
  const Status status = engine.Run();
  const util::Clock::TimePoint v1 = vclock.Now();
  rep.run_s = SecondsSince(w0);
  rep.steal = perfbench::StealSample::Now().Since(steal0);
  const Counters b = Counters::Take(*s.runtime);

  rep.stats = engine.stats();
  rep.virtual_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(v1 - v0).count());
  Fnv(rep.digest, rep.virtual_ns);
  Fnv(rep.digest, rep.stats.done);
  Fnv(rep.digest, rep.stats.failed);
  Fnv(rep.digest, rep.stats.polls);
  Fnv(rep.digest, rep.stats.completion_wakes);

  const std::uint64_t modeled_bytes = Delta(a, b, "obj_write").bulk_bytes;
  out.Check(status.ok(), "engine run: " + status.ToString());
  out.Check(rep.stats.failed == 0 && rep.stats.done == kVirtClients,
            "every pipeline completes without failure");
  out.Check(modeled_bytes == kVirtClients * kVirtPayload,
            "modeled bytes (" + std::to_string(modeled_bytes) +
                ") == clients x payload");
  for (std::unique_ptr<core::Client>& c : shards) AddClientStats(out, *c);
  AddClientStats(out, *s.admin);
  return rep;
}

struct VirtLog {
  // One window per run; its ops are the pipelines' wall latencies, seconds.
  std::vector<perfbench::Window> windows;
  std::vector<double> setup_s;
  std::vector<VirtRep> reps;
};

/// A VirtualClock runs exactly one registered thread at a time, so a run
/// never uses more than one CPU at once.  Each run is pinned to one CPU,
/// which keeps the OS's placement of token hand-offs out of the figures
/// (left free, the same run slowed up to 5x when wake-ups crossed CPUs),
/// and successive runs rotate over the allowed CPUs, so one slow CPU
/// cannot set a whole result.
///
/// After each run the allocator returns the freed deployment's memory to
/// the OS; otherwise the resident set creeps up run after run as the freed
/// pages scatter over the per-thread arenas, and the peak would measure the
/// run count and the arenas' luck rather than one deployment.
void VirtualReps(std::uint64_t seed, const Buffer& payload, double seconds,
                 const std::vector<int>& cpus, Tracer& tracer, VirtLog& log,
                 Outcome& out) {
  const auto reps = static_cast<std::size_t>(
      std::max(kMinVirtReps,
               static_cast<int>(std::lround(seconds * kVirtRepsPerSecond))));
  while (log.reps.size() < reps) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[log.reps.size() % cpus.size()], &one);
    out.Check(sched_setaffinity(0, sizeof one, &one) == 0,
              "pin a virtual-time run to one CPU");
    VirtRep rep = VirtualRep(seed, payload, tracer, out);
    malloc_trim(0);
    if (!out.correct) return;
    log.setup_s.push_back(rep.setup_s);
    perfbench::Window& w = log.windows.emplace_back();
    w.seconds = rep.run_s;
    w.steal = rep.steal;
    for (const SpanRec& p : rep.pipelines) {
      if (p.end_ns > 0) {
        w.log.Ok(static_cast<double>(p.end_ns - p.start_ns) / 1e9);
      } else {
        w.log.Fail();
      }
    }
    rep.pipelines.clear();
    log.reps.push_back(std::move(rep));
  }
}

void VirtualPetascale(std::uint64_t seed, double seconds, bool trace,
                      Tracer& tracer, Outcome& out) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  out.Check(!cpus.empty(), "read the allowed CPUs");
  if (cpus.empty()) return;
  const Buffer payload = SeededBytes(kVirtPayload, seed);
  const double untraced_s = trace ? seconds / 2 : seconds;
  VirtLog log;
  VirtualReps(seed, payload, untraced_s, cpus, tracer, log, out);
  if (!out.correct) return;
  const perfbench::LoopSummary loop = perfbench::Summarize(log.windows);
  SetEndToEnd(out, loop, log.setup_s, 1e3);
  out.Set("vclients_per_s", loop.ops_s);
  out.Set("fail_frac", loop.fail_frac());

  std::vector<VirtRep> all = std::move(log.reps);
  if (trace) {
    tracer.set_enabled(true);
    VirtLog traced;
    VirtualReps(seed, payload, seconds - untraced_s, cpus, tracer, traced, out);
    if (!out.correct) return;
    const VirtRep& r = traced.reps.front();
    const auto clients = static_cast<double>(r.stats.clients);
    out.Set("driver.polls_per_client",
            static_cast<double>(r.stats.polls) / clients);
    out.Set("driver.wakes_per_client",
            static_cast<double>(r.stats.completion_wakes) / clients);
    out.Set("driver.modeled_s", static_cast<double>(r.virtual_ns) / 1e9);
    const perfbench::LoopSummary traced_loop =
        perfbench::Summarize(traced.windows);
    out.Set("trace.overhead_frac",
            OverheadFrac(out.metrics["ops_s"], traced_loop.ops_s));
    CountOps(out, traced_loop);
    for (VirtRep& rep : traced.reps) all.push_back(std::move(rep));
  }
  // Same seed, fresh deployments: virtual time must repeat bit for bit.
  bool same = true;
  for (const VirtRep& r : all) same = same && r.digest == all.front().digest;
  out.Check(same, "virtual-time digest differs between runs of one seed");
  char line[200];
  std::snprintf(line, sizeof line,
                "%" PRIu64 " logical clients x %" PRIu64
                " B on %d modeled servers, %zu carriers; %zu runs; digest %s; "
                "modeled %.6f s per run",
                kVirtClients, kVirtPayload, kVirtServers, kVirtCarriers,
                all.size(), Hex(all.front().digest).c_str(),
                static_cast<double>(all.front().virtual_ns) / 1e9);
  out.Note(line);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void PrintJsonNumber(double v) {
  // JSON has no infinity: a latency set by a failed op prints as the
  // largest finite double, which misses any limit just the same.
  if (!std::isfinite(v)) v = v > 0 ? 1.7976931348623157e308 : 0;
  std::printf("%.17g", v);
}

void PrintLayerTable(const std::string& workload, const Outcome& out) {
  std::printf("# per-layer: %s (traced half; value, unit, layer, moves)\n",
              workload.c_str());
  for (const MetricDef& m : kPerLayer) {
    auto it = out.metrics.find(m.name);
    const double v = it == out.metrics.end() ? 0 : it->second;
    std::printf("#   %-34s %16.4f %-9s %-13s %s\n", m.name, v, m.unit, m.layer,
                m.moves);
  }
  const perfbench::SpanSummary sum = perfbench::SummarizeSpans(out.spans);
  std::printf("# spans: %-32s %8s %12s %12s\n", "name", "count",
              "p50_us", "self_p50_us");
  for (const auto& [name, totals] : sum.total_us) {
    std::printf("#        %-32s %8zu %12.2f %12.2f\n", name.c_str(),
                totals.size(), P(totals, 0.5), P(sum.self_us.at(name), 0.5));
  }
}

void PrintResult(const Outcome& out, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    auto it = out.metrics.find(m.name);
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name);
    PrintJsonNumber(it == out.metrics.end() ? 0 : it->second);
    std::printf(", \"unit\": \"%s\"}", m.unit);
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: lwfsbench --workload ckpt_restore|create_storm|"
               "virtual_petascale --seed N --seconds S --trace 0|1 "
               "[--span-file PATH] [--source DIGEST]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, span_file, source = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--span-file") {
      span_file = v;
    } else if (a == "--source") {
      source = v;
    } else {
      return Usage();
    }
  }
  if (seconds <= 0 || seconds > 120 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  Tracer tracer(false);  // enabled only for the traced half
  Outcome out;
  if (workload == "ckpt_restore") {
    CkptRestore(seed, seconds, trace == 1, tracer, out);
  } else if (workload == "create_storm") {
    CreateStorm(seed, seconds, trace == 1, tracer, out);
  } else if (workload == "virtual_petascale") {
    VirtualPetascale(seed, seconds, trace == 1, tracer, out);
  } else {
    return Usage();
  }
  tracer.set_enabled(false);
  out.spans = tracer.Collect();
  SetClientRates(out);
  if (trace == 1) {
    out.Note("spans recorded: " + std::to_string(out.spans.size()));
  }

  std::printf("# lwfsbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              workload.c_str(), seed, seconds, trace);
  std::printf("# machine: nproc=%u llc=%s build=%s count_copies=%s source=%s\n",
              std::thread::hardware_concurrency(),
              ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size")
                  .c_str(),
              PERFBENCH_BUILD_TYPE,
              util::CopyStats::Enabled() ? "on" : "off", source.c_str());
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  if (trace == 1) {
    PrintLayerTable(workload, out);
    if (!span_file.empty() && !Tracer::Write(span_file, out.spans)) {
      std::printf("# could not write spans to %s\n", span_file.c_str());
      out.correct = false;
    }
  }
  PrintResult(out, trace == 1);
  std::fflush(stdout);
  return 0;
}
