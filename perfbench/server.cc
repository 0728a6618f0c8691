// perfbench_server: hosts the serving stack (ShardedEngine behind NetServer)
// in a process of its own, for perfbench_gen to drive over loopback TCP.
//
// The engine configuration is the same for every workload: kShards shards,
// completions run inline on the workers, no O_DIRECT, the WAL on with group
// commit (so the shard files can be opened again after a clean close or a
// SIGKILL), the background flusher every kFlusherUs, and no periodic
// checkpoints. What differs comes in flags (all required, set by
// perfbench_gen):
//
//   --dir D --workers N --frames N --trace_every N --truncate 0|1
//
// On start it prints one line, then serves until told to quit:
//
//   ready port=P rows=R replayed=M shards=N direct=D
//         disk_backend=uring|threads|mixed net_backend=uring|epoll
//
// Control commands arrive one per line on stdin; each reply is one line of
// `ok key=value ...` on stdout. Every reading goes through the program's
// public accessors (DumpMetrics snapshots, stats(), IndexCache::stats,
// ComputeStats, replayed_records) and is taken while the generator has no
// request in flight.
//
//   totals          engine.requests and net.frames_in, absolute
//   delta           counters (summed over shards) and histogram quantiles since
//                   the previous delta, plus table and index-cache counters
//   btree           BTree::ComputeStats summed over shards
//   replay F DEPTH  submits the request frames in file F in-process through
//                   ShardedEngine::Submit, DEPTH batches in flight
//   route F REPS    times ShardedEngine::RouteOf over every id in file F
//   quit            clean close (checkpoint + clean-shutdown superblock)
//
// End of stdin is taken as quit, so the server never outlives its generator.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dataset.h"
#include "net/server.h"
#include "net/wire.h"
#include "shard/sharded_engine.h"

namespace perfbench {
namespace {

using nblb::IoBackend;
using nblb::MetricsSnapshot;
using nblb::RequestBatch;
using nblb::ShardedEngine;
using nblb::ShardedEngineOptions;

constexpr uint32_t kShards = 4;
constexpr uint64_t kFlusherUs = 2000;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

uint64_t Flag(const std::map<std::string, std::string>& flags,
              const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "perfbench_server: missing --%s\n", name.c_str());
    std::exit(2);
  }
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Table and index-cache counters summed over shards (plain structs owned by
/// the workers; read only while no request is in flight).
std::map<std::string, double> TableCounters(ShardedEngine* engine) {
  std::map<std::string, double> out;
  for (uint32_t i = 0; i < engine->num_shards(); ++i) {
    nblb::Table* table = engine->shard(i)->table();
    const nblb::TableStats& t = table->stats();
    out["table.heap_fetches"] += t.heap_fetches;
    if (table->cache() == nullptr) continue;
    const nblb::IndexCacheStats& c = table->cache()->stats();
    out["cache.probes"] += c.probes;
    out["cache.hits"] += c.hits;
    out["cache.populates"] += c.populates;
    out["cache.latch_give_ups"] += c.latch_give_ups;
    out["cache.page_cleanings"] += c.page_cleanings;
    out["cache.full_invalidations"] += c.full_invalidations;
  }
  return out;
}

/// Quantile `q` of a log-bucket histogram, interpolated linearly inside the
/// bucket that holds it (bucket i >= 1 spans [2^(i-1), 2^i - 1]), so a p50
/// is not rounded up to the next power of two.
double InterpolatedQuantile(const nblb::LogHistogramSnapshot& h, double q) {
  const uint64_t total = h.count();
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && seen + n >= target) {
      if (i == 0) return 0;
      const double lo = static_cast<double>(uint64_t{1} << (i - 1));
      const double hi = 2 * lo;
      return lo + (hi - lo) * (target - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(uint64_t{1} << (h.buckets.size() - 1));
}

/// "shard<i>.X" folded onto "X": the per-layer figures are stack-wide.
MetricsSnapshot FoldShards(const MetricsSnapshot& snap) {
  MetricsSnapshot out;
  auto fold = [](const std::string& name) {
    if (name.rfind("shard", 0) == 0) {
      const size_t dot = name.find('.');
      if (dot != std::string::npos && dot > 5 &&
          std::isdigit(static_cast<unsigned char>(name[5]))) {
        return name.substr(dot + 1);
      }
    }
    return name;
  };
  for (const auto& [name, v] : snap.counters) out.counters[fold(name)] += v;
  for (const auto& [name, h] : snap.histograms) {
    out.histograms[fold(name)] += h;
  }
  return out;
}

class Host {
 public:
  Host(std::unique_ptr<ShardedEngine> engine,
       std::unique_ptr<nblb::net::NetServer> server)
      : engine_(std::move(engine)), server_(std::move(server)) {
    base_ = server_->MetricsSnapshotNow();
    base_tables_ = TableCounters(engine_.get());
  }

  /// Closes the server first (it drains in-flight batches), then the engine
  /// (the clean close: checkpoint + clean-shutdown superblock).
  void Close() {
    server_.reset();
    engine_.reset();
  }

  std::string Totals() const {
    const MetricsSnapshot snap = server_->MetricsSnapshotNow();
    std::ostringstream out;
    out << "ok";
    for (const char* name : {"engine.requests", "net.frames_in"}) {
      auto it = snap.counters.find(name);
      out << " " << name << "=" << (it == snap.counters.end() ? 0 : it->second);
    }
    return out.str();
  }

  std::string Delta() {
    const MetricsSnapshot now = server_->MetricsSnapshotNow();
    const MetricsSnapshot delta = FoldShards(now - base_);
    const auto tables = TableCounters(engine_.get());
    std::ostringstream out;
    out.precision(17);
    out << "ok";
    for (const auto& [name, v] : delta.counters) out << " " << name << "=" << v;
    for (const auto& [name, h] : delta.histograms) {
      out << " " << name << ".count=" << h.count() << " " << name
          << ".p50=" << InterpolatedQuantile(h, 0.50) << " " << name
          << ".p99=" << InterpolatedQuantile(h, 0.99);
    }
    for (const auto& [name, v] : tables) {
      out << " " << name << "=" << v - base_tables_[name];
    }
    base_ = now;
    base_tables_ = tables;
    return out.str();
  }

  std::string BTree() {
    uint32_t height = 0;
    uint64_t leaf_pages = 0, entries = 0, free_bytes = 0;
    double fill_sum = 0;
    for (uint32_t i = 0; i < engine_->num_shards(); ++i) {
      auto stats = engine_->shard(i)->table()->index()->ComputeStats();
      if (!stats.ok()) return "error " + stats.status().ToString();
      height = std::max(height, stats->height);
      leaf_pages += stats->leaf_pages;
      entries += stats->entries;
      free_bytes += stats->leaf_free_bytes;
      fill_sum += stats->avg_leaf_fill * stats->leaf_pages;
    }
    std::ostringstream out;
    out.precision(17);
    out << "ok height=" << height << " leaf_pages=" << leaf_pages
        << " entries=" << entries << " leaf_free_bytes=" << free_bytes
        << " avg_leaf_fill=" << (leaf_pages ? fill_sum / leaf_pages : 0);
    return out.str();
  }

  std::string Replay(const std::string& path, size_t depth) {
    std::vector<RequestBatch> batches;
    if (std::string err = ReadBatches(path, &batches); !err.empty()) {
      return "error " + err;
    }
    uint64_t ops = 0, errors = 0;
    std::deque<ShardedEngine::TicketPtr> inflight;
    auto reap = [&] {
      inflight.front()->Wait();
      for (const auto& r : inflight.front()->result().results) {
        ++ops;
        if (!r.status.ok()) ++errors;
      }
      inflight.pop_front();
    };
    const double t0 = Now();
    for (const RequestBatch& batch : batches) {
      if (inflight.size() >= depth) reap();
      inflight.push_back(engine_->SubmitRef(batch));
    }
    while (!inflight.empty()) reap();
    const double seconds = Now() - t0;
    std::ostringstream out;
    out.precision(17);
    out << "ok ops=" << ops << " errors=" << errors << " seconds=" << seconds;
    return out.str();
  }

  std::string Route(const std::string& path, int repeats) {
    std::vector<RequestBatch> batches;
    if (std::string err = ReadBatches(path, &batches); !err.empty()) {
      return "error " + err;
    }
    std::vector<uint64_t> ids;
    for (const auto& b : batches) {
      for (const auto& r : b) ids.push_back(r.id);
    }
    uint64_t sink = 0, failures = 0;
    const double t0 = Now();
    for (int rep = 0; rep < repeats; ++rep) {
      for (uint64_t id : ids) {
        auto shard = engine_->RouteOf(id);
        if (shard.ok()) {
          sink += *shard;
        } else {
          ++failures;
        }
      }
    }
    const double seconds = Now() - t0;
    const double n = static_cast<double>(ids.size()) * repeats;
    std::ostringstream out;
    out.precision(17);
    out << "ok ns_per_op=" << (n > 0 ? seconds * 1e9 / n : 0)
        << " ops=" << n << " failures=" << failures << " sink=" << sink;
    return out.str();
  }

 private:
  static std::string ReadBatches(const std::string& path,
                                 std::vector<RequestBatch>* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return "cannot open " + path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    nblb::net::FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    nblb::net::Frame frame;
    while (true) {
      const auto next = decoder.Pop(&frame);
      if (next == nblb::net::FrameDecoder::Next::kNeedMore) break;
      if (next == nblb::net::FrameDecoder::Next::kError) return decoder.error();
      auto batch = nblb::net::DecodeRequestPayload(frame.payload.data(),
                                                   frame.payload.size());
      if (!batch.ok()) return batch.status().ToString();
      out->push_back(std::move(*batch));
    }
    return "";
  }

  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<nblb::net::NetServer> server_;
  MetricsSnapshot base_;
  std::map<std::string, double> base_tables_;
};

const char* BackendName(IoBackend b, const char* uring, const char* other) {
  return b == IoBackend::kUring ? uring : other;
}

int Main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  const std::string dir = flags.count("dir") ? flags.at("dir") : "";
  if (dir.empty()) {
    std::fprintf(stderr, "perfbench_server: missing --dir\n");
    return 2;
  }
  ShardedEngineOptions opts;
  opts.num_shards = kShards;
  opts.num_workers = static_cast<uint32_t>(Flag(flags, "workers"));
  opts.num_completion_threads = 0;
  opts.path_prefix = dir + "/rev";
  opts.truncate_on_open = Flag(flags, "truncate") != 0;
  opts.buffer_pool_frames_per_shard = Flag(flags, "frames");
  opts.direct_io = false;
  opts.flusher_interval_us = kFlusherUs;
  opts.wal_enabled = true;
  opts.checkpoint_every_groups = 0;
  opts.trace_sample_every = Flag(flags, "trace_every");
  opts.schema = RevisionSchema();
  opts.table_options.key_columns = {kColId};
  opts.table_options.cached_columns = ProjectedColumns();

  auto engine = ShardedEngine::Open(opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "perfbench_server: engine open: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  nblb::net::NetServerOptions sopts;
  sopts.max_inflight_per_conn = 0;      // the generator bounds its own depth
  sopts.max_inflight_global = 1 << 20;  // never shed: every frame is counted
  auto server = nblb::net::NetServer::Start(sopts, engine->get());
  if (!server.ok()) {
    std::fprintf(stderr, "perfbench_server: net start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  uint64_t rows = 0, replayed = 0;
  uint32_t direct = 0, uring = 0;
  for (uint32_t i = 0; i < (*engine)->num_shards(); ++i) {
    nblb::Shard* shard = (*engine)->shard(i);
    rows += shard->rows();
    replayed += shard->replayed_records();
    direct += shard->database()->disk()->direct_io() ? 1 : 0;
    uring += shard->database()->disk()->io_backend_in_use() == IoBackend::kUring
                 ? 1
                 : 0;
  }
  const uint32_t shards = (*engine)->num_shards();
  std::printf(
      "ready port=%u rows=%llu replayed=%llu shards=%u direct=%u "
      "disk_backend=%s net_backend=%s\n",
      (*server)->port(), static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(replayed), shards, direct,
      uring == shards ? "uring" : (uring == 0 ? "threads" : "mixed"),
      BackendName((*server)->backend_in_use(), "uring", "epoll"));
  std::fflush(stdout);

  Host host(std::move(*engine), std::move(*server));
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    std::string reply;
    if (cmd == "totals") {
      reply = host.Totals();
    } else if (cmd == "delta") {
      reply = host.Delta();
    } else if (cmd == "btree") {
      reply = host.BTree();
    } else if (cmd == "replay") {
      std::string path;
      size_t depth = 1;
      in >> path >> depth;
      reply = host.Replay(path, std::max<size_t>(depth, 1));
    } else if (cmd == "route") {
      std::string path;
      int repeats = 1;
      in >> path >> repeats;
      reply = host.Route(path, std::max(repeats, 1));
    } else if (cmd == "quit") {
      break;
    } else {
      reply = "error unknown command '" + cmd + "'";
    }
    std::printf("%s\n", reply.c_str());
    std::fflush(stdout);
  }
  host.Close();
  std::printf("bye\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
