// perfbench_gen: the end-to-end serving benchmark's generator process.
//
//   perfbench_gen --workload hot_get|cold_mixed_read
//                 --seed N --seconds N --trace 0|1 --dir RUN_DIR
//                 --server PATH_TO_perfbench_server
//
// It generates the workload's rows and keys from --seed (dataset.h), starts
// perfbench_server in a process of its own, loads the rows through the
// engine over loopback TCP, closes the server cleanly (the checkpoint),
// reopens it on the same files and warms it up: that is set-up. It then
// drives a closed-loop saturating phase and an open-loop phase at a fixed
// offered rate, sends an untimed write burst, kills the server with SIGKILL
// and reopens the files, three times over, reading every key back after the
// first and the last reopen. Every reply is checked against the benchmark's
// own answers (checker.h); any mismatch exits non-zero.
//
// With --trace 1 the same run continues on the recovered server, now with
// the engine's request tracing on, through a traced closed phase, open phase
// and write burst, a clean close and reopen, and an in-process replay, and
// reports the per-layer metrics instead of the end-to-end ones.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it carries the host stamp, configuration, sample counts
// and generator lateness.

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/row_codec.h"
#include "checker.h"
#include "dataset.h"
#include "net/wire.h"

namespace perfbench {
namespace {

using nblb::BatchResult;
using nblb::Request;
using nblb::RequestBatch;
using nblb::RequestKind;
using nblb::RequestResult;
using Clock = std::chrono::steady_clock;

constexpr size_t kBatchOps = 32;
constexpr size_t kLoadBatchRows = 256;
/// Frames in flight on the generator's one connection: closed-loop phases
/// and the load.
constexpr uint32_t kPipeline = 16;
constexpr uint32_t kLoadPipeline = 4;
constexpr size_t kPageSize = 8192;
/// The end-to-end figures are medians over windows of a timed phase, so a
/// stall of the host (a few ms of vCPU preemption every few seconds even on
/// an idle box) moves one window, not the run's figure. Throughput windows
/// are kWindowS long; latency windows hold kWindowFrames frames in due
/// order, enough for a p99 with ten samples beyond it.
constexpr double kWindowS = 0.5;
constexpr size_t kWindowFrames = 1000;
/// Kill/reopen cycles per run. The recovery time reported is the fastest of
/// them: a reopen rebuilds from the shard files through the OS page cache,
/// which the host shares, so interference only ever adds time to a cycle.
constexpr int kRecoveryCycles = 5;
/// Write-burst frames sent before every kill, so each reopen replays a WAL
/// tail of the same length.
constexpr uint64_t kBurstFrames = 256;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Workloads ---------------------------------------------------------------

/// kWriteBurst is the untimed burst every workload sends before each kill:
/// half updates, a quarter full-row gets and a quarter projections of the
/// columns the updates change.
enum class Mix { kHotGet, kColdMixed, kWriteBurst };

/// What differs between workloads. The rest of the engine configuration
/// (shards, WAL, flusher, no O_DIRECT) is fixed in perfbench_server.
struct Workload {
  std::string name;
  Mix mix = Mix::kHotGet;
  uint64_t rows = 0;
  uint32_t workers = 1;
  uint64_t frames_per_shard = 0;       // serving pool
  uint64_t load_frames_per_shard = 0;  // loader pool
  double open_rate_ops = 0;  // open-loop offered rate, ops/s
  uint64_t warm_frames = 0;  // 0: warm by reading every key once
};

bool WorkloadFor(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "hot_get") {
    w->mix = Mix::kHotGet;
    w->rows = 200000;
    // ~15.4k heap pages + index over 4 shards: every page stays resident.
    w->frames_per_shard = 6144;
    w->load_frames_per_shard = 6144;
    w->open_rate_ops = 150000;  // ~1/3 of the ~450k ops/s saturated rate
    return true;
  }
  if (name == "cold_mixed_read") {
    w->mix = Mix::kColdMixed;
    w->rows = 400000;
    // 4 x 128 frames x 8 KiB = 4 MiB, ~1.5% of the ~270 MB of shard files.
    // Pool misses are served from the OS page cache (see README: O_DIRECT
    // on this host's shared virtual disk made every latency track the host).
    w->frames_per_shard = 128;
    w->load_frames_per_shard = 2048;
    w->workers = 2;
    w->open_rate_ops = 110000;  // ~1/3 of the ~340k ops/s saturated rate
    w->warm_frames = 2048;
    return true;
  }
  return false;
}

// ---- Server process ------------------------------------------------------------

using KeyValues = std::map<std::string, double>;

KeyValues ParseKeyValues(const std::string& line) {
  KeyValues out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
  }
  return out;
}

std::string ValueOf(const std::string& line, const std::string& key) {
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok.rfind(key + "=", 0) == 0) return tok.substr(key.size() + 1);
  }
  return "";
}

/// One perfbench_server child. The destructor SIGKILLs and reaps it, so the
/// server dies on every exit path of the generator, a failed check included.
class ServerProcess {
 public:
  static std::unique_ptr<ServerProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      std::string* err) {
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      *err = "pipe: " + std::string(std::strerror(errno));
      return nullptr;
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      *err = "fork: " + std::string(std::strerror(errno));
      return nullptr;
    }
    if (pid == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    std::unique_ptr<ServerProcess> p(new ServerProcess());
    p->pid_ = pid;
    p->to_ = to_child[1];
    p->from_ = fdopen(from_child[0], "r");
    const std::string ready = p->ReadLine();
    if (ready.rfind("ready ", 0) != 0) {
      *err = "server did not start (got '" + ready + "')";
      return nullptr;
    }
    p->ready_ = ready;
    p->port_ = static_cast<uint16_t>(std::atoi(ValueOf(ready, "port").c_str()));
    return p;
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Reap(nullptr);
    }
    if (to_ >= 0) close(to_);
    if (from_ != nullptr) fclose(from_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  const std::string& ready() const { return ready_; }
  double ReadyValue(const std::string& key) const {
    return std::strtod(ValueOf(ready_, key).c_str(), nullptr);
  }

  /// Sends one control command and returns its reply line.
  std::string Command(const std::string& cmd) {
    const std::string line = cmd + "\n";
    if (write(to_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      return "error write";
    }
    return ReadLine();
  }

  /// Clean close: the server checkpoints and exits 0.
  bool Quit(struct rusage* usage) {
    const std::string bye = Command("quit");
    int status = Reap(usage);
    return bye == "bye" && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// kill -9 once every request has drained.
  void Kill9(struct rusage* usage) {
    kill(pid_, SIGKILL);
    Reap(usage);
  }

 private:
  ServerProcess() = default;

  std::string ReadLine() {
    char buf[1 << 16];
    std::string line;
    while (std::fgets(buf, sizeof(buf), from_) != nullptr) {
      line += buf;
      if (!line.empty() && line.back() == '\n') {
        line.pop_back();
        return line;
      }
    }
    return line.empty() ? "error eof" : line;
  }

  int Reap(struct rusage* usage) {
    int status = 0;
    struct rusage ru {};
    while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    if (usage != nullptr) *usage = ru;
    pid_ = -1;
    return status;
  }

  pid_t pid_ = -1;
  int to_ = -1;
  FILE* from_ = nullptr;
  uint16_t port_ = 0;
  std::string ready_;
};

// ---- Loopback connection ---------------------------------------------------------

/// One TCP connection speaking net/wire.h frames.
class Conn {
 public:
  static std::unique_ptr<Conn> Connect(uint16_t port, std::string* err) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *err = "socket: " + std::string(std::strerror(errno));
      return nullptr;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *err = "connect: " + std::string(std::strerror(errno));
      close(fd);
      return nullptr;
    }
    std::unique_ptr<Conn> c(new Conn());
    c->fd_ = fd;
    return c;
  }
  ~Conn() { close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes all of `bytes`.
  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Waits up to `timeout_ns` (< 0: forever) for bytes, then reads what is
  /// there into the frame decoder. False on a closed or failed socket.
  bool Receive(int64_t timeout_ns) {
    pollfd p{fd_, POLLIN, 0};
    timespec ts{};
    if (timeout_ns >= 0) {
      ts.tv_sec = timeout_ns / 1000000000;
      ts.tv_nsec = timeout_ns % 1000000000;
    }
    const int r = ppoll(&p, 1, timeout_ns >= 0 ? &ts : nullptr, nullptr);
    if (r < 0) return errno == EINTR;
    if (r == 0) return true;
    char buf[1 << 16];
    while (true) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.Append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) return true;
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }

  nblb::net::FrameDecoder& decoder() { return decoder_; }

 private:
  Conn() = default;
  int fd_ = -1;
  nblb::net::FrameDecoder decoder_;
};

// ---- Request sources ---------------------------------------------------------------

/// Per key: the last version sent and the last version acknowledged.
struct Versions {
  explicit Versions(uint64_t rows) : sent(rows + 1, 0), acked(rows + 1, 0) {}
  std::vector<uint32_t> sent;
  std::vector<uint32_t> acked;
};

/// Builds the connection's batches.
class Source {
 public:
  virtual ~Source() = default;
  /// Fills the next batch and what each reply must hold; false when done.
  virtual bool Next(RequestBatch* batch, std::vector<Expectation>* expect) = 0;
};

/// The workload's traffic mix on keys drawn with its skew.
class MixSource : public Source {
 public:
  MixSource(const Dataset* ds, Versions* versions, Mix mix, uint64_t seed,
            uint64_t max_frames)
      : ds_(ds), versions_(versions), mix_(mix), rng_(seed), left_(max_frames) {}

  bool Next(RequestBatch* batch, std::vector<Expectation>* expect) override {
    if (left_ == 0) return false;
    if (left_ != UINT64_MAX) --left_;
    batch->clear();
    expect->clear();
    for (size_t i = 0; i < kBatchOps; ++i) {
      const uint64_t key = ds_->SampleReadKey(&rng_);
      RequestKind kind = RequestKind::kGet;
      switch (mix_) {
        case Mix::kHotGet:
          break;
        case Mix::kColdMixed:
          if (i % 2 == 1) kind = RequestKind::kGetProjected;
          break;
        case Mix::kWriteBurst:
          // U G U P U G U P ...
          kind = i % 2 == 0   ? RequestKind::kUpdate
                 : i % 4 == 1 ? RequestKind::kGet
                              : RequestKind::kGetProjected;
          break;
      }
      Expectation e{kind, key, versions_->sent[key]};
      if (kind == RequestKind::kUpdate) {
        e.version = ++versions_->sent[key];
        batch->push_back(Request::Update(key, ds_->MakeRow(key, e.version)));
      } else if (kind == RequestKind::kGetProjected) {
        batch->push_back(Request::GetProjected(key, ProjectedColumns()));
      } else {
        batch->push_back(Request::Get(key));
      }
      expect->push_back(e);
    }
    return true;
  }

 private:
  const Dataset* ds_;
  Versions* versions_;
  Mix mix_;
  Rng rng_;
  uint64_t left_;
};

/// Every key in [lo, hi) once, as full-row gets (or inserts when loading).
class ScanSource : public Source {
 public:
  ScanSource(const Dataset* ds, const Versions* versions, uint64_t lo,
             uint64_t hi, bool insert)
      : ds_(ds), versions_(versions), next_(lo), hi_(hi), insert_(insert) {}

  bool Next(RequestBatch* batch, std::vector<Expectation>* expect) override {
    if (next_ >= hi_) return false;
    batch->clear();
    expect->clear();
    const size_t n = insert_ ? kLoadBatchRows : kBatchOps;
    for (size_t i = 0; i < n && next_ < hi_; ++i, ++next_) {
      if (insert_) {
        batch->push_back(Request::Insert(next_, ds_->MakeRow(next_, 0)));
        expect->push_back({RequestKind::kInsert, next_, 0});
      } else {
        batch->push_back(Request::Get(next_));
        expect->push_back({RequestKind::kGet, next_, versions_->sent[next_]});
      }
    }
    return true;
  }

 private:
  const Dataset* ds_;
  const Versions* versions_;
  uint64_t next_, hi_;
  bool insert_;
};

// ---- Phases ---------------------------------------------------------------------

struct PhaseSpec {
  enum Kind { kClosed, kOpen } kind = kClosed;
  /// Stop sending after this long (0: run the source to its end).
  double seconds = 0;
  uint32_t depth = 1;        // closed: frames in flight
  double frames_per_s = 0;   // open: offered frames/s
  /// Reads are checked as post-crash reads: any version in [acked, sent].
  bool recovered = false;
  /// Keep the encoded request frames of the first N frames.
  size_t record_frames = 0;
  /// Keep the first N response payloads (wire timing).
  size_t sample_responses = 0;
};

struct PhaseResult {
  double seconds = 0;
  uint64_t frames = 0;       // sent
  uint64_t ops = 0;          // sent
  uint64_t ops_checked = 0;  // replied to and found correct
  uint64_t updates = 0;
  bool incorrect = false;
  std::string error;
  // Per correct reply, in reply order:
  std::vector<double> done_s;           // reply time, from phase start
  std::vector<double> due_s;            // open: due time, from phase start
  std::vector<double> due_latency_us;   // open: due -> reply
  std::vector<double> sent_latency_us;  // send -> reply
  std::vector<double> lateness_us;      // open, per frame sent: send - due
  std::string recorded;                 // encoded request frames
  std::vector<std::string> responses;   // raw response payloads
};

struct Inflight {
  Clock::time_point due, sent;
  std::vector<Expectation> expect;
};

/// Drives one phase over one loopback connection and checks every reply.
/// The first wrong reply (an error status included) ends the phase and
/// marks it incorrect; only correct replies are timed and counted.
class PhaseRunner {
 public:
  PhaseRunner(const Dataset* ds, Versions* versions)
      : checker_(ds), versions_(versions) {}

  PhaseResult Run(uint16_t port, const PhaseSpec& spec, Source* source) {
    PhaseResult r;
    const Clock::time_point start = Clock::now();
    Drive(port, spec, source, start, &r);
    r.seconds = Seconds(start, Clock::now());
    return r;
  }

 private:
  void Drive(uint16_t port, const PhaseSpec& spec, Source* source,
             Clock::time_point start, PhaseResult* r) {
    std::string err;
    auto conn = Conn::Connect(port, &err);
    if (!conn) {
      Fail(r, err);
      return;
    }
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(spec.seconds));
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            spec.frames_per_s > 0 ? 1.0 / spec.frames_per_s : 0));
    Clock::time_point next_due = start;
    std::unordered_map<uint64_t, Inflight> inflight;
    uint64_t next_id = 1;
    bool sending = true;
    RequestBatch batch;
    std::string wire;
    nblb::net::Frame frame;

    auto send_one = [&](Clock::time_point due) {
      Inflight f;
      if (!source->Next(&batch, &f.expect)) {
        sending = false;
        return;
      }
      wire.clear();
      if (auto s = nblb::net::AppendRequestFrame(next_id, batch, &wire);
          !s.ok()) {
        Fail(r, "encode: " + s.ToString());
        return;
      }
      if (r->frames < spec.record_frames) r->recorded += wire;
      f.sent = Clock::now();
      f.due = due == Clock::time_point{} ? f.sent : due;
      if (spec.kind == PhaseSpec::kOpen) {
        r->lateness_us.push_back(
            std::chrono::duration<double, std::micro>(f.sent - f.due).count());
      }
      for (const Expectation& e : f.expect) {
        if (e.kind == RequestKind::kUpdate) ++r->updates;
      }
      r->frames += 1;
      r->ops += f.expect.size();
      inflight.emplace(next_id++, std::move(f));
      if (!conn->Send(wire)) Fail(r, "send failed");
    };

    while (!r->incorrect) {
      Clock::time_point now = Clock::now();
      if (sending && spec.seconds > 0 && now >= deadline) sending = false;
      if (sending) {
        if (spec.kind == PhaseSpec::kClosed) {
          while (sending && inflight.size() < spec.depth) send_one({});
        } else {
          while (sending && next_due <= now) {
            send_one(next_due);
            next_due += period;
          }
        }
      }
      if (!sending && inflight.empty()) break;
      int64_t timeout_ns = -1;
      if (sending && spec.kind == PhaseSpec::kOpen) {
        now = Clock::now();
        timeout_ns = next_due > now
                         ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                               next_due - now)
                               .count()
                         : 0;
      }
      if (!inflight.empty() || timeout_ns >= 0) {
        if (!conn->Receive(inflight.empty() ? timeout_ns
                                            : (timeout_ns < 0 ? 100000000
                                                              : timeout_ns))) {
          Fail(r, "connection closed by the server");
          return;
        }
      }
      while (!r->incorrect) {
        const auto next = conn->decoder().Pop(&frame);
        if (next == nblb::net::FrameDecoder::Next::kNeedMore) break;
        if (next == nblb::net::FrameDecoder::Next::kError) {
          Fail(r, "bad frame: " + conn->decoder().error());
          return;
        }
        auto it = inflight.find(frame.request_id);
        if (it == inflight.end()) {
          Fail(r, "reply to unknown request " +
                      std::to_string(frame.request_id));
          return;
        }
        const Clock::time_point done = Clock::now();
        Inflight& f = it->second;
        if (frame.type == nblb::net::FrameType::kBusy) {
          // The server runs without admission limits; a shed frame is a
          // fault, not a measured outcome.
          Fail(r, "frame " + std::to_string(frame.request_id) + " was shed");
          return;
        }
        if (r->responses.size() < spec.sample_responses) {
          r->responses.push_back(frame.payload);
        }
        auto result = nblb::net::DecodeResponsePayload(frame.payload.data(),
                                                       frame.payload.size());
        if (!result.ok() || result->results.size() != f.expect.size()) {
          Fail(r, "undecodable reply");
          return;
        }
        if (!Check(spec, f.expect, result->results, r)) return;
        r->sent_latency_us.push_back(
            std::chrono::duration<double, std::micro>(done - f.sent).count());
        r->done_s.push_back(Seconds(start, done));
        if (spec.kind == PhaseSpec::kOpen) {
          r->due_s.push_back(Seconds(start, f.due));
          r->due_latency_us.push_back(
              std::chrono::duration<double, std::micro>(done - f.due).count());
        }
        r->ops_checked += f.expect.size();
        inflight.erase(it);
      }
    }
  }

  /// Checks every reply of one frame. Any status but OK is wrong: no
  /// operation of these workloads may fail.
  bool Check(const PhaseSpec& spec, const std::vector<Expectation>& expect,
             const std::vector<RequestResult>& results, PhaseResult* r) {
    std::string why;
    for (size_t i = 0; i < expect.size(); ++i) {
      const Expectation& e = expect[i];
      const RequestResult& got = results[i];
      bool ok = true;
      if (spec.recovered && e.kind == RequestKind::kGet) {
        uint32_t version = 0;
        ok = checker_.CheckRecovered(e.key, versions_->acked[e.key],
                                     versions_->sent[e.key], got, &version,
                                     &why);
        if (ok) versions_->acked[e.key] = versions_->sent[e.key] = version;
      } else {
        ok = checker_.CheckReply(e, got, &why);
        if (ok && e.kind == RequestKind::kUpdate) {
          versions_->acked[e.key] = std::max(versions_->acked[e.key], e.version);
        }
      }
      if (!ok) {
        Fail(r, why);
        return false;
      }
    }
    return true;
  }

  static void Fail(PhaseResult* r, const std::string& why) {
    if (!r->incorrect) {
      r->incorrect = true;
      r->error = why;
    }
  }

  Checker checker_;
  Versions* versions_;
};

// ---- Helpers ---------------------------------------------------------------------

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * (xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    struct stat st {};
    const std::string path = dir + "/" + e->d_name;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

std::string FsName(const std::string& dir) {
  struct statfs sf {};
  if (statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x2fc12fc1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(xs[i]);
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

/// A timed phase cut into windows: throughput per kWindowS of reply time
/// and, for an open loop, latency quantiles per kWindowFrames frames taken
/// in due order (a trailing partial window is dropped).
struct Windows {
  std::vector<double> ops_per_s;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> p99_ms;

  Windows(const PhaseResult& r, double seconds) {
    const size_t n = std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
    std::vector<double> ops(n, 0);
    for (double t : r.done_s) {
      const size_t w = static_cast<size_t>(t / kWindowS);
      if (w < n) ops[w] += kBatchOps;
    }
    for (double o : ops) ops_per_s.push_back(o / kWindowS);

    std::vector<size_t> order(r.due_s.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return r.due_s[a] < r.due_s[b]; });
    std::vector<double> lat;
    for (size_t i = 0; i + kWindowFrames <= order.size(); i += kWindowFrames) {
      lat.clear();
      for (size_t j = i; j < i + kWindowFrames; ++j) {
        lat.push_back(r.due_latency_us[order[j]]);
      }
      p50_ms.push_back(Quantile(lat, 0.50) / 1e3);
      p90_ms.push_back(Quantile(lat, 0.90) / 1e3);
      p99_ms.push_back(Quantile(lat, 0.99) / 1e3);
    }
  }
};

struct Metric {
  std::string name, unit;
  double value;
};

// ---- The run ---------------------------------------------------------------------

class Run {
 public:
  Run(const Workload& w, uint64_t seed, double seconds, bool trace,
      std::string dir, std::string server_bin)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        dir_(std::move(dir)),
        server_bin_(std::move(server_bin)),
        ds_(seed, w.rows),
        versions_(w.rows),
        runner_(&ds_, &versions_) {}

  int Main(Clock::time_point process_start) {
    const bool ok = Body(process_start);
    std::ostringstream details;
    details << "{\"perfbench\": {\"workload\": " << JsonString(w_.name)
            << ", \"seed\": " << seed_ << ", \"trace\": " << (trace_ ? 1 : 0)
            << ", \"host\": " << HostStamp() << ", \"config\": " << ConfigJson()
            << ", \"setup\": {" << setup_.str() << "}"
            << ", \"phases\": {" << phases_.str() << "}"
            << ", \"recoveries\": [" << recovery_log_.str() << "]"
            << ", \"recovery_s\": " << JsonNumber(recovery_s_)
            << ", \"error\": " << JsonString(error_) << "}}";
    std::printf("%s\n", details.str().c_str());
    std::ostringstream out;
    // A failed operation fails the run (PhaseRunner::Check), so a finished
    // run has none to count.
    out << "{\"correct\": " << (ok ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": 0"
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? ", " : "") << JsonString(metrics_[i].name)
          << ": {\"value\": " << JsonNumber(metrics_[i].value)
          << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
  }

 private:
  bool Body(Clock::time_point process_start) {
    // ---- Set-up: inputs, load, checkpoint (clean close), reopen, warm up.
    // Each step's end is logged from the process start.
    SetupMark("generated", process_start);
    auto loader = Spawn(/*truncate=*/true, /*trace=*/false,
                        w_.load_frames_per_shard);
    if (!loader) return false;
    if (!Phase("load", loader.get(), ScanAll(/*insert=*/true),
               Closed(kLoadPipeline)) ||
        !Served("load", loader.get())) {
      return false;
    }
    SetupMark("loaded", process_start);
    if (!loader->Quit(nullptr)) return Error("loader did not close cleanly");
    loader.reset();
    disk_bytes_ = DirBytes(dir_);
    SetupMark("closed", process_start);

    auto server = Spawn(false, false, w_.frames_per_shard);
    if (!server || !RowCount("reopen", server.get())) return false;
    SetupMark("reopened", process_start);
    if (!Phase("warm", server.get(),
               w_.warm_frames == 0 ? ScanAll(false) : Mixed(11, w_.warm_frames),
               Closed(kPipeline))) {
      return false;
    }
    const double setup_s = SetupMark("warmed", process_start);

    // ---- Timed phases (untraced).
    PhaseResult closed, open;
    if (!Phase("closed", server.get(), Mixed(21, UINT64_MAX),
               Closed(kPipeline, seconds_ / 2), &closed) ||
        !Phase("open", server.get(), Mixed(31, UINT64_MAX), Open(seconds_ / 2),
               &open) ||
        !Phase("write_burst", server.get(), Burst(71), Closed(kPipeline)) ||
        !Served("serve", server.get())) {
      return false;
    }
    struct rusage ru {};
    server->Kill9(&ru);
    server.reset();

    // ---- Recovery: reopen after the kill, first correct reply, read every
    // key back. Repeated kRecoveryCycles times, each kill preceded by a
    // write burst so every reopen replays a WAL tail; the middle cycles
    // check only their first reply.
    std::vector<double> recovery_times;
    double replayed = 0;
    for (int cycle = 0; cycle < kRecoveryCycles; ++cycle) {
      const bool last = cycle + 1 == kRecoveryCycles;
      double seconds = 0;
      server = Reopen(trace_ && last, &seconds);
      if (!server || !RowCount("recovery", server.get())) return false;
      recovery_times.push_back(seconds);
      if (cycle == 0) replayed = server->ReadyValue("replayed");
      recovery_log_ << (cycle ? ", " : "") << "{\"seconds\": "
                    << JsonNumber(seconds) << ", \"replayed_records\": "
                    << JsonNumber(server->ReadyValue("replayed")) << "}";
      const std::string n = std::to_string(cycle);
      if ((cycle == 0 || last) &&
          !Phase("readback" + n, server.get(), ScanAll(false), Recovered())) {
        return false;
      }
      if (last) break;
      if (!Phase("write_burst" + n, server.get(), Burst(61 + cycle),
                 Closed(kPipeline))) {
        return false;
      }
      if (!Served("recovery", server.get())) return false;
      server->Kill9(nullptr);
    }
    recovery_s_ =
        *std::min_element(recovery_times.begin(), recovery_times.end());

    if (!trace_) {
      if (!server->Quit(nullptr)) return Error("server did not close cleanly");
      // The open loop's tail (window p90/p99, all-sample p99) and the
      // recovery time are reported in the details line only: on this host
      // neither held a 0.25 spread over ten runs (README, "Deviations").
      const Windows closed_w(closed, seconds_ / 2), open_w(open, seconds_ / 2);
      metrics_ = {
          {"setup_s", "s", setup_s},
          {"ops_per_s", "ops/s", Median(closed_w.ops_per_s)},
          {"p50_ms", "ms", Median(open_w.p50_ms)},
          {"disk_bytes_per_row", "B", Ratio(disk_bytes_, w_.rows)},
          {"server_rss_mb", "MB", ru.ru_maxrss / 1024.0},
      };
      return true;
    }
    return Traced(server.get(),
                  Median(Windows(closed, seconds_ / 2).ops_per_s), replayed);
  }

  /// The per-layer run: traced phases on the recovered server, then a clean
  /// close and reopen, an in-process replay and RouteOf timing.
  bool Traced(ServerProcess* server, double untraced_ops_per_s,
              double replayed) {
    PhaseResult closed, open;
    server->Command("delta");
    PhaseSpec closed_spec = Closed(kPipeline, seconds_ / 2);
    closed_spec.record_frames = 4096;
    closed_spec.sample_responses = 256;
    if (!Phase("traced_closed", server, Mixed(41, UINT64_MAX), closed_spec,
               &closed)) {
      return false;
    }
    const KeyValues d1 = ParseKeyValues(server->Command("delta"));
    if (!Phase("traced_open", server, Mixed(51, UINT64_MAX), Open(seconds_ / 2),
               &open)) {
      return false;
    }
    const KeyValues d2 = ParseKeyValues(server->Command("delta"));
    PhaseResult burst;
    if (!Phase("traced_write_burst", server, Burst(81), Closed(kPipeline),
               &burst)) {
      return false;
    }
    const KeyValues d3 = ParseKeyValues(server->Command("delta"));
    const KeyValues tree = ParseKeyValues(server->Command("btree"));
    if (!Served("traced", server)) return false;
    if (!server->Quit(nullptr)) return Error("server did not close cleanly");

    double clean_reopen_s = 0;
    auto reopened = Reopen(true, &clean_reopen_s);
    if (!reopened || !RowCount("clean reopen", reopened.get()) ||
        !Phase("clean_readback", reopened.get(), ScanAll(false), Recovered())) {
      return false;
    }
    const std::string replay_path = dir_ + "/replay.frames";
    {
      std::ofstream f(replay_path, std::ios::binary);
      f << closed.recorded;
    }
    const KeyValues replay = ParseKeyValues(reopened->Command(
        "replay " + replay_path + " " + std::to_string(kPipeline)));
    const KeyValues route =
        ParseKeyValues(reopened->Command("route " + replay_path + " 20"));
    if (replay.count("ops") == 0 || replay.at("errors") != 0 ||
        route.count("ns_per_op") == 0) {
      return Error("in-process replay failed");
    }
    if (!reopened->Quit(nullptr)) return Error("server did not close cleanly");

    auto at = [](const KeyValues& kv, const std::string& name) {
      auto it = kv.find(name);
      return it == kv.end() ? 0.0 : it->second;
    };
    const double ops = closed.ops_checked;
    const double updates = burst.updates;
    const double traced_ops_per_s =
        Median(Windows(closed, seconds_ / 2).ops_per_s);
    const double rt_p50 = Quantile(open.sent_latency_us, 0.5);
    const double reply_p50 = at(d2, "net.reply_latency_us.p50");
    double encode_ns = 0, decode_ns = 0;
    WireTimings(closed, &encode_ns, &decode_ns);
    double row_encode_ns = 0, row_decode_ns = 0;
    RowCodecTimings(&row_encode_ns, &row_decode_ns);
    const double hits = at(d1, "buffer_pool.hits");
    const double misses = at(d1, "buffer_pool.misses");
    metrics_ = {
        {"net.round_trip_us_p50", "us", rt_p50},
        {"net.server_reply_us_p50", "us", reply_p50},
        {"net.self_us_p50", "us", rt_p50 - reply_p50},
        {"net.wire_encode_ns_per_op", "ns", encode_ns},
        {"net.wire_decode_ns_per_op", "ns", decode_ns},
        {"net.bytes_per_op", "B",
         Ratio(at(d1, "net.bytes_in") + at(d1, "net.bytes_out"), ops)},
        {"shard.inprocess_ops_per_s", "ops/s",
         Ratio(at(replay, "ops"), at(replay, "seconds"))},
        {"shard.queue_wait_us_p50", "us", at(d2, "trace.queue_wait_us.p50")},
        {"shard.completion_us_p50", "us", at(d2, "trace.completion_us.p50")},
        {"shard.service_us_p50", "us", at(d2, "trace.service_us.p50")},
        {"shard.sub_batches_per_group", "count",
         Ratio(at(d1, "shard.sub_batches"), at(d1, "shard.coalesced_groups"))},
        {"semid.route_ns_per_op", "ns", at(route, "ns_per_op")},
        {"exec.heap_fetches_per_op", "count",
         Ratio(at(d1, "table.heap_fetches"), ops)},
        {"exec.get_batch_us_p50", "us", at(d2, "trace.get_batch_us.p50")},
        {"cache.hit_rate", "ratio",
         Ratio(at(d1, "cache.hits"), at(d1, "cache.probes"))},
        {"cache.items_cached", "count", at(d1, "cache.populates")},
        {"cache.latch_give_ups", "count", at(d1, "cache.latch_give_ups")},
        {"cache.full_invalidations", "count",
         at(d3, "cache.full_invalidations")},
        {"cache.page_cleanings", "count", at(d3, "cache.page_cleanings")},
        {"index.height", "count", at(tree, "height")},
        {"index.avg_leaf_fill", "ratio", at(tree, "avg_leaf_fill")},
        {"index.leaf_free_bytes", "B", at(tree, "leaf_free_bytes")},
        {"storage.buffer_pool.hit_rate", "ratio", Ratio(hits, hits + misses)},
        {"storage.buffer_pool.misses_per_op", "count", Ratio(misses, ops)},
        {"storage.buffer_pool.batch_fetches_per_op", "count",
         Ratio(at(d1, "buffer_pool.batch_fetches"), ops)},
        {"storage.buffer_pool.evictions_per_op", "count",
         Ratio(at(d1, "buffer_pool.evictions"), ops)},
        {"storage.buffer_pool.flusher_pages_per_update", "count",
         Ratio(at(d3, "buffer_pool.flusher_pages"), updates)},
        {"storage.buffer_pool.dirty_writebacks", "count",
         at(d3, "buffer_pool.dirty_writebacks")},
        {"storage.heap.copy_us_p50", "us", at(d2, "trace.copy_us.p50")},
        {"storage.disk.reads_per_op", "count", Ratio(at(d1, "disk.reads"), ops)},
        {"storage.disk.pages_per_async_batch", "count",
         Ratio(at(d1, "disk.async_reads"), at(d1, "disk.async_batches"))},
        {"storage.disk.io_submit_us_p50", "us", at(d2, "trace.io_submit_us.p50")},
        {"storage.disk.device_wait_us_p50", "us",
         at(d2, "trace.device_wait_us.p50")},
        {"storage.disk.writes_per_update", "count",
         Ratio(at(d3, "disk.writes"), updates)},
        {"storage.wal.records_per_commit", "count",
         Ratio(at(d3, "wal.appends"), at(d3, "wal.commits"))},
        {"storage.wal.bytes_written_per_update", "B",
         Ratio(at(d3, "wal.commit_pages") * kPageSize, updates)},
        {"storage.wal.commit_us_mean", "us",
         Ratio(at(d3, "wal.commit_micros"), at(d3, "wal.commits"))},
        {"storage.wal.checkpoints", "count", at(d3, "wal.resets")},
        {"storage.recovery.replayed_records", "count", replayed},
        {"storage.recovery.crash_reopen_s", "s", recovery_s_},
        {"storage.recovery.clean_reopen_s", "s", clean_reopen_s},
        {"catalog.row_encode_ns", "ns", row_encode_ns},
        {"catalog.row_decode_ns", "ns", row_decode_ns},
        {"catalog.encoded_row_bytes", "B",
         static_cast<double>(RevisionSchema().row_size())},
        {"trace.overhead_ratio", "ratio",
         Ratio(traced_ops_per_s, untraced_ops_per_s)},
    };
    return true;
  }

  /// Times net/wire.h on the traced phase's own request and response frames:
  /// request encode + response encode, and request decode + response decode,
  /// per operation.
  void WireTimings(const PhaseResult& phase, double* encode_ns,
                   double* decode_ns) {
    std::vector<RequestBatch> requests;
    nblb::net::FrameDecoder decoder;
    decoder.Append(phase.recorded.data(), phase.recorded.size());
    nblb::net::Frame frame;
    std::vector<std::string> request_payloads;
    while (decoder.Pop(&frame) == nblb::net::FrameDecoder::Next::kFrame &&
           request_payloads.size() < phase.responses.size()) {
      auto b = nblb::net::DecodeRequestPayload(frame.payload.data(),
                                               frame.payload.size());
      if (!b.ok()) return;
      requests.push_back(std::move(*b));
      request_payloads.push_back(frame.payload);
    }
    std::vector<BatchResult> responses;
    for (const auto& p : phase.responses) {
      auto r = nblb::net::DecodeResponsePayload(p.data(), p.size());
      if (!r.ok()) return;
      responses.push_back(std::move(*r));
    }
    if (requests.empty() || responses.empty()) return;
    uint64_t ops = 0;
    for (const auto& b : requests) ops += b.size();
    for (const auto& r : responses) ops += r.results.size();
    ops /= 2;
    const int kReps = 20;
    std::string buf;
    size_t sink = 0;
    auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t i = 0; i < requests.size(); ++i) {
        buf.clear();
        (void)nblb::net::AppendRequestFrame(i, requests[i], &buf);
        sink += buf.size();
      }
      for (size_t i = 0; i < responses.size(); ++i) {
        buf.clear();
        (void)nblb::net::AppendResponseFrame(i, responses[i], &buf);
        sink += buf.size();
      }
    }
    auto t1 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto& p : request_payloads) {
        sink += nblb::net::DecodeRequestPayload(p.data(), p.size())->size();
      }
      for (const auto& p : phase.responses) {
        sink += nblb::net::DecodeResponsePayload(p.data(), p.size())
                    ->results.size();
      }
    }
    auto t2 = Clock::now();
    const double n = static_cast<double>(ops) * kReps;
    *encode_ns = Seconds(t0, t1) * 1e9 / n;
    *decode_ns = Seconds(t1, t2) * 1e9 / n;
    if (sink == 0) *encode_ns = *decode_ns = 0;  // keeps the calls live
  }

  /// Times RowCodec encode and decode of the workload's rows.
  void RowCodecTimings(double* encode_ns, double* decode_ns) {
    const nblb::Schema schema = RevisionSchema();
    const nblb::RowCodec codec(&schema);
    const size_t n = 4096;
    Rng rng(seed_ ^ 0xc0dec);
    std::vector<nblb::Row> rows;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = ds_.SampleReadKey(&rng);
      rows.push_back(ds_.MakeRow(key, versions_.sent[key]));
    }
    std::string buf(schema.row_size() * n, '\0');
    const int kReps = 20;
    uint64_t sink = 0;
    auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t i = 0; i < n; ++i) {
        sink += codec.Encode(rows[i], &buf[i * schema.row_size()]).ok();
      }
    }
    auto t1 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t i = 0; i < n; ++i) {
        sink += codec.Decode(&buf[i * schema.row_size()]).size();
      }
    }
    auto t2 = Clock::now();
    *encode_ns = Seconds(t0, t1) * 1e9 / (n * kReps);
    *decode_ns = Seconds(t1, t2) * 1e9 / (n * kReps);
    if (sink == 0) *encode_ns = *decode_ns = 0;  // keeps the calls live
  }

  // ---- Phase plumbing ----------------------------------------------------------

  PhaseSpec Closed(uint32_t depth, double seconds = 0) const {
    PhaseSpec s;
    s.kind = PhaseSpec::kClosed;
    s.depth = depth;
    s.seconds = seconds;
    return s;
  }
  PhaseSpec Open(double seconds) const {
    PhaseSpec s;
    s.kind = PhaseSpec::kOpen;
    s.seconds = seconds;
    s.frames_per_s = w_.open_rate_ops / kBatchOps;
    return s;
  }
  PhaseSpec Recovered() const {
    PhaseSpec s = Closed(kPipeline);
    s.recovered = true;
    return s;
  }

  std::unique_ptr<Source> ScanAll(bool insert) {
    return std::make_unique<ScanSource>(&ds_, &versions_, 1, w_.rows + 1,
                                        insert);
  }

  std::unique_ptr<Source> Mixed(uint64_t stream, uint64_t frames,
                                Mix mix) {
    return std::make_unique<MixSource>(
        &ds_, &versions_, mix, Mix64(seed_ * 1000003 + stream * 64), frames);
  }
  std::unique_ptr<Source> Mixed(uint64_t stream, uint64_t frames) {
    return Mixed(stream, frames, w_.mix);
  }
  std::unique_ptr<Source> Burst(uint64_t stream) {
    return Mixed(stream, kBurstFrames, Mix::kWriteBurst);
  }

  bool Phase(const std::string& name, ServerProcess* server,
             std::unique_ptr<Source> source, const PhaseSpec& spec,
             PhaseResult* out = nullptr) {
    PhaseResult r = runner_.Run(server->port(), spec, source.get());
    attempted_ += r.ops;
    sent_ops_ += r.ops;
    sent_frames_ += r.frames;
    if (phases_.tellp() > 0) phases_ << ", ";
    phases_ << JsonString(name) << ": {\"seconds\": " << JsonNumber(r.seconds)
            << ", \"frames\": " << r.frames << ", \"ops\": " << r.ops
            << ", \"ops_per_s\": "
            << JsonNumber(Ratio(r.ops_checked, r.seconds));
    if (spec.seconds > 0) {
      const Windows w(r, spec.seconds);
      phases_ << ", \"window_s\": " << JsonNumber(kWindowS)
              << ", \"window_ops_per_s\": " << JsonList(w.ops_per_s);
      if (spec.kind == PhaseSpec::kOpen) {
        phases_ << ", \"window_frames\": " << kWindowFrames
                << ", \"window_p50_ms\": " << JsonList(w.p50_ms)
                << ", \"window_p90_ms\": " << JsonList(w.p90_ms)
                << ", \"window_p99_ms\": " << JsonList(w.p99_ms)
                << ", \"median_window_p99_ms\": " << JsonNumber(Median(w.p99_ms));
      }
    }
    if (spec.kind == PhaseSpec::kOpen) {
      phases_ << ", \"offered_ops_per_s\": " << JsonNumber(w_.open_rate_ops)
              << ", \"latency_samples\": " << r.due_latency_us.size()
              << ", \"p50_ms\": "
              << JsonNumber(Quantile(r.due_latency_us, 0.5) / 1e3)
              << ", \"p99_ms\": "
              << JsonNumber(Quantile(r.due_latency_us, 0.99) / 1e3)
              << ", \"lateness_us_p50\": "
              << JsonNumber(Quantile(r.lateness_us, 0.5))
              << ", \"lateness_us_p99\": "
              << JsonNumber(Quantile(r.lateness_us, 0.99))
              << ", \"lateness_us_max\": "
              << JsonNumber(Quantile(r.lateness_us, 1.0));
    }
    phases_ << "}";
    if (r.incorrect) return Error(name + ": " + r.error);
    if (out != nullptr) *out = std::move(r);
    return true;
  }

  /// The server's served-request counters must match what was sent to it.
  bool Served(const char* what, ServerProcess* server) {
    const KeyValues totals = ParseKeyValues(server->Command("totals"));
    std::string why;
    if (!Checker::CheckServedCount(std::string(what) + " requests",
                                   totals.count("engine.requests")
                                       ? totals.at("engine.requests")
                                       : 0,
                                   sent_ops_, &why) ||
        !Checker::CheckServedCount(std::string(what) + " frames",
                                   totals.count("net.frames_in")
                                       ? totals.at("net.frames_in")
                                       : 0,
                                   sent_frames_, &why)) {
      return Error(why);
    }
    return true;
  }

  bool RowCount(const char* what, ServerProcess* server) {
    std::string why;
    if (!Checker::CheckServedCount(std::string(what) + " row count",
                                   server->ReadyValue("rows"), w_.rows, &why)) {
      return Error(why);
    }
    return true;
  }

  std::unique_ptr<ServerProcess> Spawn(bool truncate, bool trace,
                                       uint64_t frames) {
    const std::vector<std::string> args = {
        "--dir", dir_,
        "--workers", std::to_string(w_.workers),
        "--frames", std::to_string(frames),
        "--trace_every", trace ? "16" : "0",
        "--truncate", truncate ? "1" : "0",
    };
    std::string err;
    auto p = ServerProcess::Spawn(server_bin_, args, &err);
    if (!p) {
      Error(err);
      return nullptr;
    }
    sent_ops_ = sent_frames_ = 0;  // the counters are per server process
    last_ready_ = p->ready();
    return p;
  }

  /// Reopens the shard files; *seconds runs from the spawn to the first
  /// correct reply.
  std::unique_ptr<ServerProcess> Reopen(bool trace, double* seconds) {
    const Clock::time_point t0 = Clock::now();
    auto server = Spawn(false, trace, w_.frames_per_shard);
    if (!server) return nullptr;
    ScanSource one(&ds_, &versions_, 1, 2, /*insert=*/false);
    PhaseResult r = runner_.Run(server->port(), Recovered(), &one);
    *seconds = Seconds(t0, Clock::now());
    attempted_ += r.ops;
    sent_ops_ += r.ops;
    sent_frames_ += r.frames;
    if (r.incorrect || r.ops_checked != 1) {
      Error("first read after reopen: " + r.error);
      return nullptr;
    }
    return server;
  }

  /// Logs a set-up step's end and returns its time from the process start.
  double SetupMark(const char* step, Clock::time_point process_start) {
    const double s = Seconds(process_start, Clock::now());
    setup_ << (setup_.tellp() > 0 ? ", " : "") << JsonString(step) << ": "
           << JsonNumber(s);
    return s;
  }

  bool Error(const std::string& why) {
    if (error_.empty()) error_ = why;
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    return false;
  }

  std::string HostStamp() const {
    struct utsname u {};
    uname(&u);
    const char* sha = std::getenv("PERFBENCH_GIT_SHA");
    std::ostringstream o;
    o << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel\": " << JsonString(u.release)
      << ", \"data_fs\": " << JsonString(FsName(dir_))
      << ", \"o_direct_shards\": " << JsonString(ValueOf(last_ready_, "direct"))
      << ", \"o_direct_all_shards\": "
      << (ValueOf(last_ready_, "shards") == ValueOf(last_ready_, "direct")
              ? "true"
              : "false")
      << ", \"disk_io_backend\": "
      << JsonString(ValueOf(last_ready_, "disk_backend"))
      << ", \"net_loop_backend\": "
      << JsonString(ValueOf(last_ready_, "net_backend"))
      << ", \"git_sha\": " << JsonString(sha ? sha : "unknown") << "}";
    return o.str();
  }

  std::string ConfigJson() const {
    std::ostringstream o;
    o << "{\"rows\": " << w_.rows << ", \"workers\": " << w_.workers
      << ", \"pool_frames_per_shard\": " << w_.frames_per_shard
      << ", \"load_pool_frames_per_shard\": " << w_.load_frames_per_shard
      << ", \"page_size\": " << kPageSize
      << ", \"server\": " << JsonString(last_ready_)
      << ", \"write_burst_frames\": " << kBurstFrames
      << ", \"connections\": 1, \"pipeline\": " << kPipeline
      << ", \"batch_ops\": " << kBatchOps
      << ", \"open_rate_ops_per_s\": " << JsonNumber(w_.open_rate_ops)
      << ", \"seconds\": " << JsonNumber(seconds_)
      << ", \"row_content_bytes\": " << JsonNumber(ds_.MeanContentBytes())
      << ", \"encoded_row_bytes\": " << RevisionSchema().row_size() << "}";
    return o.str();
  }

  const Workload w_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string dir_;
  const std::string server_bin_;
  Dataset ds_;
  Versions versions_;
  PhaseRunner runner_;

  uint64_t attempted_ = 0;
  uint64_t sent_ops_ = 0;     // to the current server process
  uint64_t sent_frames_ = 0;  // to the current server process
  uint64_t disk_bytes_ = 0;
  double recovery_s_ = 0;
  std::string last_ready_;
  std::string error_;
  std::ostringstream setup_;
  std::ostringstream phases_;
  std::ostringstream recovery_log_;
  std::vector<Metric> metrics_;
};

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) flags[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "dir", "server"}) {
    if (flags.count(required) == 0) {
      std::fprintf(stderr, "perfbench_gen: missing --%s\n", required);
      return 2;
    }
  }
  Workload w;
  if (!WorkloadFor(flags["workload"], &w)) {
    std::fprintf(stderr, "perfbench_gen: unknown workload '%s'\n",
                 flags["workload"].c_str());
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // sharp open-loop send times
  Run run(w, std::strtoull(flags["seed"].c_str(), nullptr, 10),
          std::strtod(flags["seconds"].c_str(), nullptr),
          flags["trace"] == "1", flags["dir"], flags["server"]);
  return run.Main(process_start);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
