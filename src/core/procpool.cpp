#include "core/procpool.hpp"

#include <csignal>
#include <cstring>
#include <utility>

#include <errno.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

IsolationMode parse_isolation_mode(const std::string& text) {
  if (text == "thread") return IsolationMode::Thread;
  if (text == "process") return IsolationMode::Process;
  throw ConfigError("isolation: must be one of thread|process, got '" + text +
                    "'");
}

const char* to_string(IsolationMode mode) noexcept {
  switch (mode) {
    case IsolationMode::Thread: return "thread";
    case IsolationMode::Process: return "process";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// Wire format: length-prefixed frames of little-endian scalars + strings.
// ---------------------------------------------------------------------------

// A frame larger than this is protocol corruption, not a big autopsy.
constexpr std::uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  void raw(const std::string& s) { buf_.append(s); }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > buf_.size()) return false;
    v = static_cast<std::uint8_t>(buf_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    v = 0;
    for (int i = 0; i < 4; ++i) {
      std::uint8_t b = 0;
      if (!u8(b)) return false;
      v |= static_cast<std::uint32_t>(b) << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    v = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t b = 0;
      if (!u8(b)) return false;
      v |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (pos_ + n > buf_.size()) return false;
    s.assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }
  bool done() const { return pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_full(int fd, void* data, std::size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF mid-frame
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_frame(int fd, const std::string& payload) {
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char hdr[4];
  for (int i = 0; i < 4; ++i) hdr[i] = static_cast<unsigned char>(len >> (8 * i));
  return write_full(fd, hdr, sizeof(hdr)) &&
         write_full(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload) {
  unsigned char hdr[4];
  if (!read_full(fd, hdr, sizeof(hdr))) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  if (len > kMaxFrameBytes) return false;
  payload.resize(len);
  return len == 0 || read_full(fd, payload.data(), len);
}

enum class DeadlineRead { Ok, Timeout, Closed };

/// read_frame with a deadline: the server writes a reply frame in one
/// burst, so per-chunk polling only has to bridge scheduler hiccups.
DeadlineRead read_frame_deadline(int fd, std::string& payload,
                                 std::chrono::steady_clock::time_point deadline) {
  std::size_t want = 4;  // header first, then the payload
  std::string raw;
  bool header_done = false;
  std::uint32_t len = 0;
  std::size_t got = 0;
  raw.resize(want);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return DeadlineRead::Timeout;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1,
                          static_cast<int>(std::min<std::int64_t>(
                              remaining.count(), 60'000)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return DeadlineRead::Closed;
    }
    if (pr == 0) continue;  // re-check the deadline
    const ssize_t r = ::read(fd, raw.data() + got, want - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return DeadlineRead::Closed;
    }
    if (r == 0) return DeadlineRead::Closed;
    got += static_cast<std::size_t>(r);
    if (got < want) continue;
    if (!header_done) {
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(raw[i]))
               << (8 * i);
      }
      if (len > kMaxFrameBytes) return DeadlineRead::Closed;
      header_done = true;
      raw.clear();
      raw.resize(len);
      want = len;
      got = 0;
      if (len == 0) break;
      continue;
    }
    break;
  }
  payload = std::move(raw);
  return DeadlineRead::Ok;
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

std::string encode_work(const procpool::WorkItem& item, std::uint64_t seq) {
  ByteWriter w;
  w.u64(seq);
  w.u32(item.site_id);
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(item.rank)));
  w.u64(item.invocation);
  w.u8(item.param);
  w.u8(static_cast<std::uint8_t>(item.fault.model));
  w.u8(static_cast<std::uint8_t>(item.fault.trigger));
  w.f64(item.fault.probability);
  w.u64(item.fault.window);
  w.u64(item.fault.duty_k);
  w.u64(item.trial);
  w.u64(item.step_budget.size());
  for (const std::uint64_t budget : item.step_budget) w.u64(budget);
  return w.bytes();
}

bool decode_work(const std::string& payload, procpool::WorkItem& item,
                 std::uint64_t& seq) {
  ByteReader r(payload);
  std::uint64_t rank = 0;
  std::uint8_t model = 0;
  std::uint8_t trigger = 0;
  if (!r.u64(seq) || !r.u32(item.site_id) || !r.u64(rank) ||
      !r.u64(item.invocation) || !r.u8(item.param) || !r.u8(model) ||
      !r.u8(trigger) || !r.f64(item.fault.probability) ||
      !r.u64(item.fault.window) || !r.u64(item.fault.duty_k) ||
      !r.u64(item.trial)) {
    return false;
  }
  std::uint64_t nbudgets = 0;
  if (!r.u64(nbudgets) || nbudgets > kMaxFrameBytes / 8) return false;
  item.step_budget.resize(static_cast<std::size_t>(nbudgets));
  for (auto& budget : item.step_budget) {
    if (!r.u64(budget)) return false;
  }
  if (!r.done()) return false;
  item.rank = static_cast<int>(static_cast<std::int64_t>(rank));
  item.fault.model = static_cast<inject::FaultModel>(model);
  item.fault.trigger = static_cast<inject::FaultTrigger>(trigger);
  return true;
}

std::string encode_reply(const procpool::TrialReply& reply) {
  ByteWriter w;
  w.u8(reply.ok ? 1 : 0);
  if (reply.ok) {
    w.u8(static_cast<std::uint8_t>(reply.outcome));
    w.u8(reply.deterministic_hang ? 1 : 0);
    w.str(reply.autopsy);
  } else {
    w.str(reply.error);
  }
  return w.bytes();
}

bool decode_reply(ByteReader& r, procpool::TrialReply& reply) {
  std::uint8_t ok = 0;
  if (!r.u8(ok)) return false;
  reply.ok = ok != 0;
  if (reply.ok) {
    std::uint8_t outcome = 0;
    std::uint8_t det = 0;
    if (!r.u8(outcome) || !r.u8(det) || !r.str(reply.autopsy)) {
      return false;
    }
    if (outcome >= inject::kNumOutcomes) return false;
    reply.outcome = static_cast<inject::Outcome>(outcome);
    reply.deterministic_hang = det != 0;
  } else {
    if (!r.str(reply.error)) return false;
  }
  return true;
}

/// True when `a` and `b` are trials of the same point: every field but
/// the trial ordinal agrees. Such items share their fault-free prefix.
bool same_point(const procpool::WorkItem& a, const procpool::WorkItem& b) {
  return a.site_id == b.site_id && a.rank == b.rank &&
         a.invocation == b.invocation && a.param == b.param &&
         a.fault == b.fault && a.step_budget == b.step_budget;
}

/// Consolidated reply kinds (server → supervisor, cut holder → server).
enum class ReplyKind : std::uint8_t {
  Completed = 0,    ///< child exited 0 with a TrialReply
  SignalDeath = 1,  ///< child killed by a signal
  BadExit = 2,      ///< child exited (possibly nonzero) without a reply
  ServeError = 3,   ///< server-side failure (fork/pipe), trial not run
};

/// The first byte of every frame a trial process writes to its parent.
enum class Report : std::uint8_t {
  Final = 0,  ///< the process's own TrialReply; it exits right after
  Held = 1,   ///< a cut holder's consolidated reply for one trial child
};

/// Where a trial process reports, and (while it may still become a cut
/// holder) where its server routes further trials of its point. A trial
/// process is single-threaded, so plain process-wide state is enough.
struct TrialProcess {
  int report_fd = -1;
  int cut_fd = -1;  ///< >= 0 only before the cut, in the server's child
};
TrialProcess g_trial;

void serve_error(ByteWriter& out, const char* what) {
  out.u8(static_cast<std::uint8_t>(ReplyKind::ServeError));
  out.str(std::string(what) + std::strerror(errno));
}

/// Reaps trial process `pid` and appends its consolidated reply to `out`:
/// the TrialReply it wrote (`reply`, null if none) when it then exited
/// cleanly, else what its wait4 status and rusage say happened.
void consolidate(ByteWriter& out, pid_t pid, const std::string* reply) {
  int status = 0;
  struct rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {}
  if (WIFSIGNALED(status)) {
    out.u8(static_cast<std::uint8_t>(ReplyKind::SignalDeath));
    out.u32(static_cast<std::uint32_t>(WTERMSIG(status)));
    out.u64(static_cast<std::uint64_t>(ru.ru_utime.tv_sec) * 1'000'000 +
            static_cast<std::uint64_t>(ru.ru_utime.tv_usec));
    out.u64(static_cast<std::uint64_t>(ru.ru_stime.tv_sec) * 1'000'000 +
            static_cast<std::uint64_t>(ru.ru_stime.tv_usec));
    out.u64(static_cast<std::uint64_t>(ru.ru_maxrss));
  } else if (reply != nullptr && WIFEXITED(status) &&
             WEXITSTATUS(status) == 0) {
    // Forward the child's reply verbatim inside the consolidated frame.
    out.u8(static_cast<std::uint8_t>(ReplyKind::Completed));
    out.raw(*reply);
  } else {
    out.u8(static_cast<std::uint8_t>(ReplyKind::BadExit));
    out.u32(static_cast<std::uint32_t>(
        WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  }
}

/// Reads one report frame of a trial process: false on EOF (it died or
/// exited without reporting). `body` is the frame without its Report byte.
bool read_report(int fd, Report& kind, std::string& body) {
  std::string frame;
  if (!read_frame(fd, frame) || frame.empty()) return false;
  kind = static_cast<Report>(frame[0]);
  body.assign(frame, 1);
  return true;
}

/// Body of every trial process the server forks: runs the trial and
/// reports its reply. In a trial child forked at the cut, fn returns here
/// too, with g_trial pointing at the holder.
[[noreturn]] void run_trial_process(const procpool::TrialFn& fn,
                                    const procpool::WorkItem& item) {
  // A trial process exists to die of the signal its trial raises: a
  // handler inherited from the runtime (a sanitizer's) would turn that
  // death into an exit.
  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(signo, SIG_DFL);
  }
  const procpool::TrialReply reply = fn(item);
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Report::Final));
  out.raw(encode_reply(reply));
  // _Exit, not exit: the supervisor's journal fd and stdio buffers are
  // duplicated here and must never see a write or flush from this process.
  write_frame(g_trial.report_fd, out.bytes());
  std::_Exit(0);
}

// ---------------------------------------------------------------------------
// The fork-server: single-threaded after fork. Per point it forks one
// trial process, which runs from scratch or becomes the point's cut
// holder; each further trial of that point goes to the holder.
// ---------------------------------------------------------------------------

/// The server's current trial process: a candidate until its first Held
/// report, the holder of `point`'s cut after it.
struct Holder {
  pid_t pid = -1;
  int to = -1;    ///< server → holder: trial ordinals of `point`
  int from = -1;  ///< holder → server: reports
  bool holding = false;
  procpool::WorkItem point;
};

void close_holder(Holder& holder) {
  ::close(holder.to);
  ::close(holder.from);
  holder = Holder{};
}

/// Ends the holder: EOF on its trial pipe makes it exit, then reap it.
void end_holder(Holder& holder) {
  if (holder.pid <= 0) return;
  const pid_t pid = holder.pid;
  close_holder(holder);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
}

bool send_trial(int fd, std::uint64_t trial) {
  ByteWriter w;
  w.u64(trial);
  return write_frame(fd, w.bytes());
}

/// Forks the trial process for `item` into `holder`; on failure writes a
/// ServeError into `out` and returns false.
bool start_trial_process(Holder& holder, const procpool::WorkItem& item,
                         int cmd_fd, int result_fd,
                         const procpool::TrialFn& fn, ByteWriter& out) {
  int up[2] = {-1, -1};
  int down[2] = {-1, -1};
  if (::pipe(up) != 0) {
    serve_error(out, "fork-server: pipe failed: ");
    return false;
  }
  if (::pipe(down) != 0) {
    serve_error(out, "fork-server: pipe failed: ");
    ::close(up[0]);
    ::close(up[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(cmd_fd);
    ::close(result_fd);
    ::close(up[0]);
    ::close(down[1]);
    g_trial = TrialProcess{up[1], down[0]};
    run_trial_process(fn, item);
  }
  if (pid < 0) serve_error(out, "fork-server: fork failed: ");
  ::close(up[1]);
  ::close(down[0]);
  if (pid < 0) {
    ::close(up[0]);
    ::close(down[1]);
    return false;
  }
  holder = Holder{pid, down[1], up[0], false, item};
  return true;
}

[[noreturn]] void serve(int cmd_fd, int result_fd, const procpool::TrialFn& fn) {
  Holder holder;
  for (;;) {
    std::string frame;
    if (!read_frame(cmd_fd, frame)) {  // supervisor closed
      end_holder(holder);
      std::_Exit(0);
    }
    procpool::WorkItem item;
    std::uint64_t seq = 0;
    if (!decode_work(frame, item, seq)) std::_Exit(3);

    ByteWriter out;
    out.u64(seq);
    // Another point's holder is of no further use; a holder that cannot
    // take the trial is gone.
    if (holder.pid > 0 && !(same_point(holder.point, item) &&
                            send_trial(holder.to, item.trial))) {
      end_holder(holder);
    }
    if (holder.pid <= 0 &&
        !start_trial_process(holder, item, cmd_fd, result_fd, fn, out)) {
      if (!write_frame(result_fd, out.bytes())) std::_Exit(0);
      continue;
    }

    // A wedged process never reports and never exits; this read then
    // blocks until the supervisor's lease expires and SIGKILLs the whole
    // lane process group (server, holder, child).
    Report kind = Report::Final;
    std::string body;
    const bool got = read_report(holder.from, kind, body);
    if (got && kind == Report::Held) {
      holder.holding = true;
      out.u8(1);  // from the cut
      out.raw(body);
    } else if (holder.holding) {
      // The holder itself died between trials: the trial never ran, a
      // harness condition the campaign's retry guard handles.
      end_holder(holder);
      out.u8(0);
      out.u8(static_cast<std::uint8_t>(ReplyKind::ServeError));
      out.str("cut holder died before running the trial");
    } else {
      // The trial process ran to its end without reaching a cut: it is an
      // ordinary from-scratch trial child.
      out.u8(0);
      consolidate(out, holder.pid,
                  got && kind == Report::Final ? &body : nullptr);
      close_holder(holder);
    }
    if (!write_frame(result_fd, out.bytes())) std::_Exit(0);
  }
}

void ignore_sigpipe_once() {
  // A write to a lane whose server just died must surface as EPIPE (a
  // LaneFailure the campaign retries), not kill the supervisor.
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

std::string signal_name(int signo) {
  switch (signo) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(signo);
  }
}

}  // namespace

namespace procpool {

std::uint64_t hold_at_cut(std::uint64_t trial) {
  if (g_trial.cut_fd < 0) return trial;
  const int server_fd = g_trial.report_fd;
  const int cut_fd = std::exchange(g_trial.cut_fd, -1);
  for (;;) {
    ByteWriter out;
    out.u8(static_cast<std::uint8_t>(Report::Held));
    int report[2] = {-1, -1};
    if (::pipe(report) != 0) {
      serve_error(out, "cut holder: pipe failed: ");
    } else {
      const pid_t child = ::fork();
      if (child == 0) {
        // The trial child: back into the world at the cut, as `trial`.
        ::close(server_fd);
        ::close(cut_fd);
        ::close(report[0]);
        g_trial.report_fd = report[1];
        return trial;
      }
      if (child < 0) serve_error(out, "cut holder: fork failed: ");
      ::close(report[1]);
      if (child > 0) {
        Report kind = Report::Final;
        std::string body;
        const bool got = read_report(report[0], kind, body);
        consolidate(out, child,
                    got && kind == Report::Final ? &body : nullptr);
      }
      ::close(report[0]);
    }
    if (!write_frame(server_fd, out.bytes())) std::_Exit(0);
    std::string frame;
    if (!read_frame(cut_fd, frame)) std::_Exit(0);  // the server ended it
    ByteReader reader(frame);
    if (!reader.u64(trial) || !reader.done()) std::_Exit(3);
  }
}

}  // namespace procpool

ProcPool::ProcPool(Options options, procpool::TrialFn fn)
    : options_(options), fn_(std::move(fn)) {
  if (options_.lanes < 1) {
    throw ConfigError("ProcPool: lanes must be >= 1");
  }
  if (!fn_) throw InternalError("ProcPool: trial function must be set");
  ignore_sigpipe_once();
  lanes_.resize(options_.lanes);
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t alive = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (spawn_locked(lanes_[i], /*is_respawn=*/false)) ++alive;
    free_.push_back(i);
  }
  if (alive == 0) {
    throw InternalError("ProcPool: could not spawn any fork-server lane");
  }
}

ProcPool::~ProcPool() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Closing the command pipe is the shutdown signal: the server's next
  // read sees EOF and _exits. No trial is outstanding here — the
  // scheduler joins its workers before the campaign tears the pool down.
  for (auto& lane : lanes_) {
    if (lane.cmd_fd >= 0) ::close(lane.cmd_fd);
    if (lane.result_fd >= 0) ::close(lane.result_fd);
    lane.cmd_fd = lane.result_fd = -1;
  }
  for (auto& lane : lanes_) {
    if (lane.pid <= 0) continue;
    // Grace period, then escalate: a server mid-teardown exits on EOF in
    // microseconds; anything still alive after the grace is wedged.
    int status = 0;
    bool reaped = false;
    for (int spin = 0; spin < 200; ++spin) {
      const pid_t r = ::waitpid(lane.pid, &status, WNOHANG);
      if (r == lane.pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::usleep(10'000);
    }
    if (!reaped) {
      ::killpg(lane.pid, SIGKILL);
      while (::waitpid(lane.pid, &status, 0) < 0 && errno == EINTR) {}
    }
    lane.pid = 0;
  }
}

bool ProcPool::spawn_locked(Lane& lane, bool is_respawn) {
  if (is_respawn) {
    if (respawns_used_ >= options_.respawn_budget) {
      degraded_ = true;
      return false;
    }
    ++respawns_used_;
    ++stats_.respawns;
  }
  int cmd[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(cmd) != 0) return false;
  if (::pipe(res) != 0) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    return false;
  }
  // Every parent-side fd of every other lane, so the fresh server can
  // drop them: a sibling holding a dead lane's pipe ends would keep that
  // lane's EOF from ever arriving.
  std::vector<int> parent_fds;
  for (const auto& other : lanes_) {
    if (other.cmd_fd >= 0) parent_fds.push_back(other.cmd_fd);
    if (other.result_fd >= 0) parent_fds.push_back(other.result_fd);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Fork-server child: own process group (so one killpg reaps the
    // server and its current trial child together), no foreign fds, and
    // the caller's child_init (e.g. telemetry disable) before serving.
    ::setpgid(0, 0);
    ::close(cmd[1]);
    ::close(res[0]);
    for (int fd : parent_fds) ::close(fd);
    try {
      if (options_.child_init) options_.child_init();
    } catch (...) {
      // Serving with a failed init is better than losing the lane.
    }
    serve(cmd[0], res[1], fn_);
  }
  if (pid < 0) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    ::close(res[0]);
    ::close(res[1]);
    return false;
  }
  ::setpgid(pid, pid);  // also from the parent: closes the killpg race
  ::close(cmd[0]);
  ::close(res[1]);
  lane.pid = static_cast<int>(pid);
  lane.cmd_fd = cmd[1];
  lane.result_fd = res[0];
  lane.seq = 0;
  lane.point.reset();
  lane.last_use = 0;
  ++stats_.servers_spawned;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& spawns = rec.counter(
        "fastfit_worker_spawns_total",
        "Fork-server lane spawns (initial + respawns after a lane loss)");
    spawns.add();
  }
  return true;
}

void ProcPool::kill_lane_locked(Lane& lane) {
  if (lane.pid > 0) {
    ::killpg(lane.pid, SIGKILL);
    int status = 0;
    while (::waitpid(lane.pid, &status, 0) < 0 && errno == EINTR) {}
  }
  if (lane.cmd_fd >= 0) ::close(lane.cmd_fd);
  if (lane.result_fd >= 0) ::close(lane.result_fd);
  lane.pid = 0;
  lane.cmd_fd = lane.result_fd = -1;
  lane.point.reset();
  lane.last_use = 0;
}

std::size_t ProcPool::acquire_lane(const procpool::WorkItem& item) {
  std::unique_lock<std::mutex> lock(mutex_);
  lane_available_.wait(lock, [this] { return !free_.empty(); });
  // The lane whose server may hold this item's cut; else the one whose
  // holder has been idle longest (lanes without one come first).
  auto pick = free_.begin();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const Lane& lane = lanes_[*it];
    if (lane.point && same_point(*lane.point, item)) {
      pick = it;
      break;
    }
    if (lane.last_use < lanes_[*pick].last_use) pick = it;
  }
  const std::size_t index = *pick;
  free_.erase(pick);
  return index;
}

void ProcPool::release_lane(std::size_t index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(index);
  }
  lane_available_.notify_one();
}

bool ProcPool::degraded() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

ProcPool::Stats ProcPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<int> ProcPool::server_pids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> pids;
  pids.reserve(lanes_.size());
  for (const auto& lane : lanes_) pids.push_back(lane.pid);
  return pids;
}

ProcPool::Result ProcPool::run(const procpool::WorkItem& item,
                               std::chrono::milliseconds lease) {
  tel::ScopedSpan span("worker-dispatch");
  Result result;
  const std::size_t index = acquire_lane(item);
  struct Release {
    ProcPool& pool;
    std::size_t index;
    ~Release() { pool.release_lane(index); }
  } release{*this, index};

  std::uint64_t seq = 0;
  int cmd_fd = -1;
  int result_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Lane& lane = lanes_[index];
    if (lane.pid <= 0 && !spawn_locked(lane, /*is_respawn=*/true)) {
      ++stats_.lane_failures;
      result.kind = Result::Kind::LaneFailure;
      result.error = degraded_
                         ? "worker respawn budget exhausted; pool degraded"
                         : "fork-server respawn failed";
      return result;
    }
    ++stats_.trials_dispatched;
    seq = ++lane.seq;
    lane.point = item;
    lane.last_use = ++uses_;
    cmd_fd = lane.cmd_fd;
    result_fd = lane.result_fd;
  }
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& dispatched = rec.counter(
        "fastfit_worker_trials_total",
        "Trials dispatched to fork-server worker processes");
    dispatched.add();
  }

  // Holding no lock across the blocking I/O: only this thread owns the
  // lane until release, so the fds cannot be closed under it.
  if (!write_frame(cmd_fd, encode_work(item, seq))) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
    result.kind = Result::Kind::LaneFailure;
    result.error = "fork-server command pipe closed (server died)";
    return result;
  }

  std::string frame;
  const auto deadline = std::chrono::steady_clock::now() + lease;
  const auto read_status = read_frame_deadline(result_fd, frame, deadline);
  if (read_status == DeadlineRead::Timeout) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lease_kills;
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& kills = rec.counter(
          "fastfit_worker_lease_kills_total",
          "Worker lanes SIGKILLed for exceeding the trial lease deadline");
      kills.add();
    }
    result.kind = Result::Kind::LeaseExpired;
    result.error = "trial worker exceeded its " +
                   std::to_string(lease.count()) +
                   " ms lease; lane SIGKILLed";
    return result;
  }
  if (read_status == DeadlineRead::Closed) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
    result.kind = Result::Kind::LaneFailure;
    result.error = "fork-server result pipe closed (server died)";
    return result;
  }

  ByteReader reader(frame);
  std::uint64_t got_seq = 0;
  std::uint8_t from_cut = 0;
  std::uint8_t kind_raw = 0;
  bool parsed =
      reader.u64(got_seq) && reader.u8(from_cut) && reader.u8(kind_raw);
  if (!parsed || got_seq != seq) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
    result.kind = Result::Kind::LaneFailure;
    result.error = "fork-server protocol error (bad frame); lane killed";
    return result;
  }
  if (from_cut != 0 &&
      static_cast<ReplyKind>(kind_raw) != ReplyKind::ServeError) {
    result.from_cut = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cut_forks;
    }
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& cut_forks = rec.counter(
          "fastfit_cut_forks_total",
          "Process-isolated trials forked at their cut (prefix skipped)");
      cut_forks.add();
    }
  }
  switch (static_cast<ReplyKind>(kind_raw)) {
    case ReplyKind::Completed: {
      procpool::TrialReply reply;
      if (!decode_reply(reader, reply)) break;
      result.kind = Result::Kind::Completed;
      result.reply = std::move(reply);
      return result;
    }
    case ReplyKind::SignalDeath: {
      std::uint32_t signo = 0;
      if (!reader.u32(signo) || !reader.u64(result.user_us) ||
          !reader.u64(result.sys_us) || !reader.u64(result.maxrss_kb)) {
        break;
      }
      result.kind = Result::Kind::SignalDeath;
      result.signal = static_cast<int>(signo);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.signal_deaths;
      }
      if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
        static auto& deaths = rec.counter(
            "fastfit_worker_deaths_total",
            "Trial worker children killed by a genuine signal");
        deaths.add();
      }
      return result;
    }
    case ReplyKind::BadExit: {
      std::uint32_t code = 0;
      if (!reader.u32(code)) break;
      result.kind = Result::Kind::Completed;
      result.reply.ok = false;
      result.reply.error = "trial worker exited with status " +
                           std::to_string(static_cast<std::int32_t>(code)) +
                           " before reporting a result";
      return result;
    }
    case ReplyKind::ServeError: {
      std::string message;
      if (!reader.str(message)) break;
      result.kind = Result::Kind::Completed;
      result.reply.ok = false;
      result.reply.error = std::move(message);
      return result;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
  }
  result.kind = Result::Kind::LaneFailure;
  result.error = "fork-server protocol error (bad payload); lane killed";
  return result;
}

std::string describe_worker_death(int signo, std::uint64_t user_us,
                                  std::uint64_t sys_us,
                                  std::uint64_t maxrss_kb) {
  return "worker killed by " + signal_name(signo) + " (signal " +
         std::to_string(signo) + "); rusage: user=" +
         std::to_string(user_us / 1000) + "ms sys=" +
         std::to_string(sys_us / 1000) + "ms maxrss=" +
         std::to_string(maxrss_kb) + "KiB";
}

}  // namespace fastfit::core
