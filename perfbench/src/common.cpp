#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Tracer::Record(const std::string& name, std::uint64_t parent,
                             double start, double end,
                             const std::string& request) {
  if (!enabled_) return 0;
  const std::uint64_t id = Open();
  Close(id, name, parent, start, end, request);
  return id;
}

std::uint64_t Tracer::Open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(m_);
  return next_id_++;
}

void Tracer::Close(std::uint64_t id, const std::string& name,
                   std::uint64_t parent, double start, double end,
                   const std::string& request) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(Span{name, request, id, parent, start, end});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_.size();
}

void Tracer::Write(const std::filesystem::path& path, double origin) const {
  std::lock_guard<std::mutex> lock(m_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"request\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.request.c_str(), (s.start - origin) * 1e6,
                 (s.end - origin) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

void Outcome::Fail(const std::string& what) {
  ++failed_;
  std::lock_guard<std::mutex> lock(m_);
  if (reported_++ < 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Outcome::Wrong(const std::string& what) {
  correct_ = false;
  std::lock_guard<std::mutex> lock(m_);
  if (reported_++ < 20) std::fprintf(stderr, "perfbench: WRONG %s\n", what.c_str());
}

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(v.begin(), v.end());
}

double SumOfMins(const std::map<std::string, std::vector<double>>& samples) {
  double sum = 0;
  for (const auto& [key, v] : samples) sum += Min(v);
  return sum;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

Range FiniteRange(std::span<const float> v) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const float x : v) {
    if (!std::isfinite(x)) continue;
    lo = std::min(lo, static_cast<double>(x));
    hi = std::max(hi, static_cast<double>(x));
  }
  if (lo > hi) return {};
  return {lo, hi};
}

namespace {

double MaxAbsErrorSerial(std::span<const float> a, std::span<const float> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i])) {
      if (std::bit_cast<std::uint32_t>(a[i]) !=
          std::bit_cast<std::uint32_t>(b[i])) {
        return std::numeric_limits<double>::infinity();
      }
      continue;
    }
    const double e =
        std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (!(e <= worst)) worst = std::isnan(e) ? HUGE_VAL : e;
  }
  return worst;
}

template <typename F>
void SplitOver(std::size_t n, int threads, F&& f) {
  const std::size_t parts =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, n / 65536 + 1));
  std::vector<std::thread> pool;
  for (std::size_t p = 1; p < parts; ++p) {
    pool.emplace_back([&, p] { f(p, n * p / parts, n * (p + 1) / parts); });
  }
  f(0, 0, n / parts);
  for (auto& t : pool) t.join();
}

}  // namespace

double MaxAbsError(std::span<const float> a, std::span<const float> b,
                   int threads) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  std::vector<double> worst(static_cast<std::size_t>(std::max(1, threads)),
                            0.0);
  SplitOver(a.size(), threads, [&](std::size_t p, std::size_t lo,
                                   std::size_t hi) {
    worst[p] = MaxAbsErrorSerial(a.subspan(lo, hi - lo), b.subspan(lo, hi - lo));
  });
  return *std::max_element(worst.begin(), worst.end());
}

bool CheckBound(Outcome& out, const std::string& what,
                std::span<const float> raw, std::span<const float> recon,
                double abs_bound, int threads) {
  if (raw.size() != recon.size()) {
    out.Wrong(what + ": " + std::to_string(recon.size()) + " values, expected " +
              std::to_string(raw.size()));
    return false;
  }
  const double err = MaxAbsError(raw, recon, threads);
  if (!(err <= abs_bound)) {
    out.Wrong(what + ": max error " + FormatDouble(err) + " > bound " +
              FormatDouble(abs_bound));
    return false;
  }
  return true;
}

void ParallelCopy(void* dst, const void* src, std::size_t bytes, int threads) {
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  SplitOver(bytes, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
    std::memcpy(d + lo, s + lo, hi - lo);
  });
}

void WriteWhole(const std::filesystem::path& p, const void* data,
                std::size_t bytes) {
  const int fd = ::open(p.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot create " + p.string());
  const auto* at = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, at, std::min<std::size_t>(bytes, 1u << 30));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("cannot write " + p.string());
    }
    at += n;
    bytes -= static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void SyncFile(const std::filesystem::path& p) {
  const int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + p.string());
  const int rc = ::fdatasync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("cannot sync " + p.string());
}

void ReadInto(const std::filesystem::path& p, void* data, std::size_t bytes) {
  const int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + p.string());
  auto* at = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, at, std::min<std::size_t>(bytes, 1u << 30));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("short read of " + p.string());
    }
    at += n;
    bytes -= static_cast<std::size_t>(n);
  }
  ::close(fd);
}

std::vector<std::byte> ReadWhole(const std::filesystem::path& p) {
  std::vector<std::byte> buf(std::filesystem::file_size(p));
  ReadInto(p, buf.data(), buf.size());
  return buf;
}

namespace {

std::vector<char*> ArgvPointers(const std::vector<std::string>& argv) {
  std::vector<char*> ptrs;
  for (const auto& a : argv) ptrs.push_back(const_cast<char*>(a.c_str()));
  ptrs.push_back(nullptr);
  return ptrs;
}

}  // namespace

namespace {

// Children are started from a helper process forked at start-up, while the
// benchmark is still small: a child's ru_maxrss includes the address space
// it was spawned from, so spawning from the multi-GB benchmark itself would
// report the benchmark's peak instead of the child's.
struct Spawner {
  pid_t pid = -1;
  int to = -1;    // requests: argv strings, then the log path
  int from = -1;  // replies: ChildResult
};
Spawner g_spawner;

void WriteAll(int fd, const void* p, std::size_t n) {
  const auto* at = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, at, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) throw std::runtime_error("spawner pipe write failed");
    at += k;
    n -= static_cast<std::size_t>(k);
  }
}

bool ReadAll(int fd, void* p, std::size_t n) {
  auto* at = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = ::read(fd, at, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    at += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

ChildResult SpawnAndWait(const std::vector<std::string>& argv,
                         const std::string& log) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  auto ptrs = ArgvPointers(argv);
  ChildResult r;
  const double t0 = Now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, ptrs[0], &fa, nullptr, ptrs.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return r;
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_s = Now() - t0;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
  return r;
}

[[noreturn]] void SpawnerLoop(int in, int out) {
  for (;;) {
    std::uint32_t n = 0;
    if (!ReadAll(in, &n, sizeof(n))) ::_exit(0);
    std::vector<std::string> args(n);
    for (auto& a : args) {
      std::uint32_t len = 0;
      if (!ReadAll(in, &len, sizeof(len))) ::_exit(0);
      a.resize(len);
      if (!ReadAll(in, a.data(), len)) ::_exit(0);
    }
    const std::string log = args.back();
    args.pop_back();
    const ChildResult r = SpawnAndWait(args, log);
    WriteAll(out, &r, sizeof(r));
  }
}

}  // namespace

void StartSpawner() {
  int req[2], rep[2];
  if (::pipe(req) != 0 || ::pipe(rep) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(req[1]);
    ::close(rep[0]);
    SpawnerLoop(req[0], rep[1]);
  }
  ::close(req[0]);
  ::close(rep[1]);
  ::fcntl(req[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(rep[0], F_SETFD, FD_CLOEXEC);
  g_spawner = {pid, req[1], rep[0]};
}

void StopSpawner() {
  if (g_spawner.pid <= 0) return;
  ::close(g_spawner.to);
  ::close(g_spawner.from);
  int status = 0;
  while (::waitpid(g_spawner.pid, &status, 0) < 0 && errno == EINTR) {
  }
  g_spawner = {};
}

ChildResult RunChild(const std::vector<std::string>& argv,
                     const std::filesystem::path& log) {
  if (g_spawner.pid <= 0) return SpawnAndWait(argv, log.string());
  std::vector<std::string> msg = argv;
  msg.push_back(log.string());
  const auto n = static_cast<std::uint32_t>(msg.size());
  WriteAll(g_spawner.to, &n, sizeof(n));
  for (const auto& a : msg) {
    const auto len = static_cast<std::uint32_t>(a.size());
    WriteAll(g_spawner.to, &len, sizeof(len));
    WriteAll(g_spawner.to, a.data(), len);
  }
  ChildResult r;
  if (!ReadAll(g_spawner.from, &r, sizeof(r))) {
    throw std::runtime_error("spawner process died");
  }
  return r;
}

void Daemon::Start(const std::vector<std::string>& argv,
                   const std::filesystem::path& log) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  auto ptrs = ArgvPointers(argv);
  const int rc =
      posix_spawn(&pid_, ptrs[0], &fa, nullptr, ptrs.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  out_fd_ = fds[0];
  pending_.clear();
}

std::string Daemon::ReadLine(double timeout_s) {
  const double deadline = Now() + timeout_s;
  for (;;) {
    const auto nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return line;
    }
    const double left = deadline - Now();
    if (left <= 0) return {};
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return {};
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

int Daemon::Stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
