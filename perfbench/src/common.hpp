// Shared plumbing of the end-to-end benchmark: clocks, seeded order, the
// span recorder, metric tables, the error-bound oracle, child processes and
// plain POSIX file helpers.  Nothing here calls into the program under test.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

double Now();  ///< steady clock, seconds

/// splitmix64: the benchmark's only source of randomness.  Every order,
/// offset and request sequence is drawn from one of these, seeded from
/// --seed, so one seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  template <typename V>
  void Shuffle(V& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// In-memory span recorder.  A span has a name, a start, an end, a parent
/// span and (for serve requests) a request id.  Disabled tracers record
/// nothing; the timing code around each call is the same either way.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string request;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double start = 0.0;
    double end = 0.0;
  };

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t Record(const std::string& name, std::uint64_t parent,
                       double start, double end,
                       const std::string& request = {});
  /// Reserves an id for a span whose children finish before it does.
  std::uint64_t Open();
  void Close(std::uint64_t id, const std::string& name, std::uint64_t parent,
             double start, double end, const std::string& request = {});
  std::size_t size() const;
  void Write(const std::filesystem::path& path, double origin) const;

 private:
  bool enabled_ = false;
  mutable std::mutex m_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Operation tally shared by every path of one run.  `correct` drops when a
/// check on an output fails; `failed` counts operations that did not
/// complete (a throw, a non-zero exit, a non-OK response).
class Outcome {
 public:
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  void Wrong(const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::mutex m_;
  int reported_ = 0;
};

/// Everything one run shares between its paths.
struct Context {
  std::uint64_t seed = 1;
  int threads = 1;  ///< nproc
  std::filesystem::path work;   ///< scratch directory inside the checkout
  std::filesystem::path cli;    ///< szx_cli binary
  std::filesystem::path serve;  ///< szx_serve binary
  Tracer* tracer = nullptr;
  Outcome* outcome = nullptr;
};

double Median(std::vector<double> v);
double Min(const std::vector<double>& v);
/// Per-key times (one per round) reduced to the sum of each key's fastest
/// round, so a round slowed by interference from outside the process
/// (CPU steal on a shared host) does not move a rate.
double SumOfMins(const std::map<std::string, std::vector<double>>& samples);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

/// Finite min/max of a field, computed by the benchmark itself.
struct Range {
  double min = 0.0;
  double max = 0.0;
};
Range FiniteRange(std::span<const float> v);

/// Largest |a - b| over finite a (non-finite a must come back bit-exact,
/// else +inf).  Splits the scan over `threads` std::threads.
double MaxAbsError(std::span<const float> a, std::span<const float> b,
                   int threads);

/// True iff every reconstructed value lies within eb * (max - min) of its
/// input; records a Wrong() with `what` otherwise.
bool CheckBound(Outcome& out, const std::string& what,
                std::span<const float> raw, std::span<const float> recon,
                double abs_bound, int threads);

/// Multi-threaded memcpy, the memory-bandwidth ceiling.
void ParallelCopy(void* dst, const void* src, std::size_t bytes, int threads);

// Plain POSIX file I/O (write(2)/read(2) loops, no fsync).
void WriteWhole(const std::filesystem::path& p, const void* data,
                std::size_t bytes);
std::vector<std::byte> ReadWhole(const std::filesystem::path& p);
void ReadInto(const std::filesystem::path& p, void* data, std::size_t bytes);
/// fdatasync(2) of one file, so its dirty pages are not written back by the
/// kernel's flusher during a later timed region.
void SyncFile(const std::filesystem::path& p);

struct ChildResult {
  int exit_code = -1;  ///< -1 when killed by a signal
  double wall_s = 0.0;
  double max_rss_mb = 0.0;  ///< ru_maxrss, in 10^6 bytes
};

/// Forks the helper that starts every RunChild command.  Call first thing
/// in main, before any thread or large buffer exists.
void StartSpawner();
void StopSpawner();

/// Runs argv[0] with stdout/stderr appended to `log`, waits for it, and
/// returns its wall time and peak resident set (exit_code -1 when it could
/// not start or died by a signal).
ChildResult RunChild(const std::vector<std::string>& argv,
                     const std::filesystem::path& log);

/// A child kept running in the background (the serve daemon).  stdout is a
/// pipe the caller reads lines from; stderr goes to `log`.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill(); }

  void Start(const std::vector<std::string>& argv,
             const std::filesystem::path& log);
  /// Reads one stdout line (blocking, up to `timeout_s`); empty on EOF.
  std::string ReadLine(double timeout_s);
  /// SIGTERM, then waits; returns the exit code (-1 if it died by signal).
  int Stop();
  void Kill();
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
};

std::string FormatDouble(double v);

}  // namespace perfbench
