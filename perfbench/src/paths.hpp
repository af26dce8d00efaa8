// The three user paths the benchmark drives.  Each workload runs one path at
// full size for --seconds ("home") and the other two at companion size, a
// fixed number of short rounds each, because every run must report every
// end-to-end metric; its own path carries the load.
#pragma once

#include <memory>

#include "common.hpp"

namespace perfbench {

class Path {
 public:
  virtual ~Path() = default;

  /// Generates the input fields.  Called once per run.
  virtual void Generate() = 0;
  /// Builds what derives from the fields: ranges, files, the pre-packed
  /// container and, for serve, the daemon.  Called several times per run;
  /// each call replaces what the previous one built.
  virtual void Prepare() = 0;
  /// One whole round of the path's operations; tallies accumulate until
  /// ResetTallies().  `round` seeds the round's order.
  virtual void Round(std::uint64_t round, std::uint64_t parent_span) = 0;
  virtual void ResetTallies() = 0;
  /// Length of one full-size round on the reference box.  An untraced home
  /// run makes round(--seconds / this) whole rounds, at least two, so every
  /// run of a workload does the same work.
  virtual double NominalRoundSeconds() const = 0;
  /// Rounds a companion run makes: enough short samples for its medians.
  virtual std::uint64_t CompanionRounds() const = 0;
  /// Called once after the last round (serve: stops the daemon and checks
  /// its exit counts).
  virtual void Finish() {}
  virtual void EndToEnd(Metrics& m) const = 0;
  /// Per-layer probes and tally-derived layer figures (traced runs only).
  virtual void Layers(Metrics& m, std::uint64_t parent_span) = 0;
};

std::unique_ptr<Path> MakePaperFields(Context& ctx, bool full);
std::unique_ptr<Path> MakeCliCheckpoint(Context& ctx, bool full);
std::unique_ptr<Path> MakeServeMixed(Context& ctx, bool full);

}  // namespace perfbench
