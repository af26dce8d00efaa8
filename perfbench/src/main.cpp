// perfbench -- end-to-end benchmark of the three paths users run:
// paper-size fields in memory, szx_cli file -> file, and szx_serve over
// loopback TCP.  Prints one JSON object as its last stdout line.
//
//   perfbench --workload paper-fields|cli-checkpoint|serve-mixed
//             --seed N --seconds S --trace 0|1
//             --cli PATH --serve PATH --work DIR [--spans FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the home
// rounds with span recording on, runs the per-layer probes, reports the
// per-layer metrics and writes the spans to --spans.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "paths.hpp"

namespace {

using namespace perfbench;

constexpr int kPrepareRepeats = 3;
constexpr double kMinRounds = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli, serve, work, spans;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(v.c_str());
    else if (arg == "--trace") a.trace = v == "1";
    else if (arg == "--cli") a.cli = v;
    else if (arg == "--serve") a.serve = v;
    else if (arg == "--work") a.work = v;
    else if (arg == "--spans") a.spans = v;
    else Usage("unknown flag " + arg);
  }
  if (a.workload != "paper-fields" && a.workload != "cli-checkpoint" &&
      a.workload != "serve-mixed") {
    Usage("unknown workload '" + a.workload + "'");
  }
  if (a.cli.empty() || a.serve.empty() || a.work.empty()) {
    Usage("--cli, --serve and --work are required");
  }
  return a;
}

/// Runs the home rounds with each companion's rounds spread evenly between
/// them, so every path samples the whole run rather than one stretch of it.
/// Returns the wall time of the home rounds alone.
double MeasureAll(Path& home, std::uint64_t home_rounds,
                  const std::vector<Path*>& companions, Tracer& tracer) {
  const double t0 = Now();
  const std::uint64_t span = tracer.Open();
  double home_s = 0.0;
  for (std::uint64_t r = 0; r < home_rounds; ++r) {
    const double h0 = Now();
    home.Round(r, span);
    home_s += Now() - h0;
    for (Path* c : companions) {
      const std::uint64_t n = c->CompanionRounds();
      for (std::uint64_t k = r * n / home_rounds;
           k < (r + 1) * n / home_rounds; ++k) {
        c->Round(k, span);
      }
    }
  }
  const double t1 = Now();
  tracer.Close(span, "rounds", 0, t0, t1);
  std::fprintf(stderr,
               "perfbench: %llu home round(s) in %.2f s, %.2f s in all\n",
               static_cast<unsigned long long>(home_rounds), home_s, t1 - t0);
  return home_s;
}

void PrintResult(const Outcome& out, const Metrics& metrics) {
  std::string s = "{\"correct\": ";
  s += out.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted());
  s += ", \"failed\": " + std::to_string(out.failed());
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + FormatDouble(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  StartSpawner();
  struct StopAtExit {
    ~StopAtExit() { StopSpawner(); }
  } stop_spawner;
  Tracer tracer;
  Outcome outcome;
  Context ctx;
  ctx.seed = a.seed;
  ctx.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ctx.work = a.work;
  ctx.cli = a.cli;
  ctx.serve = a.serve;
  ctx.tracer = &tracer;
  ctx.outcome = &outcome;
  std::filesystem::create_directories(ctx.work);

  try {
    std::unique_ptr<Path> home;
    std::vector<std::unique_ptr<Path>> companions;
    const bool pf = a.workload == "paper-fields";
    const bool cli = a.workload == "cli-checkpoint";
    const bool srv = a.workload == "serve-mixed";
    home = pf ? MakePaperFields(ctx, true)
               : cli ? MakeCliCheckpoint(ctx, true) : MakeServeMixed(ctx, true);
    if (!pf) companions.push_back(MakePaperFields(ctx, false));
    if (!cli) companions.push_back(MakeCliCheckpoint(ctx, false));
    if (!srv) companions.push_back(MakeServeMixed(ctx, false));
    std::vector<Path*> all{home.get()};
    for (auto& c : companions) all.push_back(c.get());

    // Set-up = input generation, timed once, plus the derived state (ranges,
    // files, pre-packed container, daemon), which is cheap and is built
    // kPrepareRepeats times with the median kept, each build replacing the
    // previous one.
    double setup_s = 0.0;
    for (Path* p : all) {
      const double g0 = Now();
      p->Generate();
      setup_s += Now() - g0;
      std::vector<double> t;
      for (int r = 0; r < kPrepareRepeats; ++r) {
        const double t0 = Now();
        p->Prepare();
        t.push_back(Now() - t0);
      }
      setup_s += Median(t);
    }
    std::fprintf(stderr, "perfbench: set-up %.2f s\n", setup_s);

    // An untraced run makes at least kMinRounds home rounds, so each figure
    // has a second round to take the fastest of; a traced run makes one per
    // pass, as it makes three passes and then runs the layer probes.
    const std::uint64_t home_rounds =
        a.trace ? 1
                : static_cast<std::uint64_t>(std::max<double>(
                      kMinRounds,
                      std::round(a.seconds / home->NominalRoundSeconds())));
    const std::vector<Path*> companion_paths(all.begin() + 1, all.end());
    auto measure_all = [&] {
      return MeasureAll(*home, home_rounds, companion_paths, tracer);
    };
    double untraced_s = measure_all();
    if (a.trace) {
      // That pass made the process's first codec calls, which pay one-off
      // costs (page faults, arena growth).  The untraced baseline for the
      // traced pass is a second pass after it.
      untraced_s = measure_all();
    }

    Metrics metrics;
    if (!a.trace) {
      for (Path* p : all) p->Finish();
      for (Path* p : all) p->EndToEnd(metrics);
      metrics["setup_s"] = {setup_s, "s"};
    } else {
      // Same rounds again with spans on: the wall-time gap is the tracing
      // overhead, and the traced tallies feed the per-layer figures.
      tracer.Enable(true);
      const double origin = Now();
      for (Path* p : all) p->ResetTallies();
      const double traced_s = measure_all();
      for (Path* p : all) p->Finish();
      const std::uint64_t probes = tracer.Open();
      const double p0 = Now();
      for (Path* p : all) p->Layers(metrics, probes);
      tracer.Close(probes, "layer_probes", 0, p0, Now());
      metrics["trace.overhead_share"] = {traced_s / untraced_s - 1.0, "ratio"};
      metrics["trace.spans"] = {static_cast<double>(tracer.size()), "count"};
      if (!a.spans.empty()) tracer.Write(a.spans, origin);
    }
    PrintResult(outcome, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
