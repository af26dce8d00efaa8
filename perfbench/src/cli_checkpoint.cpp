// cli-checkpoint: the file -> file path of a checkpointing job, driven
// through the real szx_cli binary one process at a time: compress, then
// decompress, then pack into a K-timestep container, then seeded 1% ROI
// unpacks across its timesteps.
#include <algorithm>
#include <cstring>
#include <optional>

#include "core/compressor.hpp"
#include "core/container.hpp"
#include "core/omp_codec.hpp"
#include "data/datasets.hpp"
#include "paths.hpp"

namespace perfbench {
namespace {

using szx::data::App;

constexpr double kEb = 1e-3;
constexpr std::uint64_t kTimesteps = 7;
constexpr int kRoisPerRound = 8;
// compress, decompress and pack each run this many times back to back in a
// round; each rate is taken from the command's fastest run of the workload.
constexpr int kRepeats = 2;
constexpr std::uint64_t kSalt = 0x636c692d63686b70ull;

struct Roi {
  std::uint64_t timestep = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

class CliCheckpoint final : public Path {
 public:
  CliCheckpoint(Context& ctx, bool full)
      // Full: Scale-LetKF T at 147x900x900 (476 MB, over 4x a 105 MiB LLC).
      // Companion: the base 49x300x300 grid (17.6 MB).
      : ctx_(ctx), scale_(full ? 3.0 : 1.0), dir_(ctx.work / "cli") {}

  void Generate() override {
    field_ = szx::data::GenerateField(App::kScaleLetkf, "T", scale_);
  }

  void Prepare() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    recon_ = {};
    const std::span<const float> data = field_.values;
    bound_ = kEb * Width(FiniteRange(data));
    ept_ = data.size() / kTimesteps;
    ts_bound_.clear();
    for (std::uint64_t t = 0; t < kTimesteps; ++t) {
      ts_bound_.push_back(kEb * Width(FiniteRange(data.subspan(t * ept_, ept_))));
    }
    WriteWhole(Raw(), data.data(), data.size_bytes());
    raw_synced_ = false;
    recon_.assign(data.size(), 0.0f);
  }

  void ResetTallies() override { t_ = {}; }
  double NominalRoundSeconds() const override { return 8.0; }
  std::uint64_t CompanionRounds() const override { return 8; }

  void Round(std::uint64_t round, std::uint64_t parent) override {
    Tracer& tr = *ctx_.tracer;
    Outcome& oc = *ctx_.outcome;
    const double r0 = Now();
    const std::uint64_t span = tr.Open();
    const std::string threads = std::to_string(ctx_.threads);
    const std::string eb = FormatDouble(kEb);
    // No timed command may share the machine with the kernel writing back
    // this benchmark's own files: every file a later command reads is synced
    // once it is written, and every output is deleted once it is checked
    // (deleting drops its dirty pages unwritten).  All of it is untimed.
    if (!raw_synced_) {
      SyncFile(Raw());
      raw_synced_ = true;
    }

    for (int k = 0; k < kRepeats; ++k) {
      if (auto w = Spawn("compress", span,
                         {"compress", "-i", Raw(), "-o", Z(), "-t", "f32",
                          "-m", "rel", "-e", eb, "--threads", threads})) {
        t_.compress.push_back(*w);
        SyncFile(Z());
      }
    }
    for (int k = 0; k < kRepeats; ++k) {
      if (auto w = Spawn("decompress", span,
                         {"decompress", "-i", Z(), "-o", File("out.f32"),
                          "--threads", threads})) {
        t_.decompress.push_back(*w);
        ReadBack("out.f32", recon_.data(), field_.size_bytes());
        CheckBound(oc, "szx_cli decompress", field_.values, recon_, bound_,
                   ctx_.threads);
        std::filesystem::remove(File("out.f32"));
      }
    }
    bool packed = false;  // the last pack wrote the container
    for (int k = 0; k < kRepeats; ++k) {
      packed = false;
      if (auto w = Spawn("pack", span,
                         {"pack", "-o", Container(), "--field", "T:" + Raw(),
                          "--timesteps", std::to_string(kTimesteps), "-m",
                          "rel", "-e", eb, "--threads", threads})) {
        t_.pack.push_back(*w);
        SyncFile(Container());
        packed = true;
      }
    }
    if (!packed) {
      tr.Close(span, "cli.round", parent, r0, Now());
      return;
    }

    // The reference for every ROI is a full in-process decode of the
    // container the CLI wrote.
    container_ = ReadWhole(Container());
    std::optional<szx::ContainerReader> reader;
    try {
      reader.emplace(container_);
    } catch (const std::exception& e) {
      oc.Wrong(std::string("container written by pack does not open: ") +
               e.what());
      return;
    }
    Rng rng(ctx_.seed ^ kSalt ^ (round * 0x9E3779B97F4A7C15ull));
    rois_.clear();
    std::uint64_t decoded_ts = kTimesteps;
    std::vector<float> full;
    std::vector<float> roi;
    for (int j = 0; j < kRoisPerRound; ++j) {
      Roi r;
      r.timestep = rng.Below(kTimesteps);
      r.count = ept_ / 100;
      r.first = rng.Below(ept_ - r.count + 1);
      rois_.push_back(r);
      const auto w = Spawn(
          "unpack", span,
          {"unpack", "-i", Container(), "-o", File("roi.f32"), "--field", "T",
           "--timestep", std::to_string(r.timestep), "--first",
           std::to_string(r.first), "--count", std::to_string(r.count),
           "--threads", threads});
      if (!w) continue;
      t_.roi.push_back(*w);
      roi.assign(r.count, 0.0f);
      ReadBack("roi.f32", roi.data(), r.count * sizeof(float));
      if (decoded_ts != r.timestep) {
        full = reader->DecompressTimestep<float>(0, r.timestep, ctx_.threads);
        decoded_ts = r.timestep;
      }
      const std::string what = "ROI unpack ts " + std::to_string(r.timestep) +
                               " first " + std::to_string(r.first);
      if (std::memcmp(roi.data(), full.data() + r.first,
                      r.count * sizeof(float)) != 0) {
        oc.Wrong(what + ": differs from the full decode");
      }
      CheckBound(oc, what,
                 std::span<const float>(field_.values)
                     .subspan(r.timestep * ept_ + r.first, r.count),
                 roi, ts_bound_[r.timestep], ctx_.threads);
    }
    tr.Close(span, "cli.round", parent, r0, Now());
  }

  void EndToEnd(Metrics& m) const override {
    const double bytes = static_cast<double>(field_.size_bytes());
    // Fastest run of each command: a run slowed by CPU steal on a shared
    // host does not move the rate.
    m["cli_compress_gbps"] = {bytes / Min(t_.compress) / 1e9, "GB/s"};
    m["cli_decompress_gbps"] = {bytes / Min(t_.decompress) / 1e9, "GB/s"};
    m["cli_pack_gbps"] = {bytes / Min(t_.pack) / 1e9, "GB/s"};
    m["cli_roi_ms"] = {Median(t_.roi) * 1e3, "ms"};
    m["cli_peak_rss_mb"] = {t_.peak_rss_mb, "MB"};
  }

  void Layers(Metrics& m, std::uint64_t parent) override {
    Tracer& tr = *ctx_.tracer;
    const std::span<const float> data = field_.values;
    const double bytes = static_cast<double>(data.size_bytes());

    // File-system ceiling: plain write(2)/read(2) of the same byte count.
    std::vector<double> tw, trd;
    for (int r = 0; r < 3; ++r) {
      double t0 = Now();
      WriteWhole(File("fsprobe.bin"), data.data(), data.size_bytes());
      double t1 = Now();
      tw.push_back(t1 - t0);
      tr.Record("fs.write", parent, t0, t1);
      t0 = Now();
      ReadInto(File("fsprobe.bin"), recon_.data(), data.size_bytes());
      t1 = Now();
      trd.push_back(t1 - t0);
      tr.Record("fs.read", parent, t0, t1);
    }
    std::filesystem::remove(File("fsprobe.bin"));
    m["fs.write_gbps"] = {bytes / Median(tw) / 1e9, "GB/s"};
    m["fs.read_gbps"] = {bytes / Median(trd) / 1e9, "GB/s"};

    // Process start-up: `info` on a tiny stream.
    const auto tiny = szx::Compress<float>(data.first(1024), szx::Params{});
    WriteWhole(File("tiny.szx"), tiny.data(), tiny.size());
    std::vector<double> spawn;
    for (int r = 0; r < 15; ++r) {
      if (auto w = Spawn("info", parent, {"info", "-i", File("tiny.szx")})) {
        spawn.push_back(*w);
      }
    }
    m["tools.szx_cli.spawn_ms"] = {Median(spawn) * 1e3, "ms"};

    // The CLI's wall time minus the in-process codec on the same data.
    szx::Params p;
    p.error_bound = kEb;
    std::vector<double> tc, td;
    szx::ByteBuffer stream;
    for (int r = 0; r < 3; ++r) {
      double t0 = Now();
      stream = szx::CompressOmp<float>(data, p, nullptr, ctx_.threads);
      double t1 = Now();
      tc.push_back(t1 - t0);
      tr.Record("cli.inproc.CompressOmp", parent, t0, t1);
      t0 = Now();
      szx::DecompressOmpInto<float>(stream, recon_, ctx_.threads);
      t1 = Now();
      td.push_back(t1 - t0);
      tr.Record("cli.inproc.DecompressOmpInto", parent, t0, t1);
    }
    m["tools.szx_cli.compress_overhead_s"] = {
        Median(t_.compress) - Median(tc), "s"};
    m["tools.szx_cli.decompress_overhead_s"] = {
        Median(t_.decompress) - Median(td), "s"};

    // Container layer in-process: pack, then the same ROIs.
    std::vector<double> tp;
    szx::ByteBuffer packed;
    for (int r = 0; r < 2; ++r) {
      const double t0 = Now();
      szx::ContainerWriter w;
      szx::ContainerWriter::FieldSpec spec;
      spec.name = "T";
      spec.params = p;
      spec.elements_per_timestep = ept_;
      const std::uint32_t id = w.AddField(spec, szx::DataType::kFloat32);
      for (std::uint64_t t = 0; t < kTimesteps; ++t) {
        w.AppendTimestep<float>(id, data.subspan(t * ept_, ept_), ctx_.threads);
      }
      packed = w.Finish();
      const double t1 = Now();
      tp.push_back(t1 - t0);
      tr.Record("container.pack", parent, t0, t1);
    }
    m["core.container.pack_gbps"] = {bytes / Median(tp) / 1e9, "GB/s"};

    const szx::ContainerReader reader(container_);
    const szx::ContainerField& f = reader.field(0);
    std::vector<double> roi_t;
    double share = 0;
    std::vector<float> out;
    for (const Roi& r : rois_) {
      out.assign(r.count, 0.0f);
      const double t0 = Now();
      reader.DecompressRange<float>(0, r.timestep, r.first, out, ctx_.threads);
      const double t1 = Now();
      roi_t.push_back(t1 - t0);
      tr.Record("container.DecompressRange", parent, t0, t1);
      double covered = 0;
      for (std::uint64_t c = r.first / f.chunk_elements;
           c <= (r.first + r.count - 1) / f.chunk_elements; ++c) {
        covered += static_cast<double>(
            reader.entry(reader.EntryIndex(0, r.timestep, c)).bytes);
      }
      share += covered / static_cast<double>(container_.size());
    }
    m["core.container.roi_ms"] = {Median(roi_t) * 1e3, "ms"};
    m["core.container.roi_bytes_share"] = {
        share / static_cast<double>(rois_.size()), "ratio"};
  }

 private:
  struct Tally {
    std::vector<double> compress, decompress, pack, roi;  ///< wall seconds
    double peak_rss_mb = 0;
  };

  static double Width(const Range& r) { return r.max - r.min; }
  std::string File(const char* name) const { return (dir_ / name).string(); }
  std::string Raw() const { return File("raw.f32"); }
  std::string Z() const { return File("raw.szx"); }
  std::string Container() const { return File("ckpt.szx3"); }

  void ReadBack(const char* name, void* dst, std::size_t bytes) {
    const auto size = std::filesystem::file_size(File(name));
    if (size != bytes) {
      ctx_.outcome->Wrong(std::string(name) + " holds " + std::to_string(size) +
                          " bytes, expected " + std::to_string(bytes));
      return;
    }
    ReadInto(File(name), dst, bytes);
  }

  /// Runs one szx_cli command; returns its wall time, or nullopt (counted
  /// as failed) when it exits non-zero.
  std::optional<double> Spawn(const char* op, std::uint64_t parent,
                              std::vector<std::string> args) {
    // Every command writes a fresh file, as a checkpointing job does; the
    // previous round's copy is removed outside the timed region.
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == "-o") std::filesystem::remove(args[i + 1]);
    }
    args.insert(args.begin(), ctx_.cli.string());
    ctx_.outcome->Attempt();
    const double t0 = Now();
    const ChildResult r = RunChild(args, File("cli.log"));
    ctx_.tracer->Record(std::string("szx_cli ") + op, parent, t0, t0 + r.wall_s);
    t_.peak_rss_mb = std::max(t_.peak_rss_mb, r.max_rss_mb);
    if (r.exit_code != 0) {
      ctx_.outcome->Fail(std::string("szx_cli ") + op + " exited " +
                         std::to_string(r.exit_code));
      return std::nullopt;
    }
    return r.wall_s;
  }

  Context& ctx_;
  double scale_;
  std::filesystem::path dir_;
  szx::data::Field field_;
  std::vector<float> recon_;
  double bound_ = 0;
  bool raw_synced_ = false;
  std::uint64_t ept_ = 0;
  std::vector<double> ts_bound_;
  szx::ByteBuffer container_;
  std::vector<Roi> rois_;
  Tally t_;
};

}  // namespace

std::unique_ptr<Path> MakeCliCheckpoint(Context& ctx, bool full) {
  return std::make_unique<CliCheckpoint>(ctx, full);
}

}  // namespace perfbench
