// paper-fields: one representative field per Table 2 application, run in
// memory through the serial (Compress / DecompressInto) and nproc-thread
// (CompressOmp / DecompressOmpInto) codecs at REL 1e-2, 1e-3 and 1e-4.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/block_plan.hpp"
#include "core/block_stats.hpp"
#include "core/compressor.hpp"
#include "core/executor.hpp"
#include "core/format.hpp"
#include "core/kernels/kernels.hpp"
#include "core/omp_codec.hpp"
#include "data/datasets.hpp"
#include "paths.hpp"
#include "szref/szref.hpp"
#include "zfpref/zfpref.hpp"

namespace perfbench {
namespace {

using szx::data::App;

struct FieldSpec {
  App app;
  const char* field;
  double scale;
};

// Full size: raw sizes on the order of the paper's Table 2 (26 MB to
// 473 MB; CESM and Hurricane are the paper's own grids).  Four of the six
// exceed a 105 MiB LLC and QMCPack is 4.3x it.  Companion size: the
// generators' base grids (2 MB to 23 MB).
constexpr FieldSpec kFull[] = {
    {App::kCesm, "TS", 3.0},          {App::kHurricane, "U", 2.0},
    {App::kMiranda, "pressure", 1.75}, {App::kNyx, "temperature", 3.0},
    {App::kQmcpack, "einspline_real", 6.0}, {App::kScaleLetkf, "T", 2.0}};
constexpr FieldSpec kCompanion[] = {
    {App::kCesm, "TS", 1.0},          {App::kHurricane, "U", 1.0},
    {App::kMiranda, "pressure", 1.0}, {App::kNyx, "temperature", 1.0},
    {App::kQmcpack, "einspline_real", 1.0}, {App::kScaleLetkf, "T", 1.0}};
constexpr double kBounds[] = {1e-2, 1e-3, 1e-4};
constexpr std::size_t kRefField = 1;  // Hurricane U: the SZ / ZFP reference
constexpr std::uint64_t kSalt = 0x70617065722d6669ull;
constexpr float kUnwritten = std::numeric_limits<float>::quiet_NaN();
volatile float g_sink = 0;  // keeps the timed block-stats loop from folding away

struct Input {
  szx::data::Field f;
  Range range;
  double AbsBound(double eb) const { return eb * (range.max - range.min); }
};

szx::Params RelParams(double eb) {
  szx::Params p;
  p.mode = szx::ErrorBoundMode::kValueRangeRelative;
  p.error_bound = eb;
  return p;
}

class PaperFields final : public Path {
 public:
  PaperFields(Context& ctx, bool full) : ctx_(ctx) {
    if (full) {
      specs_.assign(std::begin(kFull), std::end(kFull));
    } else {
      specs_.assign(std::begin(kCompanion), std::end(kCompanion));
    }
  }

  void Generate() override {
    in_.clear();
    in_.resize(specs_.size());
    // Largest first, so the longest generator starts at once.
    std::vector<std::size_t> order(specs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return Elements(specs_[a]) > Elements(specs_[b]);
    });
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t k; (k = next++) < order.size();) {
        const FieldSpec& s = specs_[order[k]];
        in_[order[k]].f = szx::data::GenerateField(s.app, s.field, s.scale);
      }
    };
    std::vector<std::thread> pool;
    const int n = std::min<int>(ctx_.threads, static_cast<int>(order.size()));
    for (int t = 1; t < n; ++t) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
  }

  void Prepare() override {
    out_ = {};
    std::size_t largest = 0;
    for (Input& in : in_) {
      in.range = FiniteRange(in.f.values);
      largest = std::max(largest, in.f.size());
    }
    // The caller-owned output of DecompressInto, touched once here as a
    // caller's reused buffer would be.
    out_.assign(largest, 0.0f);
  }

  void ResetTallies() override { t_ = {}; }
  double NominalRoundSeconds() const override { return 17.0; }
  std::uint64_t CompanionRounds() const override { return 8; }

  void Round(std::uint64_t round, std::uint64_t parent) override {
    Tracer& tr = *ctx_.tracer;
    Outcome& oc = *ctx_.outcome;
    const double r0 = Now();
    const std::uint64_t span = tr.Open();
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t b = 0; b < std::size(kBounds); ++b) {
      for (std::size_t i = 0; i < in_.size(); ++i) order.emplace_back(b, i);
    }
    Rng(ctx_.seed ^ kSalt ^ (round * 0x9E3779B97F4A7C15ull)).Shuffle(order);
    double round_c1 = 0;
    for (const auto& [b, i] : order) {
      const Input& in = in_[i];
      const std::string what = std::string(AppNameOf(i)) + "/" +
                               in.f.name + " eb " + FormatDouble(kBounds[b]);
      const szx::Params p = RelParams(kBounds[b]);
      const double bound = in.AbsBound(kBounds[b]);
      const std::span<const float> data = in.f.values;
      const std::span<float> out(out_.data(), data.size());
      const std::string key = std::to_string(i) + "/" + std::to_string(b);
      oc.Attempt(4);
      try {
        szx::ByteBuffer s1;
        // Every decode writes over NaN, so a decode that leaves values
        // unwritten fails the bound check.
        std::fill(out.begin(), out.end(), kUnwritten);
        double t0 = Now();
        s1 = szx::Compress<float>(data, p);
        double t1 = Now();
        t_.c1[key].push_back(t1 - t0);
        round_c1 += t1 - t0;
        tr.Record("paper.Compress", span, t0, t1);

        t0 = Now();
        szx::DecompressInto<float>(s1, out);
        t1 = Now();
        t_.d1[key].push_back(t1 - t0);
        tr.Record("paper.DecompressInto", span, t0, t1);
        CheckBound(oc, what + " serial", data, out, bound, ctx_.threads);

        t0 = Now();
        const szx::ByteBuffer s4 =
            szx::CompressOmp<float>(data, p, nullptr, ctx_.threads);
        t1 = Now();
        t_.c4[key].push_back(t1 - t0);
        tr.Record("paper.CompressOmp", span, t0, t1);
        if (s4 != s1) oc.Wrong(what + ": CompressOmp stream differs from Compress");

        std::fill(out.begin(), out.end(), kUnwritten);
        t0 = Now();
        szx::DecompressOmpInto<float>(s1, out, ctx_.threads);
        t1 = Now();
        t_.d4[key].push_back(t1 - t0);
        tr.Record("paper.DecompressOmpInto", span, t0, t1);
        CheckBound(oc, what + " parallel", data, out, bound, ctx_.threads);

        if (t_.seen.insert(key).second) {
          t_.raw += static_cast<double>(data.size_bytes());
          t_.compressed += static_cast<double>(s1.size());
        }
      } catch (const std::exception& e) {
        for (int k = 0; k < 4; ++k) oc.Fail(what + ": " + e.what());
      }
    }
    if (first_round_c1_s_ < 0) first_round_c1_s_ = round_c1;
    tr.Close(span, "paper.round", parent, r0, Now());
  }

  void EndToEnd(Metrics& m) const override {
    m["compress_gbps"] = {Rate(t_.c4), "GB/s"};
    m["decompress_gbps"] = {Rate(t_.d4), "GB/s"};
    m["compress_1t_gbps"] = {Rate(t_.c1), "GB/s"};
    m["decompress_1t_gbps"] = {Rate(t_.d1), "GB/s"};
    m["ratio"] = {t_.raw / t_.compressed, "ratio"};
  }

  void Layers(Metrics& m, std::uint64_t parent) override {
    MemoryCeiling(m, parent);
    m["core.omp_codec.compress_speedup"] = {Rate(t_.c4) / Rate(t_.c1), "ratio"};
    m["core.omp_codec.decompress_speedup"] = {Rate(t_.d4) / Rate(t_.d1),
                                              "ratio"};
    Stages(m, parent);
    ExecutorDispatch(m, parent);
    Reference(m, parent);
  }

 private:
  // Seconds per (field, bound) key, one sample per round.
  using Samples = std::map<std::string, std::vector<double>>;
  struct Tally {
    Samples c1, d1, c4, d4;
    std::set<std::string> seen;
    double raw = 0, compressed = 0;  ///< over distinct keys
  };

  static double Total(const Samples& t) {
    double sum = 0;
    for (const auto& [key, v] : t) {
      for (const double x : v) sum += x;
    }
    return sum;
  }

  /// Raw GB per second, from each key's fastest round.
  double Rate(const Samples& t) const {
    return t_.raw / SumOfMins(t) / 1e9;
  }

  /// Minor page faults of the calling thread so far.
  static long MinorFaults() {
    rusage u{};
    getrusage(RUSAGE_THREAD, &u);
    return u.ru_minflt;
  }

  static std::size_t Elements(const FieldSpec& s) {
    std::size_t n = 1;
    for (const auto d : szx::data::GridDims(s.app, s.scale)) n *= d;
    return n;
  }
  const char* AppNameOf(std::size_t i) const {
    return szx::data::AppName(specs_[i].app);
  }

  // Multi-threaded and single-threaded memcpy of the largest field: the
  // ceiling every in-memory rate is reported against.
  void MemoryCeiling(Metrics& m, std::uint64_t parent) {
    const Input& big = *std::max_element(
        in_.begin(), in_.end(),
        [](const Input& a, const Input& b) { return a.f.size() < b.f.size(); });
    const std::size_t bytes = big.f.size_bytes();
    std::vector<double> tn, t1;
    for (int r = 0; r < 5; ++r) {
      const double a = Now();
      ParallelCopy(out_.data(), big.f.values.data(), bytes, ctx_.threads);
      const double b = Now();
      std::memcpy(out_.data(), big.f.values.data(), bytes);
      const double c = Now();
      tn.push_back(b - a);
      t1.push_back(c - b);
      ctx_.tracer->Record("mem.copy", parent, a, b);
      ctx_.tracer->Record("mem.copy_1t", parent, b, c);
    }
    const double copy = static_cast<double>(bytes) / Median(tn) / 1e9;
    m["mem.copy_gbps"] = {copy, "GB/s"};
    m["mem.copy_1t_gbps"] = {static_cast<double>(bytes) / Median(t1) / 1e9,
                             "GB/s"};
    m["mem.compress_vs_copy"] = {Rate(t_.c4) / copy, "ratio"};
    m["mem.decompress_vs_copy"] = {Rate(t_.d4) / copy, "ratio"};
  }

  // Stage attribution of the serial codec, per (field, bound): compress =
  // block stats + encode kernel + framing residual; decompress = prefix sum
  // + decode kernel.  Every stage rate is raw field bytes / stage time.
  void Stages(Metrics& m, std::uint64_t parent) {
    Tracer& tr = *ctx_.tracer;
    double raw = 0, whole_c = 0, stats = 0, encode = 0, whole_d = 0,
           prefix = 0, decode = 0;
    double blocks = 0, constant = 0, faults = 0;
    const auto& ops = szx::kernels::ActiveOps<float>();
    for (std::size_t i = 0; i < in_.size(); ++i) {
      const std::span<const float> data = in_[i].f.values;
      const std::uint32_t bs = 128;
      const std::size_t nb = (data.size() + bs - 1) / bs;
      const std::size_t cap =
          szx::kernels::FramePayloadCapacity(nb, bs, data.size_bytes());
      std::unique_ptr<std::byte[]> payload(new std::byte[cap]);
      for (const double eb : kBounds) {
        const szx::Params p = RelParams(eb);
        raw += static_cast<double>(data.size_bytes());
        szx::ByteBuffer s;
        const long f0 = MinorFaults();
        double t0 = Now();
        s = szx::Compress<float>(data, p);
        double t1 = Now();
        faults += static_cast<double>(MinorFaults() - f0);
        whole_c += t1 - t0;
        tr.Record("stage.Compress", parent, t0, t1);

        // Block stats: global range + per-block statistics.
        float sink = 0;
        t0 = Now();
        const auto gr = szx::ComputeGlobalRange<float>(data);
        for (std::size_t k = 0; k < nb; ++k) {
          const std::size_t n = std::min<std::size_t>(bs, data.size() - k * bs);
          sink += szx::ComputeBlockStats<float>(data.subspan(k * bs, n)).mu;
        }
        t1 = Now();
        stats += t1 - t0;
        tr.Record("stage.block_stats", parent, t0, t1);
        g_sink = sink;

        // Block decisions (untimed), then the encode kernel alone.
        const double abs_bound = eb * (double(gr.max) - double(gr.min));
        const int expo = szx::BoundExponent(abs_bound);
        struct Ncb {
          std::size_t k;
          float mu;
          szx::ReqPlan plan;
        };
        std::vector<Ncb> ncbs;
        for (std::size_t k = 0; k < nb; ++k) {
          const std::size_t n = std::min<std::size_t>(bs, data.size() - k * bs);
          const auto block = data.subspan(k * bs, n);
          const auto st = szx::ComputeBlockStats<float>(block);
          const auto d = szx::DecideBlock<float>(block, st, p.mode, eb,
                                                 abs_bound, expo);
          if (!d.is_constant) ncbs.push_back({k, d.mu, d.plan});
        }
        blocks += static_cast<double>(nb);
        constant += static_cast<double>(nb - ncbs.size());
        t0 = Now();
        std::size_t at = 0;
        for (const Ncb& c : ncbs) {
          const std::size_t n = std::min<std::size_t>(bs, data.size() - c.k * bs);
          at += ops.encode_c(data.data() + c.k * bs, n, c.mu, c.plan,
                             payload.get() + at);
        }
        t1 = Now();
        encode += t1 - t0;
        tr.Record("stage.encode_c", parent, t0, t1);

        const std::span<float> out(out_.data(), data.size());
        t0 = Now();
        szx::DecompressInto<float>(s, out);
        t1 = Now();
        whole_d += t1 - t0;
        tr.Record("stage.DecompressInto", parent, t0, t1);

        const auto sec = szx::ParseSections<float>(s);
        const szx::Header& h = sec.header;
        if ((h.flags & szx::kFlagRawPassthrough) != 0) continue;
        const std::uint64_t nnc = h.num_blocks - h.num_constant;
        t0 = Now();
        const auto offsets = szx::PrefixSumZsizes(sec.ncb_zsize, nnc);
        t1 = Now();
        prefix += t1 - t0;
        tr.Record("stage.PrefixSumZsizes", parent, t0, t1);

        t0 = Now();
        std::uint64_t ci = 0, nci = 0;
        for (std::uint64_t k = 0; k < h.num_blocks; ++k) {
          const std::size_t begin = k * bs;
          const std::size_t n = std::min<std::size_t>(bs, data.size() - begin);
          if (!szx::IsNonConstant(sec.type_bits, k)) {
            std::fill_n(out.data() + begin, n, sec.ConstMu(ci++));
            continue;
          }
          const auto plan = szx::PlanFromReqLength<float>(sec.Req(nci));
          ops.decode_c(sec.payload.data() + offsets[nci], sec.Zsize(nci),
                       sec.NcbMu(nci), plan, out.data() + begin, n);
          ++nci;
        }
        t1 = Now();
        decode += t1 - t0;
        tr.Record("stage.decode_c", parent, t0, t1);
      }
    }
    m["core.block_stats.gbps"] = {raw / stats / 1e9, "GB/s"};
    m["core.kernels.encode_gbps"] = {raw / encode / 1e9, "GB/s"};
    m["core.kernels.decode_gbps"] = {raw / decode / 1e9, "GB/s"};
    m["core.compressor.frame_s"] = {whole_c - stats - encode, "s"};
    m["core.compressor.frame_share"] = {(whole_c - stats - encode) / whole_c,
                                        "ratio"};
    m["core.frame_index.prefix_sum_gbps"] = {raw / prefix / 1e9, "GB/s"};
    m["core.decompress.stage_sum_share"] = {(prefix + decode) / whole_d,
                                            "ratio"};
    // Serial Compress in the process's first round over the same calls in
    // an average round of the traced pass.
    const double rounds = static_cast<double>(t_.c1.begin()->second.size());
    m["core.compressor.first_round_slowdown"] = {
        first_round_c1_s_ / (Total(t_.c1) / rounds), "ratio"};
    m["core.compressor.faults_per_mb"] = {faults / (raw / 1e6), "count/MB"};
    m["core.blocks"] = {blocks, "count"};
    m["core.constant_blocks"] = {constant, "count"};
  }

  // Cost of one exec::ParallelFor of nproc empty tasks.
  void ExecutorDispatch(Metrics& m, std::uint64_t parent) {
    std::vector<double> t;
    std::atomic<std::uint64_t> ran{0};
    const double a = Now();
    for (int r = 0; r < 2000; ++r) {
      const double t0 = Now();
      szx::exec::ParallelFor(static_cast<std::uint64_t>(ctx_.threads),
                             ctx_.threads, [&](std::uint64_t) { ++ran; });
      t.push_back(Now() - t0);
    }
    ctx_.tracer->Record("exec.ParallelFor x2000", parent, a, Now());
    if (ran != 2000ull * static_cast<std::uint64_t>(ctx_.threads)) {
      ctx_.outcome->Wrong("ParallelFor skipped tasks");
    }
    m["core.executor.dispatch_us"] = {Median(t) * 1e6, "us"};
  }

  // Paper-shape reference: serial SZx vs SZ vs ZFP on one field at
  // REL 1e-3 (Tables 4-5 compare the same three).
  void Reference(Metrics& m, std::uint64_t parent) {
    Tracer& tr = *ctx_.tracer;
    Outcome& oc = *ctx_.outcome;
    const Input& in = in_[kRefField];
    const std::span<const float> data = in.f.values;
    const double mb = static_cast<double>(data.size_bytes()) / 1e6;
    const double bound = in.AbsBound(1e-3);
    const std::span<const std::size_t> dims = in.f.dims;
    struct Row {
      const char* name;
      double c = 0, d = 0;
    };
    Row rows[3] = {{"szx"}, {"sz"}, {"zfp"}};
    for (Row& r : rows) {
      szx::ByteBuffer s;
      std::vector<float> recon;
      const std::string name = r.name;
      double t0 = Now();
      if (name == "szx") {
        s = szx::Compress<float>(data, RelParams(1e-3));
      } else if (name == "sz") {
        szx::szref::SzParams sp;
        sp.error_bound = 1e-3;
        s = szx::szref::SzCompress(data, dims, sp);
      } else {
        szx::zfpref::ZfpParams zp;
        zp.error_bound = 1e-3;
        s = szx::zfpref::ZfpCompress(data, dims, zp);
      }
      double t1 = Now();
      r.c = t1 - t0;
      tr.Record("ref." + name + ".compress", parent, t0, t1);
      t0 = Now();
      if (name == "szx") {
        recon = szx::Decompress<float>(s);
      } else if (name == "sz") {
        recon = szx::szref::SzDecompress(s, 1);
      } else {
        recon = szx::zfpref::ZfpDecompress(s);
      }
      t1 = Now();
      r.d = t1 - t0;
      tr.Record("ref." + name + ".decompress", parent, t0, t1);
      CheckBound(oc, "reference " + name, data, recon, bound, ctx_.threads);
      m["ref." + name + ".compress_mbps"] = {mb / r.c, "MB/s"};
      m["ref." + name + ".decompress_mbps"] = {mb / r.d, "MB/s"};
    }
    m["ref.szx_over_sz.compress"] = {rows[1].c / rows[0].c, "ratio"};
    m["ref.szx_over_zfp.compress"] = {rows[2].c / rows[0].c, "ratio"};
    m["ref.szx_over_sz.decompress"] = {rows[1].d / rows[0].d, "ratio"};
    m["ref.szx_over_zfp.decompress"] = {rows[2].d / rows[0].d, "ratio"};
  }

  Context& ctx_;
  std::vector<FieldSpec> specs_;
  std::vector<Input> in_;
  std::vector<float> out_;
  Tally t_;
  double first_round_c1_s_ = -1;  ///< serial Compress seconds, first round
};

}  // namespace

std::unique_ptr<Path> MakePaperFields(Context& ctx, bool full) {
  return std::make_unique<PaperFields>(ctx, full);
}

}  // namespace perfbench
