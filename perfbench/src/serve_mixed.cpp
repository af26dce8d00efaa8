// serve-mixed: a `szx_serve --workers 2` daemon on a kernel-assigned
// loopback port, driven closed-loop by three connections (serve::Client
// over the daemon's own socket transport).  Each connection sends a seeded
// mix of compress, decompress and container-query requests.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/chunk_cache.hpp"
#include "core/compressor.hpp"
#include "core/container.hpp"
#include "data/datasets.hpp"
#include "paths.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve_net.hpp"

namespace perfbench {
namespace {

using szx::data::App;
using szx::serve::Opcode;

constexpr double kEb = 1e-3;
constexpr int kConnections = 3;
// A connection's round is 18 blocks of the 20-request mix (see Sequence):
// 3 x 360 = 1080 requests a round.
constexpr int kMixBlock = 20;
constexpr int kPerConnection = 18 * kMixBlock;
// Query container: 2 fields x 2 timesteps.  Its decoded working set (5.8 MB
// at full size) fits the daemon's 8 MiB chunk cache, so every repeat query
// could be served from the cache.
constexpr std::uint64_t kTimesteps = 2;
constexpr std::uint64_t kSalt = 0x73657276652d6d78ull;
const char* const kCompressFields[] = {"TS", "PSL", "U10", "CLDLOW"};
const char* const kContainerFields[] = {"TS", "PSL"};

enum Class { kCompress = 0, kDecompress = 1, kQuery = 2 };
const char* const kClassName[] = {"compress", "decompress", "query"};

struct Body {
  Class cls = kCompress;
  szx::ByteBuffer bytes;        ///< request body as sent
  std::span<const float> raw;   ///< the values the response must match
  double bound = 0;             ///< absolute bound on those values
  szx::ByteBuffer expected;     ///< compress: the in-process stream
  std::uint32_t field = 0;      ///< query: (field, timestep)
  std::uint64_t timestep = 0;
  double codec_s = 0;           ///< in-process time of the same job
};

Body MakeBody(Class cls, std::span<const float> raw, double bound) {
  Body b;
  b.cls = cls;
  b.raw = raw;
  b.bound = bound;
  return b;
}

class ServeMixed final : public Path {
 public:
  ServeMixed(Context& ctx, bool full)
      // Full: compress bodies of 0.35 MB and 2.9 MB (CESM scale 0.35 and
      // 1), queries of 1.44 MB timesteps.  Companion: 0.35 MB bodies and
      // 0.7 MB timesteps.
      : ctx_(ctx),
        full_(full),
        dir_(ctx.work / "serve") {}

  void Generate() override {
    fields_.clear();
    cfields_.clear();
    // Compress / decompress bodies.
    std::vector<double> scales{0.35};
    if (full_) scales.push_back(1.0);
    for (const double scale : scales) {
      for (const char* name : kCompressFields) {
        fields_.push_back(szx::data::GenerateField(App::kCesm, name, scale));
      }
    }
    // The query container's fields.
    const double cscale = full_ ? 1.0 : 0.7;
    for (const char* name : kContainerFields) {
      cfields_.push_back(szx::data::GenerateField(App::kCesm, name, cscale));
    }
  }

  void Prepare() override {
    if (daemon_.running()) daemon_.Stop();
    std::filesystem::create_directories(dir_);
    bodies_.clear();
    container_.clear();
    Outcome& oc = *ctx_.outcome;

    szx::Params p;
    p.error_bound = kEb;
    for (const auto& f : fields_) {
      const std::span<const float> raw = f.values;
      const double bound = kEb * Width(FiniteRange(raw));
      Body c = MakeBody(kCompress, raw, bound);
      szx::serve::CompressSpec spec;
      spec.error_bound = kEb;
      szx::serve::AppendCompressSpec(c.bytes, spec);
      const auto* b = reinterpret_cast<const std::byte*>(raw.data());
      c.bytes.insert(c.bytes.end(), b, b + raw.size_bytes());
      c.expected = szx::Compress<float>(raw, p);
      CheckBound(oc, "in-process stream of " + f.name,
                 raw, szx::Decompress<float>(c.expected), bound, ctx_.threads);
      Body d = MakeBody(kDecompress, raw, bound);
      d.bytes = c.expected;
      bodies_.push_back(std::move(c));
      bodies_.push_back(std::move(d));
    }

    // One small multi-field container, pre-packed; queries send it whole.
    szx::ContainerWriter w;
    const std::uint64_t ept = cfields_[0].size() / kTimesteps;
    for (const auto& f : cfields_) {
      szx::ContainerWriter::FieldSpec spec;
      spec.name = f.name;
      spec.params = p;
      spec.elements_per_timestep = ept;
      const std::uint32_t id = w.AddField(spec, szx::DataType::kFloat32);
      for (std::uint64_t t = 0; t < kTimesteps; ++t) {
        w.AppendTimestep<float>(id, f.span().subspan(t * ept, ept));
      }
    }
    container_ = w.Finish();
    for (std::uint32_t fi = 0; fi < cfields_.size(); ++fi) {
      for (std::uint64_t t = 0; t < kTimesteps; ++t) {
        const auto raw = cfields_[fi].span().subspan(t * ept, ept);
        Body q = MakeBody(kQuery, raw, kEb * Width(FiniteRange(raw)));
        q.field = fi;
        q.timestep = t;
        szx::serve::AppendQuerySpec(q.bytes, {fi, t});
        q.bytes.insert(q.bytes.end(), container_.begin(), container_.end());
        bodies_.push_back(std::move(q));
      }
    }

    daemon_.Start({ctx_.serve.string(), "--port", "0", "--workers", "2"},
                  Log());
    const std::string line = daemon_.ReadLine(30.0);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "szx-serve listening on %u", &port) != 1) {
      throw std::runtime_error("szx_serve did not report its port: '" + line +
                               "'");
    }
    port_ = static_cast<std::uint16_t>(port);
  }

  void ResetTallies() override { t_ = {}; }
  double NominalRoundSeconds() const override { return 3.5; }
  std::uint64_t CompanionRounds() const override { return 3; }

  void Round(std::uint64_t round, std::uint64_t parent) override {
    Tracer& tr = *ctx_.tracer;
    const double r0 = Now();
    const std::uint64_t span = tr.Open();
    std::vector<Tally> local(kConnections);
    std::vector<std::thread> conns;
    for (int c = 0; c < kConnections; ++c) {
      conns.emplace_back([this, c, round, span, &local] {
        Connection(round, c, span, local[c]);
      });
    }
    for (auto& t : conns) t.join();
    const double r1 = Now();
    for (const Tally& l : local) {
      for (int k = 0; k < 3; ++k) {
        Append(t_.latency[k], l.latency[k]);
        Append(t_.send[k], l.send[k]);
        Append(t_.receive[k], l.receive[k]);
        Append(t_.bodies[k], l.bodies[k]);
        Append(t_.all, l.latency[k]);
      }
    }
    sent_ += kConnections * kPerConnection;
    t_.busy_s += r1 - r0;
    tr.Close(span, "serve.round", parent, r0, r1);
  }

  void Finish() override {
    const int code = daemon_.Stop();
    Outcome& oc = *ctx_.outcome;
    if (code != 0) oc.Wrong("szx_serve exited " + std::to_string(code));
    unsigned long long conns = 0, req = 0, ok = 0, partial = 0, shed = 0;
    bool parsed = false;
    const auto log = ReadWhole(Log());
    const std::string text(reinterpret_cast<const char*>(log.data()),
                           log.size());
    const auto at = text.rfind("szx_serve: served");
    if (at != std::string::npos &&
        std::sscanf(text.c_str() + at,
                    "szx_serve: served %llu connections, %llu requests "
                    "(%llu ok, %llu partial, %llu shed)",
                    &conns, &req, &ok, &partial, &shed) == 5) {
      parsed = true;
    }
    if (!parsed) {
      oc.Wrong("szx_serve exit line missing");
    } else if (req != sent_ || ok != sent_ || partial != 0 || shed != 0) {
      oc.Wrong("szx_serve counted " + std::to_string(req) + " requests (" +
               std::to_string(ok) + " ok, " + std::to_string(partial) +
               " partial, " + std::to_string(shed) + " shed) for " +
               std::to_string(sent_) + " sent");
    }
    counts_ = {double(req), double(ok), double(shed), double(partial)};
  }

  void EndToEnd(Metrics& m) const override {
    // Every figure pools all requests of the run, so a short stall (CPU
    // steal on a shared host) moves it by its share of the run at most.
    m["serve_rps"] = {static_cast<double>(t_.all.size()) / t_.busy_s, "1/s"};
    m["serve_compress_p50_ms"] = {Median(t_.latency[kCompress]) * 1e3, "ms"};
    m["serve_decompress_p50_ms"] = {Median(t_.latency[kDecompress]) * 1e3,
                                    "ms"};
    m["serve_query_p50_ms"] = {Median(t_.latency[kQuery]) * 1e3, "ms"};
    m["serve_p99_ms"] = {Percentile(t_.all, 99.0) * 1e3, "ms"};
  }

  void Layers(Metrics& m, std::uint64_t parent) override {
    Tracer& tr = *ctx_.tracer;
    // The same jobs in-process, one worker's worth (serial codec; queries
    // through a fresh reader over one shared 8 MiB cache, as the daemon
    // runs them).
    szx::ChunkCache cache(std::size_t{8} << 20);
    for (Body& b : bodies_) {
      std::vector<double> t;
      for (int r = 0; r < 3; ++r) {
        const double t0 = Now();
        if (b.cls == kCompress) {
          szx::Params p;
          p.error_bound = kEb;
          (void)szx::Compress<float>(b.raw, p);
        } else if (b.cls == kDecompress) {
          (void)szx::Decompress<float>(b.bytes);
        } else {
          const szx::ContainerReader reader(container_, &cache);
          (void)reader.DecompressTimestep<float>(b.field, b.timestep, 1);
        }
        t.push_back(Now() - t0);
        tr.Record(std::string("serve.codec.") + kClassName[b.cls], parent, t0,
                  t0 + t.back());
      }
      b.codec_s = Median(t);
    }
    const szx::ChunkCacheStats cs = cache.Stats();
    m["core.chunk_cache.hit_ratio"] = {
        static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses),
        "ratio"};

    for (int c = 0; c < 3; ++c) {
      std::vector<double> codec;
      for (const std::size_t i : t_.bodies[c]) codec.push_back(bodies_[i].codec_s);
      const std::string n = kClassName[c];
      const double p50 = Median(t_.latency[c]);
      m["serve.client." + n + ".send_ms"] = {Median(t_.send[c]) * 1e3, "ms"};
      m["serve.client." + n + ".receive_ms"] = {Median(t_.receive[c]) * 1e3,
                                                "ms"};
      m["serve.codec." + n + "_ms"] = {Median(codec) * 1e3, "ms"};
      m["serve.overhead." + n + "_ms"] = {(p50 - Median(codec)) * 1e3, "ms"};
    }

    // Body checksum over the largest body of each class.
    double bytes = 0, secs = 0;
    for (int c = 0; c < 3; ++c) {
      const Body* big = nullptr;
      for (const Body& b : bodies_) {
        if (b.cls == c && (big == nullptr || b.bytes.size() > big->bytes.size())) {
          big = &b;
        }
      }
      std::vector<double> t;
      volatile std::uint64_t sink = 0;
      for (int r = 0; r < 5; ++r) {
        const double t0 = Now();
        sink = sink + szx::serve::BodyChecksum(big->bytes);
        t.push_back(Now() - t0);
        tr.Record("serve.BodyChecksum", parent, t0, t0 + t.back());
      }
      bytes += static_cast<double>(big->bytes.size());
      secs += Median(t);
    }
    m["serve.protocol.checksum_gbps"] = {bytes / secs / 1e9, "GB/s"};

    m["net.loopback_gbps"] = {Loopback(parent), "GB/s"};
    m["serve.server.requests"] = {counts_[0], "count"};
    m["serve.server.ok"] = {counts_[1], "count"};
    m["serve.server.shed"] = {counts_[2], "count"};
    m["serve.server.partial"] = {counts_[3], "count"};
  }

 private:
  struct Tally {
    std::vector<double> latency[3], send[3], receive[3];
    std::vector<std::size_t> bodies[3];  ///< body of every request answered
    std::vector<double> all;             ///< every latency, all classes
    double busy_s = 0;                   ///< wall time of the rounds

  };

  static double Width(const Range& r) { return r.max - r.min; }
  template <typename V>
  static void Append(V& to, const V& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
  std::filesystem::path Log() const { return dir_ / "serve.log"; }

  /// Connection c's request sequence for one round.  Each block of
  /// kMixBlock requests holds 8 compress, 8 decompress and 4 queries, and
  /// 2 of each 8 use the 2.9 MB fields (at full size); each class takes its
  /// bodies in turn.  So every round of every connection sends the same
  /// requests, and the seed sets only their order.  No recorded traffic
  /// backs these weights; README.md gives the reason for each.
  std::vector<std::size_t> Sequence(std::uint64_t round, int c) const {
    Rng rng(ctx_.seed ^ kSalt ^ (round * 0x9E3779B97F4A7C15ull) ^
            (static_cast<std::uint64_t>(c + 1) << 56));
    std::vector<std::size_t> by_class[3][2];  // [class][large]
    const std::size_t small_fields = std::size(kCompressFields);
    for (std::size_t i = 0; i < bodies_.size(); ++i) {
      const Body& b = bodies_[i];
      const bool large = b.cls != kQuery && i / 2 >= small_fields;
      by_class[b.cls][large].push_back(i);
    }
    std::vector<std::size_t> seq;
    std::size_t next[3][2] = {};
    for (int k = 0; k < kPerConnection; ++k) {
      const int slot = k % kMixBlock;
      const Class cls = slot < 8 ? kCompress : slot < 16 ? kDecompress : kQuery;
      const bool large = cls != kQuery && full_ && slot % 4 == 3;
      const auto& pool = by_class[cls][large];
      seq.push_back(pool[next[cls][large]++ % pool.size()]);
    }
    rng.Shuffle(seq);
    return seq;
  }

  /// One connection's closed loop: send, wait for the response, check it,
  /// send the next.
  void Connection(std::uint64_t round, int c, std::uint64_t parent,
                  Tally& out) {
    Outcome& oc = *ctx_.outcome;
    Tracer& tr = *ctx_.tracer;
    const std::vector<std::size_t> seq = Sequence(round, c);
    oc.Attempt(seq.size());
    std::size_t done = 0;
    std::string why = "cannot connect";
    try {
      const int fd = szx::servenet::ConnectTcp("127.0.0.1", port_);
      if (fd < 0) throw std::runtime_error(why);
      szx::servenet::FdTransport transport(fd);
      szx::serve::Client client(transport);
      for (; done < seq.size(); ++done) {
        const Body& b = bodies_[seq[done]];
        const Opcode op = b.cls == kCompress     ? Opcode::kCompress
                          : b.cls == kDecompress ? Opcode::kDecompress
                                                 : Opcode::kQuery;
        const double t0 = Now();
        const std::uint64_t id = client.Send(op, b.bytes);
        const double t1 = Now();
        const auto rsp = client.Receive();
        const double t2 = Now();
        const std::string req = "r" + std::to_string(round) + ".c" +
                                std::to_string(c) + "." + std::to_string(id);
        if (tr.enabled()) {
          const std::uint64_t s = tr.Open();
          tr.Record("serve.Client::Send", s, t0, t1, req);
          tr.Record("serve.Client::Receive", s, t1, t2, req);
          tr.Close(s, std::string("serve.request.") + kClassName[b.cls], parent,
                   t0, t2, req);
        }
        if (!rsp) throw std::runtime_error("daemon closed " + req);
        if (rsp->header.status != szx::serve::Status::kOk) {
          oc.Fail(req + " answered " +
                  szx::serve::StatusName(rsp->header.status));
          continue;
        }
        out.latency[b.cls].push_back(t2 - t0);
        out.send[b.cls].push_back(t1 - t0);
        out.receive[b.cls].push_back(t2 - t1);
        out.bodies[b.cls].push_back(seq[done]);
        Verify(b, *rsp, id, req);
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    for (; done < seq.size(); ++done) {
      oc.Fail("connection " + std::to_string(c) + ": " + why);
    }
  }

  void Verify(const Body& b, const szx::serve::ClientResponse& rsp,
              std::uint64_t id, const std::string& req) {
    Outcome& oc = *ctx_.outcome;
    if (!rsp.body_checksum_ok) oc.Wrong(req + ": response body checksum");
    if (rsp.header.request_id != id) oc.Wrong(req + ": response id mismatch");
    if (b.cls == kCompress) {
      if (rsp.body != b.expected) {
        oc.Wrong(req + ": compressed stream differs from in-process Compress");
      }
      return;
    }
    szx::ByteSpan data = rsp.body;
    if (b.cls == kQuery) data = szx::serve::SplitReportAndData(rsp.body).data;
    if (data.size() != b.raw.size_bytes()) {
      oc.Wrong(req + ": " + std::to_string(data.size()) + " bytes returned");
      return;
    }
    std::vector<float> values(b.raw.size());
    std::memcpy(values.data(), data.data(), data.size());
    CheckBound(oc, req, b.raw, values, b.bound, 1);
  }

  // The same request bodies over a plain loopback TCP pair.
  double Loopback(std::uint64_t parent) {
    std::uint16_t port = 0;
    const int lfd = szx::servenet::ListenTcp(0, port);
    if (lfd < 0) throw std::runtime_error("loopback listen failed");
    const int cfd = szx::servenet::ConnectTcp("127.0.0.1", port);
    const int sfd = szx::servenet::AcceptConn(lfd);
    ::close(lfd);
    if (cfd < 0 || sfd < 0) throw std::runtime_error("loopback connect failed");
    szx::servenet::FdTransport tx(cfd), rx(sfd);
    std::size_t total = 0;
    for (const Body& b : bodies_) total += b.bytes.size();
    std::vector<double> t;
    std::vector<std::byte> sink(1 << 20);
    for (int r = 0; r < 3; ++r) {
      const double t0 = Now();
      std::thread writer([&] {
        for (const Body& b : bodies_) tx.Write(b.bytes);
      });
      std::size_t got = 0;
      while (got < total) {
        const std::size_t n = rx.Read(std::span<std::byte>(sink).first(
            std::min(sink.size(), total - got)));
        if (n == 0) break;
        got += n;
      }
      writer.join();
      t.push_back(Now() - t0);
      ctx_.tracer->Record("net.loopback", parent, t0, t0 + t.back());
    }
    return static_cast<double>(total) / Median(t) / 1e9;
  }

  Context& ctx_;
  bool full_;
  std::filesystem::path dir_;
  std::vector<szx::data::Field> fields_;   ///< compress / decompress bodies
  std::vector<szx::data::Field> cfields_;  ///< the query container's fields
  std::vector<Body> bodies_;
  szx::ByteBuffer container_;
  Daemon daemon_;
  std::uint16_t port_ = 0;
  std::uint64_t sent_ = 0;  ///< requests sent over the daemon's lifetime
  std::array<double, 4> counts_{};
  Tally t_;
};

}  // namespace

std::unique_ptr<Path> MakeServeMixed(Context& ctx, bool full) {
  return std::make_unique<ServeMixed>(ctx, full);
}

}  // namespace perfbench
