// Real-file chunk backend: round-trip fidelity, mutator bookkeeping, the
// deterministic transient-fault model (retries restart at the same offset,
// so nothing is lost or duplicated), and the pipelined-dump overlap model
// that makes the Fig. 16 serial-sum makespan the baseline to beat.
#include "iosim/file_backend.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "iosim/file_source.hpp"
#include "iosim/pfs_sim.hpp"

namespace szx::iosim {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "szx_file_backend_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::vector<std::byte> Pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  unsigned x = seed * 2654435761U + 1U;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525U + 1013904223U;
    v[i] = static_cast<std::byte>(x >> 24);
  }
  return v;
}

class FileBackendTest : public testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::remove(p.c_str());
    }
  }
  std::string Path(const char* tag) {
    paths_.push_back(TempPath(tag));
    return paths_.back();
  }
  std::vector<std::string> paths_;
};

TEST_F(FileBackendTest, RoundTripsChunksByteExactly) {
  const auto path = Path("roundtrip");
  const auto payload = Pattern(10'000, 1);
  const std::size_t chunk = 1'024;

  ChunkFileWriter out(path);
  for (std::size_t pos = 0; pos < payload.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, payload.size() - pos);
    out.WriteChunk(std::span<const std::byte>(payload).subspan(pos, n));
  }
  out.Close();
  EXPECT_EQ(out.stats().chunks, 10U);
  EXPECT_EQ(out.stats().bytes, payload.size());
  EXPECT_EQ(out.stats().mutated, 0U);
  EXPECT_EQ(FileSizeBytes(path), payload.size());

  ChunkFileReader in(path);
  std::vector<std::byte> got;
  std::vector<std::byte> buf(chunk);
  for (std::size_t n = in.ReadChunk(buf); n != 0; n = in.ReadChunk(buf)) {
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, payload);
  EXPECT_EQ(in.stats().chunks, 10U);
  EXPECT_EQ(in.stats().retries, 0U);
  EXPECT_EQ(in.stats().attempts, 11U);  // 10 chunks + 1 EOF probe
}

TEST_F(FileBackendTest, MutatorRewritesChunksInFlight) {
  const auto path = Path("mutator");
  const auto payload = Pattern(256, 2);

  ChunkFileWriter out(path);
  out.set_mutator([](std::uint64_t index, std::vector<std::byte>& chunk) {
    if (index == 1) {
      chunk[0] ^= std::byte{0xFF};  // corrupt
    } else if (index == 2) {
      chunk.resize(chunk.size() / 2);  // truncate
    }
  });
  for (int c = 0; c < 4; ++c) {
    out.WriteChunk(std::span<const std::byte>(payload).subspan(
        static_cast<std::size_t>(64 * c), 64));
  }
  out.Close();
  EXPECT_EQ(out.stats().chunks, 4U);
  EXPECT_EQ(out.stats().mutated, 2U);
  EXPECT_EQ(out.stats().bytes, 64U + 64U + 32U + 64U);
  EXPECT_EQ(FileSizeBytes(path), 224U);
}

TEST_F(FileBackendTest, TransientFaultsRetryFromSameOffset) {
  const auto path = Path("faults");
  const auto payload = Pattern(9'000, 3);
  {
    ChunkFileWriter out(path);
    out.WriteChunk(payload);
    out.Close();
  }

  TransientReadFaults faults;
  faults.period = 3;  // chunks 3, 6, 9 fail on first attempt
  faults.max_attempts = 2;
  ChunkFileReader in(path, faults);
  std::vector<std::byte> got;
  std::vector<std::byte> buf(1'000);
  for (std::size_t n = in.ReadChunk(buf); n != 0; n = in.ReadChunk(buf)) {
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  // The retried chunks are byte-identical: nothing lost, nothing repeated.
  EXPECT_EQ(got, payload);
  EXPECT_EQ(in.stats().chunks, 9U);
  EXPECT_EQ(in.stats().retries, 3U);
  EXPECT_EQ(in.stats().attempts, 9U + 3U + 1U);
}

TEST_F(FileBackendTest, ExhaustedRetriesThrow) {
  const auto path = Path("exhausted");
  {
    ChunkFileWriter out(path);
    const auto payload = Pattern(64, 4);
    out.WriteChunk(payload);
    out.Close();
  }
  TransientReadFaults faults;
  faults.period = 1;        // every chunk faults once...
  faults.max_attempts = 1;  // ...and no retry budget exists
  ChunkFileReader in(path, faults);
  std::vector<std::byte> buf(64);
  EXPECT_THROW(in.ReadChunk(buf), std::runtime_error);
}

TEST_F(FileBackendTest, InvalidInputsThrow) {
  EXPECT_THROW(ChunkFileReader in("/nonexistent/szx/file.bin"),
               std::runtime_error);
  EXPECT_THROW(FileSizeBytes("/nonexistent/szx/file.bin"),
               std::runtime_error);
  const auto path = Path("badattempts");
  {
    ChunkFileWriter out(path);
    const auto payload = Pattern(8, 5);
    out.WriteChunk(payload);
    out.Close();
  }
  TransientReadFaults faults;
  faults.max_attempts = 0;
  EXPECT_THROW(ChunkFileReader in(path, faults), std::runtime_error);
}

TEST_F(FileBackendTest, WriteAfterCloseThrows) {
  const auto path = Path("closed");
  ChunkFileWriter out(path);
  const auto payload = Pattern(16, 6);
  out.WriteChunk(payload);
  out.Close();
  EXPECT_THROW(out.WriteChunk(payload), std::runtime_error);
}

// --- EINTR / short-I/O hardening (injected raw ops) -----------------------
//
// The raw ops serve an in-memory file image so the tests can script exact
// interrupted-syscall schedules.  Before the resume loop, a short read
// mid-chunk surfaced as a torn chunk (trailing garbage bytes); these tests
// pin the repaired contract byte-for-byte.

// Positioned read over `image` that never moves more than `cap` bytes per
// call and fails with EINTR on the call ordinals in `eintr_on` (1-based).
RawReadOp ScriptedRead(const std::vector<std::byte>& image, std::size_t cap,
                       std::vector<int> eintr_on, int* calls) {
  return [&image, cap, eintr_on = std::move(eintr_on), calls](
             std::byte* dst, std::size_t n, std::uint64_t offset,
             int& err) -> long long {
    const int call = ++*calls;
    if (std::find(eintr_on.begin(), eintr_on.end(), call) != eintr_on.end()) {
      err = EINTR;
      return -1;
    }
    if (offset >= image.size()) return 0;
    const std::size_t give =
        std::min({n, image.size() - static_cast<std::size_t>(offset), cap});
    std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(offset), give,
                dst);
    return static_cast<long long>(give);
  };
}

TEST_F(FileBackendTest, ShortReadsMidChunkAreResumedByteExactly) {
  const auto path = Path("shortread");
  const auto payload = Pattern(4'096, 11);
  {
    ChunkFileWriter out(path);
    out.WriteChunk(payload);
    out.Close();
  }
  ChunkFileReader in(path);
  int calls = 0;
  in.set_raw_read(ScriptedRead(payload, 100, {}, &calls));
  std::vector<std::byte> out(payload.size());
  ASSERT_EQ(in.ReadChunk(out), payload.size());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(calls, 41);  // ceil(4096 / 100)
  EXPECT_EQ(in.stats().short_ios, 40u);    // every call but the last
  EXPECT_EQ(in.stats().chunks, 1u);
  EXPECT_EQ(in.stats().retries, 0u);  // resumes are not chunk-level retries
  EXPECT_EQ(in.stats().bytes, payload.size());
}

TEST_F(FileBackendTest, EintrMidChunkIsRetriedNotSurfaced) {
  const auto path = Path("eintrread");
  const auto payload = Pattern(1'000, 12);
  {
    ChunkFileWriter out(path);
    out.WriteChunk(payload);
    out.Close();
  }
  ChunkFileReader in(path);
  int calls = 0;
  // Interrupt the 1st and 3rd syscalls; serve 400 bytes otherwise.
  in.set_raw_read(ScriptedRead(payload, 400, {1, 3}, &calls));
  std::vector<std::byte> out(payload.size());
  ASSERT_EQ(in.ReadChunk(out), payload.size());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(in.stats().eintr_retries, 2u);
  EXPECT_EQ(in.stats().retries, 0u);  // EINTR is below the chunk-retry model
}

TEST_F(FileBackendTest, PersistentEintrExhaustsTheBudgetAndThrows) {
  const auto path = Path("eintrstuck");
  {
    ChunkFileWriter out(path);
    out.WriteChunk(Pattern(64, 13));
    out.Close();
  }
  ChunkFileReader in(path);
  in.set_raw_read([](std::byte*, std::size_t, std::uint64_t,
                     int& err) -> long long {
    err = EINTR;
    return -1;  // interrupted forever: must error out, not livelock
  });
  std::vector<std::byte> out(64);
  EXPECT_THROW((void)in.ReadChunk(out), std::runtime_error);
}

TEST_F(FileBackendTest, HardReadErrorsAreNotRetried) {
  const auto path = Path("hardread");
  {
    ChunkFileWriter out(path);
    out.WriteChunk(Pattern(64, 14));
    out.Close();
  }
  ChunkFileReader in(path);
  int calls = 0;
  in.set_raw_read([&calls](std::byte*, std::size_t, std::uint64_t,
                           int& err) -> long long {
    ++calls;
    err = EIO;
    return -1;
  });
  std::vector<std::byte> out(64);
  EXPECT_THROW((void)in.ReadChunk(out), std::runtime_error);
  EXPECT_EQ(calls, 1);  // EIO is terminal, not a transient to spin on
}

TEST_F(FileBackendTest, ShortAndInterruptedWritesAreResumed) {
  const auto path = Path("shortwrite");
  const auto payload = Pattern(1'024, 15);
  ChunkFileWriter out(path);
  std::vector<std::byte> sink;  // what "the kernel" accepted, in order
  int calls = 0;
  out.set_raw_write([&](const std::byte* src, std::size_t n,
                        int& err) -> long long {
    ++calls;
    if (calls % 4 == 0) {
      err = EINTR;
      return -1;
    }
    const std::size_t give = std::min<std::size_t>(n, 50);
    sink.insert(sink.end(), src, src + give);
    return static_cast<long long>(give);
  });
  out.WriteChunk(payload);
  // The file image must be the payload exactly once, in order -- the
  // resume loop may never re-send an accepted byte or drop an unsent one.
  EXPECT_EQ(sink, payload);
  EXPECT_GT(out.stats().eintr_retries, 0u);
  EXPECT_GT(out.stats().short_ios, 0u);
  EXPECT_EQ(out.stats().chunks, 1u);
  EXPECT_EQ(out.stats().bytes, payload.size());
}

TEST_F(FileBackendTest, PersistentWriteEintrThrows) {
  const auto path = Path("writestuck");
  ChunkFileWriter out(path);
  out.set_raw_write([](const std::byte*, std::size_t, int& err) -> long long {
    err = EINTR;
    return -1;
  });
  EXPECT_THROW(out.WriteChunk(Pattern(16, 16)), std::runtime_error);
}

TEST_F(FileBackendTest, RestoredRawOpsUseTheRealFileAgain) {
  const auto path = Path("restore");
  const auto payload = Pattern(256, 17);
  {
    ChunkFileWriter out(path);
    out.WriteChunk(payload);
    out.Close();
  }
  ChunkFileReader in(path);
  int calls = 0;
  in.set_raw_read(ScriptedRead(payload, 64, {}, &calls));
  std::vector<std::byte> first(payload.size());
  ASSERT_EQ(in.ReadChunk(first), payload.size());
  ASSERT_GT(calls, 1);
  // Empty op = back to the real pread; the second chunk read hits EOF on
  // the real (one-chunk) file rather than the in-memory script.
  in.set_raw_read(RawReadOp{});
  std::vector<std::byte> second(payload.size());
  EXPECT_EQ(in.ReadChunk(second), 0u);
}

// --- PreadFull and FileSource: the positioned-read loop on its own --------
//
// fd -1 proves the scripted op is the only thing read: a real pread on it
// would fail with EBADF.

TEST(PreadFull, ShortReadsResumeByteExactly) {
  const auto image = Pattern(4'096, 21);
  int calls = 0;
  const RawReadOp raw = ScriptedRead(image, 100, {}, &calls);
  std::vector<std::byte> out(1'000);
  FileIoStats stats;
  ASSERT_EQ(PreadFull(-1, out, 1'500, raw, &stats, "image"), out.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), image.begin() + 1'500));
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(stats.short_ios, 9u);
}

TEST(PreadFull, EintrIsRetriedAtTheSameOffset) {
  const auto image = Pattern(900, 22);
  int calls = 0;
  const RawReadOp raw = ScriptedRead(image, 300, {1, 2, 4}, &calls);
  std::vector<std::byte> out(image.size());
  FileIoStats stats;
  ASSERT_EQ(PreadFull(-1, out, 0, raw, &stats, "image"), out.size());
  EXPECT_EQ(out, image);
  EXPECT_EQ(stats.eintr_retries, 3u);
  // Stats are optional.
  calls = 0;
  std::vector<std::byte> again(image.size());
  ASSERT_EQ(PreadFull(-1, again, 0, raw, nullptr, "image"), again.size());
  EXPECT_EQ(again, image);
}

TEST(PreadFull, StuckEintrErrorsOut) {
  int calls = 0;
  const RawReadOp raw = [&calls](std::byte*, std::size_t, std::uint64_t,
                                 int& err) -> long long {
    ++calls;
    err = EINTR;
    return -1;
  };
  std::vector<std::byte> out(64);
  EXPECT_THROW((void)PreadFull(-1, out, 0, raw, nullptr, "image"),
               std::runtime_error);
  EXPECT_GT(calls, 1);
  EXPECT_LT(calls, 1'000);  // bounded: an error, not a livelock
}

TEST(PreadFull, EndOfFileReturnsTheBytesThatExist) {
  const auto image = Pattern(500, 23);
  int calls = 0;
  const RawReadOp raw = ScriptedRead(image, 128, {}, &calls);
  std::vector<std::byte> out(300);
  ASSERT_EQ(PreadFull(-1, out, 400, raw, nullptr, "image"), 100u);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 100, image.begin() + 400));
}

TEST_F(FileBackendTest, FileSourceReadsRangesAndRefusesPartialSpans) {
  const auto path = Path("source");
  const auto payload = Pattern(2'000, 24);
  {
    ChunkFileWriter out(path);
    out.WriteChunk(payload);
    out.Close();
  }
  FileSource src(path);
  ASSERT_EQ(src.size(), payload.size());
  ByteBuffer scratch;
  const ByteSpan mid = src.ReadAt(700, 600, scratch);
  ASSERT_EQ(mid.size(), 600u);
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), payload.begin() + 700));
  // Past the recorded size: refused before any read.
  EXPECT_THROW((void)src.ReadAt(1'900, 101, scratch), Error);
  EXPECT_THROW((void)src.ReadAt(UINT64_MAX, 1, scratch), Error);

  // Short reads and EINTR through the injected op still deliver every byte.
  int calls = 0;
  src.set_raw_read(ScriptedRead(payload, 64, {2, 5}, &calls));
  const ByteSpan all = src.ReadAt(0, payload.size(), scratch);
  EXPECT_TRUE(std::equal(all.begin(), all.end(), payload.begin()));

  // The file "shrinks" to 1000 bytes after open: end of file before n bytes
  // is an error, never a partial span.
  const std::vector<std::byte> shrunk(payload.begin(), payload.begin() + 1'000);
  calls = 0;
  src.set_raw_read(ScriptedRead(shrunk, 4'096, {}, &calls));
  EXPECT_THROW((void)src.ReadAt(900, 200, scratch), Error);
  std::vector<std::byte> typed(200);
  EXPECT_THROW(src.ReadInto(900, typed), Error);

  // A hard syscall error is an I/O fault (std::runtime_error, not the
  // corruption-class szx::Error).
  src.set_raw_read([](std::byte*, std::size_t, std::uint64_t,
                      int& err) -> long long {
    err = EIO;
    return -1;
  });
  try {
    (void)src.ReadAt(0, 10, scratch);
    ADD_FAILURE() << "EIO did not throw";
  } catch (const Error&) {
    ADD_FAILURE() << "EIO surfaced as corruption";
  } catch (const std::runtime_error&) {
  }
  src.set_raw_read(RawReadOp{});
  const ByteSpan head = src.ReadAt(0, 16, scratch);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), payload.begin()));
}

TEST(FileSource, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(FileSource("/nonexistent/szx_file_source.bin"),
               std::runtime_error);
}

// --- Overlap makespan model (SimulatePipelinedDump) -----------------------

RankWorkload NyxLikeWorkload() {
  RankWorkload w;
  w.bytes_per_rank = std::uint64_t{512} * 1024 * 1024;
  w.compress_gbps = 8.0;
  w.decompress_gbps = 12.0;
  w.compression_ratio = 6.0;
  return w;
}

TEST(PipelinedDump, NeverSlowerThanSerialSum) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  for (const int ranks : {1, 64, 256, 1024}) {
    for (const std::uint32_t chunks : {1U, 2U, 4U, 16U, 64U}) {
      const PipelinedTime t = SimulatePipelinedDump(pfs, ranks, w, chunks);
      EXPECT_LE(t.pipelined_s, t.serial_s + 1e-12)
          << "ranks=" << ranks << " chunks=" << chunks;
      EXPECT_GE(t.speedup(), 1.0 - 1e-12);
      EXPECT_LT(t.speedup(), 2.0);  // overlap hides at most the shorter phase
    }
  }
}

TEST(PipelinedDump, SingleChunkDegeneratesToSerial) {
  const PfsSpec pfs;
  const PipelinedTime t = SimulatePipelinedDump(pfs, 128, NyxLikeWorkload(), 1);
  EXPECT_DOUBLE_EQ(t.pipelined_s, t.serial_s);
}

TEST(PipelinedDump, SerialSumMatchesFig16Model) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  const PhaseTime serial = SimulateDump(pfs, 256, w);
  const PipelinedTime t = SimulatePipelinedDump(pfs, 256, w, 8);
  EXPECT_NEAR(t.serial_s, serial.total(), 1e-9);
}

TEST(PipelinedDump, MoreChunksNeverHurt) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  double prev = SimulatePipelinedDump(pfs, 512, w, 1).pipelined_s;
  for (const std::uint32_t chunks : {2U, 4U, 8U, 32U, 128U}) {
    const double cur = SimulatePipelinedDump(pfs, 512, w, chunks).pipelined_s;
    EXPECT_LE(cur, prev + 1e-12) << "chunks=" << chunks;
    prev = cur;
  }
}

TEST(PipelinedDump, ApproachesMaxPhaseBound) {
  const PfsSpec pfs;
  const auto w = NyxLikeWorkload();
  // With many chunks the makespan approaches max(compute, transfer) +
  // latency: the shorter phase is fully hidden behind the longer one.
  // (PhaseTime::io_s folds the latency in, so strip it before the max.)
  const PhaseTime serial = SimulateDump(pfs, 256, w);
  const double bound =
      std::max(serial.compute_s, serial.io_s - pfs.latency_s) +
      pfs.latency_s;
  const PipelinedTime t = SimulatePipelinedDump(pfs, 256, w, 1'024);
  EXPECT_NEAR(t.pipelined_s, bound, 0.05 * bound);
  EXPECT_GE(t.pipelined_s, bound - 1e-12);
}

TEST(PipelinedDump, ZeroChunksThrows) {
  const PfsSpec pfs;
  EXPECT_THROW(SimulatePipelinedDump(pfs, 64, NyxLikeWorkload(), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace szx::iosim
