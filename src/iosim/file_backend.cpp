#include "iosim/file_backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace szx::iosim {

namespace {

// Per-operation budget for syscalls that make no forward progress (EINTR,
// or a short I/O of zero bytes that is not EOF).  A descriptor that stays
// interrupted this long is broken, not busy; erroring beats livelocking.
constexpr int kMaxTransientRetries = 64;

std::string ErrnoText(int err) { return std::strerror(err); }

}  // namespace

// ---------------------------------------------------------------------------
// PreadFull

std::size_t PreadFull(int fd, std::span<std::byte> out, std::uint64_t offset,
                      const RawReadOp& raw, FileIoStats* stats,
                      const std::string& path) {
  std::size_t done = 0;
  int stalls = 0;
  while (done < out.size()) {
    const std::span<std::byte> rest = out.subspan(done);
    int err = 0;
    long long n = 0;
    if (raw) {
      n = raw(rest.data(), rest.size(), offset + done, err);
    } else {
      n = ::pread(fd, rest.data(), rest.size(),
                  static_cast<off_t>(offset + done));
      err = errno;
    }
    if (n < 0) {
      if (err == EINTR) {
        if (stats != nullptr) ++stats->eintr_retries;
        if (++stalls > kMaxTransientRetries) {
          throw std::runtime_error(
              "pread: EINTR persisted past the retry budget on " + path);
        }
        continue;  // positioned read: the resume offset cannot drift
      }
      throw std::runtime_error("pread: read failed on " + path + ": " +
                               ErrnoText(err));
    }
    if (n == 0) {
      break;  // end of file: the caller decides whether short is an error
    }
    if (static_cast<std::size_t>(n) < rest.size() && stats != nullptr) {
      ++stats->short_ios;  // short read: resume at offset + done, byte-exact
    }
    done += static_cast<std::size_t>(n);
    stalls = 0;
  }
  return done;
}

// ---------------------------------------------------------------------------
// ChunkFileWriter

ChunkFileWriter::ChunkFileWriter(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("ChunkFileWriter: cannot open " + path + ": " +
                             ErrnoText(errno));
  }
}

ChunkFileWriter::~ChunkFileWriter() {
  if (fd_ >= 0) {
    ::close(fd_);  // best effort; Close() is the throwing path
  }
}

RawWriteOp ChunkFileWriter::set_raw_write(RawWriteOp op) {
  return std::exchange(raw_write_, std::move(op));
}

void ChunkFileWriter::WriteFull(std::span<const std::byte> data) {
  std::size_t done = 0;
  int stalls = 0;
  while (done < data.size()) {
    const std::span<const std::byte> rest = data.subspan(done);
    int err = 0;
    long long n = 0;
    if (raw_write_) {
      n = raw_write_(rest.data(), rest.size(), err);
    } else {
      n = ::write(fd_, rest.data(), rest.size());
      err = errno;
    }
    if (n < 0) {
      if (err == EINTR) {
        ++stats_.eintr_retries;
        if (++stalls > kMaxTransientRetries) {
          throw std::runtime_error(
              "ChunkFileWriter: EINTR persisted past the retry budget on " +
              path_);
        }
        continue;  // same position: nothing was written
      }
      throw std::runtime_error("ChunkFileWriter: write failed on " + path_ +
                               ": " + ErrnoText(err));
    }
    if (n == 0) {
      // A zero-byte write that is not an error: no forward progress.
      if (++stalls > kMaxTransientRetries) {
        throw std::runtime_error(
            "ChunkFileWriter: write made no progress on " + path_);
      }
      continue;
    }
    if (static_cast<std::size_t>(n) < rest.size()) {
      ++stats_.short_ios;  // resumed from the exact interrupted byte
    }
    done += static_cast<std::size_t>(n);
    stalls = 0;
  }
}

void ChunkFileWriter::WriteChunk(std::span<const std::byte> chunk) {
  if (fd_ < 0) {
    throw std::runtime_error("ChunkFileWriter: write after Close on " + path_);
  }
  std::span<const std::byte> src = chunk;
  if (mutator_) {
    scratch_.assign(chunk.begin(), chunk.end());
    mutator_(stats_.chunks, scratch_);
    if (scratch_.size() != chunk.size() ||
        !std::equal(scratch_.begin(), scratch_.end(), chunk.begin())) {
      ++stats_.mutated;
    }
    src = std::span<const std::byte>(scratch_);
  }
  WriteFull(src);
  ++stats_.chunks;
  stats_.bytes += src.size();
}

void ChunkFileWriter::Close() {
  if (fd_ < 0) {
    return;
  }
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) {
    throw std::runtime_error("ChunkFileWriter: close failed on " + path_ +
                             ": " + ErrnoText(errno));
  }
}

// ---------------------------------------------------------------------------
// ChunkFileReader

ChunkFileReader::ChunkFileReader(const std::string& path,
                                 TransientReadFaults faults)
    : path_(path), faults_(faults) {
  if (faults_.max_attempts < 1) {
    throw std::runtime_error("ChunkFileReader: max_attempts must be >= 1");
  }
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw std::runtime_error("ChunkFileReader: cannot open " + path + ": " +
                             ErrnoText(errno));
  }
}

ChunkFileReader::~ChunkFileReader() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

RawReadOp ChunkFileReader::set_raw_read(RawReadOp op) {
  return std::exchange(raw_read_, std::move(op));
}

std::size_t ChunkFileReader::ReadChunk(std::span<std::byte> out) {
  if (out.empty()) {
    return 0;
  }
  const std::uint64_t ordinal = stats_.chunks + 1;  // 1-based, for the model
  for (int attempt = 1;; ++attempt) {
    ++stats_.attempts;
    if (attempt > 1) {
      ++stats_.retries;
    }
    // Every retry restarts from the identical chunk offset, so an injected
    // failure can never skip bytes or deliver them twice.
    const std::size_t got =
        PreadFull(fd_, out, next_offset_, raw_read_, &stats_, path_);
    const bool inject_failure = faults_.period != 0 && got != 0 &&
                                ordinal % faults_.period == 0 && attempt == 1;
    if (inject_failure) {
      if (attempt >= faults_.max_attempts) {
        throw std::runtime_error(
            "ChunkFileReader: transient fault persisted past max_attempts "
            "on " +
            path_);
      }
      continue;  // abandon this attempt; the loop rereads the same offset
    }
    if (got != 0) {
      ++stats_.chunks;
      stats_.bytes += got;
      next_offset_ += got;
    }
    return got;
  }
}

std::uint64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw std::runtime_error("FileSizeBytes: cannot stat " + path + ": " +
                             ec.message());
  }
  return static_cast<std::uint64_t>(size);
}

}  // namespace szx::iosim
