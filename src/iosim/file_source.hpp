// File-backed positioned-read source: a core ReadSource over a file
// descriptor, so a ContainerReader (core/container.hpp) opened on a file
// reads the header, the directory and the chunks a query covers, and
// nothing else.  Reads go through PreadFull (file_backend.hpp), the tree's
// one EINTR / short-read loop; pread keeps no shared file position, so
// decode workers read concurrently, each into its own scratch.
//
// Errors: open/fstat/pread failures throw std::runtime_error (an I/O
// fault).  A range past the size fstat reported, or end of file before the
// requested bytes (the file shrank under the reader), throws szx::Error
// (the bytes the container promises are not there) -- a partial span is
// never returned.
//
// Unlike a memory map, a file truncated or rewritten while it is read
// yields an error, not SIGBUS.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/read_source.hpp"
#include "iosim/file_backend.hpp"

namespace szx::iosim {

class FileSource final : public ReadSource {
 public:
  /// Opens `path` read-only and records its size; throws
  /// std::runtime_error on failure.
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  /// The file's size when it was opened.
  [[nodiscard]] std::uint64_t size() const override { return size_; }

  /// Fills `scratch` with [offset, offset + n) and returns it.
  [[nodiscard]] ByteSpan ReadAt(std::uint64_t offset, std::size_t n,
                                ByteBuffer& scratch) const override;

  /// Fills `out` with [offset, offset + out.size()): reads straight into
  /// caller storage, e.g. the bytes of a typed array.
  void ReadInto(std::uint64_t offset, std::span<std::byte> out) const;

  /// Replaces the raw read op (tests: EINTR / short-read / EOF schedules);
  /// returns the previous one.  An empty op restores the real ::pread.  Not
  /// safe to call while reads are in flight.
  RawReadOp set_raw_read(RawReadOp op);

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  RawReadOp raw_read_;  ///< empty = real ::pread on fd_
};

}  // namespace szx::iosim
