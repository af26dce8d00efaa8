// Positioned-read source: the byte supply a ContainerReader parses and
// decodes from.  A reader asks for byte ranges by position, so a container
// on disk costs only the ranges a query touches (header, directory, covered
// chunks) instead of the whole file.
//
// ReadAt(offset, n, scratch) returns a view of [offset, offset + n).  An
// in-memory source returns a sub-span of its own bytes and leaves `scratch`
// alone (zero copy); a file source fills `scratch` and returns it
// (iosim::FileSource, src/iosim/file_source.hpp).  Either way the view is
// valid until `scratch` is next modified or the source is destroyed, and a
// range past the end throws szx::Error.  Const methods must be safe to
// call concurrently, each caller with its own scratch.
#pragma once

#include <cstdint>

#include "core/byte_cursor.hpp"
#include "core/common.hpp"

namespace szx {

class ReadSource {
 public:
  virtual ~ReadSource() = default;
  /// Total bytes the source holds.
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Bytes [offset, offset + n); see the file comment for lifetime rules.
  [[nodiscard]] virtual ByteSpan ReadAt(std::uint64_t offset, std::size_t n,
                                        ByteBuffer& scratch) const = 0;
};

/// In-memory source over a caller-owned span (the span must outlive it).
class SpanSource final : public ReadSource {
 public:
  explicit SpanSource(ByteSpan bytes) : bytes_(bytes) {}
  [[nodiscard]] std::uint64_t size() const override { return bytes_.size(); }
  [[nodiscard]] ByteSpan ReadAt(std::uint64_t offset, std::size_t n,
                                ByteBuffer& /*scratch*/) const override {
    ByteCursor cur(bytes_);
    cur.SkipArray(offset, 1);
    return cur.Slice(n);
  }

 private:
  ByteSpan bytes_;
};

}  // namespace szx
