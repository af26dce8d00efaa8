#include "iosim/file_source.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace szx::iosim {

FileSource::FileSource(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error("cannot stat " + path + ": " +
                             std::strerror(err));
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

FileSource::~FileSource() { ::close(fd_); }

RawReadOp FileSource::set_raw_read(RawReadOp op) {
  return std::exchange(raw_read_, std::move(op));
}

void FileSource::ReadInto(std::uint64_t offset,
                          std::span<std::byte> out) const {
  if (offset > size_ || out.size() > size_ - offset) {
    throw Error("szx: read past the end of " + path_ + " (" +
                std::to_string(out.size()) + " bytes at offset " +
                std::to_string(offset) + ", file holds " +
                std::to_string(size_) + ")");
  }
  const std::size_t got =
      PreadFull(fd_, out, offset, raw_read_, nullptr, path_);
  if (got != out.size()) {
    throw Error("szx: " + path_ + " ended before its recorded size (" +
                std::to_string(offset + got) + " of " +
                std::to_string(size_) + " bytes)");
  }
}

ByteSpan FileSource::ReadAt(std::uint64_t offset, std::size_t n,
                            ByteBuffer& scratch) const {
  scratch.resize(n);
  ReadInto(offset, scratch);
  return scratch;
}

}  // namespace szx::iosim
