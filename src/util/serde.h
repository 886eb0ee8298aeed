// Minimal byte-level serialization primitives for checkpointing.
//
// ByteSink appends fixed-width little-endian scalars to a growing buffer;
// ByteSource reads them back with a sticky failure flag instead of
// aborting — a truncated or corrupt checkpoint is OPERATIONAL input, so
// readers check `ok()` once at the end and surface a Status upstream.
//
// This header is deliberately dependency-free (no engine types) so that
// strategy classes in src/ivm/ can implement SaveCheckpoint/LoadCheckpoint
// against it without src/ivm/ depending on src/stream/ — the checkpoint
// FILE format (magic, checksum, framing) lives in src/stream/checkpoint.h.
//
// All multi-byte values are written little-endian via memcpy, which is
// byte-exact for doubles: the serialized image of a view is the image of
// its IEEE-754 bits, so restore reproduces results BIT-identically (FP
// summation order is never re-run at load time).
#ifndef RELBORG_UTIL_SERDE_H_
#define RELBORG_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace relborg {

class ByteSink {
 public:
  void U32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void F64(double v) { AppendRaw(&v, sizeof(v)); }
  void F64Span(const double* p, size_t n) { AppendRaw(p, n * sizeof(double)); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

 private:
  void AppendRaw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }

  std::vector<uint8_t> bytes_;
};

// Reads past the end set the sticky failure flag and yield zeros; callers
// check ok() once after the full read instead of testing every scalar.
class ByteSource {
 public:
  ByteSource(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint32_t U32() {
    uint32_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  void F64Span(double* p, size_t n) { ReadRaw(p, n * sizeof(double)); }

  // Bounds a serialized element count by the bytes left: when `count`
  // elements of `bytes_each` (> 0) bytes cannot fit, sets the sticky
  // failure and returns false, so a corrupt length never drives an
  // allocation or a read loop. Divides instead of multiplying, so no count
  // can overflow the check.
  bool CountFits(uint64_t count, size_t bytes_each) {
    if (count > remaining() / bytes_each) failed_ = true;
    return !failed_;
  }

  bool ok() const { return !failed_; }
  // True iff every byte was consumed and no read overran.
  bool Exhausted() const { return !failed_ && pos_ == size_; }
  size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

 private:
  void ReadRaw(void* p, size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace relborg

#endif  // RELBORG_UTIL_SERDE_H_
