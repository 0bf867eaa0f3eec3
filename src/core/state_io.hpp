#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace casurf {

/// Error raised by StateReader on any malformed, truncated, or
/// wrong-section input. Checkpoint loading converts these into rejection of
/// the file — state restoration must never crash or silently misparse.
class StateFormatError : public std::runtime_error {
 public:
  explicit StateFormatError(const std::string& message)
      : std::runtime_error("state: " + message) {}
};

/// Append-only binary encoder for simulator state. Fixed-width
/// little-endian integers and bit-exact doubles (no text round-trip), so a
/// save/restore cycle reproduces the simulator word for word — the
/// foundation of bit-identical resume. Length-prefixed section markers give
/// the reader self-describing error locality instead of silent misalignment.
class StateWriter {
 public:
  /// A writer that keeps no bytes and only counts them in size(): one pass
  /// through a save routine sizes the buffer of the pass that writes.
  [[nodiscard]] static StateWriter counting() {
    StateWriter w;
    w.counting_ = true;
    return w;
  }

  /// Room for `n` more bytes, so writing them never reallocates.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { put_le(v, 1); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v), 8); }

  /// Bit-exact: the double's object representation, not a decimal rendering.
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  void bytes(const void* data, std::size_t n) {
    if (counting_) {
      counted_ += n;
      return;
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Named section marker; StateReader::expect_section verifies it, turning
  /// any writer/reader drift into a descriptive error instead of garbage.
  void section(std::string_view name) {
    u8(kSectionTag);
    str(name);
  }

  /// Length, then every element widened to u64; `v` is a std::vector or
  /// a std::span.
  template <class Range>
  void vec_u64(const Range& v) {
    u64(v.size());
    for (const auto x : v) u64(static_cast<std::uint64_t>(x));
  }

  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return counting_ ? counted_ : buf_.size(); }
  /// Moves the bytes out, leaving the writer empty.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::exchange(buf_, {}); }

 private:
  static constexpr std::uint8_t kSectionTag = 0xA5;

  void put_le(std::uint64_t v, int nbytes) {
    if (counting_) {
      counted_ += static_cast<std::size_t>(nbytes);
      return;
    }
    for (int i = 0; i < nbytes; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
  bool counting_ = false;
  std::size_t counted_ = 0;
};

/// Bounds-checked decoder for StateWriter streams. Every read validates the
/// remaining length first and throws StateFormatError on underflow, so a
/// truncated or bit-flipped stream fails loudly at the offending field.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4, "u32")); }
  std::uint64_t u64() { return get_le(8, "u64"); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le(8, "i64")); }

  double f64() {
    const std::uint64_t bits = get_le(8, "f64");
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint64_t n = u64();
    if (n > kMaxString) throw StateFormatError("string length " + std::to_string(n) + " implausible");
    need(static_cast<std::size_t>(n), "string body");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  void bytes(void* out, std::size_t n) {
    need(n, "byte block");
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  /// Consume a section marker, verifying the name matches.
  void expect_section(std::string_view name) {
    if (u8() != kSectionTag) {
      throw StateFormatError("expected section marker for '" + std::string(name) + "'");
    }
    const std::string found = str();
    if (found != name) {
      throw StateFormatError("expected section '" + std::string(name) + "', found '" +
                             found + "'");
    }
  }

  /// A u64 field narrowed to the unsigned type T it is kept in. Throws
  /// StateFormatError, naming the field and the value, unless the value
  /// fits: a stored site 2^32 + 5 is rejected, never read as site 5.
  template <class T>
  T u64_as(const char* what) {
    static_assert(std::is_unsigned_v<T>, "u64_as narrows to unsigned types");
    const std::uint64_t v = u64();
    if (v > std::numeric_limits<T>::max()) {
      throw StateFormatError(std::string(what) + ": value " + std::to_string(v) +
                             " does not fit in " +
                             std::to_string(std::numeric_limits<T>::digits) + " bits");
    }
    return static_cast<T>(v);
  }

  /// Length-checked vector read, each element through u64_as<T>:
  /// `expected` of SIZE_MAX means any length.
  template <class T>
  std::vector<T> vec_u64(std::size_t expected = SIZE_MAX, const char* what = "vector") {
    const std::uint64_t n = u64();
    if (expected != SIZE_MAX && n != expected) {
      throw StateFormatError(std::string(what) + ": expected " + std::to_string(expected) +
                             " elements, found " + std::to_string(n));
    }
    need_at_least(static_cast<std::size_t>(n), 8, what);
    std::vector<T> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = u64_as<T>(what);
    return v;
  }

  std::vector<double> vec_f64(std::size_t expected = SIZE_MAX,
                              const char* what = "vector") {
    const std::uint64_t n = u64();
    if (expected != SIZE_MAX && n != expected) {
      throw StateFormatError(std::string(what) + ": expected " + std::to_string(expected) +
                             " elements, found " + std::to_string(n));
    }
    need_at_least(static_cast<std::size_t>(n), 8, what);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = f64();
    return v;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  /// Restoration must consume the stream exactly; trailing bytes mean the
  /// writer and reader disagree about the format.
  void expect_end() const {
    if (!at_end()) {
      throw StateFormatError(std::to_string(remaining()) + " unconsumed trailing bytes");
    }
  }

 private:
  static constexpr std::uint8_t kSectionTag = 0xA5;
  static constexpr std::uint64_t kMaxString = 1u << 20;

  void need(std::size_t n, const char* what) const {
    if (data_.size() - pos_ < n) {
      throw StateFormatError(std::string("truncated input reading ") + what + " at offset " +
                             std::to_string(pos_));
    }
  }

  /// Guard vector headers against corrupted lengths: `n` elements of
  /// `elem_size` bytes must not exceed what the stream can still hold.
  void need_at_least(std::size_t n, std::size_t elem_size, const char* what) const {
    if (n > (data_.size() - pos_) / elem_size) {
      throw StateFormatError(std::string(what) + ": element count " + std::to_string(n) +
                             " exceeds remaining stream");
    }
  }

  std::uint64_t get_le(int nbytes, const char* what) {
    need(static_cast<std::size_t>(nbytes), what);
    std::uint64_t v = 0;
    for (int i = 0; i < nbytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(nbytes);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace casurf
