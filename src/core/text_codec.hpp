// The one text codec behind every prm persistence format: core::save_fit /
// load_fit, live::StreamState, live::Monitor snapshots and the payloads of
// the live::Monitor write-ahead log.
//
// The formats are whitespace-separated tokens, one record per line. Doubles
// are written with std::to_chars(v, chars_format::general, 17) -- the same
// bytes as `ostream << setprecision(17) << v`, including "inf", "-inf",
// "nan", "-nan" and "-0" -- and read back with std::from_chars, so every
// finite value round-trips bit for bit. Neither side touches a locale or an
// iostream.
//
// TextReader is a cursor over a string_view. Every read consumes one token
// (a maximal run of non-whitespace) and throws std::runtime_error, prefixed
// with the loader's name, when the token is missing or does not parse in
// full. Nothing it reads can make it allocate more than a bounded multiple of
// the input size: list counts are checked against the bytes left.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace prm::core {

/// Appends tokens to a string, ostream-style: `w << "sse " << 0.5 << '\n'`.
class TextWriter {
 public:
  explicit TextWriter(std::string& out) noexcept : out_(out) {}

  TextWriter& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  TextWriter& operator<<(double v);
  template <class Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, char> &&
             !std::is_same_v<Int, bool>)
  TextWriter& operator<<(Int v) {
    if constexpr (std::is_signed_v<Int>) {
      return integer(static_cast<long long>(v));
    } else {
      return integer(static_cast<unsigned long long>(v));
    }
  }

  /// "<n> <x1> ... <xn>\n", after whatever key was written before it.
  void list(std::span<const double> values);

 private:
  TextWriter& integer(long long v);
  TextWriter& integer(unsigned long long v);

  std::string& out_;
};

/// Reading cursor over one text; see the file comment.
class TextReader {
 public:
  /// `context` names the loader in error messages ("load_fit: ...").
  TextReader(std::string_view text, const char* context) noexcept
      : text_(text), context_(context) {}

  /// Next token; throws "missing <what>" at the end of the input.
  std::string_view token(std::string_view what);

  /// Consumes the next token and throws unless it equals `key`.
  void expect(std::string_view key);

  double number(std::string_view what);
  std::uint64_t count(std::string_view what);  ///< Also reads versions and 0/1 flags.

  /// "<n> <x1> ... <xn>": a count, then that many numbers. The count may
  /// not exceed what the remaining bytes could hold.
  std::vector<double> list(std::string_view what);

  /// The rest of the current line after skipping whitespace (which may skip
  /// line breaks), without its '\n'; the cursor moves past the '\n'.
  std::string_view rest_of_line();

  /// Bytes not consumed yet: an upper bound for any count a loader reads.
  std::size_t remaining() const noexcept { return text_.size() - pos_; }

  /// Swaps the loader name used in error messages; returns the previous one
  /// so a nested loader can restore it.
  const char* set_context(const char* context) noexcept;

  [[noreturn]] void fail(std::string_view what) const;

 private:
  void skip_space() noexcept;
  template <class T>
  T parse(std::string_view what, const char* kind);

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* context_;
};

/// The rest of `in` as one string: the stream overloads of the loaders parse
/// it with a TextReader.
std::string read_rest(std::istream& in);

}  // namespace prm::core
