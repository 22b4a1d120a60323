#include "core/text_codec.hpp"

#include <charconv>
#include <istream>
#include <iterator>
#include <stdexcept>

namespace prm::core {

namespace {

// The classic-locale isspace set, which is what `istream >> token` skipped.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

TextWriter& TextWriter::operator<<(double v) {
  char buffer[32];  // %.17g is at most 24 characters ("-2.2250738585072014e-308")
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, v,
                                    std::chars_format::general, 17);
  out_.append(buffer, result.ptr);
  return *this;
}

TextWriter& TextWriter::integer(long long v) {
  char buffer[24];
  out_.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, v).ptr);
  return *this;
}

TextWriter& TextWriter::integer(unsigned long long v) {
  char buffer[24];
  out_.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, v).ptr);
  return *this;
}

void TextWriter::list(std::span<const double> values) {
  *this << values.size();
  for (const double v : values) *this << ' ' << v;
  out_.push_back('\n');
}

void TextReader::skip_space() noexcept {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

std::string_view TextReader::token(std::string_view what) {
  skip_space();
  const std::size_t begin = pos_;
  while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
  if (pos_ == begin) fail("missing " + std::string(what));
  return text_.substr(begin, pos_ - begin);
}

void TextReader::expect(std::string_view key) {
  skip_space();
  if (pos_ == text_.size()) {
    fail("unexpected end of input, wanted '" + std::string(key) + "'");
  }
  const std::string_view found = token(key);
  if (found != key) {
    fail("expected '" + std::string(key) + "', found '" + std::string(found) + "'");
  }
}

// from_chars straight off the cursor: the token is scanned once, and a
// value counts only when it ends where the token does.
template <class T>
T TextReader::parse(std::string_view what, const char* kind) {
  skip_space();
  const char* begin = text_.data() + pos_;
  const char* end = text_.data() + text_.size();
  T v{};
  const auto [stop, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc() && (stop == end || is_space(*stop))) {
    pos_ = static_cast<std::size_t>(stop - text_.data());
    return v;
  }
  const std::string_view tok = token(what);  // throws "missing ..." at the end
  fail(kind + std::string(what) + ": '" + std::string(tok) + "'");
}

double TextReader::number(std::string_view what) {
  return parse<double>(what, "bad value for ");
}

std::uint64_t TextReader::count(std::string_view what) {
  return parse<std::uint64_t>(what, "bad count for ");
}

std::vector<double> TextReader::list(std::string_view what) {
  const std::uint64_t n = count(what);
  // Each entry takes at least two bytes (a separator and a digit).
  if (n > remaining() / 2) fail("truncated " + std::string(what));
  std::vector<double> values(static_cast<std::size_t>(n));
  for (double& v : values) v = number(what);
  return values;
}

std::string_view TextReader::rest_of_line() {
  skip_space();
  const std::size_t begin = pos_;
  const std::size_t end = text_.find('\n', begin);
  pos_ = end == std::string_view::npos ? text_.size() : end + 1;
  return text_.substr(begin, (end == std::string_view::npos ? text_.size() : end) - begin);
}

const char* TextReader::set_context(const char* context) noexcept {
  const char* previous = context_;
  context_ = context;
  return previous;
}

void TextReader::fail(std::string_view what) const {
  throw std::runtime_error(std::string(context_) + ": " + std::string(what));
}

std::string read_rest(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

}  // namespace prm::core
