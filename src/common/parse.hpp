// Strict whole-token integer parsing, shared by the text formats and the
// command-line front ends.

#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace ceta {

/// Parse all of `tok` as a decimal integer that fits T: no blanks, no
/// trailing characters, no overflow, and no sign at all for unsigned T
/// (so "-1" is rejected rather than wrapped).  Returns false otherwise.
template <typename T>
bool parse_whole(std::string_view tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace ceta
