#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parowl::util {

/// Split `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// FNV-1a 64-bit hash of a byte string.  Used by the streaming hash
/// partitioner so partition assignment is stable across platforms (unlike
/// std::hash<std::string>).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// 64-bit integer mix (SplitMix64 finalizer): the avalanche behind term
/// hashes, triple digests, block and batch checksums and the transport's
/// fault decisions.  Inline, because the checksums call it per tuple.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace parowl::util
