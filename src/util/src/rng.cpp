#include "parowl/util/rng.hpp"

#include "parowl/util/strings.hpp"

namespace parowl::util {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  // Expand the single seed word into four non-zero state words with
  // SplitMix64: mix64 adds the golden-ratio step to its argument itself.
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = mix64(sm);
    sm += 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded draw with rejection to stay
  // exactly uniform.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    const auto wide = static_cast<unsigned __int128>(r) * bound;
    if (static_cast<std::uint64_t>(wide) >= threshold) {
      return static_cast<std::uint64_t>(wide >> 64);
    }
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() {
  // 53 random mantissa bits scaled to [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace parowl::util
