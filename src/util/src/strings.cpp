#include "parowl/util/strings.hpp"

namespace parowl::util {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!text.empty() && is_space(text.front())) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(text.back())) {
    text.remove_suffix(1);
  }
  return text;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace parowl::util
