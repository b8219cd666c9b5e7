// Seeded text mutation for the in-tree input fuzzes (no libFuzzer): each
// call stacks one to three random edits on a valid input.
#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <string>
#include <string_view>

namespace eona::fuzz {

/// `text` after one to three edits: a bit flip, a truncation, a byte
/// inserted (from `alphabet`, or any byte) or deleted, or the token that
/// starts the text or follows one of `separators` (up to the next
/// separator) replaced by one of `tokens`.
inline std::string mutate(std::string text, std::mt19937_64& rng,
                          std::string_view alphabet,
                          std::string_view separators,
                          std::span<const char* const> tokens) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (std::size_t n = 1 + pick(3); n > 0; --n) {
    switch (pick(5)) {
      case 0:
        if (!text.empty())
          text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:
        text.resize(pick(text.size() + 1));
        break;
      case 2: {
        const char byte = pick(2) == 0 ? alphabet[pick(alphabet.size())]
                                       : static_cast<char>(pick(256));
        text.insert(pick(text.size() + 1), 1, byte);
        break;
      }
      case 3:
        if (!text.empty()) text.erase(pick(text.size()), 1);
        break;
      default: {
        std::size_t begin = 0;
        const std::size_t sep =
            text.find_first_of(separators, pick(text.size() + 1));
        if (sep != std::string::npos && pick(4) != 0) begin = sep + 1;
        std::size_t end = text.find_first_of(separators, begin);
        if (end == std::string::npos) end = text.size();
        text.replace(begin, end - begin, tokens[pick(tokens.size())]);
        break;
      }
    }
  }
  return text;
}

}  // namespace eona::fuzz
