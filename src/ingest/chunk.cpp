#include "ingest/chunk.hpp"

#include <algorithm>

namespace failmine::ingest {

std::vector<Chunk> plan_chunks(std::string_view data,
                               std::size_t target_chunks,
                               std::size_t min_chunk_bytes) {
  std::vector<Chunk> chunks;
  if (data.empty()) return chunks;
  if (target_chunks < 1) target_chunks = 1;
  if (min_chunk_bytes < 1) min_chunk_bytes = 1;
  // Small inputs get fewer chunks: a chunk below min_chunk_bytes costs
  // more in thread scheduling than its parallelism wins.
  target_chunks =
      std::min(target_chunks, std::max<std::size_t>(1, data.size() / min_chunk_bytes));
  const std::size_t nominal =
      std::max<std::size_t>(1, data.size() / target_chunks);

  std::vector<std::size_t> starts{0};
  // Quote parity accounting: `parity` is the in-quotes state at offset
  // `counted_to`. Advancing by std::count keeps the scan vectorized.
  bool parity = false;
  std::size_t counted_to = 0;
  const auto advance_parity = [&](std::size_t to) {
    const auto quotes = std::count(data.begin() + static_cast<std::ptrdiff_t>(counted_to),
                                   data.begin() + static_cast<std::ptrdiff_t>(to), '"');
    if ((quotes % 2) != 0) parity = !parity;
    counted_to = to;
  };

  for (std::size_t k = 1; k < target_chunks; ++k) {
    const std::size_t candidate = k * nominal;
    if (candidate >= data.size()) break;
    if (candidate <= starts.back()) continue;
    advance_parity(candidate);
    // Forward scan from the candidate to the next record boundary, with
    // the exact quote state at the candidate in hand.
    bool in_quotes = parity;
    std::size_t i = candidate;
    std::size_t boundary = data.size();
    while (i < data.size()) {
      const char c = data[i];
      if (c == '"')
        in_quotes = !in_quotes;
      else if (c == '\n' && !in_quotes) {
        boundary = i + 1;
        break;
      }
      ++i;
    }
    if (boundary >= data.size()) break;  // the remainder is one chunk
    parity = in_quotes;
    counted_to = boundary;
    starts.push_back(boundary);
  }

  chunks.reserve(starts.size());
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const std::size_t begin = starts[s];
    const std::size_t end = s + 1 < starts.size() ? starts[s + 1] : data.size();
    chunks.push_back(Chunk{data.substr(begin, end - begin), s});
  }
  return chunks;
}

std::size_t CsvCursor::quoted_record_end(std::size_t quote) const {
  // Nothing before `quote` is a quote or a newline, so the state machine
  // starts there, outside quotes.
  bool in_quotes = false;
  std::size_t i = quote;
  while (i < data_.size()) {
    const char c = data_[i];
    if (c == '"')
      in_quotes = !in_quotes;
    else if (c == '\n' && !in_quotes)
      break;
    ++i;
  }
  return i;
}

}  // namespace failmine::ingest
