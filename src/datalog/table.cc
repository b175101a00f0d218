#include "datalog/table.h"

#include <algorithm>
#include <type_traits>

namespace maze::datalog {

void Table::TailNest(int64_t key_space) {
  MAZE_CHECK(key_space >= 0);
  key_space_ = key_space;
  const size_t n = num_rows();
  const std::vector<int64_t>& keys = ints_[0];

  // Counting sort on column 0: the per-key counts become the index.
  offsets_.assign(static_cast<size_t>(key_space) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    int64_t key = keys[i];
    MAZE_CHECK(key >= 0 && key < key_space);
    ++offsets_[key + 1];
  }
  for (size_t k = 1; k < offsets_.size(); ++k) offsets_[k] += offsets_[k - 1];

  auto tail_less = [&](size_t a, size_t b) {
    for (int c = 1; c < int_cols_; ++c) {
      if (ints_[c][a] != ints_[c][b]) return ints_[c][a] < ints_[c][b];
    }
    return false;
  };
  auto row_less = [&](size_t a, size_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : tail_less(a, b);
  };
  // Rows appended in order, as from a sorted CSR, stay where they are.
  bool in_order = true;
  for (size_t i = 1; i < n && in_order; ++i) in_order = !row_less(i, i - 1);
  if (in_order) {
    indexed_ = true;
    return;
  }

  // order[i] is the source row of output row i. Scattering rows in insertion
  // order keeps the sort stable; only keys whose tails are out of order are
  // then sorted.
  std::vector<size_t> order(n);
  std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < n; ++i) order[next[keys[i]]++] = i;
  for (int64_t k = 0; k < key_space; ++k) {
    auto begin = order.begin() + static_cast<ptrdiff_t>(offsets_[k]);
    auto end = order.begin() + static_cast<ptrdiff_t>(offsets_[k + 1]);
    if (!std::is_sorted(begin, end, tail_less)) {
      std::stable_sort(begin, end, tail_less);
    }
  }

  auto permute = [&](auto& col) {
    std::remove_reference_t<decltype(col)> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = col[order[i]];
    col = std::move(out);
  };
  for (auto& c : ints_) permute(c);
  for (auto& c : doubles_) permute(c);
  indexed_ = true;
}

bool Table::ContainsPair(int64_t a, int64_t b) const {
  MAZE_DCHECK(indexed_);
  MAZE_DCHECK(int_cols_ >= 2);
  if (a < 0 || a >= key_space_) return false;
  auto [begin, end] = Rows(a);
  const auto& col1 = ints_[1];
  auto lo = col1.begin() + static_cast<ptrdiff_t>(begin);
  auto hi = col1.begin() + static_cast<ptrdiff_t>(end);
  return std::binary_search(lo, hi, b);
}

}  // namespace maze::datalog
