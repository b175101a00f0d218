// Columnar Datalog tables for the datalite (SociaLite-like) engine.
//
// SociaLite stores "the graph and its meta data ... in tables, and declarative
// rules are written to implement graph algorithms" (Section 3). Tables here are
// typed columns (int64 key/value columns plus double columns). A table whose
// first column is a dense vertex key can be "tail-nested" — SociaLite's term for
// grouping rows by the first column, "effectively implementing a CSR format used
// in the native implementation and CombBLAS".
#ifndef MAZE_DATALOG_TABLE_H_
#define MAZE_DATALOG_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace maze::datalog {

// Row-addressable typed column store. Rows are appended, then (optionally)
// sorted and indexed by the first int column.
class Table {
 public:
  Table(std::string name, int int_cols, int double_cols)
      : name_(std::move(name)), int_cols_(int_cols), double_cols_(double_cols) {
    MAZE_CHECK(int_cols >= 1);
    ints_.resize(int_cols);
    doubles_.resize(double_cols);
  }

  const std::string& name() const { return name_; }
  int int_cols() const { return int_cols_; }
  int double_cols() const { return double_cols_; }
  size_t num_rows() const { return ints_[0].size(); }

  void AppendRow(std::span<const int64_t> ints,
                 std::span<const double> doubles = {}) {
    MAZE_CHECK_EQ(static_cast<int>(ints.size()), int_cols_);
    MAZE_CHECK_EQ(static_cast<int>(doubles.size()), double_cols_);
    for (int c = 0; c < int_cols_; ++c) ints_[c].push_back(ints[c]);
    for (int c = 0; c < double_cols_; ++c) doubles_[c].push_back(doubles[c]);
    indexed_ = false;
  }

  int64_t Int(size_t row, int col) const { return ints_[col][row]; }
  double Double(size_t row, int col) const { return doubles_[col][row]; }

  // Sorts rows lexicographically by the int columns, ties in insertion order
  // (double columns move with their rows), and builds the tail-nested index:
  // key k's rows are [offset[k], offset[k+1]). Requires first-column keys in
  // [0, key_space). Linear time: a counting sort on column 0, then a stable sort
  // of only those keys whose rows are out of order; a table appended from a
  // sorted CSR is left in place.
  void TailNest(int64_t key_space);

  bool indexed() const { return indexed_; }
  int64_t key_space() const { return key_space_; }

  // Row range for first-column key k (requires TailNest).
  std::pair<size_t, size_t> Rows(int64_t key) const {
    MAZE_DCHECK(indexed_);
    MAZE_DCHECK(key >= 0 && key < key_space_);
    return {offsets_[key], offsets_[key + 1]};
  }

  // Membership probe for an (int0, int1) pair via binary search inside the
  // key's row range (requires TailNest; rows within a key are sorted by col 1).
  bool ContainsPair(int64_t a, int64_t b) const;

  size_t MemoryBytes() const {
    size_t bytes = offsets_.size() * sizeof(size_t);
    for (const auto& c : ints_) bytes += c.size() * sizeof(int64_t);
    for (const auto& c : doubles_) bytes += c.size() * sizeof(double);
    return bytes;
  }

  // Wire size of one row (SociaLite ships whole tuples).
  size_t RowWireBytes() const {
    return static_cast<size_t>(int_cols_) * 8 +
           static_cast<size_t>(double_cols_) * 8;
  }

 private:
  std::string name_;
  int int_cols_;
  int double_cols_;
  std::vector<std::vector<int64_t>> ints_;
  std::vector<std::vector<double>> doubles_;
  bool indexed_ = false;
  int64_t key_space_ = 0;
  std::vector<size_t> offsets_;
};

}  // namespace maze::datalog

#endif  // MAZE_DATALOG_TABLE_H_
