// Typed column arrays — the storage half of the columnar batch-layout
// contract (DESIGN.md §12). A ColumnVector holds one column of a
// DeltaBatch as a flat typed array so the vectorized operator kernels
// (exec/vectorized.h) run tight, branch-free inner loops instead of
// switching on tagged Values per tuple. The engine is null-free (paper
// Sec. 2.3 operates on complete tuples), so every slot is valid; the
// contract reserves a validity bitmap for future nullable sources.

#ifndef ISHARE_TYPES_COLUMN_H_
#define ISHARE_TYPES_COLUMN_H_

#include <cstdint>
#include <vector>

#include "ishare/types/value.h"

namespace ishare {

// One column of tuples as a flat typed array. Exactly one of the three
// payload vectors is active, selected by type(); the accessors CHECK.
// Growth is append-only within a batch; kernels never mutate a column
// they did not create (ownership rules in DESIGN.md §12.4).
class ColumnVector {
 public:
  ColumnVector() : type_(DataType::kInt64) {}
  explicit ColumnVector(DataType t) : type_(t) {}

  DataType type() const { return type_; }

  int64_t size() const {
    switch (type_) {
      case DataType::kInt64:
        return static_cast<int64_t>(i64_.size());
      case DataType::kFloat64:
        return static_cast<int64_t>(f64_.size());
      case DataType::kString:
        return static_cast<int64_t>(str_.size());
    }
    return 0;
  }

  void Reserve(int64_t n) {
    switch (type_) {
      case DataType::kInt64:
        i64_.reserve(static_cast<size_t>(n));
        return;
      case DataType::kFloat64:
        f64_.reserve(static_cast<size_t>(n));
        return;
      case DataType::kString:
        str_.reserve(static_cast<size_t>(n));
        return;
    }
  }

  // Resizes to n slots (new slots zero/empty). Used by kernels that write
  // results positionally instead of appending.
  void Resize(int64_t n) {
    switch (type_) {
      case DataType::kInt64:
        i64_.resize(static_cast<size_t>(n));
        return;
      case DataType::kFloat64:
        f64_.resize(static_cast<size_t>(n));
        return;
      case DataType::kString:
        str_.resize(static_cast<size_t>(n));
        return;
    }
  }

  void Clear() {
    i64_.clear();
    f64_.clear();
    str_.clear();
  }

  // Typed payload access. Mutable accessors are for the column's owner
  // (the batch or kernel that is building it); consumers take const refs.
  std::vector<int64_t>& i64() {
    DCHECK(type_ == DataType::kInt64);
    return i64_;
  }
  const std::vector<int64_t>& i64() const {
    DCHECK(type_ == DataType::kInt64);
    return i64_;
  }
  std::vector<double>& f64() {
    DCHECK(type_ == DataType::kFloat64);
    return f64_;
  }
  const std::vector<double>& f64() const {
    DCHECK(type_ == DataType::kFloat64);
    return f64_;
  }
  // String slots are shared handles: lifting a string Value into a column
  // and lowering it back bumps a reference count, never copies characters.
  std::vector<SharedString>& str() {
    DCHECK(type_ == DataType::kString);
    return str_;
  }
  const std::vector<SharedString>& str() const {
    DCHECK(type_ == DataType::kString);
    return str_;
  }

  // Row-at-a-time bridge used at the shim boundary (DeltaBatch <->
  // ColumnBatch conversion) and by slow-path kernels; the hot loops go
  // through the typed accessors above.
  void AppendValue(const Value& v);
  Value GetValue(int64_t i) const;
  // Appends other[i] (types must match). Gather primitive for join output
  // materialization.
  void AppendFrom(const ColumnVector& other, int64_t i);

  // Deterministic approximate footprint in the same accounting units as
  // ApproxValueBytes (logical sizes, never capacity): each slot is charged
  // its width, and each string slot additionally its length.
  int64_t ApproxBytes() const;

 private:
  DataType type_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<SharedString> str_;
};

}  // namespace ishare

#endif  // ISHARE_TYPES_COLUMN_H_
