#include "ishare/types/column.h"

namespace ishare {

void ColumnVector::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      i64_.push_back(v.AsInt());
      return;
    case DataType::kFloat64:
      f64_.push_back(v.AsDouble());
      return;
    case DataType::kString:
      str_.push_back(v.AsShared());
      return;
  }
}

Value ColumnVector::GetValue(int64_t i) const {
  DCHECK(i >= 0 && i < size());
  switch (type_) {
    case DataType::kInt64:
      return Value(i64_[static_cast<size_t>(i)]);
    case DataType::kFloat64:
      return Value(f64_[static_cast<size_t>(i)]);
    case DataType::kString:
      return Value(str_[static_cast<size_t>(i)]);
  }
  return Value();
}

void ColumnVector::AppendFrom(const ColumnVector& other, int64_t i) {
  DCHECK(other.type_ == type_);
  DCHECK(i >= 0 && i < other.size());
  switch (type_) {
    case DataType::kInt64:
      i64_.push_back(other.i64_[static_cast<size_t>(i)]);
      return;
    case DataType::kFloat64:
      f64_.push_back(other.f64_[static_cast<size_t>(i)]);
      return;
    case DataType::kString:
      str_.push_back(other.str_[static_cast<size_t>(i)]);
      return;
  }
}

int64_t ColumnVector::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(ColumnVector));
  switch (type_) {
    case DataType::kInt64:
      return bytes + static_cast<int64_t>(i64_.size() * sizeof(int64_t));
    case DataType::kFloat64:
      return bytes + static_cast<int64_t>(f64_.size() * sizeof(double));
    case DataType::kString: {
      for (const SharedString& s : str_) {
        bytes += static_cast<int64_t>(sizeof(SharedString) +
                                      s.AsString().size());
      }
      return bytes;
    }
  }
  return bytes;
}

}  // namespace ishare
