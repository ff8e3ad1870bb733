#ifndef ISHARE_TYPES_VALUE_H_
#define ISHARE_TYPES_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ishare/common/check.h"
#include "ishare/common/hash.h"

namespace ishare {

// Column data types supported by the engine. Dates are stored as Int64
// (days since epoch); decimals as Float64. This matches the operator set
// the paper's prototype supports (Sec. 2.3).
enum class DataType {
  kInt64,
  kFloat64,
  kString,
};

const char* DataTypeName(DataType t);

// An immutable string shared by reference. Every copy points at one
// heap block holding an atomic reference count and the const std::string
// (whose characters a long string keeps in its own buffer); the last copy
// to go frees it. Copying therefore costs one atomic increment
// instead of a string allocation, which is what keeps a string that flows
// scan -> filter -> join state -> buffer stored once (DESIGN.md §9).
// There is deliberately no global intern pool: it would never free a
// block and would serialize every new string on a lock. Two equal strings
// built independently stay two blocks. The empty string needs no block.
class SharedString {
 public:
  SharedString() = default;
  explicit SharedString(std::string s)
      : rep_(s.empty() ? nullptr : new Rep(std::move(s))) {}
  SharedString(const SharedString& o) noexcept : rep_(o.rep_) { Ref(rep_); }
  SharedString(SharedString&& o) noexcept
      : rep_(std::exchange(o.rep_, nullptr)) {}
  SharedString& operator=(const SharedString& o) noexcept {
    Ref(o.rep_);  // before Unref: safe under self-assignment
    Unref(rep_);
    rep_ = o.rep_;
    return *this;
  }
  SharedString& operator=(SharedString&& o) noexcept {
    if (this != &o) {
      Unref(rep_);
      rep_ = std::exchange(o.rep_, nullptr);
    }
    return *this;
  }
  ~SharedString() { Unref(rep_); }

  const std::string& AsString() const {
    return rep_ != nullptr ? rep_->str : Empty();
  }

  // Handles sharing one block are equal without looking at the bytes.
  friend bool operator==(const SharedString& a, const SharedString& b) {
    return a.rep_ == b.rep_ || a.AsString() == b.AsString();
  }

 private:
  friend class Value;

  struct Rep {
    explicit Rep(std::string s) : str(std::move(s)) {}
    mutable std::atomic<int64_t> refs{1};
    const std::string str;
  };

  static const std::string& Empty() {
    static const std::string empty;
    return empty;
  }
  static void Ref(const Rep* r) {
    if (r != nullptr) r->refs.fetch_add(1, std::memory_order_relaxed);
  }
  // acq_rel: the freeing thread must see every other owner's reads done.
  static void Unref(const Rep* r) {
    if (r != nullptr && r->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete r;
    }
  }

  const Rep* rep_ = nullptr;
};

// A dynamically-typed scalar value flowing through the engine: a 16-byte
// tagged scalar. Ints and doubles are stored inline; a string is a
// SharedString block pointer, so copying a Value never copies characters.
// Moving leaves the source as int 0.
class Value {
 public:
  Value() { p_.i = 0; }
  explicit Value(int64_t v) { p_.i = v; }
  explicit Value(double v) : type_(DataType::kFloat64) { p_.d = v; }
  explicit Value(std::string v) : Value(SharedString(std::move(v))) {}
  explicit Value(const char* v) : Value(std::string(v)) {}
  explicit Value(SharedString s) : type_(DataType::kString) {
    p_.s = std::exchange(s.rep_, nullptr);
  }

  Value(const Value& o) noexcept : p_(o.p_), type_(o.type_) {
    if (is_string()) SharedString::Ref(p_.s);
  }
  Value(Value&& o) noexcept : p_(o.p_), type_(o.type_) { o.SetZero(); }
  Value& operator=(const Value& o) noexcept {
    if (o.is_string()) SharedString::Ref(o.p_.s);  // self-assignment safe
    Release();
    p_ = o.p_;
    type_ = o.type_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      Release();
      p_ = o.p_;
      type_ = o.type_;
      o.SetZero();
    }
    return *this;
  }
  ~Value() { Release(); }

  DataType type() const { return type_; }

  bool is_int() const { return type_ == DataType::kInt64; }
  bool is_double() const { return type_ == DataType::kFloat64; }
  bool is_string() const { return type_ == DataType::kString; }

  int64_t AsInt() const {
    CHECK(is_int()) << "value is " << DataTypeName(type());
    return p_.i;
  }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(p_.i);
    CHECK(is_double()) << "value is " << DataTypeName(type());
    return p_.d;
  }
  const std::string& AsString() const {
    CHECK(is_string()) << "value is " << DataTypeName(type());
    return p_.s != nullptr ? p_.s->str : SharedString::Empty();
  }
  // Another reference to this string's block (no character copy).
  SharedString AsShared() const {
    CHECK(is_string()) << "value is " << DataTypeName(type());
    SharedString::Ref(p_.s);
    SharedString out;
    out.rep_ = p_.s;
    return out;
  }

  // Numeric comparison coerces int/double; strings compare lexically.
  // Comparing a string against a number is a programming error.
  int Compare(const Value& other) const;

  uint64_t Hash() const {
    switch (type_) {
      case DataType::kInt64:
        return Mix64(static_cast<uint64_t>(p_.i));
      case DataType::kFloat64: {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(p_.d));
        __builtin_memcpy(&bits, &p_.d, sizeof(bits));
        return Mix64(bits);
      }
      case DataType::kString:
        return HashString(AsString());
    }
    return 0;
  }

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    if (a.type_ != b.type_) {
      // Allow int/double cross-type numeric equality.
      if (!a.is_string() && !b.is_string()) {
        return a.AsDouble() == b.AsDouble();
      }
      return false;
    }
    switch (a.type_) {
      case DataType::kInt64:
        return a.p_.i == b.p_.i;
      case DataType::kFloat64:
        return a.p_.d == b.p_.d;
      case DataType::kString:
        return a.p_.s == b.p_.s || a.AsString() == b.AsString();
    }
    return false;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  union Payload {
    int64_t i;
    double d;
    const SharedString::Rep* s;
  };

  void Release() {
    if (is_string()) SharedString::Unref(p_.s);
  }
  void SetZero() {
    p_.i = 0;
    type_ = DataType::kInt64;
  }

  Payload p_;
  DataType type_ = DataType::kInt64;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte scalar");

// A tuple payload: one Value per column of the producing operator's schema.
using Row = std::vector<Value>;

uint64_t HashRow(const Row& row);
std::string RowToString(const Row& row);

// Hash of a subset of columns (e.g. a join key or group-by key).
uint64_t HashRowColumns(const Row& row, const std::vector<int>& cols);

// Extracts the given columns into a new row (used for key extraction).
Row ExtractColumns(const Row& row, const std::vector<int>& cols);

// Deterministic approximate heap footprint of a value / row, used by the
// flow-control layer for memory accounting (DESIGN.md §9). Uses logical
// sizes (string length, element count), never container capacity, so two
// runs that hold the same data report the same bytes regardless of
// allocator growth history. The unit is the 16-byte Value slot plus the
// string length for every reference: a string shared by many rows is
// charged once per row that holds it, so the figure tracks how much data
// the holder references, not the allocator's view of the shared blocks.
// Small strings are still charged their length: the estimate is a stable
// accounting unit, not an allocator model.
inline int64_t ApproxValueBytes(const Value& v) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (v.is_string()) bytes += static_cast<int64_t>(v.AsString().size());
  return bytes;
}

inline int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row) bytes += ApproxValueBytes(v);
  return bytes;
}

struct RowHasher {
  size_t operator()(const Row& r) const { return HashRow(r); }
};

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace ishare

#endif  // ISHARE_TYPES_VALUE_H_
