// Tests for the 16-byte Value and its shared immutable strings
// (types/value.h): layout, copy/move/self-assignment, agreement with the
// reference semantics of a plain std::variant<int64_t, double, std::string>
// scalar, string lifetime, block sharing through the columnar lift/lower,
// and concurrent copy/destroy (run under ThreadSanitizer by ci.sh tsan).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "ishare/common/rng.h"
#include "ishare/storage/column_batch.h"
#include "ishare/types/column.h"
#include "ishare/types/value.h"

namespace ishare {
namespace {

static_assert(sizeof(Value) == 16);
static_assert(sizeof(SharedString) == sizeof(void*));

// ---------------------------------------------------------------------------
// Reference model: the scalar semantics every Value must reproduce.
// ---------------------------------------------------------------------------

using RefValue = std::variant<int64_t, double, std::string>;

double RefAsDouble(const RefValue& v) {
  if (v.index() == 0) return static_cast<double>(std::get<int64_t>(v));
  return std::get<double>(v);
}

uint64_t RefHash(const RefValue& v) {
  switch (v.index()) {
    case 0:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(v)));
    case 1: {
      double d = std::get<double>(v);
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    default:
      return HashString(std::get<std::string>(v));
  }
}

bool RefEq(const RefValue& a, const RefValue& b) {
  if (a.index() != b.index()) {
    if (a.index() != 2 && b.index() != 2) {
      return RefAsDouble(a) == RefAsDouble(b);
    }
    return false;
  }
  return a == b;
}

// Only called on comparable pairs (both strings or both numbers).
int RefCompare(const RefValue& a, const RefValue& b) {
  if (a.index() == 2) {
    const std::string& x = std::get<std::string>(a);
    const std::string& y = std::get<std::string>(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.index() == 0 && b.index() == 0) {
    int64_t x = std::get<int64_t>(a);
    int64_t y = std::get<int64_t>(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  double x = RefAsDouble(a);
  double y = RefAsDouble(b);
  return x < y ? -1 : (x > y ? 1 : 0);
}

std::string RefToString(const RefValue& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v));
    case 1: {
      std::ostringstream os;
      os << std::get<double>(v);
      return os.str();
    }
    default:
      return "'" + std::get<std::string>(v) + "'";
  }
}

Value ToValue(const RefValue& v) {
  switch (v.index()) {
    case 0:
      return Value(std::get<int64_t>(v));
    case 1:
      return Value(std::get<double>(v));
    default:
      return Value(std::get<std::string>(v));
  }
}

// Draws from a small domain so equal, cross-type-equal and shared-prefix
// pairs are common; includes -0.0, NaN, infinities and empty strings.
RefValue DrawRef(Rng* rng) {
  static const double kSpecial[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 1.0, -3.0, 2.5};
  static const char* kStrings[] = {"", "a", "ab", "ASIA", "ASIAN",
                                   "Customer#000000001",
                                   "Customer#000000002",
                                   "a much longer string than fifteen bytes"};
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return RefValue(int64_t{rng->UniformInt(-3, 3)});
    case 1:
      return RefValue(kSpecial[rng->UniformInt(0, 7)]);
    case 2:
      return RefValue(static_cast<double>(rng->UniformInt(-3, 3)));
    default:
      return RefValue(std::string(kStrings[rng->UniformInt(0, 7)]));
  }
}

TEST(ValueTest, AgreesWithReferenceSemanticsOnSeededPairs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<RefValue> refs;
    for (int i = 0; i < 40; ++i) refs.push_back(DrawRef(&rng));
    std::vector<Value> vals;
    for (const RefValue& r : refs) vals.push_back(ToValue(r));
    for (size_t i = 0; i < refs.size(); ++i) {
      const Value& a = vals[i];
      ASSERT_EQ(a.Hash(), RefHash(refs[i])) << "seed " << seed;
      ASSERT_EQ(a.ToString(), RefToString(refs[i])) << "seed " << seed;
      ASSERT_EQ(static_cast<size_t>(a.type()), refs[i].index());
      for (size_t j = 0; j < refs.size(); ++j) {
        const Value& b = vals[j];
        ASSERT_EQ(a == b, RefEq(refs[i], refs[j]))
            << a.ToString() << " vs " << b.ToString() << " seed " << seed;
        ASSERT_EQ(a != b, !RefEq(refs[i], refs[j]));
        if (a.is_string() == b.is_string()) {
          ASSERT_EQ(a.Compare(b), RefCompare(refs[i], refs[j]))
              << a.ToString() << " vs " << b.ToString() << " seed " << seed;
        }
      }
    }
  }
}

TEST(ValueTest, NumericEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Value(nan) == Value(nan));
  EXPECT_TRUE(Value(0.0) == Value(-0.0));
  EXPECT_NE(Value(0.0).Hash(), Value(-0.0).Hash());  // bit-pattern hash
  EXPECT_TRUE(Value(int64_t{2}) == Value(2.0));
  EXPECT_FALSE(Value(int64_t{2}) == Value("2"));
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.5)), -1);
  EXPECT_EQ(Value(-0.0).ToString(), "-0");
}

// ---------------------------------------------------------------------------
// Copy, move, self-assignment and lifetime of string values
// ---------------------------------------------------------------------------

TEST(ValueTest, StringCopiesShareOneBlock) {
  const std::string text = "a string well past the small-string buffer";
  Value a(text);
  Value b = a;
  EXPECT_EQ(a.AsString().data(), b.AsString().data());
  Value c;
  c = b;
  EXPECT_EQ(c.AsString().data(), a.AsString().data());
  EXPECT_EQ(c.AsString(), text);
  EXPECT_EQ(a, c);
}

TEST(ValueTest, MoveLeavesSourceAsIntZeroAndKeepsBlock) {
  Value a("moved string payload longer than sixteen");
  const char* data = a.AsString().data();
  Value b(std::move(a));
  EXPECT_EQ(b.AsString().data(), data);
  EXPECT_TRUE(a.is_int());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.AsInt(), 0);  // NOLINT(bugprone-use-after-move)
  Value c(int64_t{5});
  c = std::move(b);
  EXPECT_EQ(c.AsString().data(), data);
  EXPECT_TRUE(b.is_int());  // NOLINT(bugprone-use-after-move)
}

TEST(ValueTest, SelfAssignmentKeepsTheString) {
  Value a("self assigned string, long enough to allocate");
  const Value& alias = a;
  a = alias;
  EXPECT_EQ(a.AsString(), "self assigned string, long enough to allocate");
  Value* p = &a;
  a = std::move(*p);
  EXPECT_EQ(a.AsString(), "self assigned string, long enough to allocate");
  SharedString s(std::string("shared self"));
  const SharedString& salias = s;
  s = salias;
  EXPECT_EQ(s.AsString(), "shared self");
}

TEST(ValueTest, ReassigningBetweenTypesReleasesAndAcquires) {
  Value v("first");
  v = Value(int64_t{7});
  EXPECT_EQ(v.AsInt(), 7);
  v = Value("second");
  EXPECT_EQ(v.AsString(), "second");
  v = Value(1.5);
  EXPECT_EQ(v.AsDouble(), 1.5);
}

TEST(ValueTest, EmptyStringNeedsNoBlockAndBehavesLikeAnyString) {
  Value e("");
  EXPECT_TRUE(e.is_string());
  EXPECT_EQ(e.AsString(), "");
  EXPECT_EQ(e, Value(std::string()));
  EXPECT_EQ(e.Hash(), HashString(""));
  EXPECT_EQ(e.ToString(), "''");
  EXPECT_EQ(e.Compare(Value("a")), -1);
  EXPECT_EQ(SharedString().AsString(), "");
}

TEST(ValueTest, StringOutlivesTheRowItWasCopiedFrom) {
  Value kept;
  {
    Row row = {Value(int64_t{1}), Value(std::string(64, 'x'))};
    kept = row[1];
  }
  EXPECT_EQ(kept.AsString(), std::string(64, 'x'));
  SharedString handle;
  {
    Value v("outlived by its handle, longer than sixteen");
    handle = v.AsShared();
  }
  EXPECT_EQ(handle.AsString(), "outlived by its handle, longer than sixteen");
  EXPECT_EQ(Value(handle).AsString(), handle.AsString());
}

TEST(ValueTest, AccountingChargesSlotPlusLengthPerReference) {
  EXPECT_EQ(ApproxValueBytes(Value(int64_t{1})), 16);
  EXPECT_EQ(ApproxValueBytes(Value("abcd")), 16 + 4);
  Value s(std::string(100, 'y'));
  Row row = {s, s};  // two references to one block: charged twice
  EXPECT_EQ(ApproxRowBytes(row),
            static_cast<int64_t>(sizeof(Row)) + 2 * (16 + 100));
}

// ---------------------------------------------------------------------------
// Columnar lift/lower keeps string blocks shared
// ---------------------------------------------------------------------------

TEST(ValueTest, ColumnBatchRoundTripSharesStringPayloads) {
  Schema schema({{"k", DataType::kInt64}, {"name", DataType::kString}});
  DeltaBatch in;
  for (int i = 0; i < 8; ++i) {
    Row row = {Value(int64_t{i}),
               Value("name number " + std::to_string(i) + " padded out")};
    in.emplace_back(std::move(row), QuerySet::Single(0), 1);
  }
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema, DeltaSpan(in), &cb));
  const std::vector<SharedString>& col = cb.cols[1].str();
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(col[i].AsString().data(), in[i].row[1].AsString().data());
  }
  DeltaBatch out = cb.ToDeltas();
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].row[1].AsString().data(),
              in[i].row[1].AsString().data());
    EXPECT_EQ(out[i].row, in[i].row);
  }
}

TEST(ValueTest, ColumnVectorStringSlotsShareAndDefaultToEmpty) {
  Value v("a column string longer than the SSO buffer");
  ColumnVector src(DataType::kString);
  src.AppendValue(v);
  ColumnVector c(DataType::kString);
  c.AppendValue(v);
  c.AppendFrom(src, 0);
  EXPECT_EQ(c.str()[1].AsString().data(), v.AsString().data());
  EXPECT_EQ(c.GetValue(1).AsString().data(), v.AsString().data());
  c.Resize(3);
  EXPECT_EQ(c.GetValue(2), Value(""));
  EXPECT_EQ(c.ApproxBytes(),
            static_cast<int64_t>(sizeof(ColumnVector) +
                                 3 * sizeof(SharedString) +
                                 2 * v.AsString().size()));
}

// ---------------------------------------------------------------------------
// Concurrency: copies on many threads share one block safely
// ---------------------------------------------------------------------------

TEST(ValueConcurrency, CopyAndDestroyAcrossThreads) {
  const std::string text = "a block shared by every thread's copies";
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<Value> seeds = {Value(text), Value("second shared block, long"),
                              Value(int64_t{3})};
  // Each thread keeps copying the shared seeds into rows and dropping
  // them; the last round's rows are handed back so some blocks are freed
  // by a thread other than the one that made the final copy.
  std::vector<std::vector<Row>> handed_back(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Row> rows;
      for (int r = 0; r < kRounds; ++r) {
        rows.clear();
        for (int i = 0; i < 8; ++i) {
          Row row = {seeds[static_cast<size_t>(i) % seeds.size()], seeds[0]};
          Row moved = std::move(row);
          rows.push_back(moved);
        }
        Value local = rows.back()[1];
        if (local.AsString() != text) std::abort();
      }
      handed_back[static_cast<size_t>(t)] = std::move(rows);
    });
  }
  for (std::thread& th : threads) th.join();
  seeds.clear();  // the handed-back rows now hold the only references
  for (const std::vector<Row>& rows : handed_back) {
    for (const Row& row : rows) EXPECT_EQ(row[1].AsString(), text);
  }
  std::thread freer([&] { handed_back.clear(); });
  freer.join();
}

}  // namespace
}  // namespace ishare
