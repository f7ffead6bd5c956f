// Table test for the shared opcode value semantics (src/runtime/opsem.h).
// Every operation runs over all pairs from {MIN, -1, 0, 1, MAX} and is checked
// against literal JVM-spec results. Both engines share opsem.h, so the
// cross-engine differential cannot catch a bug in it; this table can.
#include "src/runtime/opsem.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace dvm {
namespace {

constexpr int32_t kIMin = INT32_MIN;
constexpr int32_t kIMax = INT32_MAX;
constexpr int64_t kLMin = INT64_MIN;
constexpr int64_t kLMax = INT64_MAX;
constexpr int32_t kInts[5] = {kIMin, -1, 0, 1, kIMax};
constexpr int64_t kLongs[5] = {kLMin, -1, 0, 1, kLMax};

struct IntTable {
  Op op;
  int32_t r[5][5];  // r[i][j] = kInts[i] op kInts[j]
};

struct LongTable {
  Op op;
  int64_t r[5][5];  // r[i][j] = kLongs[i] op kLongs[j]
};

// Shift counts come from the same operand set, so they exercise the 5-bit
// mask: MIN & 31 == 0 and MAX & 31 == -1 & 31 == 31.
const IntTable kIntAlu[] = {
    {Op::kIadd,
     {{0, kIMax, kIMin, -2147483647, -1},
      {kIMax, -2, -1, 0, 2147483646},
      {kIMin, -1, 0, 1, kIMax},
      {-2147483647, 0, 1, 2, kIMin},
      {-1, 2147483646, kIMax, kIMin, -2}}},
    {Op::kIsub,
     {{0, -2147483647, kIMin, kIMax, 1},
      {kIMax, 0, -1, -2, kIMin},
      {kIMin, 1, 0, -1, -2147483647},
      {-2147483647, 2, 1, 0, -2147483646},
      {-1, kIMin, kIMax, 2147483646, 0}}},
    {Op::kImul,
     {{0, kIMin, 0, kIMin, kIMin},
      {kIMin, 1, 0, -1, -2147483647},
      {0, 0, 0, 0, 0},
      {kIMin, -1, 0, 1, kIMax},
      {kIMin, -2147483647, 0, kIMax, 1}}},
    {Op::kIand,
     {{kIMin, kIMin, 0, 0, 0},
      {kIMin, -1, 0, 1, kIMax},
      {0, 0, 0, 0, 0},
      {0, 1, 0, 1, 1},
      {0, kIMax, 0, 1, kIMax}}},
    {Op::kIor,
     {{kIMin, -1, kIMin, -2147483647, -1},
      {-1, -1, -1, -1, -1},
      {kIMin, -1, 0, 1, kIMax},
      {-2147483647, -1, 1, 1, kIMax},
      {-1, -1, kIMax, kIMax, kIMax}}},
    {Op::kIxor,
     {{0, kIMax, kIMin, -2147483647, -1},
      {kIMax, 0, -1, -2, kIMin},
      {kIMin, -1, 0, 1, kIMax},
      {-2147483647, -2, 1, 0, 2147483646},
      {-1, kIMin, kIMax, 2147483646, 0}}},
    {Op::kIshl,
     {{kIMin, 0, kIMin, 0, 0},
      {-1, kIMin, -1, -2, kIMin},
      {0, 0, 0, 0, 0},
      {1, kIMin, 1, 2, kIMin},
      {kIMax, kIMin, kIMax, -2, kIMin}}},
    {Op::kIshr,
     {{kIMin, -1, kIMin, -1073741824, -1},
      {-1, -1, -1, -1, -1},
      {0, 0, 0, 0, 0},
      {1, 0, 1, 0, 0},
      {kIMax, 0, kIMax, 1073741823, 0}}},
    {Op::kIushr,
     {{kIMin, 1, kIMin, 1073741824, 1},
      {-1, 1, -1, kIMax, 1},
      {0, 0, 0, 0, 0},
      {1, 0, 1, 0, 0},
      {kIMax, 0, kIMax, 1073741823, 0}}},
};

// Column 2 (divisor 0) throws; its entries are unused.
const IntTable kIntDivRem[] = {
    {Op::kIdiv,
     {{1, kIMin, 0, kIMin, -1},
      {0, 1, 0, -1, 0},
      {0, 0, 0, 0, 0},
      {0, -1, 0, 1, 0},
      {0, -2147483647, 0, kIMax, 1}}},
    {Op::kIrem,
     {{0, 0, 0, 0, -1},
      {-1, 0, 0, 0, -1},
      {0, 0, 0, 0, 0},
      {1, 0, 0, 0, 1},
      {kIMax, 0, 0, 0, 0}}},
};

const LongTable kLongAlu[] = {
    {Op::kLadd,
     {{0, kLMax, kLMin, -9223372036854775807, -1},
      {kLMax, -2, -1, 0, 9223372036854775806},
      {kLMin, -1, 0, 1, kLMax},
      {-9223372036854775807, 0, 1, 2, kLMin},
      {-1, 9223372036854775806, kLMax, kLMin, -2}}},
    {Op::kLsub,
     {{0, -9223372036854775807, kLMin, kLMax, 1},
      {kLMax, 0, -1, -2, kLMin},
      {kLMin, 1, 0, -1, -9223372036854775807},
      {-9223372036854775807, 2, 1, 0, -9223372036854775806},
      {-1, kLMin, kLMax, 9223372036854775806, 0}}},
    {Op::kLmul,
     {{0, kLMin, 0, kLMin, kLMin},
      {kLMin, 1, 0, -1, -9223372036854775807},
      {0, 0, 0, 0, 0},
      {kLMin, -1, 0, 1, kLMax},
      {kLMin, -9223372036854775807, 0, kLMax, 1}}},
};

// Column 2 (divisor 0) throws; its entries are unused.
const LongTable kLongDivRem[] = {
    {Op::kLdiv,
     {{1, kLMin, 0, kLMin, -1},
      {0, 1, 0, -1, 0},
      {0, 0, 0, 0, 0},
      {0, -1, 0, 1, 0},
      {0, -9223372036854775807, 0, kLMax, 1}}},
    {Op::kLrem,
     {{0, 0, 0, 0, -1},
      {-1, 0, 0, 0, -1},
      {0, 0, 0, 0, 0},
      {1, 0, 0, 0, 1},
      {kLMax, 0, 0, 0, 0}}},
};

const IntTable kIntCmpCond[] = {  // 1 = branch taken
    {Op::kIfIcmpeq,
     {{1, 0, 0, 0, 0},
      {0, 1, 0, 0, 0},
      {0, 0, 1, 0, 0},
      {0, 0, 0, 1, 0},
      {0, 0, 0, 0, 1}}},
    {Op::kIfIcmpne,
     {{0, 1, 1, 1, 1},
      {1, 0, 1, 1, 1},
      {1, 1, 0, 1, 1},
      {1, 1, 1, 0, 1},
      {1, 1, 1, 1, 0}}},
    {Op::kIfIcmplt,
     {{0, 1, 1, 1, 1},
      {0, 0, 1, 1, 1},
      {0, 0, 0, 1, 1},
      {0, 0, 0, 0, 1},
      {0, 0, 0, 0, 0}}},
    {Op::kIfIcmpge,
     {{1, 0, 0, 0, 0},
      {1, 1, 0, 0, 0},
      {1, 1, 1, 0, 0},
      {1, 1, 1, 1, 0},
      {1, 1, 1, 1, 1}}},
    {Op::kIfIcmpgt,
     {{0, 0, 0, 0, 0},
      {1, 0, 0, 0, 0},
      {1, 1, 0, 0, 0},
      {1, 1, 1, 0, 0},
      {1, 1, 1, 1, 0}}},
    {Op::kIfIcmple,
     {{1, 1, 1, 1, 1},
      {0, 1, 1, 1, 1},
      {0, 0, 1, 1, 1},
      {0, 0, 0, 1, 1},
      {0, 0, 0, 0, 1}}},
};

TEST(OpsemTest, IntAlu) {
  for (const IntTable& t : kIntAlu) {
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        EXPECT_EQ(opsem::IntAlu(t.op, kInts[i], kInts[j]), t.r[i][j])
            << GetOpInfo(t.op)->name << " " << kInts[i] << ", " << kInts[j];
      }
    }
  }
}

TEST(OpsemTest, LongAlu) {
  for (const LongTable& t : kLongAlu) {
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        EXPECT_EQ(opsem::LongAlu(t.op, kLongs[i], kLongs[j]), t.r[i][j])
            << GetOpInfo(t.op)->name << " " << kLongs[i] << ", " << kLongs[j];
      }
    }
  }
}

TEST(OpsemTest, IntDivRem) {
  for (const IntTable& t : kIntDivRem) {
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        int32_t r = 12345;
        opsem::Fault fault = opsem::IntDivRem(t.op, kInts[i], kInts[j], &r);
        if (kInts[j] == 0) {
          EXPECT_EQ(fault.kind, opsem::Fault::Kind::kGuest);
          EXPECT_STREQ(fault.exception_class, "java/lang/ArithmeticException");
          EXPECT_EQ(fault.Message(), "/ by zero");
          EXPECT_EQ(r, 12345);
        } else {
          EXPECT_TRUE(fault.ok());
          EXPECT_EQ(r, t.r[i][j]) << GetOpInfo(t.op)->name << " " << kInts[i] << ", "
                                  << kInts[j];
        }
      }
    }
  }
}

TEST(OpsemTest, LongDivRem) {
  for (const LongTable& t : kLongDivRem) {
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        int64_t r = 12345;
        opsem::Fault fault = opsem::LongDivRem(t.op, kLongs[i], kLongs[j], &r);
        if (kLongs[j] == 0) {
          EXPECT_EQ(fault.kind, opsem::Fault::Kind::kGuest);
          EXPECT_STREQ(fault.exception_class, "java/lang/ArithmeticException");
          EXPECT_EQ(fault.Message(), "/ by zero");
          EXPECT_EQ(r, 12345);
        } else {
          EXPECT_TRUE(fault.ok());
          EXPECT_EQ(r, t.r[i][j]) << GetOpInfo(t.op)->name << " " << kLongs[i] << ", "
                                  << kLongs[j];
        }
      }
    }
  }
}

TEST(OpsemTest, UnaryOpsAndConversions) {
  const int32_t ineg[5] = {kIMin, 1, 0, -1, -2147483647};
  const int64_t lneg[5] = {kLMin, 1, 0, -1, -9223372036854775807};
  const int64_t i2l[5] = {-2147483648LL, -1, 0, 1, 2147483647LL};
  const int32_t l2i[5] = {0, -1, 0, 1, -1};  // low 32 bits
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(opsem::IntNeg(kInts[i]), ineg[i]) << kInts[i];
    EXPECT_EQ(opsem::LongNeg(kLongs[i]), lneg[i]) << kLongs[i];
    EXPECT_EQ(opsem::I2l(kInts[i]), i2l[i]) << kInts[i];
    EXPECT_EQ(opsem::L2i(kLongs[i]), l2i[i]) << kLongs[i];
  }
  EXPECT_EQ(opsem::L2i(0x1'0000'0005LL), 5);
  EXPECT_EQ(opsem::L2i(0xFFFF'FFFF'8000'0000LL), kIMin);
}

TEST(OpsemTest, IincWraps) {
  const int32_t iinc[5][5] = {{0, kIMax, kIMin, -2147483647, -1},
                              {kIMax, -2, -1, 0, 2147483646},
                              {kIMin, -1, 0, 1, kIMax},
                              {-2147483647, 0, 1, 2, kIMin},
                              {-1, 2147483646, kIMax, kIMin, -2}};
  for (int i = 0; i < 5; i++) {
    for (int j = 0; j < 5; j++) {
      EXPECT_EQ(opsem::IntInc(kInts[i], kInts[j]), iinc[i][j]) << kInts[i] << " += " << kInts[j];
    }
  }
}

TEST(OpsemTest, Lcmp) {
  const int32_t lcmp[5][5] = {{0, -1, -1, -1, -1},
                              {1, 0, -1, -1, -1},
                              {1, 1, 0, -1, -1},
                              {1, 1, 1, 0, -1},
                              {1, 1, 1, 1, 0}};
  for (int i = 0; i < 5; i++) {
    for (int j = 0; j < 5; j++) {
      EXPECT_EQ(opsem::Lcmp(kLongs[i], kLongs[j]), lcmp[i][j]) << kLongs[i] << ", " << kLongs[j];
    }
  }
}

TEST(OpsemTest, IntCond) {
  struct Row {
    Op op;
    bool taken[5];
  };
  const Row rows[] = {
      {Op::kIfeq, {false, false, true, false, false}},
      {Op::kIfne, {true, true, false, true, true}},
      {Op::kIflt, {true, true, false, false, false}},
      {Op::kIfge, {false, false, true, true, true}},
      {Op::kIfgt, {false, false, false, true, true}},
      {Op::kIfle, {true, true, true, false, false}},
  };
  for (const Row& row : rows) {
    for (int i = 0; i < 5; i++) {
      EXPECT_EQ(opsem::IntCond(row.op, kInts[i]), row.taken[i])
          << GetOpInfo(row.op)->name << " " << kInts[i];
    }
  }
}

TEST(OpsemTest, IntCmpCond) {
  for (const IntTable& t : kIntCmpCond) {
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        EXPECT_EQ(opsem::IntCmpCond(t.op, kInts[i], kInts[j]), t.r[i][j] == 1)
            << GetOpInfo(t.op)->name << " " << kInts[i] << ", " << kInts[j];
      }
    }
  }
}

TEST(OpsemTest, RefAndNullConds) {
  EXPECT_TRUE(opsem::RefCmpCond(Op::kIfAcmpeq, 7, 7));
  EXPECT_FALSE(opsem::RefCmpCond(Op::kIfAcmpeq, 7, 8));
  EXPECT_TRUE(opsem::RefCmpCond(Op::kIfAcmpeq, kNullRef, kNullRef));
  EXPECT_FALSE(opsem::RefCmpCond(Op::kIfAcmpne, 7, 7));
  EXPECT_TRUE(opsem::RefCmpCond(Op::kIfAcmpne, 7, kNullRef));
  EXPECT_TRUE(opsem::NullCond(Op::kIfnull, Value::Null()));
  EXPECT_FALSE(opsem::NullCond(Op::kIfnull, Value::Ref(3)));
  EXPECT_FALSE(opsem::NullCond(Op::kIfnonnull, Value::Null()));
  EXPECT_TRUE(opsem::NullCond(Op::kIfnonnull, Value::Ref(3)));
}

// --- arrays --------------------------------------------------------------------

class OpsemArrayTest : public ::testing::Test {
 protected:
  OpsemArrayTest() {
    ints_ = Value::Ref(heap_.AllocIntArray(2).value());
    longs_ = Value::Ref(heap_.AllocLongArray(2).value());
    refs_ = Value::Ref(heap_.AllocRefArray("[Ljava/lang/Object;", 2).value());
    instance_ = Value::Ref(heap_.AllocInstance("java/lang/Object", 0).value());
  }

  static void ExpectGuest(const opsem::Fault& fault, const char* cls, const std::string& msg) {
    EXPECT_EQ(fault.kind, opsem::Fault::Kind::kGuest);
    EXPECT_STREQ(fault.exception_class, cls);
    EXPECT_EQ(fault.Message(), msg);
  }
  static void ExpectHost(const opsem::Fault& fault, const std::string& msg) {
    EXPECT_TRUE(fault.host());
    EXPECT_EQ(fault.Message(), msg);
  }

  Heap heap_;
  Value ints_, longs_, refs_, instance_;
  const Value dangling_ = Value::Ref(999);
};

TEST_F(OpsemArrayTest, LoadStoreRoundTripEveryKind) {
  struct Case {
    Op load, store;
    Value array, element;
  };
  const Case cases[] = {
      {Op::kIaload, Op::kIastore, ints_, Value::Int(kIMin)},
      {Op::kLaload, Op::kLastore, longs_, Value::Long(kLMax)},
      {Op::kAaload, Op::kAastore, refs_, instance_},
  };
  for (const Case& c : cases) {
    for (int32_t index : {0, 1}) {
      EXPECT_TRUE(opsem::ArrayStore(heap_, c.store, c.array, index, c.element).ok());
      Value v;
      EXPECT_TRUE(opsem::ArrayLoad(heap_, c.load, c.array, index, &v).ok());
      EXPECT_EQ(v, c.element) << GetOpInfo(c.load)->name << " [" << index << "]";
    }
    int32_t length = 0;
    EXPECT_TRUE(opsem::ArrayLength(heap_, c.array, &length).ok());
    EXPECT_EQ(length, 2);
  }
}

TEST_F(OpsemArrayTest, OutOfBoundsIndexIsTheMessage) {
  for (int32_t index : kInts) {
    if (index == 0 || index == 1) {
      continue;
    }
    Value v;
    ExpectGuest(opsem::ArrayLoad(heap_, Op::kIaload, ints_, index, &v),
                "java/lang/ArrayIndexOutOfBoundsException", std::to_string(index));
    ExpectGuest(opsem::ArrayStore(heap_, Op::kLastore, longs_, index, Value::Long(1)),
                "java/lang/ArrayIndexOutOfBoundsException", std::to_string(index));
  }
  Value v;
  ExpectGuest(opsem::ArrayLoad(heap_, Op::kAaload, refs_, 2, &v),
              "java/lang/ArrayIndexOutOfBoundsException", "2");
}

TEST_F(OpsemArrayTest, NullAndDanglingReferences) {
  Value v;
  int32_t length = 0;
  ExpectGuest(opsem::ArrayLoad(heap_, Op::kIaload, Value::Null(), 0, &v),
              "java/lang/NullPointerException", "array load on null");
  ExpectGuest(opsem::ArrayStore(heap_, Op::kAastore, Value::Null(), 0, Value::Null()),
              "java/lang/NullPointerException", "array store on null");
  ExpectGuest(opsem::ArrayLength(heap_, Value::Null(), &length),
              "java/lang/NullPointerException", "arraylength on null");
  ExpectHost(opsem::ArrayLoad(heap_, Op::kIaload, dangling_, 0, &v), "dangling array reference");
  ExpectHost(opsem::ArrayStore(heap_, Op::kIastore, dangling_, 0, Value::Int(1)),
             "dangling array reference");
  ExpectHost(opsem::ArrayLength(heap_, dangling_, &length), "arraylength on non-array");
  ExpectHost(opsem::ArrayLength(heap_, instance_, &length), "arraylength on non-array");
}

// Unverified code can name the wrong element kind (iaload on a long[]); the
// accessor must refuse before it touches the backing vector, and before the
// bounds check (the index is in range for the array it names).
TEST_F(OpsemArrayTest, ElementKindMismatchIsAHostError) {
  const Op loads[] = {Op::kIaload, Op::kLaload, Op::kAaload};
  const Op stores[] = {Op::kIastore, Op::kLastore, Op::kAastore};
  const Value arrays[] = {ints_, longs_, refs_};
  for (int op = 0; op < 3; op++) {
    for (int arr = 0; arr < 3; arr++) {
      if (op == arr) {
        continue;
      }
      Value v;
      ExpectHost(opsem::ArrayLoad(heap_, loads[op], arrays[arr], 1, &v),
                 "array element kind mismatch");
      ExpectHost(opsem::ArrayStore(heap_, stores[op], arrays[arr], 1, Value::Int(1)),
                 "array element kind mismatch");
    }
    Value v;
    ExpectHost(opsem::ArrayLoad(heap_, loads[op], instance_, 0, &v),
               "array element kind mismatch");
  }
}

}  // namespace
}  // namespace dvm
