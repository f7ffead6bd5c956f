// Regression tests for the crop of bugs flushed out by the fuzz subsystem
// (fuzz/, DESIGN.md §10). Two halves:
//
//   1. CorpusIsClean replays every checked-in minimized crasher in
//      tests/corpus/ through all three oracles — the same check the CI fuzz
//      smoke job performs, pinned here so a plain `ctest` catches a
//      reintroduction without needing the fuzz harnesses.
//   2. Targeted tests pin the exact semantics of each fix: the kLdiv/kLrem
//      INT64_MIN edge, kIinc wraparound, serializer count validation, and the
//      VerifyError stand-in surviving malformed member descriptors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fuzz/oracles.h"
#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"
#include "src/verifier/class_env.h"
#include "src/verifier/verifier.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"

namespace dvm {
namespace {

#ifndef DVM_CORPUS_DIR
#define DVM_CORPUS_DIR "tests/corpus"
#endif

Bytes ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Every minimized crasher in the corpus must be handled cleanly by all four
// oracles: round-trip, rewrite totality/idempotence, the differential
// verifier↔interpreter check, and the certificate emit/validate/mutate check.
TEST(FuzzCorpus, CorpusIsClean) {
  std::filesystem::path dir(DVM_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << "missing corpus dir " << dir;
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    Bytes data = ReadFileBytes(entry.path());
    std::string violation = fuzz::CheckAll(data);
    EXPECT_TRUE(violation.empty()) << entry.path().filename() << ": " << violation;
    count++;
  }
  EXPECT_GE(count, 17u) << "corpus unexpectedly small — regenerate with "
                           "`dvm_fuzz gen-regressions tests/corpus`";
}

// MethodEditor splices code inserted at a proved method's entry instead of
// decoding the body; the splice must leave every method exactly as the
// decoding path does. Every Fig. 5 and applet class, and the corpus, through
// the editor-paths oracle (dvm_fuzz editor-paths).
TEST(FuzzCorpus, EditorSplicePathEqualsDecodingPath) {
  fuzz::EditorPathsCounts counts;
  size_t classes = 0;
  for (const auto& bundles : {BuildFig5Apps(1), BuildAppletPopulation(100, 1999)}) {
    for (const AppBundle& bundle : bundles) {
      for (const ClassFile& cls : bundle.classes) {
        classes++;
        std::string violation = fuzz::CheckEditorPaths(MustWriteClassFile(cls), &counts);
        EXPECT_TRUE(violation.empty()) << cls.name() << ": " << violation;
      }
    }
  }
  ASSERT_GE(classes, 500u);
  // Audit and the security hook instrument every method, so each proved
  // body takes at least two entry insertions, and every one is spliced.
  EXPECT_GE(counts.commits, 2 * classes);
  EXPECT_EQ(counts.spliced, counts.commits);

  for (const auto& entry : std::filesystem::directory_iterator(DVM_CORPUS_DIR)) {
    std::string violation = fuzz::CheckEditorPaths(ReadFileBytes(entry.path()), &counts);
    EXPECT_TRUE(violation.empty()) << entry.path().filename() << ": " << violation;
  }
}

// Loads a checked-in corpus input and verifies it against itself plus the
// system library — the environment the proxy's certificate plane uses, which
// is where the verifier bugs below were reachable.
class VerifierBugCrop : public ::testing::Test {
 protected:
  VerifierBugCrop() : library_(BuildSystemLibrary()) {
    for (const ClassFile& cls : library_) {
      lib_env_.Add(&cls);
    }
  }

  Result<VerifiedClass> VerifyCorpusInput(const char* name) {
    Bytes data = ReadFileBytes(std::filesystem::path(DVM_CORPUS_DIR) / name);
    auto parsed = ReadClassFile(data);
    if (!parsed.ok()) {
      return parsed.error();
    }
    cls_ = std::move(parsed).value();
    const ArtifactEnv env(&lib_env_, cls_);
    return VerifyClass(cls_, env);
  }

  std::vector<ClassFile> library_;
  MapClassEnv lib_env_;
  ClassFile cls_;
};

// A pc reachable normally with an empty stack and as a handler entry with the
// thrown reference: the merge conflict used to be swallowed by a (void) cast
// on the handler-edge merge and the class was accepted. Found by the
// validator-vs-verifier differential oracle.
TEST_F(VerifierBugCrop, HandlerEntryMergeConflictIsRejected) {
  auto result = VerifyCorpusInput("handler_stack_mismatch.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kVerifyError);
  EXPECT_NE(result.error().message.find("inconsistent stack depth"), std::string::npos)
      << result.error().message;
}

// A handler in a max_stack=0 method: the entry frame's thrown reference used
// to be pushed without consulting the declared budget.
TEST_F(VerifierBugCrop, HandlerNeedsStackRoomForThrownReference) {
  auto result = VerifyCorpusInput("handler_overflow.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kVerifyError);
  EXPECT_NE(result.error().message.find("max_stack=0"), std::string::npos)
      << result.error().message;
}

// evil/E extends evil/E: every superclass-chain walk (assignability, field and
// method resolution, certificate merge joins) used to spin forever on the
// cycle. The assertion here is simply that verification *returns*.
TEST_F(VerifierBugCrop, CyclicHierarchyTerminates) {
  auto result = VerifyCorpusInput("cyclic_super_athrow.bin");
  // Verdict is environment-dependent (the cycle widens merges to assumptions);
  // termination without a hang or a crash is the regression being pinned.
  (void)result;
}

// catch_type = java/lang/String: the catch class was never checked assignable
// to Throwable, accepting handlers exception dispatch can never enter.
TEST_F(VerifierBugCrop, CatchTypeMustBeThrowable) {
  auto result = VerifyCorpusInput("catch_nonthrowable.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kVerifyError);
  EXPECT_NE(result.error().message.find("non-throwable"), std::string::npos)
      << result.error().message;
}

class FuzzRegressionTest : public ::testing::Test {
 protected:
  FuzzRegressionTest() { InstallSystemLibrary(provider_); }

  void AddClass(ClassBuilder& cb) {
    auto built = cb.Build();
    ASSERT_TRUE(built.ok()) << built.error().ToString();
    provider_.AddClassFile(built.value());
  }

  Value RunStatic(const std::string& cls, const std::string& method, const std::string& desc) {
    Machine machine({}, &provider_);
    auto result = machine.CallStatic(cls, method, desc, {});
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().ToString());
    EXPECT_FALSE(result.ok() && result->threw);
    return result.ok() ? result->value : Value::Int(0);
  }

  MapClassProvider provider_;
};

// INT64_MIN / -1 overflows int64_t — C++ UB, a SIGFPE on x86. JVM semantics:
// the quotient wraps back to INT64_MIN.
TEST_F(FuzzRegressionTest, LdivMinByMinusOneWraps) {
  ClassBuilder cb("app/Ldiv", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()J");
  m.PushLong(INT64_MIN).PushLong(-1).Emit(Op::kLdiv).Emit(Op::kLreturn);
  AddClass(cb);
  EXPECT_EQ(RunStatic("app/Ldiv", "f", "()J").AsLong(), INT64_MIN);
}

// Same edge for the remainder: INT64_MIN % -1 is exactly 0 per JVM semantics.
TEST_F(FuzzRegressionTest, LremMinByMinusOneIsZero) {
  ClassBuilder cb("app/Lrem", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()J");
  m.PushLong(INT64_MIN).PushLong(-1).Emit(Op::kLrem).Emit(Op::kLreturn);
  AddClass(cb);
  EXPECT_EQ(RunStatic("app/Lrem", "f", "()J").AsLong(), 0);
}

// iinc on a local holding INT32_MAX formerly overflowed a signed int (UB);
// it must wrap like every other int32 operation.
TEST_F(FuzzRegressionTest, IincOverflowWraps) {
  ClassBuilder cb("app/Iinc", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic, "f", "()I");
  m.PushInt(INT32_MAX).StoreLocal("I", 0);
  m.Emit(Op::kIinc, 0, 1);
  m.LoadLocal("I", 0).Emit(Op::kIreturn);
  AddClass(cb);
  EXPECT_EQ(RunStatic("app/Iinc", "f", "()I").AsInt(), INT32_MIN);
}

// A constant pool wider than the u16 count field cannot be a wire class file.
// WriteClassFile formerly looped forever (uint16_t counter wrap) and silently
// truncated the count; it must return kParseError instead.
TEST_F(FuzzRegressionTest, WriteRejectsOversizedPool) {
  ClassBuilder cb("app/BigPool", "java/lang/Object");
  ClassFile cls = cb.Build().value();
  for (uint32_t i = 0; cls.pool().size() <= kMaxPoolEntries; i++) {
    cls.pool().AddInteger(static_cast<int32_t>(i));
  }
  auto wire = WriteClassFile(cls);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.error().code, ErrorCode::kParseError);
}

// A rejected class whose method descriptor is garbage must still yield a
// buildable VerifyError stand-in — the malformed member is dropped, the rest
// keep their throwing bodies. Formerly a silent std::abort.
TEST_F(FuzzRegressionTest, VerifyErrorStandInSurvivesMalformedDescriptors) {
  ClassBuilder cb("app/Bad", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic, "ok", "I");
  cb.AddMethod(AccessFlags::kStatic, "good", "()V").Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  cls.FindMethod("good", "()V")->descriptor = "(\x03";  // malformed on purpose
  FieldInfo bad_field;
  bad_field.access_flags = AccessFlags::kStatic;
  bad_field.name = "bad";
  bad_field.descriptor = "[";
  cls.fields.push_back(std::move(bad_field));

  auto standin = BuildVerifyErrorClass(cls, "rejected");
  ASSERT_TRUE(standin.ok()) << standin.error().ToString();
  EXPECT_EQ(standin->name(), "app/Bad");
  EXPECT_EQ(standin->fields.size(), 1u);  // "ok" kept, "bad" dropped
  EXPECT_EQ(standin->fields[0].name, "ok");
  EXPECT_EQ(standin->methods.size(), 0u);  // the malformed method is dropped
  // The stand-in must itself serialize: it goes back out on the wire.
  EXPECT_TRUE(WriteClassFile(standin.value()).ok());
}

}  // namespace
}  // namespace dvm
