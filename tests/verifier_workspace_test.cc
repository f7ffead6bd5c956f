// Pins what the verifier's engineering must not change: the discrete checks
// the fixpoint, the one-pass certificate validator and certificate
// derivation count, the certificates they produce, and the error text of
// every rejected input. Checks the opcode edge table the three share, and
// that the per-thread verifier workspace carries nothing from one call to
// the next and keeps no more than its cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bytecode/serializer.h"
#include "src/policy/xml.h"
#include "src/rewrite/filter.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/reflect_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/verifier/certificate.h"
#include "src/verifier/dataflow.h"
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

SecurityPolicy Fig6Policy() {
  return ParseSecurityPolicy(R"(
    <policy version="1">
      <domain sid="user" code="app/*"/>
      <domain sid="user" code="ui/*"/>
      <domain sid="user" code="applet/*"/>
      <allow sid="user" operation="*" target="*"/>
      <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
      <hook class="java/lang/System" method="getProperty" operation="property.get"/>
    </policy>)")
      .value();
}

// FNV-1a over byte strings, for pinning certificate bytes in one number.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(const Bytes& bytes) {
    for (uint8_t b : bytes) {
      h = (h ^ b) * 0x100000001b3ULL;
    }
    h = (h ^ bytes.size()) * 0x100000001b3ULL;
  }
};

// Summed work of the three drivers of the abstract transfer function.
struct Totals {
  VerifyStats verify;      // VerifyClass
  ValidateStats validate;  // ValidateCertificate on VerifyClass's certificates
  uint64_t derive_checks = 0;  // TransformCertificate behind the Fig. 6 filters
  uint64_t classes = 0;
  uint64_t rejected = 0;
  Fnv certs;

  std::string ToString() const {
    return "phase1=" + std::to_string(verify.phase1_checks) +
           " phase2=" + std::to_string(verify.phase2_checks) +
           " phase3=" + std::to_string(verify.phase3_checks) +
           " instructions_verified=" + std::to_string(verify.instructions_verified) +
           " v.phase1=" + std::to_string(validate.verify.phase1_checks) +
           " v.phase2=" + std::to_string(validate.verify.phase2_checks) +
           " v.phase3=" + std::to_string(validate.verify.phase3_checks) +
           " v.instructions_verified=" + std::to_string(validate.verify.instructions_verified) +
           " validate_checks=" + std::to_string(validate.validate_checks) +
           " instructions_validated=" + std::to_string(validate.instructions_validated) +
           " derive_checks=" + std::to_string(derive_checks) +
           " classes=" + std::to_string(classes) + " rejected=" + std::to_string(rejected) +
           " certs=" + std::to_string(certs.h);
  }
};

class CheckCountOracle : public ::testing::Test {
 protected:
  CheckCountOracle() : library_(BuildSystemLibrary()) {
    for (const ClassFile& cls : library_) {
      lib_env_.Add(&cls);
    }
    pipeline_.Add(std::make_unique<ReflectionFilter>());
    pipeline_.Add(std::make_unique<VerificationFilter>());
    pipeline_.Add(std::make_unique<SecurityFilter>(&policy_));
    pipeline_.Add(std::make_unique<AuditFilter>());
  }

  // Verifies `cls` against itself and the library, as the proxy and a
  // replica do; validates the certificate of an accepted class, and derives
  // the certificate of its Fig. 6 artifact. Returns the rejection's text.
  std::string Run(const ClassFile& cls, Totals* totals) {
    totals->classes++;
    const ArtifactEnv env(&lib_env_, cls);
    ClassCertificate cert;
    auto verified = VerifyClass(cls, env, &cert);
    if (!verified.ok()) {
      totals->rejected++;
      return verified.error().ToString();
    }
    totals->verify.Accumulate(verified->stats);
    const Bytes wire = SerializeCertificate(cert);
    totals->certs.Add(wire);
    ValidateStats stats;
    const Status validated = ValidateCertificate(cls, env, ParseCertificate(wire).value(), &stats);
    EXPECT_TRUE(validated.ok()) << cls.name();
    totals->validate.verify.Accumulate(stats.verify);
    totals->validate.validate_checks += stats.validate_checks;
    totals->validate.instructions_validated += stats.instructions_validated;

    auto piped = pipeline_.Run(cls, lib_env_);
    EXPECT_TRUE(piped.ok()) << cls.name();
    if (piped.ok() && piped->proof.has_value()) {
      const ArtifactEnv artifact_env(&lib_env_, piped->cls);
      uint64_t checks = 0;
      auto derived = TransformCertificate(*piped->proof, piped->code_edits, piped->cls,
                                          artifact_env, &checks);
      EXPECT_TRUE(derived.ok()) << cls.name();
      if (derived.ok()) {
        totals->derive_checks += checks;
        totals->certs.Add(SerializeCertificate(derived.value()));
      }
    }
    return "";
  }

  std::vector<ClassFile> library_;
  MapClassEnv lib_env_;
  SecurityPolicy policy_ = Fig6Policy();
  FilterPipeline pipeline_;
};

TEST_F(CheckCountOracle, Fig5AndAppletTotalsArePinned) {
  Totals totals;
  for (const auto& bundles : {BuildFig5Apps(1), BuildAppletPopulation(100, 1999)}) {
    for (const AppBundle& bundle : bundles) {
      for (const ClassFile& cls : bundle.classes) {
        EXPECT_EQ(Run(cls, &totals), "") << cls.name();
      }
    }
  }
  EXPECT_EQ(totals.ToString(),
            "phase1=38276 phase2=10210171 phase3=16985904 instructions_verified=6790588 "
            "v.phase1=38276 v.phase2=10210171 v.phase3=0 v.instructions_verified=6790588 "
            "validate_checks=17017202 instructions_validated=6790588 derive_checks=59213 "
            "classes=740 rejected=0 certs=13900089798603797884");
}

TEST_F(CheckCountOracle, CorpusTotalsAndRejectionsArePinned) {
  std::map<std::string, std::string> rejections;
  Totals totals;
  for (const auto& entry : std::filesystem::directory_iterator(DVM_CORPUS_DIR)) {
    auto parsed = ReadClassFile(ReadFileBytes(entry.path()));
    const std::string file = entry.path().filename().string();
    rejections[file] = parsed.ok() ? Run(parsed.value(), &totals) : parsed.error().ToString();
  }
  EXPECT_EQ(totals.ToString(),
            "phase1=60 phase2=59 phase3=98 instructions_verified=29 v.phase1=60 v.phase2=59 "
            "v.phase3=0 v.instructions_verified=29 validate_checks=96 instructions_validated=29 "
            "derive_checks=37 classes=16 rejected=11 certs=3656308223428851041");
  // Accepted inputs map to "".
  const std::map<std::string, std::string> expected = {
      {"aaload_null_widening.bin", ""},
      {"catch_nonthrowable.bin",
       "VerifyError: evil/E.f:()V @0: handler catches non-throwable java/lang/String"},
      {"code_len_4gb.bin", "ParseError: code length count 4294967295 exceeds limit 1048576"},
      {"cyclic_super_athrow.bin",
       "VerifyError: evil/E.f:(Levil/E;)V @1: athrow of non-throwable evil/E"},
      {"deep_array_descriptor.bin",
       "VerifyError: field x has malformed descriptor " + std::string(300, '[') + "I"},
      {"entry_frame_oob.bin", "VerifyError: max_locals 0 cannot hold 3 parameter slots in f:(III)V"},
      {"giant_newarray.bin", ""},
      {"handler_inverted.bin", "VerifyError: exception handler has invalid code range in f:()V"},
      {"handler_mid_instruction.bin",
       "VerifyError: exception handler has invalid code range in f:()V"},
      {"handler_overflow.bin",
       "VerifyError: evil/E.f:()V @0: exception handler needs stack room for the thrown "
       "reference (max_stack=0)"},
      {"handler_stack_mismatch.bin",
       "VerifyError: merge @1: inconsistent stack depth at merge point (1 vs 0)"},
      {"iinc_overflow.bin", ""},
      {"ldiv_min_by_neg1.bin", ""},
      {"lrem_min_by_neg1.bin", ""},
      {"malformed_field_descriptor.bin", "VerifyError: field x has malformed descriptor ["},
      {"malformed_method_descriptor.bin", "VerifyError: method f has malformed descriptor (\x03"},
      {"mid_instruction_jump.bin", "VerifyError: branch targets mid-instruction offset 1"},
      {"truncated_method_table.bin", "ParseError: truncated stream reading u16 at offset 20"},
  };
  EXPECT_EQ(rejections, expected);
}

// The edges each driver of Step follows come from one table by opcode
// byte; it must agree with the opcode predicates on every byte.
TEST(OpEdgesTest, TableMatchesBranchAndTerminatorPredicates) {
  for (size_t byte = 0; byte < 256; byte++) {
    const Op op = static_cast<Op>(byte);
    const OpEdges edges = EdgesOf(op);
    if (GetOpInfo(op) == nullptr) {
      EXPECT_FALSE(edges.branch || edges.fallthrough) << byte;
      continue;
    }
    EXPECT_EQ(edges.branch, IsBranch(op)) << GetOpInfo(op)->name;
    EXPECT_EQ(edges.fallthrough, !IsTerminator(op)) << GetOpInfo(op)->name;
  }
  EXPECT_TRUE(EdgesOf(Op::kGoto).branch && !EdgesOf(Op::kGoto).fallthrough);
  EXPECT_TRUE(EdgesOf(Op::kIfeq).branch && EdgesOf(Op::kIfeq).fallthrough);
  EXPECT_FALSE(EdgesOf(Op::kAthrow).branch || EdgesOf(Op::kAthrow).fallthrough);
  EXPECT_FALSE(EdgesOf(Op::kIreturn).branch || EdgesOf(Op::kIreturn).fallthrough);
  EXPECT_TRUE(!EdgesOf(Op::kIadd).branch && EdgesOf(Op::kIadd).fallthrough);
}

class VerifierWorkspaceTest : public CheckCountOracle {
 protected:
  // The proxy's proof of `cls` against itself and the library: its
  // certificate bytes and stats, or the rejection.
  struct Proof {
    std::string error;
    Bytes cert;
    VerifyStats stats;
  };
  Proof Prove(const ClassFile& cls) {
    const ArtifactEnv env(&lib_env_, cls);
    ClassCertificate cert;
    auto verified = VerifyClass(cls, env, &cert);
    if (!verified.ok()) {
      return {verified.error().ToString(), {}, {}};
    }
    return {"", SerializeCertificate(cert), verified->stats};
  }

  static ClassFile CorpusClass(const char* file) {
    return ReadClassFile(ReadFileBytes(std::filesystem::path(DVM_CORPUS_DIR) / file)).value();
  }
};

// A verification that fails with the workspace half full leaves nothing the
// next one can see: the JLex class proves to the same bytes and checks
// before and after a fixpoint that fails at a merge and one that fails in a
// step.
TEST_F(VerifierWorkspaceTest, FailedFixpointLeavesNoTrace) {
  const AppBundle jlex = BuildJlexApp(1);
  const ClassFile& cls = jlex.classes[1];
  const Proof before = Prove(cls);
  ASSERT_EQ(before.error, "");
  for (const char* file : {"handler_stack_mismatch.bin", "cyclic_super_athrow.bin"}) {
    EXPECT_NE(Prove(CorpusClass(file)).error, "") << file;
    const Proof after = Prove(cls);
    EXPECT_EQ(after.cert, before.cert) << file;
    EXPECT_EQ(after.stats.phase3_checks, before.stats.phase3_checks) << file;
    EXPECT_EQ(after.stats.TotalStaticChecks(), before.stats.TotalStaticChecks()) << file;
  }

  // The same for the one-pass validator, around a certificate it rejects
  // halfway through the class.
  const ArtifactEnv env(&lib_env_, cls);
  const ClassCertificate cert = ParseCertificate(before.cert).value();
  auto validate = [&](const ClassCertificate& c) {
    ValidateStats stats;
    const Status status = ValidateCertificate(cls, env, c, &stats);
    return std::make_pair(status.ok(), stats.TotalChecks() + stats.instructions_validated);
  };
  const auto valid = validate(cert);
  ASSERT_TRUE(valid.first);
  ClassCertificate tampered = cert;
  MethodCertificate* last = nullptr;
  for (MethodCertificate& m : tampered.methods) {
    last = m.assertions.empty() ? last : &m;
  }
  ASSERT_NE(last, nullptr);
  last->assertions.back().frame.stack.push_back(NamedType::Int());
  EXPECT_FALSE(validate(tampered).first);
  EXPECT_EQ(validate(cert), valid);
}

// A method with 65535 locals verifies, and leaves no more than the cap
// behind on the thread; an ordinary class leaves its buffers for reuse.
TEST_F(VerifierWorkspaceTest, HugeMethodLeavesAtMostTheCap) {
  const AppBundle jlex = BuildJlexApp(1);
  ASSERT_EQ(Prove(jlex.classes[1]).error, "");
  {
    WorkspaceLease ws;
    EXPECT_GT(ws->CapacityBytes(), 0u);
    EXPECT_LE(ws->CapacityBytes(), VerifierWorkspace::kMaxKeptBytes);
  }

  ClassFile huge = jlex.classes[1];
  size_t widened = 0;
  for (MethodInfo& method : huge.methods) {
    if (method.code.has_value()) {
      method.code->max_locals = 65535;
      widened++;
    }
  }
  ASSERT_GT(widened, 0u);
  const Proof proof = Prove(huge);
  ASSERT_EQ(proof.error, "");
  {
    WorkspaceLease ws;
    EXPECT_LE(ws->CapacityBytes(), VerifierWorkspace::kMaxKeptBytes);
  }
  const ArtifactEnv env(&lib_env_, huge);
  ValidateStats stats;
  EXPECT_TRUE(
      ValidateCertificate(huge, env, ParseCertificate(proof.cert).value(), &stats).ok());
  WorkspaceLease ws;
  EXPECT_LE(ws->CapacityBytes(), VerifierWorkspace::kMaxKeptBytes);
}

// A lease taken while the thread's workspace is lent gets its own; once both
// are returned, the next lease is the thread's again.
TEST(WorkspaceLeaseTest, NestedLeaseGetsAFreshWorkspace) {
  VerifierWorkspace* thread_ws = nullptr;
  {
    WorkspaceLease outer;
    thread_ws = &*outer;
    WorkspaceLease inner;
    EXPECT_NE(&*inner, thread_ws);
  }
  WorkspaceLease again;
  EXPECT_EQ(&*again, thread_ws);
}

}  // namespace
}  // namespace dvm
