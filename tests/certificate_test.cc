// Tests for proof-carrying verification certificates (verifier/certificate.h)
// and their path through the replicated proxy control plane:
//
//   * canonical serialization round-trips byte-identically;
//   * the one-pass validator agrees with the full fixpoint verifier on every
//     Figure 5 workload class and every checked-in fuzz corpus input, and
//     derives the identical link-time assumption list;
//   * every single-field tampering of a certificate — and every byte-level
//     bit flip that still parses — is rejected;
//   * a replica catching up after an outage validates pushed artifacts
//     against their certificates instead of re-running the rewrite pipeline,
//     and a tampered push is dropped fail-closed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/dvm.h"
#include "src/dvm/replication.h"
#include "src/policy/xml.h"
#include "src/rewrite/method_editor.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/simnet/sim.h"
#include "src/verifier/certificate.h"
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

// A class with the merge-point shapes certificates exist for: a loop (branch
// target), a conditional join, an exception handler, and calls into classes
// outside the environment (link-time assumptions).
ClassFile BranchyApp() {
  ClassBuilder cb("app/Branchy", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic, "acc", "I");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "run", "()I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.PushInt(8).StoreLocal("I", 0);
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfeq, done);
  m.LoadLocal("I", 0).GetStatic("app/Branchy", "acc", "I").Emit(Op::kIadd);
  m.PutStatic("app/Branchy", "acc", "I");
  m.InvokeStatic("app/Helper", "tick", "()V");  // absent class -> assumption
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done);
  m.GetStatic("app/Branchy", "acc", "I").Emit(Op::kIreturn);
  return cb.Build().value();
}

class CertificateTest : public ::testing::Test {
 protected:
  CertificateTest() : library_(BuildSystemLibrary()) {
    for (const ClassFile& cls : library_) {
      lib_env_.Add(&cls);
    }
  }

  std::vector<ClassFile> library_;
  MapClassEnv lib_env_;
};

TEST_F(CertificateTest, RoundTripIsByteIdentical) {
  ClassFile cls = BranchyApp();
  const ArtifactEnv env(&lib_env_, cls);

  ClassCertificate cert;
  auto verified = VerifyClass(cls, env, &cert);
  ASSERT_TRUE(verified.ok()) << verified.error().ToString();
  EXPECT_EQ(cert.class_name, "app/Branchy");
  // The loop head and join are merge points; the helper call is an assumption.
  size_t assertions = 0;
  for (const auto& m : cert.methods) {
    assertions += m.assertions.size();
  }
  EXPECT_GT(assertions, 0u);
  EXPECT_FALSE(cert.assumptions.empty());

  Bytes wire = SerializeCertificate(cert);
  auto reparsed = ParseCertificate(wire);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  EXPECT_TRUE(reparsed.value() == cert);
  EXPECT_EQ(SerializeCertificate(reparsed.value()), wire);
}

TEST_F(CertificateTest, ParserRejectsTrailingBytesAndBadMagic) {
  ClassFile cls = BranchyApp();
  const ArtifactEnv env(&lib_env_, cls);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());
  Bytes wire = SerializeCertificate(cert);

  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(ParseCertificate(trailing).ok());

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(ParseCertificate(bad_magic).ok());

  EXPECT_FALSE(ParseCertificate(Bytes{}).ok());
}

// The validator must accept the verifier's certificate for every class of
// every Figure 5 application, in one pass, deriving the same assumptions.
TEST_F(CertificateTest, ValidatorAgreesOnFig5Workloads) {
  for (const AppBundle& app : BuildFig5Apps(1)) {
    MapClassEnv app_env;
    for (const ClassFile& cls : app.classes) {
      app_env.Add(&cls);
    }
    ChainedClassEnv env(&app_env, &lib_env_);
    for (const ClassFile& cls : app.classes) {
      ClassCertificate cert;
      auto verified = VerifyClass(cls, env, &cert);
      ASSERT_TRUE(verified.ok()) << app.name << "/" << cls.name() << ": "
                                 << verified.error().ToString();

      auto reparsed = ParseCertificate(SerializeCertificate(cert));
      ASSERT_TRUE(reparsed.ok()) << cls.name();
      ValidateStats stats;
      auto validated = ValidateCertificate(cls, env, reparsed.value(), &stats);
      EXPECT_TRUE(validated.ok()) << app.name << "/" << cls.name() << ": "
                                  << validated.error().ToString();
      EXPECT_GT(stats.instructions_validated, 0u) << cls.name();
      // Identical phase-4 obligations, by list position.
      ASSERT_EQ(cert.assumptions.size(), verified->assumptions.size());
      for (size_t i = 0; i < cert.assumptions.size(); i++) {
        EXPECT_EQ(cert.assumptions[i].Key(), verified->assumptions[i].Key());
      }
    }
  }
}

// Verdict agreement over the checked-in fuzz corpus: whatever the fixpoint
// accepts, the one-pass validator accepts via the emitted certificate.
TEST_F(CertificateTest, ValidatorAgreesOnFuzzCorpus) {
  std::filesystem::path dir(DVM_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  size_t accepted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    auto parsed = ReadClassFile(ReadFileBytes(entry.path()));
    if (!parsed.ok()) {
      continue;  // parse rejection is fail-closed; no certificate exists
    }
    const ClassFile& cls = parsed.value();
    const ArtifactEnv env(&lib_env_, cls);
    ClassCertificate cert;
    if (!VerifyClass(cls, env, &cert).ok()) {
      continue;
    }
    accepted++;
    auto reparsed = ParseCertificate(SerializeCertificate(cert));
    ASSERT_TRUE(reparsed.ok()) << entry.path().filename();
    ValidateStats stats;
    auto validated = ValidateCertificate(cls, env, reparsed.value(), &stats);
    EXPECT_TRUE(validated.ok()) << entry.path().filename() << ": "
                                << validated.error().ToString();
  }
  EXPECT_GT(accepted, 0u) << "corpus has no verifier-accepted inputs to differentiate";
}

// Systematic single-field tampering: every struct-level mutation of the
// certificate must flip the validator to reject.
TEST_F(CertificateTest, EverySingleFieldMutationIsRejected) {
  ClassFile cls = BranchyApp();
  const ArtifactEnv env(&lib_env_, cls);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());

  auto rejects = [&](const ClassCertificate& mutated, const std::string& what) {
    ValidateStats stats;
    EXPECT_FALSE(ValidateCertificate(cls, env, mutated, &stats).ok()) << what;
  };

  {
    ClassCertificate m = cert;
    m.class_name += "X";
    rejects(m, "class_name");
  }
  for (size_t mi = 0; mi < cert.methods.size(); mi++) {
    {
      ClassCertificate m = cert;
      m.methods[mi].method_id += "X";
      rejects(m, "method_id");
    }
    for (size_t ai = 0; ai < cert.methods[mi].assertions.size(); ai++) {
      const std::string where =
          cert.methods[mi].method_id + " assertion " + std::to_string(ai);
      {
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].index += 1;
        rejects(m, where + " index");
      }
      {
        ClassCertificate m = cert;
        m.methods[mi].assertions.erase(m.methods[mi].assertions.begin() +
                                       static_cast<long>(ai));
        rejects(m, where + " dropped");
      }
      NamedFrame& frame = cert.methods[mi].assertions[ai].frame;
      for (size_t li = 0; li < frame.locals.size(); li++) {
        if (frame.locals[li] == NamedType::Top()) {
          continue;  // already the widest element; Top -> Top is no mutation
        }
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].frame.locals[li] = NamedType::Top();
        rejects(m, where + " local " + std::to_string(li) + " widened");
      }
      for (size_t si = 0; si < frame.stack.size(); si++) {
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].frame.stack[si] =
            frame.stack[si] == NamedType::Int() ? NamedType::Long() : NamedType::Int();
        rejects(m, where + " stack " + std::to_string(si) + " retyped");
      }
      {
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].frame.stack.push_back(NamedType::Int());
        rejects(m, where + " stack deepened");
      }
    }
  }
  ASSERT_FALSE(cert.assumptions.empty());
  for (size_t i = 0; i < cert.assumptions.size(); i++) {
    {
      ClassCertificate m = cert;
      m.assumptions[i].target_class += "X";
      rejects(m, "assumption " + std::to_string(i) + " retargeted");
    }
    {
      ClassCertificate m = cert;
      m.assumptions.erase(m.assumptions.begin() + static_cast<long>(i));
      rejects(m, "assumption " + std::to_string(i) + " dropped");
    }
  }
  {
    ClassCertificate m = cert;
    m.assumptions.push_back(m.assumptions.front());
    rejects(m, "assumption duplicated");
  }
}

// Byte-level adversary: flip one bit at every position. Whatever still parses
// and differs in content must fail validation.
TEST_F(CertificateTest, EveryParsingBitFlipIsRejected) {
  ClassFile cls = BranchyApp();
  const ArtifactEnv env(&lib_env_, cls);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());
  Bytes wire = SerializeCertificate(cert);

  size_t parsed_mutants = 0;
  for (size_t pos = 0; pos < wire.size(); pos++) {
    for (int bit = 0; bit < 8; bit++) {
      Bytes mutant = wire;
      mutant[pos] ^= static_cast<uint8_t>(1u << bit);
      auto reparsed = ParseCertificate(mutant);
      if (!reparsed.ok()) {
        continue;  // rejected at parse: fail-closed
      }
      if (reparsed.value() == cert) {
        continue;  // cannot happen with a canonical encoding, but be safe
      }
      parsed_mutants++;
      ValidateStats stats;
      EXPECT_FALSE(ValidateCertificate(cls, env, reparsed.value(), &stats).ok())
          << "bit " << bit << " at byte " << pos << " accepted";
    }
  }
  EXPECT_GT(parsed_mutants, 0u) << "flip battery never produced a parseable mutant";
}

// ---------------------------------------------------------------------------
// Replication path: rejoin validates, never re-verifies; tampering is dropped.
// ---------------------------------------------------------------------------

ClassFile TrivialApp(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  m.PushString("ran").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  return cb.Build().value();
}

class CertificateReplicationTest : public ::testing::Test {
 protected:
  CertificateReplicationTest() : library_(BuildSystemLibrary()) {
    InstallSystemLibrary(origin_);
    for (int i = 0; i < 3; i++) {
      origin_.AddClassFile(TrivialApp("app/C" + std::to_string(i)));
    }
    for (const auto& cls : library_) {
      env_.Add(&cls);
    }
    cluster_ = std::make_unique<ProxyCluster>(3, ProxyConfig{}, &env_, &origin_);
    for (size_t i = 0; i < cluster_->size(); i++) {
      cluster_->replica(i).AddFilter(std::make_unique<VerificationFilter>());
    }
  }

  MapClassProvider origin_;
  std::vector<ClassFile> library_;
  MapClassEnv env_;
  std::unique_ptr<ProxyCluster> cluster_;
};

TEST_F(CertificateReplicationTest, RejoinValidatesInsteadOfReverifying) {
  FaultPlan plan;
  plan.seed = 7;
  plan.replica_outages[2].push_back({0, 10 * kSecond});
  FaultInjector injector(plan);
  cluster_->SetFaultInjector(&injector);
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  for (int i = 0; i < 3; i++) {
    const std::string name = "app/C" + std::to_string(i);
    ASSERT_TRUE(cluster_->replica(0).HandleRequest(name).ok());
    ASSERT_TRUE(repl->ReplicateArtifact(0, name, "", (i + 1) * kMillisecond).committed);
  }
  // The rewriting replica emitted a proof per artifact; every pushed record
  // carries it (the commit-log digest now covers certificate bytes too).
  EXPECT_EQ(cluster_->replica(0).stats().Value("proxy.cert_emits"), 3u);
  EXPECT_EQ(cluster_->replica(0).stats().Value("proxy.cert_emit_failures"), 0u);
  for (const CommitRecord& record : repl->cluster_log().records()) {
    EXPECT_FALSE(record.certificate.empty());
  }
  // The live peer validated each push as it applied it.
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_validations"), 3u);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 0u);

  // The rejoining replica catches up by one-pass validation: no pipeline run,
  // no phase-3 fixpoint, every install proof-checked.
  size_t replayed = repl->Rejoin(2, 11 * kSecond);
  EXPECT_EQ(replayed, 3u);
  const StatsRegistry& stats = cluster_->replica(2).stats();
  EXPECT_EQ(stats.Value("proxy.rewrites"), 0u);
  EXPECT_EQ(stats.Value("proxy.cert_validations"), 3u);
  EXPECT_EQ(stats.Value("proxy.cert_rejects"), 0u);
  EXPECT_EQ(stats.Value("proxy.cert_missing"), 0u);
  EXPECT_GT(stats.Value("proxy.cert_validate_checks"), 0u);
  EXPECT_EQ(cluster_->replica(2).replicated_installs(), 3u);
  // Deterministic fleet-wide: the live peer (push path) and the rejoiner
  // (replay path) spend identical validation work on identical artifacts.
  // (The validator-beats-fixpoint cost claim is bench_replication's gate,
  // measured on branchy workloads where the fixpoint revisits instructions.)
  EXPECT_EQ(stats.Value("proxy.cert_validate_checks"),
            cluster_->replica(1).stats().Value("proxy.cert_validate_checks"));
  EXPECT_EQ(repl->replica_log(2).Digest(), repl->cluster_log().Digest());

  // Byte-identical convergence survived the proof gate.
  for (int i = 0; i < 3; i++) {
    const std::string key = DvmProxy::RewriteCacheKey("app/C" + std::to_string(i), "");
    auto a = cluster_->replica(0).cache().Peek(key);
    auto b = cluster_->replica(2).cache().Peek(key);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->main_class, b->main_class);
    EXPECT_EQ(a->certificate, b->certificate);
  }
}

TEST_F(CertificateReplicationTest, TamperedPushIsDroppedFailClosed) {
  ASSERT_TRUE(cluster_->replica(0).HandleRequest("app/C0").ok());
  const std::string key = DvmProxy::RewriteCacheKey("app/C0", "");
  auto cached = cluster_->replica(0).cache().Peek(key);
  ASSERT_TRUE(cached.has_value());
  ASSERT_FALSE(cached->certificate.empty());

  CommitRecord record;
  record.type = CommitRecordType::kArtifact;
  record.cache_key = key;
  record.class_name = "app/C0";
  record.main_class = cached->main_class;
  record.extra_classes = cached->extra_classes;

  // Certificate tampered: flip a payload byte past the magic/name header.
  record.certificate = cached->certificate;
  record.certificate[record.certificate.size() / 2] ^= 0x01;
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 1u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 0u);
  EXPECT_FALSE(cluster_->replica(1).cache().Peek(key).has_value());

  // Bytes tampered under an honest certificate: the artifact no longer
  // parses, so the proof cannot be checked against it and the install is
  // refused fail-closed.
  record.certificate = cached->certificate;
  record.main_class = cached->main_class;
  record.main_class.pop_back();
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 2u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 0u);
  EXPECT_FALSE(cluster_->replica(1).cache().Peek(key).has_value());

  // The honest record still installs.
  record.main_class = cached->main_class;
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_validations"), 1u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 1u);
  EXPECT_TRUE(cluster_->replica(1).cache().Peek(key).has_value());

  // A certificate-less record is refused too: no proof, no install.
  record.certificate.clear();
  record.cache_key = DvmProxy::RewriteCacheKey("app/C1", "");
  record.class_name = "app/C1";
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_missing"), 1u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 1u);
  EXPECT_FALSE(cluster_->replica(1).cache().Peek(record.cache_key).has_value());
  const std::vector<std::string> trail = cluster_->replica(1).audit_trail();
  ASSERT_FALSE(trail.empty());
  EXPECT_EQ(trail.back(), "REPL-REJECT app/C1");
}

// The Fig. 6 hooks sit on native library methods, so serving java/lang/System
// or java/io/File renames the native to __dvmSecured$<name> and adds a wrapper
// that calls it. The proof must resolve the class's own name to that rewritten
// form, not to the library's copy, or the artifact ships without a proof and
// peers refuse it.
TEST_F(CertificateReplicationTest, RewrittenLibraryClassCarriesProof) {
  const SecurityPolicy policy = *ParseSecurityPolicy(R"(
      <policy version="1">
        <domain sid="user" code="app/*"/>
        <allow sid="user" operation="*" target="*"/>
        <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
        <hook class="java/lang/System" method="getProperty" operation="property.get"/>
      </policy>)");
  DvmProxy& rewriter = cluster_->replica(0);
  rewriter.AddFilter(std::make_unique<SecurityFilter>(&policy));

  const std::vector<std::pair<std::string, std::string>> hooked = {
      {"java/lang/System", "getProperty"}, {"java/io/File", "open"}};
  for (const auto& [name, method] : hooked) {
    ASSERT_TRUE(rewriter.HandleRequest(name).ok()) << name;
    const std::string key = DvmProxy::RewriteCacheKey(name, "");
    auto cached = rewriter.cache().Peek(key);
    ASSERT_TRUE(cached.has_value()) << name;
    auto served = ReadClassFile(cached->main_class);
    ASSERT_TRUE(served.ok()) << name;
    bool wrapped = false;
    for (const MethodInfo& m : served->methods) {
      wrapped |= m.name == "__dvmSecured$" + method;
    }
    EXPECT_TRUE(wrapped) << name << " was not rewritten";
    EXPECT_FALSE(cached->certificate.empty()) << name;

    CommitRecord record;
    record.type = CommitRecordType::kArtifact;
    record.cache_key = key;
    record.class_name = name;
    record.main_class = cached->main_class;
    record.extra_classes = cached->extra_classes;
    record.certificate = cached->certificate;
    cluster_->replica(1).ApplyCommitRecord(record);
  }
  EXPECT_EQ(rewriter.stats().Value("proxy.cert_emits"), hooked.size());
  EXPECT_EQ(rewriter.stats().Value("proxy.cert_emit_failures"), 0u);
  const StatsRegistry& peer = cluster_->replica(1).stats();
  EXPECT_EQ(peer.Value("proxy.cert_validations"), hooked.size());
  EXPECT_EQ(peer.Value("proxy.cert_rejects"), 0u);
  EXPECT_EQ(peer.Value("proxy.cert_missing"), 0u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), hooked.size());
}

// A loop whose array local starts null and becomes String[] (the shape of
// tests/corpus/aaload_null_widening.bin, built here from source). The emitted
// proof must validate on a peer: no certless push, no trusted install.
TEST_F(CertificateReplicationTest, NullSeededArrayLoadCarriesProof) {
  ClassBuilder cb("app/NullSeeded", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "run", "()V");
  Label loop = m.NewLabel();
  Label join = m.NewLabel();
  m.PushNull().StoreLocal("[Ljava/lang/String;", 0);
  m.Bind(loop);
  m.LoadLocal("[Ljava/lang/String;", 0).PushInt(0).Emit(Op::kAaload);
  m.StoreLocal("Ljava/lang/String;", 1);
  m.PushInt(0).Branch(Op::kIfeq, join);
  m.Bind(join);
  m.PushInt(1).ANewArray("java/lang/String").StoreLocal("[Ljava/lang/String;", 0);
  m.Branch(Op::kGoto, loop);
  origin_.AddClassFile(cb.Build().value());

  ASSERT_TRUE(cluster_->replica(0).HandleRequest("app/NullSeeded").ok());
  EXPECT_EQ(cluster_->replica(0).stats().Value("proxy.cert_emits"), 1u);
  EXPECT_EQ(cluster_->replica(0).stats().Value("proxy.cert_emit_failures"), 0u);

  const std::string key = DvmProxy::RewriteCacheKey("app/NullSeeded", "");
  auto cached = cluster_->replica(0).cache().Peek(key);
  ASSERT_TRUE(cached.has_value());
  CommitRecord record;
  record.type = CommitRecordType::kArtifact;
  record.cache_key = key;
  record.class_name = "app/NullSeeded";
  record.main_class = cached->main_class;
  record.extra_classes = cached->extra_classes;
  record.certificate = cached->certificate;
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_validations"), 1u);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_missing"), 0u);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 0u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 1u);
}

// ---------------------------------------------------------------------------
// Derivation: the proxy's certificate comes from the verification filter's
// proof, and must be exactly what the fixpoint proves of the artifact.
// ---------------------------------------------------------------------------

// The organization policy of the Figure 6 end-to-end runs.
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

// Inserts code at the entry of every method that stores into a fresh local,
// raising max_locals, and branches within itself, making a merge point of its
// own; it reports the insertion or, with `report` false, hides it.
class LocalStoringFilter : public CodeFilter {
 public:
  explicit LocalStoringFilter(bool report = true) : report_(report) {}
  std::string name() const override { return "test-local-store"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    FilterOutcome outcome;
    for (MethodInfo& method : cls.methods) {
      if (!method.code.has_value()) {
        continue;
      }
      const int fresh = method.code->max_locals;
      DVM_ASSIGN_OR_RETURN(MethodEditor editor, MethodEditor::Open(&cls, &method));
      DVM_RETURN_IF_ERROR(editor.InsertBefore(0, {{Op::kIconst1, 0, 0},
                                                  {Op::kIstore, fresh, 0},
                                                  {Op::kIload, fresh, 0},
                                                  {Op::kIfeq, 5, 0},
                                                  {Op::kNop, 0, 0},
                                                  {Op::kNop, 0, 0}}));
      DVM_RETURN_IF_ERROR(editor.Commit(report_ ? &outcome.code_edits : nullptr));
      outcome.modified = true;
    }
    return outcome;
  }

 private:
  bool report_;
};

class CertificateDerivationTest : public CertificateTest {
 protected:
  struct Served {
    Bytes artifact;
    Bytes certificate;
    bool derived = false;
    bool fell_back = false;
  };

  // One miss on `name`: the artifact, its certificate, and which path
  // certified it.
  static Served Serve(DvmProxy& proxy, const std::string& name) {
    const uint64_t derived = proxy.stats().Value("proxy.cert_derived");
    const uint64_t fallbacks = proxy.stats().Value("proxy.cert_fixpoint_fallbacks");
    Served served;
    auto response = proxy.HandleRequest(name);
    EXPECT_TRUE(response.ok()) << name << ": " << response.error().ToString();
    if (!response.ok()) {
      return served;
    }
    EXPECT_FALSE(response->cache_hit) << name;
    auto cached = proxy.cache().Peek(DvmProxy::RewriteCacheKey(name, ""));
    EXPECT_TRUE(cached.has_value()) << name;
    served.artifact = response->data;
    served.certificate = cached.has_value() ? cached->certificate : Bytes{};
    served.derived = proxy.stats().Value("proxy.cert_derived") == derived + 1;
    served.fell_back = proxy.stats().Value("proxy.cert_fixpoint_fallbacks") == fallbacks + 1;
    EXPECT_NE(served.derived, served.fell_back) << name;
    return served;
  }

  // The fixpoint's proof of `artifact`: what the proxy served before
  // certificates were derived. Empty when the verifier rejects it.
  Bytes Prove(const Bytes& artifact) const {
    auto cls = ReadClassFile(artifact);
    EXPECT_TRUE(cls.ok());
    if (!cls.ok()) {
      return {};
    }
    const ArtifactEnv env(&lib_env_, cls.value());
    ClassCertificate cert;
    return VerifyClass(cls.value(), env, &cert).ok() ? SerializeCertificate(cert) : Bytes{};
  }

  // A proxy stacking `filters` in front of the verification filter's proof.
  std::unique_ptr<DvmProxy> ProxyWith(std::vector<std::unique_ptr<CodeFilter>> filters) {
    auto proxy = std::make_unique<DvmProxy>(ProxyConfig{}, &lib_env_, &origin_);
    proxy->AddFilter(std::make_unique<VerificationFilter>());
    for (auto& filter : filters) {
      proxy->AddFilter(std::move(filter));
    }
    return proxy;
  }

  // The frames of the certificate `wire`, for looking inside one.
  static std::vector<NamedFrame> Frames(const Bytes& wire) {
    std::vector<NamedFrame> frames;
    auto cert = ParseCertificate(wire);
    EXPECT_TRUE(cert.ok());
    if (cert.ok()) {
      for (const MethodCertificate& m : cert->methods) {
        for (const FrameAssertion& a : m.assertions) {
          frames.push_back(a.frame);
        }
      }
    }
    return frames;
  }

  MapClassProvider origin_;
};

// Every class of the Fig. 5 applications and of 100 applets, served by a
// Fig. 6 server, carries a derived certificate byte-equal to the fixpoint's
// proof of the served artifact, with no fallback; so does every corpus input
// the verifier accepts (a rejected one is served as a VerifyError stand-in,
// which the fixpoint certifies).
TEST_F(CertificateDerivationTest, DerivedCertificateEqualsFixpoint) {
  std::vector<std::string> names;
  for (const auto& bundles : {BuildFig5Apps(1), BuildAppletPopulation(100, 1999)}) {
    for (const AppBundle& bundle : bundles) {
      bundle.InstallInto(&origin_);
      for (std::string& name : bundle.ClassNames()) {
        names.push_back(std::move(name));
      }
    }
  }
  ASSERT_GE(names.size(), 500u);
  DvmServerConfig config;
  config.policy = Fig6Policy();
  DvmServer server(config, &origin_);
  for (const std::string& name : names) {
    const Served served = Serve(server.proxy(), name);
    EXPECT_TRUE(served.derived) << name;
    EXPECT_EQ(served.certificate, Prove(served.artifact)) << name;
  }
  EXPECT_EQ(server.proxy().stats().Value("proxy.cert_derived"), names.size());
  EXPECT_EQ(server.proxy().stats().Value("proxy.cert_fixpoint_fallbacks"), 0u);
  EXPECT_EQ(server.proxy().stats().Value("proxy.cert_emits"), names.size());

  std::filesystem::path dir(DVM_CORPUS_DIR);
  size_t corpus_derived = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const Bytes data = ReadFileBytes(entry.path());
    auto parsed = ReadClassFile(data);
    if (!parsed.ok()) {
      continue;
    }
    MapClassProvider staged;
    staged.Add(parsed->name(), data);
    DvmServer corpus_server(config, &staged);
    const Served served = Serve(corpus_server.proxy(), parsed->name());
    EXPECT_EQ(served.certificate, Prove(served.artifact)) << entry.path().filename();
    const ArtifactEnv origin_env(&lib_env_, parsed.value());
    const bool accepted = VerifyClass(parsed.value(), origin_env).ok();
    EXPECT_EQ(served.derived, accepted) << entry.path().filename();
    corpus_derived += served.derived ? 1 : 0;
  }
  EXPECT_GT(corpus_derived, 0u);
}

// Instruction 0 of the origin is a loop head, and the verification guard's
// skip branch lands on the same instruction: one assertion there, the
// origin's loop-head frame, behind both inserted snippets.
TEST_F(CertificateDerivationTest, LoopHeadAtEntryStaysOneAssertion) {
  ClassBuilder cb("app/Spin", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "spin", "(I)I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfeq, done);
  m.InvokeStatic("app/Helper", "tick", "()V");  // an assumption, so a guard
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done);
  m.PushInt(0).Emit(Op::kIreturn);
  origin_.AddClassFile(cb.Build().value());

  std::vector<std::unique_ptr<CodeFilter>> filters;
  filters.push_back(std::make_unique<AuditFilter>());
  auto proxy = ProxyWith(std::move(filters));
  const Served served = Serve(*proxy, "app/Spin");
  EXPECT_TRUE(served.derived);
  EXPECT_EQ(served.certificate, Prove(served.artifact));
  auto cert = ParseCertificate(served.certificate);
  ASSERT_TRUE(cert.ok());
  ASSERT_EQ(cert->methods.size(), 1u);
  // Audit prologue (2) + guard; the loop head and the guard's target coincide.
  const auto& assertions = cert->methods[0].assertions;
  ASSERT_FALSE(assertions.empty());
  EXPECT_GT(assertions.front().index, 2u);
  EXPECT_EQ(assertions.front().frame.locals[0], NamedType::Int());
}

// A `new` before a branch leaves its Uninit value on the stack at the join:
// the allocation site is an instruction index and moves with the insertion.
TEST_F(CertificateDerivationTest, UninitSitesMoveWithTheirNew) {
  ClassBuilder cb("app/Maker", "java/lang/Object");
  MethodBuilder& init = cb.AddMethod(AccessFlags::kPublic, "<init>", "(I)V");
  init.LoadLocal("Lapp/Maker;", 0).InvokeSpecial("java/lang/Object", "<init>", "()V");
  init.Emit(Op::kReturn);
  MethodBuilder& m =
      cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "make", "(I)Ljava/lang/Object;");
  Label zero = m.NewLabel();
  Label join = m.NewLabel();
  m.New("app/Maker").Emit(Op::kDup);
  m.LoadLocal("I", 0).Branch(Op::kIfeq, zero);
  m.PushInt(1).Branch(Op::kGoto, join);
  m.Bind(zero);
  m.PushInt(0);
  m.Bind(join);
  m.InvokeSpecial("app/Maker", "<init>", "(I)V").Emit(Op::kAreturn);
  origin_.AddClassFile(cb.Build().value());

  std::vector<std::unique_ptr<CodeFilter>> filters;
  filters.push_back(std::make_unique<AuditFilter>());
  auto proxy = ProxyWith(std::move(filters));
  const Served served = Serve(*proxy, "app/Maker");
  EXPECT_TRUE(served.derived);
  EXPECT_EQ(served.certificate, Prove(served.artifact));
  bool moved_site = false;
  for (const NamedFrame& frame : Frames(served.certificate)) {
    for (const NamedType& t : frame.stack) {
      // The `new` was instruction 0; the audit prologue put two in front.
      moved_site |= t == NamedType::Uninit("app/Maker", 2);
    }
  }
  EXPECT_TRUE(moved_site);
}

// A loop over locals only: no assumption, so no verification guard.
ClassFile LoopOnlyApp() {
  ClassBuilder cb("app/LoopOnly", "java/lang/Object");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "count", "(I)I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfeq, done);
  m.Emit(Op::kIinc, 1, 1).Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done);
  m.LoadLocal("I", 1).Emit(Op::kIreturn);
  return cb.Build().value();
}

// Inserted code that stores into a fresh local widens every frame; the new
// slot holds what the inserted code left there, not Top. Its own branch
// target, in front of the verification guard, is a merge point too.
TEST_F(CertificateDerivationTest, InsertedLocalsPadEveryFrame) {
  origin_.AddClassFile(BranchyApp());
  std::vector<std::unique_ptr<CodeFilter>> filters;
  filters.push_back(std::make_unique<LocalStoringFilter>());
  auto proxy = ProxyWith(std::move(filters));
  const Served served = Serve(*proxy, "app/Branchy");
  EXPECT_TRUE(served.derived);
  EXPECT_EQ(served.certificate, Prove(served.artifact));
  auto artifact = ReadClassFile(served.artifact);
  ASSERT_TRUE(artifact.ok());
  const MethodInfo* run = artifact->FindMethod("run", "()I");
  ASSERT_NE(run, nullptr);
  const size_t fresh = run->code->max_locals - 1u;
  bool padded = false;
  for (const NamedFrame& frame : Frames(served.certificate)) {
    if (frame.locals.size() == run->code->max_locals) {
      EXPECT_EQ(frame.locals[fresh], NamedType::Int());
      padded = true;
    }
  }
  EXPECT_TRUE(padded);
  // The inserted branch's target, instruction 5 of every method.
  auto cert = ParseCertificate(served.certificate);
  ASSERT_TRUE(cert.ok());
  for (const MethodCertificate& m : cert->methods) {
    ASSERT_FALSE(m.assertions.empty()) << m.method_id;
    EXPECT_EQ(m.assertions.front().index, 5u) << m.method_id;
  }
}

// A filter that edits a body without reporting it: the derivation finds a
// body that is not the proved one, and the proxy proves the artifact itself.
// The class needs no guard, so nothing but the body's bytes shows the edit.
TEST_F(CertificateDerivationTest, UnreportedEditFallsBackToTheFixpoint) {
  origin_.AddClassFile(LoopOnlyApp());
  std::vector<std::unique_ptr<CodeFilter>> filters;
  filters.push_back(std::make_unique<LocalStoringFilter>(/*report=*/false));
  auto proxy = ProxyWith(std::move(filters));
  const Served served = Serve(*proxy, "app/LoopOnly");
  EXPECT_TRUE(served.fell_back);
  EXPECT_FALSE(served.certificate.empty());
  EXPECT_EQ(served.certificate, Prove(served.artifact));
  EXPECT_EQ(proxy->stats().Value("proxy.cert_emits"), 1u);
}

// Security preambles (one passing a String argument) and the wrapper that
// replaces a hooked native are derived too.
TEST_F(CertificateDerivationTest, SecurityPreamblesAndWrappersDerive) {
  ClassBuilder cb("app/Guarded", "java/lang/Object");
  cb.AddDefaultConstructor();
  MethodBuilder& open = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "open",
                                     "(Ljava/lang/String;)I");
  Label done = open.NewLabel();
  open.LoadLocal("Ljava/lang/String;", 0).Branch(Op::kIfnull, done);
  open.PushInt(1).Emit(Op::kIreturn);
  open.Bind(done);
  open.PushInt(0).Emit(Op::kIreturn);
  cb.AddNativeMethod(AccessFlags::kPublic | AccessFlags::kStatic, "poke", "(I)I");
  origin_.AddClassFile(cb.Build().value());

  static const SecurityPolicy policy = ParseSecurityPolicy(R"(
    <policy version="1">
      <allow operation="*" target="*"/>
      <hook class="app/Guarded" method="open" operation="file.open" target-arg="0"/>
      <hook class="app/Guarded" method="poke" operation="poke"/>
    </policy>)")
                                           .value();
  std::vector<std::unique_ptr<CodeFilter>> filters;
  filters.push_back(std::make_unique<SecurityFilter>(&policy));
  filters.push_back(std::make_unique<AuditFilter>());
  auto proxy = ProxyWith(std::move(filters));
  const Served served = Serve(*proxy, "app/Guarded");
  EXPECT_TRUE(served.derived);
  EXPECT_EQ(served.certificate, Prove(served.artifact));
  auto artifact = ReadClassFile(served.artifact);
  ASSERT_TRUE(artifact.ok());
  const MethodInfo* wrapper = artifact->FindMethod("poke", "(I)I");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_TRUE(wrapper->code.has_value());
}

}  // namespace
}  // namespace dvm
