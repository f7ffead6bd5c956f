// dvm_fuzz — corpus and triage CLI for the fuzz/ subsystem (DESIGN.md §10).
//
//   dvm_fuzz gen <dir>                 write the built-in seed corpus
//   dvm_fuzz gen-regressions <dir>     write the minimized crasher/regression
//                                      inputs checked into tests/corpus/
//   dvm_fuzz triage <file>...          run every oracle over each input and
//                                      print a verdict; exit 1 on violation
//   dvm_fuzz mutate <out-dir> <seed> <count> <input>...
//                                      emit deterministic mutants of a corpus
//   dvm_fuzz mutate-certs <seed> <count> [input]...
//                                      certificate adversary: emit a proof for
//                                      every verifiable input and require that
//                                      every tampered certificate is rejected
//   dvm_fuzz order-independence <input>...
//                                      serve every input through a proxy cold,
//                                      after the rest of the inputs, and after
//                                      them in reverse order; exit 1 on any
//                                      difference in artifact, certificate or
//                                      error
//   dvm_fuzz derive-certs <input>...   serve every input through a proxy whose
//                                      filters insert code into every method
//                                      and compare each derived certificate
//                                      with the fixpoint's proof of the same
//                                      artifact; exit 1 on any difference
//   dvm_fuzz editor-paths <input>...   run the same filters with a security
//                                      hook on every method, replay each
//                                      insertion at a proved method's entry
//                                      through an editor that splices and
//                                      one that decodes the body first, and
//                                      compare the two; exit 1 on any
//                                      difference
//   dvm_fuzz min <file> <out>          greedy chunk-removal minimization that
//                                      preserves the input's triage category
//
// Everything is deterministic: gen and gen-regressions always emit identical
// bytes, and mutate/min are pure functions of (inputs, seed).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/mutator.h"
#include "fuzz/oracles.h"
#include "src/bytecode/builder.h"
#include "src/bytecode/code.h"
#include "src/bytecode/serializer.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/reflect_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

void WriteFileBytes(const std::filesystem::path& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

Bytes ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Builds evil/E with one static method `f` whose code is supplied raw —
// the same bypass-the-builder idiom as tests/verifier_rejection_test.cc.
ClassFile HandAssembled(const char* descriptor, const std::vector<Instr>& body,
                        uint16_t max_stack, uint16_t max_locals,
                        std::vector<ExceptionHandler> handlers = {}) {
  ClassBuilder cb("evil/E", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", descriptor)
      .Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  MethodInfo* method = cls.FindMethod("f", descriptor);
  method->code->code = EncodeCode(body).value();
  method->code->max_stack = max_stack;
  method->code->max_locals = max_locals;
  method->code->handlers = std::move(handlers);
  return cls;
}

// ---------------------------------------------------------------------------
// gen-regressions: each entry reproduces one bug fixed in this subsystem's
// development (or pins a fail-closed rejection path). Kept minimal on purpose.
// ---------------------------------------------------------------------------

// INT64_MIN / -1: verifier-legal, formerly a SIGFPE in the interpreter.
Bytes LdivMinByNeg1() {
  ClassBuilder cb("evil/E", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()J");
  m.PushLong(INT64_MIN).PushLong(-1).Emit(Op::kLdiv).Emit(Op::kLreturn);
  ClassFile cls = cb.Build().value();
  return MustWriteClassFile(cls);
}

// lrem variant of the same trap.
Bytes LremMinByNeg1() {
  ClassBuilder cb("evil/E", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()J");
  m.PushLong(INT64_MIN).PushLong(-1).Emit(Op::kLrem).Emit(Op::kLreturn);
  ClassFile cls = cb.Build().value();
  return MustWriteClassFile(cls);
}

// iinc past INT32_MAX: verifier-legal, formerly signed-overflow UB.
Bytes IincOverflow() {
  ClassBuilder cb("evil/E", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()I");
  m.PushInt(INT32_MAX).StoreLocal("I", 0).Emit(Op::kIinc, 0, 100);
  m.LoadLocal("I", 0).Emit(Op::kIreturn);
  ClassFile cls = cb.Build().value();
  return MustWriteClassFile(cls);
}

// newarray INT32_MAX: verifier-legal; formerly allocated ~8 GB of host memory
// before the capacity check. Must now raise guest OutOfMemoryError.
Bytes GiantNewarray() {
  ClassBuilder cb("evil/E", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()I");
  m.PushInt(INT32_MAX).Emit(Op::kNewarray, static_cast<int>(ArrayKind::kInt));
  m.Emit(Op::kArraylength).Emit(Op::kIreturn);
  ClassFile cls = cb.Build().value();
  return MustWriteClassFile(cls);
}

// max_locals smaller than the parameter count: formerly an out-of-bounds
// write in the verifier's own entry-frame construction.
Bytes EntryFrameOob() {
  return MustWriteClassFile(HandAssembled("(III)V", {{Op::kReturn, 0, 0}}, 0, 0));
}

// Inverted exception-handler range (start >= end): phase 2 must reject.
Bytes HandlerInverted() {
  std::vector<Instr> body = {{Op::kIconst0, 0, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
  return MustWriteClassFile(
      HandAssembled("()V", body, 4, 1, {{/*start=*/2, /*end=*/1, /*handler=*/0, 0}}));
}

// Handler pc in the middle of a bipush: phase 2 must reject.
Bytes HandlerMidInstruction() {
  std::vector<Instr> body = {{Op::kBipush, 5, 0}, {Op::kPop, 0, 0}, {Op::kReturn, 0, 0}};
  return MustWriteClassFile(
      HandAssembled("()V", body, 4, 1, {{/*start=*/0, /*end=*/3, /*handler=*/1, 0}}));
}

// goto whose target lands mid-instruction: DecodeCode must reject.
Bytes MidInstructionJump() {
  ClassFile cls = HandAssembled("()V", {{Op::kReturn, 0, 0}}, 4, 1);
  // bipush 5; goto -1  → target byte 1, inside the bipush.
  cls.FindMethod("f", "()V")->code->code = Bytes{0x10, 0x05, 0xa7, 0xff, 0xff};
  return MustWriteClassFile(cls);
}

// Field descriptor with 300 array dimensions: must be rejected as malformed,
// and must not recurse per bracket while deciding.
Bytes DeepArrayDescriptor() {
  ClassBuilder cb("evil/E", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic, "x", std::string(300, '[') + "I");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V").Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  return MustWriteClassFile(cls);
}

// Method count claims 5 entries but the stream ends: typed parse error.
Bytes TruncatedMethodTable() {
  ByteWriter w;
  w.U32(ClassFile::kMagic);
  w.U16(ClassFile::kVersion);
  w.U16(1);  // constant pool: no entries beyond slot 0
  w.U16(AccessFlags::kPublic);
  w.U16(0);  // this_class
  w.U16(0);  // super_class
  w.U16(0);  // interfaces
  w.U16(0);  // fields
  w.U16(5);  // methods — and then nothing
  return w.Take();
}

// code_len claims 4 GB in a tiny stream: must fail fast via kMaxCodeLen
// without attempting the allocation.
Bytes CodeLen4Gb() {
  ByteWriter w;
  w.U32(ClassFile::kMagic);
  w.U16(ClassFile::kVersion);
  w.U16(1);
  w.U16(AccessFlags::kPublic);
  w.U16(0);
  w.U16(0);
  w.U16(0);  // interfaces
  w.U16(0);  // fields
  w.U16(1);  // one method
  w.U16(AccessFlags::kStatic);
  w.Str("f");
  w.Str("()V");
  w.U8(1);           // has_code
  w.U16(4);          // max_stack
  w.U16(1);          // max_locals
  w.U32(0xFFFFFFFF); // code_len
  w.U8(0xb1);        // one stray byte of "code"
  return w.Take();
}

// Method descriptor corrupted to garbage on an otherwise-valid class: the
// verifier rejects it, and the VerifyError stand-in builder must drop the
// member instead of aborting (formerly a silent std::abort when ClassBuilder
// refused to reassemble the malformed signature).
Bytes MalformedMethodDescriptor() {
  ClassFile cls = HandAssembled("()V", {{Op::kReturn, 0, 0}}, 4, 1);
  cls.FindMethod("f", "()V")->descriptor = "(\x03";
  return MustWriteClassFile(cls);
}

// Same bug, field flavour: a malformed field descriptor on a rejected class
// must be dropped from the stand-in, not rebuilt.
Bytes MalformedFieldDescriptor() {
  ClassFile cls = HandAssembled("()V", {{Op::kReturn, 0, 0}}, 4, 1);
  FieldInfo f;
  f.access_flags = AccessFlags::kStatic;
  f.name = "x";
  f.descriptor = "[";
  cls.fields.push_back(std::move(f));
  return MustWriteClassFile(cls);
}

// A pc reachable by normal fall-through (stack depth 0) AND as an exception-
// handler entry (stack exactly [throwable]). The merge is an inconsistent-
// stack-depth error, but the fixpoint loop used to discard handler-merge
// failures with a (void) cast and accept the class. Found by the
// validator-vs-verifier differential oracle: the one-pass validator folds
// every edge and rejected what the fixpoint accepted.
Bytes HandlerStackMismatch() {
  std::vector<Instr> body = {{Op::kNop, 0, 0}, {Op::kReturn, 0, 0}};
  return MustWriteClassFile(
      HandAssembled("()V", body, 1, 1, {{/*start=*/0, /*end=*/1, /*handler=*/1, 0}}));
}

// A handler whose entry frame needs one stack slot for the thrown reference
// in a method declaring max_stack=0. The handler-entry construction used to
// push_back the throwable without consulting max_stack, so the class was
// accepted even though exception delivery writes out of the client's reserved
// frame. The handler body pops the phantom slot so nothing else trips.
Bytes HandlerOverflow() {
  std::vector<Instr> body = {{Op::kNop, 0, 0},
                             {Op::kReturn, 0, 0},
                             {Op::kPop, 0, 0},
                             {Op::kReturn, 0, 0}};
  return MustWriteClassFile(
      HandAssembled("()V", body, 0, 1, {{/*start=*/0, /*end=*/1, /*handler=*/2, 0}}));
}

// evil/E extends evil/E, and `f` athrows a value of that type. Assignability
// walks the superclass chain, which used to loop forever on the cycle —
// a one-class denial of service against the proxy, reachable in production
// because the proxy adds each parsed class to the verifier's environment.
// (HandAssembled is bypassed: it pins the super to java/lang/Object.)
Bytes CyclicSuperAthrow() {
  ClassBuilder cb("evil/E", "evil/E");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(Levil/E;)V")
      .Emit(Op::kReturn);
  ClassFile cls = cb.Build().value();
  MethodInfo* method = cls.FindMethod("f", "(Levil/E;)V");
  method->code->code = EncodeCode({{Op::kAload, 0, 0}, {Op::kAthrow, 0, 0}}).value();
  method->code->max_stack = 1;
  method->code->max_locals = 1;
  return MustWriteClassFile(cls);
}

// A handler catching java/lang/String. The catch type was never checked
// against Throwable, so the verifier accepted a handler the runtime's
// exception dispatch can never legitimately enter.
Bytes CatchNonThrowable() {
  std::vector<Instr> body = {{Op::kNop, 0, 0},
                             {Op::kReturn, 0, 0},
                             {Op::kPop, 0, 0},
                             {Op::kReturn, 0, 0}};
  ClassFile cls = HandAssembled("()V", body, 1, 1);
  uint16_t catch_type = cls.pool().AddClass("java/lang/String");
  cls.FindMethod("f", "()V")->code->handlers.push_back(
      {/*start=*/0, /*end=*/1, /*handler=*/2, catch_type});
  return MustWriteClassFile(cls);
}

// A loop whose array local starts null and becomes String[]: aaload on the
// null array used to push Object while the typed array pushes String, so the
// fixpoint's frame after the loop was wider than the exact join the one-pass
// validator recomputes, and the verifier's own certificate was rejected.
//   aconst_null; astore 0; L: aload 0; iconst_0; aaload; astore 1;
//   iconst_0; ifeq M; M: iconst_1; anewarray String; astore 0; goto L
Bytes AaloadNullWidening() {
  ClassFile cls = HandAssembled("()V", {{Op::kReturn, 0, 0}}, 2, 2);
  int string_class = cls.pool().AddClass("java/lang/String");
  // Branch operands are instruction indices; EncodeCode turns them into offsets.
  std::vector<Instr> body = {{Op::kAconstNull, 0, 0},  {Op::kAstore, 0, 0},
                             {Op::kAload, 0, 0},       {Op::kIconst0, 0, 0},
                             {Op::kAaload, 0, 0},      {Op::kAstore, 1, 0},
                             {Op::kIconst0, 0, 0},     {Op::kIfeq, 8, 0},
                             {Op::kIconst1, 0, 0},     {Op::kAnewarray, string_class, 0},
                             {Op::kAstore, 0, 0},      {Op::kGoto, 2, 0}};
  cls.FindMethod("f", "()V")->code->code = EncodeCode(body).value();
  return MustWriteClassFile(cls);
}

struct RegressionInput {
  const char* name;
  Bytes (*make)();
};

const RegressionInput kRegressions[] = {
    {"ldiv_min_by_neg1.bin", LdivMinByNeg1},
    {"lrem_min_by_neg1.bin", LremMinByNeg1},
    {"iinc_overflow.bin", IincOverflow},
    {"giant_newarray.bin", GiantNewarray},
    {"entry_frame_oob.bin", EntryFrameOob},
    {"handler_inverted.bin", HandlerInverted},
    {"handler_mid_instruction.bin", HandlerMidInstruction},
    {"mid_instruction_jump.bin", MidInstructionJump},
    {"deep_array_descriptor.bin", DeepArrayDescriptor},
    {"truncated_method_table.bin", TruncatedMethodTable},
    {"code_len_4gb.bin", CodeLen4Gb},
    {"malformed_method_descriptor.bin", MalformedMethodDescriptor},
    {"malformed_field_descriptor.bin", MalformedFieldDescriptor},
    {"handler_stack_mismatch.bin", HandlerStackMismatch},
    {"handler_overflow.bin", HandlerOverflow},
    {"cyclic_super_athrow.bin", CyclicSuperAthrow},
    {"catch_nonthrowable.bin", CatchNonThrowable},
    {"aaload_null_widening.bin", AaloadNullWidening},
};

// Coarse outcome bucket used by `min` to preserve behaviour while shrinking.
std::string TriageCategory(const Bytes& data) {
  std::string violation = fuzz::CheckAll(data);
  if (!violation.empty()) {
    return "VIOLATION";
  }
  auto parsed = ReadClassFile(data);
  if (!parsed.ok()) {
    return "parse-reject";
  }
  static const std::vector<ClassFile>* library = new std::vector<ClassFile>(BuildSystemLibrary());
  MapClassEnv env;
  for (const auto& cls : *library) {
    env.Add(&cls);
  }
  return VerifyClass(parsed.value(), env).ok() ? "verify-accept" : "verify-reject";
}

int CmdGen(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  auto seeds = fuzz::BuiltinSeeds();
  for (size_t i = 0; i < seeds.size(); i++) {
    char name[32];
    std::snprintf(name, sizeof(name), "seed_%02zu.bin", i);
    WriteFileBytes(dir / name, seeds[i]);
  }
  std::printf("wrote %zu seed(s) to %s\n", seeds.size(), dir.c_str());
  return 0;
}

int CmdGenRegressions(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& r : kRegressions) {
    WriteFileBytes(dir / r.name, r.make());
  }
  std::printf("wrote %zu regression input(s) to %s\n", std::size(kRegressions), dir.c_str());
  return 0;
}

// Expands directories into their (sorted) regular files so `triage` and
// `mutate` accept a corpus directory directly, matching the harness drivers.
std::vector<std::filesystem::path> ExpandInputs(const std::vector<std::filesystem::path>& inputs) {
  std::vector<std::filesystem::path> files;
  for (const auto& path : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::filesystem::path> dir_files;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file()) {
          dir_files.push_back(entry.path());
        }
      }
      std::sort(dir_files.begin(), dir_files.end());
      files.insert(files.end(), dir_files.begin(), dir_files.end());
    } else {
      files.push_back(path);
    }
  }
  return files;
}

int CmdTriage(const std::vector<std::filesystem::path>& inputs) {
  int violations = 0;
  for (const auto& file : ExpandInputs(inputs)) {
    Bytes data = ReadFileBytes(file);
    std::string category = TriageCategory(data);
    std::string detail;
    if (category == "VIOLATION") {
      violations++;
      detail = " — " + fuzz::CheckAll(data);
    }
    std::printf("%-40s %6zu bytes  %s%s\n", file.filename().c_str(), data.size(),
                category.c_str(), detail.c_str());
  }
  return violations > 0 ? 1 : 0;
}

int CmdMutate(const std::filesystem::path& out_dir, uint64_t seed, uint64_t count,
              const std::vector<std::filesystem::path>& inputs) {
  std::filesystem::create_directories(out_dir);
  std::vector<Bytes> bases;
  for (const auto& file : ExpandInputs(inputs)) {
    bases.push_back(ReadFileBytes(file));
  }
  if (bases.empty()) {
    bases = fuzz::BuiltinSeeds();
  }
  fuzz::Rng rng(seed);
  for (uint64_t i = 0; i < count; i++) {
    const Bytes& base = bases[rng.Below(static_cast<uint32_t>(bases.size()))];
    char name[40];
    std::snprintf(name, sizeof(name), "mutant_%06llu.bin", static_cast<unsigned long long>(i));
    WriteFileBytes(out_dir / name, fuzz::MutateClassBytes(base, rng));
  }
  std::printf("wrote %llu mutant(s) to %s (seed=%llu)\n",
              static_cast<unsigned long long>(count), out_dir.c_str(),
              static_cast<unsigned long long>(seed));
  return 0;
}

// The certificate adversary at CLI scale: verify every parseable input (each
// against itself + the system library, the certificate plane's environment),
// emit and self-validate its proof, then hammer the serialized certificate
// with `count` structure-aware mutants per class. Any tampered certificate
// the one-pass validator accepts is a soundness hole; exit 1.
int CmdMutateCerts(uint64_t seed, uint64_t count,
                   const std::vector<std::filesystem::path>& inputs) {
  std::vector<Bytes> bases;
  for (const auto& file : ExpandInputs(inputs)) {
    bases.push_back(ReadFileBytes(file));
  }
  if (bases.empty()) {
    bases = fuzz::BuiltinSeeds();
  }
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv lib_env;
  for (const ClassFile& cls : library) {
    lib_env.Add(&cls);
  }

  uint64_t certs = 0, mutants = 0, parse_rejected = 0, validate_rejected = 0, accepted = 0;
  fuzz::Rng rng(seed);
  for (const Bytes& base : bases) {
    auto parsed = ReadClassFile(base);
    if (!parsed.ok()) {
      continue;
    }
    const ClassFile& cls = parsed.value();
    const ArtifactEnv env(&lib_env, cls);

    ClassCertificate cert;
    if (!VerifyClass(cls, env, &cert).ok()) {
      continue;
    }
    certs++;
    Bytes wire = SerializeCertificate(cert);
    auto own = ParseCertificate(wire);
    ValidateStats own_stats;
    if (!own.ok() || !ValidateCertificate(cls, env, own.value(), &own_stats).ok()) {
      std::fprintf(stderr, "FAIL: validator rejects the verifier's own certificate for %s\n",
                   cls.name().c_str());
      return 1;
    }

    for (uint64_t i = 0; i < count; i++) {
      Bytes mutant = fuzz::MutateCertificateBytes(wire, rng);
      if (mutant == wire) {
        continue;
      }
      mutants++;
      auto mparsed = ParseCertificate(mutant);
      if (!mparsed.ok()) {
        parse_rejected++;
        continue;
      }
      if (mparsed.value() == cert) {
        continue;  // re-encoded but semantically untouched
      }
      ValidateStats mstats;
      if (ValidateCertificate(cls, env, mparsed.value(), &mstats).ok()) {
        accepted++;
        std::fprintf(stderr, "FAIL: tampered certificate for %s accepted (mutant %llu)\n",
                     cls.name().c_str(), static_cast<unsigned long long>(i));
      } else {
        validate_rejected++;
      }
    }
  }
  std::printf("certs=%llu mutants=%llu parse-rejected=%llu validate-rejected=%llu "
              "accepted=%llu (seed=%llu)\n",
              static_cast<unsigned long long>(certs), static_cast<unsigned long long>(mutants),
              static_cast<unsigned long long>(parse_rejected),
              static_cast<unsigned long long>(validate_rejected),
              static_cast<unsigned long long>(accepted), static_cast<unsigned long long>(seed));
  return accepted > 0 ? 1 : 0;
}

// Serves the staged input under any requested name; the proxy itself refuses
// a class whose declared name is not the one requested.
struct StagedOrigin : ClassProvider {
  Result<Bytes> FetchClass(const std::string& /*class_name*/) override { return staged; }
  Bytes staged;
};

// What one miss serves: the artifact, its companions and its certificate, or
// the error.
struct Served {
  std::string error;
  Bytes artifact;
  std::vector<std::pair<std::string, Bytes>> companions;
  Bytes certificate;
  bool operator==(const Served&) const = default;
};

// One proxy (reflection, verification, audit) over a staged origin.
struct OrderProxy {
  explicit OrderProxy(const ClassEnv* library) : proxy(ProxyConfig{}, library, &origin) {
    proxy.AddFilter(std::make_unique<ReflectionFilter>());
    proxy.AddFilter(std::make_unique<VerificationFilter>());
    proxy.AddFilter(std::make_unique<AuditFilter>());
  }

  // A miss on `data`, whatever the proxy cached before.
  Served Serve(const Bytes& data) {
    auto parsed = ReadClassFile(data);
    const std::string name = parsed.ok() ? parsed->name() : "unparseable/Input";
    origin.staged = data;
    proxy.InvalidateCache();
    auto response = proxy.HandleRequest(name);
    Served served;
    if (!response.ok()) {
      served.error = response.error().ToString();
      return served;
    }
    served.artifact = std::move(response->data);
    served.companions = std::move(response->extra_classes);
    if (auto cached = proxy.cache().Peek(DvmProxy::RewriteCacheKey(name, ""))) {
      served.certificate = std::move(cached->certificate);
    }
    return served;
  }

  StagedOrigin origin;
  DvmProxy proxy;
};

// A served artifact must not depend on what the proxy served before. Each
// input is served by a cold proxy, by a proxy that first served every input
// in order, and by one that first served them in reverse order; all three
// must serve the same bytes or fail with the same error.
int CmdOrderIndependence(const std::vector<std::filesystem::path>& inputs) {
  std::vector<Bytes> corpus;
  for (const auto& file : ExpandInputs(inputs)) {
    corpus.push_back(ReadFileBytes(file));
  }
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv lib_env;
  for (const ClassFile& cls : library) {
    lib_env.Add(&cls);
  }

  std::vector<Served> cold;
  for (const Bytes& data : corpus) {
    cold.push_back(OrderProxy(&lib_env).Serve(data));
  }
  OrderProxy forward(&lib_env);
  OrderProxy backward(&lib_env);
  for (size_t i = 0; i < corpus.size(); i++) {
    forward.Serve(corpus[i]);
    backward.Serve(corpus[corpus.size() - 1 - i]);
  }
  size_t differences = 0;
  for (size_t i = 0; i < corpus.size(); i++) {
    const Served primed = forward.Serve(corpus[i]);
    const Served reverse = backward.Serve(corpus[i]);
    if (primed != cold[i] || reverse != cold[i]) {
      differences++;
      std::fprintf(stderr, "FAIL: input %zu is served differently after other inputs%s%s\n", i,
                   primed != cold[i] ? " (forward)" : "",
                   reverse != cold[i] ? " (reverse)" : "");
    }
  }
  std::printf("inputs=%zu differences=%zu\n", corpus.size(), differences);
  return differences > 0 ? 1 : 0;
}

// A certificate derived from the verification filter's proof must be the
// fixpoint's proof of the same artifact, byte for byte. Each input is served
// by a proxy stacking reflection, verification, a security hook on every
// method (a preamble in each body, a wrapper for each native) and audit; a
// miss whose edits the derivation cannot map falls back to the fixpoint and
// is counted, not compared.
int CmdDeriveCerts(const std::vector<std::filesystem::path>& inputs) {
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv lib_env;
  for (const ClassFile& cls : library) {
    lib_env.Add(&cls);
  }
  auto policy = ParseSecurityPolicy(R"(
    <policy version="1">
      <allow operation="*" target="*"/>
      <hook class="*" method="*" operation="fuzz.call"/>
    </policy>)");
  if (!policy.ok()) {
    std::fprintf(stderr, "derive-certs: %s\n", policy.error().ToString().c_str());
    return 2;
  }
  StagedOrigin origin;
  DvmProxy proxy(ProxyConfig{}, &lib_env, &origin);
  proxy.AddFilter(std::make_unique<ReflectionFilter>());
  proxy.AddFilter(std::make_unique<VerificationFilter>());
  proxy.AddFilter(std::make_unique<SecurityFilter>(&policy.value()));
  proxy.AddFilter(std::make_unique<AuditFilter>());

  size_t inputs_served = 0;
  size_t differences = 0;
  for (const auto& file : ExpandInputs(inputs)) {
    const Bytes data = ReadFileBytes(file);
    auto parsed = ReadClassFile(data);
    if (!parsed.ok()) {
      continue;
    }
    const std::string name = parsed->name();
    origin.staged = data;
    proxy.InvalidateCache();
    const uint64_t derived_before = proxy.stats().Value("proxy.cert_derived");
    auto response = proxy.HandleRequest(name);
    auto cached = proxy.cache().Peek(DvmProxy::RewriteCacheKey(name, ""));
    if (!response.ok() || !cached.has_value()) {
      continue;
    }
    inputs_served++;
    if (proxy.stats().Value("proxy.cert_derived") == derived_before) {
      continue;  // a fallback: the certificate is the fixpoint's already
    }
    auto artifact = ReadClassFile(response->data);
    ClassCertificate proved;
    bool same = artifact.ok();
    if (same) {
      const ArtifactEnv env(&lib_env, artifact.value());
      same = VerifyClass(artifact.value(), env, &proved).ok() &&
             SerializeCertificate(proved) == cached->certificate;
    }
    if (!same) {
      differences++;
      std::fprintf(stderr, "FAIL: %s: derived certificate differs from the fixpoint's\n",
                   file.c_str());
    }
  }
  const uint64_t derived = proxy.stats().Value("proxy.cert_derived");
  std::printf("inputs=%zu derived=%llu fallbacks=%llu differences=%zu\n", inputs_served,
              static_cast<unsigned long long>(derived),
              static_cast<unsigned long long>(proxy.stats().Value("proxy.cert_fixpoint_fallbacks")),
              differences);
  return differences > 0 ? 1 : 0;
}

// MethodEditor's splice path must leave every method exactly as its
// decoding path does (fuzz::CheckEditorPaths).
int CmdEditorPaths(const std::vector<std::filesystem::path>& inputs) {
  size_t inputs_read = 0;
  size_t differences = 0;
  fuzz::EditorPathsCounts counts;
  for (const auto& file : ExpandInputs(inputs)) {
    inputs_read++;
    const std::string violation = fuzz::CheckEditorPaths(ReadFileBytes(file), &counts);
    if (!violation.empty()) {
      differences++;
      std::fprintf(stderr, "FAIL: %s: %s\n", file.c_str(), violation.c_str());
    }
  }
  std::printf("inputs=%zu commits=%zu spliced=%zu differences=%zu\n", inputs_read,
              counts.commits, counts.spliced, differences);
  return differences > 0 ? 1 : 0;
}

int CmdMin(const std::filesystem::path& in, const std::filesystem::path& out) {
  Bytes data = ReadFileBytes(in);
  std::string category = TriageCategory(data);
  std::printf("minimizing %s (%zu bytes, category %s)\n", in.c_str(), data.size(),
              category.c_str());
  // Greedy chunk removal, halving chunk size down to one byte.
  for (size_t chunk = data.size() / 2; chunk >= 1; chunk /= 2) {
    bool shrank = true;
    while (shrank && data.size() > chunk) {
      shrank = false;
      for (size_t pos = 0; pos + chunk <= data.size(); pos += chunk) {
        Bytes candidate = data;
        candidate.erase(candidate.begin() + static_cast<long>(pos),
                        candidate.begin() + static_cast<long>(pos + chunk));
        if (TriageCategory(candidate) == category) {
          data = std::move(candidate);
          shrank = true;
          break;
        }
      }
    }
  }
  WriteFileBytes(out, data);
  std::printf("minimized to %zu bytes -> %s\n", data.size(), out.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dvm_fuzz gen <dir>\n"
               "       dvm_fuzz gen-regressions <dir>\n"
               "       dvm_fuzz triage <file>...\n"
               "       dvm_fuzz mutate <out-dir> <seed> <count> [input]...\n"
               "       dvm_fuzz mutate-certs <seed> <count> [input]...\n"
               "       dvm_fuzz order-independence <input>...\n"
               "       dvm_fuzz derive-certs <input>...\n"
               "       dvm_fuzz editor-paths <input>...\n"
               "       dvm_fuzz min <file> <out>\n");
  return 2;
}

}  // namespace
}  // namespace dvm

int main(int argc, char** argv) {
  if (argc < 2) {
    return dvm::Usage();
  }
  std::string cmd = argv[1];
  std::vector<std::filesystem::path> rest;
  for (int i = 2; i < argc; i++) {
    rest.emplace_back(argv[i]);
  }
  if (cmd == "gen" && rest.size() == 1) {
    return dvm::CmdGen(rest[0]);
  }
  if (cmd == "gen-regressions" && rest.size() == 1) {
    return dvm::CmdGenRegressions(rest[0]);
  }
  if (cmd == "triage" && !rest.empty()) {
    return dvm::CmdTriage(rest);
  }
  if (cmd == "mutate" && rest.size() >= 3) {
    uint64_t seed = std::strtoull(argv[3], nullptr, 10);
    uint64_t count = std::strtoull(argv[4], nullptr, 10);
    return dvm::CmdMutate(rest[0], seed, count,
                          std::vector<std::filesystem::path>(rest.begin() + 3, rest.end()));
  }
  if (cmd == "mutate-certs" && rest.size() >= 2) {
    uint64_t seed = std::strtoull(rest[0].c_str(), nullptr, 10);
    uint64_t count = std::strtoull(rest[1].c_str(), nullptr, 10);
    return dvm::CmdMutateCerts(seed, count,
                               std::vector<std::filesystem::path>(rest.begin() + 2, rest.end()));
  }
  if (cmd == "order-independence" && !rest.empty()) {
    return dvm::CmdOrderIndependence(rest);
  }
  if (cmd == "derive-certs" && !rest.empty()) {
    return dvm::CmdDeriveCerts(rest);
  }
  if (cmd == "editor-paths" && !rest.empty()) {
    return dvm::CmdEditorPaths(rest);
  }
  if (cmd == "min" && rest.size() == 2) {
    return dvm::CmdMin(rest[0], rest[1]);
  }
  return dvm::Usage();
}
