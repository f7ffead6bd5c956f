#include "fuzz/oracles.h"

#include <cstdio>
#include <cstdlib>

#include "fuzz/mutator.h"
#include "src/bytecode/descriptor.h"
#include "src/bytecode/serializer.h"
#include "src/rewrite/filter.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"
#include "src/support/hash.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace fuzz {
namespace {

// The system library, built once per process and shared by every oracle call.
struct Syslib {
  std::vector<ClassFile> classes;
  MapClassEnv env;

  Syslib() : classes(BuildSystemLibrary()) {
    for (const ClassFile& cls : classes) {
      env.Add(&cls);
    }
  }
};

const Syslib& GetSyslib() {
  static const Syslib* lib = new Syslib();
  return *lib;
}

// Host errors a VERIFIED class may legitimately produce: the verifier runs
// against a partial namespace, so missing classes and unbound natives surface
// at run time, and the harness machine's budgets are deliberately tiny.
bool IsBenignHostError(const Error& e) {
  switch (e.code) {
    case ErrorCode::kNotFound:
    case ErrorCode::kLinkError:
    case ErrorCode::kCapacity:
      return true;
    case ErrorCode::kRuntimeError:
      return e.message.find("instruction budget exceeded") != std::string::npos ||
             e.message.find("unbound native method") != std::string::npos;
    default:
      return false;
  }
}

}  // namespace

std::string CheckRoundTrip(const Bytes& data) {
  auto parsed = ReadClassFile(data);
  if (!parsed.ok()) {
    return "";  // fail-closed: a typed parse error is the correct outcome
  }
  auto wire = WriteClassFile(parsed.value());
  if (!wire.ok()) {
    return "parsed class failed to re-serialize: " + wire.error().ToString();
  }
  if (wire.value() != data) {
    return "Write(Read(b)) != b: " + std::to_string(wire->size()) + " vs " +
           std::to_string(data.size()) + " bytes";
  }
  auto reparsed = ReadClassFile(wire.value());
  if (!reparsed.ok()) {
    return "serialized class failed to re-parse: " + reparsed.error().ToString();
  }
  return "";
}

std::string CheckRewritePipeline(const Bytes& data) {
  const ClassEnv& env = GetSyslib().env;
  FilterPipeline pipeline;
  pipeline.Add(std::make_unique<VerificationFilter>());

  auto first = pipeline.Run(data, env);
  if (!first.ok()) {
    return "";  // typed rejection of hostile input is fine
  }
  // The pipeline accepted the input, so its output is proxy-produced: a second
  // pass must be total on it (a typed error here means the proxy emits bytes
  // it cannot itself process). Full byte-idempotence is only required when the
  // first pass changed nothing — a modified class legitimately gains another
  // layer of dynamic-check preambles on re-filtering, because trusting a
  // "previously filtered" stamp on possibly-hostile input would be fail-open.
  auto first_bytes = WriteClassFile(first->cls);
  if (!first_bytes.ok()) {
    return "";  // an unrepresentable rewrite is a typed rejection, as in the proxy
  }
  auto second = pipeline.Run(first_bytes.value(), env);
  if (!second.ok()) {
    return "pipeline rejected its own output: " + second.error().ToString();
  }
  auto second_bytes = WriteClassFile(second->cls);
  if (!second_bytes.ok()) {
    return "pipeline output failed to serialize on the second pass: " +
           second_bytes.error().ToString();
  }
  if (!first->modified && second_bytes.value() != first_bytes.value()) {
    return "pipeline mutated a class it reported as unmodified: " +
           std::to_string(first_bytes->size()) + " -> " +
           std::to_string(second_bytes->size()) + " bytes";
  }
  return "";
}

std::string CheckDifferential(const Bytes& data) {
  auto parsed = ReadClassFile(data);
  if (!parsed.ok()) {
    return "";  // fail-closed
  }
  const ClassFile& cls = parsed.value();

  auto verified = VerifyClass(cls, GetSyslib().env);
  if (!verified.ok()) {
    // Rejected: the typed kVerifyError Result IS the fail-closed contract.
    return "";
  }

  // Accepted: the paper's claim is now on the line. Execute every static
  // niladic method under a bounded machine modelling a DVM client (no local
  // verifier). Sanitizers catch memory unsafety; the benign-error filter
  // below catches semantic unsoundness that stays in-bounds. Every method runs
  // on BOTH execution engines — the reference interpreter (oracle) and the
  // quickened engine — in lockstep, so hostile inputs also exercise the quick
  // opcode paths; any engine divergence is a violation.
  MapClassProvider provider_ref;
  InstallSystemLibrary(provider_ref);
  provider_ref.Add(cls.name(), data);
  MapClassProvider provider_quick;
  InstallSystemLibrary(provider_quick);
  provider_quick.Add(cls.name(), data);

  MachineConfig config;
  config.verify_on_load = false;
  config.heap_capacity_bytes = 8 * 1024 * 1024;
  config.max_frames = 64;
  config.max_instructions = 200'000;
  config.quicken = false;
  Machine reference(config, &provider_ref);
  config.quicken = true;
  Machine quick(config, &provider_quick);

  for (const MethodInfo& method : cls.methods) {
    if (!method.IsStatic() || !method.code.has_value()) {
      continue;
    }
    auto sig = ParseMethodDescriptor(method.descriptor);
    if (!sig.ok() || !sig->params.empty()) {
      continue;
    }
    auto baseline = reference.CallStatic(cls.name(), method.name, method.descriptor);
    if (!baseline.ok() && !IsBenignHostError(baseline.error())) {
      return "verifier accepted " + cls.name() + "." + method.Id() +
             " but the reference engine hit host error: " + baseline.error().ToString();
    }
    auto outcome = quick.CallStatic(cls.name(), method.name, method.descriptor);
    // Guest exceptions (outcome.threw) are safe by construction; only host
    // errors can falsify the invariant.
    if (!outcome.ok() && !IsBenignHostError(outcome.error())) {
      return "verifier accepted " + cls.name() + "." + method.Id() +
             " but the quickened engine hit host error: " + outcome.error().ToString();
    }
    if (outcome.ok() != baseline.ok()) {
      return "engine divergence on " + cls.name() + "." + method.Id() + ": quickened " +
             (outcome.ok() ? "succeeded" : outcome.error().ToString()) + ", reference " +
             (baseline.ok() ? "succeeded" : baseline.error().ToString());
    }
    if (outcome.ok()) {
      if (outcome->threw != baseline->threw ||
          outcome->exception_class != baseline->exception_class ||
          outcome->exception_message != baseline->exception_message ||
          outcome->value.kind != baseline->value.kind ||
          (outcome->value.kind != Value::Kind::kRef &&
           outcome->value.num != baseline->value.num)) {
        return "engine divergence on " + cls.name() + "." + method.Id() +
               ": quickened and reference outcomes differ";
      }
    } else if (outcome.error().ToString() != baseline.error().ToString()) {
      return "engine divergence on " + cls.name() + "." + method.Id() + ": quickened error '" +
             outcome.error().ToString() + "' vs reference '" + baseline.error().ToString() +
             "'";
    }
  }
  if (quick.printed() != reference.printed()) {
    return "engine divergence on " + cls.name() + ": quickened guest output differs";
  }
  if (quick.virtual_nanos() != reference.virtual_nanos()) {
    return "engine divergence on " + cls.name() + ": quickened virtual clock differs (" +
           std::to_string(quick.virtual_nanos()) + " vs " +
           std::to_string(reference.virtual_nanos()) + ")";
  }
  // Architectural counters only: quickened_sites is engine-internal by design.
  const RuntimeCounters& qc = quick.counters();
  const RuntimeCounters& rc = reference.counters();
  if (qc.instructions != rc.instructions || qc.allocations != rc.allocations ||
      qc.exceptions_thrown != rc.exceptions_thrown || qc.gc_runs != rc.gc_runs ||
      qc.classes_loaded != rc.classes_loaded) {
    return "engine divergence on " + cls.name() + ": quickened runtime counters differ";
  }
  return "";
}

std::string CheckCertificate(const Bytes& data) {
  auto parsed = ReadClassFile(data);
  if (!parsed.ok()) {
    return "";  // fail-closed
  }
  const ClassFile& cls = parsed.value();

  // The class verifies against ITSELF plus the system library — the same
  // environment the proxy's certificate plane uses. (The old syslib-only
  // environment is why self-referential hierarchies never reached the
  // resolution walks; see the cyclic_super regression.)
  MapClassEnv self_env;
  self_env.Add(&cls);
  ChainedClassEnv env(&self_env, &GetSyslib().env);

  ClassCertificate cert;
  auto verified = VerifyClass(cls, env, &cert);
  if (!verified.ok()) {
    return "";  // rejected classes carry no proof; nothing to differentiate
  }

  Bytes wire = SerializeCertificate(cert);
  auto reparsed = ParseCertificate(wire);
  if (!reparsed.ok()) {
    return "emitted certificate failed to re-parse: " + reparsed.error().ToString();
  }
  if (SerializeCertificate(reparsed.value()) != wire) {
    return "certificate round-trip is not byte-identical";
  }
  if (!(reparsed.value() == cert)) {
    return "certificate round-trip changed content";
  }

  // Differential: the one-pass validator must agree with the fixpoint.
  ValidateStats stats;
  auto validated = ValidateCertificate(cls, env, reparsed.value(), &stats);
  if (!validated.ok()) {
    return "validator rejected the verifier's own certificate for " + cls.name() + ": " +
           validated.error().ToString();
  }

  // Adversary: deterministic structure-aware mutants, every one rejected.
  // (A mutant may parse back to semantically identical content — e.g. a slot
  // "widened" to what it already was — so acceptance is a violation only when
  // the content actually differs.)
  Rng rng(Fnv1a(wire.data(), wire.size()));
  int distinct = 0;
  for (int attempt = 0; attempt < 64 && distinct < 8; attempt++) {
    Bytes mutant = MutateCertificateBytes(wire, rng);
    if (mutant == wire) {
      continue;
    }
    distinct++;
    auto mparsed = ParseCertificate(mutant);
    if (!mparsed.ok()) {
      continue;  // rejected at parse — fail-closed
    }
    if (mparsed.value() == cert) {
      continue;  // differently encoded but same content cannot be detected
    }
    ValidateStats mstats;
    if (ValidateCertificate(cls, env, mparsed.value(), &mstats).ok()) {
      return "validator accepted a tampered certificate for " + cls.name() +
             " (mutation attempt " + std::to_string(attempt) + ")";
    }
  }
  return "";
}

std::string CheckAll(const Bytes& data) {
  std::string v = CheckRoundTrip(data);
  if (v.empty()) {
    v = CheckRewritePipeline(data);
  }
  if (v.empty()) {
    v = CheckDifferential(data);
  }
  if (v.empty()) {
    v = CheckCertificate(data);
  }
  return v;
}

void RequireClean(const std::string& violation) {
  if (!violation.empty()) {
    std::fprintf(stderr, "ORACLE VIOLATION: %s\n", violation.c_str());
    std::abort();
  }
}

}  // namespace fuzz
}  // namespace dvm
