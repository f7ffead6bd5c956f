#include "src/proxy/proxy.h"

#include "src/bytecode/serializer.h"
#include "src/runtime/syslib.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"

namespace dvm {

void AuditRing::Push(std::string event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.Push(std::move(event))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AuditRing::PushAll(std::vector<std::string> events) {
  if (events.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& event : events) {
    if (ring_.Push(std::move(event))) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<std::string> AuditRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

size_t AuditRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

DvmProxy::DvmProxy(ProxyConfig config, const ClassEnv* library_env, ClassProvider* origin)
    : config_(config),
      library_env_(library_env),
      origin_(origin),
      cache_(config.cache_capacity_bytes),
      signer_(config.signing_key),
      audit_(config.audit_trail_capacity),
      c_connection_nanos_(stats_.Counter("proxy.connection_nanos")),
      c_parse_nanos_(stats_.Counter("proxy.parse_nanos")),
      c_filter_nanos_(stats_.Counter("proxy.filter_nanos")),
      c_emit_nanos_(stats_.Counter("proxy.emit_nanos")),
      c_sign_nanos_(stats_.Counter("proxy.sign_nanos")),
      c_coalesced_(stats_.Counter("proxy.coalesced")),
      c_rewrites_(stats_.Counter("proxy.rewrites")),
      c_generated_hits_(stats_.Counter("proxy.generated_hits")),
      c_lock_acquisitions_(stats_.Counter("proxy.lock_acquisitions")),
      c_stale_rewrite_skips_(stats_.Counter("proxy.stale_rewrite_skips")),
      c_cert_emits_(stats_.Counter("proxy.cert_emits")),
      c_cert_emit_checks_(stats_.Counter("proxy.cert_emit_checks")),
      c_cert_emit_failures_(stats_.Counter("proxy.cert_emit_failures")),
      c_cert_derived_(stats_.Counter("proxy.cert_derived")),
      c_cert_fixpoint_fallbacks_(stats_.Counter("proxy.cert_fixpoint_fallbacks")),
      c_cert_validations_(stats_.Counter("proxy.cert_validations")),
      c_cert_validate_checks_(stats_.Counter("proxy.cert_validate_checks")),
      c_cert_rejects_(stats_.Counter("proxy.cert_rejects")),
      c_cert_missing_(stats_.Counter("proxy.cert_missing")),
      h_request_cpu_nanos_(stats_.Histo("proxy.request_cpu_nanos")) {}

void DvmProxy::AddFilter(std::unique_ptr<CodeFilter> filter) {
  pipeline_.Add(std::move(filter));
}

Result<ProxyResponse> DvmProxy::HandleRequest(const std::string& class_name,
                                              const std::string& platform,
                                              const TraceContext& trace) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  RequestContext ctx;
  ctx.class_name = class_name;
  ctx.platform = platform;
  ctx.cache_key = RewriteCacheKey(class_name, platform);
  ctx.trace = trace;

  if (config_.enable_cache) {
    for (;;) {
      if (auto hit = TryServeFromCache(ctx)) {
        return Commit(ctx, std::move(*hit));
      }
      if (auto generated = TryServeGenerated(ctx)) {
        return Commit(ctx, std::move(*generated));
      }
      if (flights_.Acquire(ctx.cache_key)) {
        break;  // this request is now the key's rewrite leader
      }
      // Waited out another request rewriting the same key; re-check the
      // cache. If the leader failed, loop back and become the leader.
      ctx.coalesced = true;
    }
    SingleFlightLease lease(&flights_, ctx.cache_key);
    // A prior leader may have filled the cache between our miss and the
    // acquire; serve that instead of rewriting again.
    if (auto hit = TryServeFromCache(ctx)) {
      return Commit(ctx, std::move(*hit));
    }
    DVM_ASSIGN_OR_RETURN(ProxyResponse response, Rewrite(ctx));
    return Commit(ctx, std::move(response));
  }

  if (auto generated = TryServeGenerated(ctx)) {
    return Commit(ctx, std::move(*generated));
  }
  DVM_ASSIGN_OR_RETURN(ProxyResponse response, Rewrite(ctx));
  return Commit(ctx, std::move(response));
}

std::optional<ProxyResponse> DvmProxy::TryServeFromCache(RequestContext& ctx) {
  std::optional<CachedClass> cached = cache_.Get(ctx.cache_key);
  if (!cached.has_value()) {
    return std::nullopt;
  }
  ProxyResponse response;
  response.data = std::move(cached->main_class);
  response.extra_classes = std::move(cached->extra_classes);
  response.epoch = cached->epoch;
  response.cache_hit = true;
  ctx.cache_hit = true;
  // Serving from the cache is cheap relative to rewriting.
  ctx.connection_nanos =
      config_.nanos_per_hit_base + response.data.size() * config_.nanos_per_byte_cached;
  ctx.audit_events.push_back("HIT " + ctx.class_name);
  return response;
}

std::optional<ProxyResponse> DvmProxy::TryServeGenerated(RequestContext& ctx) {
  // Filter-synthesized classes (cold halves from repartitioning) are served
  // directly; they already went through the pipeline as part of their parent.
  c_lock_acquisitions_.Add();
  std::lock_guard<std::mutex> lock(generated_mu_);
  auto it = generated_.find(ctx.class_name);
  if (it == generated_.end()) {
    return std::nullopt;
  }
  ProxyResponse response;
  response.data = it->second;
  // generated_ is cleared on every invalidation and stale in-flight rewrites
  // refuse to repopulate it, so a surviving entry is current-epoch.
  response.epoch = policy_epoch();
  ctx.connection_nanos =
      config_.nanos_per_hit_base + response.data.size() * config_.nanos_per_byte_cached;
  ctx.audit_events.push_back("GEN " + ctx.class_name);
  c_generated_hits_.Add();
  return response;
}

Result<ProxyResponse> DvmProxy::Rewrite(RequestContext& ctx) {
  // Misses on different keys run all of this concurrently. Nothing here
  // reads another rewrite's classes or writes proxy state before the publish
  // step: the filters see this class and the trusted library only.
  //
  // Sample the cache generation and policy epoch before doing any work. If
  // InvalidateCache (a policy change) lands while this rewrite is in flight,
  // the generation moves and the publish step below is skipped: without the
  // check, a coalesced rewrite that started before the invalidation could
  // finish after it and repopulate the cache — and generated_ — with an
  // artifact instrumented under the *old* policy. The response is stamped
  // with the sampled epoch so a racing epoch bump can't make it look current.
  const uint64_t generation = cache_generation_.load(std::memory_order_acquire);
  const uint64_t epoch = policy_epoch();

  ProxyResponse response;
  response.epoch = epoch;
  // The system namespace belongs to the trusted library: its classes are
  // served from the library's bytes and never asked of the origin.
  Bytes origin_bytes;
  if (IsSystemClass(ctx.class_name)) {
    const ClassFile* library_class = library_env_->Lookup(ctx.class_name);
    if (library_class == nullptr) {
      return Error{ErrorCode::kLinkError,
                   "class " + ctx.class_name + " is not in the trusted library"};
    }
    DVM_ASSIGN_OR_RETURN(origin_bytes, WriteClassFile(*library_class));
  } else {
    DVM_ASSIGN_OR_RETURN(origin_bytes, origin_->FetchClass(ctx.class_name));
  }
  response.origin_bytes = origin_bytes.size();
  ctx.connection_nanos = config_.nanos_per_request_base;
  ctx.parse_nanos = origin_bytes.size() * config_.nanos_per_byte_parse;

  // Parse once; the class stays in memory through filters, signing and proof.
  DVM_ASSIGN_OR_RETURN(ClassFile parsed, ReadClassFile(origin_bytes));
  // Like the client registry, accept only the class that was asked for.
  if (parsed.name() != ctx.class_name) {
    return Error{ErrorCode::kLinkError,
                 "origin returned class " + parsed.name() + " for request " + ctx.class_name};
  }

  // Run the stacked static services.
  DVM_ASSIGN_OR_RETURN(PipelineResult result,
                       pipeline_.Run(std::move(parsed), *library_env_, ctx.platform));
  ctx.filter_nanos = result.checks_performed * config_.nanos_per_check;

  // Sign in memory, then generate each output binary once.
  auto emit = [this](ClassFile& cls) -> Result<Bytes> {
    if (config_.sign_output) {
      DVM_RETURN_IF_ERROR(signer_.AttachSignature(&cls));
    }
    return WriteClassFile(cls);
  };
  DVM_ASSIGN_OR_RETURN(response.data, emit(result.cls));
  uint64_t emitted_bytes = response.data.size();
  for (ClassFile& extra : result.extra_classes) {
    DVM_ASSIGN_OR_RETURN(Bytes data, emit(extra));
    emitted_bytes += data.size();
    response.extra_classes.emplace_back(extra.name(), std::move(data));
  }
  ctx.sign_nanos = config_.sign_output ? emitted_bytes * config_.nanos_per_byte_sign : 0;
  ctx.emit_nanos = response.data.size() * config_.nanos_per_byte_emit;
  ctx.audit_events.push_back((result.modified ? "REWRITE " : "PASS ") + ctx.class_name);
  c_rewrites_.Add();

  CachedClass entry;
  if (config_.enable_cache) {
    // Certify the artifact once here so replicas receiving it over the
    // replication push never re-run the fixpoint. Certificate work is real
    // CPU on the fleet but is deliberately not charged to the virtual CPU
    // model: the Figure 8/10 calibration predates certificates and the
    // counters (cert_emits / cert_emit_checks) carry the cost signal.
    // Certifying before the large artifact copies below lets the allocator
    // reclaim the proof's small scratch blocks within this miss; certified
    // last, the next request on this thread paid for it (perfbench
    // parallel_fetch: first hit after a miss ~1.6x slower).
    entry.certificate = EmitCertificate(result);
    entry.main_class = response.data;
    entry.extra_classes = response.extra_classes;
    entry.epoch = epoch;
  }

  // Publish gate, after the proof: the generation check and every shared
  // insert are one step under generated_mu_, which InvalidateCache also
  // holds for its clear. Either this rewrite sees the invalidation's bump,
  // or the invalidation clears what it published. A stale artifact reflects
  // a retired configuration: it is served to the requester (stamped with its
  // true, stale epoch — cluster-mode clients discard and retry) but kept out
  // of every shared structure.
  {
    c_lock_acquisitions_.Add();
    std::lock_guard<std::mutex> lock(generated_mu_);
    if (cache_generation_.load(std::memory_order_acquire) != generation) {
      c_stale_rewrite_skips_.Add();
      ctx.audit_events.push_back("STALE-SKIP " + ctx.class_name);
      return response;
    }
    for (const auto& [name, data] : response.extra_classes) {
      generated_[name] = data;
    }
    if (config_.enable_cache) {
      cache_.Put(ctx.cache_key, std::move(entry));
    }
  }
  if (served_observer_) {
    c_lock_acquisitions_.Add();
    std::lock_guard<std::mutex> lock(observer_mu_);
    served_observer_(ctx.class_name, response.data);
  }
  return response;
}

ProxyResponse DvmProxy::Commit(RequestContext& ctx, ProxyResponse response) {
  response.cpu_nanos = ctx.TotalNanos();
  response.coalesced = ctx.coalesced;
  if (ctx.trace.active()) {
    Tracer& tracer = *ctx.trace.tracer;
    SpanId request = tracer.Begin("proxy " + ctx.class_name, ctx.trace.parent, ctx.trace.at,
                                  "proxy");
    tracer.Annotate(request, "cache", ctx.cache_hit ? "hit" : "miss");
    if (ctx.coalesced) {
      tracer.Annotate(request, "coalesced", "true");
    }
    // Stage children laid end to end from the request's start: their summed
    // durations equal cpu_nanos by construction (the property trace_test and
    // the acceptance criteria assert).
    const std::pair<const char*, uint64_t> stages[] = {{"connection", ctx.connection_nanos},
                                                       {"parse", ctx.parse_nanos},
                                                       {"filter", ctx.filter_nanos},
                                                       {"emit", ctx.emit_nanos},
                                                       {"sign", ctx.sign_nanos}};
    uint64_t cursor = ctx.trace.at;
    for (const auto& [stage, nanos] : stages) {
      if (nanos == 0) {
        continue;
      }
      tracer.Emit(stage, request, cursor, cursor + nanos, "proxy");
      cursor += nanos;
    }
    tracer.End(request, ctx.trace.at + response.cpu_nanos);
  }
  total_cpu_nanos_.fetch_add(response.cpu_nanos, std::memory_order_relaxed);
  h_request_cpu_nanos_.Record(response.cpu_nanos);
  c_connection_nanos_.Add(ctx.connection_nanos);
  c_parse_nanos_.Add(ctx.parse_nanos);
  c_filter_nanos_.Add(ctx.filter_nanos);
  c_emit_nanos_.Add(ctx.emit_nanos);
  c_sign_nanos_.Add(ctx.sign_nanos);
  if (ctx.coalesced) {
    c_coalesced_.Add();
  }
  audit_.PushAll(std::move(ctx.audit_events));
  return response;
}

void DvmProxy::InvalidateCache() {
  // Advance the generation FIRST, then clear under the publish lock: a
  // rewrite that sampled the old value either publishes before the clear
  // (and is cleared) or reaches its gate after it and sees the bump.
  cache_generation_.fetch_add(1, std::memory_order_acq_rel);
  c_lock_acquisitions_.Add();
  std::lock_guard<std::mutex> lock(generated_mu_);
  cache_.Clear();
  // Synthesized classes were rewritten under the old service configuration
  // too; dropping only the LRU cache used to leave them stale.
  generated_.clear();
}

void DvmProxy::ApplyPolicyEpoch(uint64_t epoch) {
  InvalidateCache();
  policy_epoch_.store(epoch, std::memory_order_release);
}

Bytes DvmProxy::EmitCertificate(PipelineResult& result) {
  const ArtifactEnv env(library_env_, result.cls, result.extra_classes);
  if (result.proof.has_value()) {
    uint64_t checks = 0;
    Result<ClassCertificate> derived = TransformCertificate(
        std::move(*result.proof), result.code_edits, result.cls, env, &checks);
    result.proof.reset();
    if (derived.ok()) {
      c_cert_derived_.Add();
      c_cert_emits_.Add();
      c_cert_emit_checks_.Add(checks);
      return SerializeCertificate(derived.value());
    }
  }
  c_cert_fixpoint_fallbacks_.Add();
  ClassCertificate cert;
  Result<VerifiedClass> verified = VerifyClass(result.cls, env, &cert);
  if (!verified.ok()) {
    c_cert_emit_failures_.Add();  // a filter emitted something the verifier rejects
    return {};
  }
  c_cert_emits_.Add();
  c_cert_emit_checks_.Add(verified.value().stats.TotalStaticChecks());
  return SerializeCertificate(cert);
}

bool DvmProxy::ValidatePushedArtifact(const CommitRecord& record) {
  Result<ClassCertificate> cert = ParseCertificate(record.certificate);
  if (!cert.ok()) {
    return false;
  }
  Result<ClassFile> main = ReadClassFile(record.main_class);
  if (!main.ok()) {
    return false;
  }
  std::vector<ClassFile> companions;
  companions.reserve(record.extra_classes.size());
  for (const auto& [name, data] : record.extra_classes) {
    Result<ClassFile> parsed = ReadClassFile(data);
    if (!parsed.ok()) {
      return false;
    }
    companions.push_back(std::move(parsed.value()));
  }
  ValidateStats stats;
  const ArtifactEnv env(library_env_, main.value(), companions);
  bool ok = ValidateCertificate(main.value(), env, cert.value(), &stats).ok();
  c_cert_validate_checks_.Add(stats.TotalChecks());
  return ok;
}

void DvmProxy::ApplyCommitRecord(const CommitRecord& record) {
  if (record.type == CommitRecordType::kEpoch) {
    ApplyPolicyEpoch(record.epoch);
    return;
  }
  // Artifact install: the pushed bytes already went through a peer's pipeline
  // (and signer), and install is conditional on the one-pass check of the
  // certificate that travels with them. A record without a certificate, or
  // whose certificate does not prove it, is dropped fail-closed before it
  // touches any shared structure. Replay applies records in log order, so an
  // artifact is always installed after the epoch record it was rewritten
  // under.
  if (record.certificate.empty()) {
    c_cert_missing_.Add();
    audit_.Push("REPL-REJECT " + record.class_name);
    return;
  }
  if (!ValidatePushedArtifact(record)) {
    c_cert_rejects_.Add();
    audit_.Push("REPL-REJECT " + record.class_name);
    return;
  }
  c_cert_validations_.Add();
  if (!record.extra_classes.empty()) {
    c_lock_acquisitions_.Add();
    std::lock_guard<std::mutex> lock(generated_mu_);
    for (const auto& [name, data] : record.extra_classes) {
      generated_[name] = data;
    }
  }
  if (config_.enable_cache) {
    CachedClass entry;
    entry.main_class = record.main_class;
    entry.extra_classes = record.extra_classes;
    entry.epoch = record.epoch;
    // Keep the proof with the installed artifact: if this replica later
    // re-pushes the entry, the receiver can validate it too.
    entry.certificate = record.certificate;
    cache_.Put(record.cache_key, std::move(entry));
  }
  replicated_installs_.fetch_add(1, std::memory_order_relaxed);
  audit_.Push("REPL-INSTALL " + record.class_name);
}

size_t DvmProxy::MemoryInUse(size_t inflight_requests) const {
  return cache_.size_bytes() + inflight_requests * config_.workspace_bytes_per_request;
}

double DvmProxy::ThrashFactor(size_t inflight_requests) const {
  size_t in_use = MemoryInUse(inflight_requests);
  if (in_use <= config_.memory_bytes) {
    return 1.0;
  }
  // Past physical memory the host pages; slowdown grows with overcommit.
  double overcommit =
      static_cast<double>(in_use) / static_cast<double>(config_.memory_bytes);
  return 1.0 + 6.0 * (overcommit - 1.0);
}

}  // namespace dvm
