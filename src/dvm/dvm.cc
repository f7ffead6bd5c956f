#include "src/dvm/dvm.h"

#include "src/compiler/compiler.h"
#include "src/dvm/redirect_client.h"
#include "src/runtime/stack_security.h"
#include "src/runtime/syslib.h"
#include "src/services/reflect_service.h"
#include "src/services/verify_service.h"

namespace dvm {

Result<Bytes> ChainedClassProvider::FetchClass(const std::string& class_name) {
  auto first = first_->FetchClass(class_name);
  if (first.ok()) {
    return first;
  }
  return second_->FetchClass(class_name);
}

DvmServer::DvmServer(DvmServerConfig config, ClassProvider* origin)
    : config_(std::move(config)),
      library_classes_(BuildSystemLibrary()),
      chained_origin_(&library_provider_, origin),
      security_server_(config_.policy) {
  for (const ClassFile& cls : library_classes_) {
    library_env_.Add(&cls);
    library_provider_.AddClassFile(cls);
  }
  proxy_ = std::make_unique<DvmProxy>(config_.proxy, &library_env_, &chained_origin_);

  // Stack the static services. Order follows Figure 2: verify, security,
  // compile, optimize, profile/audit annotation. Reflection info goes first so
  // every downstream consumer (and the client) sees self-describing classes.
  if (config_.enable_reflection) {
    proxy_->AddFilter(std::make_unique<ReflectionFilter>());
  }
  if (config_.enable_verification) {
    proxy_->AddFilter(std::make_unique<VerificationFilter>());
  }
  if (config_.enable_security) {
    proxy_->AddFilter(std::make_unique<SecurityFilter>(&security_server_.policy()));
  }
  if (config_.enable_compiler) {
    proxy_->AddFilter(std::make_unique<CompilerFilter>(config_.target_platform));
  }
  if (config_.repartition_profile.has_value()) {
    proxy_->AddFilter(std::make_unique<RepartitionFilter>(&*config_.repartition_profile));
  }
  if (config_.enable_profile) {
    proxy_->AddFilter(std::make_unique<ProfileFilter>());
  }
  if (config_.enable_audit) {
    proxy_->AddFilter(std::make_unique<AuditFilter>());
  }

  // Feed the console's code-version inventory from what the proxy serves.
  // The proxy serializes its observer calls under a lock of their own, so the
  // console's maps see one writer at a time even while misses run in
  // parallel on worker threads.
  proxy_->SetServedObserver([this](const std::string& class_name, const Bytes& data) {
    console_.RecordCodeVersion(class_name, Md5::ToHex(Md5::Hash(data)));
  });

  if (config_.proxy_worker_threads > 0) {
    StartWorkers(config_.proxy_worker_threads);
  }
}

void DvmServer::StartWorkers(size_t num_threads) {
  if (workers_ && workers_->size() == num_threads) {
    return;
  }
  workers_.reset();  // join the old pool before replacing it
  if (num_threads > 0) {
    workers_ = std::make_unique<WorkerPool>(num_threads);
  }
}

std::future<Result<ProxyResponse>> DvmServer::HandleRequestAsync(
    const std::string& class_name, const std::string& platform) {
  auto promise = std::make_shared<std::promise<Result<ProxyResponse>>>();
  std::future<Result<ProxyResponse>> future = promise->get_future();
  auto serve = [this, class_name, platform, promise] {
    promise->set_value(proxy_->HandleRequest(class_name, platform));
  };
  if (workers_) {
    workers_->Submit(std::move(serve));
  } else {
    serve();
  }
  return future;
}

bool DvmServer::UpdateSecurityPolicy(SecurityPolicy policy, SimTime now) {
  security_server_.UpdatePolicy(std::move(policy));
  // Rewritten classes embed enforcement calls derived from the old policy's
  // hook set; drop them so the next fetch re-instruments.
  proxy_->InvalidateCache();
  if (cluster_ != nullptr) {
    // Cluster-wide: replicas rewrite from the same policy server, so leaving
    // any of them with old-policy artifacts would hand a failing-over client
    // stale instrumentation.
    return cluster_->CommitPolicyUpdate(now);
  }
  return true;
}

DvmClient::DvmClient(DvmServer* server, MachineConfig machine_config, SimLink link,
                     std::string user, std::string host, std::string platform)
    : server_(server), link_(link), platform_(std::move(platform)) {
  machine_ = std::make_unique<Machine>(machine_config, this);

  // Dynamic service components.
  InstallVerifierRuntime(*machine_);
  enforcement_ = std::make_unique<EnforcementManager>(&server_->security_server());
  enforcement_->Install(*machine_);
  audit_ = std::make_unique<AuditSession>(&server_->console(), user, host);
  audit_->Install(*machine_);
  profiler_ = std::make_unique<ProfileCollector>(&server_->console(), audit_->session_id());
  profiler_->Install(*machine_);
}

Result<Bytes> DvmClient::FetchClass(const std::string& class_name) {
  DVM_ASSIGN_OR_RETURN(ProxyResponse response,
                       server_->proxy().HandleRequest(class_name, platform_));
  // The client waits for proxy processing plus the LAN transfer of the result.
  uint64_t duration = response.cpu_nanos + link_.TransmissionTime(response.data.size()) +
                      link_.latency();
  machine_->AddNanos(duration);
  transfer_nanos_ += duration;
  classes_fetched_++;
  bytes_fetched_ += response.data.size();
  return response.data;
}

Result<CallOutcome> DvmClient::RunApp(const std::string& main_class) {
  enforcement_->SetThreadSid(server_->policy().DomainForClass(main_class));
  auto outcome = machine_->RunMain(main_class);
  audit_->Flush();
  return outcome;
}

MachineConfig MonolithicMachineConfig() {
  MachineConfig config;
  config.verify_on_load = true;
  config.stack_introspection_security = true;
  return config;
}

MachineConfig DvmMachineConfig() {
  MachineConfig config;
  config.verify_on_load = false;
  config.stack_introspection_security = false;
  return config;
}

MonolithicClient::MonolithicClient(ClassProvider* origin, const SecurityPolicy& policy,
                                   MachineConfig machine_config, SimLink link)
    : library_classes_(BuildSystemLibrary()), policy_(policy), link_(link) {
  for (const ClassFile& cls : library_classes_) {
    library_env_.Add(&cls);
    library_provider_.AddClassFile(cls);
  }
  chained_origin_ = std::make_unique<ChainedClassProvider>(&library_provider_, origin);
  // Null proxy: identical network path, no static services (paper: "For
  // monolithic virtual machines, the proxy acts as a null-proxy"). Relaying
  // is cheap compared to parse/rewrite/emit.
  ProxyConfig null_config;
  null_config.enable_cache = false;
  null_config.nanos_per_request_base = 600'000;
  null_config.nanos_per_byte_parse = 120;
  null_config.nanos_per_byte_emit = 0;
  null_proxy_ = std::make_unique<DvmProxy>(null_config, &library_env_, chained_origin_.get());

  machine_ = std::make_unique<Machine>(machine_config, this);
  machine_->on_class_loaded = [this](RuntimeClass& cls) {
    cls.security_domain = policy_.DomainForClass(cls.name);
  };
  if (machine_->stack_security() != nullptr) {
    // Translate allow rules onto the stack-introspection manager: a domain is
    // granted "operation.target" patterns.
    for (const auto& rule : policy_.rules) {
      if (rule.allow) {
        machine_->stack_security()->Grant(rule.sid, rule.operation + "." +
                                                        rule.target_pattern);
        machine_->stack_security()->Grant(rule.sid, rule.operation);
      }
    }
  }
}

Result<Bytes> MonolithicClient::FetchClass(const std::string& class_name) {
  DVM_ASSIGN_OR_RETURN(ProxyResponse response, null_proxy_->HandleRequest(class_name));
  uint64_t duration = response.cpu_nanos + link_.TransmissionTime(response.data.size()) +
                      link_.latency();
  machine_->AddNanos(duration);
  transfer_nanos_ += duration;
  return response.data;
}

Result<CallOutcome> MonolithicClient::RunApp(const std::string& main_class) {
  return machine_->RunMain(main_class);
}

}  // namespace dvm
