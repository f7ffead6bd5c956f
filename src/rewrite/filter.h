// The proxy's internal filtering API (paper section 3): logically separate
// services are written as code-transformation filters and stacked according to
// site-specific requirements. The pipeline runs every filter over one
// in-memory class and returns the result unserialized, so the proxy parses
// and writes each class once across all static services.
#ifndef SRC_REWRITE_FILTER_H_
#define SRC_REWRITE_FILTER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/support/result.h"
#include "src/verifier/certificate.h"
#include "src/verifier/class_env.h"

namespace dvm {

struct FilterContext {
  // The classes a filter may resolve: the trusted library, then the class
  // being filtered (an ArtifactEnv). Never another application class. Never
  // null inside Apply().
  const ClassEnv* env = nullptr;
  // Native format of the requesting client, reported during its handshake with
  // the remote administration service (paper section 3.4). Empty when the
  // request is platform-neutral; the compilation service keys its output on it.
  std::string platform;
  // The verification filter's proof of the class, once a filter before this
  // one reported it (null before that, and after a filter replaced the
  // class). A filter opens its MethodEditors with it, so that code inserted
  // at a proved method's entry is spliced in without walking the body.
  const ClassProof* proof = nullptr;
};

struct FilterOutcome {
  bool modified = false;
  // When set, this class replaces the input entirely (e.g. the verification
  // service substitutes an error-raising stand-in for a provably bad class).
  std::optional<ClassFile> replacement;
  // Additional classes produced by the filter (e.g. cold-code classes emitted
  // by the repartitioning optimizer). Published alongside the main class.
  std::vector<ClassFile> extra_classes;
  // Work metric: number of discrete checks/transformations performed. Feeds
  // the proxy's throughput accounting (Figure 10).
  uint64_t checks_performed = 0;
  // What the service changed, for the services whose effect is not their
  // work count: dynamic checks injected (verification), monitorenter
  // instructions elided (sync elision), folds and strength reductions
  // (compiler); 0 from every other filter. Filters keep no counters of their
  // own: a caller that reports a service's effect reads it here.
  uint64_t sites_rewritten = 0;
  // The verification filter's proof of the class as it received it, from
  // which the proxy derives the artifact's certificate.
  std::optional<ClassProof> proof;
  // Every insertion the filter made into method bodies, in order (as
  // MethodEditor::Commit reports them), plus any method it added. A filter
  // that changes code any other way reports nothing; the derivation then
  // finds a body that is not its proved body and the proxy proves the
  // artifact itself.
  std::vector<CodeEdit> code_edits;
};

// A static service. Apply is const: a filter holds only its configuration,
// never per-request state, so one instance serves concurrent rewrites.
class CodeFilter {
 public:
  virtual ~CodeFilter() = default;
  virtual std::string name() const = 0;
  virtual Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const = 0;
};

struct PipelineResult {
  // Final class (a filter's replacement, if any) and synthesized companions.
  ClassFile cls;
  std::vector<ClassFile> extra_classes;
  bool modified = false;
  uint64_t checks_performed = 0;
  // Names of filters that ran, in order (audit trail).
  std::vector<std::string> filters_run;
  // The last proof a filter reported, and the code edits every filter made
  // after it. Dropped when a later filter replaces the class, or when any
  // filter adds companions: a derivation can follow neither.
  std::optional<ClassProof> proof;
  std::vector<CodeEdit> code_edits;
};

// Parse-once filter stack; the caller emits the result once. Run is safe to
// call concurrently once the stack is built.
class FilterPipeline {
 public:
  void Add(std::unique_ptr<CodeFilter> filter) { filters_.push_back(std::move(filter)); }
  size_t size() const { return filters_.size(); }

  // Runs all filters over the serialized class, which they see against the
  // trusted `library` and the class itself only, so the result depends on
  // nothing else the caller has seen. Any filter error aborts the run with
  // that error (the proxy converts verification errors into replacement
  // classes before this surfaces to clients). `platform` is the requesting
  // client's native format (may be empty).
  Result<PipelineResult> Run(const Bytes& class_bytes, const ClassEnv& library,
                             const std::string& platform = "") const;
  // Same, starting from a parsed class (saves the parse when the caller
  // already has one).
  Result<PipelineResult> Run(ClassFile cls, const ClassEnv& library,
                             const std::string& platform = "") const;

 private:
  std::vector<std::unique_ptr<CodeFilter>> filters_;
};

}  // namespace dvm

#endif  // SRC_REWRITE_FILTER_H_
