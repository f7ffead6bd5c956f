#include "src/rewrite/filter.h"

#include "src/bytecode/serializer.h"

namespace dvm {

Result<PipelineResult> FilterPipeline::Run(const Bytes& class_bytes, const ClassEnv& library,
                                           const std::string& platform) const {
  DVM_ASSIGN_OR_RETURN(ClassFile cls, ReadClassFile(class_bytes));
  return Run(std::move(cls), library, platform);
}

Result<PipelineResult> FilterPipeline::Run(ClassFile cls, const ClassEnv& library,
                                           const std::string& platform) const {
  PipelineResult result;
  // A replacement is moved into `cls`, which keeps its address until the
  // end, so every filter resolves the class's own name to its current form.
  const ArtifactEnv env(&library, cls);
  FilterContext ctx;
  ctx.env = &env;
  ctx.platform = platform;

  for (const auto& filter : filters_) {
    DVM_ASSIGN_OR_RETURN(FilterOutcome outcome, filter->Apply(cls, ctx));
    result.filters_run.push_back(filter->name());
    result.checks_performed += outcome.checks_performed;
    result.modified |= outcome.modified;
    if (outcome.proof.has_value()) {
      result.proof = std::move(outcome.proof);
      result.code_edits.clear();
      ctx.proof = &*result.proof;
    }
    result.code_edits.insert(result.code_edits.end(), outcome.code_edits.begin(),
                             outcome.code_edits.end());
    if (outcome.replacement.has_value()) {
      cls = std::move(*outcome.replacement);
      result.modified = true;
      result.proof.reset();
      ctx.proof = nullptr;
    }
    for (auto& extra : outcome.extra_classes) {
      result.extra_classes.push_back(std::move(extra));
      result.modified = true;
    }
  }
  // The proof saw the class alone; companions join the artifact's
  // environment, so it no longer describes what the artifact is checked in.
  if (!result.extra_classes.empty()) {
    result.proof.reset();
  }

  result.cls = std::move(cls);
  return result;
}

}  // namespace dvm
