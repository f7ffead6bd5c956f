#include "src/rewrite/filter.h"

#include "src/bytecode/serializer.h"

namespace dvm {

Result<PipelineResult> FilterPipeline::Run(const Bytes& class_bytes, const ClassEnv& env,
                                           const std::string& platform) const {
  DVM_ASSIGN_OR_RETURN(ClassFile cls, ReadClassFile(class_bytes));
  return Run(std::move(cls), env, platform);
}

Result<PipelineResult> FilterPipeline::Run(ClassFile cls, const ClassEnv& env,
                                           const std::string& platform) const {
  PipelineResult result;
  FilterContext ctx;
  ctx.env = &env;
  ctx.platform = platform;

  for (const auto& filter : filters_) {
    DVM_ASSIGN_OR_RETURN(FilterOutcome outcome, filter->Apply(cls, ctx));
    result.filters_run.push_back(filter->name());
    result.checks_performed += outcome.checks_performed;
    result.modified |= outcome.modified;
    if (outcome.replacement.has_value()) {
      cls = std::move(*outcome.replacement);
      result.modified = true;
    }
    for (auto& extra : outcome.extra_classes) {
      result.extra_classes.push_back(std::move(extra));
      result.modified = true;
    }
  }

  result.cls = std::move(cls);
  return result;
}

}  // namespace dvm
