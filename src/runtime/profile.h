// Continuous interpreter profiling (the paper's profiling service made real).
//
// Two independent mechanisms:
//
//  1. Always-on counters, zero-allocation, compiled into both engines:
//     PreparedMethod::invocations/backedges and per-site InlineCache
//     hits/misses/transitions. CollectMethodProfile() walks every prepared
//     method of every loaded class and renders the hotness view (hot methods,
//     loopy methods, megamorphic sites).
//
//  2. Virtual-clock sampled call-stack profiles (ExecutionProfiler). The
//     interpreter polls the profiler at method entry and taken backedges;
//     when the virtual clock passes the next sample deadline, the guest call
//     stack is folded into a map keyed by the root-first frame path. Because
//     the trigger is the deterministic virtual clock — not a wall timer —
//     identical seeds produce byte-identical profiles, across both dispatch
//     modes and both event-queue backends.
//
// Exports are byte-deterministic text: collapsed-stack lines (flamegraph.pl /
// speedscope input) and a pprof-style plain-text profile (integer math only).
#ifndef SRC_RUNTIME_PROFILE_H_
#define SRC_RUNTIME_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dvm {

class Machine;
class ClassRegistry;

struct ProfilerConfig {
  // Virtual nanoseconds between samples. The interpreter's cost model charges
  // ~100ns per instruction, so the default samples roughly every thousand
  // instructions — dense enough that kernel hot loops dominate the profile,
  // sparse enough that sampling stays off the fast path. The default is
  // PRIME: a tight guest loop has a constant virtual cost per iteration, and
  // any period it divides would phase-lock every sample onto the same poll
  // site (one stack absorbs 100% of samples). A prime period steps the
  // sample phase through the loop body instead.
  uint64_t sample_period_nanos = 99'991;
};

// A sampled call-stack profile over the virtual clock. Not thread-safe: one
// profiler belongs to one Machine (one guest thread of execution).
class ExecutionProfiler {
 public:
  explicit ExecutionProfiler(ProfilerConfig config = {});

  // Cheap poll inlined into the interpreter's method-entry/backedge paths.
  bool SampleDue(uint64_t virtual_now) const { return virtual_now >= next_sample_at_; }
  // Folds the machine's current guest stack into the profile and advances the
  // deadline by whole periods past `virtual_now`, so sampling stays
  // phase-locked to the virtual clock no matter how late the poll fired.
  void TakeSample(const Machine& machine, uint64_t virtual_now);

  uint64_t samples() const { return samples_; }
  uint64_t sample_period_nanos() const { return config_.sample_period_nanos; }

  // Collapsed-stack ("folded") lines: `root;caller;leaf count\n`, sorted by
  // stack path. Feed to flamegraph.pl or speedscope as-is.
  std::string CollapsedStacks() const;
  // pprof-style plain text: a header, then one line per unique stack with its
  // sample count and virtual-time share in parts-per-million (integer math
  // only, so the bytes never depend on floating-point formatting).
  std::string PprofText() const;

  void Reset();

 private:
  ProfilerConfig config_;
  uint64_t next_sample_at_;
  uint64_t samples_ = 0;
  // Stack path -> sample count. std::map iteration is name-sorted, which
  // makes every export deterministic without a sort pass.
  std::map<std::string, uint64_t> stacks_;
};

// One row of the always-on method profile, aggregated from PreparedMethod and
// its inline-cache sites.
struct MethodProfileRow {
  std::string method;  // "pkg/Class.name:descriptor"
  uint64_t invocations = 0;
  uint64_t backedges = 0;
  uint64_t ic_hits = 0;
  uint64_t ic_misses = 0;
  uint64_t megamorphic_sites = 0;
};

// Sites with at least this many receiver transitions count as megamorphic.
inline constexpr uint64_t kMegamorphicThreshold = 4;

// Every prepared method of every loaded class, sorted by invocations
// descending (ties broken by name, so the order is deterministic).
std::vector<MethodProfileRow> CollectMethodProfile(ClassRegistry& registry);

// Fixed-width text table of the top `top_n` rows — the `dvm_top` hot-method
// view and the bench_interp --profile artifact.
std::string MethodProfileTable(const std::vector<MethodProfileRow>& rows, size_t top_n);

}  // namespace dvm

#endif  // SRC_RUNTIME_PROFILE_H_
