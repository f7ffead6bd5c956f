// Structure-aware class-file mutator. Unlike a blind bit-flipper, it parses
// the seed when possible and perturbs the places where the format's safety
// arguments live: constant-pool cross-references, opcode/operand bytes,
// exception-handler ranges, declared stack/local budgets, and table counts.
// Unparseable seeds fall back to raw byte mutations (truncation, splices,
// flips) so the parser's own error paths stay exercised.
//
// Everything is driven by an explicit seeded PRNG — the same (seed, input)
// pair always yields the same mutant, which keeps fuzz runs and minimized
// crashers reproducible.
#ifndef FUZZ_MUTATOR_H_
#define FUZZ_MUTATOR_H_

#include <cstdint>

#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dvm {
namespace fuzz {

// splitmix64: tiny, seedable, and good enough for mutation scheduling.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  // Uniform-ish in [0, bound); bound must be > 0.
  uint32_t Below(uint32_t bound) { return static_cast<uint32_t>(Next() % bound); }
  bool Coin() { return (Next() & 1) != 0; }

 private:
  uint64_t state_;
};

// Produces one mutant of `data`. Structure-aware when `data` parses as a
// class file; raw byte-level otherwise. Never returns an empty vector.
Bytes MutateClassBytes(const Bytes& data, Rng& rng);

// Produces one mutant of a serialized verification certificate
// (verifier/certificate.h). Structure-aware when the input parses: it tampers
// with the places the proof's soundness lives — assertion indices, frame slot
// types (including sound-looking widenings that only the validator's
// exactness check can catch), dropped/duplicated assertions, and the
// assumption list — and falls back to raw byte mutations otherwise. May
// return bytes equal to the input when the drawn mutation is a no-op; callers
// wanting guaranteed-different mutants should compare and redraw.
Bytes MutateCertificateBytes(const Bytes& cert, Rng& rng);

// Seed inputs available without any corpus on disk: the serialized system
// library plus a small builder-assembled application class. Used by the
// standalone driver when no corpus directory is supplied and by `dvm_fuzz gen`.
std::vector<Bytes> BuiltinSeeds();

}  // namespace fuzz
}  // namespace dvm

#endif  // FUZZ_MUTATOR_H_
