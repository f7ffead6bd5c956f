// The three fuzzing oracles, shared by the harnesses, the dvm_fuzz triage CLI
// and the corpus regression test. Each check returns an empty string when the
// input is handled safely (parsed cleanly OR rejected with a typed Error) and
// a human-readable violation description otherwise. The harness aborts on a
// non-empty result, so under a fuzzer a violation is indistinguishable from a
// crash and gets the same minimization treatment.
//
// This is the paper's safety claim (§4.1) made executable:
//   round-trip     — Read/Write are mutual inverses on everything Read accepts;
//   rewrite        — the proxy pipeline is total on hostile input and
//                    idempotent on its own output;
//   differential   — a class the verifier ACCEPTS runs in a bounded Machine
//                    without any "impossible" host error (type confusion,
//                    operand underflow, dangling reference), and a class it
//                    REJECTS fails closed with a typed error, never a crash.
#ifndef FUZZ_ORACLES_H_
#define FUZZ_ORACLES_H_

#include <string>

#include "src/support/bytes.h"

namespace dvm {
namespace fuzz {

// ReadClassFile → WriteClassFile → ReadClassFile. Violations: a parsed class
// that fails to re-serialize, a serialization that fails to re-parse, or a
// round-trip that is not byte-identical.
std::string CheckRoundTrip(const Bytes& data);

// FilterPipeline (verification filter over the system library) on the raw
// bytes, then again on its own output. Violations: non-idempotent output or
// second-pass failure on bytes the pipeline itself produced.
std::string CheckRewritePipeline(const Bytes& data);

// Verifier↔interpreter differential oracle. Parses and verifies against the
// system library; executes every static niladic method of an accepted class
// under a small fuel/heap/frame budget, on two engines in lockstep: the
// reference interpreter (oracle) and the quickened engine. Violations: an
// accepted class producing a host error outside the benign set (missing
// classes, unbound natives, exhausted budgets) on either engine, or any
// observable divergence between the engines (outcomes, error strings, guest
// output, virtual clock, architectural counters).
std::string CheckDifferential(const Bytes& data);

// Certificate oracle, the PR-9 adversary. For a class the verifier ACCEPTS
// (against itself + the system library): the emitted certificate must
// round-trip byte-identically, the one-pass validator must accept it (the
// validator-vs-verifier differential — both sides share one abstract
// interpreter, and this oracle holds them to identical verdicts), and a
// deterministic battery of structure-aware certificate mutants must every one
// be rejected (at parse or at validation). Violations: emission that the
// emitter's own validator rejects, round-trip drift, or a tampered
// certificate that validates.
std::string CheckCertificate(const Bytes& data);

// All four in sequence; first violation wins.
std::string CheckAll(const Bytes& data);

// fprintf + abort on a non-empty violation message (fuzzer crash signal).
void RequireClean(const std::string& violation);

}  // namespace fuzz
}  // namespace dvm

#endif  // FUZZ_ORACLES_H_
