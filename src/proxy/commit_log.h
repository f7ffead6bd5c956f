// Per-replica commit log for the replicated proxy control plane. Every
// decision a replica applies — a committed security-policy epoch, a pushed
// rewritten-class artifact — is appended here in commit order. A replica
// recovering from an outage window catches up by replaying the suffix of a
// live peer's log instead of re-running the rewrite pipeline: an epoch record
// replays as invalidate-and-advance, an artifact record replays as a cache
// install, and because epoch records precede the artifacts committed under
// them, in-order replay converges every replica to byte-identical state (the
// property bench_replication gates on).
#ifndef SRC_PROXY_COMMIT_LOG_H_
#define SRC_PROXY_COMMIT_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/support/bytes.h"

namespace dvm {

enum class CommitRecordType : uint8_t {
  kEpoch = 0,     // the cluster committed a new security-policy epoch
  kArtifact = 1,  // a rewritten-class artifact was pushed to the fleet
};

struct CommitRecord {
  uint64_t sequence = 0;  // assigned by CommitLog::Append, 1-based
  CommitRecordType type = CommitRecordType::kEpoch;
  uint64_t epoch = 0;  // the epoch committed / the epoch the artifact was rewritten under

  // kArtifact only: the rewrite-cache key ("class\x1fplatform"), the class
  // name, the instrumented bytes, and any filter-synthesized companions.
  std::string cache_key;
  std::string class_name;
  Bytes main_class;
  std::vector<std::pair<std::string, Bytes>> extra_classes;
  // Serialized verification certificate for main_class (certificate.h). A
  // receiving replica validates the artifact against it in one pass instead of
  // re-running the phase-3 fixpoint; empty means "no proof attached", and the
  // receiver refuses the install (proxy.cert_missing).
  Bytes certificate;
};

// Wire size of a record when it travels in a 2PC prepare message: headers plus
// the artifact payload. Epoch records are header-only.
uint64_t CommitRecordBytes(const CommitRecord& record);

class CommitLog {
 public:
  // Stamps the next sequence number onto `record` and appends it. Returns the
  // assigned sequence.
  uint64_t Append(CommitRecord record);

  const std::vector<CommitRecord>& records() const { return records_; }
  uint64_t last_sequence() const { return last_sequence_; }
  uint64_t bytes() const { return bytes_; }

  // Order-sensitive FNV digest over every record (sequence, type, epoch, keys,
  // payload bytes). Two replicas whose logs digest equal hold the same state;
  // the rejoin gate compares digests across the fleet.
  uint64_t Digest() const;

 private:
  std::vector<CommitRecord> records_;
  uint64_t last_sequence_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace dvm

#endif  // SRC_PROXY_COMMIT_LOG_H_
