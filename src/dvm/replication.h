// Replicated proxy control plane (ROADMAP item 2). The paper's fleet story
// treats the proxy service as *one* logical rewriter; since PR 2 our replicas
// have been fully independent, so a policy update could leave some replicas
// rewriting under the old hook set. This layer makes the control state —
// security-policy epochs and rewritten-class artifacts — replicated:
//
//   * Epoch rounds: advancing the security policy is a two-phase vote/commit
//     round over the ControlPlane mesh. The lowest-indexed in-sync replica
//     coordinates; every live in-sync member must ACK the prepare within the
//     vote timeout or the round aborts fleet-wide. While a proposed epoch is
//     pending (including after an abort), *no* replica can prove it serves
//     the committed policy, so CanServe fails closed for everyone until a
//     retried round commits — a client never observes a half-applied update.
//
//   * Artifact rounds: after a replica rewrites a class, the artifact is
//     multicast to its in-sync peers with the same prepare/vote/commit
//     protocol (payload travels with the prepare). A committed push installs
//     the bytes into every peer's rewrite cache and synthesized-class map, so
//     one rewrite serves the whole fleet.
//
//   * Commit log + recovery: every committed decision appends to a
//     per-replica commit log (and the coordinator's authoritative cluster
//     log). A replica that misses rounds — outage window, partition, lost
//     decision message — is no longer *in sync*: it is excluded from rounds
//     and CanServe fails closed for it until Rejoin() replays the cluster
//     log suffix it missed, converging it to byte-identical state without
//     re-running the rewrite pipeline. A member that ACKed a prepare but
//     never learned the outcome is marked stale (classic 2PC in-doubt) and
//     handled the same way.
//
// Membership is fail-stop with a perfect failure detector (the FaultInjector
// outage schedule): replicas down at round start are excluded, fall behind,
// and catch up by replay. Everything runs on the virtual clock through
// SimLink FIFOs, so two runs with the same seed produce byte-identical
// fingerprints — the property bench_replication gates on.
#ifndef SRC_DVM_REPLICATION_H_
#define SRC_DVM_REPLICATION_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/dvm/redirect_client.h"
#include "src/proxy/commit_log.h"
#include "src/simnet/multicast.h"
#include "src/support/stats.h"

namespace dvm {

struct ReplicationConfig {
  ControlPlaneConfig control;
  // Message sizes on the control mesh. Artifact prepares add the record's
  // payload bytes on top of the header.
  uint64_t prepare_bytes = 192;
  uint64_t vote_bytes = 64;
  uint64_t decision_bytes = 64;
};

// Outcome of one two-phase round.
struct RoundResult {
  bool committed = false;
  uint64_t epoch = 0;       // the epoch proposed/committed (epoch rounds)
  size_t participants = 0;  // live in-sync members at round start
  size_t acks = 0;          // peers that ACKed the prepare in time
  SimTime completed_at = 0;
};

class ReplicationCoordinator {
 public:
  ReplicationCoordinator(ProxyCluster* cluster, ReplicationConfig config);

  // Proposes committing the next policy epoch fleet-wide. On commit, every
  // member invalidates its rewritten state and advances its epoch stamp; on
  // abort (any NAK or timeout) the proposal stays pending and CanServe fails
  // closed for the whole fleet until a retry commits.
  RoundResult CommitPolicyEpoch(SimTime now);

  // Pushes the artifact cached under (class, platform) at `source` to every
  // in-sync peer. No-ops (uncommitted result) when the source has no cached
  // artifact, the artifact's epoch is not the committed one, or an epoch
  // proposal is pending. Idempotent per (key, epoch).
  RoundResult ReplicateArtifact(size_t source, const std::string& class_name,
                                const std::string& platform, SimTime now);

  // Recovers replica `index` by replaying the cluster-log suffix it missed
  // (a reliable bulk transfer: no drop draws, so recovery never perturbs the
  // fault streams). Clears the stale flag. Returns records replayed; 0 when
  // already caught up (replay is idempotent).
  size_t Rejoin(size_t index, SimTime now);

  // Fail-closed gate: true only when `index` is up, no epoch proposal is
  // pending, and the replica can prove it holds the cluster's committed log
  // position (and therefore the committed epoch). Clients treat a false as a
  // refusal and fail over.
  bool CanServe(size_t index, SimTime now) const;

  // In-sync = not stale and caught up to the cluster log. Round membership.
  bool InSync(size_t index) const;

  uint64_t committed_epoch() const { return committed_epoch_; }
  bool epoch_pending() const { return epoch_pending_; }
  uint64_t applied_epoch(size_t index) const { return applied_epoch_[index]; }
  uint64_t applied_sequence(size_t index) const { return applied_seq_[index]; }
  bool stale(size_t index) const { return stale_[index]; }
  const CommitLog& cluster_log() const { return cluster_log_; }
  const CommitLog& replica_log(size_t index) const { return logs_[index]; }
  ControlPlane& control_plane() { return control_; }

  // Test hook: the next prepare delivered to `index` votes NAK.
  void ForceNakOnce(size_t index) { force_nak_.insert(index); }

  // Order-sensitive digest of the whole replication state: cluster log,
  // per-replica logs/positions/staleness, epoch state, and the messages,
  // drops and bytes of the coordinator's own control-plane traffic. Other
  // senders on the plane (the fleet metrics publisher) do not move it. Two
  // same-seed runs must produce identical values on both event-queue
  // backends.
  uint64_t Fingerprint() const;

  // Named counters: repl.{rounds,commits,aborts,naks,timeouts,stale_marks,
  // artifact_pushes,epoch_commits,rejoins,replayed_records,replay_bytes}.
  const StatsRegistry& stats() const { return stats_; }

 private:
  // Runs one prepare/vote/decision round coordinated by `coordinator` over
  // the current in-sync live membership. On commit the record is appended to
  // the cluster log and applied at every member that received the decision;
  // `apply_at_coordinator` controls whether the coordinator itself runs
  // ApplyCommitRecord (epoch rounds) or only logs the decision (artifact
  // rounds — the source already holds the artifact).
  RoundResult RunRound(size_t coordinator, CommitRecord record, SimTime now,
                       bool apply_at_coordinator);
  // Appends to the member's log (sequence stays in lockstep with the cluster
  // log by the in-sync invariant) and advances its applied position.
  void AppendLog(size_t index, const CommitRecord& record);
  // control_.Send, counted as replication traffic.
  ControlDelivery Send(size_t from, size_t to, uint64_t bytes, SimTime now);

  ProxyCluster* cluster_;
  ReplicationConfig config_;
  ControlPlane control_;
  // The coordinator's share of control_'s traffic.
  uint64_t sent_messages_ = 0;
  uint64_t sent_dropped_ = 0;
  uint64_t sent_bytes_ = 0;

  CommitLog cluster_log_;
  std::vector<CommitLog> logs_;
  std::vector<uint64_t> applied_seq_;
  std::vector<uint64_t> applied_epoch_;
  // 2PC in-doubt: ACKed a prepare, never saw the decision. Fail closed until
  // Rejoin.
  std::vector<bool> stale_;

  uint64_t committed_epoch_ = 0;
  uint64_t pending_epoch_ = 0;
  bool epoch_pending_ = false;

  std::set<size_t> force_nak_;
  std::set<std::pair<std::string, uint64_t>> pushed_;  // (cache_key, epoch) dedup

  StatsRegistry stats_;
  StatCounter& c_rounds_;
  StatCounter& c_commits_;
  StatCounter& c_aborts_;
  StatCounter& c_naks_;
  StatCounter& c_timeouts_;
  StatCounter& c_stale_marks_;
  StatCounter& c_artifact_pushes_;
  StatCounter& c_epoch_commits_;
  StatCounter& c_rejoins_;
  StatCounter& c_replayed_records_;
  StatCounter& c_replay_bytes_;
};

}  // namespace dvm

#endif  // SRC_DVM_REPLICATION_H_
