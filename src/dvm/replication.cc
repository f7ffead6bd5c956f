#include "src/dvm/replication.h"

#include <algorithm>

#include "src/support/hash.h"

namespace dvm {

ReplicationCoordinator::ReplicationCoordinator(ProxyCluster* cluster, ReplicationConfig config)
    : cluster_(cluster),
      config_(config),
      control_(cluster->size(), config.control),
      logs_(cluster->size()),
      applied_seq_(cluster->size(), 0),
      applied_epoch_(cluster->size(), 0),
      stale_(cluster->size(), false),
      c_rounds_(stats_.Counter("repl.rounds")),
      c_commits_(stats_.Counter("repl.commits")),
      c_aborts_(stats_.Counter("repl.aborts")),
      c_naks_(stats_.Counter("repl.naks")),
      c_timeouts_(stats_.Counter("repl.timeouts")),
      c_stale_marks_(stats_.Counter("repl.stale_marks")),
      c_artifact_pushes_(stats_.Counter("repl.artifact_pushes")),
      c_epoch_commits_(stats_.Counter("repl.epoch_commits")),
      c_rejoins_(stats_.Counter("repl.rejoins")),
      c_replayed_records_(stats_.Counter("repl.replayed_records")),
      c_replay_bytes_(stats_.Counter("repl.replay_bytes")) {
  control_.SetFaultInjector(cluster->fault_injector());
}

bool ReplicationCoordinator::InSync(size_t index) const {
  return !stale_[index] && applied_seq_[index] == cluster_log_.last_sequence();
}

bool ReplicationCoordinator::CanServe(size_t index, SimTime now) const {
  if (!cluster_->ReplicaUp(index, now)) {
    return false;
  }
  // A pending proposal means the organization already decided to change the
  // policy; until the fleet commits, no replica can prove the rewrites it
  // would serve are current.
  if (epoch_pending_) {
    return false;
  }
  return InSync(index);
}

void ReplicationCoordinator::AppendLog(size_t index, const CommitRecord& record) {
  // The in-sync invariant keeps member logs in lockstep with the cluster log,
  // so Append's re-stamped sequence equals record.sequence.
  logs_[index].Append(record);
  applied_seq_[index] = record.sequence;
  if (record.type == CommitRecordType::kEpoch) {
    applied_epoch_[index] = record.epoch;
  }
}

RoundResult ReplicationCoordinator::RunRound(size_t coordinator, CommitRecord record,
                                             SimTime now, bool apply_at_coordinator) {
  c_rounds_.Add();
  RoundResult result;

  std::vector<size_t> members;
  for (size_t i = 0; i < cluster_->size(); i++) {
    if (cluster_->ReplicaUp(i, now) && InSync(i)) {
      members.push_back(i);
    }
  }
  result.participants = members.size();

  // Phase 1: multicast prepare (payload rides along), collect votes. Any
  // lost/late leg or NAK aborts; the coordinator stops waiting at the vote
  // deadline either way.
  const SimTime deadline = now + config_.control.vote_timeout;
  uint64_t prepare_bytes = config_.prepare_bytes;
  if (record.type == CommitRecordType::kArtifact) {
    prepare_bytes += CommitRecordBytes(record);
  }
  bool abort = false;
  bool timed_out = false;
  SimTime votes_done = now;
  std::vector<size_t> prepared;  // peers that received the prepare (in doubt on a lost decision)
  for (size_t m : members) {
    if (m == coordinator) {
      continue;
    }
    ControlDelivery prep = Send(coordinator, m, prepare_bytes, now);
    if (!prep.delivered || prep.at > deadline) {
      abort = true;
      timed_out = true;
      c_timeouts_.Add();
      continue;
    }
    prepared.push_back(m);
    bool nak = force_nak_.erase(m) > 0;
    if (nak) {
      c_naks_.Add();
    }
    ControlDelivery vote = Send(m, coordinator, config_.vote_bytes, prep.at);
    if (!vote.delivered || vote.at > deadline) {
      abort = true;
      timed_out = true;
      c_timeouts_.Add();
      continue;
    }
    votes_done = std::max(votes_done, vote.at);
    if (nak) {
      abort = true;
    } else {
      result.acks++;
    }
  }
  if (timed_out) {
    votes_done = deadline;  // the coordinator waited out the missing votes
  }

  result.committed = !abort;
  if (result.committed) {
    cluster_log_.Append(record);
    record = cluster_log_.records().back();  // now carrying its final sequence
  }

  // Phase 2: multicast the decision to every peer that voted. A peer that
  // ACKed the prepare but loses the decision is in doubt — it can neither
  // apply nor forget — so it goes stale and fails closed until Rejoin
  // replays the outcome from the log.
  result.completed_at = votes_done;
  for (size_t m : prepared) {
    ControlDelivery decision = Send(coordinator, m, config_.decision_bytes, votes_done);
    if (!decision.delivered) {
      stale_[m] = true;
      c_stale_marks_.Add();
      continue;
    }
    result.completed_at = std::max(result.completed_at, decision.at);
    if (result.committed) {
      cluster_->replica(m).ApplyCommitRecord(record);
      AppendLog(m, record);
    }
  }
  if (result.committed) {
    if (apply_at_coordinator) {
      cluster_->replica(coordinator).ApplyCommitRecord(record);
    }
    AppendLog(coordinator, record);
    c_commits_.Add();
  } else {
    c_aborts_.Add();
  }
  return result;
}

RoundResult ReplicationCoordinator::CommitPolicyEpoch(SimTime now) {
  const uint64_t proposed = epoch_pending_ ? pending_epoch_ : committed_epoch_ + 1;
  // The proposal is pending from this moment: even if the round aborts, the
  // fleet fails closed until a retry commits (a client must never read an
  // old-epoch rewrite after the organization decided to change the policy).
  epoch_pending_ = true;
  pending_epoch_ = proposed;

  RoundResult result;
  result.epoch = proposed;
  size_t coordinator = cluster_->size();
  for (size_t i = 0; i < cluster_->size(); i++) {
    if (cluster_->ReplicaUp(i, now) && InSync(i)) {
      coordinator = i;
      break;
    }
  }
  if (coordinator == cluster_->size()) {
    c_rounds_.Add();
    c_aborts_.Add();
    result.completed_at = now;
    return result;  // no live in-sync replica can coordinate
  }

  CommitRecord record;
  record.type = CommitRecordType::kEpoch;
  record.epoch = proposed;
  RoundResult round = RunRound(coordinator, std::move(record), now,
                               /*apply_at_coordinator=*/true);
  round.epoch = proposed;
  if (round.committed) {
    committed_epoch_ = proposed;
    epoch_pending_ = false;
    c_epoch_commits_.Add();
  }
  return round;
}

RoundResult ReplicationCoordinator::ReplicateArtifact(size_t source,
                                                      const std::string& class_name,
                                                      const std::string& platform,
                                                      SimTime now) {
  RoundResult result;
  result.epoch = committed_epoch_;
  result.completed_at = now;
  if (epoch_pending_ || !cluster_->ReplicaUp(source, now) || !InSync(source)) {
    return result;
  }
  const std::string key = DvmProxy::RewriteCacheKey(class_name, platform);
  std::optional<CachedClass> cached = cluster_->replica(source).cache().Peek(key);
  if (!cached.has_value() || cached->epoch != committed_epoch_) {
    return result;  // nothing current to push
  }
  if (!pushed_.emplace(key, cached->epoch).second) {
    result.committed = true;  // already replicated at this epoch
    return result;
  }

  CommitRecord record;
  record.type = CommitRecordType::kArtifact;
  record.epoch = cached->epoch;
  record.cache_key = key;
  record.class_name = class_name;
  record.main_class = std::move(cached->main_class);
  record.extra_classes = std::move(cached->extra_classes);
  // The proof travels with the artifact: receivers validate in one pass
  // instead of trusting the push (or re-running the fixpoint).
  record.certificate = std::move(cached->certificate);
  RoundResult round = RunRound(source, std::move(record), now,
                               /*apply_at_coordinator=*/false);
  round.epoch = committed_epoch_;
  if (round.committed) {
    c_artifact_pushes_.Add();
  } else {
    // An aborted push may be retried (e.g. after a partition heals).
    pushed_.erase({key, committed_epoch_});
  }
  return round;
}

size_t ReplicationCoordinator::Rejoin(size_t index, SimTime now) {
  (void)now;  // catch-up is a reliable bulk transfer; it draws no fault streams
  c_rejoins_.Add();
  size_t replayed = 0;
  for (const CommitRecord& record : cluster_log_.records()) {
    if (record.sequence <= applied_seq_[index]) {
      continue;
    }
    cluster_->replica(index).ApplyCommitRecord(record);
    AppendLog(index, record);
    c_replayed_records_.Add();
    c_replay_bytes_.Add(CommitRecordBytes(record));
    replayed++;
  }
  stale_[index] = false;
  return replayed;
}

ControlDelivery ReplicationCoordinator::Send(size_t from, size_t to, uint64_t bytes,
                                             SimTime now) {
  ControlDelivery delivery = control_.Send(from, to, bytes, now);
  sent_messages_++;
  if (delivery.delivered) {
    sent_bytes_ += bytes;
  } else {
    sent_dropped_++;
  }
  return delivery;
}

uint64_t ReplicationCoordinator::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t value) { h = (h ^ value) * 0x100000001b3ULL; };
  fold(cluster_log_.Digest());
  fold(committed_epoch_);
  fold(epoch_pending_ ? pending_epoch_ : 0);
  for (size_t i = 0; i < logs_.size(); i++) {
    fold(logs_[i].Digest());
    fold(applied_seq_[i]);
    fold(applied_epoch_[i]);
    fold(stale_[i] ? 1 : 0);
  }
  fold(sent_messages_);
  fold(sent_dropped_);
  fold(sent_bytes_);
  return h;
}

}  // namespace dvm
