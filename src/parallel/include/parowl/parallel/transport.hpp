#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "parowl/obs/report.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::parallel {

/// Per-partition communication counters, separated by direction.  The
/// cluster uses `seconds` for the Fig. 2 "IO" component and `bytes` for the
/// simulated-network model.  For FileTransport the byte counters are true
/// bytes-on-wire (the codec-encoded envelope size as written/read);
/// MemoryTransport counts raw in-process tuple bytes, since nothing is
/// encoded.  The protocol counters (retries, redeliveries, checksum
/// failures) are filled by the ack/retry layer: retries by the transport
/// itself (it sees attempt > 0 on send), the receiver-side pair by the
/// worker via note_redelivery / note_checksum_failure.
struct CommStats {
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t retries = 0;             // batch retransmissions sent
  std::uint64_t redeliveries = 0;        // duplicate batches discarded by id
  std::uint64_t checksum_failures = 0;   // corrupt batches detected

  void merge(const CommStats& other) {
    send_seconds += other.send_seconds;
    recv_seconds += other.recv_seconds;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    messages_sent += other.messages_sent;
    retries += other.retries;
    redeliveries += other.redeliveries;
    checksum_failures += other.checksum_failures;
  }
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const CommStats& s);

/// Uniform double in [0, 1) from a hash value.
[[nodiscard]] double hash_unit(std::uint64_t h);

/// Order-insensitive batch checksum: wrapping sum of the triples'
/// rdf::triple_digest values.  The closure is a set, so a reordered
/// batch is *not* corrupt; a batch with a mutated, missing, or extra tuple
/// is.
[[nodiscard]] std::uint64_t batch_checksum(std::span<const rdf::Triple> tuples);

/// Globally unique batch identity: (from, to, round, seq) packed into 64
/// bits.  Receivers deduplicate redeliveries by this id; retransmissions of
/// the same batch carry the same id with a higher attempt number.
[[nodiscard]] constexpr std::uint64_t make_batch_id(std::uint32_t from,
                                                    std::uint32_t to,
                                                    std::uint32_t round,
                                                    std::uint32_t seq) {
  return (static_cast<std::uint64_t>(from) << 54) |
         (static_cast<std::uint64_t>(to) << 44) |
         (static_cast<std::uint64_t>(seq & 0xff) << 36) |
         (static_cast<std::uint64_t>(round) & 0xfffffffffULL);
}

/// What an envelope carries.  kData is an ordinary delta batch; kToken is a
/// termination-detection probe (empty tuple payload, token_* fields live);
/// kStealResult returns the derivations a thief computed over a stolen
/// frontier shard to the shard's owner, who absorbs them like foreign
/// deltas.  Tokens ride the same ack'd envelopes as data, so drop/dup/delay
/// faults are already handled by the retry layer — and their payload is
/// empty, so the corrupt fault (which mutates tuples) cannot touch them.
enum class BatchKind : std::uint8_t { kData = 0, kToken = 1, kStealResult = 2 };

/// Wire envelope: one tuple batch plus the identity and integrity metadata
/// the ack/retry protocol needs.
struct Batch {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t round = 0;
  std::uint32_t seq = 0;      // per-(from, to, round) sequence number
  std::uint32_t attempt = 0;  // 0 = first transmission
  std::uint64_t checksum = 0; // batch_checksum(tuples) at send time
  BatchKind kind = BatchKind::kData;
  /// Termination-token payload (kToken only): the probe epoch and the
  /// Dijkstra color.
  std::uint32_t token_epoch = 0;
  bool token_black = false;
  /// False when the transport could not even reconstruct the envelope
  /// (torn file, unparsable payload); treated as a checksum failure.
  bool intact = true;
  std::vector<rdf::Triple> tuples;

  [[nodiscard]] std::uint64_t id() const {
    return make_batch_id(from, to, round, seq);
  }

  /// The integrity rule every receiver applies: the envelope was
  /// reconstructed and its payload still matches the sender's checksum.
  /// An invalid envelope is never acknowledged, so the sender retransmits.
  [[nodiscard]] bool valid() const {
    return intact && batch_checksum(tuples) == checksum;
  }
};

/// Shared acknowledgement board: receivers post the ids of batches they
/// have validated and stored; senders retransmit what is still missing.
/// This is the in-process stand-in for ack messages flowing back over the
/// network — the executor owns it and hands it to every worker of a round.
class AckBoard {
 public:
  void ack(std::uint64_t batch_id) {
    const std::scoped_lock lock(mutex_);
    acked_.insert(batch_id);
  }
  [[nodiscard]] bool acked(std::uint64_t batch_id) const {
    const std::scoped_lock lock(mutex_);
    return acked_.contains(batch_id);
  }
  void clear() {
    const std::scoped_lock lock(mutex_);
    acked_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_set<std::uint64_t> acked_;
};

/// Injected-fault counters of a FaultyTransport (all zero elsewhere).
struct FaultLog {
  std::uint64_t attempts = 0;     // batch transmissions observed
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t delays = 0;
  std::uint64_t reorders = 0;

  [[nodiscard]] std::uint64_t total() const {
    return drops + duplicates + corruptions + delays + reorders;
  }
};

[[nodiscard]] obs::FieldList fields(const FaultLog& log);

/// Inter-partition tuple exchange.  Usage is round-synchronous: every
/// worker `send_batch`es all its round-r envelopes, the executor barriers,
/// then every worker drains its round-r inbox with `receive_batches` —
/// possibly several times per round, as the ack/retry delivery loop
/// re-polls after retransmissions.  Implementations must allow concurrent
/// calls from distinct workers.
class Transport {
 public:
  explicit Transport(std::uint32_t num_partitions);
  virtual ~Transport() = default;

  /// Ship one envelope.  The transport may observe `attempt` for retry
  /// accounting but must deliver retransmissions like first transmissions.
  virtual void send_batch(Batch batch) = 0;

  /// Drain every envelope currently available for (`to`, `round`).  This
  /// may be called repeatedly per round; each envelope is returned exactly
  /// once.
  virtual std::vector<Batch> receive_batches(std::uint32_t to,
                                             std::uint32_t round) = 0;

  /// Drain every envelope currently available for `to`, regardless of
  /// round — the asynchronous executors poll with this, since async senders
  /// stamp envelopes with a monotonic sequence rather than a shared round.
  /// Default implementation refuses: round-synchronous-only transports
  /// (e.g. test doubles) need not support it.
  virtual std::vector<Batch> receive_all(std::uint32_t to) {
    (void)to;
    throw std::logic_error(name() + " transport does not support receive_all");
  }

  /// Communication counters for one partition (accumulated over rounds).
  [[nodiscard]] virtual CommStats stats(std::uint32_t partition) const;

  /// Receiver-side protocol accounting: the worker — not the transport —
  /// decides that an envelope is a redelivery or corrupt, and records the
  /// verdict here so CommStats reconciles with the fault schedule.
  void note_redelivery(std::uint32_t to);
  void note_checksum_failure(std::uint32_t to);

  /// Fault-injection counters; zero unless this is a FaultyTransport.
  [[nodiscard]] virtual FaultLog injected_faults() const { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(stats_.size());
  }

 protected:
  [[nodiscard]] CommStats& stats_for(std::uint32_t partition) {
    return stats_[partition];
  }
  mutable std::mutex stats_mutex_;

 private:
  std::vector<CommStats> stats_;
};

/// Shared-memory transport: per-destination mailboxes under a mutex.  This
/// stands in for "a more efficient communication mechanism like MPI" that
/// §VI-B says would shrink the IO share — and is what the paper itself
/// switched to for the rule-partitioning experiments.
class MemoryTransport final : public Transport {
 public:
  explicit MemoryTransport(std::uint32_t num_partitions);

  void send_batch(Batch batch) override;
  std::vector<Batch> receive_batches(std::uint32_t to,
                                     std::uint32_t round) override;
  std::vector<Batch> receive_all(std::uint32_t to) override;
  [[nodiscard]] std::string name() const override { return "memory"; }

 private:
  /// Drain `to`'s mailboxes for rounds [lo, hi], in round order, and
  /// charge the receive to `to`'s counters.
  std::vector<Batch> drain(std::uint32_t to, std::uint32_t lo,
                           std::uint32_t hi);

  std::mutex mutex_;
  // (to, round) -> envelopes awaiting receive.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Batch>>
      mailboxes_;
};

/// Shared-filesystem transport, as in the paper's implementation (§V): each
/// envelope becomes a file "r<round>_to<t>_from<f>_s<seq>_a<attempt>.batch"
/// in a spool directory; receive scans the destination's files (one
/// round's in `receive_batches`, every round's in `receive_all`).  Tuples
/// are serialized with the compact binary codec (rdf/codec.hpp — varint
/// header plus a delta-encoded checksummed triple block), the same format
/// snapshots and checkpoints use, so the measured IO cost includes real
/// serialization, disk writes, reads, and decoding — the quantities behind
/// Fig. 2's IO component — and `CommStats` bytes are true bytes-on-wire.
///
/// Writes are torn-file safe: the envelope is written to a ".tmp" sibling
/// and atomically renamed into place, so a reader never observes a partial
/// batch under normal operation — and if a file *is* damaged on disk, the
/// block checksum and header validation turn the damage into a detected
/// checksum failure instead of a silently wrong closure.
class FileTransport final : public Transport {
 public:
  FileTransport(std::filesystem::path spool_dir,
                std::uint32_t num_partitions);
  ~FileTransport() override;

  void send_batch(Batch batch) override;
  std::vector<Batch> receive_batches(std::uint32_t to,
                                     std::uint32_t round) override;
  std::vector<Batch> receive_all(std::uint32_t to) override;
  [[nodiscard]] std::string name() const override { return "file"; }

  [[nodiscard]] std::filesystem::path batch_path(const Batch& batch) const;
  [[nodiscard]] const std::filesystem::path& spool_dir() const {
    return dir_;
  }

 private:
  /// Consume and decode every spool file addressed to `to` (only those of
  /// `round` when given), in file-name order.
  std::vector<Batch> scan(std::uint32_t to,
                          std::optional<std::uint32_t> round);

  std::filesystem::path dir_;
};

/// Seeded fault model for FaultyTransport.  Every decision derives from a
/// hash of (seed, batch id, attempt), so a schedule is replayable — the
/// same seed injects the same faults regardless of thread interleaving.
/// At most one destructive fault (drop / duplicate / corrupt / delay) is
/// drawn per transmission; reordering is drawn independently because it is
/// non-destructive under set semantics.
struct FaultSpec {
  std::uint64_t seed = 1;
  double drop = 0.0;       // P(envelope vanishes)
  double duplicate = 0.0;  // P(envelope delivered twice)
  double corrupt = 0.0;    // P(payload mutated; checksum left stale)
  double delay = 0.0;      // P(envelope held for 1..max_delay_rounds rounds)
  double reorder = 0.0;    // P(tuple/batch order shuffled)
  std::uint32_t max_delay_rounds = 2;
  /// Attempts at or beyond this count pass through clean, making every
  /// schedule finite: bounded retries always eventually succeed.
  std::uint32_t max_faulty_attempts = 3;
};

/// Deterministic fault-injection decorator over any Transport.  Wraps the
/// inner transport's envelopes on the send side; receiver-side it releases
/// delayed envelopes whose due round has come and optionally shuffles
/// delivery order.  Stats are the inner transport's counters merged with
/// the protocol counters recorded against the decorator.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(Transport& inner, FaultSpec spec);

  void send_batch(Batch batch) override;
  std::vector<Batch> receive_batches(std::uint32_t to,
                                     std::uint32_t round) override;
  std::vector<Batch> receive_all(std::uint32_t to) override;
  [[nodiscard]] CommStats stats(std::uint32_t partition) const override;
  [[nodiscard]] FaultLog injected_faults() const override;
  [[nodiscard]] std::string name() const override {
    return "faulty+" + inner_.name();
  }

  /// Delayed envelopes still in limbo (test introspection).
  [[nodiscard]] std::size_t limbo_remaining() const;

 private:
  /// An envelope held back by a delay fault until `due_round` (round-
  /// synchronous receive) or until `holds` further receive_all polls have
  /// elapsed (asynchronous receive, where no shared round exists).
  struct Delayed {
    std::uint32_t due_round = 0;
    std::uint32_t holds = 0;
    Batch batch;
  };

  /// Append the inner transport's drain to `out` and, with probability
  /// `reorder`, shuffle the delivery order under a hash of (to, key).
  void deliver(std::vector<Batch>& out, std::vector<Batch> inner,
               std::uint32_t to, std::uint64_t key);

  Transport& inner_;
  FaultSpec spec_;
  mutable std::mutex mutex_;
  FaultLog log_;
  std::vector<Delayed> limbo_;
  // Per-destination receive_all poll counters: seed both the limbo
  // countdown and the deterministic delivery shuffle in async mode.
  std::map<std::uint32_t, std::uint64_t> poll_counts_;
};

}  // namespace parowl::parallel
