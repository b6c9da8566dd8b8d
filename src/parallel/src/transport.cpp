#include "parowl/parallel/transport.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "parowl/rdf/codec.hpp"
#include "parowl/util/log.hpp"
#include "parowl/util/strings.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::parallel {

using util::mix64;

double hash_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t batch_checksum(std::span<const rdf::Triple> tuples) {
  std::uint64_t sum = 0;
  for (const rdf::Triple& t : tuples) {
    sum += rdf::triple_digest(t);  // wrapping sum: order-insensitive
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Transport base: shared stats and the receiver-side protocol verdicts.

Transport::Transport(std::uint32_t num_partitions) : stats_(num_partitions) {}

CommStats Transport::stats(std::uint32_t partition) const {
  const std::scoped_lock lock(stats_mutex_);
  return stats_[partition];
}

void Transport::note_redelivery(std::uint32_t to) {
  const std::scoped_lock lock(stats_mutex_);
  stats_[to].redeliveries += 1;
}

void Transport::note_checksum_failure(std::uint32_t to) {
  const std::scoped_lock lock(stats_mutex_);
  stats_[to].checksum_failures += 1;
}

// ---------------------------------------------------------------------------
// MemoryTransport

MemoryTransport::MemoryTransport(std::uint32_t num_partitions)
    : Transport(num_partitions) {}

void MemoryTransport::send_batch(Batch batch) {
  util::Stopwatch watch;
  const std::uint64_t bytes = batch.tuples.size() * sizeof(rdf::Triple);
  const std::uint32_t from = batch.from;
  const bool retry = batch.attempt > 0;
  {
    const std::scoped_lock lock(mutex_);
    mailboxes_[{batch.to, batch.round}].push_back(std::move(batch));
  }
  const std::scoped_lock lock(stats_mutex_);
  CommStats& s = stats_for(from);
  s.send_seconds += watch.elapsed_seconds();
  s.bytes_sent += bytes;
  s.messages_sent += 1;
  s.retries += retry ? 1 : 0;
}

std::vector<Batch> MemoryTransport::receive_batches(std::uint32_t to,
                                                    std::uint32_t round) {
  return drain(to, round, round);
}

std::vector<Batch> MemoryTransport::receive_all(std::uint32_t to) {
  return drain(to, 0, std::numeric_limits<std::uint32_t>::max());
}

std::vector<Batch> MemoryTransport::drain(std::uint32_t to, std::uint32_t lo,
                                          std::uint32_t hi) {
  util::Stopwatch watch;
  std::vector<Batch> out;
  {
    const std::scoped_lock lock(mutex_);
    // Mailboxes are keyed (to, round): the wanted rounds are contiguous.
    for (auto it = mailboxes_.lower_bound({to, lo});
         it != mailboxes_.end() && it->first.first == to &&
         it->first.second <= hi;) {
      out.insert(out.end(), std::make_move_iterator(it->second.begin()),
                 std::make_move_iterator(it->second.end()));
      it = mailboxes_.erase(it);
    }
  }
  std::uint64_t bytes = 0;
  for (const Batch& b : out) {
    bytes += b.tuples.size() * sizeof(rdf::Triple);
  }
  const std::scoped_lock lock(stats_mutex_);
  CommStats& s = stats_for(to);
  s.recv_seconds += watch.elapsed_seconds();
  s.bytes_received += bytes;
  return out;
}

// ---------------------------------------------------------------------------
// FileTransport

namespace {

// Binary batch envelope: magic, varint identity fields, the sealed
// checksum, the envelope kind (plus the token payload for termination
// probes), then one codec triple block (which carries its own count and
// order-sensitive checksum).  PWB4 drops PWB3's unused token counter and
// seals the header: the stored checksum is the payload checksum XOR a
// digest of every header field, so a damaged header fails Batch::valid()
// exactly as a damaged payload does.
constexpr char kBatchMagic[4] = {'P', 'W', 'B', '4'};

/// Chained digest of the envelope header fields the checksum seals.
std::uint64_t header_digest(const Batch& batch) {
  const bool token = batch.kind == BatchKind::kToken;
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  for (const std::uint64_t field :
       {std::uint64_t{batch.from}, std::uint64_t{batch.to},
        std::uint64_t{batch.round}, std::uint64_t{batch.seq},
        std::uint64_t{batch.attempt}, static_cast<std::uint64_t>(batch.kind),
        std::uint64_t{token ? batch.token_epoch : 0},
        std::uint64_t{token && batch.token_black}}) {
    h = mix64(h ^ field);
  }
  return h;
}

std::string encode_envelope(const Batch& batch) {
  std::string out;
  out.append(kBatchMagic, sizeof(kBatchMagic));
  rdf::codec::put_varint(out, batch.from);
  rdf::codec::put_varint(out, batch.to);
  rdf::codec::put_varint(out, batch.round);
  rdf::codec::put_varint(out, batch.seq);
  rdf::codec::put_varint(out, batch.attempt);
  rdf::codec::put_u64le(out, batch.checksum ^ header_digest(batch));
  rdf::codec::put_varint(out, static_cast<std::uint64_t>(batch.kind));
  if (batch.kind == BatchKind::kToken) {
    rdf::codec::put_varint(out, batch.token_epoch);
    rdf::codec::put_varint(out, batch.token_black ? 1 : 0);
  }
  rdf::codec::encode_block(batch.tuples, out);
  return out;
}

/// Decode a spool file into `batch` (to/round pre-set by the caller from
/// the file name).  Any mismatch or damage clears `intact`; a damaged
/// header that still parses unseals to a wrong checksum.  Either way the
/// ack/retry layer sees an invalid envelope.
void decode_envelope(std::string_view in, Batch& batch) {
  if (in.size() < sizeof(kBatchMagic) ||
      in.compare(0, sizeof(kBatchMagic),
                 std::string_view(kBatchMagic, sizeof(kBatchMagic))) != 0) {
    batch.intact = false;
    return;
  }
  in.remove_prefix(sizeof(kBatchMagic));
  std::uint64_t from = 0, to = 0, round = 0, seq = 0, attempt = 0, kind = 0;
  std::uint64_t sealed = 0;
  if (!rdf::codec::get_varint(in, from) || !rdf::codec::get_varint(in, to) ||
      !rdf::codec::get_varint(in, round) ||
      !rdf::codec::get_varint(in, seq) ||
      !rdf::codec::get_varint(in, attempt) ||
      !rdf::codec::get_u64le(in, sealed) ||
      !rdf::codec::get_varint(in, kind) ||
      kind > static_cast<std::uint64_t>(BatchKind::kStealResult)) {
    batch.intact = false;
    return;
  }
  if (to != batch.to || round != batch.round) {
    batch.intact = false;  // header disagrees with the spool file name
    return;
  }
  if (std::max({from, seq, attempt}) >
      std::numeric_limits<std::uint32_t>::max()) {
    batch.intact = false;  // bits the 32-bit fields (and the seal) drop
    return;
  }
  batch.from = static_cast<std::uint32_t>(from);
  batch.seq = static_cast<std::uint32_t>(seq);
  batch.attempt = static_cast<std::uint32_t>(attempt);
  batch.kind = static_cast<BatchKind>(kind);
  if (batch.kind == BatchKind::kToken) {
    std::uint64_t epoch = 0, black = 0;
    if (!rdf::codec::get_varint(in, epoch) ||
        !rdf::codec::get_varint(in, black) || black > 1 ||
        epoch > std::numeric_limits<std::uint32_t>::max()) {
      batch.intact = false;
      return;
    }
    batch.token_epoch = static_cast<std::uint32_t>(epoch);
    batch.token_black = black != 0;
  }
  batch.checksum = sealed ^ header_digest(batch);
  if (!rdf::codec::decode_block(in, batch.tuples) || !in.empty()) {
    batch.intact = false;
  }
}

/// The round of a spool file name "r<round>_to<t>_...", if well formed.
std::optional<std::uint32_t> spool_round(const std::string& name) {
  std::uint64_t round = 0;
  std::size_t i = 1;
  for (; i < name.size() && name[i] >= '0' && name[i] <= '9' &&
         round <= std::numeric_limits<std::uint32_t>::max();
       ++i) {
    round = round * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  if (!name.starts_with('r') || i == 1 || i == name.size() ||
      name[i] != '_' || round > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(round);
}

}  // namespace

FileTransport::FileTransport(std::filesystem::path spool_dir,
                             std::uint32_t num_partitions)
    : Transport(num_partitions), dir_(std::move(spool_dir)) {
  std::filesystem::create_directories(dir_);
}

FileTransport::~FileTransport() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best-effort spool cleanup
}

std::filesystem::path FileTransport::batch_path(const Batch& batch) const {
  std::ostringstream name;
  name << "r" << batch.round << "_to" << batch.to << "_from" << batch.from
       << "_s" << batch.seq << "_a" << batch.attempt << ".batch";
  return dir_ / name.str();
}

void FileTransport::send_batch(Batch batch) {
  util::Stopwatch watch;
  const auto path = batch_path(batch);
  const auto tmp = std::filesystem::path(path.string() + ".tmp");
  const std::string encoded = encode_envelope(batch);
  const std::uint64_t bytes = encoded.size();  // true bytes-on-wire
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    out.flush();
  }
  // Atomic publish: a crash or a concurrent reader can never observe a
  // partially written batch file.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    util::log_warn("file transport: rename failed for ", path.string(), ": ",
                   ec.message());
  }

  const std::scoped_lock lock(stats_mutex_);
  CommStats& s = stats_for(batch.from);
  s.send_seconds += watch.elapsed_seconds();
  s.bytes_sent += bytes;
  s.messages_sent += 1;
  s.retries += batch.attempt > 0 ? 1 : 0;
}

std::vector<Batch> FileTransport::receive_batches(std::uint32_t to,
                                                  std::uint32_t round) {
  return scan(to, round);
}

std::vector<Batch> FileTransport::receive_all(std::uint32_t to) {
  return scan(to, std::nullopt);
}

std::vector<Batch> FileTransport::scan(std::uint32_t to,
                                       std::optional<std::uint32_t> round) {
  util::Stopwatch watch;
  std::vector<Batch> out;
  std::uint64_t bytes = 0;

  // The round comes from the "r<digits>_" file-name prefix, so
  // decode_envelope can check the header against it.
  const std::string to_marker = "_to" + std::to_string(to) + "_from";
  std::vector<std::pair<std::filesystem::path, std::uint32_t>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const std::optional<std::uint32_t> file_round = spool_round(name);
    if (file_round && (!round || *file_round == *round) &&
        name.ends_with(".batch") &&
        name.compare(name.find('_'), to_marker.size(), to_marker) == 0) {
      files.emplace_back(entry.path(), *file_round);
    }
  }
  std::sort(files.begin(), files.end());  // scan order is fs-dependent

  for (const auto& [path, file_round] : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      continue;
    }
    Batch batch;
    batch.to = to;
    batch.round = file_round;

    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string encoded = buffer.str();
    bytes += encoded.size();
    decode_envelope(encoded, batch);
    in.close();
    std::filesystem::remove(path, ec);  // consumed
    out.push_back(std::move(batch));
  }

  const std::scoped_lock lock(stats_mutex_);
  CommStats& s = stats_for(to);
  s.recv_seconds += watch.elapsed_seconds();
  s.bytes_received += bytes;
  return out;
}

// ---------------------------------------------------------------------------
// FaultyTransport

namespace {

/// Deterministic Fisher-Yates shuffle driven by a SplitMix64 chain from
/// `state`: the same state always yields the same permutation.
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t state) {
  for (std::size_t i = items.size() - 1; i > 0; --i) {
    state = mix64(state);
    std::swap(items[i], items[state % (i + 1)]);
  }
}

}  // namespace

FaultyTransport::FaultyTransport(Transport& inner, FaultSpec spec)
    : Transport(inner.num_partitions()), inner_(inner), spec_(spec) {}

void FaultyTransport::send_batch(Batch batch) {
  // One hash per transmission drives every decision: replayable regardless
  // of thread interleaving, distinct across attempts.
  const std::uint64_t h =
      mix64(spec_.seed ^ mix64(batch.id() * 0x9e3779b97f4a7c15ULL +
                               batch.attempt));
  const double u = hash_unit(h);
  const bool may_fault = batch.attempt < spec_.max_faulty_attempts;

  {
    const std::scoped_lock lock(mutex_);
    log_.attempts += 1;
  }

  if (may_fault && hash_unit(mix64(h ^ 0x5bd1e995)) < spec_.reorder &&
      batch.tuples.size() > 1) {
    // Shuffle the payload: harmless under set semantics, and the
    // order-insensitive checksum stays valid.
    shuffle(batch.tuples, mix64(h ^ 0xda3e39cb94b95bdbULL));
    const std::scoped_lock lock(mutex_);
    log_.reorders += 1;
  }

  double edge = spec_.drop;
  if (may_fault && u < edge) {
    const std::scoped_lock lock(mutex_);
    log_.drops += 1;
    return;  // the envelope vanishes; the sender will retry
  }
  edge += spec_.duplicate;
  if (may_fault && u < edge) {
    {
      const std::scoped_lock lock(mutex_);
      log_.duplicates += 1;
    }
    Batch copy = batch;
    inner_.send_batch(std::move(copy));
    inner_.send_batch(std::move(batch));
    return;
  }
  edge += spec_.corrupt;
  if (may_fault && u < edge && !batch.tuples.empty()) {
    {
      const std::scoped_lock lock(mutex_);
      log_.corruptions += 1;
    }
    // Torn-write style damage: lose the payload tail, keep the stale
    // checksum.  Always detectable (the digest sum changes).
    batch.tuples.pop_back();
    inner_.send_batch(std::move(batch));
    return;
  }
  edge += spec_.delay;
  if (may_fault && u < edge) {
    const std::uint32_t extra =
        1 + static_cast<std::uint32_t>(mix64(h ^ 0xabcdef12345ULL) %
                                       std::max(1u, spec_.max_delay_rounds));
    const std::scoped_lock lock(mutex_);
    log_.delays += 1;
    limbo_.push_back(Delayed{batch.round + extra, extra, std::move(batch)});
    return;
  }

  inner_.send_batch(std::move(batch));
}

std::vector<Batch> FaultyTransport::receive_batches(std::uint32_t to,
                                                    std::uint32_t round) {
  std::vector<Batch> out;
  {
    // Release delayed envelopes whose due round has come.
    const std::scoped_lock lock(mutex_);
    for (auto it = limbo_.begin(); it != limbo_.end();) {
      if (it->batch.to == to && it->due_round <= round) {
        out.push_back(std::move(it->batch));
        it = limbo_.erase(it);
      } else {
        ++it;
      }
    }
  }
  deliver(out, inner_.receive_batches(to, round), to, round);
  return out;
}

std::vector<Batch> FaultyTransport::receive_all(std::uint32_t to) {
  std::vector<Batch> out;
  std::uint64_t poll = 0;
  {
    // No shared round exists in async mode, so delayed envelopes count
    // down `holds` once per destination poll instead of waiting on a due
    // round; release at zero.
    const std::scoped_lock lock(mutex_);
    poll = ++poll_counts_[to];
    for (auto it = limbo_.begin(); it != limbo_.end();) {
      if (it->batch.to == to && it->holds > 0) {
        it->holds -= 1;
      }
      if (it->batch.to == to && it->holds == 0) {
        out.push_back(std::move(it->batch));
        it = limbo_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The destination's poll count stands in for the round.
  deliver(out, inner_.receive_all(to), to, poll);
  return out;
}

void FaultyTransport::deliver(std::vector<Batch>& out,
                              std::vector<Batch> inner, std::uint32_t to,
                              std::uint64_t key) {
  out.insert(out.end(), std::make_move_iterator(inner.begin()),
             std::make_move_iterator(inner.end()));
  if (out.size() < 2) {
    return;
  }
  const std::uint64_t h =
      mix64(spec_.seed ^ mix64((static_cast<std::uint64_t>(to) << 32) ^ key) ^
            out.size());
  if (hash_unit(h) < spec_.reorder) {
    shuffle(out, mix64(h ^ 0x2545f4914f6cdd1dULL));
    const std::scoped_lock lock(mutex_);
    log_.reorders += 1;
  }
}

CommStats FaultyTransport::stats(std::uint32_t partition) const {
  // Traffic counters live on the inner transport; protocol verdicts
  // (redeliveries, checksum failures) are noted against the decorator the
  // workers talk to.  Merge both views.
  CommStats merged = inner_.stats(partition);
  merged.merge(Transport::stats(partition));
  return merged;
}

FaultLog FaultyTransport::injected_faults() const {
  const std::scoped_lock lock(mutex_);
  return log_;
}

std::size_t FaultyTransport::limbo_remaining() const {
  const std::scoped_lock lock(mutex_);
  return limbo_.size();
}

obs::FieldList fields(const CommStats& s) {
  return {
      {"send_seconds", s.send_seconds},
      {"recv_seconds", s.recv_seconds},
      {"bytes_sent", s.bytes_sent},
      {"bytes_received", s.bytes_received},
      {"messages_sent", s.messages_sent},
      {"retries", s.retries},
      {"redeliveries", s.redeliveries},
      {"checksum_failures", s.checksum_failures},
  };
}

obs::FieldList fields(const FaultLog& log) {
  return {
      {"attempts", log.attempts},
      {"drops", log.drops},
      {"duplicates", log.duplicates},
      {"corruptions", log.corruptions},
      {"delays", log.delays},
      {"reorders", log.reorders},
  };
}

}  // namespace parowl::parallel
