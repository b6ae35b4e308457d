#ifndef VCMP_ENGINE_WORKER_H_
#define VCMP_ENGINE_WORKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/message.h"
#include "engine/message_block.h"
#include "graph/partition.h"

namespace vcmp {

/// Send-side statistics a worker accumulates during one round, at
/// generated-graph scale.
struct WorkerSendStats {
  /// Logical messages sent (sum of multiplicities).
  double logical_sent = 0.0;
  /// Wire messages sent (post-combining physical count; equals
  /// logical_sent for non-combining systems).
  double wire_sent = 0.0;
  /// Wire messages destined to other machines.
  double wire_cross = 0.0;
  /// Logical messages destined to other machines.
  double logical_cross = 0.0;

  void Clear() { *this = WorkerSendStats{}; }
};

/// Open-addressing (target, tag) -> outbox-position index: the one key
/// lookup of the engine's per-(sender, destination) combining merge,
/// which profile-level combining (GraphLab) runs. Engine-level
/// sender_combining folds inside grouped delivery's direct-indexed slot
/// table instead and never touches it.
///
/// Power-of-two capacity with linear probing; a per-slot epoch stamp makes
/// Clear() O(1) (bump the epoch) instead of rehashing or deallocating, so
/// the table's memory survives rounds and its hot slots stay cached.
/// FindOrInsert is inline: it sits inside the merge loop, one call per
/// staged message.
class CombineIndex {
 public:
  /// Looks up `key`; inserts it mapping to `fresh_value` when absent.
  /// Returns the stored value and sets *inserted accordingly.
  size_t FindOrInsert(uint64_t key, size_t fresh_value, bool* inserted) {
    if (size_ * 4 >= slots_.size() * 3) Grow();  // Load factor cap: 3/4.
    uint64_t hash = key * 0x9e3779b97f4a7c15ULL;
    size_t index = (hash ^ (hash >> 29)) & mask_;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {  // Empty or stale from a cleared round.
        slot.key = key;
        slot.value = fresh_value;
        slot.epoch = epoch_;
        ++size_;
        *inserted = true;
        return fresh_value;
      }
      if (slot.key == key) {
        *inserted = false;
        return slot.value;
      }
      index = (index + 1) & mask_;
    }
  }

  /// Logically empties the index, keeping capacity (epoch bump).
  void Clear() {
    ++epoch_;
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t epoch = 0;  // Slot is live iff epoch == CombineIndex::epoch_.
    size_t value = 0;
  };

  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint64_t epoch_ = 1;  // Starts above the default slot epoch (0).
};

/// Per-machine message buffers of a simulated worker.
///
/// A Worker owns the machine's inbox for the current round and the staging
/// outboxes of the round in progress, all in SoA MessageBlock layout. The
/// engine fills the outboxes directly (outbox(), combine_index()) and
/// delivers them with SwapOutbox / Drain. All buffers retain their
/// capacity across rounds and Reset calls: the steady state of a
/// multi-round run performs no per-round allocations.
///
/// GroupInbox() no longer permutes whole messages. It sorts packed
/// (target, tag) keys carrying 4-byte indices, gathers only the payload
/// columns, and publishes the result as `runs()` (one MessageRun per
/// (target, tag) group, ascending) over `grouped_values()` /
/// `grouped_multiplicities()`. The inbox's own target/tag columns are
/// left in arrival order — consumers must read groups via runs().
class Worker {
 public:
  Worker() = default;

  /// Prepares outboxes for `num_machines` destinations. Buffer capacity
  /// from earlier rounds/runs is retained.
  void Reset(uint32_t num_machines);

  /// Declares the vertex-id universe [0, universe). Lets GroupInbox pick
  /// a dense counting pass when the inbox occupancy is high enough.
  void set_vertex_space(VertexId universe) { vertex_space_ = universe; }

  /// Appends this worker's outbox for `machine` to `dest`, then clears the
  /// outbox (capacity retained).
  void Drain(uint32_t machine, MessageBlock* dest);

  /// Number of messages currently staged for `machine`.
  size_t OutboxSize(uint32_t machine) const {
    return outboxes_[machine].size();
  }

  /// O(1) delivery for the single-sender case: swaps the outbox for
  /// `machine` with `*dest` (which must be empty), so both buffers'
  /// capacities keep recycling with zero copies.
  void SwapOutbox(uint32_t machine, MessageBlock* dest);

  MessageBlock& inbox() { return inbox_; }
  const MessageBlock& inbox() const { return inbox_; }
  WorkerSendStats& send_stats() { return send_stats_; }
  const WorkerSendStats& send_stats() const { return send_stats_; }

  /// The staging outbox / combining index for one destination. The
  /// engine's merge fills these from the per-shard arenas (one merge task
  /// owns exactly one (sender, destination) pair, so no two tasks touch
  /// the same buffer).
  MessageBlock& outbox(uint32_t machine) { return outboxes_[machine]; }
  CombineIndex& combine_index(uint32_t machine) {
    return combine_index_[machine];
  }

  /// Groups the inbox by (target, tag) and publishes runs() +
  /// grouped_values()/grouped_multiplicities(). Messages with equal
  /// (target, tag) keep their arrival order within the run's payload
  /// (stable), which fixes the grouping order independently of inbox
  /// size and sort strategy. Strategy per round: already-sorted inboxes
  /// are detected and skipped; tiny inboxes comparison-sort; high-
  /// occupancy single-tag inboxes use a dense per-vertex counting pass;
  /// everything else runs a byte-skipping LSD radix over (key, index)
  /// pairs. Only the two 8-byte payload columns are gathered.
  void GroupInbox();

  /// Engine fast path for grouped delivery (DESIGN.md §16): the
  /// per-destination builder writes this worker's inbox payload already
  /// grouped — ascending (target, tag), arrival order within each key,
  /// one element per key when it folded — and writes the matching runs
  /// into pregrouped_runs() in the same pass, so no grouping pass is
  /// needed. PublishPregroupedRuns() then replaces GroupInbox() for the
  /// round; the published state is bit-identical to what grouping the
  /// sender-major inbox would produce. Only the inbox's payload columns
  /// are written on this path — the runs are the round's sole key
  /// source, so the target/tag columns hold unspecified bytes (the
  /// GroupInbox contract already routes every consumer through runs()).
  std::vector<MessageRun>& pregrouped_runs() { return runs_; }
  void PublishPregroupedRuns();

  /// The (target, tag) runs of the grouped inbox, ascending; valid after
  /// GroupInbox() until the inbox is next modified. Runs with equal
  /// target are adjacent — this doubles as the round's sparse
  /// active-vertex frontier (one or more runs per active vertex).
  std::span<const MessageRun> runs() const { return runs_; }

  /// Payload columns aligned with runs(): element i of the grouped inbox
  /// is (values[i], multiplicities[i]).
  const double* grouped_values() const { return grouped_values_ptr_; }
  const double* grouped_multiplicities() const { return grouped_mults_ptr_; }

  /// AoS view of the grouped inbox for programs without a ComputeRun
  /// implementation (built lazily, reused within the round). Valid until
  /// the inbox is next modified.
  std::span<const Message> MaterializedInbox();

  /// Enables phase-time collection (see group_ns). Off by default; the
  /// hot path then pays a single predictable branch.
  void set_collect_timing(bool on) { collect_timing_ = on; }
  /// Nanoseconds spent in GroupInbox since the last Reset, when timing
  /// collection is enabled.
  uint64_t group_ns() const { return group_ns_; }

 private:
  /// Sort key (key, original index) pair; 4-byte index keeps the radix
  /// element at 16 bytes vs the 24-byte Message it replaces.
  struct KeyIdx {
    uint64_t key = 0;
    uint32_t idx = 0;
  };

  void GroupNonEmpty(size_t n);
  void SortPairsAndGather(uint64_t varying, size_t n);
  void GroupDense(size_t n);
  void BuildRunsFromKeys(size_t n);

  MessageBlock inbox_;
  std::vector<MessageBlock> outboxes_;  // One per target machine.
  /// Per-destination combining index, used only when combining.
  std::vector<CombineIndex> combine_index_;
  VertexId vertex_space_ = 0;

  // Grouping state, rebuilt by GroupInbox() each round (capacity kept).
  std::vector<uint64_t> keys_;
  std::vector<KeyIdx> pairs_;
  std::vector<KeyIdx> pair_scratch_;
  std::vector<uint32_t> counts_;  // Dense counting-sort histogram.
  std::vector<MessageRun> runs_;
  std::vector<double> grouped_values_;
  std::vector<double> grouped_mults_;
  const double* grouped_values_ptr_ = nullptr;
  const double* grouped_mults_ptr_ = nullptr;
  // vcmp:lint-allow(P1, sanctioned AoS fallback view for programs without ComputeRun)
  std::vector<Message> aos_scratch_;
  bool aos_valid_ = false;

  WorkerSendStats send_stats_;
  bool collect_timing_ = false;
  uint64_t group_ns_ = 0;
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_WORKER_H_
