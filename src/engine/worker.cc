#include "engine/worker.h"

#include <algorithm>
#include <array>

#include "common/wall_clock.h"

namespace vcmp {
namespace {

/// Diagnostic phase timer only (group_ns, off by default);
/// never feeds reports or traces, so it reads the one sanctioned
/// wall-clock seam instead of std::chrono directly.
inline uint64_t NowNs() { return wallclock::NowNs(); }

/// Below this size a comparison sort beats the radix passes' fixed costs
/// (histogram zeroing, scratch traffic).
constexpr size_t kRadixThreshold = 64;

}  // namespace

void CombineIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = old.empty() ? 64 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.epoch != epoch_) continue;
    uint64_t hash = slot.key * 0x9e3779b97f4a7c15ULL;
    size_t index = (hash ^ (hash >> 29)) & mask_;
    while (slots_[index].epoch == epoch_) index = (index + 1) & mask_;
    slots_[index] = slot;
  }
}

void Worker::Reset(uint32_t num_machines) {
  // Resize (not assign) so that inner buffers keep their capacity across
  // rounds and repeated engine runs — the steady state allocates nothing.
  outboxes_.resize(num_machines);
  combine_index_.resize(num_machines);
  for (MessageBlock& outbox : outboxes_) outbox.Clear();
  for (CombineIndex& index : combine_index_) index.Clear();
  inbox_.Clear();
  runs_.clear();
  grouped_values_ptr_ = nullptr;
  grouped_mults_ptr_ = nullptr;
  aos_valid_ = false;
  send_stats_.Clear();
  group_ns_ = 0;
}

void Worker::Drain(uint32_t machine, MessageBlock* dest) {
  MessageBlock& outbox = outboxes_[machine];
  dest->Append(outbox);
  outbox.Clear();
  combine_index_[machine].Clear();
}

void Worker::SwapOutbox(uint32_t machine, MessageBlock* dest) {
  dest->Swap(outboxes_[machine]);
  combine_index_[machine].Clear();
}

void Worker::GroupInbox() {
  const uint64_t t0 = collect_timing_ ? NowNs() : 0;
  const size_t n = inbox_.size();
  runs_.clear();
  aos_valid_ = false;
  grouped_values_ptr_ = inbox_.values();
  grouped_mults_ptr_ = inbox_.multiplicities();
  if (n > 0) GroupNonEmpty(n);
  if (collect_timing_) group_ns_ += NowNs() - t0;
}

void Worker::PublishPregroupedRuns() {
  // runs_ was filled by the engine's per-destination inbox builder
  // through pregrouped_runs(); the payload stays in the inbox columns,
  // exactly like the sorted fast path.
  aos_valid_ = false;
  grouped_values_ptr_ = inbox_.values();
  grouped_mults_ptr_ = inbox_.multiplicities();
}

void Worker::GroupNonEmpty(size_t n) {
  // One scan packs the keys, finds the bytes that actually vary
  // (targets/tags rarely use all 64 bits, so most radix passes skip),
  // and detects an already-sorted inbox — common after single-sender
  // combining — which needs no permutation at all.
  keys_.resize(n);
  const VertexId* targets = inbox_.targets();
  const uint32_t* tags = inbox_.tags();
  uint64_t all_or = 0;
  uint64_t all_and = ~uint64_t{0};
  uint64_t prev = 0;
  bool sorted = true;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = (static_cast<uint64_t>(targets[i]) << 32) | tags[i];
    keys_[i] = key;
    all_or |= key;
    all_and &= key;
    sorted &= (key >= prev);
    prev = key;
  }

  if (sorted) {
    BuildRunsFromKeys(n);  // Payload stays in the inbox columns.
  } else {
    const uint64_t varying = all_or ^ all_and;
    const bool single_tag = (varying & 0xffffffffULL) == 0;
    if (single_tag && vertex_space_ > 0 &&
        n >= static_cast<size_t>(vertex_space_)) {
      // High occupancy, one tag: a dense per-vertex counting pass beats
      // the radix passes and emits the runs directly.
      GroupDense(n);
    } else {
      SortPairsAndGather(varying, n);
      BuildRunsFromKeys(n);
    }
    grouped_values_ptr_ = grouped_values_.data();
    grouped_mults_ptr_ = grouped_mults_.data();
  }
}

void Worker::SortPairsAndGather(uint64_t varying, size_t n) {
  pairs_.resize(n);
  for (size_t i = 0; i < n; ++i) pairs_[i] = KeyIdx{keys_[i], uint32_t(i)};

  if (n < kRadixThreshold) {
    std::stable_sort(
        pairs_.begin(), pairs_.end(),
        [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  } else {
    pair_scratch_.resize(n);
    KeyIdx* src = pairs_.data();
    KeyIdx* dst = pair_scratch_.data();
    bool in_scratch = false;
    for (int byte = 0; byte < 8; ++byte) {
      const int shift = byte * 8;
      if (((varying >> shift) & 0xff) == 0) continue;  // Constant digit.
      std::array<uint32_t, 256> counts{};
      for (size_t i = 0; i < n; ++i) {
        counts[(src[i].key >> shift) & 0xff]++;
      }
      uint32_t offset = 0;
      std::array<uint32_t, 256> starts;
      for (int digit = 0; digit < 256; ++digit) {
        starts[digit] = offset;
        offset += counts[digit];
      }
      for (size_t i = 0; i < n; ++i) {  // Stable scatter (LSD).
        dst[starts[(src[i].key >> shift) & 0xff]++] = src[i];
      }
      std::swap(src, dst);
      in_scratch = !in_scratch;
    }
    if (in_scratch) pairs_.swap(pair_scratch_);
  }

  // Gather only the payload columns through the permutation, and write
  // the sorted keys back so run building reads one flat array.
  grouped_values_.resize(n);
  grouped_mults_.resize(n);
  const double* values = inbox_.values();
  const double* mults = inbox_.multiplicities();
  for (size_t i = 0; i < n; ++i) {
    const KeyIdx pair = pairs_[i];
    keys_[i] = pair.key;
    grouped_values_[i] = values[pair.idx];
    grouped_mults_[i] = mults[pair.idx];
  }
}

void Worker::GroupDense(size_t n) {
  const VertexId* targets = inbox_.targets();
  const uint32_t tag = inbox_.tags()[0];  // Single-tag precondition.
  counts_.assign(vertex_space_, 0);
  for (size_t i = 0; i < n; ++i) counts_[targets[i]]++;

  // Exclusive prefix sum; nonzero counts become runs (ascending target),
  // and counts_ is repurposed as the per-target scatter cursor.
  uint32_t offset = 0;
  for (VertexId t = 0; t < vertex_space_; ++t) {
    const uint32_t count = counts_[t];
    if (count != 0) {
      runs_.push_back(MessageRun{t, tag, offset, offset + count});
    }
    counts_[t] = offset;
    offset += count;
  }

  grouped_values_.resize(n);
  grouped_mults_.resize(n);
  const double* values = inbox_.values();
  const double* mults = inbox_.multiplicities();
  for (size_t i = 0; i < n; ++i) {  // Stable scatter (input order).
    const uint32_t pos = counts_[targets[i]]++;
    grouped_values_[pos] = values[i];
    grouped_mults_[pos] = mults[i];
  }
}

void Worker::BuildRunsFromKeys(size_t n) {
  size_t i = 0;
  while (i < n) {
    const uint64_t key = keys_[i];
    size_t j = i + 1;
    while (j < n && keys_[j] == key) ++j;
    runs_.push_back(MessageRun{static_cast<VertexId>(key >> 32),
                               static_cast<uint32_t>(key),
                               static_cast<uint32_t>(i),
                               static_cast<uint32_t>(j)});
    i = j;
  }
}

std::span<const Message> Worker::MaterializedInbox() {
  if (!aos_valid_) {
    const size_t n = inbox_.size();
    aos_scratch_.resize(n);
    const double* values = grouped_values_ptr_;
    const double* mults = grouped_mults_ptr_;
    for (const MessageRun& run : runs_) {
      for (uint32_t i = run.begin; i < run.end; ++i) {
        aos_scratch_[i] = Message{run.target, run.tag, values[i], mults[i]};
      }
    }
    aos_valid_ = true;
  }
  return {aos_scratch_.data(), inbox_.size()};
}

}  // namespace vcmp
