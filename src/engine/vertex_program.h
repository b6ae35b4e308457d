#ifndef VCMP_ENGINE_VERTEX_PROGRAM_H_
#define VCMP_ENGINE_VERTEX_PROGRAM_H_

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "engine/message.h"
#include "graph/graph.h"

namespace vcmp {

/// Messaging interface handed to VertexProgram::Compute. Implemented by the
/// engines; routes messages, applies combining, and accounts statistics.
class MessageSink {
 public:
  virtual ~MessageSink() = default;

  /// Sends to a specific vertex. Illegal under the mirror/broadcast-only
  /// interface (Pregel+(mirror) only exposes Broadcast, Section 3).
  virtual void Send(VertexId target, uint32_t tag, double value,
                    double multiplicity) = 0;

  /// Delivers (tag, value, multiplicity-per-neighbour) to every neighbour
  /// of `from`. Under mirroring, one wire message per mirror machine; in
  /// basic engines this expands to per-neighbour sends.
  virtual void Broadcast(VertexId from, uint32_t tag, double value,
                         double multiplicity_per_neighbor) = 0;

  /// Declares extra modelled compute (in edge-scan units) that does not
  /// emit one message per unit, e.g. scanning an adjacency list.
  virtual void AddComputeUnits(double units) = 0;

  /// Contributes to the round's global sum aggregator (the Pregel
  /// aggregator mechanism). The engine folds all contributions during the
  /// round and hands the total to VertexProgram::TerminateOnAggregate
  /// after the round's barrier.
  virtual void Aggregate(double value) = 0;

  /// Records bytes of intermediate results produced at the current vertex
  /// that must survive until final aggregation (the paper's residual
  /// memory). The engine accumulates these into a per-machine ledger and
  /// reports them in the result, so programs need no shared per-machine
  /// arrays of their own — which would race once vertices of one machine
  /// execute on different shards. Sinks that do not model memory ignore it.
  virtual void AddResidualBytes(double bytes) { (void)bytes; }

  /// Current communication round (0 = the seeding superstep).
  virtual uint64_t round() const = 0;

  /// Deterministic per-run random stream.
  virtual Rng& rng() = 0;
};

/// One contiguous (vertex, tag) message run, straight out of the
/// worker's grouped SoA columns. `values[i]` / `multiplicities[i]` for
/// i in [0, count) are the run's messages in the engine's deterministic
/// grouping order (stable by arrival).
struct MessageRunView {
  uint32_t tag = 0;
  const double* values = nullptr;
  const double* multiplicities = nullptr;
  size_t count = 0;

  /// Left-to-right sum of the run's values — the fold most tasks
  /// (PageRank, BPPR walk counts) perform per tag group.
  double SumValues() const {
    double sum = 0.0;
    for (size_t i = 0; i < count; ++i) sum += values[i];
    return sum;
  }
};

/// A vertex-centric computation in the Pregel style (Section 2.1).
///
/// Round 0 calls Compute for every vertex with an empty inbox (the seeding
/// superstep). In later rounds, Compute runs only for vertices that
/// received messages — the vote-to-halt default. The engine terminates
/// when a round sends no messages, when the program requests termination,
/// or at the round cap.
///
/// Programs may additionally opt into the batched run path (UsesComputeRun
/// returning true): rounds >= 1 then call ComputeRun once per contiguous
/// (vertex, tag) run instead of Compute once per vertex with an AoS span.
/// The determinism contract for an opted-in program is that the sequence
/// of sink calls and RNG draws it makes across the round's runs is
/// *identical* to what its Compute would make over the same grouped
/// inbox — the engine delivers runs in exactly the (target, tag) order
/// Compute's span would present, so a program whose Compute folds each
/// tag group independently (all of ours do) ports mechanically.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// The per-vertex user function. `inbox` holds this round's messages for
  /// v, grouped by the engine (empty in round 0). Round 0 always uses this
  /// entry point; later rounds use it when UsesComputeRun() is false.
  virtual void Compute(VertexId v, std::span<const Message> inbox,
                       MessageSink& sink) = 0;

  /// True if the program implements ComputeRun; the engine then skips the
  /// AoS inbox materialization entirely.
  virtual bool UsesComputeRun() const { return false; }

  /// Batched entry point: one call per (v, tag) run in ascending
  /// (target, tag) order. Default is unreachable (engines only call it
  /// when UsesComputeRun() is true).
  virtual void ComputeRun(VertexId v, const MessageRunView& run,
                          MessageSink& sink) {
    (void)v;
    (void)run;
    (void)sink;
  }

  /// Explicit termination check evaluated after each round, for programs
  /// with round-count semantics (e.g. BKHS stops after k+1 rounds).
  virtual bool ShouldTerminate(uint64_t rounds_completed) const {
    (void)rounds_completed;
    return false;
  }

  /// Convergence check on the round's global aggregator sum (e.g.
  /// PageRank terminates when the summed rank delta drops below a
  /// tolerance). Only called for rounds where at least one vertex
  /// aggregated a value.
  virtual bool TerminateOnAggregate(double aggregate_sum) const {
    (void)aggregate_sum;
    return false;
  }

  /// Bytes of vertex state held on `machine` (generated-graph scale; the
  /// engine applies the dataset scale factor).
  virtual double StateBytes(uint32_t machine) const {
    (void)machine;
    return 0.0;
  }

  /// Bytes of intermediate results on `machine` that must survive until
  /// final aggregation — the paper's residual memory. Grows as the batch
  /// progresses (e.g. terminated-walk records).
  virtual double ResidualBytes(uint32_t machine) const {
    (void)machine;
    return 0.0;
  }

  /// Sender-side combiner, or nullptr when messages must not be merged.
  virtual const Combiner* combiner() const { return nullptr; }

  /// Upper bound on the tag values this program ever sends: every tag is
  /// in [0, tag_universe()), or 0 when tags are unbounded / unknown (e.g.
  /// tags carrying raw vertex ids). A bounded universe numbers each
  /// (target, tag) key a machine can receive with a dense slot (local
  /// vertex x tags + tag). When the largest machine's slot space is small
  /// enough, the synchronous engine builds every in-memory, unmirrored
  /// inbox straight from the senders' arenas through direct-indexed slot
  /// tables — grouped delivery, which folds to one element per key when
  /// combining and counting-sorts the raw messages otherwise — instead of
  /// merging per-pair outboxes, delivering them and grouping at the
  /// receiver; combining runs outside that path use the same slots in
  /// place of the hash-probe combine index. Results are identical either
  /// way; a tag outside the declared universe is a program error.
  virtual uint32_t tag_universe() const { return 0; }
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_VERTEX_PROGRAM_H_
