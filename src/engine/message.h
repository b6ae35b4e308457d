#ifndef VCMP_ENGINE_MESSAGE_H_
#define VCMP_ENGINE_MESSAGE_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace vcmp {

/// One physical message routed between vertices.
///
/// `multiplicity` makes the message *logical-count aware*: a physical
/// message standing for k paper-level messages (e.g. k random walks taking
/// the same step, or a sampled MSSP source representing k real sources)
/// carries multiplicity k. All congestion/memory/network statistics count
/// logical units, so the simulated cluster sees exactly the traffic the
/// real system would, while the process routes far fewer objects.
struct Message {
  VertexId target = 0;
  /// Task-defined discriminator (e.g. source vertex of a walk or query).
  /// Messages with equal (target, tag) may be merged by a Combiner.
  uint32_t tag = 0;
  /// Task payload (walk count, path length, rank mass, ...).
  double value = 0.0;
  /// Number of paper-level messages this physical message represents.
  double multiplicity = 1.0;

  std::string ToString() const;
};

/// Merge strategy discriminator so the staging hot path can inline the
/// two ubiquitous folds (sum, min) instead of paying a virtual Merge
/// call per staged message. kCustom keeps the virtual dispatch.
enum class CombinerKind : uint8_t {
  kCustom = 0,
  kSum,
  kMin,
};

/// Sender-side combining of messages with equal (target, tag), the
/// mechanism behind Pregel combiners and GraphLab(sync)'s message merging
/// (Section 4.8). Merging never changes the logical multiplicity — only
/// the number of wire messages.
class Combiner {
 public:
  virtual ~Combiner() = default;

  /// Folds `from` into `into`; both have equal (target, tag). The
  /// implementation must add multiplicities.
  virtual void Merge(Message& into, const Message& from) const = 0;

  /// Which inlinable fold this combiner performs. Overriding with kSum /
  /// kMin promises Merge is exactly the corresponding fold below; the
  /// engine then bypasses the virtual call on the staging path.
  virtual CombinerKind kind() const { return CombinerKind::kCustom; }
};

/// Combiner that sums values (walk counts, rank mass).
class SumCombiner : public Combiner {
 public:
  void Merge(Message& into, const Message& from) const override {
    into.value += from.value;
    into.multiplicity += from.multiplicity;
  }
  CombinerKind kind() const override { return CombinerKind::kSum; }
};

/// Combiner that keeps the minimum value (shortest-path distances).
/// The strict `<` keeps the earlier message on ties (including ±0.0), which
/// makes the value fold associative (the result is always an operand; tasks
/// must not send NaN).
class MinCombiner : public Combiner {
 public:
  void Merge(Message& into, const Message& from) const override {
    if (from.value < into.value) into.value = from.value;
    into.multiplicity += from.multiplicity;
  }
  CombinerKind kind() const override { return CombinerKind::kMin; }
};

}  // namespace vcmp

#endif  // VCMP_ENGINE_MESSAGE_H_
