// Tests of sender-side combining (DESIGN.md §16): the Sum/Min combiner
// fold semantics the unified combine path relies on, the contract that
// enabling combining changes wire traffic but never task results (at
// every shard and thread count, on both sides of the dense-slot gate),
// and the equivalence of serial GroupInbox against the pool-wide
// parallel grouping passes for every grouping strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/message.h"
#include "engine/sync_engine.h"
#include "engine/worker.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

// --- Combiner fold semantics -----------------------------------------

TEST(SumCombinerTest, MergeAddsValueAndMultiplicity) {
  SumCombiner combiner;
  Message into{7, 3, 1.5, 2.0};
  const Message from{7, 3, 2.25, 3.0};
  combiner.Merge(into, from);
  EXPECT_EQ(into.value, 3.75);
  EXPECT_EQ(into.multiplicity, 5.0);
  EXPECT_EQ(into.target, 7u);
  EXPECT_EQ(into.tag, 3u);
  EXPECT_EQ(combiner.kind(), CombinerKind::kSum);
}

TEST(SumCombinerTest, FoldOrderPinsFloatingPointResult) {
  // The engine's determinism contract is that a combined run folds in
  // exactly the left-to-right order a receiver-side fold over the stable
  // grouped inbox would use. These inputs make the order observable:
  // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) round differently.
  const double a = 0.1, b = 0.2, c = 0.3;
  ASSERT_NE((a + b) + c, a + (b + c));

  SumCombiner combiner;
  Message into{0, 0, a, 1.0};
  combiner.Merge(into, Message{0, 0, b, 1.0});
  combiner.Merge(into, Message{0, 0, c, 1.0});
  EXPECT_EQ(into.value, (a + b) + c);

  // Seeding the fold at the additive identity (how the unified combine
  // table opens a fresh slot) must be a bitwise no-op for the sequence.
  Message seeded{0, 0, 0.0, 0.0};
  combiner.Merge(seeded, Message{0, 0, a, 1.0});
  combiner.Merge(seeded, Message{0, 0, b, 1.0});
  combiner.Merge(seeded, Message{0, 0, c, 1.0});
  EXPECT_EQ(seeded.value, into.value);
  EXPECT_EQ(seeded.multiplicity, into.multiplicity);
}

TEST(MinCombinerTest, KeepsMinimumAndSumsMultiplicity) {
  MinCombiner combiner;
  Message into{4, 1, 9.0, 2.0};
  combiner.Merge(into, Message{4, 1, 3.0, 5.0});
  EXPECT_EQ(into.value, 3.0);
  EXPECT_EQ(into.multiplicity, 7.0);
  combiner.Merge(into, Message{4, 1, 8.0, 1.0});
  EXPECT_EQ(into.value, 3.0);  // Larger value never wins.
  EXPECT_EQ(into.multiplicity, 8.0);
  EXPECT_EQ(combiner.kind(), CombinerKind::kMin);
}

TEST(MinCombinerTest, StrictLessKeepsEarlierMessageOnTies) {
  // The strict `<` makes the value fold associative: ties — including
  // the ±0.0 pair, which compare equal — keep the earlier operand, so
  // any fold tree picks the same representative.
  MinCombiner combiner;
  Message neg_zero_first{0, 0, -0.0, 1.0};
  combiner.Merge(neg_zero_first, Message{0, 0, +0.0, 1.0});
  EXPECT_TRUE(std::signbit(neg_zero_first.value));

  Message pos_zero_first{0, 0, +0.0, 1.0};
  combiner.Merge(pos_zero_first, Message{0, 0, -0.0, 1.0});
  EXPECT_FALSE(std::signbit(pos_zero_first.value));

  // Seeding a fresh fold slot at +inf (the min identity) is a no-op.
  Message seeded{0, 0, std::numeric_limits<double>::infinity(), 0.0};
  combiner.Merge(seeded, Message{0, 0, 5.0, 2.0});
  EXPECT_EQ(seeded.value, 5.0);
  EXPECT_EQ(seeded.multiplicity, 2.0);
}

// --- Engine-level combining on/off -----------------------------------

/// Full bit-identity including wire traffic — for runs that must be
/// indistinguishable (same combining setting, different thread counts or
/// internal toggles).
void ExpectRunsBitIdentical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_wire_messages, b.total_wire_messages);
  EXPECT_EQ(a.total_logical_sent, b.total_logical_sent);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].messages, b.rounds[i].messages) << "round " << i;
    EXPECT_EQ(a.rounds[i].cross_machine_bytes,
              b.rounds[i].cross_machine_bytes)
        << "round " << i;
  }
}

struct CombineRunOptions {
  bool combining = false;
  uint32_t threads = 1;
  uint32_t shards = 0;  // 0 = the engine default.
  bool parallel_grouping = true;
};

EngineOptions MakeOptions(const CombineRunOptions& opts, uint32_t machines) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.execution_threads = opts.threads;
  options.clamp_threads_to_hardware = false;
  options.sender_combining = opts.combining;
  options.compute_shards_per_machine = opts.shards;
  options.parallel_grouping = opts.parallel_grouping;
  return options;
}

/// One MSSP batch (8 sampled sources -> tag universe 8, MinCombiner) on
/// a fixed R-MAT graph. Returns the engine stats plus every per-sample
/// distance, so result identity is checked at task-output granularity.
std::pair<EngineResult, std::vector<uint32_t>> RunMssp(
    const CombineRunOptions& opts) {
  RmatParams rmat;
  rmat.num_vertices = 2000;
  rmat.num_edges = 12000;
  rmat.seed = 77;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, MakeOptions(opts, 4));
  TaskContext context{&graph, &part, 1.0, opts.combining};
  MsspProgram program(context, ProgramFlavor::kPointToPoint,
                      /*workload=*/8.0, MsspTask::Params{}, /*seed=*/5);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok());
  std::vector<uint32_t> distances;
  distances.reserve(static_cast<size_t>(program.num_samples()) *
                    graph.NumVertices());
  for (uint32_t sample = 0; sample < program.num_samples(); ++sample) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      distances.push_back(program.Distance(sample, v));
    }
  }
  return {result.value_or(EngineResult{}), std::move(distances)};
}

/// One stochastic BPPR counting batch (SumCombiner over walk counts).
/// Random-walk forwarding is the hardest determinism case: any change in
/// fold order that leaked into values would move TotalStopped().
std::pair<EngineResult, uint64_t> RunBpprCounting(
    const CombineRunOptions& opts) {
  RmatParams rmat;
  rmat.num_vertices = 2000;
  rmat.num_edges = 12000;
  rmat.seed = 41;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, MakeOptions(opts, 4));
  TaskContext context{&graph, &part, 1.0, opts.combining};
  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
  auto result = engine.Run(program);
  EXPECT_TRUE(result.ok());
  return {result.value_or(EngineResult{}), program.TotalStopped()};
}

TEST(SenderCombiningTest, MsspResultsIdenticalWithAndWithoutCombining) {
  auto [off, off_dist] = RunMssp({.combining = false});
  auto [on, on_dist] = RunMssp({.combining = true});
  // Combining changes the wire, never the task result or message flow.
  EXPECT_EQ(off_dist, on_dist);
  EXPECT_EQ(off.num_rounds, on.num_rounds);
  EXPECT_EQ(off.total_messages, on.total_messages);
  EXPECT_EQ(off.total_logical_sent, on.total_logical_sent);
  // The off run sends one wire message per logical unit; the on run
  // must actually merge some (a 2000-vertex R-MAT has many vertices
  // reached from several frontier neighbours in the same round).
  EXPECT_EQ(off.CombinedRatio(), 1.0);
  EXPECT_GT(on.CombinedRatio(), 1.0);
  EXPECT_LT(on.total_wire_messages, off.total_wire_messages);
}

TEST(SenderCombiningTest, MsspCombinedRunBitIdenticalAcrossThreads) {
  auto [serial, serial_dist] = RunMssp({.combining = true, .threads = 1});
  for (uint32_t threads : {2u, 8u}) {
    auto [threaded, threaded_dist] =
        RunMssp({.combining = true, .threads = threads});
    ExpectRunsBitIdentical(serial, threaded);
    EXPECT_EQ(serial_dist, threaded_dist);
  }
}

/// Runs `run` (returning {EngineResult, task output}) with combining on
/// across shard counts, thread counts and the parallel_grouping toggle,
/// and requires every run to match the single-shard serial one bit for
/// bit. Shards cut each machine's emission stream into per-shard arenas
/// that the combine fold concatenates in shard order, so the shard count
/// must never reach a folded value or a wire count.
template <typename RunFn>
void ExpectCombinedRunsInvariantToShardsAndThreads(RunFn run) {
  auto [base, base_output] =
      run(CombineRunOptions{.combining = true, .threads = 1, .shards = 1});
  for (uint32_t shards : {1u, 3u, 16u, 64u}) {
    for (uint32_t threads : {1u, 8u}) {
      for (bool par_group : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "shards=" << shards << " threads=" << threads
                     << " parallel_grouping=" << par_group);
        auto [other, output] = run(CombineRunOptions{
            .combining = true,
            .threads = threads,
            .shards = shards,
            .parallel_grouping = par_group});
        ExpectRunsBitIdentical(base, other);
        EXPECT_EQ(base_output, output);
      }
    }
  }
}

TEST(SenderCombiningTest, MsspCombinedRunInvariantToShardCount) {
  ExpectCombinedRunsInvariantToShardsAndThreads(RunMssp);
}

TEST(SenderCombiningTest, BpprCountingCombinedRunInvariantToShardCount) {
  ExpectCombinedRunsInvariantToShardsAndThreads(RunBpprCounting);
}

TEST(SenderCombiningTest, StochasticWalkCountsSurviveCombining) {
  auto [off, off_stopped] = RunBpprCounting({.combining = false});
  EXPECT_GT(off_stopped, 0u);
  for (uint32_t threads : {1u, 8u}) {
    auto [on, on_stopped] =
        RunBpprCounting({.combining = true, .threads = threads});
    EXPECT_EQ(on_stopped, off_stopped);
    EXPECT_EQ(on.num_rounds, off.num_rounds);
    EXPECT_EQ(on.total_logical_sent, off.total_logical_sent);
    EXPECT_GT(on.CombinedRatio(), 1.0);
  }
}

// --- The dense-slot gate ---------------------------------------------

/// Multi-source hop flood: tag t floods from source vertex t for up to
/// kMaxHops hops, min-combining hop counts. combine_tag_universe() is
/// exactly the tag count, so the caller controls the largest
/// destination's (local vertices x tags) slot space.
class HopFloodProgram : public VertexProgram {
 public:
  HopFloodProgram(const Graph& graph, uint32_t tags)
      : graph_(graph),
        tags_(tags),
        hops_(static_cast<size_t>(tags) * graph.NumVertices(),
              testing_util::kUnreachedHops) {}

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    if (sink.round() == 0) {
      if (v < tags_) Reach(v, /*tag=*/v, /*hop=*/0, sink);
      return;
    }
    // The inbox is grouped by (target, tag): fold each tag's minimum.
    for (size_t i = 0; i < inbox.size();) {
      const uint32_t tag = inbox[i].tag;
      double best = inbox[i].value;
      for (++i; i < inbox.size() && inbox[i].tag == tag; ++i) {
        best = std::min(best, inbox[i].value);
      }
      Reach(v, tag, static_cast<uint32_t>(best), sink);
    }
  }

  const Combiner* combiner() const override { return &combiner_; }
  uint32_t combine_tag_universe() const override { return tags_; }
  const std::vector<uint32_t>& hops() const { return hops_; }

 private:
  static constexpr uint32_t kMaxHops = 3;

  void Reach(VertexId v, uint32_t tag, uint32_t hop, MessageSink& sink) {
    uint32_t& known =
        hops_[static_cast<size_t>(tag) * graph_.NumVertices() + v];
    if (hop >= known) return;
    known = hop;
    if (hop < kMaxHops) sink.Broadcast(v, tag, hop + 1.0, 1.0);
  }

  const Graph& graph_;
  const uint32_t tags_;
  MinCombiner combiner_;
  std::vector<uint32_t> hops_;  // tag-major, one entry per (tag, vertex).
};

TEST(SenderCombiningTest, DenseCombineGateBoundaryMatchesUncombined) {
  // Machine 0 owns exactly 4096 vertices and machine 1 fewer, so 32 tags
  // put the largest destination at exactly 2^17 slots (the most the
  // dense fold accepts: this run takes the unified fold) and 33 tags one
  // tag past it (the CombineIndex merge path). Both paths must reproduce
  // the uncombined run's results and logical traffic.
  constexpr VertexId kLargestMachine = 4096;
  ErdosRenyiParams params;
  params.num_vertices = 7000;
  params.num_edges = 21000;
  params.seed = 19;
  const Graph graph = GenerateErdosRenyi(params);
  Partitioning part;
  part.num_machines = 2;
  part.assignment.resize(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    part.assignment[v] = v < kLargestMachine ? 0 : 1;
  }
  for (uint32_t tags : {32u, 33u}) {
    SCOPED_TRACE(testing::Message() << "tags=" << tags);
    auto run = [&](bool combining) {
      SyncEngine engine(graph, part,
                        MakeOptions({.combining = combining, .threads = 2},
                                    part.num_machines));
      HopFloodProgram program(graph, tags);
      auto result = engine.Run(program);
      EXPECT_TRUE(result.ok());
      return std::pair(result.value_or(EngineResult{}), program.hops());
    };
    auto [off, off_hops] = run(false);
    auto [on, on_hops] = run(true);
    EXPECT_EQ(off_hops, on_hops);
    EXPECT_EQ(off.num_rounds, on.num_rounds);
    EXPECT_EQ(off.total_messages, on.total_messages);
    EXPECT_EQ(off.total_logical_sent, on.total_logical_sent);
    ASSERT_EQ(off.rounds.size(), on.rounds.size());
    for (size_t i = 0; i < off.rounds.size(); ++i) {
      EXPECT_EQ(off.rounds[i].messages, on.rounds[i].messages)
          << "round " << i;
    }
    EXPECT_GT(on.CombinedRatio(), 1.0);
  }
}

// --- Serial vs parallel grouping, all four strategies -----------------

std::vector<Message> RandomInbox(size_t size, uint32_t num_targets,
                                 uint32_t num_tags, uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> inbox;
  inbox.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    inbox.push_back(
        Message{static_cast<VertexId>(rng.NextBounded(num_targets)),
                static_cast<uint32_t>(rng.NextBounded(num_tags)),
                static_cast<double>(i), 1.0});
  }
  return inbox;
}

void FillWorker(Worker& worker, const std::vector<Message>& inbox,
                VertexId vertex_space) {
  worker.Reset(1);
  if (vertex_space > 0) worker.set_vertex_space(vertex_space);
  for (const Message& message : inbox) worker.inbox().PushBack(message);
}

void ExpectGroupedEqual(const Worker& serial, const Worker& parallel) {
  const std::span<const MessageRun> a = serial.runs();
  const std::span<const MessageRun> b = parallel.runs();
  ASSERT_EQ(a.size(), b.size());
  size_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target) << "run " << i;
    EXPECT_EQ(a[i].tag, b[i].tag) << "run " << i;
    EXPECT_EQ(a[i].begin, b[i].begin) << "run " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "run " << i;
    total = a[i].end;
  }
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(serial.grouped_values()[i], parallel.grouped_values()[i])
        << "element " << i;
    EXPECT_EQ(serial.grouped_multiplicities()[i],
              parallel.grouped_multiplicities()[i])
        << "element " << i;
  }
}

/// Groups `inbox` once serially and once through the pool-wide pass
/// driver; the outputs must match bitwise, with and without stealable
/// chunk tasks.
void ExpectParallelGroupingMatchesSerial(const std::vector<Message>& inbox,
                                         VertexId vertex_space) {
  Worker serial;
  FillWorker(serial, inbox, vertex_space);
  serial.GroupInbox();
  ThreadPool pool(3);
  for (bool steal : {false, true}) {
    std::vector<Worker> workers(1);
    FillWorker(workers[0], inbox, vertex_space);
    ParallelGroupInboxes(pool, std::span<Worker>(workers), steal,
                         /*collect_timing=*/false);
    ExpectGroupedEqual(serial, workers[0]);
  }
}

TEST(ParallelGroupingTest, MatchesSerialOnSortedInbox) {
  // Ascending distinct (target, tag) keys — the shape the unified
  // combine path emits — must take the sorted fast path identically.
  std::vector<Message> inbox;
  for (uint32_t target = 0; target < 5000; ++target) {
    for (uint32_t tag = 0; tag < 4; ++tag) {
      inbox.push_back(Message{target, tag,
                              static_cast<double>(inbox.size()), 2.0});
    }
  }
  ExpectParallelGroupingMatchesSerial(inbox, /*vertex_space=*/0);
}

TEST(ParallelGroupingTest, MatchesSerialOnSmallInbox) {
  // Below the comparison-sort cutoff; the parallel driver finishes these
  // inboxes serially inside its begin pass.
  ExpectParallelGroupingMatchesSerial(
      RandomInbox(40, /*num_targets=*/16, /*num_tags=*/3, /*seed=*/9),
      /*vertex_space=*/0);
}

TEST(ParallelGroupingTest, MatchesSerialOnDenseSingleTagInbox) {
  // Single tag and n >= vertex space: the dense counting strategy.
  ExpectParallelGroupingMatchesSerial(
      RandomInbox(20000, /*num_targets=*/1000, /*num_tags=*/1,
                  /*seed=*/11),
      /*vertex_space=*/1000);
}

TEST(ParallelGroupingTest, MatchesSerialOnSparseMultiTagInbox) {
  // Many targets, several tags, no usable vertex space: the radix
  // pair-sort strategy, large enough to cross the parallel threshold.
  ExpectParallelGroupingMatchesSerial(
      RandomInbox(20000, /*num_targets=*/60000, /*num_tags=*/16,
                  /*seed=*/13),
      /*vertex_space=*/0);
}

TEST(ParallelGroupingTest, MixedStrategyMachinesGroupInLockstep) {
  // One worker per strategy in a single pool-wide call, as the engine
  // issues it: each machine may pick a different strategy, and every
  // output must still match its own serial grouping.
  struct Shape {
    std::vector<Message> inbox;
    VertexId vertex_space;
  };
  std::vector<Shape> shapes;
  shapes.push_back({RandomInbox(40, 16, 3, 21), 0});
  shapes.push_back({RandomInbox(20000, 1000, 1, 22), 1000});
  shapes.push_back({RandomInbox(20000, 60000, 16, 23), 0});
  std::vector<Message> sorted;
  for (uint32_t target = 0; target < 9000; ++target) {
    sorted.push_back(Message{target, 0,
                             static_cast<double>(target), 1.0});
  }
  shapes.push_back({std::move(sorted), 0});

  std::vector<Worker> expected(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    FillWorker(expected[i], shapes[i].inbox, shapes[i].vertex_space);
    expected[i].GroupInbox();
  }
  ThreadPool pool(3);
  std::vector<Worker> workers(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    FillWorker(workers[i], shapes[i].inbox, shapes[i].vertex_space);
  }
  ParallelGroupInboxes(pool, std::span<Worker>(workers), /*steal=*/true,
                       /*collect_timing=*/false);
  for (size_t i = 0; i < shapes.size(); ++i) {
    ExpectGroupedEqual(expected[i], workers[i]);
  }
}

}  // namespace
}  // namespace vcmp
