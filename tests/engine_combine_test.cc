// Tests of the per-destination inbox builders (DESIGN.md §16): the
// Sum/Min combiner fold semantics the combining fold relies on, the
// contract that enabling combining changes wire traffic but never task
// results (at every shard and thread count, on both sides of the
// dense-slot gate), and grouped delivery with combining off reproducing
// the independent merge -> deliver -> GroupInbox path bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/concurrent_runner.h"
#include "engine/message.h"
#include "engine/sync_engine.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bkhs.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "tasks/pagerank.h"
#include "tasks/task_registry.h"
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

/// Every RoundStats field and every EngineResult total, bit for bit — for
/// runs that must be indistinguishable (same combining setting,
/// different thread or shard counts or internal paths).
void ExpectRunsFullyEqual(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.overloaded, b.overloaded);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_wire_messages, b.total_wire_messages);
  EXPECT_EQ(a.total_logical_sent, b.total_logical_sent);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.peak_residual_bytes, b.peak_residual_bytes);
  EXPECT_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes);
  EXPECT_EQ(a.network_overuse_seconds, b.network_overuse_seconds);
  EXPECT_EQ(a.disk_overuse_seconds, b.disk_overuse_seconds);
  EXPECT_EQ(a.disk_utilization, b.disk_utilization);
  EXPECT_EQ(a.disk_saturated, b.disk_saturated);
  EXPECT_EQ(a.max_io_queue_length, b.max_io_queue_length);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.residual_bytes_per_machine, b.residual_bytes_per_machine);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "round " << i);
    const RoundStats& x = a.rounds[i];
    const RoundStats& y = b.rounds[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.messages, y.messages);
    EXPECT_EQ(x.message_bytes, y.message_bytes);
    EXPECT_EQ(x.cross_machine_bytes, y.cross_machine_bytes);
    EXPECT_EQ(x.active_vertices, y.active_vertices);
    EXPECT_EQ(x.wire_messages, y.wire_messages);
    EXPECT_EQ(x.combined_ratio, y.combined_ratio);
    EXPECT_EQ(x.compute_seconds, y.compute_seconds);
    EXPECT_EQ(x.network_seconds, y.network_seconds);
    EXPECT_EQ(x.disk_stall_seconds, y.disk_stall_seconds);
    EXPECT_EQ(x.barrier_seconds, y.barrier_seconds);
    EXPECT_EQ(x.total_seconds, y.total_seconds);
    EXPECT_EQ(x.max_memory_bytes, y.max_memory_bytes);
    EXPECT_EQ(x.max_buffered_bytes, y.max_buffered_bytes);
    EXPECT_EQ(x.max_residual_bytes, y.max_residual_bytes);
    EXPECT_EQ(x.thrash_multiplier, y.thrash_multiplier);
    EXPECT_EQ(x.overflow, y.overflow);
    EXPECT_EQ(x.spilled_bytes, y.spilled_bytes);
    EXPECT_EQ(x.network_overuse_seconds, y.network_overuse_seconds);
    EXPECT_EQ(x.disk_overuse_seconds, y.disk_overuse_seconds);
    EXPECT_EQ(x.disk_io_seconds, y.disk_io_seconds);
    EXPECT_EQ(x.disk_utilization, y.disk_utilization);
    EXPECT_EQ(x.io_queue_length, y.io_queue_length);
    EXPECT_EQ(x.disk_saturated, y.disk_saturated);
  }
}

/// Delegates every call to an inner program but declares no tag
/// universe, which keeps the engine off grouped delivery: the run takes
/// the per-(sender, dest) merge, outbox delivery and receiver-side
/// GroupInbox — an independent path for grouped delivery to reproduce.
class UnboundedTagsProgram : public VertexProgram {
 public:
  explicit UnboundedTagsProgram(VertexProgram& inner) : inner_(inner) {}
  explicit UnboundedTagsProgram(std::unique_ptr<VertexProgram> owned)
      : owned_(std::move(owned)), inner_(*owned_) {}

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    inner_.Compute(v, inbox, sink);
  }
  bool UsesComputeRun() const override { return inner_.UsesComputeRun(); }
  void ComputeRun(VertexId v, const MessageRunView& run,
                  MessageSink& sink) override {
    inner_.ComputeRun(v, run, sink);
  }
  bool ShouldTerminate(uint64_t rounds_completed) const override {
    return inner_.ShouldTerminate(rounds_completed);
  }
  bool TerminateOnAggregate(double aggregate_sum) const override {
    return inner_.TerminateOnAggregate(aggregate_sum);
  }
  double StateBytes(uint32_t machine) const override {
    return inner_.StateBytes(machine);
  }
  double ResidualBytes(uint32_t machine) const override {
    return inner_.ResidualBytes(machine);
  }
  const Combiner* combiner() const override { return inner_.combiner(); }
  uint32_t tag_universe() const override { return 0; }

 private:
  std::unique_ptr<VertexProgram> owned_;
  VertexProgram& inner_;
};

struct CombineRunOptions {
  bool combining = false;
  uint32_t threads = 1;
  uint32_t shards = 0;  // 0 = the engine default.
  uint32_t machines = 4;
  /// Run the program behind UnboundedTagsProgram (the reference path).
  bool hide_tag_universe = false;
};

EngineOptions MakeOptions(const CombineRunOptions& opts, uint32_t machines) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.execution_threads = opts.threads;
  options.clamp_threads_to_hardware = false;
  options.sender_combining = opts.combining;
  options.compute_shards_per_machine = opts.shards;
  return options;
}

/// Runs `program` on `graph` under `opts`, behind UnboundedTagsProgram
/// when opts.hide_tag_universe.
EngineResult RunProgram(const Graph& graph, const Partitioning& part,
                        VertexProgram& program,
                        const CombineRunOptions& opts) {
  SyncEngine engine(graph, part, MakeOptions(opts, part.num_machines));
  UnboundedTagsProgram hidden(program);
  auto result = engine.Run(opts.hide_tag_universe
                               ? static_cast<VertexProgram&>(hidden)
                               : program);
  EXPECT_TRUE(result.ok());
  return result.value_or(EngineResult{});
}

Graph MakeRmat(uint64_t seed) {
  RmatParams rmat;
  rmat.num_vertices = 2000;
  rmat.num_edges = 12000;
  rmat.seed = seed;
  return GenerateRmat(rmat);
}

/// One MSSP batch (8 sampled sources -> tag universe 8, MinCombiner) on
/// a fixed R-MAT graph. Returns the engine stats plus every per-sample
/// distance, so result identity is checked at task-output granularity.
std::pair<EngineResult, std::vector<uint32_t>> RunMssp(
    const CombineRunOptions& opts) {
  static const Graph& graph = *new Graph(MakeRmat(77));
  const Partitioning part = HashPartitioner().Partition(graph, opts.machines);
  TaskContext context{&graph, &part, 1.0, opts.combining};
  MsspProgram program(context, ProgramFlavor::kPointToPoint,
                      /*workload=*/8.0, MsspTask::Params{}, /*seed=*/5);
  EngineResult result = RunProgram(graph, part, program, opts);
  std::vector<uint32_t> distances;
  distances.reserve(static_cast<size_t>(program.num_samples()) *
                    graph.NumVertices());
  for (uint32_t sample = 0; sample < program.num_samples(); ++sample) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      distances.push_back(program.Distance(sample, v));
    }
  }
  return {result, std::move(distances)};
}

/// One stochastic BPPR counting batch (SumCombiner over walk counts).
/// Random-walk forwarding is the hardest determinism case: any change in
/// fold order that leaked into values would move TotalStopped().
std::pair<EngineResult, uint64_t> RunBpprCounting(
    const CombineRunOptions& opts) {
  static const Graph& graph = *new Graph(MakeRmat(41));
  const Partitioning part = HashPartitioner().Partition(graph, opts.machines);
  TaskContext context{&graph, &part, 1.0, opts.combining};
  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
  EngineResult result = RunProgram(graph, part, program, opts);
  return {result, program.TotalStopped()};
}

/// One BKHS batch (8 sampled sources, k = 2). BKHS implements only
/// Compute, so its rounds read MaterializedInbox() — under grouped
/// delivery an AoS view over pre-grouped runs whose inbox target/tag
/// columns were never written.
std::pair<EngineResult, std::vector<uint64_t>> RunBkhs(
    const CombineRunOptions& opts) {
  static const Graph& graph = *new Graph(MakeRmat(77));
  const Partitioning part = HashPartitioner().Partition(graph, opts.machines);
  TaskContext context{&graph, &part, 1.0, opts.combining};
  BkhsProgram program(context, ProgramFlavor::kPointToPoint,
                      /*workload=*/8.0, BkhsTask::Params{}, /*seed=*/9);
  EngineResult result = RunProgram(graph, part, program, opts);
  std::vector<uint64_t> counts;
  for (uint32_t sample = 0; sample < program.num_samples(); ++sample) {
    counts.push_back(program.KHopCount(sample));
  }
  return {result, std::move(counts)};
}

/// Ten PageRank power iterations. Rank shares are non-integer, so the
/// per-run left-to-right sum observes the order of a run's messages: a
/// grouping that was not stable by arrival would move ranks' last bits.
std::pair<EngineResult, std::vector<double>> RunPageRank(
    const CombineRunOptions& opts) {
  static const Graph& graph = *new Graph(MakeRmat(41));
  const Partitioning part = HashPartitioner().Partition(graph, opts.machines);
  TaskContext context{&graph, &part, 1.0, opts.combining};
  PageRankProgram program(context, {.iterations = 10});
  EngineResult result = RunProgram(graph, part, program, opts);
  std::vector<double> ranks;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ranks.push_back(program.Rank(v));
  }
  return {result, std::move(ranks)};
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
    ExpectRunsFullyEqual(serial, threaded);
    EXPECT_EQ(serial_dist, threaded_dist);
  }
}

/// Runs `run` (returning {EngineResult, task output}) with combining on
/// across shard and thread counts, and requires every run to match the
/// single-shard serial one bit for bit. Shards cut each machine's
/// emission stream into per-shard arenas that the combine fold
/// concatenates in shard order, so the shard count must never reach a
/// folded value or a wire count.
template <typename RunFn>
void ExpectCombinedRunsInvariantToShardsAndThreads(RunFn run) {
  auto [base, base_output] =
      run(CombineRunOptions{.combining = true, .threads = 1, .shards = 1});
  for (uint32_t shards : {1u, 3u, 16u, 64u}) {
    for (uint32_t threads : {1u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      auto [other, output] = run(CombineRunOptions{
          .combining = true, .threads = threads, .shards = shards});
      ExpectRunsFullyEqual(base, other);
      EXPECT_EQ(base_output, output);
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

// --- Grouped delivery with combining off ------------------------------

/// With combining off, runs `run` through grouped delivery across
/// threads {1, 2, 8} x shards {1, 3, 16, 64} and requires each to equal
/// the universe-hidden reference (merge -> deliver -> GroupInbox) in task
/// output, every RoundStats field and every EngineResult total.
template <typename RunFn>
void ExpectGroupedDeliveryMatchesReference(RunFn run, uint32_t machines) {
  auto [reference, reference_output] = run(CombineRunOptions{
      .threads = 1, .machines = machines, .hide_tag_universe = true});
  ASSERT_GT(reference.num_rounds, 1u);
  for (uint32_t threads : {1u, 2u, 8u}) {
    for (uint32_t shards : {1u, 3u, 16u, 64u}) {
      SCOPED_TRACE(testing::Message() << "machines=" << machines
                                      << " threads=" << threads
                                      << " shards=" << shards);
      auto [grouped, output] = run(CombineRunOptions{
          .threads = threads, .shards = shards, .machines = machines});
      ExpectRunsFullyEqual(reference, grouped);
      EXPECT_EQ(reference_output, output);
    }
  }
}

TEST(GroupedDeliveryTest, MsspMatchesReceiverGroupedReference) {
  ExpectGroupedDeliveryMatchesReference(RunMssp, 4);
}

TEST(GroupedDeliveryTest, BpprCountingMatchesReceiverGroupedReference) {
  ExpectGroupedDeliveryMatchesReference(RunBpprCounting, 4);
}

TEST(GroupedDeliveryTest, PageRankMatchesReceiverGroupedReference) {
  ExpectGroupedDeliveryMatchesReference(RunPageRank, 4);
}

TEST(GroupedDeliveryTest, BkhsMatchesReceiverGroupedReference) {
  ExpectGroupedDeliveryMatchesReference(RunBkhs, 4);
}

TEST(GroupedDeliveryTest, SingleMachineClusterMatchesReference) {
  // One machine: every message is local and the reference delivers by
  // swapping the lone outbox, which grouped delivery must still match.
  ExpectGroupedDeliveryMatchesReference(RunMssp, 1);
  ExpectGroupedDeliveryMatchesReference(RunBkhs, 1);
}

/// Sends nothing at all: the seeding superstep is an empty round.
class SilentProgram : public VertexProgram {
 public:
  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    (void)inbox;
    sink.AddComputeUnits(static_cast<double>(v % 3));
  }
  uint32_t tag_universe() const override { return 1; }
};

TEST(GroupedDeliveryTest, EmptyRoundMatchesReference) {
  const Graph graph = MakeRmat(77);
  const Partitioning part = HashPartitioner().Partition(graph, 4);
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    SilentProgram grouped_program;
    SilentProgram reference_program;
    const EngineResult grouped =
        RunProgram(graph, part, grouped_program, {.threads = threads});
    const EngineResult reference = RunProgram(
        graph, part, reference_program,
        {.threads = threads, .hide_tag_universe = true});
    EXPECT_EQ(grouped.num_rounds, 1u);
    EXPECT_EQ(grouped.total_messages, 0.0);
    ExpectRunsFullyEqual(reference, grouped);
  }
}

/// MultiTask wrapper whose programs hide their tag universe, so a
/// ConcurrentRunner query runs the reference path end to end.
class UnboundedTagsTask : public MultiTask {
 public:
  explicit UnboundedTagsTask(std::unique_ptr<MultiTask> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override {
    VCMP_ASSIGN_OR_RETURN(std::unique_ptr<VertexProgram> program,
                          inner_->MakeProgram(context, flavor, workload,
                                              seed));
    return std::unique_ptr<VertexProgram>(
        std::make_unique<UnboundedTagsProgram>(std::move(program)));
  }
  double MinBatchWorkload() const override {
    return inner_->MinBatchWorkload();
  }

 private:
  std::unique_ptr<MultiTask> inner_;
};

TEST(GroupedDeliveryTest, ConcurrentRunnerMatchesReference) {
  // K = 2 queries in flight on a shared pool, one query per benchmark
  // task: every batch of every query must equal the reference run.
  const Dataset dataset =
      LoadDataset(DatasetId::kDblp, /*scale_override=*/512.0);
  auto run = [&](bool hide_tag_universe) {
    std::vector<std::unique_ptr<MultiTask>> tasks;
    std::vector<ConcurrentQuery> queries;
    for (const std::string& name : BenchmarkTaskNames()) {
      auto task = MakeTask(name);
      EXPECT_TRUE(task.ok());
      std::unique_ptr<MultiTask> owned = std::move(task.value());
      if (hide_tag_universe) {
        owned = std::make_unique<UnboundedTagsTask>(std::move(owned));
      }
      tasks.push_back(std::move(owned));
      ConcurrentQuery query;
      query.task = tasks.back().get();
      query.schedule = BatchSchedule::Equal(/*workload=*/128.0, 2);
      queries.push_back(std::move(query));
    }
    ConcurrentRunnerOptions options;
    options.base.cluster = RelaxedCluster(4);
    options.base.system = SystemKind::kPregelPlus;
    options.base.seed = 7;
    options.base.execution_threads = 4;
    options.base.clamp_threads_to_hardware = false;
    options.concurrency = 2;
    ConcurrentRunner runner(dataset, options);
    auto report = runner.Run(queries);
    EXPECT_TRUE(report.ok());
    return std::move(report.value());
  };
  const ConcurrentRunReport grouped = run(false);
  const ConcurrentRunReport reference = run(true);
  ASSERT_EQ(grouped.queries.size(), reference.queries.size());
  EXPECT_EQ(grouped.queries_failed, 0u);
  for (size_t q = 0; q < grouped.queries.size(); ++q) {
    SCOPED_TRACE(testing::Message() << "query " << q);
    ASSERT_TRUE(grouped.queries[q].status.ok());
    ASSERT_TRUE(reference.queries[q].status.ok());
    const RunReport& a = grouped.queries[q].report;
    const RunReport& b = reference.queries[q].report;
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
      EXPECT_EQ(a.batches[i].seconds, b.batches[i].seconds);
      EXPECT_EQ(a.batches[i].rounds, b.batches[i].rounds);
      EXPECT_EQ(a.batches[i].messages, b.batches[i].messages);
      EXPECT_EQ(a.batches[i].peak_memory_bytes,
                b.batches[i].peak_memory_bytes);
      EXPECT_EQ(a.batches[i].peak_residual_bytes,
                b.batches[i].peak_residual_bytes);
      EXPECT_EQ(a.batches[i].peak_buffered_bytes,
                b.batches[i].peak_buffered_bytes);
      EXPECT_EQ(a.batches[i].network_overuse_seconds,
                b.batches[i].network_overuse_seconds);
    }
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.total_messages, b.total_messages);
  }
  EXPECT_EQ(grouped.total_simulated_seconds,
            reference.total_simulated_seconds);
}

// --- The dense-slot gate ---------------------------------------------

/// Multi-source hop flood: tag t floods from source vertex t for up to
/// kMaxHops hops, min-combining hop counts. tag_universe() is exactly
/// the tag count, so the caller controls the largest destination's
/// (local vertices x tags) slot space.
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
  uint32_t tag_universe() const override { return tags_; }
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

/// Machine 0 owns exactly 4096 vertices and machine 1 fewer, so 32 tags
/// put the largest destination at exactly 2^17 slots — the most the
/// dense passes accept — and 33 tags one tag past it.
constexpr VertexId kGateLargestMachine = 4096;

const Graph& GateGraph() {
  static const Graph& graph = *new Graph([] {
    ErdosRenyiParams params;
    params.num_vertices = 7000;
    params.num_edges = 21000;
    params.seed = 19;
    return GenerateErdosRenyi(params);
  }());
  return graph;
}

Partitioning GatePartition(const Graph& graph) {
  Partitioning part;
  part.num_machines = 2;
  part.assignment.resize(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    part.assignment[v] = v < kGateLargestMachine ? 0 : 1;
  }
  return part;
}

/// One hop flood with `tags` tags on the gate graph.
std::pair<EngineResult, std::vector<uint32_t>> RunHopFlood(
    uint32_t tags, const CombineRunOptions& opts) {
  const Graph& graph = GateGraph();
  const Partitioning part = GatePartition(graph);
  HopFloodProgram program(graph, tags);
  EngineResult result = RunProgram(graph, part, program, opts);
  return {result, program.hops()};
}

TEST(SenderCombiningTest, DenseCombineGateBoundaryMatchesUncombined) {
  // At 32 tags the combined run takes the combining fold; at 33 it falls
  // outside grouped delivery, where engine-level combining is ignored.
  // Both must reproduce the universe-hidden uncombined run (merge ->
  // deliver -> GroupInbox), which stays an independent path on both
  // sides of the gate.
  for (uint32_t tags : {32u, 33u}) {
    SCOPED_TRACE(testing::Message() << "tags=" << tags);
    auto [off, off_hops] = RunHopFlood(
        tags, {.combining = false, .threads = 2, .hide_tag_universe = true});
    auto [on, on_hops] = RunHopFlood(tags, {.combining = true, .threads = 2});
    EXPECT_EQ(off_hops, on_hops);
    EXPECT_EQ(off.num_rounds, on.num_rounds);
    EXPECT_EQ(off.total_messages, on.total_messages);
    EXPECT_EQ(off.total_logical_sent, on.total_logical_sent);
    ASSERT_EQ(off.rounds.size(), on.rounds.size());
    for (size_t i = 0; i < off.rounds.size(); ++i) {
      EXPECT_EQ(off.rounds[i].messages, on.rounds[i].messages)
          << "round " << i;
    }
    if (tags == 32) {
      EXPECT_GT(on.CombinedRatio(), 1.0);
    } else {
      EXPECT_EQ(on.CombinedRatio(), 1.0);
    }
  }
}

TEST(GroupedDeliveryTest, GateBoundaryMatchesReference) {
  // Combining off: at 32 tags the largest destination sits exactly at
  // the slot limit and takes grouped delivery; at 33 tags it falls back
  // to receiver-side radix grouping. Both equal the universe-hidden run.
  for (uint32_t tags : {32u, 33u}) {
    SCOPED_TRACE(testing::Message() << "tags=" << tags);
    auto [reference, reference_hops] =
        RunHopFlood(tags, {.threads = 2, .hide_tag_universe = true});
    auto [run, hops] = RunHopFlood(tags, {.threads = 2});
    ASSERT_GT(reference.num_rounds, 1u);
    EXPECT_EQ(reference_hops, hops);
    ExpectRunsFullyEqual(reference, run);
  }
}

// --- Profile-level combining with a custom combiner -----------------

/// Keeps the larger value: not expressible as the inlined kSum/kMin
/// folds, so the merge must fall back to the virtual Merge (kCustom).
class MaxCombiner : public Combiner {
 public:
  void Merge(Message& into, const Message& from) const override {
    if (from.value > into.value) into.value = from.value;
    into.multiplicity += from.multiplicity;
  }
};

/// Max-label propagation: every vertex starts from a scrambled label,
/// keeps the largest label it hears and forwards it whenever it grows.
/// The answer (labels, and the integer multiplicity each vertex received)
/// is independent of how messages were merged on the way.
class MaxLabelProgram : public VertexProgram {
 public:
  MaxLabelProgram(const Graph& graph, bool expose_combiner)
      : graph_(graph),
        expose_combiner_(expose_combiner),
        labels_(graph.NumVertices()),
        received_(graph.NumVertices(), 0.0) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      labels_[v] = static_cast<double>((v * 2654435761ULL) % 1000003ULL);
    }
  }

  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    bool grew = sink.round() == 0;
    for (const Message& message : inbox) {
      received_[v] += message.multiplicity;
      if (message.value > labels_[v]) {
        labels_[v] = message.value;
        grew = true;
      }
    }
    if (!grew) return;
    for (VertexId u : graph_.Neighbors(v)) sink.Send(u, 0, labels_[v], 1.0);
  }

  const Combiner* combiner() const override {
    return expose_combiner_ ? &combiner_ : nullptr;
  }
  uint32_t tag_universe() const override { return 1; }
  const std::vector<double>& labels() const { return labels_; }
  const std::vector<double>& received() const { return received_; }

 private:
  const Graph& graph_;
  const bool expose_combiner_;
  MaxCombiner combiner_;
  std::vector<double> labels_;
  std::vector<double> received_;
};

TEST(ProfileCombiningTest, CustomCombinerMatchesUncombinedRun) {
  // GraphLab combines at the profile level through the per-pair merge,
  // the one path that calls a custom combiner's virtual Merge. Folding
  // with it must change the wire, never the answers or logical counts.
  const Graph graph = MakeRmat(77);
  const Partitioning part = HashPartitioner().Partition(graph, 4);
  struct Outcome {
    EngineResult result;
    std::vector<double> labels;
    std::vector<double> received;
  };
  auto run = [&](bool expose_combiner, uint32_t threads) -> Outcome {
    EngineOptions options;
    options.cluster = RelaxedCluster(4);
    options.profile = ProfileFor(SystemKind::kGraphLab);
    options.execution_threads = threads;
    options.clamp_threads_to_hardware = false;
    SyncEngine engine(graph, part, options);
    MaxLabelProgram program(graph, expose_combiner);
    EXPECT_EQ(program.combiner() == nullptr, !expose_combiner);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return Outcome{result.value_or(EngineResult{}), program.labels(),
                   program.received()};
  };
  const Outcome combined_serial = run(true, 1);
  ASSERT_GT(combined_serial.result.num_rounds, 2u);
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const Outcome hidden = run(false, threads);
    const Outcome combined = run(true, threads);
    EXPECT_EQ(hidden.labels, combined.labels);
    EXPECT_EQ(hidden.received, combined.received);
    EXPECT_EQ(hidden.result.num_rounds, combined.result.num_rounds);
    EXPECT_EQ(hidden.result.total_messages, combined.result.total_messages);
    EXPECT_EQ(hidden.result.total_logical_sent,
              combined.result.total_logical_sent);
    ASSERT_EQ(hidden.result.rounds.size(), combined.result.rounds.size());
    for (size_t i = 0; i < hidden.result.rounds.size(); ++i) {
      EXPECT_EQ(hidden.result.rounds[i].messages,
                combined.result.rounds[i].messages)
          << "round " << i;
    }
    EXPECT_EQ(hidden.result.CombinedRatio(), 1.0);
    EXPECT_GT(combined.result.CombinedRatio(), 1.0);
    ExpectRunsFullyEqual(combined_serial.result, combined.result);
  }
}

}  // namespace
}  // namespace vcmp
