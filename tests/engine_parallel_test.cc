// Tests of the engine's parallel-execution machinery: the thread pool,
// the radix inbox grouping, the flat combiner index, and the regression
// that engine results are bit-identical for every thread count (the
// determinism contract every perf change must preserve).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/sync_engine.h"
#include "engine/worker.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "tasks/pagerank.h"
#include "tasks/task_registry.h"
#include "test_util.h"

namespace vcmp {
namespace {

using testing_util::RelaxedCluster;

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersExecutesInline) {
  ThreadPool pool(0);
  int count = 0;  // Not atomic: inline execution is single-threaded.
  pool.Submit([&count] { ++count; });
  EXPECT_EQ(count, 1);  // Already ran, before Wait.
  pool.Wait();
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](uint32_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyBarriers) {
  // The engine reuses one pool for every superstep; the pool must survive
  // many Submit/Wait and ParallelFor cycles without deadlock or loss.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(7, [&total](uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

TEST(ThreadPoolTest, ParallelSortMatchesSerialSort) {
  Rng rng(17);
  std::vector<uint64_t> values(100000);
  for (uint64_t& v : values) v = rng.NextUint64();
  std::vector<uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  ThreadPool pool(3);
  ParallelSort(pool, values.begin(), values.end(), std::less<uint64_t>());
  EXPECT_EQ(values, expected);
}

TEST(ThreadPoolTest, ParallelSortSmallInputFallsBackToSerial) {
  ThreadPool pool(3);
  std::vector<int> values = {5, 3, 1, 4, 2};
  ParallelSort(pool, values.begin(), values.end(), std::less<int>());
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3, 4, 5}));
}

// --- Radix inbox grouping --------------------------------------------

std::vector<Message> RandomInbox(size_t size, uint32_t num_targets,
                                 uint32_t num_tags, uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> inbox;
  inbox.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    inbox.push_back(
        Message{static_cast<VertexId>(rng.NextBounded(num_targets)),
                static_cast<uint32_t>(rng.NextBounded(num_tags)),
                // Original position, so stability is observable.
                static_cast<double>(i), 1.0});
  }
  return inbox;
}

void ExpectGroupInboxMatchesStableSort(std::vector<Message> inbox,
                                       VertexId vertex_space = 0) {
  std::vector<Message> expected = inbox;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Message& a, const Message& b) {
                     if (a.target != b.target) return a.target < b.target;
                     return a.tag < b.tag;
                   });
  Worker worker;
  worker.Reset(1);
  if (vertex_space > 0) worker.set_vertex_space(vertex_space);
  for (const Message& message : inbox) worker.inbox().PushBack(message);
  worker.GroupInbox();
  // Runs must tile [0, n) with strictly ascending (target, tag) keys and
  // match the stable-sorted AoS oracle element for element. The payload
  // encodes the original position, so stability is observable.
  const std::span<const MessageRun> runs = worker.runs();
  const double* values = worker.grouped_values();
  const double* mults = worker.grouped_multiplicities();
  size_t pos = 0;
  uint64_t previous_key = 0;
  bool have_previous = false;
  for (const MessageRun& run : runs) {
    ASSERT_EQ(static_cast<size_t>(run.begin), pos);
    ASSERT_LT(run.begin, run.end);
    const uint64_t key = (static_cast<uint64_t>(run.target) << 32) | run.tag;
    if (have_previous) {
      EXPECT_GT(key, previous_key);
    }
    previous_key = key;
    have_previous = true;
    for (uint32_t i = run.begin; i < run.end; ++i) {
      EXPECT_EQ(run.target, expected[i].target) << "at " << i;
      EXPECT_EQ(run.tag, expected[i].tag) << "at " << i;
    }
    pos = run.end;
  }
  ASSERT_EQ(pos, expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(values[i], expected[i].value) << "at " << i;
    EXPECT_EQ(mults[i], expected[i].multiplicity) << "at " << i;
  }
}

TEST(RadixGroupingTest, MatchesStableSortAcrossSizes) {
  // Straddles the std::stable_sort fallback threshold (64) from both
  // sides, including the radix path on sizes well past it.
  for (size_t size : {0u, 1u, 2u, 63u, 64u, 65u, 127u, 1000u, 20000u}) {
    ExpectGroupInboxMatchesStableSort(
        RandomInbox(size, /*num_targets=*/977, /*num_tags=*/5,
                    /*seed=*/size + 1));
  }
}

TEST(RadixGroupingTest, StableOnHeavilyDuplicatedKeys) {
  // Few distinct (target, tag) keys: nearly every message ties, so any
  // instability in the sort would reorder payloads.
  ExpectGroupInboxMatchesStableSort(
      RandomInbox(5000, /*num_targets=*/3, /*num_tags=*/2, /*seed=*/7));
}

TEST(RadixGroupingTest, HandlesWideTargetRange) {
  // Targets spanning the full 32-bit range exercise the high key bytes
  // (the byte-skipping optimisation must not skip a varying digit).
  Rng rng(23);
  std::vector<Message> inbox;
  for (size_t i = 0; i < 4096; ++i) {
    inbox.push_back(Message{static_cast<VertexId>(rng.NextUint64()),
                            static_cast<uint32_t>(rng.NextBounded(3)),
                            static_cast<double>(i), 1.0});
  }
  ExpectGroupInboxMatchesStableSort(std::move(inbox));
}

TEST(RadixGroupingTest, SingleTargetIsIdentity) {
  std::vector<Message> inbox =
      RandomInbox(300, /*num_targets=*/1, /*num_tags=*/1, /*seed=*/9);
  ExpectGroupInboxMatchesStableSort(inbox);
}

TEST(RadixGroupingTest, DenseCountingPathMatchesStableSort) {
  // Single tag, vertex space known, and n >= V routes through the dense
  // counting-sort strategy; it must produce the same grouping as the
  // comparison sort, including stability.
  ExpectGroupInboxMatchesStableSort(
      RandomInbox(5000, /*num_targets=*/64, /*num_tags=*/1, /*seed=*/11),
      /*vertex_space=*/64);
}

TEST(RadixGroupingTest, VertexSpaceBelowSizeStillSparseWithManyTags) {
  // Multiple tags disqualify the dense path even when n >= V; the pair
  // sort must handle it identically.
  ExpectGroupInboxMatchesStableSort(
      RandomInbox(5000, /*num_targets=*/64, /*num_tags=*/4, /*seed=*/13),
      /*vertex_space=*/64);
}

// --- Flat combiner index ---------------------------------------------

TEST(CombineIndexTest, MatchesUnorderedMapOracle) {
  CombineIndex index;
  std::unordered_map<uint64_t, size_t> oracle;
  Rng rng(31);
  for (size_t i = 0; i < 20000; ++i) {
    // Small key space forces plenty of repeats (combine hits).
    uint64_t key = rng.NextBounded(4096);
    bool inserted = false;
    size_t value = index.FindOrInsert(key, i, &inserted);
    auto [it, fresh] = oracle.try_emplace(key, i);
    EXPECT_EQ(inserted, fresh);
    EXPECT_EQ(value, it->second);
  }
  EXPECT_EQ(index.size(), oracle.size());
}

TEST(CombineIndexTest, CollidingKeysStayDistinct) {
  // Keys equal modulo any power-of-two table size differ only in high
  // bits; the multiplicative hash must still separate them, and linear
  // probing must keep each key's own value.
  CombineIndex index;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 200; ++i) keys.push_back(i << 32);
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(index.FindOrInsert(keys[i], i, &inserted), i);
    EXPECT_TRUE(inserted);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = true;
    EXPECT_EQ(index.FindOrInsert(keys[i], 9999, &inserted), i);
    EXPECT_FALSE(inserted);
  }
}

TEST(CombineIndexTest, ClearForgetsEntriesButKeepsCapacity) {
  CombineIndex index;
  for (uint64_t key = 0; key < 1000; ++key) {
    bool inserted = false;
    index.FindOrInsert(key, key, &inserted);
  }
  size_t capacity = index.capacity();
  EXPECT_GE(capacity, 1000u);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), capacity);  // Epoch clear, no deallocation.
  // Stale slots must not resurrect: the same keys re-insert fresh.
  for (uint64_t key = 0; key < 1000; ++key) {
    bool inserted = false;
    EXPECT_EQ(index.FindOrInsert(key, key + 7, &inserted), key + 7);
    EXPECT_TRUE(inserted);
  }
}

TEST(CombineIndexTest, ManyClearCyclesBehaveLikeFreshTables) {
  CombineIndex index;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (uint64_t key = 0; key < 64; ++key) {
      bool inserted = false;
      size_t value =
          index.FindOrInsert(key, 100 * cycle + key, &inserted);
      EXPECT_TRUE(inserted);
      EXPECT_EQ(value, 100u * cycle + key);
    }
    EXPECT_EQ(index.size(), 64u);
    index.Clear();
  }
}

// --- Buffer reuse -----------------------------------------------------

TEST(WorkerTest, ResetRetainsInboxCapacity) {
  Worker worker;
  worker.Reset(2);
  worker.inbox().Reserve(10000);
  size_t capacity = worker.inbox().capacity();
  EXPECT_GE(capacity, 10000u);
  worker.Reset(2);
  EXPECT_TRUE(worker.inbox().empty());
  EXPECT_GE(worker.inbox().capacity(), capacity);
}

TEST(WorkerTest, DrainRetainsOutboxCapacity) {
  Worker worker;
  worker.Reset(1);
  size_t capacity = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1000; ++i) {
      worker.outbox(0).PushBack(static_cast<VertexId>(i), 0, 1.0, 1.0);
    }
    if (round == 0) capacity = worker.outbox(0).capacity();
    EXPECT_EQ(worker.outbox(0).capacity(), capacity);  // No regrowth.
    MessageBlock dest;
    worker.Drain(0, &dest);
    EXPECT_EQ(dest.size(), 1000u);
    EXPECT_EQ(worker.OutboxSize(0), 0u);
  }
}

// --- Engine determinism across thread counts -------------------------

/// Runs one BPPR batch on `system` with the requested thread count and
/// returns the full EngineResult. clamp_threads_to_hardware is disabled
/// so the requested shard count is exercised exactly, even on machines
/// with fewer cores.
EngineResult RunBpprBatch(SystemKind system, uint32_t threads) {
  RmatParams params;
  params.num_vertices = 4000;
  params.num_edges = 30000;
  params.seed = 41;
  static const Graph& graph = *new Graph(GenerateRmat(params));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 8));

  EngineOptions options;
  options.cluster = RelaxedCluster(8);
  options.profile = ProfileFor(system);
  options.execution_threads = threads;
  options.clamp_threads_to_hardware = false;
  SyncEngine engine(graph, part, options);

  TaskContext context{&graph, &part, 1.0,
                      options.profile.combines_messages};
  auto task = MakeTask("BPPR");
  EXPECT_TRUE(task.ok());
  // Broadcast-flavoured walks fan out to every neighbour, so the mirror
  // profile gets a much smaller workload to keep the test fast.
  const double workload = options.profile.mirroring ? 16.0 : 512.0;
  auto program = task.value()->MakeProgram(
      context,
      options.profile.mirroring ? ProgramFlavor::kBroadcast
                                : ProgramFlavor::kPointToPoint,
      workload, /*seed=*/29);
  EXPECT_TRUE(program.ok());
  auto result = engine.Run(*program.value());
  EXPECT_TRUE(result.ok());
  return result.value_or(EngineResult{});
}

void ExpectBitIdentical(const EngineResult& a, const EngineResult& b) {
  // Exact equality on every monitored statistic — not near-equality:
  // the determinism contract is that thread count changes nothing.
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.peak_residual_bytes, b.peak_residual_bytes);
  EXPECT_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].messages, b.rounds[i].messages) << "round " << i;
    EXPECT_EQ(a.rounds[i].cross_machine_bytes,
              b.rounds[i].cross_machine_bytes)
        << "round " << i;
  }
}

class EngineDeterminismTest
    : public ::testing::TestWithParam<SystemKind> {};

TEST_P(EngineDeterminismTest, ResultsIdenticalForAnyThreadCount) {
  EngineResult serial = RunBpprBatch(GetParam(), 1);
  EXPECT_GT(serial.num_rounds, 1u);
  ExpectBitIdentical(serial, RunBpprBatch(GetParam(), 2));
  ExpectBitIdentical(serial, RunBpprBatch(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, EngineDeterminismTest,
    ::testing::Values(SystemKind::kPregelPlus,        // Combining.
                      SystemKind::kPregelPlusMirror,  // Broadcast+mirrors.
                      SystemKind::kGraphD),           // Out-of-core.
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      switch (info.param) {
        case SystemKind::kPregelPlus:
          return std::string("PregelPlus");
        case SystemKind::kPregelPlusMirror:
          return std::string("PregelPlusMirror");
        case SystemKind::kGraphD:
          return std::string("GraphD");
        default:
          return std::string("Other");
      }
    });

// --- Golden behaviours of the SoA compute path -----------------------

EngineOptions GoldenOptions(uint32_t machines, uint32_t threads) {
  EngineOptions options;
  options.cluster = RelaxedCluster(machines);
  options.profile = ProfileFor(SystemKind::kPregelPlus);
  options.execution_threads = threads;
  options.clamp_threads_to_hardware = false;
  return options;
}

TEST(EngineGoldenTest, EmptyInboxRoundTerminatesCleanly) {
  // A program that never sends: round 0 runs with empty inboxes, then the
  // engine must quiesce without touching the grouping machinery.
  class Silent : public VertexProgram {
   public:
    void Compute(VertexId, std::span<const Message>,
                 MessageSink&) override {}
  };
  Graph ring = GenerateRing(16, 1);
  Partitioning part = HashPartitioner().Partition(ring, 2);
  SyncEngine engine(ring, part, GoldenOptions(2, 2));
  Silent program;
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rounds, 1u);
  EXPECT_DOUBLE_EQ(result.value().total_messages, 0.0);
}

TEST(EngineGoldenTest, SingleMachineClusterUsesSwapDelivery) {
  // One machine means every round's delivery has exactly one sender —
  // the O(1) SwapOutbox path. PageRank must still conserve rank mass,
  // identically for any thread count.
  Graph ring = GenerateRing(128, 2);
  Partitioning part = HashPartitioner().Partition(ring, 1);
  auto run = [&](uint32_t threads) {
    SyncEngine engine(ring, part, GoldenOptions(1, threads));
    PageRankProgram::Params params;
    params.iterations = 20;
    TaskContext context{&ring, &part, 1.0, true};
    PageRankProgram program(context, params);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result.value_or(EngineResult{}),
                          program.TotalRank());
  };
  auto [serial, serial_rank] = run(1);
  EXPECT_NEAR(serial_rank, 1.0, 1e-9);  // Ring: no dangling mass leaks.
  EXPECT_GT(serial.num_rounds, 20u);
  auto [threaded, threaded_rank] = run(8);
  EXPECT_EQ(serial_rank, threaded_rank);
  ExpectBitIdentical(serial, threaded);
}

TEST(EngineGoldenTest, AllVerticesActiveBitIdenticalAcrossThreads) {
  // PageRank keeps every vertex active every round: the grouper sees a
  // single tag with n >= V, i.e. the dense counting-sort strategy. Final
  // per-vertex ranks must be bitwise equal for any thread count.
  auto run = [](uint32_t threads) {
    RmatParams rmat;
    rmat.num_vertices = 2000;
    rmat.num_edges = 12000;
    rmat.seed = 77;
    static const Graph& graph = *new Graph(GenerateRmat(rmat));
    static const Partitioning& part =
        *new Partitioning(HashPartitioner().Partition(graph, 4));
    SyncEngine engine(graph, part, GoldenOptions(4, threads));
    PageRankProgram::Params params;
    params.iterations = 15;
    TaskContext context{&graph, &part, 1.0, true};
    PageRankProgram program(context, params);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    std::vector<double> ranks(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ranks[v] = program.Rank(v);
    }
    return std::make_pair(result.value_or(EngineResult{}),
                          std::move(ranks));
  };
  auto [serial, serial_ranks] = run(1);
  for (uint32_t threads : {2u, 8u}) {
    auto [threaded, threaded_ranks] = run(threads);
    ExpectBitIdentical(serial, threaded);
    EXPECT_EQ(serial_ranks, threaded_ranks);  // Bitwise double equality.
  }
}

TEST(EngineGoldenTest, SparseActivityBitIdenticalAcrossThreads) {
  // MSSP from two sources on a long ring: each round only the wavefront
  // (a handful of vertices) receives messages, so the grouper sees
  // n << V — the sparse pair-sort strategy. Distances must be identical
  // for any thread count.
  auto run = [](uint32_t threads) {
    static const Graph& graph = *new Graph(GenerateRing(512, 1));
    static const Partitioning& part =
        *new Partitioning(HashPartitioner().Partition(graph, 4));
    SyncEngine engine(graph, part, GoldenOptions(4, threads));
    TaskContext context{&graph, &part, 1.0, true};
    MsspProgram program(context, ProgramFlavor::kPointToPoint,
                        /*workload=*/2.0, MsspTask::Params{}, /*seed=*/5);
    auto result = engine.Run(program);
    EXPECT_TRUE(result.ok());
    std::vector<uint32_t> distances;
    for (uint32_t sample = 0; sample < program.num_samples(); ++sample) {
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        distances.push_back(program.Distance(sample, v));
      }
    }
    return std::make_pair(result.value_or(EngineResult{}),
                          std::move(distances));
  };
  auto [serial, serial_dist] = run(1);
  EXPECT_EQ(serial_dist.size(), 2u * 512u);
  // Every ring vertex is reachable within n/2 hops.
  for (uint32_t d : serial_dist) EXPECT_LE(d, 256u);
  for (uint32_t threads : {2u, 8u}) {
    auto [threaded, threaded_dist] = run(threads);
    ExpectBitIdentical(serial, threaded);
    EXPECT_EQ(serial_dist, threaded_dist);
  }
}

/// Delegates to a wrapped program but reports UsesComputeRun() == false,
/// forcing the engine down the materialized AoS fallback path. Running
/// the same program both ways must give bitwise-identical results.
class ForceFallback : public VertexProgram {
 public:
  explicit ForceFallback(VertexProgram& inner) : inner_(inner) {}
  void Compute(VertexId v, std::span<const Message> inbox,
               MessageSink& sink) override {
    inner_.Compute(v, inbox, sink);
  }
  bool UsesComputeRun() const override { return false; }
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

 private:
  VertexProgram& inner_;
};

std::pair<EngineResult, uint64_t> RunCountingBppr(bool force_fallback,
                                                  uint32_t threads) {
  RmatParams rmat;
  rmat.num_vertices = 3000;
  rmat.num_edges = 20000;
  rmat.seed = 51;
  static const Graph& graph = *new Graph(GenerateRmat(rmat));
  static const Partitioning& part =
      *new Partitioning(HashPartitioner().Partition(graph, 4));
  SyncEngine engine(graph, part, GoldenOptions(4, threads));
  TaskContext context{&graph, &part, 1.0, true};
  BpprCountingProgram program(context, /*walks=*/64, {}, /*seed=*/3);
  Result<EngineResult> result = [&] {
    if (force_fallback) {
      ForceFallback wrapped(program);
      return engine.Run(wrapped);
    }
    return engine.Run(program);
  }();
  EXPECT_TRUE(result.ok());
  return {result.value_or(EngineResult{}), program.TotalStopped()};
}

TEST(EngineGoldenTest, FallbackPathBitIdenticalToComputeRun) {
  // The stochastic program is the hard case: any divergence in fold
  // order between ComputeRun and the materialized fallback would shift
  // RNG draws and change every later round. Both paths, at every thread
  // count, must match the serial ComputeRun run exactly.
  auto [golden, golden_stopped] = RunCountingBppr(false, 1);
  EXPECT_GT(golden.num_rounds, 1u);
  EXPECT_GT(golden_stopped, 0u);
  for (uint32_t threads : {1u, 2u, 8u}) {
    for (bool fallback : {false, true}) {
      auto [result, stopped] = RunCountingBppr(fallback, threads);
      ExpectBitIdentical(golden, result);
      EXPECT_EQ(golden_stopped, stopped)
          << "threads=" << threads << " fallback=" << fallback;
    }
  }
}

}  // namespace
}  // namespace vcmp
