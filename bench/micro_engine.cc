// google-benchmark microbenchmarks of the engine primitives: outbox
// delivery, inbox grouping, partitioning, counting-mode walk
// transitions, mirror-plan construction, and LMA fitting. These quantify
// the cost of the building blocks the figure benches compose.

#include <benchmark/benchmark.h>

#include "common/math/lma.h"
#include "common/rng.h"
#include "engine/mirror_engine.h"
#include "engine/worker.h"
#include "graph/generators.h"
#include "graph/partition.h"

namespace vcmp {
namespace {

const Graph& BenchGraph() {
  static const auto& graph = *new Graph(GenerateRmat({.num_vertices = 1 << 15,
                                                      .num_edges = 1 << 18,
                                                      .seed = 5}));
  return graph;
}

void BM_WorkerDrain(benchmark::State& state) {
  // Measures delivery: append each filled outbox into a destination inbox
  // and reset its combine index. Worker buffers are reused across
  // iterations, so steady-state cost (no per-round allocation) is what
  // gets measured.
  Worker worker;
  worker.Reset(8);
  Rng rng(5);
  MessageBlock inbox;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 10000; ++i) {
      worker.outbox(static_cast<uint32_t>(rng.NextBounded(8)))
          .PushBack(static_cast<VertexId>(rng.NextBounded(1 << 14)), 0, 1.0,
                    1.0);
    }
    state.ResumeTiming();
    for (uint32_t machine = 0; machine < 8; ++machine) {
      inbox.Clear();
      worker.Drain(machine, &inbox);
      benchmark::DoNotOptimize(inbox.targets());
    }
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_WorkerDrain);

void BM_WorkerSwapOutbox(benchmark::State& state) {
  // The single-sender delivery path: an O(1) buffer exchange instead of
  // a column append. The contrast with BM_WorkerDrain quantifies what
  // single-machine (or single-active-sender) rounds save.
  Worker worker;
  worker.Reset(1);
  Rng rng(6);
  MessageBlock inbox;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 10000; ++i) {
      worker.outbox(0).PushBack(
          static_cast<VertexId>(rng.NextBounded(1 << 14)), 0, 1.0, 1.0);
    }
    inbox.Clear();
    state.ResumeTiming();
    worker.SwapOutbox(0, &inbox);
    benchmark::DoNotOptimize(inbox.targets());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_WorkerSwapOutbox);

void BM_InboxGrouping(benchmark::State& state) {
  // range(1) selects the dense counting-sort strategy (vertex space
  // declared and n >= V) versus the sparse pair-radix strategy.
  const bool dense = state.range(1) != 0;
  Rng rng(2);
  std::vector<VertexId> targets(static_cast<size_t>(state.range(0)));
  for (VertexId& target : targets) {
    target = static_cast<VertexId>(rng.NextBounded(1 << 12));
  }
  Worker worker;
  for (auto _ : state) {
    state.PauseTiming();
    worker.Reset(1);
    if (dense) worker.set_vertex_space(1 << 12);
    for (VertexId target : targets) {
      worker.inbox().PushBack(target, 0, 1.0, 1.0);
    }
    state.ResumeTiming();
    worker.GroupInbox();
    benchmark::DoNotOptimize(worker.runs().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InboxGrouping)
    ->Args({1 << 12, 0})
    ->Args({1 << 16, 0})
    ->Args({1 << 20, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 1});

void BM_HashPartition(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  HashPartitioner partitioner;
  for (auto _ : state) {
    Partitioning part = partitioner.Partition(graph, 8);
    benchmark::DoNotOptimize(part.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.NumVertices());
}
BENCHMARK(BM_HashPartition);

void BM_GreedyEdgeCutPartition(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  GreedyEdgeCutPartitioner partitioner;
  for (auto _ : state) {
    Partitioning part = partitioner.Partition(graph, 8);
    benchmark::DoNotOptimize(part.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.NumEdges());
}
BENCHMARK(BM_GreedyEdgeCutPartition);

void BM_MirrorPlan(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Partitioning part = HashPartitioner().Partition(graph, 8);
  for (auto _ : state) {
    MirrorPlan plan(graph, part, 64);
    benchmark::DoNotOptimize(plan.TotalMirrors());
  }
  state.SetItemsProcessed(state.iterations() * graph.NumEdges());
}
BENCHMARK(BM_MirrorPlan);

void BM_BinomialWalkSplit(benchmark::State& state) {
  // The inner loop of counting-mode BPPR: multinomial split via
  // conditional binomials over a degree-32 vertex.
  Rng rng(3);
  const uint64_t walks = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    uint64_t remaining = walks;
    uint64_t out = 0;
    for (int left = 32; left > 0 && remaining > 0; --left) {
      uint64_t portion =
          left == 1 ? remaining : rng.NextBinomial(remaining, 1.0 / left);
      out += portion;
      remaining -= portion;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_BinomialWalkSplit)->Arg(100)->Arg(100000)->Arg(100000000);

void BM_LmaPowerLawFit(benchmark::State& state) {
  std::vector<double> xs;
  std::vector<double> ys;
  double x = 2.0;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.2) + 40.0);
    x *= 2.0;
  }
  for (auto _ : state) {
    auto fit = FitPowerLaw(xs, ys);
    benchmark::DoNotOptimize(fit.ok());
  }
}
BENCHMARK(BM_LmaPowerLawFit);

}  // namespace
}  // namespace vcmp

BENCHMARK_MAIN();
