// google-benchmark microbenchmarks of inbox grouping: each of the four
// GroupInbox strategies in isolation (sorted fast path, small
// comparison sort, dense counting, radix pair-sort). These isolate the
// group phase the engine benches (perf_engine) only report in
// aggregate, so a grouping regression is attributable without rerunning
// a full workload.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "engine/worker.h"

namespace vcmp {
namespace {

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

/// Pre-sorted distinct keys, which GroupInbox must recognise and
/// run-build without sorting.
std::vector<Message> SortedInbox(size_t size, uint32_t num_tags) {
  std::vector<Message> inbox;
  inbox.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    inbox.push_back(Message{static_cast<VertexId>(i / num_tags),
                            static_cast<uint32_t>(i % num_tags),
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

void RunSerialGrouping(benchmark::State& state,
                       const std::vector<Message>& inbox,
                       VertexId vertex_space) {
  Worker worker;
  for (auto _ : state) {
    state.PauseTiming();
    FillWorker(worker, inbox, vertex_space);
    state.ResumeTiming();
    worker.GroupInbox();
    benchmark::DoNotOptimize(worker.runs().size());
  }
  state.SetItemsProcessed(state.iterations() * inbox.size());
}

void BM_GroupSorted(benchmark::State& state) {
  RunSerialGrouping(state,
                    SortedInbox(static_cast<size_t>(state.range(0)), 4),
                    /*vertex_space=*/0);
}
BENCHMARK(BM_GroupSorted)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_GroupSmall(benchmark::State& state) {
  // Below the sort cutoff: the comparison-sort strategy.
  RunSerialGrouping(state, RandomInbox(static_cast<size_t>(state.range(0)),
                                       16, 3, /*seed=*/9),
                    /*vertex_space=*/0);
}
BENCHMARK(BM_GroupSmall)->Arg(16)->Arg(48);

void BM_GroupDense(benchmark::State& state) {
  // Single tag, n >= vertex space: the dense counting strategy.
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t space = static_cast<uint32_t>(n / 4);
  RunSerialGrouping(state, RandomInbox(n, space, 1, /*seed=*/11), space);
}
BENCHMARK(BM_GroupDense)->Arg(1 << 14)->Arg(1 << 18);

void BM_GroupRadix(benchmark::State& state) {
  // Many targets, several tags, no usable vertex space: the radix
  // pair-sort strategy.
  RunSerialGrouping(state, RandomInbox(static_cast<size_t>(state.range(0)),
                                       1 << 18, 16, /*seed=*/13),
                    /*vertex_space=*/0);
}
BENCHMARK(BM_GroupRadix)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace
}  // namespace vcmp

BENCHMARK_MAIN();
