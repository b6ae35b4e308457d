// perfbench_driver: the measuring half of the fixed-work benchmark. It
// runs one named workload through vcmp's public entry points and prints
// one JSON record of raw samples (set-up times, per-pass wall times,
// per-operation work fingerprints and, in traced mode, per-layer times).
// perfbench/run.py builds this binary, runs it, checks the fingerprints
// and reduces the samples to the benchmark's metrics.
//
//   perfbench_driver --workload=combine-1t --seed=11 --seconds=10
//   perfbench_driver --workload=ooc-spill --trace=true
//       --spans-out=spans.json --scratch-dir=.bench_build/ooc
//
// Nothing here reaches inside src/: layer times come from spans this file
// records around the calls into each module (MultiTask::MakeProgram, the
// runner's engine_observer/batch_observer hooks, MultiProcessingRunner::
// Run, ConcurrentRunner::Run) plus the engine's opt-in
// collect_phase_times breakdown.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/concurrent_runner.h"
#include "core/runner.h"
#include "engine/system_profile.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "metrics/export.h"
#include "tasks/bppr.h"
#include "tasks/mssp.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------
// Workloads. Each one is fixed work: the schedules below were chosen so
// that no batch reaches the simulated overload verdict on any seed the
// benchmark was checked on (perfbench/README.md lists the margins).

struct TaskRun {
  const char* task;
  double workload;
  uint32_t batches;
};

struct Workload {
  const char* name;
  DatasetId dataset;
  double scale;
  SystemKind system;
  bool combining;
  /// Total threads the workload runs with (engine threads, or for the
  /// concurrent workload driver slots plus shared pool workers).
  uint32_t threads;
  /// Sequential multi-processing runs of one pass (runner workloads).
  std::vector<TaskRun> runs;
  /// Real out-of-core budget, paper-scale bytes per machine (0 = off).
  uint64_t ooc_budget_bytes = 0;
  uint32_t ooc_sections = 0;
  uint32_t ooc_page_messages = 0;
  /// Concurrent workload (the balanced query mix): queries in flight (K);
  /// 0 for runner workloads.
  uint32_t concurrency = 0;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"combine-1t", DatasetId::kLiveJournal, 256.0, SystemKind::kPregelPlus,
       /*combining=*/true, /*threads=*/1,
       {{"BPPR", 1024, 2}, {"MSSP", 512, 4}}},
      {"ooc-spill", DatasetId::kLiveJournal, 256.0, SystemKind::kGraphD,
       /*combining=*/false, /*threads=*/2, {{"BPPR", 1024, 2}},
       /*ooc_budget_bytes=*/4ull << 20, /*ooc_sections=*/64,
       /*ooc_page_messages=*/256},
      {"concurrent-mix", DatasetId::kDblp, 256.0, SystemKind::kPregelPlus,
       /*combining=*/false, /*threads=*/4, {}, 0, 0, 0,
       /*concurrency=*/2},
  };
  return workloads;
}

// ---------------------------------------------------------------------
// Spans, kept in memory and written out when the run ends.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same lane, -1 for a lane's root.
  int32_t parent = -1;
  /// Batch index within a run, or the run index for core.run spans.
  int64_t id = 0;
  /// Query (runner workloads: the run index within the pass).
  uint32_t query = 0;
};

/// One thread's flat span list: lane 0 on runner workloads, one lane per
/// ConcurrentRunner driver slot on the concurrent workload. A span's
/// parent is the innermost span open in the lane when it is recorded.
/// (obs::Tracer is not reused: by contract it records simulated-clock
/// timestamps only.)
class SpanLane {
 public:
  int32_t Begin(const char* name, int64_t id, uint32_t query,
                int64_t start_ns) {
    Add(name, start_ns, start_ns, id, query);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  /// Ends `index` and any span still open inside it.
  void End(int32_t index, int64_t end_ns) {
    while (!open_.empty()) {
      const int32_t top = open_.back();
      open_.pop_back();
      spans_[top].end_ns = end_ns;
      if (top == index) break;
    }
  }
  /// Records an already finished span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t id,
           uint32_t query) {
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.parent = open_.empty() ? -1 : open_.back();
    span.id = id;
    span.query = query;
    spans_.push_back(span);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Bench-side MultiTask wrapper: records a tasks.make_program span into
/// the attached lane (null = tracing off).
class TimedTask : public MultiTask {
 public:
  explicit TimedTask(std::unique_ptr<MultiTask> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  double MinBatchWorkload() const override {
    return inner_->MinBatchWorkload();
  }

  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override {
    if (lane_ == nullptr) {
      return inner_->MakeProgram(context, flavor, workload, seed);
    }
    const int64_t start = NowNs();
    auto program = inner_->MakeProgram(context, flavor, workload, seed);
    lane_->Add("tasks.make_program", start, NowNs(), ++batch_, query_);
    return program;
  }

  void Attach(SpanLane* lane, uint32_t query) {
    lane_ = lane;
    query_ = query;
    batch_ = 0;
  }

 private:
  std::unique_ptr<MultiTask> inner_;
  SpanLane* lane_ = nullptr;
  uint32_t query_ = 0;
  mutable int64_t batch_ = 0;
};

// ---------------------------------------------------------------------
// Records are JSON (metrics/export.h's JsonWriter prints doubles with
// 17 significant digits, so simulated seconds compare bit-exactly).

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

/// FNV-1a over task-visible results, so a fingerprint pins answers and
/// not only work counts.
class Digest {
 public:
  void Mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Digest of a finished batch program's answers (BPPR walk stops per
/// vertex, MSSP sources and hop distances); empty for other programs.
std::string ResultDigest(const VertexProgram& program, VertexId vertices) {
  Digest digest;
  if (const auto* bppr = dynamic_cast<const BpprCountingProgram*>(&program)) {
    for (VertexId v = 0; v < vertices; ++v) digest.Mix(bppr->StoppedAt(v));
    return StrFormat("bppr:%llu:%016llx",
                     static_cast<unsigned long long>(bppr->TotalStopped()),
                     static_cast<unsigned long long>(digest.value()));
  }
  if (const auto* mssp = dynamic_cast<const MsspProgram*>(&program)) {
    for (uint32_t s = 0; s < mssp->num_samples(); ++s) {
      digest.Mix(mssp->SourceOf(s));
      for (VertexId v = 0; v < vertices; ++v) {
        digest.Mix(mssp->Distance(s, v));
      }
    }
    return StrFormat("mssp:%u:%016llx", mssp->num_samples(),
                     static_cast<unsigned long long>(digest.value()));
  }
  return "";
}

// ---------------------------------------------------------------------
// One pass's record.

struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;
  /// Every lane opens with a "pass" span; traced passes nest the layer
  /// spans under it.
  std::vector<SpanLane> lanes;
  /// The engine's own phase breakdown (collect_phase_times), summed over
  /// the pass's batches; traced runner passes only.
  EnginePhaseTimes phases;
  /// One JSON object per operation (batch, or query on the concurrent
  /// workload): its work fingerprint plus ok/error.
  std::vector<std::string> ops;
  // Work counters of the pass (runner workloads read EngineResult).
  uint64_t rounds = 0;
  double logical_msgs = 0.0;
  double wire_msgs = 0.0;
  double active_vertices = 0.0;
  double simulated_s = 0.0;
  uint64_t overloaded_batches = 0;
  uint64_t batches = 0;
  uint64_t queries = 0;
  OocRunStats ooc;

  /// Opens every lane's root span, and closes them with the pass's wall
  /// time, from the same two clock readings.
  void Start(size_t lane_count) {
    lanes.resize(lane_count);
    start_ns_ = NowNs();
    for (SpanLane& lane : lanes) lane.Begin("pass", 0, 0, start_ns_);
  }
  void Finish() {
    const int64_t end = NowNs();
    for (SpanLane& lane : lanes) lane.End(0, end);
    wall_s = Seconds(end - start_ns_);
  }

 private:
  int64_t start_ns_ = 0;
};

/// Per-layer seconds of a traced pass: span durations summed by name
/// over every lane, plus the engine's phase breakdown.
std::string LayersJson(const PassRecord& pass) {
  double make_program_s = 0.0;
  uint64_t programs = 0;
  double engine_run_s = 0.0;
  double check_s = 0.0;
  double core_run_s = 0.0;
  for (const SpanLane& lane : pass.lanes) {
    for (const Span& span : lane.spans()) {
      const std::string_view name = span.name;
      const double s = Seconds(span.end_ns - span.start_ns);
      if (name == "tasks.make_program") {
        make_program_s += s;
        ++programs;
      } else if (name == "engine.run") {
        engine_run_s += s;
      } else if (name == "bench.check") {
        check_s += s;
      } else if (name == "core.run") {
        core_run_s += s;
      }
    }
  }
  JsonWriter layers(/*with_schema_version=*/false);
  layers.Field("make_program_s", make_program_s);
  layers.Field("programs", programs);
  layers.Field("engine_run_s", engine_run_s);
  layers.Field("compute_s", pass.phases.compute_seconds);
  layers.Field("group_busy_s", pass.phases.group_seconds);
  layers.Field("stage_busy_s", pass.phases.stage_seconds);
  layers.Field("deliver_s", pass.phases.deliver_seconds);
  layers.Field("check_s", check_s);
  layers.Field("core_run_s", core_run_s);
  return layers.Close();
}

std::string PassJson(const PassRecord& pass) {
  JsonWriter json(/*with_schema_version=*/false);
  json.Field("traced", pass.traced);
  json.Field("wall_s", pass.wall_s);
  json.RawField("ops", JsonArray(pass.ops));
  JsonWriter counters(/*with_schema_version=*/false);
  counters.Field("rounds", pass.rounds);
  counters.Field("logical_msgs", pass.logical_msgs);
  counters.Field("simulated_s", pass.simulated_s);
  counters.Field("overloaded_batches", pass.overloaded_batches);
  counters.Field("batches", pass.batches);
  counters.Field("queries", pass.queries);
  counters.Field("wire_msgs", pass.wire_msgs);
  counters.Field("active_vertices", pass.active_vertices);
  counters.Field("spill_bytes_written", pass.ooc.spill_bytes_written);
  counters.Field("spill_bytes_read", pass.ooc.spill_bytes_read);
  counters.Field("restored_msgs", pass.ooc.restored_messages);
  counters.Field("spill_pages", pass.ooc.spill_pages);
  counters.Field("cache_hits", pass.ooc.cache_hits);
  counters.Field("cache_misses", pass.ooc.cache_misses);
  counters.Field("cache_evictions", pass.ooc.cache_evictions);
  counters.Field("prefetch_loads", pass.ooc.prefetch_loads);
  json.RawField("counters", counters.Close());
  if (pass.traced) json.RawField("layers", LayersJson(pass));
  return json.Close();
}

/// Per-batch engine totals the runner's BatchReport does not carry.
struct EngineTotals {
  double wire_msgs = 0.0;
  double logical_sent = 0.0;
  double active_vertices = 0.0;
  bool ooc_active = false;
  OocRunStats ooc;
};

std::string BatchOpJson(const std::string& task, uint64_t batch,
                        const BatchReport& report,
                        const EngineTotals* engine,
                        const std::string& digest) {
  JsonWriter op(/*with_schema_version=*/false);
  op.Field("task", task);
  op.Field("batch", batch);
  op.Field("workload", report.workload);
  op.Field("rounds", report.rounds);
  op.Field("logical_msgs", report.messages);
  op.Field("simulated_s", report.seconds);
  op.Field("overloaded", report.overloaded);
  op.Field("peak_memory_bytes", report.peak_memory_bytes);
  op.Field("spilled_bytes", report.spilled_bytes);
  if (engine != nullptr) {
    op.Field("wire_msgs", engine->wire_msgs);
    op.Field("logical_sent", engine->logical_sent);
    op.Field("active_vertices", engine->active_vertices);
    if (engine->ooc_active) {
      op.Field("spill_bytes_written", engine->ooc.spill_bytes_written);
      op.Field("restored_msgs", engine->ooc.restored_messages);
      op.Field("spill_pages", engine->ooc.spill_pages);
      op.Field("cache_hits", engine->ooc.cache_hits);
      op.Field("cache_misses", engine->ooc.cache_misses);
      op.Field("cache_evictions", engine->ooc.cache_evictions);
    }
  }
  op.Field("result", digest);
  op.Field("ok", true);
  op.Field("error", "");
  return op.Close();
}

std::string FailedOpJson(const std::string& task, uint64_t batch,
                         const std::string& error) {
  JsonWriter op(/*with_schema_version=*/false);
  op.Field("task", task);
  op.Field("batch", batch);
  op.Field("ok", false);
  op.Field("error", error);
  return op.Close();
}

// ---------------------------------------------------------------------
// Set-up samples.

struct SetupSample {
  double generate_s = 0.0;
  double partition_s = 0.0;
  double runner_s = 0.0;
  double Total() const { return generate_s + partition_s + runner_s; }
  std::string Json() const {
    JsonWriter json(/*with_schema_version=*/false);
    json.Field("total_s", Total());
    json.Field("generate_s", generate_s);
    json.Field("partition_s", partition_s);
    json.Field("runner_s", runner_s);
    return json.Close();
  }
};

RunnerOptions BaseOptions(const Workload& w, uint64_t seed,
                          const std::string& scratch_dir) {
  RunnerOptions options;
  options.cluster = ClusterSpec::Galaxy8();
  options.system = w.system;
  options.seed = seed;
  options.execution_threads = w.threads;
  options.clamp_threads_to_hardware = false;
  options.sender_combining = w.combining;
  if (w.ooc_budget_bytes > 0) {
    options.ooc.enabled = true;
    options.ooc.memory_budget_bytes = w.ooc_budget_bytes;
    options.ooc.cache_sections = w.ooc_sections;
    options.ooc.spill_page_messages = w.ooc_page_messages;
    options.ooc.prefetch = true;
    options.ooc.directory = scratch_dir;
  }
  return options;
}

// ---------------------------------------------------------------------
// Runner workloads: every task run of the pass goes through one
// MultiProcessingRunner over a partition computed at set-up.

class RunnerBench {
 public:
  RunnerBench(const Workload& workload, uint64_t seed,
              std::string scratch_dir)
      : workload_(workload), seed_(seed), scratch_dir_(std::move(scratch_dir)) {
    for (const TaskRun& run : workload_.runs) {
      auto task = MakeTask(run.task);
      if (!task.ok()) {
        std::cerr << task.status().ToString() << "\n";
        std::exit(2);
      }
      tasks_.push_back(std::make_unique<TimedTask>(std::move(task.value())));
    }
  }

  /// Times one set-up. The first one builds what the passes use; later
  /// ones build the same objects and drop them.
  SetupSample Setup() {
    SetupSample sample;
    int64_t start = NowNs();
    auto dataset = std::make_unique<Dataset>(
        LoadDataset(workload_.dataset, workload_.scale));
    int64_t now = NowNs();
    sample.generate_s = Seconds(now - start);
    start = now;
    RunnerOptions options = BaseOptions(workload_, seed_, scratch_dir_);
    auto partition = std::make_unique<Partitioning>(
        MakePartitioner(ProfileFor(workload_.system).partitioner)
            ->Partition(dataset->graph, options.cluster.num_machines));
    now = NowNs();
    sample.partition_s = Seconds(now - start);
    start = now;
    options.shared_partition = partition.get();
    options.engine_observer = [this](const EngineResult& result) {
      OnEngine(result);
    };
    options.batch_observer = [this](const VertexProgram& program) {
      OnBatch(program);
    };
    auto runner = std::make_unique<MultiProcessingRunner>(*dataset, options);
    sample.runner_s = Seconds(NowNs() - start);
    if (runner_ == nullptr) {
      // Traced passes run on a twin runner that collects phase times.
      options.collect_phase_times = true;
      traced_runner_ =
          std::make_unique<MultiProcessingRunner>(*dataset, options);
      dataset_ = std::move(dataset);
      partition_ = std::move(partition);
      runner_ = std::move(runner);
    }
    return sample;
  }

  const Dataset& dataset() const { return *dataset_; }
  uint64_t OpsPerPass() const {
    uint64_t ops = 0;
    for (const TaskRun& run : workload_.runs) ops += run.batches;
    return ops;
  }

  PassRecord Pass(bool traced) {
    PassRecord pass;
    pass.traced = traced;
    pass_ = &pass;
    MultiProcessingRunner& runner = traced ? *traced_runner_ : *runner_;
    pass.Start(1);
    lane_ = traced ? &pass.lanes[0] : nullptr;
    for (size_t i = 0; i < workload_.runs.size(); ++i) {
      const TaskRun& run = workload_.runs[i];
      TimedTask& task = *tasks_[i];
      task.Attach(lane_, static_cast<uint32_t>(i));
      run_index_ = static_cast<uint32_t>(i);
      engine_totals_.clear();
      digests_.clear();
      int32_t run_span = -1;
      if (lane_ != nullptr) {
        run_span = lane_->Begin("core.run", static_cast<int64_t>(i),
                                static_cast<uint32_t>(i), NowNs());
      }
      Result<RunReport> report = runner.Run(
          task, BatchSchedule::Equal(run.workload, run.batches));
      if (lane_ != nullptr) lane_->End(run_span, NowNs());
      task.Attach(nullptr, 0);
      ++pass.queries;
      if (!report.ok()) {
        for (uint32_t b = 1; b <= run.batches; ++b) {
          pass.ops.push_back(
              FailedOpJson(run.task, b, report.status().ToString()));
        }
        continue;
      }
      const RunReport& r = report.value();
      pass.simulated_s += r.total_seconds;
      for (size_t b = 0; b < r.batches.size(); ++b) {
        const BatchReport& batch = r.batches[b];
        const EngineTotals* engine =
            b < engine_totals_.size() ? &engine_totals_[b] : nullptr;
        const std::string digest = b < digests_.size() ? digests_[b] : "";
        pass.ops.push_back(
            BatchOpJson(run.task, b + 1, batch, engine, digest));
        ++pass.batches;
        pass.rounds += batch.rounds;
        pass.logical_msgs += batch.messages;
        if (batch.overloaded) ++pass.overloaded_batches;
      }
      // A batch the runner never reached (it stops after an overloaded
      // batch) is a truncated operation.
      for (size_t b = r.batches.size(); b < run.batches; ++b) {
        pass.ops.push_back(FailedOpJson(run.task, b + 1,
                                        "truncated: batch not executed"));
      }
    }
    pass.Finish();
    pass_ = nullptr;
    lane_ = nullptr;
    return pass;
  }

 private:
  void OnEngine(const EngineResult& result) {
    if (lane_ != nullptr) {
      // The engine span runs from MakeProgram's return (the span the
      // task wrapper just recorded) to this observer call.
      const Span& made = lane_->spans().back();
      if (std::string_view(made.name) == "tasks.make_program") {
        lane_->Add("engine.run", made.end_ns, NowNs(), made.id, made.query);
      }
      pass_->phases.compute_seconds += result.phase.compute_seconds;
      pass_->phases.group_seconds += result.phase.group_seconds;
      pass_->phases.stage_seconds += result.phase.stage_seconds;
      pass_->phases.deliver_seconds += result.phase.deliver_seconds;
    }
    EngineTotals totals;
    totals.wire_msgs = result.total_wire_messages;
    totals.logical_sent = result.total_logical_sent;
    for (const RoundStats& round : result.rounds) {
      totals.active_vertices += round.active_vertices;
    }
    totals.ooc_active = result.ooc_active;
    totals.ooc = result.ooc;
    pass_->wire_msgs += totals.wire_msgs;
    pass_->active_vertices += totals.active_vertices;
    if (result.ooc_active) pass_->ooc.Accumulate(result.ooc);
    engine_totals_.push_back(totals);
  }

  void OnBatch(const VertexProgram& program) {
    const int64_t start = NowNs();
    digests_.push_back(
        ResultDigest(program, dataset_->graph.NumVertices()));
    if (lane_ != nullptr) {
      lane_->Add("bench.check", start, NowNs(),
                 static_cast<int64_t>(digests_.size()), run_index_);
    }
  }

  const Workload& workload_;
  const uint64_t seed_;
  const std::string scratch_dir_;
  std::vector<std::unique_ptr<TimedTask>> tasks_;
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<Partitioning> partition_;
  std::unique_ptr<MultiProcessingRunner> runner_;
  std::unique_ptr<MultiProcessingRunner> traced_runner_;
  PassRecord* pass_ = nullptr;
  SpanLane* lane_ = nullptr;
  uint32_t run_index_ = 0;
  std::vector<EngineTotals> engine_totals_;
  std::vector<std::string> digests_;
};

// ---------------------------------------------------------------------
// Concurrent workload: a seeded mix of small queries through
// ConcurrentRunner. The mix is a pure function of the seed.

class ConcurrentBench {
 public:
  /// The mix is balanced so every seed does comparable work. The shapes
  /// are each benchmark task once per (workload, batches) pair of
  /// {64, 128, 192} x {1, 2}; the seed shuffles their order. Each shape
  /// then runs as two adjacent queries, which ConcurrentRunner's static
  /// round-robin puts on different driver slots, so both slots carry the
  /// same shapes and the pass time does not hinge on how the shuffle
  /// happened to split the work. Every query has its own seed stream.
  ConcurrentBench(const Workload& workload, uint64_t seed)
      : workload_(workload), seed_(seed) {
    struct Shape {
      std::string task;
      double units;
      uint32_t batches;
    };
    std::vector<Shape> distinct;
    for (const std::string& task : BenchmarkTaskNames()) {
      for (uint32_t w = 1; w <= 3; ++w) {
        for (uint32_t b = 1; b <= 2; ++b) distinct.push_back({task, 64.0 * w, b});
      }
    }
    Rng rng(Rng::QuerySeed(seed, 0x6d6978ull));
    for (size_t i = distinct.size(); i > 1; --i) {
      std::swap(distinct[i - 1], distinct[rng.NextBounded(i)]);
    }
    std::vector<Shape> shapes;
    for (const Shape& shape : distinct) {
      for (uint32_t slot = 0; slot < workload_.concurrency; ++slot) {
        shapes.push_back(shape);
      }
    }
    for (const Shape& shape : shapes) {
      auto task = MakeTask(shape.task);
      if (!task.ok()) {
        std::cerr << task.status().ToString() << "\n";
        std::exit(2);
      }
      tasks_.push_back(std::make_unique<TimedTask>(std::move(task.value())));
      ConcurrentQuery query;
      query.task = tasks_.back().get();
      query.schedule = BatchSchedule::Equal(shape.units, shape.batches);
      batches_.push_back(shape.batches);
      queries_.push_back(std::move(query));
    }
  }

  /// Times one set-up; as RunnerBench::Setup, only the first is kept.
  SetupSample Setup() {
    SetupSample sample;
    int64_t start = NowNs();
    auto dataset = std::make_unique<Dataset>(
        LoadDataset(workload_.dataset, workload_.scale));
    int64_t now = NowNs();
    sample.generate_s = Seconds(now - start);
    start = now;
    // ConcurrentRunner partitions in its constructor; that is the only
    // set-up work it does, so its construction is the partition time.
    ConcurrentRunnerOptions options;
    options.base = BaseOptions(workload_, seed_, "");
    options.concurrency = workload_.concurrency;
    auto runner = std::make_unique<ConcurrentRunner>(*dataset, options);
    sample.partition_s = Seconds(NowNs() - start);
    if (runner_ == nullptr) {
      dataset_ = std::move(dataset);
      runner_ = std::move(runner);
    }
    return sample;
  }

  const Dataset& dataset() const { return *dataset_; }
  uint64_t OpsPerPass() const { return queries_.size(); }

  PassRecord Pass(bool traced) {
    PassRecord pass;
    pass.traced = traced;
    pass.Start(workload_.concurrency);
    // ConcurrentRunner's driver slot s runs queries s, s+K, s+2K, ... in
    // order, so each lane is written by one driver thread, and the join
    // inside Run orders those writes before Finish.
    for (uint32_t q = 0; q < queries_.size(); ++q) {
      tasks_[q]->Attach(
          traced ? &pass.lanes[q % workload_.concurrency] : nullptr, q);
    }
    Result<ConcurrentRunReport> report = runner_->Run(queries_);
    pass.Finish();
    for (const auto& task : tasks_) task->Attach(nullptr, 0);
    if (!report.ok()) {
      for (uint32_t q = 0; q < queries_.size(); ++q) {
        pass.ops.push_back(FailedOpJson(queries_[q].task->name(), q,
                                        report.status().ToString()));
      }
      return pass;
    }
    const ConcurrentRunReport& r = report.value();
    for (uint32_t q = 0; q < queries_.size(); ++q) {
      const QueryOutcome& outcome = r.queries[q];
      const std::string task = queries_[q].task->name();
      ++pass.queries;
      if (!outcome.status.ok()) {
        pass.ops.push_back(FailedOpJson(task, q, outcome.status.ToString()));
        continue;
      }
      const RunReport& run = outcome.report;
      std::vector<std::string> batches;
      for (const BatchReport& batch : run.batches) {
        JsonWriter b(/*with_schema_version=*/false);
        b.Field("rounds", batch.rounds);
        b.Field("logical_msgs", batch.messages);
        b.Field("simulated_s", batch.seconds);
        b.Field("overloaded", batch.overloaded);
        batches.push_back(b.Close());
        ++pass.batches;
        if (batch.overloaded) ++pass.overloaded_batches;
      }
      const bool complete = run.batches.size() == batches_[q];
      JsonWriter op(/*with_schema_version=*/false);
      op.Field("task", task);
      op.Field("query", static_cast<uint64_t>(q));
      op.Field("workload", run.workload);
      op.Field("batches_scheduled", static_cast<uint64_t>(batches_[q]));
      op.Field("batches_run", static_cast<uint64_t>(run.batches.size()));
      op.Field("rounds", run.total_rounds);
      op.Field("logical_msgs", run.total_messages);
      op.Field("simulated_s", run.total_seconds);
      op.Field("overloaded", run.overloaded);
      op.Field("peak_residual_bytes", run.peak_residual_bytes);
      op.Field("peak_memory_bytes", run.peak_memory_bytes);
      op.RawField("batch_reports", JsonArray(batches));
      op.Field("ok", complete);
      op.Field("error", complete ? "" : "truncated: batches not executed");
      pass.ops.push_back(op.Close());
      pass.rounds += run.total_rounds;
      pass.logical_msgs += run.total_messages;
      pass.simulated_s += run.total_seconds;
    }
    return pass;
  }

 private:
  const Workload& workload_;
  const uint64_t seed_;
  std::vector<std::unique_ptr<TimedTask>> tasks_;
  std::vector<ConcurrentQuery> queries_;
  std::vector<uint32_t> batches_;
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<ConcurrentRunner> runner_;
};

// ---------------------------------------------------------------------

/// The CPUs this process may run on, in id order (empty if unknown).
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Spreads a runner workload's passes over every allowed CPU. On a
/// shared host each virtual CPU is slowed by its own neighbours, and the
/// slowdown moves over seconds; a workload with fewer threads than CPUs
/// would otherwise stay on whichever CPUs it started on, so its run time
/// would hang on where it landed. Pass p is pinned to `threads`
/// consecutive CPUs starting at the p-th allowed CPU (cyclically), so
/// every run samples every CPU equally. The engine creates its worker
/// threads inside each run, and they inherit this mask.
class CpuRotation {
 public:
  CpuRotation(std::vector<int> cpus, uint32_t threads)
      : cpus_(std::move(cpus)), threads_(threads) {}

  /// Pins the calling thread for the next pass; a no-op when the
  /// workload uses every CPU.
  void Next() {
    if (threads_ >= cpus_.size()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (uint32_t t = 0; t < threads_; ++t) {
      CPU_SET(cpus_[(next_ + t) % cpus_.size()], &set);
    }
    next_ = (next_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  const std::vector<int> cpus_;
  const uint32_t threads_;
  size_t next_ = 0;
};

std::string BuildProblem() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    return "build type is '" + build_type + "', not Release";
  }
#ifndef NDEBUG
  return "NDEBUG is not defined (assertions are compiled in)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (PERFBENCH_SANITIZED != 0) return "sanitizer flags in the build";
  return "";
}

/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) of
/// the traced passes' lanes; a lane is a trace thread, and span and
/// parent numbers run over the whole file.
Status WriteSpans(const std::vector<std::vector<SpanLane>>& passes,
                  const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write " + path);
  int64_t origin = 0;
  if (!passes.empty() && !passes.front().empty() &&
      !passes.front().front().spans().empty()) {
    origin = passes.front().front().spans().front().start_ns;
  }
  std::fprintf(out, "{\"traceEvents\": [\n");
  size_t next = 0;
  for (const std::vector<SpanLane>& lanes : passes) {
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      const size_t base = next;
      for (const Span& s : lanes[lane].spans()) {
        const long long parent =
            s.parent < 0 ? -1 : static_cast<long long>(base + s.parent);
        std::fprintf(out,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span\": %zu, \"parent\": %lld, \"id\": %lld, "
                     "\"query\": %u}}",
                     next == 0 ? "" : ",\n", s.name, lane,
                     (s.start_ns - origin) * 1e-3,
                     (s.end_ns - s.start_ns) * 1e-3, next, parent,
                     static_cast<long long>(s.id), s.query);
        ++next;
      }
    }
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  return ok ? Status::OK() : Status::IoError("cannot close " + path);
}

template <typename Bench>
int Measure(Bench& bench, const Workload& workload, uint64_t seed,
            double seconds, bool trace, const std::string& spans_out,
            uint32_t cpus, CpuRotation& rotation) {
  // The first set-up builds what the passes use and is not a sample: it
  // alone pays first-touch page faults. The samples are set-ups timed
  // after every measured pass, for at least kSetupSliceSeconds each
  // time, so they are spread over the whole run and see the same slow
  // and fast phases of the host as the passes do. Back-to-back set-ups
  // would all fall into one phase, and a sub-millisecond set-up would
  // then move by a third between processes.
  constexpr double kSetupSliceSeconds = 0.02;
  bench.Setup();
  std::vector<std::string> setup_json;
  std::vector<std::string> passes;
  std::vector<std::vector<SpanLane>> traced_lanes;
  // Pass 0 warms allocator arenas and engine scratch; run.py keeps it
  // out of the timing statistics but still checks its fingerprint.
  rotation.Next();
  passes.push_back(PassJson(bench.Pass(false)));
  const int64_t start = NowNs();
  const uint32_t min_passes = trace ? 4 : 3;
  uint32_t measured = 0;
  while (measured < min_passes ||
         Seconds(NowNs() - start) < seconds) {
    // Traced runs alternate untraced and traced passes so the tracing
    // overhead is measured against neighbours in the same process.
    // A traced pass runs on the CPUs of the untraced pass before it.
    const bool traced = trace && (measured % 2 == 1);
    if (!traced) rotation.Next();
    PassRecord pass = bench.Pass(traced);
    passes.push_back(PassJson(pass));
    if (traced) traced_lanes.push_back(std::move(pass.lanes));
    ++measured;
    const int64_t slice_start = NowNs();
    do {
      setup_json.push_back(bench.Setup().Json());
    } while (Seconds(NowNs() - slice_start) < kSetupSliceSeconds);
  }
  if (trace && !spans_out.empty()) {
    Status written = WriteSpans(traced_lanes, spans_out);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  JsonWriter json(/*with_schema_version=*/false);
  json.Field("workload", workload.name);
  json.Field("seed", seed);
  json.Field("trace", trace);
  json.Field("nproc", static_cast<uint64_t>(cpus));
  json.Field("hardware_threads",
             static_cast<uint64_t>(ThreadPool::HardwareThreads()));
  json.Field("threads", static_cast<uint64_t>(workload.threads));
  json.Field("build_type", PERFBENCH_BUILD_TYPE);
  json.Field("lanes", static_cast<uint64_t>(
                          workload.concurrency > 0 ? workload.concurrency : 1));
  json.Field("ops_per_pass", bench.OpsPerPass());
  json.Field("graph_vertices",
             static_cast<uint64_t>(bench.dataset().graph.NumVertices()));
  json.Field("graph_edges",
             static_cast<uint64_t>(bench.dataset().graph.NumEdges()));
  json.Field("dataset_scale", bench.dataset().scale);
  json.Field("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  json.RawField("setups", JsonArray(setup_json));
  json.RawField("passes", JsonArray(passes));
  std::cout << json.Close() << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags("perfbench_driver",
                   "fixed-work benchmark driver (one workload per process)");
  flags.Define("workload", "", "workload name");
  flags.Define("seed", "11", "workload seed");
  flags.Define("seconds", "10", "measured seconds (after set-up)");
  flags.Define("trace", "false",
               "alternate traced and untraced passes and report layers");
  flags.Define("spans-out", "", "traced run: write spans to this file");
  flags.Define("scratch-dir", "",
               "directory for out-of-core spill files (removed at exit)");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  const std::string problem = BuildProblem();
  if (!problem.empty()) {
    std::cerr << "perfbench: refusing to measure: " << problem << "\n";
    return 3;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (flags.GetString("workload") == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '"
              << flags.GetString("workload") << "'\n";
    return 2;
  }
  std::vector<int> allowed = AllowedCpus();
  const uint32_t cpus = allowed.empty()
                            ? ThreadPool::HardwareThreads()
                            : static_cast<uint32_t>(allowed.size());
  if (workload->threads > cpus) {
    std::cerr << "perfbench: refusing " << workload->name << ": it needs "
              << workload->threads << " threads and only " << cpus
              << " CPUs are available (no oversubscription)\n";
    return 3;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const double seconds = flags.GetDouble("seconds");
  const bool trace = flags.GetBool("trace");
  const std::string spans_out = flags.GetString("spans-out");
  const std::string scratch_dir = flags.GetString("scratch-dir");
  if (workload->ooc_budget_bytes > 0 && scratch_dir.empty()) {
    std::cerr << "perfbench: " << workload->name
              << " needs --scratch-dir for its spill files\n";
    return 2;
  }

  int status = 0;
  if (workload->concurrency > 0) {
    // ConcurrentRunner starts its shared pool at set-up, so a mask set
    // per pass would not reach it; its passes are not rotated.
    CpuRotation rotation(std::move(allowed), cpus);
    ConcurrentBench bench(*workload, seed);
    status = Measure(bench, *workload, seed, seconds, trace, spans_out,
                     cpus, rotation);
  } else {
    CpuRotation rotation(std::move(allowed), workload->threads);
    RunnerBench bench(*workload, seed, scratch_dir);
    status = Measure(bench, *workload, seed, seconds, trace, spans_out,
                     cpus, rotation);
  }
  if (!scratch_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir, ec);
  }
  return status;
}

}  // namespace
}  // namespace vcmp

int main(int argc, char** argv) { return vcmp::Main(argc, argv); }
