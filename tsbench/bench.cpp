// tsbench — the serving benchmark of the tile-sparse stack.
//
// One process drives the public ServingRuntime API.  It builds a
// BERT-mini (L4 / H256 / FFN1024 / seq 32) from the seed, prunes and
// packs it, saves the artifact, memory-maps it back and serves it:
//
//   encoder-tw     closed loop, 2 requests in flight, 8 sequences
//                  (256 rows) per request, 75% tile-wise pruned model
//                  in "tw"; 2 workers, streams=1, batching off, 2
//                  kernel threads.  The paper's operating point: nn
//                  host ops, exec and the tw kernels do the work, and
//                  both workers contend for the entry's mutex.
//   encoder-dense  the same traffic on the unpruned model in "dense":
//                  the paper's baseline and the only workload on the
//                  dense micro-kernel path.
//   decode-int8    open loop, seeded Poisson arrivals at a fixed rate,
//                  one-row requests from two tenants split 3:1, 1 s
//                  deadline, through a GEMM entry over block0.ffn_in
//                  packed as "tw-int8" (1 kernel thread); 2 workers,
//                  batching on.  Admission, the batcher, the DRR
//                  tenant scheduler and row staging do the work; nn
//                  host ops do none.
//
// Rates, sizes and windows are constants: nothing is calibrated from
// a probe of the build under test.  Every OK response is compared bit
// for bit with a solo BatchEntry::run of the same input on a streams=1
// scheduler; a mismatch counts as a failure and makes the exit code
// nonzero.
//
// --trace 0 measures the end-to-end metrics.  --trace 1 runs the same
// traffic untraced and then traced (the difference is the tracing
// overhead), records spans around the benchmark's calls into each
// layer, replays the workload's graph node by node, times standalone
// kernel calls, runs a capacity sweep on decode-int8, prints the
// per-layer metrics and writes the spans as Chrome trace-event JSON.
//
// Usage: tsbench --workload W --seed N --seconds S --trace 0|1
//                [--work-dir DIR] [--trace-out PATH] [--source-id ID]
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/tile_pattern.hpp"
#include "exec/backend_registry.hpp"
#include "exec/batch_entry.hpp"
#include "exec/scheduler.hpp"
#include "gemm/micro_kernel.hpp"
#include "io/serialize.hpp"
#include "nn/batch_entry.hpp"
#include "nn/bert_mini.hpp"
#include "nn/layers.hpp"
#include "prune/tw_pruner.hpp"
#include "serve/serving_runtime.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace tilesparse;
namespace sv = tilesparse::serve;
using tsbench::Trace;

// ------------------------------------------------------------ constants

constexpr std::size_t kDim = 256;
constexpr std::size_t kHeads = 4;
constexpr std::size_t kLayers = 4;
constexpr std::size_t kFfn = 1024;
constexpr std::size_t kSeq = 32;
constexpr std::size_t kClasses = 4;
constexpr std::size_t kVocab = 64;
// The served model is part of the workload definition, so its weights
// come from this constant; --seed draws the traffic (which inputs, when
// they arrive, which tenant sends them).  A seeded model would also
// vary the tile pattern's shape, and with it the kernel rate, per seed.
constexpr std::uint64_t kModelSeed = 20211114;
constexpr double kSparsity = 0.75;
constexpr std::size_t kTileG = 64;
// Set-up is repeated at least kMinSetupReps times and for at least
// kMinSetupSeconds, and reported as the median.  Before the first timed
// set-up the process serves solo runs for kWarmSeconds: the first
// set-up after an idle period otherwise runs up to 3x slower (clock
// ramp-up, first thread and OpenMP team creation).
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 50;
constexpr double kMinSetupSeconds = 1.0;
constexpr double kWarmSeconds = 1.0;
// The measured window is cut into this many slices of equal request
// count; see report_end_to_end.  Decode's slices last about a second
// each: bursts of host steal time last one to a few seconds and, under
// them, its sub-millisecond p50 rises by 20% or more.  An encoder
// slice still holds over 30 requests.
constexpr std::size_t kEncoderSlices = 10;
constexpr std::size_t kDecodeSlices = 30;

constexpr std::size_t kEncoderSeqsPerRequest = 8;
constexpr std::size_t kEncoderInFlight = 2;
constexpr std::size_t kEncoderInputs = 8;
constexpr std::size_t kEncoderWarmRequests = 4;
constexpr double kEncoderTailQ = 0.90;
constexpr std::size_t kEncoderReplays = 6;

constexpr double kDecodeRate = 12000.0;  // requests per second
// A deadline far above any latency a healthy run sees, so that no
// request of the measured traffic fails: on a shared host, stalls of a
// few tens of ms (steal time) would time out a different number of
// requests in every run under a 20 ms deadline.  The 20 ms objective is
// the capacity sweep's p99 limit instead.
constexpr double kDecodeDeadlineMs = 1000.0;
constexpr double kDecodeTenant0Share = 0.75;
constexpr std::size_t kDecodeInputs = 512;
constexpr std::size_t kDecodeReplayRows = 16;
constexpr std::size_t kDecodeReplays = 50;
constexpr double kDecodeWarmSeconds = 0.25;
constexpr double kDecodeTailQ = 0.99;
// More than the deadline's worth of arrivals (1 s x 12000/s), so a
// stall shorter than the deadline never rejects at admission.
constexpr std::size_t kDecodeQueueCapacity = 32768;
constexpr double kSweepRates[] = {12000.0, 24000.0, 36000.0, 48000.0};
constexpr double kSweepSeconds = 1.0;
constexpr double kSweepP99LimitMs = 20.0;
constexpr double kSweepMaxFailFrac = 0.01;
constexpr std::size_t kSweepMaxEndQueue = 64;
constexpr double kSweepMaxLagMs = 1.0;  // p99: the generator kept schedule

// Logits of the served TW model against the dense reconstruction
// (to_dense of every loaded weight): fp32 with a different summation
// order, so a relative tolerance.
constexpr double kReconTolFp32 = 1e-4;
// tw-int8 rows against input x to_dense(weight): to_dense() already
// holds the dequantized int8 weights, so only the per-row activation
// quantization error (<= 1/254 of the row's max per element) remains.
constexpr double kReconTolInt8 = 0.05;
// Node self times of the serial replay must sum to within this share
// of ExecScheduler::run wall time on the same graph.
constexpr double kNodeCoverageTol = 0.10;

constexpr std::size_t kTraceCapacity = 300000;

enum class Kind { kEncoder, kDecode };

struct Workload {
  const char* name;
  Kind kind;
  const char* format;
  std::size_t workers;
  int kernel_threads;
  bool batching;
};

constexpr Workload kWorkloads[] = {
    {"encoder-tw", Kind::kEncoder, "tw", 2, 2, false},
    {"encoder-dense", Kind::kEncoder, "dense", 2, 2, false},
    {"decode-int8", Kind::kDecode, "tw-int8", 2, 1, true},
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

std::int64_t duration_ns(sv::Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Runs `fn`, returns its wall time in ms and records a span.
template <class Fn>
double timed_ms(Trace* trace, const char* name, std::int64_t parent, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  if (trace != nullptr) trace->add(name, t0, t1, parent);
  return ns_to_ms(t1 - t0);
}

bool same_bits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// max |a - b| / max(1, max |b|).
double relative_error(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double diff = 0.0, scale = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    static_cast<double>(b.data()[i])));
    scale = std::max(scale, std::fabs(static_cast<double>(b.data()[i])));
  }
  return diff / scale;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --------------------------------------------------------------- report

/// Metrics in print order.  `samples` is what the value was computed
/// from, printed beside it.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string samples = "") {
    rows_.push_back({std::move(name), value, std::move(unit),
                     std::move(samples)});
  }

  void print_table(const char* title) const {
    std::printf("%s\n", title);
    for (const Row& row : rows_) {
      std::printf("  %-30s %16.6f %-10s %s\n", row.name.c_str(), row.value,
                  row.unit.c_str(), row.samples.c_str());
    }
  }

  std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double value = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string samples;
  };
  std::vector<Row> rows_;
};

std::string count_note(std::size_t n, const char* what) {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

/// "(pXX of n=..., k beyond)" for a tail percentile.
std::string tail_note(std::size_t n, double q) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(p%g of n=%zu, %zu beyond%s)", q * 100.0, n,
                tsbench::samples_beyond(n, q),
                tsbench::tail_supported(n, q) ? "" : ", UNSUPPORTED");
  return buf;
}

// ---------------------------------------------------------------- setup

BertMiniConfig model_config(std::uint64_t seed) {
  BertMiniConfig config;
  config.dim = kDim;
  config.heads = kHeads;
  config.layers = kLayers;
  config.ffn_dim = kFfn;
  config.seq = kSeq;
  config.classes = kClasses;
  config.seed = seed;
  return config;
}

struct SetupTimes {
  double total_s = 0.0;
  double prune_ms = 0.0;  // tw_pattern_from_scores
  double pack_ms = 0.0;   // make_packed
  double save_ms = 0.0;
  double load_ms = 0.0;
  double file_bytes = 0.0;
};

/// An artifact file removed when the stack goes away.
struct ArtifactFile {
  std::string path;
  explicit ArtifactFile(std::string p) : path(std::move(p)) {}
  ArtifactFile(const ArtifactFile&) = delete;
  ArtifactFile& operator=(const ArtifactFile&) = delete;
  ~ArtifactFile() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// One set-up serving stack.  Members are destroyed bottom-up: the
/// runtime (which pins the entry) before the entry, the entry before
/// the weights it references, the mapping before its file.
struct Stack {
  std::unique_ptr<ArtifactFile> file;
  std::unique_ptr<BertMini> model;                 // encoder workloads
  std::shared_ptr<const sv::SharedModel> artifact;  // decode-int8
  std::shared_ptr<GraphBatchEntry> entry;
  /// Appends the served computation to a graph (the entry's builder).
  std::function<ExecGraph::SlotId(ExecGraph&, ExecGraph::SlotId)> append;
  std::unique_ptr<sv::ServingRuntime> runtime;
};

/// Prunes (tile-wise, from magnitude scores) unless the format is
/// dense, then packs.
std::unique_ptr<PackedWeight> prune_and_pack(const MatrixF& w,
                                             const std::string& format,
                                             SetupTimes& times, Trace* trace,
                                             std::int64_t parent) {
  std::unique_ptr<PackedWeight> packed;
  if (format == "dense") {
    times.pack_ms += timed_ms(trace, "exec.make_packed", parent,
                              [&] { packed = make_packed(format, w); });
    return packed;
  }
  MatrixF scores(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.size(); ++i)
    scores.data()[i] = std::fabs(w.data()[i]);
  TilePattern pattern;
  times.prune_ms += timed_ms(trace, "prune.tw_pattern_from_scores", parent, [&] {
    pattern = tw_pattern_from_scores(scores, kSparsity, kTileG);
  });
  MatrixF pruned = w;
  apply_pattern(pattern, pruned);
  PackOptions options;
  options.pattern = &pattern;
  times.pack_ms += timed_ms(trace, "exec.make_packed", parent, [&] {
    packed = make_packed(format, pruned, options);
  });
  return packed;
}

sv::ServingOptions serving_options(const Workload& wl) {
  sv::ServingOptions options;
  options.workers = wl.workers;
  options.streams = 1;
  options.scheduler.streams = 1;
  options.batch.enabled = wl.batching;
  options.queue_capacity =
      wl.kind == Kind::kDecode ? kDecodeQueueCapacity : 4 * kEncoderInFlight;
  return options;
}

Linear* find_layer(BertMini& model, const std::string& prefix) {
  for (Linear* layer : model.prunable_layers())
    if (layer->weight().name.rfind(prefix, 0) == 0) return layer;
  throw std::runtime_error("no layer named " + prefix);
}

/// prune -> pack -> save -> mmap load -> register -> first OK response.
Stack set_up(const Workload& wl, const MatrixF& embedding,
             const MatrixF& master_ffn_in, const MatrixF& first_input,
             const std::string& path, SetupTimes& times, Trace* trace) {
  Stack s;
  s.file = std::make_unique<ArtifactFile>(path);
  if (wl.kind == Kind::kEncoder)
    s.model = std::make_unique<BertMini>(model_config(kModelSeed), embedding);

  const std::int64_t t0 = now_ns();
  const std::int64_t root = trace ? trace->open("setup", t0) : -1;
  ExecContext ctx;
  ctx.threads = wl.kernel_threads;
  if (wl.kind == Kind::kEncoder) {
    const std::vector<Linear*> layers = s.model->prunable_layers();
    for (Linear* layer : layers)
      layer->set_packed_weight(
          prune_and_pack(layer->weight().value, wl.format, times, trace, root));
    times.save_ms = timed_ms(trace, "io.save_packed_linear_layers", root,
                             [&] { save_packed_linear_layers(path, layers); });
    times.load_ms = timed_ms(trace, "io.load_packed_linear_layers", root, [&] {
      load_packed_linear_layers(path, layers, ctx, ArtifactLoad::kMapped);
    });
    s.entry = make_bert_entry("bert", *s.model);
    BertMini* model = s.model.get();
    s.append = [model](ExecGraph& g, ExecGraph::SlotId in) {
      return model->append_exec_graph(g, in);
    };
  } else {
    const std::unique_ptr<PackedWeight> packed =
        prune_and_pack(master_ffn_in, wl.format, times, trace, root);
    times.save_ms = timed_ms(trace, "io.save_model_weights", root, [&] {
      save_model_weights(path, {{"block0.ffn_in", packed.get()}});
    });
    times.load_ms = timed_ms(trace, "io.SharedModel::load_mapped", root,
                             [&] { s.artifact = sv::SharedModel::load_mapped(path); });
    const PackedWeight* weight = s.artifact->find("block0.ffn_in");
    if (weight == nullptr) throw std::runtime_error("artifact lost block0.ffn_in");
    s.append = [weight, ctx](ExecGraph& g, ExecGraph::SlotId in) {
      const ExecGraph::SlotId out = g.add_slot("block0.ffn_in.out");
      g.add_gemm("block0.ffn_in", weight, in, out, ctx);
      return out;
    };
    GraphBatchEntry::Config config;
    config.name = "ffn_in";
    config.input_cols = weight->k();
    config.output_cols = weight->n();
    config.macs_per_row = weight->macs(2) - weight->macs(1);
    config.weight_bytes = weight->bytes();
    config.builder = [append = s.append](ExecGraph& g, ExecGraph::SlotId in,
                                         std::size_t) { return append(g, in); };
    s.entry = std::make_shared<GraphBatchEntry>(std::move(config));
  }
  times.file_bytes = static_cast<double>(std::filesystem::file_size(path));

  s.runtime = std::make_unique<sv::ServingRuntime>(serving_options(wl));
  s.runtime->register_batch_entry(s.entry);
  sv::Request request;
  request.entry = s.entry->name();
  request.input = first_input;
  const std::int64_t t_first = now_ns();
  const sv::RequestHandle handle = s.runtime->submit(std::move(request));
  const sv::Response& response = handle->wait();
  if (trace) trace->add("serve.first_response", t_first, now_ns(), root);
  if (response.status != sv::RequestStatus::kOk)
    throw std::runtime_error("first request not OK: " + response.error);
  const std::int64_t t1 = now_ns();
  if (trace) trace->close(root, t1);
  times.total_s = static_cast<double>(t1 - t0) * 1e-9;
  return s;
}

// -------------------------------------------------------------- traffic

struct Outcome {
  std::uint64_t sent = 0;
  // (completion ns, latency ms) of every request that was OK,
  // bit-identical and within its deadline, and completed in the window.
  std::vector<std::pair<std::int64_t, double>> done;
  std::uint64_t failed = 0;        // rejected + timeout + failed + late
  std::uint64_t mismatched = 0;    // OK but not bit-identical (also failed)
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  std::vector<double> lag_ms;
  std::size_t queue_depth_max = 0;
  std::size_t end_queue_depth = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tenants;  // sent, ok

  double fail_frac() const {
    return sent ? static_cast<double>(failed) / static_cast<double>(sent) : 0.0;
  }

  /// Folds another phase's request counts into this one.
  void absorb(const Outcome& phase) {
    sent += phase.sent;
    failed += phase.failed;
    mismatched += phase.mismatched;
  }

  void reserve(std::size_t n) {
    latency_ms.reserve(n);
    queue_wait_ms.reserve(n);
    service_ms.reserve(n);
    lag_ms.reserve(n);
  }
};

/// Accounts one terminal response.  `sched_ns` is when the request was
/// due, `submit_ns` when submit() was called; `window_end_ns` bounds
/// the completions that count toward throughput.
void account(Outcome& out, const sv::Response& response, const MatrixF& ref,
             const std::string& tenant, std::int64_t sched_ns,
             std::int64_t submit_ns, std::int64_t window_end_ns,
             double deadline_ms, Trace* trace, std::uint64_t request_id) {
  auto& [tenant_sent, tenant_ok] = out.tenants[tenant];
  ++tenant_sent;
  if (response.status != sv::RequestStatus::kOk) {
    ++out.failed;
    return;
  }
  if (!same_bits(response.result, ref)) {
    ++out.mismatched;
    ++out.failed;
    return;
  }
  const std::int64_t wait_ns = duration_ns(response.queue_wait);
  const std::int64_t end_ns = submit_ns + wait_ns + duration_ns(response.service_time);
  const double latency = ns_to_ms(end_ns - sched_ns);
  if (latency > deadline_ms) {
    ++out.failed;
    return;
  }
  ++tenant_ok;
  if (end_ns <= window_end_ns) {
    out.done.emplace_back(end_ns, latency);
  }
  out.latency_ms.push_back(latency);
  out.queue_wait_ms.push_back(ns_to_ms(wait_ns));
  out.service_ms.push_back(ns_to_ms(duration_ns(response.service_time)));
  if (trace != nullptr) {
    const std::int64_t id = trace->add("request", submit_ns, end_ns, -1, request_id);
    trace->add("queue_wait", submit_ns, submit_ns + wait_ns, id, request_id);
    trace->add("service_time", submit_ns + wait_ns, end_ns, id, request_id);
  }
}

/// Closed loop: kEncoderInFlight requests outstanding from one thread;
/// each completion is answered by the next request.
Outcome run_closed_loop(Stack& s, const std::vector<MatrixF>& inputs,
                        const std::vector<MatrixF>& refs, double seconds,
                        Rng& rng, Trace* trace, std::uint64_t& next_id) {
  struct Slot {
    sv::RequestHandle handle;
    std::size_t input = 0;
    std::int64_t submit_ns = 0;
    std::uint64_t id = 0;
  };
  Outcome out;
  out.reserve(static_cast<std::size_t>(seconds * 100.0) + 64);
  const std::int64_t t0 = now_ns();
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t t_end = t0 + window_ns;
  auto submit = [&](Slot& slot) {
    slot.input = static_cast<std::size_t>(rng.below(inputs.size()));
    sv::Request request;
    request.entry = s.entry->name();
    request.input = inputs[slot.input];
    slot.id = next_id++;
    slot.submit_ns = now_ns();
    slot.handle = s.runtime->submit(std::move(request));
    ++out.sent;
    out.queue_depth_max = std::max(out.queue_depth_max, s.runtime->queue_depth());
  };
  std::vector<Slot> slots(kEncoderInFlight);
  for (Slot& slot : slots) submit(slot);
  for (;;) {
    bool any_open = false;
    for (Slot& slot : slots) {
      if (!slot.handle) continue;
      if (!slot.handle->done()) {
        any_open = true;
        continue;
      }
      account(out, slot.handle->response(), refs[slot.input], "", slot.submit_ns,
              slot.submit_ns, t_end, INFINITY, trace, slot.id);
      slot.handle.reset();
      if (now_ns() < t_end) {
        submit(slot);
        any_open = true;
      }
    }
    if (!any_open) break;
    // Latency comes from the response's own timestamps, and the other
    // request keeps the entry busy meanwhile, so this poll interval only
    // delays the next submission, by at most 1 ms.
    for (Slot& slot : slots) {
      if (slot.handle) {
        slot.handle->wait_for(std::chrono::milliseconds(1));
        break;
      }
    }
  }
  return out;
}

/// Open loop: seeded Poisson arrivals at `rate`, each due at its
/// scheduled time whether or not earlier requests finished.  One
/// generator thread submits and, while ahead of schedule, harvests
/// finished requests in FIFO order.
Outcome run_open_loop(Stack& s, const std::vector<MatrixF>& inputs,
                      const std::vector<MatrixF>& refs, double rate,
                      double seconds, Rng& rng, Trace* trace,
                      std::uint64_t& next_id) {
  struct InFlight {
    sv::RequestHandle handle;
    std::uint32_t input = 0;
    bool tenant1 = false;
    std::int64_t sched_ns = 0;
    std::int64_t submit_ns = 0;
    std::uint64_t id = 0;
  };
  static const std::string kTenants[2] = {"t0", "t1"};
  Outcome out;
  const auto expected = static_cast<std::size_t>(rate * seconds * 1.25) + 1024;
  out.reserve(expected);
  // Ring of outstanding requests, sized for far more than the
  // deadline-bounded backlog so the generator never reallocates.
  std::vector<InFlight> ring(std::size_t{1} << 17);
  const std::size_t mask = ring.size() - 1;
  std::size_t head = 0, tail = 0;
  const auto deadline_ns = static_cast<std::int64_t>(kDecodeDeadlineMs * 1e6);
  const std::int64_t t0 = now_ns() + 1000000;  // first arrival in 1 ms
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t t_end = t0 + window_ns;

  auto harvest = [&](bool block) {
    InFlight& f = ring[head & mask];
    if (block) f.handle->wait();
    else if (!f.handle->done()) return false;
    account(out, f.handle->response(), refs[f.input], kTenants[f.tenant1 ? 1 : 0],
            f.sched_ns, f.submit_ns, INT64_MAX, kDecodeDeadlineMs, trace, f.id);
    // Goodput: every request due inside the window counts once it is
    // OK within its deadline.
    f.handle.reset();
    ++head;
    return true;
  };

  std::int64_t next = t0;
  while (next < t_end) {
    for (std::int64_t now = now_ns(); now < next; now = now_ns()) {
      if (head == tail || !harvest(false)) std::this_thread::yield();
    }
    if (tail - head == ring.size()) harvest(true);
    InFlight& f = ring[tail & mask];
    f.input = static_cast<std::uint32_t>(rng.below(inputs.size()));
    f.tenant1 = rng.uniform() >= kDecodeTenant0Share;
    f.sched_ns = next;
    f.id = next_id++;
    sv::Request request;
    request.entry = s.entry->name();
    request.tenant_id = kTenants[f.tenant1 ? 1 : 0];
    request.input = inputs[f.input];
    request.deadline = sv::Clock::time_point(
        std::chrono::duration_cast<sv::Clock::duration>(
            std::chrono::nanoseconds(next + deadline_ns)));
    f.submit_ns = now_ns();
    f.handle = s.runtime->submit(std::move(request));
    out.lag_ms.push_back(ns_to_ms(f.submit_ns - f.sched_ns));
    ++tail;
    ++out.sent;
    out.queue_depth_max = std::max(out.queue_depth_max, s.runtime->queue_depth());
    // Exponential inter-arrival gap; 1 - u keeps log() finite.
    const double gap_s = -std::log(1.0 - static_cast<double>(rng.uniform())) / rate;
    next += static_cast<std::int64_t>(gap_s * 1e9);
  }
  out.end_queue_depth = s.runtime->queue_depth();
  while (head != tail) harvest(true);
  return out;
}

double sorted_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return tsbench::percentile_sorted(v, q);
}

// --------------------------------------------------------------- replay

struct Replay {
  double graph_ms = 0.0;     // median ExecScheduler::run wall
  double node_sum_ms = 0.0;  // median sum of node self times
  double gemm_ms = 0.0, gelu_ms = 0.0, layernorm_ms = 0.0,
         attention_ms = 0.0, residual_ms = 0.0, host_ms = 0.0;
  double macs = 0.0, dense_macs = 0.0;  // per replayed run
  std::size_t nodes = 0;
  bool bit_identical = true;  // every replay and run gave the same output
  MatrixF output;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Executes the workload's graph at `input`'s M node by node in
/// topo_order(), one span per ExecGraph::execute_node, beside
/// ExecScheduler::run of the same graph.
Replay replay_graph(Stack& s, const MatrixF& input, std::size_t reps, Trace* trace) {
  ExecGraph graph;
  const ExecGraph::SlotId in = graph.add_slot("input");
  graph.mark_input(in);
  const ExecGraph::SlotId out = s.append(graph, in);
  graph.mark_output(out);
  graph.slot(in) = input;
  SchedulerOptions options;
  options.streams = 1;
  ExecScheduler scheduler(options);
  scheduler.run(graph);  // validates and warms
  const MatrixF expect = graph.slot(out);
  const std::vector<ExecGraph::NodeId> order = graph.topo_order();

  Replay r;
  r.nodes = order.size();
  std::vector<double> run_ms, sum_ms, gemm, gelu, ln, attn, res, host;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Alternate which of the two goes first so neither always runs on
    // the caches the other left behind.
    auto scheduled_run = [&] {
      run_ms.push_back(timed_ms(trace, "exec.ExecScheduler::run", -1,
                                [&] { scheduler.run(graph); }));
      r.bit_identical = r.bit_identical && same_bits(graph.slot(out), expect);
    };
    if (rep % 2 == 1) scheduled_run();
    const std::int64_t root = trace ? trace->open("exec.serial_replay", now_ns()) : -1;
    double t_sum = 0, t_gemm = 0, t_gelu = 0, t_ln = 0, t_attn = 0, t_res = 0,
           t_host = 0;
    for (ExecGraph::NodeId id : order) {
      const ExecGraph::Node& node = graph.nodes()[id];
      const std::int64_t t0 = now_ns();
      graph.execute_node(id);
      const std::int64_t t1 = now_ns();
      if (trace) trace->add(node.name, t0, t1, root);
      const double ms = ns_to_ms(t1 - t0);
      t_sum += ms;
      if (node.kind == ExecGraph::NodeKind::kGemm) {
        t_gemm += ms;
        continue;
      }
      t_host += ms;
      if (ends_with(node.name, ".gelu")) t_gelu += ms;
      else if (ends_with(node.name, ".ln1") || ends_with(node.name, ".ln2")) t_ln += ms;
      else if (ends_with(node.name, ".core")) t_attn += ms;
      else if (ends_with(node.name, ".res1") || ends_with(node.name, ".res2")) t_res += ms;
    }
    if (trace) trace->close(root, now_ns());
    r.bit_identical = r.bit_identical && same_bits(graph.slot(out), expect);
    if (rep % 2 == 0) scheduled_run();
    sum_ms.push_back(t_sum);
    gemm.push_back(t_gemm);
    gelu.push_back(t_gelu);
    ln.push_back(t_ln);
    attn.push_back(t_attn);
    res.push_back(t_res);
    host.push_back(t_host);
  }
  r.output = expect;
  r.graph_ms = tsbench::median(run_ms);
  r.node_sum_ms = tsbench::median(sum_ms);
  r.gemm_ms = tsbench::median(gemm);
  r.gelu_ms = tsbench::median(gelu);
  r.layernorm_ms = tsbench::median(ln);
  r.attention_ms = tsbench::median(attn);
  r.residual_ms = tsbench::median(res);
  r.host_ms = tsbench::median(host);
  for (const ExecGraph::Node& node : graph.nodes()) {
    if (node.kind != ExecGraph::NodeKind::kGemm) continue;
    const std::size_t m = graph.slot(node.in).rows();
    r.macs += node.weight->macs(m);
    r.dense_macs += static_cast<double>(m) * static_cast<double>(node.weight->k()) *
                    static_cast<double>(node.weight->n());
  }
  return r;
}

// -------------------------------------------------------------- kernels

/// Standalone PackedWeight::matmul on block0.ffn_in (256 x 1024), one
/// kernel thread, per format; median time per call.
void measure_kernels(const MatrixF& w, Report& report, Trace* trace, Rng& rng) {
  SetupTimes unused;
  std::map<std::string, std::unique_ptr<PackedWeight>> packed;
  for (const char* format : {"dense", "tw", "tw-int8"})
    packed[format] = prune_and_pack(w, format, unused, nullptr, -1);
  auto random_rows = [&](std::size_t m) {
    MatrixF a(m, w.rows());
    for (float& v : a.flat()) v = rng.normal();
    return a;
  };
  const MatrixF a256 = random_rows(256), a16 = random_rows(16);
  ExecContext ctx;
  ctx.threads = 1;
  struct Point {
    const char* format;
    const MatrixF* a;
    const char* metric;
    const char* span;
  };
  const Point points[] = {
      {"dense", &a256, "kernel.gflops.dense.m256", "PackedWeight::matmul.dense.m256"},
      {"tw", &a256, "kernel.gflops.tw.m256", "PackedWeight::matmul.tw.m256"},
      {"tw-int8", &a256, "kernel.gflops.tw-int8.m256",
       "PackedWeight::matmul.tw-int8.m256"},
      {"tw-int8", &a16, "kernel.gflops.tw-int8.m16",
       "PackedWeight::matmul.tw-int8.m16"}};
  for (const Point& p : points) {
    const PackedWeight& weight = *packed[p.format];
    (void)weight.matmul(ctx, *p.a);  // warm: scratch and panels
    std::vector<double> times;
    const std::int64_t start = now_ns();
    while (times.size() < 5 || (now_ns() - start < 200000000 && times.size() < 2000)) {
      times.push_back(timed_ms(trace, p.span, -1,
                               [&] { (void)weight.matmul(ctx, *p.a); }));
    }
    const double ms = tsbench::median(times);
    report.add(p.metric, 2.0 * weight.macs(p.a->rows()) / (ms * 1e6), "GFLOP/s",
               count_note(times.size(), "calls, executed MACs"));
  }
  for (const char* format : {"dense", "tw", "tw-int8"}) {
    const PackedWeight& weight = *packed[format];
    const double bytes = static_cast<double>(weight.bytes()) +
                         256.0 * static_cast<double>(weight.k() + weight.n()) * 4.0;
    report.add(std::string("kernel.bytes.") + format, bytes, "B_computed",
               "(packed weight + fp32 A and C at m256, from tensor sizes)");
  }
}


// -------------------------------------------------------------- session

/// The state one invocation shares between its phases.
struct Session {
  const Workload& wl;
  Trace* trace = nullptr;
  TokenTeacherDataset dataset{kVocab, kSeq, kClasses, kDim, kModelSeed};
  BertMini master{model_config(kModelSeed), dataset.embedding()};
  MatrixF master_ffn_in;
  Rng rng;
  std::vector<MatrixF> inputs;
  std::vector<MatrixF> refs;  // solo BatchEntry::run of each input
  std::vector<double> entry_run_ms;
  std::vector<SetupTimes> setups;
  std::optional<Stack> stack;
  std::uint64_t next_id = 1;
  Outcome total;  // request counts over every phase, warm-up included

  Session(const Workload& workload, std::uint64_t seed, Trace* t)
      : wl(workload), trace(t), rng(seed * 0x9e3779b97f4a7c15ull + 17) {
    master_ffn_in = find_layer(master, "block0.ffn_in")->weight().value;
    if (wl.kind == Kind::kEncoder) {
      for (std::size_t i = 0; i < kEncoderInputs; ++i)
        inputs.push_back(master.embed(dataset.sample(kEncoderSeqsPerRequest, rng)));
    } else {
      for (std::size_t i = 0; i < kDecodeInputs; ++i) {
        MatrixF row(1, kDim);
        for (float& v : row.flat()) v = rng.normal();
        inputs.push_back(std::move(row));
      }
    }
  }

  Stack build(const std::string& path, SetupTimes& times, Trace* t) {
    return set_up(wl, dataset.embedding(), master_ffn_in, inputs[0], path, times, t);
  }

  double setup_median(double SetupTimes::*field) const {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return tsbench::median(v);
  }
  std::string setup_note() const {
    return count_note(setups.size(), "set-ups, median");
  }

  /// One phase of the workload's traffic.
  Outcome serve(double seconds, Trace* t) {
    Outcome o = wl.kind == Kind::kEncoder
                    ? run_closed_loop(*stack, inputs, refs, seconds, rng, t, next_id)
                    : run_open_loop(*stack, inputs, refs, kDecodeRate, seconds, rng, t,
                                    next_id);
    total.absorb(o);
    return o;
  }
};

/// Untimed set-up, references, warm-up serving, then the timed
/// set-ups; leaves the last stack serving.
void prepare(Session& ss, const std::string& path) {
  const std::int64_t warm_start = now_ns();
  SetupTimes untimed;
  ss.stack.emplace(ss.build(path, untimed, nullptr));

  // References: a solo BatchEntry::run of every input on a streams=1
  // scheduler, to which every OK response must match bit for bit.  They
  // come from the untimed set-up, so every response also checks that
  // the timed set-ups reproduce the same model.
  SchedulerOptions ref_options;
  ref_options.streams = 1;
  ExecScheduler ref_scheduler(ref_options);
  for (const MatrixF& input : ss.inputs) {
    MatrixF out;
    ss.entry_run_ms.push_back(timed_ms(ss.trace, "exec.BatchEntry::run", -1, [&] {
      out = ss.stack->entry->run(ref_scheduler, input);
    }));
    ss.refs.push_back(std::move(out));
  }
  const auto warm_ns = static_cast<std::int64_t>(kWarmSeconds * 1e9);
  for (std::size_t i = 0; now_ns() - warm_start < warm_ns; ++i)
    (void)ss.stack->entry->run(ref_scheduler, ss.inputs[i % ss.inputs.size()]);

  double setup_total_s = 0.0;
  while (ss.setups.size() < kMinSetupReps ||
         (setup_total_s < kMinSetupSeconds && ss.setups.size() < kMaxSetupReps)) {
    ss.stack.reset();
    ss.setups.emplace_back();
    ss.stack.emplace(ss.build(path, ss.setups.back(), ss.trace));
    setup_total_s += ss.setups.back().total_s;
  }
}

/// Once per run: the served output against the dense reconstruction
/// (to_dense() of every loaded weight).  Returns whether it holds.
bool check_reconstruction(Session& ss) {
  double error = 0.0, tolerance = 0.0;
  if (ss.wl.kind == Kind::kEncoder) {
    BertMini recon(model_config(kModelSeed), ss.dataset.embedding());
    const std::vector<Linear*> served = ss.stack->model->prunable_layers();
    const std::vector<Linear*> layers = recon.prunable_layers();
    for (std::size_t i = 0; i < layers.size(); ++i)
      layers[i]->set_packed_weight(
          make_packed("dense", served[i]->packed_weight()->to_dense()));
    SchedulerOptions options;
    options.streams = 1;
    ExecScheduler scheduler(options);
    error = relative_error(ss.refs[0],
                           make_bert_entry("recon", recon)->run(scheduler, ss.inputs[0]));
    tolerance = kReconTolFp32;
  } else {
    const MatrixF dense = ss.stack->artifact->find("block0.ffn_in")->to_dense();
    for (std::size_t i = 0; i < kDecodeReplayRows; ++i) {
      MatrixF expect(1, dense.cols());
      for (std::size_t k = 0; k < dense.rows(); ++k)
        for (std::size_t n = 0; n < dense.cols(); ++n)
          expect(0, n) += ss.inputs[i](0, k) * dense(k, n);
      error = std::max(error, relative_error(ss.refs[i], expect));
    }
    tolerance = kReconTolInt8;
  }
  const bool ok = error <= tolerance;
  std::printf("check: %s output vs to_dense() reconstruction: max rel error %.3g "
              "(tolerance %.3g) %s\n",
              ss.wl.format, error, tolerance, ok ? "ok" : "FAILED");
  return ok;
}

/// Warm-up traffic: outputs are checked like any other, timings dropped.
void warm_up(Session& ss) {
  if (ss.wl.kind == Kind::kDecode) {
    ss.total.absorb(run_open_loop(*ss.stack, ss.inputs, ss.refs, kDecodeRate,
                                  kDecodeWarmSeconds, ss.rng, nullptr, ss.next_id));
    return;
  }
  Outcome warm;
  for (std::size_t i = 0; i < kEncoderWarmRequests; ++i) {
    sv::Request request;
    request.entry = ss.stack->entry->name();
    request.input = ss.inputs[i % ss.inputs.size()];
    const std::int64_t t = now_ns();
    account(warm, ss.stack->runtime->submit(std::move(request))->wait(),
            ss.refs[i % ss.inputs.size()], "", t, t, INT64_MAX, INFINITY, nullptr, 0);
    ++warm.sent;
  }
  ss.total.absorb(warm);
}

double tail_q(const Workload& wl) {
  return wl.kind == Kind::kEncoder ? kEncoderTailQ : kDecodeTailQ;
}

void report_end_to_end(Session& ss, double seconds, Report& report) {
  const Outcome o = ss.serve(seconds, nullptr);
  std::vector<double> lat = o.latency_ms;
  std::sort(lat.begin(), lat.end());
  const double q = tail_q(ss.wl);
  // Host noise only ever slows a slice down, so the faster slices are
  // the better estimate of what the code costs (Chen & Revels, "Robust
  // benchmarking in noisy environments"): the upper quartile of the
  // slices' rates and the lower quartile of their p50s.
  const std::size_t n_slices =
      ss.wl.kind == Kind::kEncoder ? kEncoderSlices : kDecodeSlices;
  const tsbench::SliceStats slices = tsbench::slice_stats(o.done, n_slices);
  std::vector<double> rates = slices.rate_per_s, p50s = slices.p50_ms;
  std::sort(rates.begin(), rates.end());
  std::sort(p50s.begin(), p50s.end());
  const std::string note = "(" + std::to_string(n_slices) + " slices of " +
                           std::to_string(o.done.size()) + " OK requests)";
  report.add("throughput_rps", tsbench::percentile_sorted(rates, 0.75), "1/s",
             "upper quartile " + note);
  report.add("latency_p50_ms", tsbench::percentile_sorted(p50s, 0.25), "ms",
             "lower quartile " + note);
  std::printf("extra: median slice throughput_rps=%.4f latency_p50_ms=%.4f; "
              "whole-window latency_p50_ms=%.4f\n",
              tsbench::percentile_sorted(rates, 0.5), tsbench::percentile_sorted(p50s, 0.5),
              tsbench::percentile_sorted(lat, 0.5));
  report.add("setup_s", ss.setup_median(&SetupTimes::total_s), "s", ss.setup_note());
  ss.stack->runtime->shutdown();
  report.add("rss_peak_mb", peak_rss_mb(), "MB", "(VmHWM at exit)");
  std::printf("extra: latency_tail_ms=%.4f %s\n", tsbench::percentile_sorted(lat, q),
              tail_note(lat.size(), q).c_str());
  std::printf("extra: latency_p95_ms=%.4f %s\n", tsbench::percentile_sorted(lat, 0.95),
              tail_note(lat.size(), 0.95).c_str());
  std::printf("extra: latency_max_ms=%.4f (deadline %.0f ms)\n",
              lat.empty() ? 0.0 : lat.back(),
              ss.wl.kind == Kind::kDecode ? kDecodeDeadlineMs : INFINITY);
  std::printf("extra: fail_frac=%.6f (%llu of %llu sent; %llu output mismatches)\n",
              o.fail_frac(), static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.sent),
              static_cast<unsigned long long>(o.mismatched));
  report.print_table("end-to-end:");
}

/// Fixed-rate decode sweep (informational: too coarse to gate on).
/// Returns the highest rate that meets the p99 limit without a backlog.
double capacity_sweep(Session& ss) {
  std::printf("capacity sweep (%.1f s per rate, p99 limit %.0f ms):\n", kSweepSeconds,
              kSweepP99LimitMs);
  double max_rate = 0.0;
  for (double rate : kSweepRates) {
    const Outcome o = run_open_loop(*ss.stack, ss.inputs, ss.refs, rate, kSweepSeconds,
                                    ss.rng, nullptr, ss.next_id);
    // Past capacity, deadline misses and rejections are what the sweep
    // measures, not failed operations; only output mismatches count.
    Outcome checked;
    checked.sent = o.sent;
    checked.failed = checked.mismatched = o.mismatched;
    ss.total.absorb(checked);
    std::vector<double> lat = o.latency_ms;
    std::sort(lat.begin(), lat.end());
    const double p99 = tsbench::percentile_sorted(lat, 0.99);
    const double lag99 = sorted_percentile(o.lag_ms, 0.99);
    const bool meets = tsbench::tail_supported(lat.size(), 0.99) &&
                       p99 <= kSweepP99LimitMs && o.fail_frac() <= kSweepMaxFailFrac &&
                       o.end_queue_depth <= kSweepMaxEndQueue && lag99 <= kSweepMaxLagMs;
    if (meets) max_rate = std::max(max_rate, rate);
    std::printf("  rate %7.0f/s: p50 %.3f ms p99 %.3f ms %s fail %.4f end-queue %zu "
                "gen-lag p99 %.3f ms %s\n",
                rate, tsbench::percentile_sorted(lat, 0.5), p99,
                tail_note(lat.size(), 0.99).c_str(), o.fail_frac(), o.end_queue_depth,
                lag99, meets ? "meets" : "misses");
  }
  return max_rate;
}

/// The traced run.  Returns whether the replayed graph reproduced the
/// served outputs exactly.
bool report_per_layer(Session& ss, double seconds, const std::string& trace_out,
                      Report& report) {
  const Workload& wl = ss.wl;
  const bool encoder = wl.kind == Kind::kEncoder;
  sv::ServingRuntime& runtime = *ss.stack->runtime;

  // Untraced half, then traced half of the same traffic.
  const Outcome plain = ss.serve(seconds / 2, nullptr);
  const sv::ServingRuntime::Stats stats0 = runtime.stats();
  const auto batch0 = runtime.batch_stats();
  const Outcome o = ss.serve(seconds / 2, ss.trace);
  const sv::ServingRuntime::Stats stats1 = runtime.stats();
  const auto batch1 = runtime.batch_stats();
  // The tail is a per-layer metric: it does not repeat within a tenth
  // across runs on a shared 4-vCPU VM (one host stall moves it).  Both
  // halves count, so that the encoders' p90 keeps its ten samples.
  std::vector<double> both = plain.latency_ms;
  both.insert(both.end(), o.latency_ms.begin(), o.latency_ms.end());
  report.add("latency_tail_ms", sorted_percentile(both, tail_q(wl)), "ms",
             tail_note(both.size(), tail_q(wl)) + " both halves");

  // nn + exec: serial replay of the workload's graph at the served M
  // (decode: kDecodeReplayRows stacked inputs, a typical batch).
  MatrixF replay_input = ss.inputs[0];
  if (!encoder) {
    replay_input = MatrixF(kDecodeReplayRows, kDim);
    for (std::size_t i = 0; i < kDecodeReplayRows; ++i)
      std::memcpy(replay_input.data() + i * kDim, ss.inputs[i].data(),
                  kDim * sizeof(float));
  }
  const std::size_t replays = encoder ? kEncoderReplays : kDecodeReplays;
  const Replay r = replay_graph(*ss.stack, replay_input, replays, ss.trace);
  bool replay_ok = r.bit_identical;
  if (encoder) {
    replay_ok = replay_ok && same_bits(r.output, ss.refs[0]);
  } else {
    for (std::size_t i = 0; i < kDecodeReplayRows; ++i)  // row i is input i
      replay_ok = replay_ok && std::memcmp(r.output.data() + i * r.output.cols(),
                                           ss.refs[i].data(),
                                           ss.refs[i].size() * sizeof(float)) == 0;
  }
  const double gap = std::fabs(r.graph_ms - r.node_sum_ms) / r.graph_ms;
  std::printf("replay: %zu nodes at M=%zu, node self times sum to %.3f ms vs "
              "ExecScheduler::run %.3f ms (gap %.1f%%, tolerance %.0f%%) %s%s\n",
              r.nodes, replay_input.rows(), r.node_sum_ms, r.graph_ms, gap * 100.0,
              kNodeCoverageTol * 100.0, gap <= kNodeCoverageTol ? "ok" : "OUTSIDE TOLERANCE",
              replay_ok ? "" : ", OUTPUT MISMATCH");

  const std::string replay_note = count_note(replays, "serial replays, median");
  report.add("nn.gelu_ms", r.gelu_ms, "ms", replay_note);
  report.add("nn.layernorm_ms", r.layernorm_ms, "ms", replay_note);
  report.add("nn.attention_ms", r.attention_ms, "ms", replay_note);
  report.add("nn.residual_ms", r.residual_ms, "ms", replay_note);
  report.add("nn.host_share", r.node_sum_ms > 0 ? r.host_ms / r.node_sum_ms : 0.0,
             "frac", replay_note);
  report.add("exec.graph_ms", r.graph_ms, "ms", replay_note);
  report.add("exec.sched_overhead_ms", r.graph_ms - r.node_sum_ms, "ms", replay_note);
  report.add("exec.gemm_ms", r.gemm_ms, "ms",
             std::string("(") + wl.format + " gemm nodes, median of replays)");
  report.add("exec.gemm_gflops", 2.0 * r.macs / (r.gemm_ms * 1e6), "GFLOP/s",
             std::string("(") + wl.format + ", executed MACs)");
  const double rows_per_request =
      encoder ? static_cast<double>(kEncoderSeqsPerRequest * kSeq) : 1.0;
  report.add("exec.macs_per_req",
             r.macs * rows_per_request / static_cast<double>(replay_input.rows()), "MAC",
             "(exact, from PackedWeight::macs)");
  report.add("exec.mac_sparsity", r.dense_macs > 0 ? 1.0 - r.macs / r.dense_macs : 0.0,
             "frac", "(exact, 1 - executed/dense MACs)");
  const double entry_run_ms = tsbench::median(ss.entry_run_ms);
  report.add("exec.entry_run_ms", entry_run_ms, "ms",
             count_note(ss.entry_run_ms.size(), "solo BatchEntry::run, median"));
  report.add("exec.pack_ms", ss.setup_median(&SetupTimes::pack_ms), "ms", ss.setup_note());

  measure_kernels(ss.master_ffn_in, report, ss.trace, ss.rng);

  const double service_p50 = sorted_percentile(o.service_ms, 0.5);
  const std::string traced_note = count_note(o.service_ms.size(), "OK requests, traced half");
  const std::string sent_note = count_note(o.sent, "sent");
  report.add("serve.queue_wait_p50_ms", sorted_percentile(o.queue_wait_ms, 0.5), "ms",
             traced_note);
  report.add("serve.service_p50_ms", service_p50, "ms", traced_note);
  report.add("serve.entry_wait_ms", service_p50 - entry_run_ms, "ms",
             "(service p50 - solo entry run median)");
  report.add("serve.queue_depth_max", static_cast<double>(o.queue_depth_max), "count",
             count_note(o.sent, "samples at submit"));
  report.add("serve.rejected",
             static_cast<double>(stats1.rejected_full + stats1.evicted -
                                 stats0.rejected_full - stats0.evicted),
             "count", sent_note);
  report.add("serve.timeout", static_cast<double>(stats1.timeout - stats0.timeout), "count",
             sent_note);
  report.add("serve.retries", static_cast<double>(stats1.retries - stats0.retries), "count",
             sent_note);

  const double batches = static_cast<double>(batch1.batches - batch0.batches);
  const double members =
      static_cast<double>(batch1.batched_members - batch0.batched_members);
  report.add("batch.rows_per_batch", batches > 0 ? members * rows_per_request / batches : 0.0,
             "count", count_note(static_cast<std::size_t>(batches), "batches"));
  report.add("batch.batched_frac", o.sent ? members / static_cast<double>(o.sent) : 0.0,
             "frac", sent_note);
  report.add("batch.solo_bypass",
             static_cast<double>(batch1.solo_bypass - batch0.solo_bypass), "count",
             sent_note);
  report.add("batch.solo_fallback",
             static_cast<double>(batch1.solo_fallback - batch0.solo_fallback), "count",
             sent_note);
  std::vector<double> shares;  // per tenant: OK share of what it sent
  for (const auto& [tenant, counts] : o.tenants)
    shares.push_back(counts.first ? static_cast<double>(counts.second) /
                                        static_cast<double>(counts.first)
                                  : 0.0);
  report.add("batch.jain", tsbench::jain_index(shares), "index",
             count_note(shares.size(), "tenants, OK share of sent"));

  report.add("io.save_ms", ss.setup_median(&SetupTimes::save_ms), "ms", ss.setup_note());
  report.add("io.load_ms", ss.setup_median(&SetupTimes::load_ms), "ms", ss.setup_note());
  report.add("io.file_bytes", ss.setup_median(&SetupTimes::file_bytes), "B",
             "(artifact size)");
  report.add("prune.pattern_ms", ss.setup_median(&SetupTimes::prune_ms), "ms",
             ss.setup_note());

  report.add("serve.max_rate_rps", encoder ? 0.0 : capacity_sweep(ss), "1/s",
             encoder ? "(sweep runs on decode-int8 only)"
                     : "(highest swept rate meeting p99 limit)");
  report.add("bench.gen_lag_ms", sorted_percentile(o.lag_ms, 0.99), "ms",
             o.lag_ms.empty() ? "(closed loop: no schedule)"
                              : tail_note(o.lag_ms.size(), 0.99));
  const double p50_plain = sorted_percentile(plain.latency_ms, 0.5);
  report.add("bench.trace_overhead_frac",
             p50_plain > 0 ? sorted_percentile(o.latency_ms, 0.5) / p50_plain - 1.0 : 0.0,
             "frac", "(traced vs untraced half, latency p50)");
  runtime.shutdown();

  if (!trace_out.empty()) {
    if (!ss.trace->write_chrome_json(trace_out))
      throw std::runtime_error("cannot write " + trace_out);
    std::printf("trace: %zu spans (%zu dropped) -> %s\n", ss.trace->spans().size(),
                ss.trace->dropped(), trace_out.c_str());
  }
  report.print_table("per-layer:");
  return replay_ok;
}

// ----------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir = ".";
  std::string trace_out;
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = std::stoi(value);
    else if (key == "--work-dir") args.work_dir = value;
    else if (key == "--trace-out") args.trace_out = value;
    else if (key == "--source-id") args.source_id = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1))
    throw std::invalid_argument("need --seconds > 0 and --trace 0|1");
  return args;
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + args.workload);

  std::printf("tsbench workload=%s seed=%llu seconds=%g trace=%d\n", wl->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("host: nproc=%u isa=%s compiler=\"%s\" build=%s source=%s\n",
              std::thread::hardware_concurrency(), simd_level_name(active_simd_level()),
              __VERSION__, TSBENCH_BUILD_TYPE, args.source_id.c_str());
  std::printf("threads: generator=1 workers=%zu x kernel_threads=%d, streams=1, "
              "batching=%s\n",
              wl->workers, wl->kernel_threads, wl->batching ? "on" : "off");

  std::unique_ptr<Trace> trace;
  if (args.trace == 1) trace = std::make_unique<Trace>(kTraceCapacity);
  Session ss(*wl, args.seed, trace.get());
  prepare(ss, args.work_dir + "/" + wl->name + "-" + std::to_string(::getpid()) + ".tsmw");
  const bool recon_ok = check_reconstruction(ss);
  warm_up(ss);

  Report report;
  bool replay_ok = true;
  if (trace) {
    replay_ok = report_per_layer(ss, args.seconds, args.trace_out, report);
  } else {
    report_end_to_end(ss, args.seconds, report);
  }

  const bool correct = ss.total.mismatched == 0 && recon_ok && replay_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(ss.total.sent),
              static_cast<unsigned long long>(ss.total.failed), report.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsbench: %s\n", e.what());
    return 2;
  }
}
