// Native workloads: steady, skew-shift and wide-state.
//
// One saturation-mode source executor whose factory is this file's
// Generator feeds one operator of two worker threads whose logic is this
// file's Recorder::Process. With the driver thread that is four threads on
// four cores. The Generator makes an open loop: it draws Poisson arrivals
// from its own seeded RNG on a schedule of fixed-rate segments and waits
// until each tuple is due, so the runtime's back-pressure delays the
// generator instead of thinning the load. Latency is counted from the due
// time (payload.i1), never from the runtime's created_at, so a stall in the
// source's emit is charged to the system.
//
// Every tuple also carries a per-key sequence number (payload.i0). The
// operator keeps the last sequence and a count per key in its own state,
// which travels with the shard on every move; a gap, repeat or reordering
// is a failed tuple, and so is any difference between the final per-key
// counts and what the generator offered.
#include <algorithm>
#include <any>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/engine.h"
#include "exec/native_runtime.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

using elasticutor::Engine;
using elasticutor::EngineConfig;
using elasticutor::OperatorId;
using elasticutor::OperatorSpec;
using elasticutor::Paradigm;
using elasticutor::ShardId;
using elasticutor::SourceSpec;
using elasticutor::StateAccessor;
using elasticutor::Topology;
using elasticutor::TopologyBuilder;
using elasticutor::Tuple;

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kWindowNs = 100 * kMs;  // Latency/counter windows of due time.
constexpr int64_t kFineNs = 2 * kMs;      // Recovery windows (rebalance_ms).
constexpr int64_t kShiftNs = 500 * kMs;   // skew-shift hot-set period.
constexpr int64_t kRecoverySpanNs = 50 * kMs;
constexpr int64_t kSlowNs = 1 * kMs;      // Recovery latency limit (p99).
constexpr double kLatencyLimitMs = 10.0;  // sustainable_tps latency limit.
constexpr double kLagLimitMs = 1.0;       // "Backlog not growing" limit.
constexpr int kWorkers = 2;
constexpr int kShardsPerWorker = 128;
constexpr int kHotKeys = 4;
constexpr uint64_t kHotCut = 58982;  // 90% of 2^16: share of hot tuples.
constexpr int64_t kSampleEvery = 4096;    // 1 in 4096 tuples gets spans.
constexpr int64_t kBlockedEmitNs = 10'000;  // Emit long enough to have waited
                                            // on a full channel.
constexpr double kTrickleRate = 20'000.0;
constexpr double kRungShares[] = {0.50, 0.70, 0.85, 1.00};
constexpr int kRefRung = 1;  // 70 %.

struct WorkloadSpec {
  const char* name;
  uint64_t keys;      // Key ids are [0, keys).
  int zipf_keys;      // Zipf(0.5) over this many keys; 0 = uniform over keys.
  bool hot_shift;     // skew-shift's moving hot set.
  bool sweep_warmup;  // Warm-up touches every key once, in order.
  bool trickle;       // Adds the 20 k tuples/s rung.
  int burn_rounds;    // Burn() rounds per tuple.
  double max_tps;     // Median seed max_tps; the rungs are shares of it.
  double warmup_weight;
  double ref_weight;
};

// Rates are absolute (measured once on the seed, 4-core x86-64): a faster
// commit then shows as lower latency at the same offered load.
const WorkloadSpec kSpecs[] = {
    {"steady", 1 << 16, 4096, false, false, true, 0, 2.6e6, 1.0, 6.0},
    {"skew-shift", 1 << 16, 4096, true, false, false, 560, 1.15e6, 1.0, 8.0},
    {"wide-state", 1 << 20, 0, false, true, false, 160, 1.55e6, 2.0, 7.0},
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ---- Schedule -------------------------------------------------------------

enum class Kind { kWarmup, kTrickle, kRung, kSaturation };

struct Segment {
  Kind kind;
  double rate;  // tuples/s; 0 = closed loop (source unthrottled).
  int64_t start = 0;  // Schedule-relative ns.
  int64_t end = 0;
  bool traced = false;
};

struct Schedule {
  std::vector<Segment> segs;
  int ref = -1;
  std::vector<int> sats;  // Saturation bursts.
  int sat_untraced = -1;  // Trace runs: untraced copy of the last burst.
  int trickle = -1;
  /// NowNs() at schedule time 0; set just before Start, read-only after.
  int64_t t0 = 0;

  int64_t end() const { return segs.back().end; }
  int SegmentOf(int64_t rel) const {
    for (size_t i = 0; i < segs.size(); ++i) {
      if (rel < segs[i].end) return static_cast<int>(i);
    }
    return static_cast<int>(segs.size()) - 1;
  }
  size_t windows() const { return static_cast<size_t>(end() / kWindowNs) + 1; }
  size_t fine_windows() const {
    return static_cast<size_t>(end() / kFineNs) + 1;
  }
};

// Segment lengths are the weights scaled so the schedule lasts `seconds`,
// in whole 100 ms windows. The reference rung starts on a 500 ms boundary
// and lasts whole 500 ms groups, so each of its groups holds exactly one
// skew-shift hot-set period. Saturation throughput drifts over seconds on a
// shared machine, so it is measured in three bursts spread over the run.
Schedule BuildSchedule(const WorkloadSpec& spec, double seconds, bool trace) {
  struct Plan {
    Kind kind;
    double rate;
    double weight;
    bool ref = false;
  };
  auto rung = [&](int r) {
    return Plan{Kind::kRung, spec.max_tps * kRungShares[r],
                r == kRefRung ? spec.ref_weight : 1.0, r == kRefRung};
  };
  const Plan burst{Kind::kSaturation, 0.0, 2.0};
  std::vector<Plan> plan;
  plan.push_back({Kind::kWarmup, spec.max_tps * kRungShares[0], spec.warmup_weight});
  if (spec.trickle) plan.push_back({Kind::kTrickle, kTrickleRate, 2.0});
  plan.push_back(rung(0));
  plan.push_back(burst);
  plan.push_back(rung(1));
  plan.push_back(burst);
  plan.push_back(rung(2));
  plan.push_back(rung(3));
  plan.push_back(burst);
  double total = 0.0;
  for (const auto& p : plan) total += p.weight;
  const double scale = seconds / total;

  Schedule s;
  int64_t at = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    int64_t len = std::max<int64_t>(
        1, std::llround(plan[i].weight * scale * 10.0)) * kWindowNs;
    if (plan[i].ref) {
      // Pad the previous segment up to a 500 ms boundary.
      const int64_t aligned = (at + kShiftNs - 1) / kShiftNs * kShiftNs;
      s.segs.back().end = aligned;
      at = aligned;
      len = std::max<int64_t>(1, (len + kShiftNs / 2) / kShiftNs) * kShiftNs;
      s.ref = static_cast<int>(s.segs.size());
    }
    if (plan[i].kind == Kind::kTrickle) s.trickle = static_cast<int>(s.segs.size());
    if (plan[i].kind == Kind::kSaturation) {
      s.sats.push_back(static_cast<int>(s.segs.size()));
    }
    s.segs.push_back({plan[i].kind, plan[i].rate, at, at + len, trace});
    at += len;
  }
  if (trace) {
    // An untraced copy of the last burst, right after it, gives
    // trace.overhead_frac.
    Segment copy = s.segs.back();
    copy.start = at;
    copy.end = at + (s.segs.back().end - s.segs.back().start);
    copy.traced = false;
    s.sat_untraced = static_cast<int>(s.segs.size());
    s.segs.push_back(copy);
  }
  return s;
}

// A schedule of one closed-loop segment (the single-worker reference).
Schedule SaturationOnly(double seconds) {
  Schedule s;
  const int64_t len =
      std::max<int64_t>(5, std::llround(seconds * 10.0)) * kWindowNs;
  s.segs.push_back({Kind::kSaturation, 0.0, 0, len, false});
  s.sats.push_back(0);
  return s;
}

// ---- Generator (source thread) ---------------------------------------------

/// Zipf(0.5) over n keys through Vose's alias table: O(1) per draw, so the
/// generator stays cheap next to the source's route/batch/push path. Ranks
/// map to keys through a seeded permutation.
class ZipfKeys {
 public:
  ZipfKeys(int n, double skew, Rng* rng) : prob_(n), alias_(n), perm_(n) {
    std::vector<double> w(n);
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += w[i] = 1.0 / std::pow(i + 1.0, skew);
    std::vector<int> small, large;
    for (int i = 0; i < n; ++i) {
      w[i] = w[i] * n / sum;
      (w[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const int s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = w[s];
      alias_[s] = l;
      w[l] -= 1.0 - w[s];
      if (w[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (int i : small) prob_[i] = 1.0;
    for (int i : large) prob_[i] = 1.0;
    for (int i = 0; i < n; ++i) perm_[i] = static_cast<uint64_t>(i);
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng->Below(static_cast<uint64_t>(i) + 1)]);
    }
  }

  uint64_t Sample(Rng* rng) const {
    const uint64_t x = rng->Next();
    const uint64_t col = ((x >> 32) * prob_.size()) >> 32;
    const double coin = static_cast<double>(x & 0xffffffffu) * 0x1.0p-32;
    return perm_[coin < prob_[col] ? col : static_cast<uint64_t>(alias_[col])];
  }

 private:
  std::vector<double> prob_;
  std::vector<int> alias_;
  std::vector<uint64_t> perm_;
};

struct SourceWindow {
  int64_t n = 0;
  int64_t wait_ns = 0;  // Pacing: entry until the tuple is due.
  int64_t gen_ns = 0;   // Drawing the tuple.
  int64_t emit_ns = 0;  // Factory return until the next factory entry.
  int64_t emit_blocked_ns = 0;
  LatHist lag;  // How late the tuple was generated (every tuple).
};

using HotSet = std::array<uint64_t, kHotKeys>;

class Generator {
 public:
  /// A null schedule makes an idle generator for the set-up repetitions:
  /// it produces nothing until stopped.
  Generator(const WorkloadSpec& spec, const Schedule* sched, uint64_t seed)
      : spec_(spec), sched_(sched), rng_(seed) {
    if (sched_ == nullptr) return;
    if (spec.zipf_keys > 0) {
      zipf_ = std::make_unique<ZipfKeys>(spec.zipf_keys, 0.5, &rng_);
    }
    offered_.assign(spec.keys, 0);
    win_.resize(sched_->windows());
    sweep_total_ = spec.sweep_warmup ? spec.keys : 0;
    next_due_ = Gap(sched_->segs[0].rate);
  }

  void SetHotSets(std::vector<HotSet> hot) { hot_ = std::move(hot); }

  /// The source factory: called on the source thread once per tuple.
  Tuple Next() {
    int64_t entry = NowNs();
    if (last_ret_ >= 0) CloseEmit(entry);
    if (sched_ == nullptr) return Tail();
    const int64_t t0 = sched_->t0;
    int64_t due_rel = 0;
    for (;;) {
      if (seg_ >= sched_->segs.size()) return Tail();
      const Segment& sg = sched_->segs[seg_];
      if (sweep_next_ < sweep_total_ || sg.rate <= 0.0) {
        // Closed loop: due now (or at the segment's start).
        const int64_t now_rel = entry - t0;
        if (sweep_next_ >= sweep_total_ && now_rel >= sg.end) {
          Advance();
          continue;
        }
        due_rel = std::max(now_rel, sweep_next_ < sweep_total_
                                        ? int64_t{0}
                                        : sg.start);
        break;
      }
      if (next_due_ >= sg.end) {
        Advance();
        continue;
      }
      due_rel = next_due_;
      next_due_ += Gap(sg.rate);
      break;
    }
    const int64_t due = t0 + due_rel;
    const int64_t gen_start = due > entry ? WaitUntil(due) : entry;
    const size_t w = std::min<size_t>(due_rel / kWindowNs, win_.size() - 1);
    SourceWindow& sw = win_[w];
    ++sw.n;
    sw.lag.Record(gen_start - due);

    const uint64_t key = SampleKey(due_rel, gen_start - t0);
    const int64_t id = generated_++;
    Tuple t;
    t.key = key;
    t.size_bytes = 64;
    t.payload.i0 = ++offered_[key];
    t.payload.i1 = due_rel;
    t.payload.f1 = static_cast<double>(id);
    if (sched_->segs[sched_->SegmentOf(due_rel)].traced) {
      const int64_t ret = NowNs();
      sw.wait_ns += gen_start - entry;
      sw.gen_ns += ret - gen_start;
      t.payload.f0 = static_cast<double>(ret);
      last_sampled_ = id % kSampleEvery == 0;
      if (last_sampled_) spans_.push_back({"gen", gen_start, ret, id});
      if (first_traced_entry_ < 0) first_traced_entry_ = entry;
      last_ret_ = ret;
      last_win_ = w;
      last_id_ = id;
    }
    return t;
  }

  void Stop() { stop_.store(true, std::memory_order_release); }
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // Read after the source thread has exited.
  int64_t generated() const { return generated_; }
  const std::vector<uint32_t>& offered() const { return offered_; }
  const std::vector<SourceWindow>& windows() const { return win_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Wall time the traced accounting covers (first traced factory entry to
  /// the end of the last traced emit).
  int64_t traced_wall_ns() const {
    return first_traced_entry_ < 0 ? 0 : last_traced_end_ - first_traced_entry_;
  }

 private:
  double Gap(double rate) {
    return rate <= 0.0 ? 0.0 : -std::log(rng_.Open01()) * 1e9 / rate;
  }

  void Advance() {
    ++seg_;
    if (seg_ < sched_->segs.size()) {
      next_due_ = std::max<double>(next_due_, sched_->segs[seg_].start);
    }
  }

  static int64_t WaitUntil(int64_t target) {
    int64_t now = NowNs();
    while (now < target) {
      if (target - now > 300'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(target - now - 200'000));
      } else {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      }
      now = NowNs();
    }
    return now;
  }

  uint64_t SampleKey(int64_t due_rel, int64_t now_rel) {
    if (sweep_next_ < sweep_total_) {
      const uint64_t key = sweep_next_++;
      // Paced arrivals resume from now, not from the schedule's past.
      if (sweep_next_ == sweep_total_) next_due_ = static_cast<double>(now_rel);
      return key;
    }
    if (!hot_.empty()) {
      const uint64_t x = rng_.Next();
      if ((x & 0xffff) < kHotCut) {
        const size_t set = std::min<size_t>(due_rel / kShiftNs, hot_.size() - 1);
        return hot_[set][(x >> 16) % kHotKeys];
      }
    }
    if (zipf_) return zipf_->Sample(&rng_);
    return rng_.Below(spec_.keys);
  }

  void CloseEmit(int64_t entry) {
    const int64_t emit = entry - last_ret_;
    SourceWindow& sw = win_[last_win_];
    sw.emit_ns += emit;
    if (emit > kBlockedEmitNs) sw.emit_blocked_ns += emit;
    if (last_sampled_) spans_.push_back({"exec.emit", last_ret_, entry, last_id_});
    last_traced_end_ = entry;
    last_ret_ = -1;
  }

  Tuple Tail() {
    finished_.store(true, std::memory_order_release);
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    Tuple t;
    t.payload.i1 = -1;  // Not a workload tuple: the operator skips it.
    return t;
  }

  const WorkloadSpec& spec_;
  const Schedule* sched_;
  Rng rng_;
  std::unique_ptr<ZipfKeys> zipf_;
  std::vector<HotSet> hot_;
  std::vector<uint32_t> offered_;  // Per-key count == last sequence issued.
  std::vector<SourceWindow> win_;
  std::vector<Span> spans_;
  size_t seg_ = 0;
  double next_due_ = 0.0;
  uint64_t sweep_next_ = 0;
  uint64_t sweep_total_ = 0;
  int64_t generated_ = 0;
  int64_t last_ret_ = -1;
  size_t last_win_ = 0;
  int64_t last_id_ = 0;
  bool last_sampled_ = false;
  int64_t first_traced_entry_ = -1;
  int64_t last_traced_end_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
};

// ---- Recorder (worker threads) ---------------------------------------------

/// Per-key operator state: the oracle travels with the shard.
struct KeyState {
  int64_t last_seq = 0;
  int64_t count = 0;
  uint64_t acc = 0;
};

struct SinkWindow {
  LatHist lat;  // Due time -> end of the logic call.
  int64_t traced = 0;
  int64_t op_ns = 0;
  int64_t state_ns = 0;
  int64_t cpu_ns = 0;
};

/// Everything one worker thread records; touched only by that thread
/// until it has exited.
struct SinkLane {
  std::vector<SinkWindow> win;
  std::vector<uint32_t> fine_n;     // Per 2 ms of due time: tuples,
  std::vector<uint32_t> fine_slow;  // and tuples slower than kSlowNs.
  std::vector<LatHist> handoff;     // Per segment: factory return -> logic.
  std::vector<LatHist> gap;         // Per segment: logic exit -> next entry.
  int64_t last_out = -1;
  int64_t tuples = 0;
  int64_t seq_errors = 0;
  std::vector<Span> spans;
};

class Recorder {
 public:
  Recorder(const Schedule* sched, int burn_rounds)
      : sched_(sched), burn_rounds_(burn_rounds) {
    static std::atomic<uint64_t> next_id{1};
    id_ = next_id.fetch_add(1);
  }

  /// The operator logic.
  void Process(const Tuple& t, StateAccessor& state) {
    const int64_t due_rel = t.payload.i1;
    if (due_rel < 0) return;
    SinkLane* lane = ThisLane();
    const int seg = sched_->SegmentOf(due_rel);
    const bool traced = sched_->segs[seg].traced;
    const int64_t in = traced ? NowNs() : 0;
    KeyState* ks = state.GetOrCreate<KeyState>();
    const int64_t got = traced ? NowNs() : 0;
    if (t.payload.i0 != ks->last_seq + 1) ++lane->seq_errors;
    ks->last_seq = t.payload.i0;
    ++ks->count;
    if (burn_rounds_ > 0) {
      ks->acc += Burn(t.key ^ static_cast<uint64_t>(t.payload.i0), burn_rounds_);
    }
    const int64_t out = NowNs();
    const int64_t due = sched_->t0 + due_rel;
    const int64_t latency = out - due;
    ++lane->tuples;
    const size_t w = std::min<size_t>(due_rel / kWindowNs, lane->win.size() - 1);
    SinkWindow& sw = lane->win[w];
    sw.lat.Record(latency);
    const size_t f = std::min<size_t>(due_rel / kFineNs, lane->fine_n.size() - 1);
    ++lane->fine_n[f];
    if (latency > kSlowNs) ++lane->fine_slow[f];
    if (!traced) return;

    ++sw.traced;
    sw.op_ns += out - in;
    sw.state_ns += got - in;
    sw.cpu_ns += out - got;
    const int64_t ret = static_cast<int64_t>(t.payload.f0);
    lane->handoff[seg].Record(in - ret);
    if (lane->last_out >= 0) lane->gap[seg].Record(in - lane->last_out);
    lane->last_out = out;
    const int64_t id = static_cast<int64_t>(t.payload.f1);
    if (id % kSampleEvery == 0) {
      lane->spans.push_back({"tuple", due, out, id});
      lane->spans.push_back({"exec.handoff", ret, in, id});
      lane->spans.push_back({"op", in, out, id});
      lane->spans.push_back({"state.get", in, got, id});
      lane->spans.push_back({"op.cpu", got, out, id});
    }
  }

  // Read after the worker threads have exited.
  const std::vector<std::unique_ptr<SinkLane>>& lanes() const { return lanes_; }

 private:
  SinkLane* ThisLane() {
    thread_local uint64_t cached_for = 0;
    thread_local SinkLane* cached = nullptr;
    if (cached_for != id_) {
      auto lane = std::make_unique<SinkLane>();
      lane->win.resize(sched_->windows());
      lane->fine_n.assign(sched_->fine_windows(), 0);
      lane->fine_slow.assign(sched_->fine_windows(), 0);
      lane->handoff.resize(sched_->segs.size());
      lane->gap.resize(sched_->segs.size());
      cached = lane.get();
      cached_for = id_;
      std::lock_guard<std::mutex> lock(mu_);
      lanes_.push_back(std::move(lane));
    }
    return cached;
  }

  const Schedule* sched_;
  const int burn_rounds_;
  uint64_t id_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<SinkLane>> lanes_;  // Guarded by mu_.
};

// ---- One engine run ------------------------------------------------------

struct TelemetryPoint {
  int64_t rel = 0;          // Schedule-relative sample time.
  double imbalance = 0.0;   // Max/mean worker busy over the last interval.
  int64_t moves = 0;        // Cumulative completed shard moves.
};

struct EngineRun {
  std::unique_ptr<Schedule> sched;
  std::shared_ptr<Generator> gen;
  std::shared_ptr<Recorder> rec;
  std::vector<double> setup_s, setup_ms, start_ms, ref_pass_us;
  std::vector<TelemetryPoint> samples;
  std::vector<double> sample_us;
  std::vector<Span> driver_spans;
  int64_t moves = 0;
  int64_t labels = 0;
  std::vector<double> pauses_ms;
  double drain_ms = 0.0;
  double state_mb = 0.0;
  int64_t failed = 0;
  std::vector<std::string> problems;
};

Topology BuildTopology(std::function<Tuple()> next,
                       std::shared_ptr<Recorder> rec, OperatorId* op) {
  TopologyBuilder b;
  OperatorSpec src;
  src.name = "source";
  src.is_source = true;
  src.num_executors = 1;
  src.shards_per_executor = 1;
  src.source.mode = SourceSpec::Mode::kSaturation;
  src.source.factory = [next = std::move(next)](elasticutor::Rng*,
                                                elasticutor::SimTime) {
    return next();
  };
  OperatorSpec logic;
  logic.name = "op";
  logic.num_executors = kWorkers;
  logic.static_executors = kWorkers;
  logic.shards_per_executor = kShardsPerWorker;
  logic.shard_state_bytes = 1024;
  logic.selectivity = 0.0;
  logic.logic = [rec = std::move(rec)](const Tuple& t, StateAccessor& state,
                                       elasticutor::EmitContext*) {
    rec->Process(t, state);
  };
  const OperatorId s = b.AddOperator(std::move(src));
  *op = b.AddOperator(std::move(logic));
  if (!b.Connect(s, *op).ok()) std::abort();
  auto topo = b.Build();
  if (!topo.ok()) std::abort();
  return std::move(topo).value();
}

EngineConfig MakeConfig(Paradigm paradigm, int workers, uint64_t seed) {
  EngineConfig c;
  c.paradigm = paradigm;
  c.backend = elasticutor::exec::BackendKind::kNative;
  c.seed = seed;
  c.num_nodes = 1;
  c.cores_per_node = 4;
  c.native.workers_per_operator = workers;
  c.native.migration_copy_bytes_per_sec = 0.0;  // Same-process handoff.
  c.native.balance.period_ns = elasticutor::Millis(10);
  c.native.balance.theta = 1.15;
  c.native.balance.max_moves = 4;
  return c;
}

// Hot set k: kHotKeys keys on distinct shards that Setup() routed to worker
// k % 2, each shard used once before any repeats. Keys come from
// [zipf_keys, keys) so hot keys never collide with the Zipf background.
std::vector<HotSet> PickHotSets(const WorkloadSpec& spec, const Schedule& s,
                                elasticutor::exec::NativeRuntime* native,
                                OperatorId op, uint64_t seed) {
  Rng rng(seed ^ 0x5157);
  const int shards = native->num_shards(op);
  std::vector<std::vector<uint64_t>> keys_of(shards);
  for (uint64_t k = spec.zipf_keys; k < spec.keys; ++k) {
    keys_of[native->shard_of_key(op, k)].push_back(k);
  }
  std::vector<std::vector<ShardId>> shards_of(kWorkers);
  for (ShardId sh = 0; sh < shards; ++sh) {
    if (keys_of[sh].empty()) continue;
    const int w = native->worker_of_shard(op, sh);
    if (w >= 0 && w < kWorkers) shards_of[w].push_back(sh);
  }
  for (auto& list : shards_of) {
    for (size_t i = list.size(); i > 1; --i) {
      std::swap(list[i - 1], list[rng.Below(i)]);
    }
  }
  const size_t n = static_cast<size_t>(s.end() / kShiftNs) + 1;
  std::vector<HotSet> sets(n);
  for (size_t k = 0; k < n; ++k) {
    const auto& list = shards_of[k % kWorkers];
    for (int j = 0; j < kHotKeys; ++j) {
      const ShardId sh = list[((k / kWorkers) * kHotKeys + j) % list.size()];
      const auto& cand = keys_of[sh];
      sets[k][j] = cand[rng.Below(cand.size())];
    }
  }
  return sets;
}

EngineRun RunEngine(const WorkloadSpec& spec, Schedule schedule,
                    const Options& o, Paradigm paradigm, int workers,
                    int reps) {
  EngineRun run;
  run.sched = std::make_unique<Schedule>(std::move(schedule));
  run.gen = std::make_shared<Generator>(spec, run.sched.get(), o.seed);
  run.rec = std::make_shared<Recorder>(run.sched.get(), spec.burn_rounds);
  const EngineConfig config = MakeConfig(paradigm, workers, o.seed);

  std::unique_ptr<Engine> engine;
  OperatorId op = -1;
  for (int r = 0; r < reps; ++r) {
    const bool last = r + 1 == reps;
    auto gen = last ? run.gen
                    : std::make_shared<Generator>(spec, nullptr, o.seed);
    Topology topo = BuildTopology([gen] { return gen->Next(); }, run.rec, &op);
    const int64_t ref = ReferencePassNs(r);
    const int64_t a = NowNs();
    auto e = std::make_unique<Engine>(std::move(topo), config);
    const elasticutor::Status st = e->Setup();
    const int64_t b = NowNs();
    if (!st.ok()) {
      std::fprintf(stderr, "Setup failed: %s\n", st.ToString().c_str());
      std::exit(2);
    }
    if (last) {
      if (spec.hot_shift) {
        run.gen->SetHotSets(PickHotSets(spec, *run.sched, e->native(), op,
                                        o.seed));
      }
      run.sched->t0 = NowNs() + 20 * kMs;  // Threads start before time 0.
    }
    const int64_t c = NowNs();
    e->Start();
    const int64_t d = NowNs();
    run.setup_s.push_back(static_cast<double>((b - a) + (d - c)) /
                          static_cast<double>(ref) * kReferencePassS);
    run.ref_pass_us.push_back(static_cast<double>(ref) / 1e3);
    run.setup_ms.push_back(static_cast<double>(b - a) / 1e6);
    run.start_ms.push_back(static_cast<double>(d - c) / 1e6);
    run.driver_spans.push_back({"engine.setup", a, b, -1});
    run.driver_spans.push_back({"engine.start", c, d, -1});
    if (last) {
      engine = std::move(e);
    } else {
      e->StopSources();
      gen->Stop();
      e->RunToCompletion();
    }
  }

  elasticutor::exec::NativeRuntime* native = engine->native();
  const int64_t t0 = run.sched->t0;
  const int64_t deadline = t0 + run.sched->end() + 60'000 * kMs;
  std::vector<int64_t> prev_busy(workers, 0);
  while (!run.gen->finished()) {
    if (NowNs() > deadline) {
      run.problems.push_back("generator did not finish its schedule");
      break;
    }
    engine->RunFor(elasticutor::Millis(100));
    const int64_t a = NowNs();
    const elasticutor::exec::TelemetrySnapshot snap = engine->SampleTelemetry();
    const int64_t b = NowNs();
    run.sample_us.push_back(static_cast<double>(b - a) / 1e3);
    run.driver_spans.push_back({"telemetry.sample", a, b, -1});
    std::vector<int64_t> busy(workers, 0);
    for (const auto& w : snap.workers) {
      if (w.op == op && w.index >= 0 && w.index < workers) busy[w.index] = w.busy_ns;
    }
    double sum = 0.0, max = 0.0;
    for (int i = 0; i < workers; ++i) {
      const double delta = static_cast<double>(busy[i] - prev_busy[i]);
      sum += delta;
      max = std::max(max, delta);
    }
    prev_busy = busy;
    const double mean = sum / workers;
    run.samples.push_back({b - t0, mean > 1e6 ? max / mean : 0.0,
                           native->reassignments_done()});
  }
  engine->StopSources();
  run.gen->Stop();
  const int64_t a = NowNs();
  engine->RunToCompletion();
  const int64_t b = NowNs();
  run.drain_ms = static_cast<double>(b - a) / 1e6;
  run.driver_spans.push_back({"engine.drain", a, b, -1});

  run.moves = native->reassignments_done();
  run.labels = native->labels_routed();
  for (auto p : native->migration_pauses()) {
    run.pauses_ms.push_back(static_cast<double>(p) / 1e6);
  }

  // Oracle: per-key counts in the operator state against what was offered.
  std::vector<int64_t> counted(spec.keys, 0);
  int64_t bytes = 0;
  for (int w = 0; w < workers; ++w) {
    elasticutor::ProcessStateStore* store = native->worker_store(op, w);
    bytes += store->TotalBytes();
    store->ForEachShard([&](ShardId, const elasticutor::ShardState& shard) {
      for (const auto& [key, value] : shard.entries) {
        const KeyState* ks = std::any_cast<KeyState>(&value);
        if (ks == nullptr || key >= spec.keys) {
          ++run.failed;
          continue;
        }
        counted[key] += ks->count;
      }
    });
  }
  run.state_mb = static_cast<double>(bytes) / 1e6;
  const auto& offered = run.gen->offered();
  for (uint64_t k = 0; k < spec.keys; ++k) {
    run.failed += std::abs(counted[k] - static_cast<int64_t>(offered[k]));
  }
  for (const auto& lane : run.rec->lanes()) run.failed += lane->seq_errors;
  return run;
}

// ---- Metrics -------------------------------------------------------------

struct Windows {
  size_t a = 0, b = 0;  // [a, b) in kWindowNs units.
};

Windows WindowsOf(const Segment& s, double skip_front) {
  const int64_t start =
      s.start + static_cast<int64_t>(skip_front * static_cast<double>(s.end - s.start));
  return {static_cast<size_t>((start + kWindowNs - 1) / kWindowNs),
          static_cast<size_t>(s.end / kWindowNs)};
}

LatHist MergedLatency(const EngineRun& run, Windows w) {
  LatHist h;
  for (const auto& lane : run.rec->lanes()) {
    for (size_t i = w.a; i < w.b && i < lane->win.size(); ++i) {
      h.Merge(lane->win[i].lat);
    }
  }
  return h;
}

LatHist MergedLag(const EngineRun& run, Windows w) {
  LatHist h;
  const auto& win = run.gen->windows();
  for (size_t i = w.a; i < w.b && i < win.size(); ++i) h.Merge(win[i].lag);
  return h;
}

// Median over the 100 ms windows of the given saturation segments of sink
// tuples per second, skipping the first third of each segment (catch-up
// after the previous rung's backlog).
double SaturationTps(const EngineRun& run, const std::vector<int>& segs) {
  std::vector<double> tps;
  for (int seg : segs) {
    const Windows w = WindowsOf(run.sched->segs[seg], 1.0 / 3.0);
    for (size_t i = w.a; i < w.b; ++i) {
      uint64_t n = 0;
      for (const auto& lane : run.rec->lanes()) n += lane->win[i].lat.count();
      tps.push_back(static_cast<double>(n) * 1e9 / kWindowNs);
    }
  }
  return Median(tps);
}

// Median over the recovery of every hot-set shift in the reference rung: the
// time until every 2 ms window of the next 50 ms has p99 <= 1 ms. A shift
// that does not recover before the next one counts as 500 ms.
double RebalanceMs(const EngineRun& run) {
  const Segment& ref = run.sched->segs[run.sched->ref];
  const size_t nf = run.sched->fine_windows();
  std::vector<uint64_t> n(nf, 0), slow(nf, 0);
  for (const auto& lane : run.rec->lanes()) {
    for (size_t i = 0; i < nf; ++i) {
      n[i] += lane->fine_n[i];
      slow[i] += lane->fine_slow[i];
    }
  }
  auto ok = [&](size_t i) { return slow[i] * 100 <= n[i]; };
  const size_t span = kRecoverySpanNs / kFineNs;
  std::vector<double> rec;
  for (int64_t t = ref.start; t + kShiftNs <= ref.end; t += kShiftNs) {
    const size_t first = static_cast<size_t>(t / kFineNs);
    const size_t limit = static_cast<size_t>((t + kShiftNs) / kFineNs);
    double ms = static_cast<double>(kShiftNs) / kMs;
    for (size_t i = first; i + span <= limit; ++i) {
      bool all = true;
      for (size_t j = i; j < i + span && all; ++j) all = ok(j);
      if (all) {
        ms = static_cast<double>(i - first) * kFineNs / kMs;
        break;
      }
    }
    rec.push_back(ms);
  }
  return Median(rec);
}

void AddNativeMetrics(const WorkloadSpec& spec, const EngineRun& run,
                      const Options& o, Outcome* out) {
  const Schedule& s = *run.sched;
  const Segment& ref = s.segs[s.ref];

  // Reference rung latency: the median over its 100 ms windows of each
  // window's percentile, leaving out the first window of every 500 ms
  // group. On skew-shift that window holds the recovery from the hot-set
  // shift, whose tail swings by 2x between identical runs; it is reported
  // as rebalance_ms and p99_shift_ms instead, and a shift that is not
  // absorbed within 100 ms still shows here. Per-window medians also keep
  // an occasional balancer move from deciding the run's number.
  std::vector<double> p50, p99, p99_shift;
  for (int64_t g = ref.start; g + kShiftNs <= ref.end; g += kShiftNs) {
    const size_t first = static_cast<size_t>(g / kWindowNs);
    const size_t last = static_cast<size_t>((g + kShiftNs) / kWindowNs);
    for (size_t w = first + 1; w < last; ++w) {
      const LatHist h = MergedLatency(run, {w, w + 1});
      p50.push_back(h.Quantile(0.50) / 1e6);
      p99.push_back(h.Quantile(0.99) / 1e6);
    }
    p99_shift.push_back(MergedLatency(run, {first, last}).Quantile(0.99) / 1e6);
  }
  out->Add("max_tps", SaturationTps(run, s.sats), "tuples/s");
  out->Add("p50_ms", Median(p50), "ms");
  out->Add("p99_ms", Median(p99), "ms");
  out->Add("setup_s", Median(run.setup_s), "s");
  if (spec.hot_shift) out->Add("p99_shift_ms", Median(p99_shift), "ms");

  // sustainable_tps: the highest rung whose last second meets the latency
  // limit with the generator keeping up (a growing backlog shows as lag).
  double sustainable = 0.0;
  for (const Segment& seg : s.segs) {
    if (seg.kind != Kind::kRung) continue;
    const int64_t last = std::max(seg.start, seg.end - 1000 * kMs);
    const Windows tail{static_cast<size_t>(last / kWindowNs),
                       static_cast<size_t>(seg.end / kWindowNs)};
    const double lat99 = MergedLatency(run, tail).Quantile(0.99) / 1e6;
    const double lag99 = MergedLag(run, tail).Quantile(0.99) / 1e6;
    if (lat99 <= kLatencyLimitMs && lag99 <= kLagLimitMs) {
      sustainable = std::max(sustainable, seg.rate);
    }
  }
  out->Add("sustainable_tps", sustainable, "tuples/s");
  if (s.trickle >= 0) {
    const LatHist h = MergedLatency(run, WindowsOf(s.segs[s.trickle], 0.25));
    out->Add("p50_low_ms", h.Quantile(0.50) / 1e6, "ms");
    out->Add("p99_low_ms", h.Quantile(0.99) / 1e6, "ms");
  }
  if (spec.hot_shift) out->Add("rebalance_ms", RebalanceMs(run), "ms");
  out->Add("gen.lag_p99_ms", MergedLag(run, WindowsOf(ref, 0.0)).Quantile(0.99) / 1e6,
           "ms");

  // Control plane, sampled by the driver every 100 ms.
  std::vector<double> imbalance;
  int64_t moves_a = -1, moves_b = 0;
  for (const auto& p : run.samples) {
    if (p.rel < ref.start || p.rel >= ref.end) continue;
    if (p.imbalance > 0.0) imbalance.push_back(p.imbalance);
    if (moves_a < 0) moves_a = p.moves;
    moves_b = p.moves;
  }
  const double ref_moves = static_cast<double>(moves_b - std::max<int64_t>(0, moves_a));
  const double ref_s = static_cast<double>(ref.end - ref.start) / 1e9;
  out->Add("exec.telemetry_sample_us", Median(run.sample_us), "us");
  out->Add("op.busy_imbalance_p90", Percentile(imbalance, 0.90), "ratio");
  out->Add("elastic.moves_per_s", ref_moves / ref_s, "1/s");
  if (spec.hot_shift) {
    out->Add("elastic.moves_per_shift", ref_moves / (ref_s * 1e9 / kShiftNs),
             "count");
  }
  out->Add("protocol.pause_p50_ms", Percentile(run.pauses_ms, 0.50), "ms");
  out->Add("protocol.pause_p90_ms", Percentile(run.pauses_ms, 0.90), "ms");
  out->Add("protocol.labels_per_move",
           run.moves > 0 ? static_cast<double>(run.labels) / run.moves : 0.0,
           "count");
  out->Add("engine.setup_ms", Median(run.setup_ms), "ms");
  out->Add("engine.start_ms", Median(run.start_ms), "ms");
  out->Add("engine.drain_ms", run.drain_ms, "ms");
  out->Add("ref.pass_us", Median(run.ref_pass_us), "us");
  out->Add("state.mb", run.state_mb, "MB");
  if (!o.trace) return;

  // Layer timers (traced tuples only). Source-side costs are per generated
  // tuple, operator-side ones per traced logic call.
  const std::vector<int> refs{s.ref};
  auto source_ratio = [&](const std::vector<int>& segs, auto field, bool per_tuple) {
    double total = 0.0, n = 0.0, wall = 0.0;
    for (int seg : segs) {
      const Windows w = WindowsOf(s.segs[seg], 0.0);
      for (size_t i = w.a; i < w.b; ++i) {
        const SourceWindow& sw = run.gen->windows()[i];
        total += static_cast<double>(field(sw));
        n += static_cast<double>(sw.n);
        wall += static_cast<double>(sw.wait_ns + sw.gen_ns + sw.emit_ns);
      }
    }
    const double base = per_tuple ? n : wall;
    return base > 0.0 ? total / base : 0.0;
  };
  auto sink_total = [&](const std::vector<int>& segs, auto field) {
    double total = 0.0, n = 0.0;
    for (int seg : segs) {
      const Windows w = WindowsOf(s.segs[seg], 0.0);
      for (const auto& lane : run.rec->lanes()) {
        for (size_t i = w.a; i < w.b; ++i) {
          total += static_cast<double>(field(lane->win[i]));
          n += static_cast<double>(lane->win[i].traced);
        }
      }
    }
    return std::make_pair(total, n);
  };
  auto per_call = [](std::pair<double, double> p) {
    return p.second > 0.0 ? p.first / p.second : 0.0;
  };
  auto merged = [&](const std::vector<int>& segs, auto member) {
    LatHist h;
    for (const auto& lane : run.rec->lanes()) {
      for (int seg : segs) h.Merge(((*lane).*member)[seg]);
    }
    return h;
  };
  const LatHist handoff = merged(refs, &SinkLane::handoff);
  const double gen_ns =
      source_ratio(refs, [](const SourceWindow& w) { return w.gen_ns; }, true);
  out->Add("gen.ns_per_tuple", gen_ns, "ns");
  // Lag from back-pressure is the system's and is charged to it through the
  // due-time latency; the run is invalid only if the generator itself could
  // limit a rung.
  if (gen_ns > 0.5e9 / spec.max_tps) {
    out->Fail("generator needs " + std::to_string(gen_ns) +
              " ns per tuple, too close to the fastest rung's gap");
  }
  out->Add("exec.emit_ns_per_tuple",
           source_ratio(s.sats, [](const SourceWindow& w) { return w.emit_ns; }, true),
           "ns");
  out->Add("exec.emit_blocked_frac",
           source_ratio(s.sats,
                        [](const SourceWindow& w) { return w.emit_blocked_ns; },
                        false),
           "ratio");
  out->Add("exec.handoff_p50_us", handoff.Quantile(0.50) / 1e3, "us");
  out->Add("exec.handoff_p99_us", handoff.Quantile(0.99) / 1e3, "us");
  out->Add("exec.worker_gap_p50_ns", merged(s.sats, &SinkLane::gap).Quantile(0.50),
           "ns");
  out->Add("exec.worker_busy_frac",
           sink_total(refs, [](const SinkWindow& w) { return w.op_ns; }).first /
               (static_cast<double>(kWorkers) * (ref.end - ref.start)),
           "ratio");
  out->Add("state.get_ns_per_tuple",
           per_call(sink_total(refs, [](const SinkWindow& w) { return w.state_ns; })),
           "ns");
  out->Add("op.cpu_ns_per_tuple",
           per_call(sink_total(refs, [](const SinkWindow& w) { return w.cpu_ns; })),
           "ns");
  const double untraced = SaturationTps(run, {s.sat_untraced});
  out->Add("trace.overhead_frac",
           untraced > 0 ? 1.0 - SaturationTps(run, {s.sats.back()}) / untraced : 0.0,
           "ratio");

  // The source thread's time splits into pacing wait, generation and emit:
  // the three must add up to its wall time.
  int64_t accounted = 0;
  for (const auto& w : run.gen->windows()) accounted += w.wait_ns + w.gen_ns + w.emit_ns;
  const double traced_wall = static_cast<double>(run.gen->traced_wall_ns());
  if (traced_wall <= 0 ||
      std::abs(static_cast<double>(accounted) - traced_wall) > 0.05 * traced_wall) {
    out->Fail("source accounting " + std::to_string(accounted) + " ns vs wall " +
              std::to_string(traced_wall) + " ns");
  }
}

void WriteTrace(const EngineRun& run, const Options& o) {
  std::vector<Track> tracks;
  tracks.push_back({"driver", &run.driver_spans});
  tracks.push_back({"source", &run.gen->spans()});
  for (size_t i = 0; i < run.rec->lanes().size(); ++i) {
    tracks.push_back({"worker-" + std::to_string(i), &run.rec->lanes()[i]->spans});
  }
  PrintSelfTimeTable(tracks);
  int64_t sink = 0, traced = 0, sampled = 0;
  for (const auto& lane : run.rec->lanes()) {
    sink += lane->tuples;
    for (const auto& w : lane->win) traced += w.traced;
    for (const auto& sp : lane->spans) sampled += sp.name == std::string("tuple");
  }
  std::printf("# boundary counts: generated %lld, logic calls %lld, traced %lld, "
              "sampled %lld, moves %lld, labels %lld\n",
              static_cast<long long>(run.gen->generated()),
              static_cast<long long>(sink), static_cast<long long>(traced),
              static_cast<long long>(sampled), static_cast<long long>(run.moves),
              static_cast<long long>(run.labels));
  if (!o.trace_out.empty()) {
    if (WriteChromeTrace(o.trace_out, tracks)) {
      std::printf("# trace written to %s\n", o.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", o.trace_out.c_str());
    }
  }
}

}  // namespace

bool IsNativeWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

Outcome RunNative(const Options& o) {
  const WorkloadSpec& spec = *FindSpec(o.workload);
  Outcome out;
  EngineRun run = RunEngine(spec, BuildSchedule(spec, o.seconds, o.trace), o,
                            o.paradigm, kWorkers, kSetupReps);
  AddNativeMetrics(spec, run, o, &out);
  out.attempted = run.gen->generated();
  out.failed = run.failed;
  for (auto& p : run.problems) out.Fail(p);

  if (o.trace && spec.trickle) {
    // Baseline on steady: the same job on one static worker, source
    // unthrottled.
    EngineRun base = RunEngine(spec, SaturationOnly(std::min(1.5, o.seconds)),
                               o, Paradigm::kStatic, 1, 1);
    out.Add("ref.max_tps_static_1w", SaturationTps(base, base.sched->sats),
            "tuples/s");
    out.attempted += base.gen->generated();
    out.failed += base.failed;
  }
  if (o.trace) WriteTrace(run, o);
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace e2e
