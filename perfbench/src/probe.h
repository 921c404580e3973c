// Tracing for the benchmark's traced run. Every span is recorded from the
// benchmark's own code, around calls into the engine's public interfaces:
// the harness's own calls, and the two interfaces every server is
// constructed on (net::Transport and server::PersistBackend), wrapped by
// timing decorators. Nothing inside src/ is instrumented.
//
// Spans accumulate per thread (the parallel stepper runs handlers on up to
// four threads at once) and are merged when the run ends.
#ifndef WEBDIS_PERFBENCH_PROBE_H_
#define WEBDIS_PERFBENCH_PROBE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "server/persist.h"

namespace webdis::perfbench {

/// The boundaries a span can sit on.
enum class Layer : int {
  kBuildWeb,      // web generation (set-up, outside the timed region)
  kBuildDeployment,  // deployment construction (set-up)
  kCompile,       // disql::CompileDisql
  kSubmit,        // UserSite::Submit (what Engine::Submit forwards to)
  kLoop,          // SimNetwork::RunUntilIdle
  kCollect,       // per-query outcome collection
  kServerClone,   // query-server delivery of kWebQuery / kCloneBatch
  kServerOther,   // query-server delivery of acks, NACKs, terminations
  kServerTimer,   // timer callback armed by a query server
  kClientReport,  // user-site delivery of kReport / kReportBatch
  kClientOther,   // user-site delivery of acks and NACKs
  kClientTimer,   // timer callback armed by the user site
  kHttp,          // HTTP server delivery (data-shipping fetches)
  kSend,          // Transport::Send
  kWalAppend,     // PersistBackend::AppendWal
  kWalSync,       // PersistBackend::SyncWal
  kSnapshot,      // PersistBackend::WriteSnapshot / TruncateWal
  kCount,
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);
const char* LayerName(Layer layer);

struct LayerTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the time of spans nested inside
  /// Time of spans opened with no enclosing span, or directly inside the
  /// event loop's span: the "covered" time of the traced region.
  int64_t top_ns = 0;
  /// The same spans in thread CPU time (only while thread CPU timing is on).
  int64_t top_cpu_ns = 0;
};

/// One recorded span, for the trace file written when the run ends.
struct SpanRecord {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint32_t thread = 0;
  Layer layer = Layer::kCount;
};

/// One payload captured at a delivery, for replay of the pure layer
/// functions after the run.
struct Capture {
  net::MessageType type = net::MessageType::kWebQuery;
  std::vector<uint8_t> payload;
};

/// Process-wide tracer. At most one is active at a time; while none is, the
/// spans below cost one relaxed load.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer the active one (or detaches it).
  void Activate();
  void Deactivate();

  /// Payload capture for replay, on while `on`; at most `limit` payloads of
  /// each kind are kept.
  void SetCapture(bool on, size_t limit);

  /// Also time top-level spans in thread CPU time. Under the parallel
  /// stepper a span's wall time includes time its thread was preempted, so
  /// attribution against the loop's CPU time needs CPU-timed spans; one
  /// thread-clock read costs about 0.4 us, so it stays off for the
  /// sequential loop, where wall time is the thread's time.
  void SetThreadCpu(bool on) { thread_cpu_.store(on); }

  std::array<LayerTotals, kNumLayers> Totals() const;
  std::vector<Capture> Clones() const;
  std::vector<Capture> Reports() const;
  /// Bytes appended to write-ahead logs while traced.
  uint64_t wal_bytes() const { return wal_bytes_.load(); }
  void AddWalBytes(uint64_t n) { wal_bytes_.fetch_add(n); }

  /// Writes the recorded spans as Chrome trace-event JSON.
  bool WriteTraceFile(const std::string& path) const;

  static Tracer* active() { return active_.load(std::memory_order_acquire); }

  /// Internal per-thread state.
  struct ThreadState;
  ThreadState* Local();
  void MaybeCapture(net::MessageType type, const std::vector<uint8_t>& payload);

 private:
  friend class Span;
  static std::atomic<Tracer*> active_;
  const uint64_t generation_;
  std::atomic<int64_t> records_left_;
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<bool> capture_on_{false};
  std::atomic<bool> thread_cpu_{false};
  std::atomic<size_t> capture_limit_{0};
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span on the active tracer; a no-op when none is active.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadState* state_ = nullptr;
};

/// Who a TimedTransport serves; decides how its deliveries and timers are
/// attributed.
enum class Owner { kQueryServer, kUserSite, kHttpServer };

/// Transport decorator: times every Listen handler invocation, every Send
/// and every ScheduleAfter callback, and captures clone and report payloads
/// for replay. Everything else passes straight through to `base`.
class TimedTransport : public net::Transport {
 public:
  TimedTransport(net::Transport* base, Owner owner)
      : base_(base), owner_(owner) {}

  Status Listen(const net::Endpoint& endpoint,
                net::MessageHandler handler) override;
  void CloseListener(const net::Endpoint& endpoint) override {
    base_->CloseListener(endpoint);
  }
  Status Send(const net::Endpoint& from, const net::Endpoint& to,
              net::MessageType type, std::vector<uint8_t> payload) override;
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override;
  bool CancelTimer(uint64_t id) override { return base_->CancelTimer(id); }
  bool SupportsTimers() const override { return base_->SupportsTimers(); }

 private:
  net::Transport* base_;
  Owner owner_;
};

/// PersistBackend decorator timing WAL appends, syncs and snapshots.
class TimedPersistBackend : public server::PersistBackend {
 public:
  explicit TimedPersistBackend(server::PersistBackend* base) : base_(base) {}

  Status WriteSnapshot(const std::vector<uint8_t>& bytes) override;
  Result<std::vector<uint8_t>> ReadSnapshot() override {
    return base_->ReadSnapshot();
  }
  Status AppendWal(const std::vector<uint8_t>& bytes) override;
  Status SyncWal() override;
  Result<std::vector<uint8_t>> ReadWal() override { return base_->ReadWal(); }
  Status TruncateWal() override;
  uint64_t WalBytes() const override { return base_->WalBytes(); }
  void OnCrash() override { base_->OnCrash(); }

 private:
  server::PersistBackend* base_;
};

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
/// CPU time consumed by the whole process, in nanoseconds.
int64_t ProcessCpuNs();
/// CPU time consumed by the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

}  // namespace webdis::perfbench

#endif  // WEBDIS_PERFBENCH_PROBE_H_
