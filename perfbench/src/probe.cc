#include "probe.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace webdis::perfbench {

namespace {

// Spans kept for the trace file (all threads together); the totals count
// every span.
constexpr int64_t kMaxRecords = 200'000;

std::atomic<uint64_t> g_next_generation{1};

Layer DeliveryLayer(Owner owner, net::MessageType type) {
  using net::MessageType;
  switch (owner) {
    case Owner::kQueryServer:
      return type == MessageType::kWebQuery || type == MessageType::kCloneBatch
                 ? Layer::kServerClone
                 : Layer::kServerOther;
    case Owner::kUserSite:
      return type == MessageType::kReport || type == MessageType::kReportBatch
                 ? Layer::kClientReport
                 : Layer::kClientOther;
    case Owner::kHttpServer:
      return Layer::kHttp;
  }
  return Layer::kHttp;
}

Layer TimerLayer(Owner owner) {
  switch (owner) {
    case Owner::kQueryServer:
      return Layer::kServerTimer;
    case Owner::kUserSite:
      return Layer::kClientTimer;
    case Owner::kHttpServer:
      return Layer::kHttp;
  }
  return Layer::kHttp;
}

bool IsCloneType(net::MessageType type) {
  return type == net::MessageType::kWebQuery ||
         type == net::MessageType::kCloneBatch;
}

bool IsReportType(net::MessageType type) {
  return type == net::MessageType::kReport ||
         type == net::MessageType::kReportBatch;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBuildWeb: return "web.generate";
    case Layer::kBuildDeployment: return "core.deploy";
    case Layer::kCompile: return "disql.compile";
    case Layer::kSubmit: return "client.submit";
    case Layer::kLoop: return "net.loop";
    case Layer::kCollect: return "core.collect";
    case Layer::kServerClone: return "server.clone";
    case Layer::kServerOther: return "server.control";
    case Layer::kServerTimer: return "server.timer";
    case Layer::kClientReport: return "client.report";
    case Layer::kClientOther: return "client.control";
    case Layer::kClientTimer: return "client.timer";
    case Layer::kHttp: return "http.fetch";
    case Layer::kSend: return "net.send";
    case Layer::kWalAppend: return "server.wal_append";
    case Layer::kWalSync: return "server.wal_sync";
    case Layer::kSnapshot: return "server.snapshot";
    case Layer::kCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Tracer::ThreadState {
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    int64_t cpu_start_ns;  // -1 unless CPU-timed
  };
  Tracer* tracer = nullptr;
  uint32_t index = 0;
  std::array<LayerTotals, kNumLayers> totals{};
  std::vector<Frame> stack;
  std::vector<SpanRecord> records;
  std::vector<Capture> clones;
  std::vector<Capture> reports;
};

std::atomic<Tracer*> Tracer::active_{nullptr};

namespace {
struct TlsSlot {
  uint64_t generation = 0;
  Tracer::ThreadState* state = nullptr;
};
thread_local TlsSlot t_slot;
}  // namespace

Tracer::Tracer()
    : generation_(g_next_generation.fetch_add(1)), records_left_(kMaxRecords) {}

Tracer::~Tracer() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

void Tracer::Activate() { active_.store(this, std::memory_order_release); }

void Tracer::Deactivate() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

void Tracer::SetCapture(bool on, size_t limit) {
  capture_limit_.store(limit);
  capture_on_.store(on);
}

Tracer::ThreadState* Tracer::Local() {
  if (t_slot.generation == generation_) return t_slot.state;
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_unique<ThreadState>();
  state->tracer = this;
  state->index = static_cast<uint32_t>(threads_.size());
  state->stack.reserve(16);
  t_slot.generation = generation_;
  t_slot.state = state.get();
  threads_.push_back(std::move(state));
  return t_slot.state;
}

void Tracer::MaybeCapture(net::MessageType type,
                          const std::vector<uint8_t>& payload) {
  if (!capture_on_.load(std::memory_order_relaxed)) return;
  std::vector<Capture>* sink = nullptr;
  if (IsCloneType(type)) {
    sink = &Local()->clones;
  } else if (IsReportType(type)) {
    sink = &Local()->reports;
  } else {
    return;
  }
  if (sink->size() < capture_limit_.load(std::memory_order_relaxed)) {
    sink->push_back(Capture{type, payload});
  }
}

std::array<LayerTotals, kNumLayers> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<LayerTotals, kNumLayers> sum{};
  for (const auto& state : threads_) {
    for (int i = 0; i < kNumLayers; ++i) {
      sum[i].calls += state->totals[i].calls;
      sum[i].total_ns += state->totals[i].total_ns;
      sum[i].self_ns += state->totals[i].self_ns;
      sum[i].top_ns += state->totals[i].top_ns;
      sum[i].top_cpu_ns += state->totals[i].top_cpu_ns;
    }
  }
  return sum;
}

std::vector<Capture> Tracer::Clones() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Capture> out;
  for (const auto& state : threads_) {
    out.insert(out.end(), state->clones.begin(), state->clones.end());
  }
  return out;
}

std::vector<Capture> Tracer::Reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Capture> out;
  for (const auto& state : threads_) {
    out.insert(out.end(), state->reports.begin(), state->reports.end());
  }
  return out;
}

bool Tracer::WriteTraceFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const auto& state : threads_) {
    for (const SpanRecord& r : state->records) {
      origin = std::min(origin, r.start_ns);
    }
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& state : threads_) {
    for (const SpanRecord& r : state->records) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",\n", LayerName(r.layer), r.thread,
                   static_cast<double>(r.start_ns - origin) / 1000.0,
                   static_cast<double>(r.dur_ns) / 1000.0);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(Layer layer) {
  Tracer* tracer = Tracer::active();
  if (tracer == nullptr) return;
  state_ = tracer->Local();
  const bool top = state_->stack.empty() ||
                   state_->stack.back().layer == Layer::kLoop;
  const int64_t cpu =
      top && tracer->thread_cpu_.load(std::memory_order_relaxed)
          ? ThreadCpuNs()
          : -1;
  state_->stack.push_back({layer, NowNs(), 0, cpu});
}

Span::~Span() {
  if (state_ == nullptr) return;
  const int64_t end = NowNs();
  const Tracer::ThreadState::Frame frame = state_->stack.back();
  state_->stack.pop_back();
  const int64_t dur = end - frame.start_ns;
  LayerTotals& t = state_->totals[static_cast<int>(frame.layer)];
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += dur - frame.child_ns;
  if (state_->stack.empty()) {
    t.top_ns += dur;
  } else {
    Tracer::ThreadState::Frame& parent = state_->stack.back();
    parent.child_ns += dur;
    if (parent.layer == Layer::kLoop) t.top_ns += dur;
  }
  if (frame.cpu_start_ns >= 0) {
    t.top_cpu_ns += ThreadCpuNs() - frame.cpu_start_ns;
  }
  if (state_->tracer->records_left_.fetch_sub(
          1, std::memory_order_relaxed) > 0) {
    state_->records.push_back({frame.start_ns, dur, state_->index,
                               frame.layer});
  }
}

Status TimedTransport::Listen(const net::Endpoint& endpoint,
                              net::MessageHandler handler) {
  const Owner owner = owner_;
  return base_->Listen(
      endpoint, [owner, handler = std::move(handler)](
                    const net::Endpoint& from, net::MessageType type,
                    const std::vector<uint8_t>& payload) {
        if (Tracer* tracer = Tracer::active()) {
          if ((owner == Owner::kQueryServer && IsCloneType(type)) ||
              (owner == Owner::kUserSite && IsReportType(type))) {
            tracer->MaybeCapture(type, payload);
          }
        }
        Span span(DeliveryLayer(owner, type));
        handler(from, type, payload);
      });
}

Status TimedTransport::Send(const net::Endpoint& from, const net::Endpoint& to,
                            net::MessageType type,
                            std::vector<uint8_t> payload) {
  Span span(Layer::kSend);
  return base_->Send(from, to, type, std::move(payload));
}

uint64_t TimedTransport::ScheduleAfter(SimDuration delay,
                                       std::function<void()> fn) {
  const Layer layer = TimerLayer(owner_);
  return base_->ScheduleAfter(delay, [layer, fn = std::move(fn)] {
    Span span(layer);
    fn();
  });
}

Status TimedPersistBackend::WriteSnapshot(const std::vector<uint8_t>& bytes) {
  Span span(Layer::kSnapshot);
  return base_->WriteSnapshot(bytes);
}

Status TimedPersistBackend::AppendWal(const std::vector<uint8_t>& bytes) {
  if (Tracer* tracer = Tracer::active()) tracer->AddWalBytes(bytes.size());
  Span span(Layer::kWalAppend);
  return base_->AppendWal(bytes);
}

Status TimedPersistBackend::SyncWal() {
  Span span(Layer::kWalSync);
  return base_->SyncWal();
}

Status TimedPersistBackend::TruncateWal() {
  Span span(Layer::kSnapshot);
  return base_->TruncateWal();
}

}  // namespace webdis::perfbench
