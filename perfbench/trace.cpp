// Traced probe: a span around every call into a wrapped layer boundary.
//
// Every call is counted and timed, so per-boundary counts and self-time
// accumulators are exact. Timing reads the TSC, which is cheaper than
// steady_clock and needs an x86-64 host with a constant, non-stop TSC; ticks
// are converted to seconds against steady_clock over the run loop. Span
// records (boundary, parent, start, end) are kept only for every
// kSampleEvery-th span to close, a deterministic sample because the
// simulation's call sequence is.
//
// Self time is a span's duration minus the durations of the wrapped spans
// directly inside it. Self time accrued while a run loop is on the stack is
// also kept apart, so the children's in-loop self times plus the run loop's
// own self time (sim.dispatch_self_s) must add up to the run loop total.
#include <x86intrin.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "hier/aggregator.hpp"
#include "jms/message.hpp"
#include "jms/selector.hpp"
#include "mqtt/client.hpp"
#include "mqtt/sub_index.hpp"
#include "narada/client.hpp"
#include "net/http.hpp"
#include "net/lan.hpp"
#include "net/stream.hpp"
#include "obs/sketch.hpp"
#include "probe.hpp"
#include "rgma/api.hpp"
#include "rgma/sql_compile.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

enum Boundary : int {
  kRunLoop,
  kStreamSend,
  kLanDatagram,
  kHttpRequest,
  kWireSize,
  kSelector,
  kNaradaPublish,
  kRgmaInsert,
  kRgmaPoll,
  kRgmaPredicate,
  kMqttPublish,
  kMqttSubIndex,
  kHierCloseWindow,
  kHierRegionalDeliver,
  kMetricsRecord,
  kSketchRecord,
  kBoundaryCount
};

constexpr const char* kNames[kBoundaryCount] = {
    "sim.run_loop",        "net.stream_send",   "net.lan_datagram",
    "net.http_request",    "jms.wire_size",     "jms.selector",
    "narada.publish",      "rgma.insert",       "rgma.poll",
    "rgma.predicate",      "mqtt.publish",      "mqtt.sub_index",
    "hier.close_window",   "hier.regional_deliver",
    "core.metrics_record", "obs.sketch_record"};

constexpr std::uint64_t kSampleEvery = 1024;
constexpr std::size_t kMaxSampledSpans = 1 << 20;
constexpr int kMaxDepth = 64;

struct Totals {
  std::uint64_t calls = 0;
  std::int64_t self_ticks = 0;
  std::int64_t in_loop_self_ticks = 0;
};

struct Frame {
  Boundary boundary;
  std::int64_t start;
  std::int64_t child_ticks;
};

struct SpanRecord {
  std::int64_t start;
  std::int64_t end;
  Boundary boundary;
  int parent;  ///< enclosing boundary, -1 at top level
};

Totals g_totals[kBoundaryCount];
Frame g_stack[kMaxDepth];
int g_depth = 0;
int g_loop_depth = 0;
std::int64_t g_loop_total_ticks = 0;
std::uint64_t g_closed_spans = 0;
std::vector<SpanRecord> g_sampled;

// Run-loop calibration points: TSC and steady_clock at the first entry and
// the last exit.
Clock::time_point g_first_entry{};
Clock::time_point g_last_exit{};
std::int64_t g_first_entry_tsc = 0;
std::int64_t g_last_exit_tsc = 0;

std::int64_t ticks() { return static_cast<std::int64_t>(__rdtsc()); }

class Span {
 public:
  explicit Span(Boundary boundary) {
    if (g_depth == kMaxDepth) {
      std::fprintf(stderr, "perfbench: span stack overflow\n");
      std::abort();
    }
    ++g_totals[boundary].calls;
    if (boundary == kRunLoop) {
      ++g_loop_depth;
      if (g_first_entry == Clock::time_point{}) {
        g_first_entry = Clock::now();
        g_first_entry_tsc = ticks();
      }
    }
    g_stack[g_depth++] = Frame{boundary, ticks(), 0};
  }

  ~Span() {
    const std::int64_t end = ticks();
    const Frame frame = g_stack[--g_depth];
    const std::int64_t span = end - frame.start;
    const std::int64_t self = span - frame.child_ticks;
    g_totals[frame.boundary].self_ticks += self;
    if (frame.boundary == kRunLoop) {
      --g_loop_depth;
      g_loop_total_ticks += span;
      g_last_exit_tsc = ticks();
      g_last_exit = Clock::now();
    }
    if (g_loop_depth > 0) g_totals[frame.boundary].in_loop_self_ticks += self;
    int parent = -1;
    if (g_depth > 0) {
      g_stack[g_depth - 1].child_ticks += span;
      parent = g_stack[g_depth - 1].boundary;
    }
    if (++g_closed_spans % kSampleEvery == 0 &&
        g_sampled.size() < kMaxSampledSpans) {
      g_sampled.push_back(SpanRecord{frame.start, end, frame.boundary, parent});
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace
}  // namespace perfbench

using perfbench::Span;
namespace gm = gridmon;

// Each __wrap_X opens a span and forwards to the original (__real_X). The
// parameter lists mirror the wrapped member functions, `this` first.
extern "C" {

std::uint64_t __real__ZN7gridmon3sim10Simulation8run_loopElb(
    gm::sim::Simulation*, gm::SimTime, bool);
std::uint64_t __wrap__ZN7gridmon3sim10Simulation8run_loopElb(
    gm::sim::Simulation* self, gm::SimTime until, bool advance_clock) {
  Span span(perfbench::kRunLoop);
  return __real__ZN7gridmon3sim10Simulation8run_loopElb(self, until,
                                                         advance_clock);
}

void __real__ZN7gridmon3net16StreamConnection4sendEilSt3any(
    gm::net::StreamConnection*, int, std::int64_t, std::any);
void __wrap__ZN7gridmon3net16StreamConnection4sendEilSt3any(
    gm::net::StreamConnection* self, int from_side, std::int64_t bytes,
    std::any payload) {
  Span span(perfbench::kStreamSend);
  __real__ZN7gridmon3net16StreamConnection4sendEilSt3any(self, from_side, bytes,
                                                         std::move(payload));
}

void __real__ZN7gridmon3net3Lan13send_datagramENS0_8EndpointES2_lSt3any(
    gm::net::Lan*, gm::net::Endpoint, gm::net::Endpoint, std::int64_t,
    std::any);
void __wrap__ZN7gridmon3net3Lan13send_datagramENS0_8EndpointES2_lSt3any(
    gm::net::Lan* self, gm::net::Endpoint src, gm::net::Endpoint dst,
    std::int64_t bytes, std::any payload) {
  Span span(perfbench::kLanDatagram);
  __real__ZN7gridmon3net3Lan13send_datagramENS0_8EndpointES2_lSt3any(
      self, src, dst, bytes, std::move(payload));
}

gm::SimTime __real__ZN7gridmon3net3Lan13frame_transitEiil(gm::net::Lan*,
                                                          gm::net::NodeId,
                                                          gm::net::NodeId,
                                                          std::int64_t);
gm::SimTime __wrap__ZN7gridmon3net3Lan13frame_transitEiil(
    gm::net::Lan* self, gm::net::NodeId src, gm::net::NodeId dst,
    std::int64_t bytes) {
  Span span(perfbench::kLanDatagram);
  return __real__ZN7gridmon3net3Lan13frame_transitEiil(self, src, dst, bytes);
}

void __real__ZN7gridmon3net10HttpClient7requestENS0_8EndpointENS0_11HttpRequestESt8functionIFvRKNS0_12HttpResponseEEE(
    gm::net::HttpClient*, gm::net::Endpoint, gm::net::HttpRequest,
    gm::net::HttpClient::ResponseHandler);
void __wrap__ZN7gridmon3net10HttpClient7requestENS0_8EndpointENS0_11HttpRequestESt8functionIFvRKNS0_12HttpResponseEEE(
    gm::net::HttpClient* self, gm::net::Endpoint server,
    gm::net::HttpRequest req, gm::net::HttpClient::ResponseHandler on_response) {
  Span span(perfbench::kHttpRequest);
  __real__ZN7gridmon3net10HttpClient7requestENS0_8EndpointENS0_11HttpRequestESt8functionIFvRKNS0_12HttpResponseEEE(
      self, server, std::move(req), std::move(on_response));
}

std::int64_t __real__ZNK7gridmon3jms7Message9wire_sizeEv(
    const gm::jms::Message*);
std::int64_t __wrap__ZNK7gridmon3jms7Message9wire_sizeEv(
    const gm::jms::Message* self) {
  Span span(perfbench::kWireSize);
  return __real__ZNK7gridmon3jms7Message9wire_sizeEv(self);
}

gm::jms::Tri __real__ZNK7gridmon3jms8Selector8evaluateERKNS0_7MessageE(
    const gm::jms::Selector*, const gm::jms::Message&);
gm::jms::Tri __wrap__ZNK7gridmon3jms8Selector8evaluateERKNS0_7MessageE(
    const gm::jms::Selector* self, const gm::jms::Message& message) {
  Span span(perfbench::kSelector);
  return __real__ZNK7gridmon3jms8Selector8evaluateERKNS0_7MessageE(self,
                                                                   message);
}

void __real__ZN7gridmon6narada12NaradaClient7publishENS_3jms7MessageESt8functionIFvlEE(
    gm::narada::NaradaClient*, gm::jms::Message,
    gm::narada::NaradaClient::SendCallback);
void __wrap__ZN7gridmon6narada12NaradaClient7publishENS_3jms7MessageESt8functionIFvlEE(
    gm::narada::NaradaClient* self, gm::jms::Message message,
    gm::narada::NaradaClient::SendCallback on_sent) {
  Span span(perfbench::kNaradaPublish);
  __real__ZN7gridmon6narada12NaradaClient7publishENS_3jms7MessageESt8functionIFvlEE(
      self, std::move(message), std::move(on_sent));
}

void __real__ZN7gridmon4rgma15PrimaryProducer6insertESt6vectorISt7variantIJNS0_7SqlNullEldNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEESaISB_EESt8functionIFvblEE(
    gm::rgma::PrimaryProducer*, std::vector<gm::rgma::SqlValue>,
    std::function<void(bool, gm::SimTime)>);
void __wrap__ZN7gridmon4rgma15PrimaryProducer6insertESt6vectorISt7variantIJNS0_7SqlNullEldNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEESaISB_EESt8functionIFvblEE(
    gm::rgma::PrimaryProducer* self, std::vector<gm::rgma::SqlValue> row,
    std::function<void(bool, gm::SimTime)> on_done) {
  Span span(perfbench::kRgmaInsert);
  __real__ZN7gridmon4rgma15PrimaryProducer6insertESt6vectorISt7variantIJNS0_7SqlNullEldNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEESaISB_EESt8functionIFvblEE(
      self, std::move(row), std::move(on_done));
}

void __real__ZN7gridmon4rgma8Consumer4pollESt8functionIFvSt6vectorINS0_5TupleESaIS4_EElEE(
    gm::rgma::Consumer*,
    std::function<void(std::vector<gm::rgma::Tuple>, gm::SimTime)>);
void __wrap__ZN7gridmon4rgma8Consumer4pollESt8functionIFvSt6vectorINS0_5TupleESaIS4_EElEE(
    gm::rgma::Consumer* self,
    std::function<void(std::vector<gm::rgma::Tuple>, gm::SimTime)> on_tuples) {
  Span span(perfbench::kRgmaPoll);
  __real__ZN7gridmon4rgma8Consumer4pollESt8functionIFvSt6vectorINS0_5TupleESaIS4_EElEE(
      self, std::move(on_tuples));
}

gm::rgma::sql::Tri
__real__ZNK7gridmon4rgma3sql17CompiledPredicate8evaluateERKSt6vectorISt7variantIJNS0_7SqlNullEldNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEESaISC_EE(
    const gm::rgma::sql::CompiledPredicate*,
    const std::vector<gm::rgma::SqlValue>&);
gm::rgma::sql::Tri
__wrap__ZNK7gridmon4rgma3sql17CompiledPredicate8evaluateERKSt6vectorISt7variantIJNS0_7SqlNullEldNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEESaISC_EE(
    const gm::rgma::sql::CompiledPredicate* self,
    const std::vector<gm::rgma::SqlValue>& row) {
  Span span(perfbench::kRgmaPredicate);
  return __real__ZNK7gridmon4rgma3sql17CompiledPredicate8evaluateERKSt6vectorISt7variantIJNS0_7SqlNullEldNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEESaISC_EE(
      self, row);
}

void __real__ZN7gridmon4mqtt10MqttClient7publishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEElibS7_St8functionIFvlEE(
    gm::mqtt::MqttClient*, const std::string&, std::int64_t, int, bool,
    std::string, gm::mqtt::MqttClient::SendCallback);
void __wrap__ZN7gridmon4mqtt10MqttClient7publishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEElibS7_St8functionIFvlEE(
    gm::mqtt::MqttClient* self, const std::string& topic,
    std::int64_t payload_bytes, int qos, bool retain, std::string message_id,
    gm::mqtt::MqttClient::SendCallback on_sent) {
  Span span(perfbench::kMqttPublish);
  __real__ZN7gridmon4mqtt10MqttClient7publishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEElibS7_St8functionIFvlEE(
      self, topic, payload_bytes, qos, retain, std::move(message_id),
      std::move(on_sent));
}

void __real__ZNK7gridmon4mqtt17SubscriptionIndex5matchESt17basic_string_viewIcSt11char_traitsIcEERSt6vectorINS1_5MatchESaIS7_EE(
    const gm::mqtt::SubscriptionIndex*, std::string_view,
    std::vector<gm::mqtt::SubscriptionIndex::Match>&);
void __wrap__ZNK7gridmon4mqtt17SubscriptionIndex5matchESt17basic_string_viewIcSt11char_traitsIcEERSt6vectorINS1_5MatchESaIS7_EE(
    const gm::mqtt::SubscriptionIndex* self, std::string_view topic,
    std::vector<gm::mqtt::SubscriptionIndex::Match>& out) {
  Span span(perfbench::kMqttSubIndex);
  __real__ZNK7gridmon4mqtt17SubscriptionIndex5matchESt17basic_string_viewIcSt11char_traitsIcEERSt6vectorINS1_5MatchESaIS7_EE(
      self, topic, out);
}

gm::hier::EdgeFrame __real__ZNK7gridmon4hier14EdgeAggregator12close_windowElRl(
    const gm::hier::EdgeAggregator*, std::int64_t, std::int64_t&);
gm::hier::EdgeFrame __wrap__ZNK7gridmon4hier14EdgeAggregator12close_windowElRl(
    const gm::hier::EdgeAggregator* self, std::int64_t window,
    std::int64_t& generated) {
  Span span(perfbench::kHierCloseWindow);
  return __real__ZNK7gridmon4hier14EdgeAggregator12close_windowElRl(
      self, window, generated);
}

void __real__ZN7gridmon4hier18RegionalAggregator7deliverENS0_9EdgeFrameE(
    gm::hier::RegionalAggregator*, gm::hier::EdgeFrame);
void __wrap__ZN7gridmon4hier18RegionalAggregator7deliverENS0_9EdgeFrameE(
    gm::hier::RegionalAggregator* self, gm::hier::EdgeFrame frame) {
  Span span(perfbench::kHierRegionalDeliver);
  __real__ZN7gridmon4hier18RegionalAggregator7deliverENS0_9EdgeFrameE(
      self, std::move(frame));
}

void __real__ZN7gridmon4core7Metrics6recordEllll(gm::core::Metrics*,
                                                  gm::SimTime, gm::SimTime,
                                                  gm::SimTime, gm::SimTime);
void __wrap__ZN7gridmon4core7Metrics6recordEllll(
    gm::core::Metrics* self, gm::SimTime before_sending,
    gm::SimTime after_sending, gm::SimTime before_receiving,
    gm::SimTime after_receiving) {
  Span span(perfbench::kMetricsRecord);
  __real__ZN7gridmon4core7Metrics6recordEllll(
      self, before_sending, after_sending, before_receiving, after_receiving);
}

void __real__ZN7gridmon3obs15HistogramSketch6recordEd(gm::obs::HistogramSketch*,
                                                      double);
void __wrap__ZN7gridmon3obs15HistogramSketch6recordEd(
    gm::obs::HistogramSketch* self, double value) {
  Span span(perfbench::kSketchRecord);
  __real__ZN7gridmon3obs15HistogramSketch6recordEd(self, value);
}

}  // extern "C"

namespace perfbench {

Clock::time_point first_run_loop_entry() { return g_first_entry; }

bool write_trace_fields(std::FILE* out, const char* spans_path) {
  const double loop_s =
      std::chrono::duration<double>(g_last_exit - g_first_entry).count();
  const std::int64_t loop_ticks = g_last_exit_tsc - g_first_entry_tsc;
  const double ticks_per_s =
      loop_s > 0 && loop_ticks > 0 ? static_cast<double>(loop_ticks) / loop_s
                                   : 0.0;
  std::fprintf(out,
               ",\"trace\":{\"ticks_per_s\":%.6f,\"loop_total_ticks\":%lld,"
               "\"sampled_spans\":%zu,\"sample_every\":%llu,\"boundaries\":{",
               ticks_per_s, static_cast<long long>(g_loop_total_ticks),
               g_sampled.size(), static_cast<unsigned long long>(kSampleEvery));
  for (int b = 0; b < kBoundaryCount; ++b) {
    const Totals& t = g_totals[b];
    std::fprintf(out,
                 "%s\"%s\":{\"calls\":%llu,\"self_ticks\":%lld,"
                 "\"in_loop_self_ticks\":%lld}",
                 b == 0 ? "" : ",", kNames[b],
                 static_cast<unsigned long long>(t.calls),
                 static_cast<long long>(t.self_ticks),
                 static_cast<long long>(t.in_loop_self_ticks));
  }
  std::fprintf(out, "}}");

  if (spans_path == nullptr) return true;
  std::FILE* spans = std::fopen(spans_path, "w");
  if (spans == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path);
    return false;
  }
  std::fprintf(spans, "boundary\tparent\tstart_s\tend_s\n");
  for (const SpanRecord& r : g_sampled) {
    std::fprintf(spans, "%s\t%s\t%.9f\t%.9f\n", kNames[r.boundary],
                 r.parent < 0 ? "-" : kNames[r.parent],
                 static_cast<double>(r.start - g_first_entry_tsc) / ticks_per_s,
                 static_cast<double>(r.end - g_first_entry_tsc) / ticks_per_s);
  }
  return std::fclose(spans) == 0;
}

}  // namespace perfbench
