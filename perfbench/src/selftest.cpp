// Tests of the benchmark's own measurement code: the percentile rule, the
// open-loop due-time latency accounting, the seeded input generators, and
// the trace self-time attribution. Exit status 0 when all pass.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace_analysis.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(near(percentile(v, 50.0), 50.0));
  EXPECT(near(percentile(v, 90.0), 90.0));
  EXPECT(near(percentile(v, 99.0), 99.0));
  EXPECT(near(percentile(v, 100.0), 100.0));
  EXPECT(near(percentile(v, 0.0), 1.0));
  EXPECT(near(percentile({}, 50.0), 0.0));
  EXPECT(near(percentile({7.0}, 99.0), 7.0));
  // Nearest rank of an even count is the lower middle sample.
  EXPECT(near(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.0));
  EXPECT(near(percentile({1.0, 2.0, 3.0}, 50.0), 2.0));
}

void test_tail_rule() {
  EXPECT(highest_tail_percentile(99) == 0.0);
  EXPECT(highest_tail_percentile(100) == 90.0);
  EXPECT(highest_tail_percentile(999) == 90.0);
  EXPECT(highest_tail_percentile(1000) == 99.0);
  EXPECT(highest_tail_percentile(10000) == 99.9);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT(s.n == 1000);
  EXPECT(near(s.p50, 500.0));
  EXPECT(s.tail_p == 99.0);
  EXPECT(near(s.tail_value, 990.0));  // exactly ten samples beyond it
}

void test_open_loop_latency_from_due_time() {
  // Requests due at 0, 1, 2, 3 s. The server stalls: the first request
  // takes until t=2.5, so requests 1 and 2 are sent together at 2.5 and
  // charged the wait; request 3 is slept for and sent 0.1 s late.
  OpenLoop loop({0.0, 1.0, 2.0, 3.0});
  auto b0 = loop.send(0.0, true);
  EXPECT(b0.first == 0 && b0.last == 1);
  loop.complete(b0, 2.5);
  auto b1 = loop.send(2.5, false);
  EXPECT(b1.first == 1 && b1.last == 3);  // natural batch of the backlog
  loop.complete(b1, 2.75);
  EXPECT(!loop.done());
  EXPECT(near(loop.next_due(), 3.0));
  auto b2 = loop.send(3.1, true);
  EXPECT(b2.first == 3 && b2.last == 4);
  loop.complete(b2, 3.2);
  EXPECT(loop.done());

  const std::vector<double>& lat = loop.latencies();
  EXPECT(lat.size() == 4);
  EXPECT(near(lat[0], 2.5));
  EXPECT(near(lat[1], 1.75));  // timed from its due time, not from 2.5
  EXPECT(near(lat[2], 0.75));
  EXPECT(near(lat[3], 0.2));
  // Generator lag only for requests the loop slept for.
  EXPECT(loop.generator_lags().size() == 2);
  EXPECT(near(loop.generator_lags()[0], 0.0));
  EXPECT(near(loop.generator_lags()[1], 0.1));
  EXPECT(near(loop.queue_waits()[1], 1.5));
}

void test_backlog_detection() {
  std::vector<double> due;
  for (int i = 0; i < 100; ++i) due.push_back(i * 0.01);
  // A single server taking `service` seconds per request, fed by the
  // natural-batching benchmark loop.
  auto serve = [&](double service) {
    OpenLoop loop(due);
    double now = 0.0;
    while (!loop.done()) {
      const bool idle = now < loop.next_due();
      if (idle) now = loop.next_due();
      const auto batch = loop.send(now, idle);
      now += service * static_cast<double>(batch.last - batch.first);
      loop.complete(batch, now);
    }
    return loop;
  };
  EXPECT(!serve(0.001).backlog_growing(0.005));
  // Served twice as slowly as requests arrive: the queue keeps growing.
  EXPECT(serve(0.02).backlog_growing(0.005));
  EXPECT(near(serve(0.001).latencies()[50], 0.001));
}

void test_generators() {
  const auto a = poisson_due_times(100.0, 10.0, 42);
  const auto b = poisson_due_times(100.0, 10.0, 42);
  const auto c = poisson_due_times(100.0, 10.0, 43);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() > 900 && a.size() < 1100);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT(a[i] > a[i - 1]);
  EXPECT(a.back() < 10.0);

  const Zipf zipf(1000, 1.0);
  SplitMix rng(9);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT(counts[0] > counts[1] && counts[1] > counts[9]);
  // Rank 1 carries 1/H(1000) ~ 13.4% of the mass.
  EXPECT(counts[0] > 12000 && counts[0] < 15000);
}

SpanRecord span(const char* name, const char* cat, std::uint32_t lane,
                double start, double dur) {
  SpanRecord s;
  s.name = name;
  s.cat = cat;
  s.lane = lane;
  s.start_us = start;
  s.dur_us = dur;
  return s;
}

void test_self_time() {
  // Main lane 0: a serve span [0,100) fans out; the main thread runs task 0
  // itself ([5,40), holding a sched span [10,30)) and waits. Worker lane 1
  // runs task 1 with a sched span [20,60) whose child [25,35) is the plan
  // cache. Task spans are transparent, and a lane's self times only
  // subtract that lane's children.
  const std::vector<SpanRecord> spans = {
      span("serve.serve_chunk", "bench.serve", 0, 0, 100),
      span("task#0", "task_pool", 0, 5, 35),
      span("bnb.plan", "sched", 0, 10, 20),
      span("task#1", "task_pool", 1, 20, 40),
      span("bnb.plan", "sched", 1, 20, 40),
      span("plan_cache.plan", "sched", 1, 25, 10),
      span("dynamic.replan", "dynamic", 0, 200, 5),
  };
  const std::vector<double> self = self_times_us(spans);
  EXPECT(near(self[0], 80.0));
  EXPECT(near(self[1], 0.0));
  EXPECT(near(self[2], 20.0));
  EXPECT(near(self[3], 0.0));
  EXPECT(near(self[4], 30.0));
  EXPECT(near(self[5], 10.0));
  EXPECT(near(self[6], 5.0));

  // The main lane's shares partition its wall time.
  const auto layers = layer_self_us(spans, self, 0, 0.0, 150.0);
  EXPECT(layers.size() == 2);
  EXPECT(near(layers.at("serve"), 80.0));
  EXPECT(near(layers.at("sched"), 20.0));
  EXPECT(near(layer_self_us(spans, self, 0, 150.0, 1e9).at("runtime"), 5.0));
  EXPECT(layer_of("dynamic") == "runtime");
  EXPECT(layer_of("bench.profile") == "profile");
}

void test_chrome_parse() {
  const std::string json =
      "{\n\"displayTimeUnit\": \"ms\",\n\"corunMetrics\": {\"a.b\": 3},\n"
      "\"traceEvents\": [\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"lane-0\"}},\n"
      "  {\"name\": \"x\\\"y\", \"cat\": \"bench.serve\", \"ph\": \"X\", "
      "\"ts\": 1.500, \"dur\": 2.250, \"pid\": 1, \"tid\": 3},\n"
      "  {\"name\": \"c\", \"ph\": \"C\", \"ts\": 4.000, \"args\": "
      "{\"value\": 1e3}, \"pid\": 1, \"tid\": 0}\n]\n}\n";
  const auto spans = parse_chrome_spans(json);
  EXPECT(spans.size() == 1);
  EXPECT(spans[0].name == "x\"y");
  EXPECT(spans[0].cat == "bench.serve");
  EXPECT(spans[0].lane == 3);
  EXPECT(near(spans[0].start_us, 1.5));
  EXPECT(near(spans[0].dur_us, 2.25));

  bool threw = false;
  try {
    (void)parse_chrome_spans("{\"traceEvents\": [ {\"name\": }");
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_open_loop_latency_from_due_time();
  test_backlog_detection();
  test_generators();
  test_self_time();
  test_chrome_parse();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
